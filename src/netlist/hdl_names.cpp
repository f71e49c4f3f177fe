#include "netlist/hdl_names.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

namespace gfr::netlist::detail {

namespace {

bool is_letter(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }

/// The node whose hdl_wire is `key` ("n" and a decimal id without leading
/// zeros), or kInvalidNode.
NodeId wire_node(const std::string& key) {
    if (key.size() < 2 || key.size() > 11 || key[0] != 'n' || (key[1] == '0' && key.size() > 2)) {
        return kInvalidNode;
    }
    std::uint64_t id = 0;
    const auto [end, ec] = std::from_chars(key.data() + 1, key.data() + key.size(), id);
    if (ec != std::errc{} || end != key.data() + key.size() || id >= kInvalidNode) {
        return kInvalidNode;
    }
    return static_cast<NodeId>(id);
}

}  // namespace

std::string hdl_identifier(const std::string& name, const HdlDialect& dialect) {
    std::string out;
    for (const char c : name) {
        const bool ok = is_letter(c) || (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || !(is_letter(out[0]) || (dialect.leading_underscore && out[0] == '_'))) {
        out = "p" + out;
    }
    return out;
}

HdlPorts hdl_ports(const Netlist& nl, const std::vector<bool>& reachable,
                   const HdlDialect& dialect) {
    HdlPorts ports;
    std::unordered_map<std::string, std::string> owner;  // compared form -> source
    const auto claim = [&](const Port& port, const char* kind) {
        std::string id = hdl_identifier(port.name, dialect);
        std::string key = id;
        if (dialect.case_insensitive) {
            for (char& c : key) {
                c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
            }
        }
        const std::string source = std::string{kind} + " '" + port.name + "'";
        const auto collide = [&](const std::string& first, const std::string& second) {
            throw std::invalid_argument{std::string{dialect.emitter} + ": " + first + " and " +
                                        second + " map to the same " + dialect.language +
                                        " identifier '" + id + "'"};
        };
        if (const auto [it, fresh] = owner.emplace(key, source); !fresh) {
            collide(it->second, source);
        }
        const NodeId v = wire_node(key);
        if (v < nl.node_count() && reachable[v] && nl.node(v).kind != GateKind::Input) {
            collide(source, "the wire of node " + std::to_string(v));
        }
        return id;
    };
    for (const auto& port : nl.inputs()) {
        ports.inputs.push_back(claim(port, "input"));
    }
    for (const auto& port : nl.outputs()) {
        ports.outputs.push_back(claim(port, "output"));
    }
    return ports;
}

}  // namespace gfr::netlist::detail
