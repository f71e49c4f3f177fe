#include "netlist/hdl_names.h"

#include <cctype>
#include <charconv>
#include <stdexcept>
#include <unordered_map>

namespace gfr::netlist::detail {

namespace {

bool is_letter(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }

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

std::optional<std::uint64_t> hdl_generated_index(const std::string& key,
                                                 std::string_view prefix) {
    if (key.size() <= prefix.size() || key.size() > prefix.size() + 10 ||
        key.compare(0, prefix.size(), prefix) != 0 ||
        (key[prefix.size()] == '0' && key.size() > prefix.size() + 1)) {
        return std::nullopt;
    }
    std::uint64_t index = 0;
    const auto [end, ec] =
        std::from_chars(key.data() + prefix.size(), key.data() + key.size(), index);
    if (ec != std::errc{} || end != key.data() + key.size()) {
        return std::nullopt;
    }
    return index;
}

HdlPorts hdl_ports(std::span<const std::string> inputs, std::span<const std::string> outputs,
                   const HdlGeneratedOwner& generated, const HdlDialect& dialect) {
    HdlPorts ports;
    std::unordered_map<std::string, std::string> owner;  // compared form -> source
    const auto claim = [&](const std::string& name, const char* kind) {
        std::string id = hdl_identifier(name, dialect);
        std::string key = id;
        if (dialect.case_insensitive) {
            for (char& c : key) {
                c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
            }
        }
        const std::string source = std::string{kind} + " '" + name + "'";
        const auto collide = [&](const std::string& first, const std::string& second) {
            throw std::invalid_argument{std::string{dialect.emitter} + ": " + first + " and " +
                                        second + " map to the same " + dialect.language +
                                        " identifier '" + id + "'"};
        };
        if (const auto [it, fresh] = owner.emplace(key, source); !fresh) {
            collide(it->second, source);
        }
        if (const std::string taken = generated(key); !taken.empty()) {
            collide(source, taken);
        }
        return id;
    };
    for (const auto& name : inputs) {
        ports.inputs.push_back(claim(name, "input"));
    }
    for (const auto& name : outputs) {
        ports.outputs.push_back(claim(name, "output"));
    }
    return ports;
}

HdlPorts hdl_ports(const Netlist& nl, const std::vector<bool>& reachable,
                   const HdlDialect& dialect) {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    for (const auto& port : nl.inputs()) {
        inputs.push_back(port.name);
    }
    for (const auto& port : nl.outputs()) {
        outputs.push_back(port.name);
    }
    return hdl_ports(
        inputs, outputs,
        [&](const std::string& key) -> std::string {
            const auto v = hdl_generated_index(key, "n");
            if (v && *v < nl.node_count() && reachable[*v] &&
                nl.node(static_cast<NodeId>(*v)).kind != GateKind::Input) {
                return "the wire of node " + std::to_string(*v);
            }
            return "";
        },
        dialect);
}

}  // namespace gfr::netlist::detail
