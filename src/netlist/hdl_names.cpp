#include "netlist/hdl_names.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>
#include <unordered_map>

namespace gfr::netlist::detail {

namespace {

// IEEE 1076-2019 reserved words, sorted.
constexpr std::string_view kVhdlReserved[] = {
    "abs", "access", "after", "alias", "all", "and", "architecture", "array", "assert",
    "assume", "assume_guarantee", "attribute", "begin", "block", "body", "buffer", "bus",
    "case", "component", "configuration", "constant", "context", "cover", "default",
    "disconnect", "downto", "else", "elsif", "end", "entity", "exit", "fairness", "file", "for",
    "force", "function", "generate", "generic", "group", "guarded", "if", "impure", "in",
    "inertial", "inout", "is", "label", "library", "linkage", "literal", "loop", "map", "mod",
    "nand", "new", "next", "nor", "not", "null", "of", "on", "open", "or", "others", "out",
    "package", "parameter", "port", "postponed", "private", "procedure", "process", "property",
    "protected", "pure", "range", "record", "register", "reject", "release", "rem", "report",
    "restrict", "restrict_guarantee", "return", "rol", "ror", "select", "sequence", "severity",
    "shared", "signal", "sla", "sll", "sra", "srl", "strong", "subtype", "then", "to",
    "transport", "type", "unaffected", "units", "until", "use", "variable", "view", "vmode",
    "vprop", "vunit", "wait", "when", "while", "with", "xnor", "xor",
};

// IEEE 1364-2005 keywords, sorted.
constexpr std::string_view kVerilogReserved[] = {
    "always", "and", "assign", "automatic", "begin", "buf", "bufif0", "bufif1", "case", "casex",
    "casez", "cell", "cmos", "config", "deassign", "default", "defparam", "design", "disable",
    "edge", "else", "end", "endcase", "endconfig", "endfunction", "endgenerate", "endmodule",
    "endprimitive", "endspecify", "endtable", "endtask", "event", "for", "force", "forever",
    "fork", "function", "generate", "genvar", "highz0", "highz1", "if", "ifnone", "incdir",
    "include", "initial", "inout", "input", "instance", "integer", "join", "large", "liblist",
    "library", "localparam", "macromodule", "medium", "module", "nand", "negedge", "nmos",
    "nor", "noshowcancelled", "not", "notif0", "notif1", "or", "output", "parameter", "pmos",
    "posedge", "primitive", "pull0", "pull1", "pulldown", "pullup", "pulsestyle_ondetect",
    "pulsestyle_onevent", "rcmos", "real", "realtime", "reg", "release", "repeat", "rnmos",
    "rpmos", "rtran", "rtranif0", "rtranif1", "scalared", "showcancelled", "signed", "small",
    "specify", "specparam", "strong0", "strong1", "supply0", "supply1", "table", "task", "time",
    "tran", "tranif0", "tranif1", "tri", "tri0", "tri1", "triand", "trior", "trireg",
    "unsigned", "use", "uwire", "vectored", "wait", "wand", "weak0", "weak1", "while", "wire",
    "wor", "xnor", "xor",
};

static_assert(std::ranges::is_sorted(kVhdlReserved) && std::ranges::is_sorted(kVerilogReserved));

bool is_letter(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }

bool is_reserved(const std::string& id, const HdlDialect& dialect) {
    return dialect.vhdl ? std::ranges::binary_search(kVhdlReserved, lowercase(id))
                        : std::ranges::binary_search(kVerilogReserved, id);
}

}  // namespace

std::string lowercase(std::string s) {
    for (char& c : s) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
}

std::string hdl_identifier(const std::string& name, const HdlDialect& dialect) {
    std::string out;
    for (const char c : name) {
        const char next = is_letter(c) || (c >= '0' && c <= '9') ? c : '_';
        if (next == '_' && dialect.vhdl && !out.empty() && out.back() == '_') {
            continue;  // VHDL has no doubled underscore
        }
        out += next;
    }
    if (dialect.vhdl && !out.empty() && out.back() == '_') {
        out.pop_back();  // nor a trailing one
    }
    if (out.empty() || !(is_letter(out[0]) || (!dialect.vhdl && out[0] == '_')) ||
        is_reserved(out, dialect)) {
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
        const std::string key = dialect.vhdl ? lowercase(id) : id;
        const std::string source = std::string{kind} + " '" + name + "'";
        const auto collide = [&](const std::string& first, const std::string& second) {
            const char* language = dialect.vhdl ? "VHDL" : "Verilog";
            throw std::invalid_argument{std::string{dialect.emitter} + ": " + first + " and " +
                                        second + " map to the same " + language +
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
