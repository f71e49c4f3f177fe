#include "netlist/parse_vhdl.h"

#include "netlist/hdl_names.h"

#include <cctype>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gfr::netlist {

using detail::lowercase;

namespace {

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
        ++b;
    }
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
        --e;
    }
    return s.substr(b, e - b);
}

std::vector<std::string> tokens(const std::string& s) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])) != 0) {
            ++i;
        }
        std::size_t j = i;
        while (j < s.size() &&
               std::isspace(static_cast<unsigned char>(s[j])) == 0) {
            ++j;
        }
        if (j > i) {
            out.push_back(s.substr(i, j - i));
        }
        i = j;
    }
    return out;
}

[[noreturn]] void fail(int line, const std::string& why) {
    throw std::invalid_argument{"parse_vhdl: line " + std::to_string(line) +
                                ": " + why};
}

}  // namespace

Netlist parse_vhdl(const std::string& text) {
    Netlist nl;
    // name -> driving node, keyed by the lower-case name.  Inputs land here
    // at declaration, everything else at its (single) assignment; emit_vhdl
    // orders gates by id, so operands are always defined before use.
    std::unordered_map<std::string, NodeId> driver;
    std::vector<std::string> output_names;  // declaration order and spelling
    std::unordered_set<std::string> input_set;   // lower case
    std::unordered_set<std::string> output_set;  // lower case

    const auto lookup = [&](const std::string& name, int line) -> NodeId {
        const auto it = driver.find(lowercase(name));
        if (it == driver.end()) {
            fail(line, "undefined signal '" + name + "'");
        }
        return it->second;
    };

    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl_pos = text.find('\n', pos);
        const std::string raw =
            text.substr(pos, nl_pos == std::string::npos ? std::string::npos
                                                         : nl_pos - pos);
        pos = nl_pos == std::string::npos ? text.size() + 1 : nl_pos + 1;
        ++line_no;
        const std::string line = trim(raw);
        if (line.empty()) {
            continue;
        }

        const std::size_t assign = line.find("<=");
        if (assign != std::string::npos) {
            const std::string lhs = trim(line.substr(0, assign));
            std::string rhs = trim(line.substr(assign + 2));
            if (rhs.empty() || rhs.back() != ';') {
                fail(line_no, "assignment does not end in ';'");
            }
            rhs = trim(rhs.substr(0, rhs.size() - 1));
            if (lhs.empty() || tokens(lhs).size() != 1) {
                fail(line_no, "malformed assignment target");
            }
            if (driver.count(lowercase(lhs)) != 0) {
                fail(line_no, "signal '" + lhs + "' driven twice");
            }
            const std::vector<std::string> rt = tokens(rhs);
            NodeId node = kInvalidNode;
            if (rt.size() == 1 && rt[0] == "'0'") {
                node = nl.const0();
            } else if (rt.size() == 1) {
                node = lookup(rt[0], line_no);
            } else if (rt.size() == 3 && lowercase(rt[1]) == "and") {
                node = nl.make_and_fresh(lookup(rt[0], line_no),
                                         lookup(rt[2], line_no));
            } else if (rt.size() == 3 && lowercase(rt[1]) == "xor") {
                node = nl.make_xor_fresh(lookup(rt[0], line_no),
                                         lookup(rt[2], line_no));
            } else {
                fail(line_no, "unsupported expression '" + rhs +
                                  "' (expected and/xor/'0'/copy)");
            }
            driver.emplace(lowercase(lhs), node);
            continue;
        }

        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            const std::vector<std::string> before = tokens(line.substr(0, colon));
            const std::vector<std::string> after = tokens(line.substr(colon + 1));
            if (before.size() != 1 || after.empty()) {
                continue;  // not a port/signal declaration (e.g. "end ...;")
            }
            const std::string& name = before[0];
            const std::string key = lowercase(name);
            const std::string mode = lowercase(after[0]);
            // A name is one port, in any spelling: declared once, as `in` or
            // as `out`.
            if (mode == "in") {
                if (driver.count(key) != 0 || output_set.count(key) != 0) {
                    fail(line_no, "duplicate declaration of '" + name + "'");
                }
                input_set.insert(key);
                driver.emplace(key, nl.add_input(name));
            } else if (mode == "out") {
                if (input_set.count(key) != 0 || !output_set.insert(key).second) {
                    fail(line_no, "duplicate declaration of '" + name + "'");
                }
                output_names.push_back(name);
            }
            // anything else (signal declarations) carries no connectivity
            continue;
        }
        // library/use/entity/architecture/begin/end scaffolding: ignored.
    }

    if (output_names.empty()) {
        fail(line_no, "no output ports declared");
    }
    for (const std::string& name : output_names) {
        const auto it = driver.find(lowercase(name));
        if (it == driver.end()) {
            fail(line_no, "output '" + name + "' has no driver");
        }
        nl.add_output(name, it->second);
    }
    return nl;
}

}  // namespace gfr::netlist
