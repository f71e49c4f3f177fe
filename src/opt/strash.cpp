#include "opt/internal.h"
#include "opt/opt.h"

#include <algorithm>
#include <string>
#include <vector>

namespace gfr::opt {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

namespace internal {

bool identical(const Netlist& x, const Netlist& y) {
    if (x.node_count() != y.node_count() || x.inputs().size() != y.inputs().size() ||
        x.outputs().size() != y.outputs().size()) {
        return false;
    }
    for (NodeId id = 0; id < x.node_count(); ++id) {
        const auto& u = x.node(id);
        const auto& v = y.node(id);
        if (u.kind != v.kind || u.a != v.a || u.b != v.b) {
            return false;
        }
    }
    const auto same_ports = [](const std::vector<netlist::Port>& p,
                               const std::vector<netlist::Port>& q) {
        return std::equal(p.begin(), p.end(), q.begin(), [](const auto& s, const auto& t) {
            return s.node == t.node && s.name == t.name;
        });
    };
    return same_ports(x.inputs(), y.inputs()) && same_ports(x.outputs(), y.outputs());
}

PassResult strash_substituted(const Netlist& nl, const std::vector<NodeId>& subst) {
    const std::size_t n = nl.node_count();
    const auto reachable = nl.reachable_from_outputs();

    PassResult r;
    r.node_map.assign(n, kInvalidNode);
    auto& dst = r.netlist;

    std::vector<std::string> input_name(n);
    for (const auto& port : nl.inputs()) {
        input_name[port.node] = port.name;
    }

    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        if (!subst.empty() && subst[id] != kInvalidNode) {
            r.node_map[id] = r.node_map[subst[id]];
            continue;
        }
        switch (node.kind) {
            case GateKind::Input:
                // Inputs survive even when dead: the interface is part of
                // the netlist's contract (verification matches ports).
                r.node_map[id] = dst.add_input(input_name[id]);
                break;
            case GateKind::Const0:
                if (reachable[id]) {
                    r.node_map[id] = dst.const0();
                }
                break;
            case GateKind::And2:
            case GateKind::Xor2: {
                if (!reachable[id]) {
                    break;  // swept
                }
                const NodeId fa = r.node_map[node.a];
                const NodeId fb = r.node_map[node.b];
                r.node_map[id] = (node.kind == GateKind::And2) ? dst.make_and(fa, fb)
                                                               : dst.make_xor(fa, fb);
                break;
            }
        }
    }

    for (const auto& port : nl.outputs()) {
        dst.add_output(port.name, r.node_map[port.node]);
    }
    return r;
}

}  // namespace internal

PassResult strash(const Netlist& nl) {
    return internal::strash_substituted(nl, {});
}

}  // namespace gfr::opt
