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

std::vector<bool> frozen_nodes(const Netlist& nl) {
    const std::size_t n = nl.node_count();
    std::vector<bool> frozen(n, false);
    if (nl.protected_count() == 0) {
        return frozen;
    }
    std::vector<NodeId> stack;
    for (NodeId id = 0; id < n; ++id) {
        if (nl.is_protected(id)) {
            frozen[id] = true;
            stack.push_back(id);
        }
    }
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const auto& node = nl.node(id);
        for (const NodeId fi : {node.a, node.b}) {
            if (fi != kInvalidNode && !frozen[fi]) {
                frozen[fi] = true;
                stack.push_back(fi);
            }
        }
    }
    return frozen;
}

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
    const auto frozen = internal::frozen_nodes(nl);

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
                if (reachable[id] || frozen[id]) {
                    r.node_map[id] = dst.const0();
                }
                break;
            case GateKind::And2:
            case GateKind::Xor2: {
                if (!reachable[id] && !frozen[id]) {
                    break;  // swept
                }
                const NodeId fa = r.node_map[node.a];
                const NodeId fb = r.node_map[node.b];
                if (frozen[id]) {
                    // Verbatim rebuild: fresh gate, out of reach of the
                    // structural hash, exactly as the guard pass built it.
                    r.node_map[id] = (node.kind == GateKind::And2)
                                         ? dst.make_and_fresh(fa, fb)
                                         : dst.make_xor_fresh(fa, fb);
                } else {
                    r.node_map[id] = (node.kind == GateKind::And2)
                                         ? dst.make_and(fa, fb)
                                         : dst.make_xor(fa, fb);
                }
                break;
            }
        }
        if (r.node_map[id] != kInvalidNode && nl.is_protected(id)) {
            dst.set_protected(r.node_map[id]);
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
