#include "opt/opt.h"

#include <string>
#include <vector>

namespace gfr::opt {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

PassResult strash(const Netlist& nl) {
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

}  // namespace gfr::opt
