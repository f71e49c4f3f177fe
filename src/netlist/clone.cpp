#include "netlist/clone.h"

#include <string>
#include <vector>

namespace gfr::netlist {

Netlist clone_netlist(const Netlist& src, const CloneOptions& options,
                      const GateHook& gate_hook, const OutputHook& output_hook) {
    Netlist dst;
    std::vector<NodeId> map(src.node_count(), kInvalidNode);
    std::vector<std::string> input_name(src.node_count());
    for (const auto& port : src.inputs()) {
        input_name[port.node] = port.name;
    }
    for (NodeId id = 0; id < src.node_count(); ++id) {
        const auto& node = src.node(id);
        switch (node.kind) {
            case GateKind::Input:
                map[id] = dst.add_input(input_name[id]);
                break;
            case GateKind::Const0:
                // A netlist holds at most one Const0 node, so const0() in
                // the destination appends exactly one node here and the
                // verbatim mode's 1:1 id map holds for it too.
                map[id] = dst.const0();
                break;
            case GateKind::And2:
            case GateKind::Xor2: {
                auto kind = node.kind;
                auto a = node.a;
                auto b = node.b;
                if (gate_hook) {
                    gate_hook(id, kind, a, b);
                }
                const NodeId fa = map[a];
                const NodeId fb = map[b];
                if (options.intern) {
                    map[id] = (kind == GateKind::And2) ? dst.make_and(fa, fb)
                                                       : dst.make_xor(fa, fb);
                } else {
                    map[id] = (kind == GateKind::And2)
                                  ? dst.make_and_fresh(fa, fb)
                                  : dst.make_xor_fresh(fa, fb);
                }
                break;
            }
        }
    }
    std::vector<NodeId> mapped_outputs;
    mapped_outputs.reserve(src.outputs().size());
    for (const auto& port : src.outputs()) {
        mapped_outputs.push_back(map[port.node]);
    }
    for (std::size_t o = 0; o < src.outputs().size(); ++o) {
        NodeId node = mapped_outputs[o];
        if (output_hook) {
            node = output_hook(o, mapped_outputs, dst);
        }
        dst.add_output(src.outputs()[o].name, node);
    }
    return dst;
}

}  // namespace gfr::netlist
