// reverse_engineer: recover the word-level spec of an anonymous GF(2^m)
// multiplier from nothing but its gates.
//
// The recovery leans entirely on structure the ANF extraction makes
// explicit.  For a genuine multiplier C = A*B mod f:
//
//   1. every output ANF is a pure bilinear form: each monomial is a product
//      of exactly two inputs, one from each operand;
//   2. the pair graph (inputs adjacent iff some a_i*b_j monomial joins them)
//      is complete bipartite — x^(i+j) mod f is never zero — so 2-coloring
//      it separates the operands;
//   3. a pair (a_i, b_j) appears in exactly the output columns of
//      x^(i+j) mod f.  For s = i+j < m that is the single column s, and
//      column s collects exactly s+1 such singleton-support pairs — the
//      counts 1..m identify the output bit order outright;
//   4. the unique singleton pair of column 0 is (a_0, b_0); pairing every
//      other A-side input against b_0 (and B-side against a_0) indexes the
//      operand bits; and the column support of the pair (a_1, b_(m-1)) is
//      literally the support of x^m mod f — i.e. f itself.
//
// The recovered f must pass the repo's irreducibility tooling, and every
// extracted column must pass ColumnChecker for f exactly, before success is
// reported — a wrong guess can only ever yield a clean rejection.  The
// identification in step 3 assumes x^s mod f hits no monomial for
// m <= s <= 2m-2 (true whenever ord(x) > 2m-2, which holds for every
// catalog field); a pathological modulus outside that regime fails the
// final re-verification and is rejected, never mis-recovered.

#include "acv/acv.h"

#include "gf2/irreducibility.h"
#include "gf2/pentanomial.h"
#include "verify/campaign.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gfr::acv {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;

namespace {

/// Gate-for-gate rebuild with reordered, renamed ports.  Fresh (non-interned)
/// gates keep the structure verbatim — stats() of source and result match.
Netlist rebuild_with_ports(
    const Netlist& src, std::span<const int> input_order,
    const std::function<std::string(int)>& input_name,
    std::span<const int> output_order,
    const std::function<std::string(int)>& output_name) {
    Netlist dst;
    std::vector<NodeId> map(src.node_count(), kInvalidNode);
    for (std::size_t p = 0; p < input_order.size(); ++p) {
        const auto& port =
            src.inputs()[static_cast<std::size_t>(input_order[p])];
        map[port.node] = dst.add_input(input_name(static_cast<int>(p)));
    }
    for (NodeId id = 0; id < src.node_count(); ++id) {
        const Node& nd = src.node(id);
        switch (nd.kind) {
            case GateKind::Input:
                break;  // placed above, in the requested port order
            case GateKind::Const0:
                map[id] = dst.const0();
                break;
            case GateKind::And2:
                map[id] = dst.make_and_fresh(map[nd.a], map[nd.b]);
                break;
            case GateKind::Xor2:
                map[id] = dst.make_xor_fresh(map[nd.a], map[nd.b]);
                break;
        }
    }
    for (std::size_t p = 0; p < output_order.size(); ++p) {
        const auto& port =
            src.outputs()[static_cast<std::size_t>(output_order[p])];
        dst.add_output(output_name(static_cast<int>(p)), map[port.node]);
    }
    return dst;
}

ReverseResult reject(std::string why) {
    ReverseResult result;
    result.reason = "not a GF(2^m) multiplier: " + std::move(why);
    return result;
}

/// Label f against the paper's low-weight families.
std::string family_label(const gf2::Poly& f) {
    const std::vector<int> support = f.support();  // ascending
    const int m = f.degree();
    if (support.size() == 3 && support[0] == 0) {
        return "trinomial k=" + std::to_string(support[1]);
    }
    if (support.size() == 5 && support[0] == 0) {
        const int n2 = support[1];
        if (support[2] == n2 + 1 && support[3] == n2 + 2 &&
            gf2::TypeIIPentanomial::valid_parameters(m, n2)) {
            return "type II pentanomial (" + std::to_string(m) + ", " +
                   std::to_string(n2) + ")";
        }
        if (support[1] == 1 && support[3] == support[2] + 1 &&
            gf2::TypeIPentanomial::valid_parameters(m, support[2])) {
            return "type I pentanomial (" + std::to_string(m) + ", " +
                   std::to_string(support[2]) + ")";
        }
    }
    return "";
}

}  // namespace

std::string RecoveredSpec::to_string() const {
    std::string out = "GF(2^" + std::to_string(m) +
                      ") multiplier: f = " + modulus.to_string();
    if (!modulus_family.empty()) {
        out += " (" + modulus_family + ")";
    }
    return out;
}

ReverseResult reverse_engineer(const Netlist& nl,
                               const ReverseOptions& options) {
    const int m = static_cast<int>(nl.outputs().size());
    const int n_in = static_cast<int>(nl.inputs().size());
    if (m < 2 || n_in != 2 * m) {
        return reject("port shape is not 2m inputs / m outputs (got " +
                      std::to_string(n_in) + "/" + std::to_string(m) + ")");
    }

    // 1. Canonical ANF of every output.
    ColumnExpander expander{nl};
    std::vector<std::vector<Monomial>> anf(static_cast<std::size_t>(m));
    for (int o = 0; o < m; ++o) {
        const auto status =
            expander.expand(nl.outputs()[static_cast<std::size_t>(o)].node,
                            options.max_monomials,
                            anf[static_cast<std::size_t>(o)]);
        if (status != ColumnExpander::Status::Ok) {
            return reject("output '" + nl.outputs()[static_cast<std::size_t>(o)].name +
                          "' exceeded the ANF expansion cap");
        }
        if (anf[static_cast<std::size_t>(o)].empty()) {
            return reject("output '" +
                          nl.outputs()[static_cast<std::size_t>(o)].name +
                          "' is constant 0");
        }
    }

    // 2. Bilinearity check + pair supports.  Every monomial must be a
    // product of exactly two inputs; each distinct pair collects the set of
    // output columns it feeds.
    std::vector<int> port_of_node(nl.node_count(), -1);
    for (int p = 0; p < n_in; ++p) {
        port_of_node[nl.inputs()[static_cast<std::size_t>(p)].node] = p;
    }
    struct PairInfo {
        int u = 0;  // smaller input port index
        int v = 0;
        std::vector<int> outputs;  // ascending by construction
    };
    std::unordered_map<std::uint64_t, int> pair_index;
    std::vector<PairInfo> pairs;
    for (int o = 0; o < m; ++o) {
        for (const Monomial& mono : anf[static_cast<std::size_t>(o)]) {
            if (mono.count != 2) {
                return reject("output '" +
                              nl.outputs()[static_cast<std::size_t>(o)].name +
                              "' is not a pure bilinear form (a degree-" +
                              std::to_string(mono.count) + " term survives)");
            }
            int u = port_of_node[mono.vars[0]];
            int v = port_of_node[mono.vars[1]];
            if (u > v) {
                std::swap(u, v);
            }
            const std::uint64_t key = static_cast<std::uint64_t>(u) *
                                          static_cast<std::uint64_t>(2 * m) +
                                      static_cast<std::uint64_t>(v);
            auto [it, fresh] =
                pair_index.emplace(key, static_cast<int>(pairs.size()));
            if (fresh) {
                pairs.push_back({u, v, {}});
            }
            pairs[static_cast<std::size_t>(it->second)].outputs.push_back(o);
        }
    }

    // 3. Two-color the pair graph: the operand sides.
    std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(n_in));
    for (const PairInfo& pair : pairs) {
        adjacency[static_cast<std::size_t>(pair.u)].push_back(pair.v);
        adjacency[static_cast<std::size_t>(pair.v)].push_back(pair.u);
    }
    std::vector<int> side(static_cast<std::size_t>(n_in), -1);
    std::vector<int> queue;
    for (int start = 0; start < n_in; ++start) {
        if (side[static_cast<std::size_t>(start)] != -1 ||
            adjacency[static_cast<std::size_t>(start)].empty()) {
            continue;
        }
        side[static_cast<std::size_t>(start)] = 0;
        queue.assign(1, start);
        while (!queue.empty()) {
            const int u = queue.back();
            queue.pop_back();
            for (const int v : adjacency[static_cast<std::size_t>(u)]) {
                if (side[static_cast<std::size_t>(v)] == -1) {
                    side[static_cast<std::size_t>(v)] =
                        1 - side[static_cast<std::size_t>(u)];
                    queue.push_back(v);
                } else if (side[static_cast<std::size_t>(v)] ==
                           side[static_cast<std::size_t>(u)]) {
                    return reject(
                        "the product-pair graph is not bipartite (inputs do "
                        "not split into two operands)");
                }
            }
        }
    }
    int side_counts[2] = {0, 0};
    for (int p = 0; p < n_in; ++p) {
        if (side[static_cast<std::size_t>(p)] == -1) {
            return reject("input '" +
                          nl.inputs()[static_cast<std::size_t>(p)].name +
                          "' feeds no product term");
        }
        ++side_counts[side[static_cast<std::size_t>(p)]];
    }
    if (side_counts[0] != m || side_counts[1] != m) {
        return reject("operand sides are unbalanced (" +
                      std::to_string(side_counts[0]) + "/" +
                      std::to_string(side_counts[1]) + " inputs)");
    }

    // 4. Output bit order from the singleton-support pair counts: column s
    // owns exactly s+1 pairs whose support is {s} (the pairs with
    // i + j = s < m), so the counts 1..m are a permutation signature.
    std::vector<int> singleton_count(static_cast<std::size_t>(m), 0);
    for (const PairInfo& pair : pairs) {
        if (pair.outputs.size() == 1) {
            ++singleton_count[static_cast<std::size_t>(pair.outputs[0])];
        }
    }
    std::vector<int> column_of_output(static_cast<std::size_t>(m), -1);
    std::vector<int> output_of_column(static_cast<std::size_t>(m), -1);
    for (int o = 0; o < m; ++o) {
        const int count = singleton_count[static_cast<std::size_t>(o)];
        if (count < 1 || count > m ||
            output_of_column[static_cast<std::size_t>(count - 1)] != -1) {
            return reject(
                "the output column signature does not match a GF(2^m) "
                "multiplier");
        }
        column_of_output[static_cast<std::size_t>(o)] = count - 1;
        output_of_column[static_cast<std::size_t>(count - 1)] = o;
    }

    // 5. (a_0, b_0) is the unique singleton pair of column 0; canonicalize
    // the commutative A/B ambiguity by putting a_0 on the smaller port.
    const int column0_output = output_of_column[0];
    int a0 = -1;
    int b0 = -1;
    for (const PairInfo& pair : pairs) {
        if (pair.outputs.size() == 1 && pair.outputs[0] == column0_output) {
            a0 = pair.u;  // u < v by construction
            b0 = pair.v;
            break;
        }
    }
    if (a0 < 0) {
        return reject("no (a_0, b_0) anchor pair in the lowest output column");
    }

    // 6. Index the operand bits: (a_i, b_0) lives in exactly column i.
    const auto find_pair = [&](int u, int v) -> const PairInfo* {
        if (u > v) {
            std::swap(u, v);
        }
        const std::uint64_t key = static_cast<std::uint64_t>(u) *
                                      static_cast<std::uint64_t>(2 * m) +
                                  static_cast<std::uint64_t>(v);
        const auto it = pair_index.find(key);
        return it == pair_index.end()
                   ? nullptr
                   : &pairs[static_cast<std::size_t>(it->second)];
    };
    const auto index_side = [&](int this_side, int anchor_other,
                                int anchor_this,
                                std::vector<int>& ordered) -> bool {
        ordered.assign(static_cast<std::size_t>(m), -1);
        ordered[0] = anchor_this;
        for (int p = 0; p < n_in; ++p) {
            if (side[static_cast<std::size_t>(p)] != this_side ||
                p == anchor_this) {
                continue;
            }
            const PairInfo* pair = find_pair(p, anchor_other);
            if (pair == nullptr || pair->outputs.size() != 1) {
                return false;
            }
            const int idx = column_of_output[static_cast<std::size_t>(
                pair->outputs[0])];
            if (idx < 1 || idx >= m || ordered[static_cast<std::size_t>(idx)] != -1) {
                return false;
            }
            ordered[static_cast<std::size_t>(idx)] = p;
        }
        return std::find(ordered.begin(), ordered.end(), -1) == ordered.end();
    };
    RecoveredSpec spec;
    spec.m = m;
    if (!index_side(side[static_cast<std::size_t>(a0)], b0, a0, spec.a_inputs) ||
        !index_side(side[static_cast<std::size_t>(b0)], a0, b0, spec.b_inputs)) {
        return reject("operand bits do not index against the (a_0, b_0) anchor");
    }
    spec.c_outputs = output_of_column;

    // 7. Read f off the reduction signature: the pair (a_1, b_(m-1)) has
    // s = m, so its column support IS the support of x^m mod f.
    const PairInfo* wrap = find_pair(spec.a_inputs[1],
                                     spec.b_inputs[static_cast<std::size_t>(m - 1)]);
    if (wrap == nullptr) {
        return reject("the s = m product pair vanished (no reduction row)");
    }
    gf2::Poly f;
    f.set_coeff(m, true);
    for (const int o : wrap->outputs) {
        f.set_coeff(column_of_output[static_cast<std::size_t>(o)], true);
    }
    if (!gf2::is_irreducible(f)) {
        return reject("recovered polynomial " + f.to_string() +
                      " is not irreducible");
    }
    spec.modulus = f;
    spec.modulus_family = family_label(f);

    // 8. The decisive check: the complete extracted ANF must equal the spec
    // of C = A*B mod f under the recovered port assignment.
    std::vector<NodeId> a_nodes(static_cast<std::size_t>(m));
    std::vector<NodeId> b_nodes(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        a_nodes[static_cast<std::size_t>(i)] =
            nl.inputs()[static_cast<std::size_t>(spec.a_inputs[static_cast<std::size_t>(i)])]
                .node;
        b_nodes[static_cast<std::size_t>(i)] =
            nl.inputs()[static_cast<std::size_t>(spec.b_inputs[static_cast<std::size_t>(i)])]
                .node;
    }
    const ColumnChecker reference{f, a_nodes, b_nodes};
    for (int k = 0; k < m; ++k) {
        const int o = output_of_column[static_cast<std::size_t>(k)];
        if (!reference.matches(k, anf[static_cast<std::size_t>(o)])) {
            return reject("the extracted ANF does not match C = A*B mod " +
                          f.to_string());
        }
    }

    ReverseResult result;
    result.recovered = true;
    result.spec = std::move(spec);
    return result;
}

AnonymizedNetlist anonymize_ports(const Netlist& nl, std::uint64_t seed) {
    verify::SweepRng rng{seed};
    const auto permutation = [&rng](std::size_t n) {
        std::vector<int> perm(n);
        std::iota(perm.begin(), perm.end(), 0);
        for (std::size_t i = n; i > 1; --i) {
            std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng() % i)]);
        }
        return perm;
    };
    AnonymizedNetlist anon;
    anon.input_map = permutation(nl.inputs().size());
    anon.output_map = permutation(nl.outputs().size());
    anon.netlist = rebuild_with_ports(
        nl, anon.input_map,
        [](int p) { return "x" + std::to_string(p); }, anon.output_map,
        [](int p) { return "y" + std::to_string(p); });
    return anon;
}

Netlist relabel_ports(const Netlist& nl, const RecoveredSpec& spec) {
    const int m = spec.m;
    if (static_cast<int>(nl.inputs().size()) != 2 * m ||
        static_cast<int>(nl.outputs().size()) != m) {
        throw std::invalid_argument{
            "relabel_ports: netlist port counts do not match the spec"};
    }
    std::vector<int> input_order(static_cast<std::size_t>(2 * m));
    for (int i = 0; i < m; ++i) {
        input_order[static_cast<std::size_t>(i)] =
            spec.a_inputs[static_cast<std::size_t>(i)];
        input_order[static_cast<std::size_t>(m + i)] =
            spec.b_inputs[static_cast<std::size_t>(i)];
    }
    return rebuild_with_ports(
        nl, input_order,
        [m](int p) {
            return (p < m) ? "a" + std::to_string(p)
                           : "b" + std::to_string(p - m);
        },
        spec.c_outputs, [](int p) { return "c" + std::to_string(p); });
}

}  // namespace gfr::acv
