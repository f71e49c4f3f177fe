#include "acv/anf.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace gfr::acv {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Node;
using netlist::NodeId;

namespace {

/// Sort and cancel mod 2 in place: monomials appearing an even number of
/// times vanish, odd survivors are kept once.
void cancel_mod2(std::vector<Monomial>& monomials) {
    std::sort(monomials.begin(), monomials.end());
    std::size_t kept = 0;
    std::size_t i = 0;
    while (i < monomials.size()) {
        std::size_t j = i + 1;
        while (j < monomials.size() && monomials[j] == monomials[i]) {
            ++j;
        }
        if ((j - i) % 2 != 0) {
            monomials[kept++] = monomials[i];
        }
        i = j;
    }
    monomials.resize(kept);
}

}  // namespace

bool ColumnExpander::emit(const Monomial& mono, std::vector<Monomial>& out) {
    // Classify: a Const0 variable zeroes the whole product; otherwise the
    // monomial is finished iff every variable is a primary input.
    NodeId best = kInvalidNode;
    for (int i = 0; i < mono.count; ++i) {
        const NodeId v = mono.vars[static_cast<std::size_t>(i)];
        const GateKind kind = nl_->node(v).kind;
        if (kind == GateKind::Const0) {
            return true;  // x * 0 = 0 — the monomial cancels outright
        }
        if (kind != GateKind::Input && (best == kInvalidNode || v > best)) {
            best = v;
        }
    }
    if (live_ + out.size() + 1 > cap_) {
        return false;
    }
    if (best == kInvalidNode) {
        out.push_back(mono);
    } else {
        if (buckets_[best].empty()) {
            touched_.push_back(best);
            std::push_heap(touched_.begin(), touched_.end());
        }
        buckets_[best].push_back(mono);
        ++live_;
    }
    if (live_ + out.size() > stats_.peak_monomials) {
        stats_.peak_monomials = live_ + out.size();
    }
    return true;
}

ColumnExpander::Status ColumnExpander::expand(NodeId root,
                                              std::size_t max_monomials,
                                              std::vector<Monomial>& out,
                                              Stats* stats) {
    if (root >= nl_->node_count()) {
        throw std::out_of_range{"ColumnExpander: root node " +
                                std::to_string(root) + " out of range"};
    }
    if (buckets_.size() < nl_->node_count()) {
        buckets_.resize(nl_->node_count());
    }
    // A prior aborted expansion may have left monomials behind.
    for (const NodeId id : touched_) {
        buckets_[id].clear();
    }
    touched_.clear();
    out.clear();
    live_ = 0;
    cap_ = max_monomials;
    stats_ = {};

    Monomial seed;
    seed.insert(root);
    Status status = emit(seed, out) ? Status::Ok : Status::MonomialCap;

    // Reverse-topological substitution: every emission targets a strictly
    // smaller gate id (fanins precede their gate), so popping the largest
    // pending bucket off the max-heap visits the non-empty buckets in
    // descending id order and expands each gate exactly once.
    while (status == Status::Ok && !touched_.empty()) {
        std::pop_heap(touched_.begin(), touched_.end());
        const NodeId id = touched_.back();
        touched_.pop_back();
        std::vector<Monomial>& bucket = buckets_[id];
        work_.clear();
        std::swap(work_, bucket);  // capacities circulate instead of churning
        live_ -= work_.size();
        // Mod-2 cancellation before expanding: identical monomials always
        // share this maximal gate variable, so this per-bucket pass is
        // exhaustive for monomials still carrying gate variables.
        cancel_mod2(work_);
        const Node& nd = nl_->node(id);
        for (Monomial& mono : work_) {
            ++stats_.expansion_events;
            int pos = 0;
            while (mono.vars[static_cast<std::size_t>(pos)] != id) {
                ++pos;
            }
            mono.erase_at(pos);
            if (nd.kind == GateKind::And2) {
                // g = a AND b: the monomial absorbs both fanins (product).
                if (!mono.insert(nd.a) || !mono.insert(nd.b)) {
                    status = Status::DegreeCap;
                    break;
                }
                if (!emit(mono, out)) {
                    status = Status::MonomialCap;
                    break;
                }
            } else {
                // g = a XOR b: the monomial splits into two (sum).
                Monomial twin = mono;
                if (!mono.insert(nd.a) || !twin.insert(nd.b)) {
                    status = Status::DegreeCap;
                    break;
                }
                if (!emit(mono, out) || !emit(twin, out)) {
                    status = Status::MonomialCap;
                    break;
                }
            }
        }
    }

    if (status != Status::Ok) {
        // Leave the expander reusable: record how far it got, drop the
        // buckets still pending.
        for (const NodeId id : touched_) {
            buckets_[id].clear();
        }
        touched_.clear();
        live_ = 0;
        if (stats != nullptr) {
            *stats = stats_;
        }
        return status;
    }
    // Input-only monomials from distinct gate paths can still collide; one
    // final cancellation yields the canonical (sorted, duplicate-free) ANF.
    cancel_mod2(out);
    if (stats != nullptr) {
        *stats = stats_;
    }
    return Status::Ok;
}

SpecTable multiplier_spec(const gf2::Poly& modulus,
                          std::span<const NodeId> a_nodes,
                          std::span<const NodeId> b_nodes) {
    const int m = modulus.degree();
    if (m < 2) {
        throw std::invalid_argument{"multiplier_spec: modulus degree must be >= 2"};
    }
    if (static_cast<int>(a_nodes.size()) != m ||
        static_cast<int>(b_nodes.size()) != m) {
        throw std::invalid_argument{"multiplier_spec: need m nodes per operand"};
    }
    std::unordered_set<NodeId> distinct;
    for (const NodeId v : a_nodes) {
        distinct.insert(v);
    }
    for (const NodeId v : b_nodes) {
        distinct.insert(v);
    }
    if (distinct.size() != static_cast<std::size_t>(2 * m)) {
        throw std::invalid_argument{"multiplier_spec: operand nodes must be distinct"};
    }

    SpecTable spec;
    spec.columns.resize(static_cast<std::size_t>(m));
    // Walk x^s mod f for s = 0..2m-2: after one shift the degree is at most
    // m, so reduction is a single conditional XOR of f.
    gf2::Poly xs = gf2::Poly::one();
    for (int s = 0; s <= 2 * m - 2; ++s) {
        if (s > 0) {
            gf2::Poly shifted = xs << 1;
            if (shifted.coeff(m)) {
                shifted += modulus;
            }
            xs = shifted;
        }
        const int lo = s - (m - 1) > 0 ? s - (m - 1) : 0;
        const int hi = s < m - 1 ? s : m - 1;
        for (const int k : xs.support()) {
            auto& column = spec.columns[static_cast<std::size_t>(k)];
            for (int i = lo; i <= hi; ++i) {
                column.push_back(Monomial::pair(
                    a_nodes[static_cast<std::size_t>(i)],
                    b_nodes[static_cast<std::size_t>(s - i)]));
            }
        }
    }
    for (auto& column : spec.columns) {
        std::sort(column.begin(), column.end());
        spec.total_monomials += column.size();
    }
    return spec;
}

}  // namespace gfr::acv
