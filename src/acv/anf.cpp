#include "acv/anf.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

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
        const GateKind kind = kinds_[v];
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
        std::vector<Monomial>& bucket = buckets_[best];
        if (bucket.empty()) {
            pending_[best / 64] |= std::uint64_t{1} << (best % 64);
        }
        bucket.push_back(mono);
        ++live_;
    }
    if (live_ + out.size() > stats_.peak_monomials) {
        stats_.peak_monomials = live_ + out.size();
    }
    return true;
}

void ColumnExpander::cancel_finished(std::vector<Monomial>& out) {
    // A bilinear multiplier finishes with one- and two-variable monomials
    // only.  Those pack into 64-bit keys, first var << 32 | (second var + 1)
    // (low half 0 for one variable), which sort in Monomial's order, so the
    // 52-byte sort is left to wider monomials.
    const bool narrow = std::all_of(out.begin(), out.end(), [](const Monomial& mono) {
        return mono.count == 1 || mono.count == 2;
    });
    if (!narrow) {
        cancel_mod2(out);
        return;
    }
    keys_.clear();
    for (const Monomial& mono : out) {
        const std::uint64_t second = mono.count == 2 ? std::uint64_t{mono.vars[1]} + 1 : 0;
        keys_.push_back(std::uint64_t{mono.vars[0]} << 32 | second);
    }
    std::sort(keys_.begin(), keys_.end());
    out.clear();
    std::size_t i = 0;
    while (i < keys_.size()) {
        std::size_t j = i + 1;
        while (j < keys_.size() && keys_[j] == keys_[i]) {
            ++j;
        }
        if ((j - i) % 2 != 0) {
            Monomial mono;
            mono.insert(static_cast<NodeId>(keys_[i] >> 32));
            if (const auto second = static_cast<NodeId>(keys_[i]); second != 0) {
                mono.insert(second - 1);
            }
            out.push_back(mono);
        }
        i = j;
    }
}

ColumnExpander::Status ColumnExpander::expand(NodeId root,
                                              std::size_t max_monomials,
                                              std::vector<Monomial>& out,
                                              Stats* stats) {
    const std::size_t n = nl_->node_count();
    if (root >= n) {
        throw std::out_of_range{"ColumnExpander: root node " +
                                std::to_string(root) + " out of range"};
    }
    for (auto id = static_cast<NodeId>(kinds_.size()); id < n; ++id) {
        kinds_.push_back(nl_->node(id).kind);
    }
    if (buckets_.size() < n) {
        buckets_.resize(n);
        pending_.resize((n + 63) / 64, 0);
    }
    // A prior aborted expansion may have left monomials behind.
    for (std::size_t word = 0; word < pending_.size(); ++word) {
        for (; pending_[word] != 0; pending_[word] &= pending_[word] - 1) {
            buckets_[word * 64 + static_cast<std::size_t>(std::countr_zero(pending_[word]))]
                .clear();
        }
    }
    out.clear();
    live_ = 0;
    cap_ = max_monomials;
    stats_ = {};

    Monomial seed;
    seed.insert(root);
    Status status = emit(seed, out) ? Status::Ok : Status::MonomialCap;

    // Reverse-topological substitution: every emission targets a strictly
    // smaller gate id (fanins precede their gate), so taking the highest
    // pending bit, scanning down from the root's word, visits the non-empty
    // buckets in descending id order and expands each gate exactly once.
    std::size_t word = root / 64;
    while (status == Status::Ok) {
        while (pending_[word] == 0 && word > 0) {
            --word;
        }
        if (pending_[word] == 0) {
            break;
        }
        const int bit = std::bit_width(pending_[word]) - 1;
        pending_[word] &= ~(std::uint64_t{1} << bit);
        const auto id = static_cast<NodeId>(word * 64 + static_cast<std::size_t>(bit));
        std::vector<Monomial>& bucket = buckets_[id];
        work_.clear();
        std::swap(work_, bucket);  // capacities circulate instead of churning
        live_ -= work_.size();
        // Mod-2 cancellation before expanding: identical monomials always
        // share this maximal gate variable, so this per-bucket pass is
        // exhaustive for monomials still carrying gate variables.
        if (work_.size() > 1) {
            cancel_mod2(work_);
        }
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

    if (stats != nullptr) {
        *stats = stats_;
    }
    if (status != Status::Ok) {
        return status;  // the buckets still pending are dropped next call
    }
    // Input-only monomials from distinct gate paths can still collide; one
    // final cancellation yields the canonical (sorted, duplicate-free) ANF.
    cancel_finished(out);
    return Status::Ok;
}

ColumnChecker::ColumnChecker(const gf2::Poly& modulus,
                             std::span<const NodeId> a_nodes,
                             std::span<const NodeId> b_nodes)
    : m_{modulus.degree()},
      a_nodes_(a_nodes.begin(), a_nodes.end()),
      b_nodes_(b_nodes.begin(), b_nodes.end()) {
    if (m_ < 2) {
        throw std::invalid_argument{"ColumnChecker: modulus degree must be >= 2"};
    }
    if (static_cast<int>(a_nodes.size()) != m_ ||
        static_cast<int>(b_nodes.size()) != m_) {
        throw std::invalid_argument{"ColumnChecker: need m nodes per operand"};
    }
    const NodeId max_id = std::max(*std::max_element(a_nodes.begin(), a_nodes.end()),
                                   *std::max_element(b_nodes.begin(), b_nodes.end()));
    operand_bit_.assign(static_cast<std::size_t>(max_id) + 1, -1);
    for (int i = 0; i < 2 * m_; ++i) {
        const NodeId v = i < m_ ? a_nodes[static_cast<std::size_t>(i)]
                                : b_nodes[static_cast<std::size_t>(i - m_)];
        if (operand_bit_[v] != -1) {
            throw std::invalid_argument{"ColumnChecker: operand nodes must be distinct"};
        }
        operand_bit_[v] = i;
    }

    // Walk x^s mod f for s = 0..2m-2: after one shift the degree is at most
    // m, so reduction is a single conditional XOR of f.  Row s adds its
    // min(s, 2m-2-s) + 1 pairs a_i*b_(s-i) to every column in its support.
    counts_.assign(static_cast<std::size_t>(m_), 0);
    gf2::Poly xs = gf2::Poly::one();
    for (int s = 0; s <= 2 * m_ - 2; ++s) {
        if (s > 0) {
            gf2::Poly shifted = xs << 1;
            if (shifted.coeff(m_)) {
                shifted += modulus;
            }
            xs = shifted;
        }
        const auto pairs = static_cast<std::size_t>(std::min(s, 2 * m_ - 2 - s) + 1);
        for (const int k : xs.support()) {
            counts_[static_cast<std::size_t>(k)] += pairs;
            total_ += pairs;
        }
        rows_.push_back(xs);
    }
}

bool ColumnChecker::matches(int k, std::span<const Monomial> anf) const {
    if (anf.size() != counts_[static_cast<std::size_t>(k)]) {
        return false;
    }
    for (const Monomial& mono : anf) {
        if (mono.count != 2) {
            return false;
        }
        const int p = operand_bit(mono.vars[0]);
        const int q = operand_bit(mono.vars[1]);
        // Exactly one a bit (< m) and one b bit (>= m): a_i*b_j, s = i + j.
        if (p < 0 || q < 0 || (p < m_) == (q < m_) || !row_bit(p + q - m_, k)) {
            return false;
        }
    }
    return true;
}

std::vector<Monomial> ColumnChecker::column(int k) const {
    std::vector<Monomial> column;
    column.reserve(counts_[static_cast<std::size_t>(k)]);
    for (int s = 0; s <= 2 * m_ - 2; ++s) {
        if (!row_bit(s, k)) {
            continue;
        }
        const int lo = s - (m_ - 1) > 0 ? s - (m_ - 1) : 0;
        const int hi = s < m_ - 1 ? s : m_ - 1;
        for (int i = lo; i <= hi; ++i) {
            column.push_back(Monomial::pair(a_nodes_[static_cast<std::size_t>(i)],
                                            b_nodes_[static_cast<std::size_t>(s - i)]));
        }
    }
    std::sort(column.begin(), column.end());
    return column;
}

}  // namespace gfr::acv
