#ifndef GFR_ACV_ANF_H
#define GFR_ACV_ANF_H

// GF(2) polynomial-expression engine over netlist signals — the substrate of
// the algebraic verification tier (ROADMAP item 3, after Yu & Ciesielski,
// arXiv 1612.04588 / 1802.06870).
//
// A signal's function is held in algebraic normal form (Zhegalkin): a set of
// monomials, each a set of netlist variables, with XOR = symmetric
// difference (mod-2 cancellation) and AND = product (x^2 = x, so a product
// is a set union).  ColumnExpander performs the papers' *backward rewriting*:
// starting from one output's driver, every gate variable is substituted by
// its fanin expression in reverse topological order until only primary
// inputs remain.  Two facts keep that sound and fast:
//
//   - Substitution strictly decreases the maximal gate variable of a
//     monomial (fanin id < gate id), so bucketing monomials by that maximum
//     and always expanding the highest pending bucket next (one pending bit
//     per node, scanned downward from the root's word) visits each gate
//     exactly once.
//   - Identical monomials share the same maximal gate variable, so they
//     always meet in the same bucket *before* it is expanded — per-bucket
//     parity deduplication is the only cancellation the algorithm ever
//     needs (plus one final pass over the input-only monomials).
//
// ColumnChecker is the reference side: column k of C = A*B mod f holds the
// pairs a_i*b_j with bit k of x^(i+j) mod f set.  It checks an extracted
// column against that set from the rows x^s mod f and a count per column,
// without building the set; only a mismatch report builds it.

#include "gf2/gf2_poly.h"
#include "netlist/netlist.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gfr::acv {

/// One ANF monomial: a product of distinct netlist variables, stored inline
/// as a sorted id array.  kMaxVars bounds the AND-degree a monomial can
/// reach during expansion; every multiplier here is bilinear (and_depth 1),
/// so correct netlists never come near it — only mutants with injected
/// XOR->AND faults do, and the expander reports those as a degree blowup.
struct Monomial {
    static constexpr int kMaxVars = 12;

    std::uint8_t count = 0;
    std::array<netlist::NodeId, kMaxVars> vars{};

    /// Insert a variable, keeping vars sorted and unique (x*x = x).
    /// Returns false when the monomial is full and v is not yet present.
    bool insert(netlist::NodeId v) {
        int pos = 0;
        while (pos < count && vars[static_cast<std::size_t>(pos)] < v) {
            ++pos;
        }
        if (pos < count && vars[static_cast<std::size_t>(pos)] == v) {
            return true;
        }
        if (count == kMaxVars) {
            return false;
        }
        for (int i = count; i > pos; --i) {
            vars[static_cast<std::size_t>(i)] = vars[static_cast<std::size_t>(i - 1)];
        }
        vars[static_cast<std::size_t>(pos)] = v;
        ++count;
        return true;
    }

    /// Remove the variable at index `idx` (0 <= idx < count).
    void erase_at(int idx) {
        for (int i = idx + 1; i < count; ++i) {
            vars[static_cast<std::size_t>(i - 1)] = vars[static_cast<std::size_t>(i)];
        }
        --count;
    }

    /// The product of exactly two variables — the shape every monomial of a
    /// GF(2^m) multiplier spec has.
    static Monomial pair(netlist::NodeId a, netlist::NodeId b) {
        Monomial mono;
        mono.insert(a);
        mono.insert(b);
        return mono;
    }

    friend bool operator==(const Monomial& x, const Monomial& y) {
        if (x.count != y.count) {
            return false;
        }
        for (int i = 0; i < x.count; ++i) {
            if (x.vars[static_cast<std::size_t>(i)] !=
                y.vars[static_cast<std::size_t>(i)]) {
                return false;
            }
        }
        return true;
    }

    friend bool operator<(const Monomial& x, const Monomial& y) {
        const int n = x.count < y.count ? x.count : y.count;
        for (int i = 0; i < n; ++i) {
            const auto xv = x.vars[static_cast<std::size_t>(i)];
            const auto yv = y.vars[static_cast<std::size_t>(i)];
            if (xv != yv) {
                return xv < yv;
            }
        }
        return x.count < y.count;
    }
};

/// Backward-rewriting engine for one netlist.  Reusable across outputs; all
/// working storage (buckets, scratch) retains capacity between expand()
/// calls, so proving m columns allocates like proving one.
class ColumnExpander {
public:
    enum class Status : std::uint8_t {
        Ok,           ///< `out` holds the signal's full input-only ANF, sorted
        MonomialCap,  ///< in-flight monomials exceeded max_monomials
        DegreeCap,    ///< a monomial exceeded Monomial::kMaxVars variables
    };

    struct Stats {
        std::size_t peak_monomials = 0;     ///< max monomials alive at once
        std::size_t expansion_events = 0;   ///< gate substitutions performed
    };

    explicit ColumnExpander(const netlist::Netlist& nl) : nl_{&nl} {}

    /// Rewrite the function of `root` down to primary inputs.  On Ok, `out`
    /// is the canonical ANF: sorted, duplicate-free monomials over input
    /// node ids (empty = constant 0).  On either cap the expansion aborts
    /// and `out` is meaningless; stats (if given) are filled either way.
    Status expand(netlist::NodeId root, std::size_t max_monomials,
                  std::vector<Monomial>& out, Stats* stats = nullptr);

private:
    /// Route one monomial: drop it on a Const0 variable, finish it when only
    /// inputs remain, otherwise bucket it under its maximal gate variable.
    /// Returns false when doing so would exceed the monomial cap.
    bool emit(const Monomial& mono, std::vector<Monomial>& out);

    /// Cancel the finished monomials mod 2 into canonical (sorted) order.
    void cancel_finished(std::vector<Monomial>& out);

    const netlist::Netlist* nl_;
    std::vector<netlist::GateKind> kinds_;        ///< gate kind by node id
    std::vector<std::vector<Monomial>> buckets_;  ///< by maximal gate var
    std::vector<std::uint64_t> pending_;          ///< one bit per non-empty bucket
    std::vector<Monomial> work_;
    std::vector<std::uint64_t> keys_;             ///< packed finished monomials
    std::size_t live_ = 0;  ///< monomials currently in buckets
    std::size_t cap_ = 0;
    Stats stats_;
};

/// The reference signature of C = A*B mod `modulus`, one output column at a
/// time: column k is the set of monomials a_i*b_j (as node-id pairs) with
/// bit k of x^(i+j) mod f set.  Holds the 2m-1 rows x^s mod f, the size of
/// each column and each operand node's bit, not the monomial sets.
class ColumnChecker {
public:
    /// Throws std::invalid_argument unless deg f >= 2, each operand has m
    /// nodes and all 2m node ids are distinct.
    ColumnChecker(const gf2::Poly& modulus, std::span<const netlist::NodeId> a_nodes,
                  std::span<const netlist::NodeId> b_nodes);

    /// Monomials over all m columns.
    [[nodiscard]] std::size_t total_monomials() const noexcept { return total_; }

    /// i for node a_i, m + i for node b_i, -1 for any other node.
    [[nodiscard]] int operand_bit(netlist::NodeId v) const noexcept {
        return v < operand_bit_.size() ? operand_bit_[v] : -1;
    }

    /// Whether a canonical ANF (sorted, duplicate-free) is column k.  It is
    /// iff it has exactly as many monomials as column k and each one is a
    /// pair a_i*b_j with bit k of x^(i+j) mod f set: column k holds each
    /// pair once, so a duplicate-free subset of its size is all of it.
    [[nodiscard]] bool matches(int k, std::span<const Monomial> anf) const;

    /// Column k as a sorted monomial list, for reporting a mismatch.
    [[nodiscard]] std::vector<Monomial> column(int k) const;

private:
    /// Bit k of x^s mod f.
    [[nodiscard]] bool row_bit(int s, int k) const {
        return rows_[static_cast<std::size_t>(s)].coeff(k);
    }

    int m_ = 0;
    std::vector<gf2::Poly> rows_;       ///< x^s mod f for s = 0..2m-2
    std::vector<std::size_t> counts_;   ///< monomials per column
    std::size_t total_ = 0;
    std::vector<int> operand_bit_;      ///< by node id
    std::vector<netlist::NodeId> a_nodes_;
    std::vector<netlist::NodeId> b_nodes_;
};

}  // namespace gfr::acv

#endif  // GFR_ACV_ANF_H
