#ifndef GFR_ACV_ACV_H
#define GFR_ACV_ACV_H

// Algebraic circuit verification (ROADMAP item 3): proof-grade multiplier
// checking and anonymous-circuit spec recovery, after Yu & Ciesielski
// (arXiv 1612.04588, 1802.06870).
//
// Everything the repo verified before this tier was simulation against an
// oracle — exhaustive (and therefore sound) only for 2m <= 22, statistical
// everywhere else.  prove_multiplier() closes that gap: it rewrites every
// output column's function backward through the netlist to its canonical
// ANF over the primary inputs and checks that against the same column of
// the word-level spec of C = A*B mod f (ColumnChecker: the column's
// monomial count, and each monomial a pair a_i*b_j whose x^(i+j) mod f
// reaches the column; the spec itself is built only to report a mismatch).
// Equal ANFs mean equal Boolean functions — a *proof* for any m, with zero
// simulation.  The m columns are independent, so they
// ride verify::Campaign's sharded driver; the verdict (and the reported
// failure) is the lowest failing column, bit-identical at any thread count.
//
// reverse_engineer() runs the same extraction on an *anonymous* netlist —
// ports stripped or shuffled, e.g. a third-party VHDL export read back via
// netlist::parse_vhdl — and recovers the irreducible modulus f(x), the
// operand/result port ordering, and the modulus family, confirming the
// recovery against the repo's irreducibility tooling and a full spec
// re-verification before reporting success.
//
// This is the third structurally independent check beside the compiled tape
// and the lane oracle: it shares no simulation, no field engine arithmetic
// on the netlist side, and no code with either.

#include "acv/anf.h"
#include "field/gf2m.h"
#include "gf2/gf2_poly.h"
#include "netlist/netlist.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gfr::acv {

struct ProveOptions {
    /// Campaign workers for the per-column proofs; <= 0 = hardware
    /// concurrency.  The verdict is thread-count-invariant.
    int threads = 0;
    /// Ceiling on monomials alive per column during backward rewriting.
    /// Correct multiplier netlists stay far below it (the flat m = 163
    /// families peak in the tens of thousands); a faulty netlist whose
    /// expansion crosses it is reported as a blowup failure — still a
    /// rejection, never an acceptance.
    std::size_t max_monomials = std::size_t{1} << 22;
};

/// Success-side accounting (filled only when the proof succeeds).
struct ProofStats {
    int columns = 0;
    std::size_t spec_monomials = 0;         ///< reference signature size
    std::size_t netlist_monomials = 0;      ///< extracted ANF size (== spec on success)
    std::size_t peak_column_monomials = 0;  ///< worst in-flight count of any column
    std::size_t expansion_events = 0;       ///< total gate substitutions
};

/// The algebraic counterexample: the first (lowest) divergent output column
/// and the size of the residual (netlist ANF xor spec).  For a mismatch the
/// witness operands make the netlist and the reference disagree on exactly
/// bit `column` — synthesized from a minimal residual monomial, not found by
/// simulation.  A blowup carries no witness: the expansion exceeded a cap,
/// which rejects the netlist without naming an assignment.
struct ProofFailure {
    int column = 0;
    std::size_t residual_monomials = 0;
    bool blowup = false;
    std::size_t monomial_cap = 0;  ///< the cap in force (printed for blowups)
    field::Field::Element witness_a;
    field::Field::Element witness_b;
    bool netlist_bit = false;
    bool reference_bit = false;

    /// Pinned format (regression-tested):
    ///   "c3 algebraic mismatch: residual=2 monomials, netlist=0 reference=1
    ///    for A=y^2, B=y [repro: algebraic column=3]"
    ///   "c0 algebraic blowup: 4194305 monomials in flight
    ///    [repro: algebraic column=0 cap=4194304]"
    [[nodiscard]] std::string to_string() const;
};

/// Prove that `nl` computes C = A*B in `field`, with zero simulation.
/// std::nullopt on success (the netlist is *proved* correct for all inputs);
/// otherwise the lowest-column failure.  Ports are resolved by name
/// (a0..a(m-1), b0..b(m-1), c0..c(m-1)); extra outputs are excluded from
/// the signature, so a multiplier with added observation lanes proves
/// as-is.  Throws std::invalid_argument when the interface
/// does not expose exactly the 2m operand inputs and the m product outputs.
std::optional<ProofFailure> prove_multiplier(const netlist::Netlist& nl,
                                             const field::Field& field,
                                             const ProveOptions& options = {},
                                             ProofStats* stats = nullptr);

struct ReverseOptions {
    /// Per-output ANF expansion ceiling (see ProveOptions::max_monomials).
    std::size_t max_monomials = std::size_t{1} << 22;
};

/// What reverse engineering recovers from an anonymous netlist.
struct RecoveredSpec {
    gf2::Poly modulus;           ///< the irreducible f(x)
    int m = 0;
    std::vector<int> a_inputs;   ///< a_inputs[i] = input port index of a_i
    std::vector<int> b_inputs;   ///< b_inputs[i] = input port index of b_i
    std::vector<int> c_outputs;  ///< c_outputs[k] = output port index of c_k
    /// "trinomial k=<k>", "type II pentanomial (m, n)", "type I pentanomial
    /// (m, n)", or "" when f matches none of the catalogued families.
    std::string modulus_family;

    /// E.g. "GF(2^8) multiplier: f = y^8 + y^4 + y^3 + y^2 + 1
    ///       (type II pentanomial (8, 2))".
    [[nodiscard]] std::string to_string() const;
};

struct ReverseResult {
    bool recovered = false;
    /// When !recovered: a clean verdict, always prefixed
    /// "not a GF(2^m) multiplier: ".
    std::string reason;
    RecoveredSpec spec;
};

/// Recover the multiplier spec from an anonymous netlist: extract every
/// output's ANF, identify the operand sides and bit order from the bilinear
/// structure, read f(x) off the reduction signature, check it with the
/// repo's irreducibility tooling, and re-verify the full spec before
/// reporting success.  C = A*B is commutative, so the A/B labelling is
/// canonicalized to put a_0 on the smaller input port index.  Never throws
/// on non-multiplier input — it reports a structured rejection instead.
ReverseResult reverse_engineer(const netlist::Netlist& nl,
                               const ReverseOptions& options = {});

/// A name-stripped clone for round-trip tests and demos: ports renamed to
/// x<p>/y<p> and shuffled by a seeded permutation (deterministic; the same
/// generator as campaign sweeps).  input_map[p] / output_map[p] give the
/// source port index now sitting at anonymous port p.
struct AnonymizedNetlist {
    netlist::Netlist netlist;
    std::vector<int> input_map;
    std::vector<int> output_map;
};

AnonymizedNetlist anonymize_ports(const netlist::Netlist& nl, std::uint64_t seed);

/// Re-expose an anonymous netlist under the canonical a/b/c interface per a
/// recovered spec (gate-for-gate clone; only port names and order change).
/// The result is a drop-in for every multiplier consumer in the repo —
/// prove_multiplier, verify_multiplier, the optimizer, the FPGA flow.
netlist::Netlist relabel_ports(const netlist::Netlist& nl,
                               const RecoveredSpec& spec);

}  // namespace gfr::acv

#endif  // GFR_ACV_ACV_H
