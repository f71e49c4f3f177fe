#ifndef GFR_MULTIPLIERS_VERIFY_H
#define GFR_MULTIPLIERS_VERIFY_H

// Functional verification of a multiplier netlist against the reference
// field arithmetic (field::Field::mul).
//
// The netlist must expose inputs a0..a(m-1), b0..b(m-1) and outputs
// c0..c(m-1).  For 2m <= max_exhaustive_inputs the check enumerates all
// 2^(2m) operand pairs (word-parallel, 64 per block); otherwise it checks
// random_sweeps random blocks, each verifying 64 random products
// bit-exactly.
//
// The netlist compiles once into an exec::Program tape (DCE'd, fused,
// liveness-scheduled); every tape pass runs on the dispatched SIMD backend
// by default, and a fused oracle checks all its products against the
// bitsliced verify::LaneReference.  The blocks, their batching into tape
// passes, the sharding across worker threads and the counterexample's
// coordinates belong to verify::BlockSweep (verify/block_sweep.h), the
// driver netlist::check_equivalence shares: the verdict and the
// counterexample are bit-identical at any thread count, batching width and
// backend.  For a proof over all inputs, call acv::prove_multiplier.

#include "field/gf2m.h"
#include "netlist/netlist.h"
#include "opt/opt.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace gfr::exec {
enum class Backend : std::uint8_t;  // exec/run_kernels.h
}

namespace gfr::mult {

struct VerifyOptions {
    int max_exhaustive_inputs = 22;  ///< exhaustive iff 2m <= this (m=11 -> 2^22)
    int random_sweeps = 64;          ///< random blocks of 64 products each
    std::uint64_t seed = 0xD1CEULL;
    int threads = 0;  ///< campaign workers; <= 0 = hardware concurrency
    /// Blocks per batched tape pass (clamped to [1, exec::Program::
    /// kMaxBlocks]); 0 = full width.  The verdict and counterexample
    /// coordinates are invariant across widths — this knob only trades
    /// tape-decode amortisation against sweep granularity, and the
    /// differential tests sweep it.
    int max_batch_blocks = 0;
    /// Execute sweeps on this specific tape backend instead of the
    /// process-wide exec::dispatch() selection (bench ladders, differential
    /// tests).  Throws like Program::run when the backend is unavailable.
    std::optional<exec::Backend> exec_backend{};
};

/// A failing product: the operands and the first differing coefficient.
struct VerifyFailure {
    field::Field::Element a;
    field::Field::Element b;
    int coefficient = 0;
    bool netlist_bit = false;
    bool reference_bit = false;

    /// Reproduction coordinates, filled by verify_multiplier.  sweep_index
    /// is always the WIDTH-1 index of the failing 64-lane block (batching
    /// groups blocks into wider sweeps, but coordinates stay in the
    /// unbatched numbering so they replay at any max_batch_blocks): random
    /// regime contents are a pure function of
    /// Campaign::derive_sweep_seed(campaign_seed, sweep_index), which
    /// to_string() prints as a one-line repro recipe.
    std::uint64_t campaign_seed = 0;
    std::uint64_t sweep_index = ~std::uint64_t{0};  ///< ~0 = not recorded
    bool random_regime = false;

    [[nodiscard]] std::string to_string() const;
};

/// Reusable campaign verifier.  Construction does everything that is
/// independent of an individual campaign run: validates the multiplier
/// interface, compiles the netlist into the execution tape, anchors the
/// engine and the lane oracle against the reference arithmetic, and
/// resolves the sweep plan (backend rung, fused oracle, batching).  Each
/// run() then executes one full campaign over the prepared plan and
/// reports exactly what verify_multiplier would.  Callers that verify the
/// same design repeatedly (bench ladders, differential sweeps) amortise
/// the preparation; one-shot callers use verify_multiplier below.  The
/// netlist and the field must outlive the verifier; options are fixed at
/// construction.
class MultiplierVerifier {
public:
    MultiplierVerifier(const netlist::Netlist& nl, const field::Field& field,
                       const VerifyOptions& options = {});
    ~MultiplierVerifier();
    MultiplierVerifier(MultiplierVerifier&&) noexcept;
    MultiplierVerifier& operator=(MultiplierVerifier&&) noexcept;

    /// One full campaign; std::nullopt on success.  Deterministic for fixed
    /// construction options at any thread count.
    [[nodiscard]] std::optional<VerifyFailure> run() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// std::nullopt on success.  Throws std::invalid_argument when the netlist
/// interface does not look like an m-bit multiplier for this field, when
/// the random regime has random_sweeps < 1, or when the exhaustive regime
/// would cover more than 69 inputs.
/// One-shot wrapper over MultiplierVerifier (prepare + one campaign).
std::optional<VerifyFailure> verify_multiplier(const netlist::Netlist& nl,
                                               const field::Field& field,
                                               const VerifyOptions& options = {});

/// The productive order for guarded designs is optimize-then-guard, and this
/// is the seam every consumer (flow, emitters, reports, demos) goes through:
/// run the campaign-gated optimization pipeline, then re-verify the
/// optimized netlist against the reference field arithmetic end-to-end.
/// Throws opt::VerificationError when a pass fails its equivalence gate OR
/// when the optimized multiplier fails the reference check (pass name
/// "multiplier", detail = the failure's repro string) — a caller can never
/// obtain an unverified optimized netlist from this function.
opt::OptResult optimize_and_verify(const netlist::Netlist& nl,
                                   const field::Field& field,
                                   const opt::OptOptions& opt_options = {},
                                   const VerifyOptions& verify_options = {});

}  // namespace gfr::mult

#endif  // GFR_MULTIPLIERS_VERIFY_H
