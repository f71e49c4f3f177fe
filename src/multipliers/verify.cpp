#include "multipliers/verify.h"

#include "exec/program.h"
#include "exec/run_kernels.h"
#include "multipliers/product_layer.h"
#include "verify/block_sweep.h"
#include "verify/lane_reference.h"

#include <bit>
#include <random>
#include <stdexcept>

namespace gfr::mult {

using field::Field;
using gf2::Poly;

std::string VerifyFailure::to_string() const {
    return "c" + std::to_string(coefficient) + " mismatch: netlist=" +
           std::to_string(static_cast<int>(netlist_bit)) + " reference=" +
           std::to_string(static_cast<int>(reference_bit)) + " for A=" + a.to_string() +
           ", B=" + b.to_string() +
           verify::repro_suffix(campaign_seed, sweep_index, random_regime);
}

namespace {

/// The field element carried by `lane` across m input words starting at
/// `offset` (failure reporting and anchoring, off the hot path).
Poly element_from_lane(std::span<const std::uint64_t> words, int offset, int m,
                       int lane) {
    std::vector<std::uint64_t> bits(static_cast<std::size_t>((m + 63) / 64), 0);
    for (int i = 0; i < m; ++i) {
        if ((words[static_cast<std::size_t>(offset + i)] >> lane) & 1U) {
            bits[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1} << (i % 64);
        }
    }
    Poly out;
    out.assign_words(bits);
    return out;
}

/// Everything one campaign worker owns beside the driver's input blocks:
/// execution scratch for the shared compiled tape, the sweep's output words
/// (sized for up to `blocks` blocks of 64 lanes), and the oracle and
/// lane-reference scratch.  The Program, Field and LaneReference stay
/// shared and immutable; workers never contend, and sweeps are
/// allocation-free in steady state.
struct SweepWorker {
    SweepWorker(int m, int blocks)
        : out_words(static_cast<std::size_t>(m) * blocks, 0),
          oracle_diff(static_cast<std::size_t>(blocks), 0),
          oracle_work(static_cast<std::size_t>(8 * m + 64), 0) {}

    exec::Program::Scratch exec_scratch;
    std::vector<std::uint64_t> out_words;
    std::vector<std::uint64_t> want_words;      // lane-major reference products
    std::vector<std::uint64_t> oracle_diff;     // per-block diff flags
    std::vector<std::uint64_t> oracle_work;     // >= 8m+64 kernel scratch words
    verify::LaneReference::Scratch lane_scratch;
};

/// Check one 64-lane block already simulated into out/in spans against the
/// bitsliced reference: all 64 products in m^2 word ops, already lane-major,
/// for any word count.  The failure reported is the lane-major first one
/// (lowest lane, then lowest coefficient), matching a bit-serial scan of the
/// 64 assignments.
std::optional<VerifyFailure> check_block(SweepWorker& w, int m,
                                         const verify::LaneReference& laneref,
                                         std::span<const std::uint64_t> in,
                                         std::span<const std::uint64_t> out) {
    laneref.products(in, w.want_words, w.lane_scratch);
    std::uint64_t diff_any = 0;
    for (int k = 0; k < m; ++k) {
        diff_any |= out[static_cast<std::size_t>(k)] ^
                    w.want_words[static_cast<std::size_t>(k)];
    }
    if (diff_any == 0) {
        return std::nullopt;
    }
    const int lane = std::countr_zero(diff_any);
    for (int k = 0; k < m; ++k) {
        const bool got_bit = (out[static_cast<std::size_t>(k)] >> lane) & 1U;
        const bool want_bit =
            (w.want_words[static_cast<std::size_t>(k)] >> lane) & 1U;
        if (got_bit != want_bit) {
            return VerifyFailure{element_from_lane(in, 0, m, lane),
                                 element_from_lane(in, m, m, lane), k, got_bit,
                                 want_bit};
        }
    }
    return std::nullopt;  // unreachable: diff_any had a set bit
}

}  // namespace

/// Everything campaign-independent, prepared once at construction: the
/// compiled tape, the anchored lane reference, the fused oracle of the
/// resolved backend rung and the block sweep.  run() shares all of it
/// across campaigns.
struct MultiplierVerifier::Impl {
    Impl(const netlist::Netlist& nl, const Field& field, const VerifyOptions& options);

    /// Execute the tape over the `blocks` blocks in `in` and check them in
    /// ascending order (so batching never changes which failure is first).
    /// The success path is one fused oracle call over the whole sweep
    /// (per-block diff flags); a flagged block is re-extracted through the
    /// scalar LaneReference in check_block, which stays the verdict
    /// authority.  On failure failed_block is the in-sweep block index.
    std::optional<VerifyFailure> check(SweepWorker& w, std::span<const std::uint64_t> in,
                                       int blocks, int& failed_block) const;

    int m = 0;
    exec::Program prog;
    verify::LaneReference laneref;
    std::optional<exec::Backend> backend;
    /// Fused sweep oracle of the same backend rung as the tape executor
    /// (scalar when forced or quarantined).
    exec::OracleRunFn oracle_fn = nullptr;
    exec::SweepOracleView oracle_view;
    verify::BlockSweep sweep;
};

MultiplierVerifier::Impl::Impl(const netlist::Netlist& nl, const Field& field,
                               const VerifyOptions& options)
    : m{field.degree()},
      // The netlist compiles once; every run() executes the shared tape.
      prog{exec::Program::compile(nl)},
      laneref{field},
      backend{options.exec_backend},
      sweep{2 * field.degree(),
            {.max_exhaustive_inputs = options.max_exhaustive_inputs,
             .random_blocks = options.random_sweeps,
             .seed = options.seed,
             .threads = options.threads,
             .max_batch_blocks = options.max_batch_blocks}} {
    // The sweeps compare the netlist against the fast engine; anchor the
    // engine itself to the independent reference arithmetic first, so a
    // reduction bug for this particular modulus cannot silently become the
    // verification oracle.
    {
        std::mt19937_64 oracle_rng{options.seed ^ 0x0A0A0A0AULL};
        for (int i = 0; i < 16; ++i) {
            const Poly a = field.random_element(oracle_rng);
            const Poly b = field.random_element(oracle_rng);
            if (field.mul(a, b) != field.mul_reference(a, b)) {
                throw std::logic_error{
                    "verify_multiplier: fast engine disagrees with reference arithmetic"};
            }
        }
    }

    // The bitsliced lane reference is the sweep oracle; anchor it against
    // the engine on one sweep of random lanes before trusting it with the
    // campaign.  The anchor extracts each lane as a Poly, so it covers the
    // multi-word regime identically.
    {
        verify::SweepRng rng{verify::Campaign::derive_sweep_seed(options.seed,
                                                                verify::kNoFailure)};
        std::vector<std::uint64_t> in(static_cast<std::size_t>(2 * m));
        for (auto& word : in) {
            word = rng();
        }
        std::vector<std::uint64_t> want;
        verify::LaneReference::Scratch scratch;
        laneref.products(in, want, scratch);
        for (int lane = 0; lane < 64; ++lane) {
            const Poly a = element_from_lane(in, 0, m, lane);
            const Poly b = element_from_lane(in, m, m, lane);
            const Poly c = field.mul(a, b);
            for (int k = 0; k < m; ++k) {
                const bool want_bit =
                    (want[static_cast<std::size_t>(k)] >> lane) & 1U;
                if (want_bit != c.coeff(k)) {
                    throw std::logic_error{
                        "verify_multiplier: lane reference disagrees with the engine"};
                }
            }
        }
    }

    // The fused sweep oracle follows the same backend rung as the tape
    // executor (the pinned backend for bench ladders and differential
    // tests, otherwise the screened process-wide dispatch — which already
    // reflects GFR_EXEC_FORCE_SCALAR and any quarantine), so a verdict
    // never mixes an unscreened oracle with a screened tape.  An
    // unavailable pinned backend still throws on the first tape run, before
    // its oracle could execute.
    oracle_fn = exec::kTapeScalar.oracle;
    if (options.exec_backend.has_value()) {
        if (const exec::TapeKernel* k = exec::tape_kernel(*options.exec_backend);
            k != nullptr && k->oracle != nullptr) {
            oracle_fn = k->oracle;
        }
    } else {
        oracle_fn = exec::dispatch().kernel->oracle;
    }
    oracle_view = exec::SweepOracleView{laneref.reduction_indices().data(),
                                        laneref.reduction_offsets().data(), m};
}

std::optional<VerifyFailure> MultiplierVerifier::Impl::check(
    SweepWorker& w, std::span<const std::uint64_t> in, int blocks,
    int& failed_block) const {
    const auto n_in = static_cast<std::size_t>(2 * m);
    const auto n_out = static_cast<std::size_t>(m);
    const auto out = std::span{w.out_words}.first(n_out * blocks);
    if (backend.has_value()) {
        prog.run(in, out, w.exec_scratch, blocks, *backend);
    } else {
        prog.run(in, out, w.exec_scratch, blocks);
    }
    oracle_fn(oracle_view, in.data(), w.out_words.data(), w.oracle_diff.data(),
              w.oracle_work.data(), blocks);
    for (int b = 0; b < blocks; ++b) {
        if (w.oracle_diff[static_cast<std::size_t>(b)] == 0) {
            continue;
        }
        auto failure = check_block(w, m, laneref, in.subspan(b * n_in, n_in),
                                   out.subspan(b * n_out, n_out));
        if (failure.has_value()) {
            failed_block = b;
            return failure;
        }
        // The scalar re-check found nothing: a conservative vector flag
        // never fails a verdict — keep scanning.
    }
    return std::nullopt;
}

MultiplierVerifier::~MultiplierVerifier() = default;
MultiplierVerifier::MultiplierVerifier(MultiplierVerifier&&) noexcept = default;
MultiplierVerifier& MultiplierVerifier::operator=(MultiplierVerifier&&) noexcept =
    default;

MultiplierVerifier::MultiplierVerifier(const netlist::Netlist& nl,
                                       const Field& field,
                                       const VerifyOptions& options) {
    const int m = field.degree();
    if (static_cast<int>(nl.inputs().size()) != 2 * m ||
        static_cast<int>(nl.outputs().size()) != m) {
        throw std::invalid_argument{"verify_multiplier: port count does not match field"};
    }
    // Interface sanity: inputs must be a0.., b0.. and outputs c0.. in order.
    for (int i = 0; i < m; ++i) {
        if (nl.inputs()[static_cast<std::size_t>(i)].name != a_name(i) ||
            nl.inputs()[static_cast<std::size_t>(m + i)].name != b_name(i) ||
            nl.outputs()[static_cast<std::size_t>(i)].name != coeff_name(i)) {
            throw std::invalid_argument{"verify_multiplier: unexpected port naming"};
        }
    }
    impl_ = std::make_unique<Impl>(nl, field, options);
}

std::optional<VerifyFailure> MultiplierVerifier::run() const {
    const Impl& im = *impl_;
    return im.sweep.run<VerifyFailure>([&im](int group) {
        return [&im, w = SweepWorker{im.m, group}](std::span<const std::uint64_t> in,
                                                   int blocks, int& failed_block) mutable {
            return im.check(w, in, blocks, failed_block);
        };
    });
}

std::optional<VerifyFailure> verify_multiplier(const netlist::Netlist& nl,
                                               const Field& field,
                                               const VerifyOptions& options) {
    return MultiplierVerifier{nl, field, options}.run();
}

opt::OptResult optimize_and_verify(const netlist::Netlist& nl,
                                   const field::Field& field,
                                   const opt::OptOptions& opt_options,
                                   const VerifyOptions& verify_options) {
    opt::OptResult result = opt::optimize(nl, opt_options);
    if (const auto failure =
            verify_multiplier(result.netlist, field, verify_options)) {
        throw opt::VerificationError("multiplier", failure->to_string());
    }
    return result;
}

}  // namespace gfr::mult
