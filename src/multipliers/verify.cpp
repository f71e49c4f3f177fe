#include "multipliers/verify.h"

#include "acv/acv.h"
#include "exec/program.h"
#include "exec/run_kernels.h"
#include "multipliers/product_layer.h"
#include "netlist/simulate.h"
#include "verify/campaign.h"
#include "verify/lane_reference.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>

namespace gfr::mult {

using field::Field;
using gf2::Poly;

std::string VerifyFailure::to_string() const {
    std::string out = "c" + std::to_string(coefficient) + " mismatch: netlist=" +
                      std::to_string(static_cast<int>(netlist_bit)) + " reference=" +
                      std::to_string(static_cast<int>(reference_bit)) + " for A=" +
                      a.to_string() + ", B=" + b.to_string();
    if (sweep_index != ~std::uint64_t{0}) {
        char repro[128];
        if (random_regime) {
            std::snprintf(repro, sizeof repro,
                          " [repro: seed=0x%llx sweep=%llu sweep_seed=0x%llx]",
                          static_cast<unsigned long long>(campaign_seed),
                          static_cast<unsigned long long>(sweep_index),
                          static_cast<unsigned long long>(
                              verify::Campaign::derive_sweep_seed(campaign_seed,
                                                                  sweep_index)));
        } else {
            std::snprintf(repro, sizeof repro,
                          " [repro: exhaustive sweep=%llu]",
                          static_cast<unsigned long long>(sweep_index));
        }
        out += repro;
    }
    return out;
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

/// Everything one campaign worker owns: execution scratch for the shared
/// compiled tape, the sweep's input/output words (sized for up to `blocks`
/// blocks of 64 lanes), and the oracle and lane-reference scratch.  The
/// Program, Field and LaneReference stay shared and immutable; workers
/// never contend, and sweeps are allocation-free in steady state.
struct SweepWorker {
    SweepWorker(int m, int blocks)
        : in_words(static_cast<std::size_t>(2 * m) * blocks, 0),
          out_words(static_cast<std::size_t>(m) * blocks, 0),
          oracle_diff(static_cast<std::size_t>(blocks), 0),
          oracle_work(static_cast<std::size_t>(8 * m + 64), 0) {}

    exec::Program::Scratch exec_scratch;
    std::vector<std::uint64_t> in_words;
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

/// Everything check_sweep needs beyond the worker: the shared tape, the
/// lane reference, the fused oracle with its reduction view, and the backend
/// pin.  Built once per campaign.
struct SweepPlan {
    const exec::Program* prog = nullptr;
    const Field* field = nullptr;
    const verify::LaneReference* laneref = nullptr;
    /// Fused sweep oracle of the same backend rung as the tape executor
    /// (scalar when forced or quarantined).
    exec::OracleRunFn oracle_fn = nullptr;
    exec::SweepOracleView oracle_view;
    std::optional<exec::Backend> backend;
};

/// Execute the tape over the `blocks` blocks loaded in w.in_words and check
/// them in ascending order (so batching never changes which failure is
/// first).  The success path is one fused oracle call over the whole sweep
/// (per-block diff flags); a flagged block is re-extracted through the
/// scalar LaneReference in check_block, which stays the verdict authority —
/// block order and the lane-major first-failure rule are untouched.  On
/// failure *failed_block is the in-sweep block index, letting the caller
/// report width-1 coordinates.
std::optional<VerifyFailure> check_sweep(SweepWorker& w, const SweepPlan& plan,
                                         int blocks, int* failed_block) {
    const Field& field = *plan.field;
    const std::size_t n_in = static_cast<std::size_t>(2 * field.degree());
    const std::size_t n_out = static_cast<std::size_t>(field.degree());
    const auto in = std::span{w.in_words}.first(n_in * blocks);
    const auto out = std::span{w.out_words}.first(n_out * blocks);
    if (plan.backend.has_value()) {
        plan.prog->run(in, out, w.exec_scratch, blocks, *plan.backend);
    } else {
        plan.prog->run(in, out, w.exec_scratch, blocks);
    }
    plan.oracle_fn(plan.oracle_view, w.in_words.data(), w.out_words.data(),
                   w.oracle_diff.data(), w.oracle_work.data(), blocks);
    for (int b = 0; b < blocks; ++b) {
        if (w.oracle_diff[static_cast<std::size_t>(b)] == 0) {
            continue;
        }
        auto failure = check_block(
            w, field.degree(), *plan.laneref,
            std::span{w.in_words}.subspan(b * n_in, n_in),
            std::span{w.out_words}.subspan(b * n_out, n_out));
        if (failure.has_value()) {
            *failed_block = b;
            return failure;
        }
        // The scalar re-check found nothing: a conservative vector flag
        // never fails a verdict — keep scanning.
    }
    return std::nullopt;
}

}  // namespace

/// Everything campaign-independent, prepared once at construction: the
/// compiled tape, the anchored oracles, the resolved sweep plan and the
/// block grouping.  run() shares all of it across campaigns.
struct MultiplierVerifier::Impl {
    const Field* field = nullptr;
    const netlist::Netlist* nl = nullptr;  ///< algebraic modes prove against it
    VerifyOptions options;
    int m = 0;
    bool exhaustive = false;
    exec::Program prog;
    std::unique_ptr<verify::LaneReference> laneref;
    SweepPlan plan;
    exec::BlockGrouping grouping;
};

MultiplierVerifier::~MultiplierVerifier() = default;
MultiplierVerifier::MultiplierVerifier(MultiplierVerifier&&) noexcept = default;
MultiplierVerifier& MultiplierVerifier::operator=(MultiplierVerifier&&) noexcept =
    default;

MultiplierVerifier::MultiplierVerifier(const netlist::Netlist& nl,
                                       const Field& field,
                                       const VerifyOptions& options) {
    const int m = field.degree();
    if (options.mode == VerifyMode::Algebraic) {
        // Pure algebraic mode needs no tape, no oracles, no sweep plan — and
        // it is the one mode that admits extra outputs beside c0..c(m-1)
        // (ports resolve by name inside prove_multiplier).  Validate
        // the interface now so construction throws like the other modes.
        if (static_cast<int>(nl.inputs().size()) != 2 * m) {
            throw std::invalid_argument{
                "verify_multiplier: port count does not match field"};
        }
        for (int i = 0; i < m; ++i) {
            if (nl.input_index("a" + std::to_string(i)) < 0 ||
                nl.input_index("b" + std::to_string(i)) < 0 ||
                nl.output_index("c" + std::to_string(i)) < 0) {
                throw std::invalid_argument{
                    "verify_multiplier: unexpected port naming"};
            }
        }
        impl_ = std::make_unique<Impl>();
        impl_->field = &field;
        impl_->nl = &nl;
        impl_->options = options;
        impl_->m = m;
        return;
    }
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

    impl_ = std::make_unique<Impl>();
    impl_->field = &field;
    impl_->nl = &nl;
    impl_->options = options;
    impl_->m = m;
    impl_->exhaustive = 2 * m <= options.max_exhaustive_inputs;

    // The netlist compiles once; every run() executes the shared tape.
    impl_->prog = exec::Program::compile(nl);

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
    std::unique_ptr<verify::LaneReference>& laneref = impl_->laneref;
    laneref = std::make_unique<verify::LaneReference>(field);
    {
        verify::SweepRng rng{verify::Campaign::derive_sweep_seed(options.seed,
                                                                verify::kNoFailure)};
        std::vector<std::uint64_t> in(static_cast<std::size_t>(2 * m));
        for (auto& word : in) {
            word = rng();
        }
        std::vector<std::uint64_t> want;
        verify::LaneReference::Scratch scratch;
        laneref->products(in, want, scratch);
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

    // Resolve the sweep plan once: the fused sweep oracle follows the same
    // backend rung as the tape executor (the pinned backend for bench
    // ladders and differential tests, otherwise the screened process-wide
    // dispatch — which already reflects GFR_EXEC_FORCE_SCALAR and any
    // quarantine), so a verdict never mixes an unscreened oracle with a
    // screened tape.  An unavailable pinned backend still throws on the
    // first tape run, before its oracle could execute.
    SweepPlan& plan = impl_->plan;
    plan.prog = &impl_->prog;
    plan.field = &field;
    plan.laneref = laneref.get();
    plan.backend = options.exec_backend;
    plan.oracle_fn = exec::kTapeScalar.oracle;
    if (options.exec_backend.has_value()) {
        if (const exec::TapeKernel* k = exec::tape_kernel(*options.exec_backend);
            k != nullptr && k->oracle != nullptr) {
            plan.oracle_fn = k->oracle;
        }
    } else {
        plan.oracle_fn = exec::dispatch().kernel->oracle;
    }
    plan.oracle_view = exec::SweepOracleView{laneref->reduction_indices().data(),
                                             laneref->reduction_offsets().data(), m};

    // Both regimes batch blocks into bitsliced passes (up to 1024 products
    // per full pass — what the SIMD backends feed on); random block contents
    // stay pinned to their width-1 index (see exec::BlockGrouping), so the
    // batching width never changes a verdict or a repro coordinate.
    const std::uint64_t total_blocks =
        impl_->exhaustive ? ((2 * m <= 6) ? 1 : (std::uint64_t{1} << (2 * m - 6)))
                          : static_cast<std::uint64_t>(options.random_sweeps);
    impl_->grouping = exec::BlockGrouping::over(
        total_blocks, true,
        options.max_batch_blocks > 0 ? options.max_batch_blocks
                                     : exec::Program::kMaxBlocks);
}

std::optional<VerifyFailure> MultiplierVerifier::run() const {
    const Impl& im = *impl_;
    if (im.options.mode != VerifyMode::Simulation) {
        acv::ProveOptions prove_options;
        prove_options.threads = im.options.threads;
        if (const auto proof =
                acv::prove_multiplier(*im.nl, *im.field, prove_options)) {
            VerifyFailure failure;
            failure.a = proof->witness_a;
            failure.b = proof->witness_b;
            failure.coefficient = proof->column;
            failure.netlist_bit = proof->netlist_bit;
            failure.reference_bit = proof->reference_bit;
            // sweep_index stays unrecorded: there is no sweep to replay —
            // to_string() prints the counterexample without repro coords.
            return failure;
        }
        if (im.options.mode == VerifyMode::Algebraic) {
            return std::nullopt;  // proved for all inputs
        }
    }
    const int m = im.m;
    const bool exhaustive = im.exhaustive;
    const VerifyOptions& options = im.options;
    const SweepPlan& plan = im.plan;
    const exec::BlockGrouping& grouping = im.grouping;
    const std::uint64_t total_sweeps = grouping.total_sweeps;

    // Random sweeps cost a batched tape execution plus 64 reference
    // products per block — worth sharding at a floor of one batched sweep
    // per worker.  Exhaustive sweeps are microsecond-cheap; keep the higher
    // floor so tiny spaces run inline.
    verify::Campaign campaign{{.threads = options.threads,
                               .min_sweeps_per_worker = exhaustive ? 64U : 1U}};
    const int workers = campaign.worker_count(total_sweeps);
    std::vector<std::optional<VerifyFailure>> payload(static_cast<std::size_t>(workers));
    std::vector<std::uint64_t> payload_sweep(static_cast<std::size_t>(workers),
                                             verify::kNoFailure);

    const auto factory = [&](int worker_id) -> verify::Campaign::SweepFn {
        auto worker = std::make_shared<SweepWorker>(m, grouping.group);
        return [&, worker_id, worker](std::uint64_t sweep) -> bool {
            const std::uint64_t first_block = grouping.first_block(sweep);
            const int blocks = grouping.blocks_in_sweep(sweep);
            if (exhaustive) {
                for (int b = 0; b < blocks; ++b) {
                    for (int i = 0; i < 2 * m; ++i) {
                        worker->in_words[static_cast<std::size_t>(b * 2 * m + i)] =
                            netlist::exhaustive_pattern(
                                i, first_block + static_cast<std::uint64_t>(b));
                    }
                }
            } else {
                // Each block's contents derive from its own width-1 index,
                // never the batched sweep number — a logged sweep_index
                // replays at any batching width.
                for (int b = 0; b < blocks; ++b) {
                    verify::SweepRng rng{verify::Campaign::derive_sweep_seed(
                        options.seed,
                        first_block + static_cast<std::uint64_t>(b))};
                    for (int i = 0; i < 2 * m; ++i) {
                        worker->in_words[static_cast<std::size_t>(b * 2 * m + i)] =
                            rng();
                    }
                }
            }
            int failed_block = 0;
            auto failure = check_sweep(*worker, plan, blocks, &failed_block);
            if (failure.has_value()) {
                failure->campaign_seed = options.seed;
                // Width-1 coordinates for both regimes: the failing block's
                // own index, invariant across batching widths and backends.
                failure->sweep_index =
                    first_block + static_cast<std::uint64_t>(failed_block);
                failure->random_regime = !exhaustive;
                payload[static_cast<std::size_t>(worker_id)] = std::move(failure);
                payload_sweep[static_cast<std::size_t>(worker_id)] = sweep;
                return true;
            }
            return false;
        };
    };

    const std::uint64_t failing_sweep = campaign.run(total_sweeps, factory);
    if (failing_sweep == verify::kNoFailure) {
        return std::nullopt;
    }
    for (int w = 0; w < workers; ++w) {
        if (payload_sweep[static_cast<std::size_t>(w)] == failing_sweep) {
            return payload[static_cast<std::size_t>(w)];
        }
    }
    return std::nullopt;  // unreachable: the failing worker recorded its payload
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
