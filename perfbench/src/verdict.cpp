// Workload `verdict`: netlist -> verdict.  The 63 netlists of BENCH_10 (the
// 54 Table V cells plus the literal date2018 elaboration per field) and one
// seeded single-gate mutant of each each get a verdict two ways:
// `mult::MultiplierVerifier` (construct + run(), so preparation is timed)
// and `acv::prove_multiplier`.  `mult::optimize_and_verify` then runs on the
// nine literal netlists.  Loads exec, verify, acv and opt; no fpga code runs.
//
// part_a_s = the 126 campaigns, part_b_s = the 126 proofs; pass_s adds the
// nine optimize_and_verify calls.
//
// Mutant choice keeps the cost of a reject independent of the seed: the
// mutant is an AND gate turned into an XOR (a partial product becomes a
// linear term, so no proof blows up), drawn from the gates whose lowest
// dependent output column is the middle column, so the prover always proves
// half the columns before it meets the fault and the campaign always stops
// in its first sweep.  The seed picks which gate.  Ground truth is fixed at
// input generation: the tape-independent interpreter must show the middle
// column differing from Field::mul, otherwise another gate is drawn.

#include "common.h"

#include "acv/acv.h"
#include "exec/program.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/clone.h"
#include "netlist/simulate.h"
#include "opt/opt.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace pb {
namespace {

using namespace gfr;

/// Total gates after optimize_and_verify over the nine literal netlists on
/// the commit that defined this benchmark (the optimizer is deterministic).
constexpr std::int64_t kPinnedOptGates = 279892;

struct Case {
    std::size_t field_index = 0;
    std::string name;
    netlist::Netlist nl;
    bool expect_pass = true;
};

class Verdict final : public Workload {
public:
    void set_up(Trace& setup_trace) override {
        setup_trace.span("field.construct_s", [&] {
            for (const auto& spec : field::table5_fields()) {
                fields_.push_back(spec.make());
                labels_.push_back(spec.label());
            }
        });
        verify_options_.threads = 1;
        prove_options_.threads = 1;
        opt_options_.verify.threads = 1;
    }

    void make_inputs(std::uint64_t seed) override {
        Rng rng{seed};
        for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
            const field::Field& f = fields_[fi];
            std::vector<std::pair<std::string, netlist::Netlist>> originals;
            for (const auto& info : mult::all_methods()) {
                if (info.in_table5) {
                    originals.emplace_back(std::string{info.key},
                                           mult::build_multiplier(info.method, f));
                }
            }
            originals.emplace_back("date2018-raw",
                                   mult::build_multiplier(mult::Method::Date2018Flat, f,
                                                          mult::Elaboration::Literal));
            literal_.push_back(cases_.size() + 2 * (originals.size() - 1));
            for (auto& [key, nl] : originals) {
                const std::string name = key + " " + labels_[fi];
                netlist::Netlist mutant = make_mutant(nl, f, rng, name);
                cases_.push_back({fi, name, std::move(nl), true});
                cases_.push_back({fi, name + " mutant", std::move(mutant), false});
            }
        }
    }

    PassStats pass(Trace* trace) override {
        PassStats st;
        const double spans_before = trace != nullptr ? span_total(*trace) : 0.0;
        std::vector<std::string> failures;
        for (const Case& c : cases_) {
            speed_checkpoint();
            const field::Field& f = fields_[c.field_index];
            if (trace != nullptr) {
                // Layer-only work outside the timed sections: the tape the
                // verifier compiles internally, compiled once more here.
                const exec::Program prog =
                    trace->span("exec.compile_s", [&] { return exec::Program::compile(c.nl); });
                trace->add("exec.instructions", static_cast<double>(prog.instruction_count()));
            }
            auto t0 = Clock::now();
            std::optional<mult::VerifyFailure> campaign;
            if (trace == nullptr) {
                campaign = mult::MultiplierVerifier{c.nl, f, verify_options_}.run();
            } else {
                const mult::MultiplierVerifier v = trace->span(
                    "verify.prepare_s",
                    [&] { return mult::MultiplierVerifier{c.nl, f, verify_options_}; });
                campaign = trace->span("verify.run_s", [&] { return v.run(); });
            }
            const double campaign_s = seconds_since(t0);

            acv::ProofStats stats;
            t0 = Clock::now();
            const auto proof = acv::prove_multiplier(c.nl, f, prove_options_, &stats);
            const double proof_s = seconds_since(t0);

            st.part_a_s += campaign_s;
            st.part_b_s += proof_s;
            st.op_ms.push_back(scaled_ms(campaign_s + proof_s));
            st.ops += 2;
            if (campaign.has_value() == c.expect_pass) {
                ++st.failed;
                wrong_.push_back(c.name + " (campaign)");
            }
            if (proof.has_value() == c.expect_pass) {
                ++st.failed;
                wrong_.push_back(c.name + " (proof)");
            }
            failures.push_back(campaign ? campaign->to_string() : "");
            failures.push_back(proof ? proof->to_string() : "");
            if (trace != nullptr) {
                trace->add(c.expect_pass ? "acv.prove_s" : "acv.reject_s", proof_s);
                trace->add("acv.expansion_events", static_cast<double>(stats.expansion_events));
                trace->set("acv.peak_monomials",
                           std::max(trace->get("acv.peak_monomials"),
                                    static_cast<double>(stats.peak_column_monomials)));
                if (!campaign) {
                    trace->add("verify.products", products_checked(f.degree()));
                }
            }
        }

        std::int64_t gates = 0;
        double optimize_s = 0.0;
        for (const std::size_t i : literal_) {
            speed_checkpoint();
            const Case& c = cases_[i];
            const field::Field& f = fields_[c.field_index];
            const auto t0 = Clock::now();
            const opt::OptResult r =
                mult::optimize_and_verify(c.nl, f, opt_options_, verify_options_);
            const double dt = seconds_since(t0);
            optimize_s += dt;
            gates += r.gates_after();
            ++st.ops;
            if (trace != nullptr) {
                opt::OptOptions unverified = opt_options_;
                unverified.verify_each_pass = false;
                const double passes_s = trace->span("opt.passes_s", [&] {
                    const auto u0 = Clock::now();
                    (void)opt::optimize(c.nl, unverified);
                    return seconds_since(u0);
                });
                trace->add("opt.gate_check_s", dt - passes_s);
                for (const auto& p : r.passes) {
                    trace->add("opt.gates_removed." + p.pass,
                               static_cast<double>(p.gates_before - p.gates_after));
                }
            }
        }
        st.pass_s = st.part_a_s + st.part_b_s + optimize_s;
        campaign_s_.push_back(st.part_a_s);
        proof_s_.push_back(st.part_b_s);
        optimize_s_.push_back(optimize_s);
        if (opt_gates_ < 0) {
            opt_gates_ = gates;
        } else if (gates != opt_gates_) {
            ++st.failed;
        }
        if (failures_.empty()) {
            failures_ = failures;
        } else if (failures != failures_) {
            ++st.failed;
        }
        if (trace != nullptr) {
            // Spans around prepare/run and the two optimize variants overlap
            // the timed sections only partly; unattributed time is the timed
            // pass minus the verifier spans, proofs and verified optimizes.
            trace->add("trace.unattributed_s",
                       st.pass_s - (span_total(*trace) - spans_before) - st.part_b_s -
                           optimize_s);
        }
        return st;
    }

    long check(std::vector<std::string>& log) override {
        // Re-run every mutant once more: failure text must be byte-identical.
        long mismatched = 0;
        for (std::size_t i = 0; i < cases_.size(); ++i) {
            const Case& c = cases_[i];
            if (c.expect_pass) {
                continue;
            }
            const field::Field& f = fields_[c.field_index];
            const auto campaign = mult::MultiplierVerifier{c.nl, f, verify_options_}.run();
            const auto proof = acv::prove_multiplier(c.nl, f, prove_options_);
            if ((campaign ? campaign->to_string() : "") != failures_[2 * i] ||
                (proof ? proof->to_string() : "") != failures_[2 * i + 1]) {
                ++mismatched;
            }
        }
        std::uint64_t digest = 0xCBF29CE484222325ULL;
        for (const auto& s : failures_) {
            digest = fnv1a(s + "\n", digest);
        }
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "verdict failure strings re-run byte-identical: %zu/%zu (digest %016llx)",
                      cases_.size() / 2 - static_cast<std::size_t>(mismatched), cases_.size() / 2,
                      static_cast<unsigned long long>(digest));
        log.emplace_back(buf);
        for (const auto& name : wrong_) {
            log.push_back("verdict differs from its known answer: " + name);
        }
        std::snprintf(buf, sizeof buf, "verdict opt_gates %lld (pinned %lld)",
                      static_cast<long long>(opt_gates_), static_cast<long long>(kPinnedOptGates));
        log.emplace_back(buf);
        return mismatched + (opt_gates_ == kPinnedOptGates ? 0 : 1);
    }

    [[nodiscard]] std::vector<Figure> figures() const override {
        return {
            {"campaign_s", median(campaign_s_), "s"},
            {"proof_s", median(proof_s_), "s"},
            {"optimize_s", median(optimize_s_), "s"},
            {"opt_gates", static_cast<double>(opt_gates_), "gates"},
        };
    }

private:
    static double span_total(const Trace& t) {
        return t.get("verify.prepare_s") + t.get("verify.run_s");
    }

    /// Products an accepting campaign checks under the default options.
    [[nodiscard]] double products_checked(int m) const {
        if (2 * m <= verify_options_.max_exhaustive_inputs) {
            return static_cast<double>(std::uint64_t{1} << (2 * m));
        }
        return 64.0 * verify_options_.random_sweeps;
    }

    /// Lowest output column whose cone contains each node (max() = none).
    static std::vector<int> lowest_column(const netlist::Netlist& nl) {
        std::vector<int> col(nl.node_count(), std::numeric_limits<int>::max());
        for (std::size_t k = 0; k < nl.outputs().size(); ++k) {
            auto& c = col[nl.outputs()[k].node];
            c = std::min(c, static_cast<int>(k));
        }
        for (std::size_t id = nl.node_count(); id-- > 0;) {
            const netlist::Node& n = nl.node(static_cast<netlist::NodeId>(id));
            if (col[id] == std::numeric_limits<int>::max() ||
                (n.kind != netlist::GateKind::And2 && n.kind != netlist::GateKind::Xor2)) {
                continue;
            }
            col[n.a] = std::min(col[n.a], col[id]);
            col[n.b] = std::min(col[n.b], col[id]);
        }
        return col;
    }

    /// True when the interpreter shows column `c` of `mutant` differing from
    /// Field::mul on some of 256 seeded operand pairs.
    static bool column_differs(const netlist::Netlist& mutant, const field::Field& f, int c,
                               Rng& rng) {
        const int m = f.degree();
        const std::size_t words = static_cast<std::size_t>((m + 63) / 64);
        std::vector<std::uint64_t> in(static_cast<std::size_t>(2 * m));
        std::vector<std::uint64_t> aw(words);
        std::vector<std::uint64_t> bw(words);
        for (int block = 0; block < 4; ++block) {
            for (auto& w : in) {
                w = rng.next();
            }
            const auto out = netlist::simulate_interpreted(mutant, in);
            for (int lane = 0; lane < 64; ++lane) {
                std::fill(aw.begin(), aw.end(), 0);
                std::fill(bw.begin(), bw.end(), 0);
                for (int i = 0; i < m; ++i) {
                    aw[i / 64] |= ((in[i] >> lane) & 1U) << (i % 64);
                    bw[i / 64] |= ((in[m + i] >> lane) & 1U) << (i % 64);
                }
                const auto ref = f.mul(gf2::Poly::from_words(aw), gf2::Poly::from_words(bw));
                if (((out[c] >> lane) & 1U) != (ref.coeff(c) ? 1U : 0U)) {
                    return true;
                }
            }
        }
        return false;
    }

    static netlist::Netlist make_mutant(const netlist::Netlist& nl, const field::Field& f,
                                        Rng& rng, const std::string& name) {
        const int m = f.degree();
        const std::vector<int> col = lowest_column(nl);
        // Middle column first, then its neighbours outward.
        for (int step = 0; step < 2 * m; ++step) {
            const int c = m / 2 + ((step % 2 == 0) ? step / 2 : -(step + 1) / 2);
            if (c < 0 || c >= m) {
                continue;
            }
            std::vector<netlist::NodeId> candidates;
            for (std::size_t id = 0; id < nl.node_count(); ++id) {
                if (col[id] == c &&
                    nl.node(static_cast<netlist::NodeId>(id)).kind == netlist::GateKind::And2) {
                    candidates.push_back(static_cast<netlist::NodeId>(id));
                }
            }
            while (!candidates.empty()) {
                const std::size_t pick = rng.below(candidates.size());
                const netlist::NodeId target = candidates[pick];
                candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
                netlist::Netlist mutant = netlist::clone_netlist(
                    nl, {.intern = false},
                    [target](netlist::NodeId id, netlist::GateKind& kind, netlist::NodeId&,
                             netlist::NodeId&) {
                        if (id == target) {
                            kind = netlist::GateKind::Xor2;
                        }
                    });
                if (column_differs(mutant, f, c, rng)) {
                    return mutant;
                }
            }
        }
        throw std::runtime_error{"verdict: no observable mutant for " + name};
    }

    std::vector<field::Field> fields_;
    std::vector<std::string> labels_;
    std::vector<Case> cases_;         ///< original then its mutant, per netlist
    std::vector<std::size_t> literal_;  ///< indices of the literal originals
    mult::VerifyOptions verify_options_;
    acv::ProveOptions prove_options_;
    opt::OptOptions opt_options_;
    std::vector<std::string> failures_;  ///< first pass, campaign/proof per case
    std::vector<std::string> wrong_;     ///< cases whose verdict was wrong
    std::int64_t opt_gates_ = -1;
    std::vector<double> campaign_s_;
    std::vector<double> proof_s_;
    std::vector<double> optimize_s_;
};

}  // namespace

std::unique_ptr<Workload> make_verdict() { return std::make_unique<Verdict>(); }

}  // namespace pb
