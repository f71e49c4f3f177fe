// Algebraic verification tier: backward rewriting proves every multiplier
// family for every Table V field with zero simulation, synthesizes real
// counterexamples for faulty netlists, keeps its verdict bit-identical at
// any thread count, and plugs into the verifier and optimizer seams.

#include "acv/acv.h"

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/simulate.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gfr::acv {
namespace {

netlist::Netlist faulty_gf256_netlist(const field::Field& fld) {
    const auto good = mult::build_multiplier(mult::Method::Imana2012, fld);
    // Flip one reachable XOR to AND: a classic single-gate transcription
    // fault (also the mutation tier's bread and butter).
    bool flipped = false;
    return testutil::clone_netlist(
        good, [&](netlist::NodeId, netlist::GateKind& kind, netlist::NodeId&,
                  netlist::NodeId&) {
            if (!flipped && kind == netlist::GateKind::Xor2) {
                kind = netlist::GateKind::And2;
                flipped = true;
            }
        });
}

TEST(AcvProve, ProvesEveryFamilyOnPaperField) {
    const field::Field fld = field::gf256_paper_field();
    for (const auto& info : mult::all_methods()) {
        const auto nl = mult::build_multiplier(info.method, fld);
        ProofStats stats;
        const auto failure = prove_multiplier(nl, fld, {}, &stats);
        EXPECT_FALSE(failure.has_value())
            << info.display << ": " << failure->to_string();
        EXPECT_EQ(stats.columns, 8);
        // On success the extracted ANF IS the spec signature.
        EXPECT_EQ(stats.netlist_monomials, stats.spec_monomials);
        EXPECT_GT(stats.expansion_events, 0U);
    }
}

TEST(AcvProve, ProvesAllTableVFlatCells) {
    testutil::for_each_table5_field([&](const field::FieldSpec& spec,
                                        const field::Field& fld) {
        for (const auto& info : mult::all_methods()) {
            if (!info.in_table5) {
                continue;
            }
            const auto nl = mult::build_multiplier(info.method, fld);
            const auto failure = prove_multiplier(nl, fld);
            EXPECT_FALSE(failure.has_value())
                << spec.label() << " " << info.display << ": "
                << failure->to_string();
        }
        const auto literal = mult::build_multiplier(
            mult::Method::Date2018Flat, fld, mult::Elaboration::Literal);
        EXPECT_FALSE(prove_multiplier(literal, fld).has_value())
            << spec.label() << " date2018-raw";
    });
}

struct GoldenProof {
    int m = 0;
    int n = 0;
    std::string_view name;  ///< method key; "date2018-raw" = literal elaboration
    std::size_t expansion_events = 0;
    std::size_t peak_column_monomials = 0;
    std::size_t netlist_monomials = 0;
};

// Single-thread ProofStats of the 63 verdict netlists: fields in
// field::table5_fields() order, per field the Table V methods in
// mult::all_methods() order, then date2018-raw.
constexpr GoldenProof kGoldenProofs[] = {
    {8, 2, "paar", 206, 24, 150},
    {8, 2, "rashidi", 292, 24, 150},
    {8, 2, "reyhani", 234, 36, 150},
    {8, 2, "imana2012", 292, 24, 150},
    {8, 2, "imana2016", 292, 24, 150},
    {8, 2, "date2018", 292, 24, 150},
    {8, 2, "date2018-raw", 292, 24, 150},
    {64, 23, "paar", 15053, 316, 11021},
    {64, 23, "rashidi", 21978, 316, 11021},
    {64, 23, "reyhani", 16663, 448, 11021},
    {64, 23, "imana2012", 21978, 316, 11021},
    {64, 23, "imana2016", 21978, 316, 11021},
    {64, 23, "date2018", 21978, 316, 11021},
    {64, 23, "date2018-raw", 21978, 316, 11021},
    {113, 4, "paar", 44450, 455, 31794},
    {113, 4, "rashidi", 63475, 455, 31794},
    {113, 4, "reyhani", 44502, 473, 31794},
    {113, 4, "imana2012", 63475, 455, 31794},
    {113, 4, "imana2016", 63475, 455, 31794},
    {113, 4, "date2018", 63475, 455, 31794},
    {113, 4, "date2018-raw", 63475, 455, 31794},
    {113, 34, "paar", 46265, 545, 33609},
    {113, 34, "rashidi", 67105, 545, 33609},
    {113, 34, "reyhani", 49767, 743, 33609},
    {113, 34, "imana2012", 67105, 545, 33609},
    {113, 34, "imana2016", 67105, 545, 33609},
    {113, 34, "date2018", 67105, 545, 33609},
    {113, 34, "date2018-raw", 67105, 545, 33609},
    {122, 49, "paar", 55565, 626, 40803},
    {122, 49, "rashidi", 81484, 626, 40803},
    {122, 49, "reyhani", 62817, 914, 40803},
    {122, 49, "imana2012", 81484, 626, 40803},
    {122, 49, "imana2016", 81484, 626, 40803},
    {122, 49, "date2018", 81484, 626, 40803},
    {122, 49, "date2018-raw", 81484, 626, 40803},
    {139, 59, "paar", 72707, 724, 53525},
    {139, 59, "rashidi", 106911, 724, 53525},
    {139, 59, "reyhani", 83209, 1072, 53525},
    {139, 59, "imana2012", 106911, 724, 53525},
    {139, 59, "imana2016", 106911, 724, 53525},
    {139, 59, "date2018", 106911, 724, 53525},
    {139, 59, "date2018-raw", 106911, 724, 53525},
    {148, 72, "paar", 78923, 653, 57167},
    {148, 72, "rashidi", 114186, 653, 57167},
    {148, 72, "reyhani", 99949, 1225, 57167},
    {148, 72, "imana2012", 114186, 653, 57167},
    {148, 72, "imana2016", 114186, 653, 57167},
    {148, 72, "date2018", 114186, 653, 57167},
    {148, 72, "date2018-raw", 114186, 653, 57167},
    {163, 66, "paar", 99352, 841, 72946},
    {163, 66, "rashidi", 145729, 841, 72946},
    {163, 66, "reyhani", 112486, 1231, 72946},
    {163, 66, "imana2012", 145729, 841, 72946},
    {163, 66, "imana2016", 145729, 841, 72946},
    {163, 66, "date2018", 145729, 841, 72946},
    {163, 66, "date2018-raw", 145729, 841, 72946},
    {163, 68, "paar", 99761, 847, 73355},
    {163, 68, "rashidi", 146547, 847, 73355},
    {163, 68, "reyhani", 113701, 1249, 73355},
    {163, 68, "imana2012", 146547, 847, 73355},
    {163, 68, "imana2016", 146547, 847, 73355},
    {163, 68, "date2018", 146547, 847, 73355},
    {163, 68, "date2018-raw", 146547, 847, 73355},
};

TEST(AcvProve, PinsProofStatsOfEveryVerdictNetlist) {
    // Backward rewriting must expand the same gates in the same order: the
    // exact work counters of every Table V proof are pinned, not just the
    // verdict.
    ASSERT_EQ(std::size(kGoldenProofs), 63U);
    std::size_t total_events = 0;
    for (const auto& row : kGoldenProofs) {
        total_events += row.expansion_events;
    }
    EXPECT_EQ(total_events, 4834145U);
    const GoldenProof* want = kGoldenProofs;
    testutil::for_each_table5_field([&](const field::FieldSpec& spec,
                                        const field::Field& fld) {
        const auto check = [&](std::string_view name, const netlist::Netlist& nl) {
            SCOPED_TRACE(spec.label() + " " + std::string{name});
            ASSERT_EQ(want->m, spec.m);
            ASSERT_EQ(want->n, spec.n);
            ASSERT_EQ(want->name, name);
            ProofStats stats;
            EXPECT_FALSE(prove_multiplier(nl, fld, {.threads = 1}, &stats).has_value());
            EXPECT_EQ(stats.expansion_events, want->expansion_events);
            EXPECT_EQ(stats.peak_column_monomials, want->peak_column_monomials);
            EXPECT_EQ(stats.netlist_monomials, want->netlist_monomials);
            ++want;
        };
        for (const auto& info : mult::all_methods()) {
            if (info.in_table5) {
                check(info.key, mult::build_multiplier(info.method, fld));
            }
        }
        check("date2018-raw", mult::build_multiplier(mult::Method::Date2018Flat, fld,
                                                     mult::Elaboration::Literal));
    });
}

TEST(AcvProve, ProvesOptimizedNetlists) {
    const field::Field gf256 = field::gf256_paper_field();
    for (const auto& info : mult::all_methods()) {
        const auto nl = mult::build_multiplier(info.method, gf256);
        const auto optimized = opt::optimize(nl);
        EXPECT_FALSE(prove_multiplier(optimized.netlist, gf256).has_value())
            << info.display << " (optimized)";
    }
    const field::Field gf64 = field::Field::type2(64, 23);
    const auto literal = mult::build_multiplier(
        mult::Method::Date2018Flat, gf64, mult::Elaboration::Literal);
    const auto optimized = opt::optimize(literal);
    EXPECT_FALSE(prove_multiplier(optimized.netlist, gf64).has_value());
}

TEST(AcvProve, ProvesNetlistWithExtraOutputsExcluded) {
    // Outputs beside c0..c(m-1) make the simulation verifier reject the
    // netlist outright; the algebraic prover resolves ports by name and
    // simply never expands the extra lanes.
    for (const int m : {8, 64}) {
        const field::Field fld = m == 8 ? field::gf256_paper_field()
                                        : field::Field::type2(64, 23);
        auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
        const auto c0 = nl.outputs()[0].node;
        const auto c1 = nl.outputs()[1].node;
        const auto a0 = nl.inputs()[0].node;
        const auto b0 = nl.inputs()[static_cast<std::size_t>(m)].node;
        nl.add_output("obs_parity", nl.make_xor(c0, c1));
        nl.add_output("obs_and", nl.make_and(a0, b0));
        ASSERT_EQ(nl.outputs().size(), static_cast<std::size_t>(m) + 2);
        EXPECT_THROW(static_cast<void>(mult::verify_multiplier(nl, fld)),
                     std::invalid_argument);
        EXPECT_FALSE(prove_multiplier(nl, fld).has_value());
        mult::VerifyOptions algebraic;
        algebraic.mode = mult::VerifyMode::Algebraic;
        EXPECT_FALSE(mult::verify_multiplier(nl, fld, algebraic).has_value());
    }
}

TEST(AcvProve, CatchesInjectedFaultWithValidWitness) {
    const field::Field fld = field::gf256_paper_field();
    const auto bad = faulty_gf256_netlist(fld);
    const auto failure = prove_multiplier(bad, fld);
    ASSERT_TRUE(failure.has_value());
    EXPECT_FALSE(failure->blowup);
    EXPECT_GT(failure->residual_monomials, 0U);

    // The witness was SYNTHESIZED from a residual monomial, never simulated.
    // Check it against both ground truths: the netlist disagrees with the
    // field engine on exactly the reported coefficient.
    std::vector<std::uint64_t> in(bad.inputs().size(), 0);
    for (int i = 0; i < 8; ++i) {
        if (failure->witness_a.coeff(i)) {
            in[static_cast<std::size_t>(bad.input_index("a" + std::to_string(i)))] = 1;
        }
        if (failure->witness_b.coeff(i)) {
            in[static_cast<std::size_t>(bad.input_index("b" + std::to_string(i)))] = 1;
        }
    }
    const auto out = netlist::simulate(bad, in);
    const bool simulated_bit =
        (out[static_cast<std::size_t>(failure->column)] & 1U) != 0;
    EXPECT_EQ(simulated_bit, failure->netlist_bit);
    EXPECT_EQ(fld.mul(failure->witness_a, failure->witness_b)
                  .coeff(failure->column),
              failure->reference_bit);
    EXPECT_NE(failure->netlist_bit, failure->reference_bit);
}

TEST(AcvProve, VerdictBitIdenticalAtAnyThreadCount) {
    const field::Field fld = field::Field::type2(64, 23);
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    bool flipped = false;
    const auto bad = testutil::clone_netlist(
        good, [&](netlist::NodeId, netlist::GateKind& kind, netlist::NodeId&,
                  netlist::NodeId&) {
            if (!flipped && kind == netlist::GateKind::Xor2) {
                kind = netlist::GateKind::And2;
                flipped = true;
            }
        });
    std::optional<std::string> baseline;
    for (const int threads : {1, 2, 4}) {
        ProveOptions options;
        options.threads = threads;
        const auto failure = prove_multiplier(bad, fld, options);
        ASSERT_TRUE(failure.has_value()) << "threads=" << threads;
        if (!baseline.has_value()) {
            baseline = failure->to_string();
        } else {
            EXPECT_EQ(*baseline, failure->to_string()) << "threads=" << threads;
        }
        EXPECT_FALSE(prove_multiplier(good, fld, options).has_value());
    }
}

TEST(AcvProve, PinnedFailureFormat) {
    ProofFailure mismatch;
    mismatch.column = 3;
    mismatch.residual_monomials = 2;
    mismatch.witness_a.set_coeff(2, true);
    mismatch.witness_b.set_coeff(1, true);
    mismatch.netlist_bit = false;
    mismatch.reference_bit = true;
    EXPECT_EQ(mismatch.to_string(),
              "c3 algebraic mismatch: residual=2 monomials, netlist=0 "
              "reference=1 for A=y^2, B=y [repro: algebraic column=3]");

    ProofFailure blowup;
    blowup.column = 0;
    blowup.blowup = true;
    blowup.residual_monomials = 4194305;
    blowup.monomial_cap = 4194304;
    EXPECT_EQ(blowup.to_string(),
              "c0 algebraic blowup: 4194305 monomials in flight "
              "[repro: algebraic column=0 cap=4194304]");
}

TEST(AcvProve, BlowupCapIsARejectionNeverAnAcceptance) {
    const field::Field fld = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    ProveOptions tiny;
    tiny.max_monomials = 64;  // far below what any m=64 column needs
    const auto failure = prove_multiplier(nl, fld, tiny);
    ASSERT_TRUE(failure.has_value());
    EXPECT_TRUE(failure->blowup);
    EXPECT_EQ(failure->monomial_cap, 64U);
    EXPECT_EQ(failure->column, 0);  // lowest column reported, like mismatches
}

TEST(AcvProve, WrongModulusIsAMismatchNotAThrow) {
    // A correct multiplier for the paper field, proved against the AES
    // modulus: same m, different f — the proof must reject it with a
    // counterexample, not error out.
    const field::Field paper = field::gf256_paper_field();
    const field::Field aes{gf2::Poly::from_exponents({8, 4, 3, 1, 0})};
    const auto nl = mult::build_multiplier(mult::Method::Imana2012, paper);
    const auto failure = prove_multiplier(nl, aes);
    ASSERT_TRUE(failure.has_value());
    EXPECT_FALSE(failure->blowup);
    EXPECT_EQ(aes.mul(failure->witness_a, failure->witness_b)
                  .coeff(failure->column),
              failure->reference_bit);
}

TEST(AcvProve, RejectsWrongInterface) {
    const field::Field gf256 = field::gf256_paper_field();
    const field::Field gf64 = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Imana2012, gf256);
    EXPECT_THROW(static_cast<void>(prove_multiplier(nl, gf64)),
                 std::invalid_argument);
}

TEST(AcvVerifierModes, AlgebraicAndBothModes) {
    const field::Field fld = field::gf256_paper_field();
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    const auto bad = faulty_gf256_netlist(fld);

    for (const auto mode :
         {mult::VerifyMode::Algebraic, mult::VerifyMode::Both}) {
        mult::VerifyOptions options;
        options.mode = mode;
        EXPECT_FALSE(mult::verify_multiplier(good, fld, options).has_value());
        const auto failure = mult::verify_multiplier(bad, fld, options);
        ASSERT_TRUE(failure.has_value());
        // Algebraic counterexamples carry no sweep to replay: the pinned
        // simulation repro suffix must be absent.
        EXPECT_EQ(failure->to_string().find("[repro:"), std::string::npos);
        EXPECT_EQ(fld.mul(failure->a, failure->b).coeff(failure->coefficient),
                  failure->reference_bit);
        EXPECT_NE(failure->netlist_bit, failure->reference_bit);
    }
}

TEST(AcvOptGate, AlgebraicPostGateReportsAndThrows) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);

    opt::OptOptions with_gate;
    with_gate.algebraic_spec = &fld;
    const auto result = opt::optimize(nl, with_gate);
    ASSERT_FALSE(result.passes.empty());
    EXPECT_EQ(result.passes.back().pass, "algebraic");
    EXPECT_TRUE(result.passes.back().verified);
    EXPECT_EQ(result.passes.back().gates_before,
              result.passes.back().gates_after);

    // The unsound rewrite with the per-pass equivalence campaign disabled:
    // only the algebraic post-gate stands between it and the caller.
    opt::OptOptions unsound;
    unsound.verify_each_pass = false;
    unsound.restructure = false;
    unsound.reduce = false;
    unsound.rewrite_rounds = 1;
    unsound.rewrite.unsound_for_test = true;
    unsound.algebraic_spec = &fld;
    try {
        static_cast<void>(opt::optimize(nl, unsound));
        FAIL() << "unsound rewrite escaped the algebraic gate";
    } catch (const opt::VerificationError& e) {
        EXPECT_EQ(e.pass(), "algebraic");
    }
}

}  // namespace
}  // namespace gfr::acv
