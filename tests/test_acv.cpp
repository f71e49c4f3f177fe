// Algebraic verification tier: backward rewriting proves every multiplier
// family for every Table V field with zero simulation, synthesizes real
// counterexamples for faulty netlists, and keeps its verdict bit-identical
// at any thread count.

#include "acv/acv.h"

#include "field/field_catalog.h"
#include "gf2/pentanomial.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/simulate.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
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

using InputByName = std::function<netlist::NodeId(const std::string&)>;
using WrongTerm = std::function<netlist::NodeId(netlist::Netlist&, const InputByName&)>;

/// The date2018 multiplier over `fld` with column k rewritten to
/// c_k + a_i*b_j + wrong, where a_i*b_j is one of column k's spec pairs: it
/// cancels and `wrong` takes its place, so the column keeps exactly the
/// spec's monomial count.
netlist::Netlist one_wrong_monomial(const field::Field& fld, int k, int i, int j,
                                    const WrongTerm& wrong) {
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    const auto column = static_cast<std::size_t>(good.output_index("c" + std::to_string(k)));
    return testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const netlist::NodeId> mapped, netlist::Netlist& dst) {
            if (index != column) {
                return mapped[index];
            }
            const InputByName input = [&dst](const std::string& name) {
                return dst.inputs()[static_cast<std::size_t>(dst.input_index(name))].node;
            };
            const auto spec_pair =
                dst.make_and(input("a" + std::to_string(i)), input("b" + std::to_string(j)));
            return dst.make_xor(dst.make_xor(mapped[index], spec_pair), wrong(dst, input));
        });
}

struct WrongMonomialCase {
    int m = 0;
    int n = 0;
    int column = 0;
    std::string_view wrong;  ///< "pair", "aa" or "single"
    std::string_view failure;
};

// ProofFailure::to_string() of each case, recorded when the prover still
// compared every column against a fully built, sorted spec.
constexpr WrongMonomialCase kWrongMonomialCases[] = {
    {8, 2, 3, "pair",
     "c3 algebraic mismatch: residual=2 monomials, netlist=1 reference=0 for A=1, B=y^4 "
     "[repro: algebraic column=3]"},
    {8, 2, 3, "aa",
     "c3 algebraic mismatch: residual=2 monomials, netlist=1 reference=0 for A=y^2 + y, "
     "B=0 [repro: algebraic column=3]"},
    {8, 2, 3, "single",
     "c3 algebraic mismatch: residual=2 monomials, netlist=1 reference=0 for A=y, B=0 "
     "[repro: algebraic column=3]"},
    {64, 23, 30, "pair",
     "c30 algebraic mismatch: residual=2 monomials, netlist=1 reference=0 for A=1, B=y^31 "
     "[repro: algebraic column=30]"},
    {64, 23, 30, "aa",
     "c30 algebraic mismatch: residual=2 monomials, netlist=1 reference=0 for A=y^2 + y, "
     "B=0 [repro: algebraic column=30]"},
    {64, 23, 30, "single",
     "c30 algebraic mismatch: residual=2 monomials, netlist=1 reference=0 for A=y, B=0 "
     "[repro: algebraic column=30]"},
};

TEST(AcvProve, RejectsColumnWithSpecCountButOneWrongMonomial) {
    // A column check by monomial count alone would accept these: column k
    // trades its spec pair a_k*b_0 for a monomial outside the column, so it
    // holds exactly as many monomials as the spec.  The wrong monomial
    // sorts first in the residual, so the witness fires it.
    for (const auto& c : kWrongMonomialCases) {
        SCOPED_TRACE(std::to_string(c.m) + " " + std::string{c.wrong});
        const field::Field fld = field::Field::type2(c.m, c.n);
        const std::string next = "b" + std::to_string(c.column + 1);
        const auto nl = one_wrong_monomial(
            fld, c.column, c.column, 0, [&](netlist::Netlist& dst, const InputByName& input) {
                if (c.wrong == "pair") {
                    return dst.make_and(input("a0"), input(next));  // x^(k+1): column k+1
                }
                if (c.wrong == "aa") {
                    return dst.make_and(input("a1"), input("a2"));
                }
                return input("a1");
            });
        const auto failure = prove_multiplier(nl, fld, {.threads = 1});
        ASSERT_TRUE(failure.has_value());
        EXPECT_EQ(failure->to_string(), c.failure);
    }
}

TEST(AcvReverse, FinalColumnCheckRejectsAWrongPairTheRecoveryNeverReads) {
    // Column 1 trades a_2*b_(m-1) (x^(m+1) mod f has bit 1) for
    // a_3*b_(m-1) (x^(m+2) mod f has not).  Neither is a singleton pair, an
    // (a_i, b_0) pair or the wrap pair (a_1, b_(m-1)), so the ports and f are
    // still recovered and only the final check of every column rejects it.
    for (const auto& [m, n, reason] :
         {std::tuple{8, 2,
                     "not a GF(2^m) multiplier: the extracted ANF does not match C = A*B mod "
                     "y^8 + y^4 + y^3 + y^2 + 1"},
          std::tuple{64, 23,
                     "not a GF(2^m) multiplier: the extracted ANF does not match C = A*B mod "
                     "y^64 + y^25 + y^24 + y^23 + 1"}}) {
        const field::Field fld = field::Field::type2(m, n);
        const std::string top = "b" + std::to_string(m - 1);
        const auto nl = one_wrong_monomial(
            fld, 1, 2, m - 1, [&](netlist::Netlist& dst, const InputByName& input) {
                return dst.make_and(input("a3"), input(top));
            });
        const auto anon = anonymize_ports(nl, 5);
        const auto result = reverse_engineer(anon.netlist);
        EXPECT_FALSE(result.recovered);
        EXPECT_EQ(result.reason, reason) << "(" << m << "," << n << ")";
    }
}

TEST(AcvColumnChecker, ColumnsAreTheFieldProductsOfEveryTypeIIFieldUpTo16) {
    // Column k holds a_i*b_j exactly when y^i * y^j has coefficient k.  The
    // operand node ids interleave a and b, so bit order and id order differ.
    int fields = 0;
    for (int m = 2; m <= 16; ++m) {
        for (const int n : gf2::type2_irreducible_ns(m)) {
            SCOPED_TRACE("(" + std::to_string(m) + "," + std::to_string(n) + ")");
            const field::Field fld = field::Field::type2(m, n);
            std::vector<netlist::NodeId> a_nodes;
            std::vector<netlist::NodeId> b_nodes;
            for (int i = 0; i < m; ++i) {
                a_nodes.push_back(static_cast<netlist::NodeId>(2 * (m - 1 - i) + 1));
                b_nodes.push_back(static_cast<netlist::NodeId>(2 * i));
            }
            const ColumnChecker checker{fld.modulus(), a_nodes, b_nodes};
            std::size_t total = 0;
            for (int k = 0; k < m; ++k) {
                std::vector<Monomial> want;
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < m; ++j) {
                        if (fld.mul(gf2::Poly::monomial(i), gf2::Poly::monomial(j)).coeff(k)) {
                            want.push_back(Monomial::pair(a_nodes[static_cast<std::size_t>(i)],
                                                          b_nodes[static_cast<std::size_t>(j)]));
                        }
                    }
                }
                std::sort(want.begin(), want.end());
                EXPECT_EQ(checker.column(k), want) << "column " << k;
                EXPECT_TRUE(checker.matches(k, want)) << "column " << k;
                if (!want.empty()) {  // a proper subset is short of the count
                    EXPECT_FALSE(checker.matches(k, {want.data(), want.size() - 1}))
                        << "column " << k;
                }
                total += want.size();
            }
            EXPECT_EQ(checker.total_monomials(), total);
            ++fields;
        }
    }
    EXPECT_GT(fields, 0);
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

}  // namespace
}  // namespace gfr::acv
