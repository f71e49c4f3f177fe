// Determinism guarantees of the verification campaign.
//
// The whole point of the campaign design is that parallelism is invisible
// in the results: the verdict AND the counterexample are a pure function of
// (netlist, field, options), never of the thread count or the scheduler.
// Three pillars, each pinned here:
//
//   - shard-seed derivation: random sweep s draws its PRNG seed from
//     (options.seed, s) via Campaign::derive_sweep_seed.  Its values are
//     frozen — a logged counterexample's seed must replay forever;
//   - globally-first failure: the campaign returns the failure of the
//     lowest sweep index, which a 1-thread scan finds by construction, so
//     1 thread and N threads must report the identical VerifyFailure /
//     Mismatch;
//   - regime parity: exhaustive and random regimes both hold the guarantee.
//
// CounterexampleStringsPinned freezes the exact counterexample strings both
// checkers print for seeded single-gate mutants of every Table V family, so
// a refactor of the sweep driver cannot move one silently.

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/equivalence.h"
#include "netlist/simulate.h"
#include "verify/campaign.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace gfr::verify {
namespace {

TEST(SweepSeedDerivation, ValuesArePinned) {
    // Frozen constants: changing derive_sweep_seed silently invalidates
    // every previously logged counterexample seed.  Do not update these
    // without a migration story.
    EXPECT_EQ(Campaign::derive_sweep_seed(0xD1CEULL, 0), 0xC49EB8A07743C35CULL);
    EXPECT_EQ(Campaign::derive_sweep_seed(0xD1CEULL, 1), 0xC5FA5AE8A1E685A5ULL);
    EXPECT_EQ(Campaign::derive_sweep_seed(0xD1CEULL, 12345), 0xBB2D0A0B7690A450ULL);
    EXPECT_EQ(Campaign::derive_sweep_seed(0x5eed5eedULL, 0), 0x7035596C4E403667ULL);
    EXPECT_EQ(Campaign::derive_sweep_seed(0, 0), 0xE220A8397B1DCDAFULL);
}

TEST(SweepSeedDerivation, SweepsAreDecorrelated) {
    // Adjacent sweep seeds must not collide or correlate trivially: check
    // pairwise distinctness over a window (splitmix64 guarantees far more).
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < 512; ++s) {
        seeds.push_back(Campaign::derive_sweep_seed(0xD1CEULL, s));
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

/// Single-fault multiplier: one XOR leaf dropped from output c_target by
/// XOR-ing it back in (x ^ x = 0 would vanish; instead corrupt by adding an
/// unrelated input), deterministic per field.
netlist::Netlist faulted_multiplier(const field::Field& f, mult::Method method) {
    const auto good = mult::build_multiplier(method, f);
    const std::size_t target = static_cast<std::size_t>(f.degree()) / 2;
    return testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const netlist::NodeId> mapped,
            netlist::Netlist& dst) {
            return index == target ? dst.make_xor(mapped[index], dst.inputs()[1].node)
                                   : mapped[index];
        });
}

std::string failure_string(const std::optional<mult::VerifyFailure>& f) {
    return f.has_value() ? f->to_string() : std::string{};
}

TEST(VerifyDeterminism, ExhaustiveRegimeIdenticalAtEveryThreadCount) {
    const field::Field f = field::gf256_paper_field();
    const auto bad = faulted_multiplier(f, mult::Method::Imana2012);

    mult::VerifyOptions opts;
    opts.threads = 1;
    const auto reference = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(reference.has_value());

    for (const int threads : {2, 3, 4, 8}) {
        opts.threads = threads;
        const auto failure = mult::verify_multiplier(bad, f, opts);
        ASSERT_TRUE(failure.has_value()) << threads << " threads";
        EXPECT_EQ(failure_string(failure), failure_string(reference))
            << threads << " threads";
        EXPECT_EQ(failure->coefficient, reference->coefficient);
        EXPECT_EQ(failure->a, reference->a);
        EXPECT_EQ(failure->b, reference->b);
    }
}

TEST(VerifyDeterminism, RandomRegimeIdenticalAtEveryThreadCount) {
    const field::Field f = field::Field::type2(64, 23);
    const auto bad = faulted_multiplier(f, mult::Method::RashidiDirect);

    // The comparison below is only meaningful if the threaded runs really
    // shard: with the random-regime floor (4 sweeps per worker), the
    // default 64 sweeps at 8 threads must spread across 8 workers.  Pin
    // the engine math so this suite can never silently collapse into
    // serial-vs-serial.
    ASSERT_EQ((Campaign{{.threads = 8, .min_sweeps_per_worker = 4}}.worker_count(64)),
              8);

    mult::VerifyOptions opts;
    opts.seed = 0xC0FFEE;
    opts.threads = 1;
    const auto reference = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(reference.has_value());

    for (const int threads : {2, 4, 8}) {
        opts.threads = threads;
        const auto failure = mult::verify_multiplier(bad, f, opts);
        ASSERT_TRUE(failure.has_value()) << threads << " threads";
        EXPECT_EQ(failure_string(failure), failure_string(reference))
            << threads << " threads";
    }
}

TEST(VerifyDeterminism, MultiWordRandomRegimeIdenticalAtEveryThreadCount) {
    const field::Field f = field::Field::type2(113, 4);
    const auto bad = faulted_multiplier(f, mult::Method::Date2018Flat);

    mult::VerifyOptions opts;
    opts.seed = 0xDEAD;
    opts.random_sweeps = 8;
    opts.threads = 1;
    const auto reference = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(reference.has_value());

    opts.threads = 6;
    const auto failure = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure_string(failure), failure_string(reference));
}

TEST(VerifyDeterminism, SeedSelectsTheCounterexample) {
    // Different seeds may surface different counterexamples (random
    // regime); the same seed must always surface the same one.
    const field::Field f = field::Field::type2(64, 23);
    const auto bad = faulted_multiplier(f, mult::Method::SchoolReduce);

    mult::VerifyOptions opts;
    opts.seed = 1;
    const auto first = mult::verify_multiplier(bad, f, opts);
    const auto again = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(failure_string(first), failure_string(again));
}

TEST(EquivalenceDeterminism, MismatchIdenticalAtEveryThreadCount) {
    // 30 inputs -> random regime.  The missing 30th XOR leaf flips half of
    // all assignments; every thread count must report the same lane.
    netlist::Netlist lhs;
    netlist::Netlist rhs;
    std::vector<netlist::NodeId> li;
    std::vector<netlist::NodeId> ri;
    for (int i = 0; i < 30; ++i) {
        li.push_back(lhs.add_input("i" + std::to_string(i)));
        ri.push_back(rhs.add_input("i" + std::to_string(i)));
    }
    lhs.add_output("y", lhs.make_xor_tree(li, netlist::TreeShape::Balanced));
    rhs.add_output("y",
                   rhs.make_xor_tree(std::span{ri.data(), 29}, netlist::TreeShape::Chain));

    netlist::EquivalenceOptions opts;
    opts.threads = 1;
    const auto reference = netlist::check_equivalence(lhs, rhs, opts);
    ASSERT_TRUE(reference.has_value());

    for (const int threads : {2, 4, 8}) {
        opts.threads = threads;
        const auto mm = netlist::check_equivalence(lhs, rhs, opts);
        ASSERT_TRUE(mm.has_value()) << threads << " threads";
        EXPECT_EQ(mm->to_string(), reference->to_string()) << threads << " threads";
        EXPECT_EQ(mm->input_bits, reference->input_bits);
        EXPECT_EQ(mm->output_name, reference->output_name);
    }
}

TEST(EquivalenceDeterminism, ExhaustiveMismatchIdenticalAtEveryThreadCount) {
    // 16 inputs -> exhaustive regime sharded across workers.
    const field::Field f = field::gf256_paper_field();
    const auto lhs = mult::build_multiplier(mult::Method::Imana2016Paren, f);
    const auto rhs = faulted_multiplier(f, mult::Method::Imana2016Paren);

    netlist::EquivalenceOptions opts;
    opts.threads = 1;
    const auto reference = netlist::check_equivalence(lhs, rhs, opts);
    ASSERT_TRUE(reference.has_value());

    for (const int threads : {2, 4, 8}) {
        opts.threads = threads;
        const auto mm = netlist::check_equivalence(lhs, rhs, opts);
        ASSERT_TRUE(mm.has_value()) << threads << " threads";
        EXPECT_EQ(mm->to_string(), reference->to_string()) << threads << " threads";
    }
}

/// A seeded single-gate mutant of `nl`: the first And2 <-> Xor2 flip, at a
/// reachable gate drawn by `rng`, that the gate-by-gate interpreter shows
/// to change an output on 64 random lanes.
netlist::Netlist seeded_mutant(const netlist::Netlist& nl, testutil::Xorshift64Star& rng) {
    const auto reachable = nl.reachable_from_outputs();
    std::vector<netlist::NodeId> gates;
    for (netlist::NodeId id = 0; id < nl.node_count(); ++id) {
        const auto kind = nl.node(id).kind;
        if (reachable[id] &&
            (kind == netlist::GateKind::And2 || kind == netlist::GateKind::Xor2)) {
            gates.push_back(id);
        }
    }
    std::vector<std::uint64_t> in(nl.inputs().size());
    for (auto& word : in) {
        word = rng();
    }
    const auto want = netlist::simulate_interpreted(nl, in);
    for (int attempt = 0; attempt < 64; ++attempt) {
        const netlist::NodeId target = gates[rng() % gates.size()];
        auto mutant = testutil::clone_netlist(
            nl, [target](netlist::NodeId id, netlist::GateKind& kind, netlist::NodeId&,
                         netlist::NodeId&) {
                if (id == target) {
                    kind = kind == netlist::GateKind::And2 ? netlist::GateKind::Xor2
                                                           : netlist::GateKind::And2;
                }
            });
        if (netlist::simulate_interpreted(mutant, in) != want) {
            return mutant;
        }
    }
    ADD_FAILURE() << "no seeded flip changed an output";
    return nl;
}

void feed_string(testutil::Fingerprint& fp, const std::string& s) {
    fp.feed(s.size());
    for (const char c : s) {
        fp.feed(static_cast<unsigned char>(c));
    }
}

TEST(VerifyDeterminism, CounterexampleStringsPinned) {
    // Every Table V family plus the literal elaboration, at (8,2)
    // (exhaustive regime), (64,23) and (163,68) (random regime, one word
    // and three words), each with one seeded single-gate mutant.  Both
    // checkers' strings are pinned as one fingerprint per checker, and
    // must not move with the thread count or the batching width.
    std::vector<field::Field> fields;
    fields.reserve(3);
    for (const auto& [m, n] : {std::pair{8, 2}, std::pair{64, 23}, std::pair{163, 68}}) {
        fields.push_back(field::Field::type2(m, n));
    }
    struct Case {
        const field::Field* field;
        netlist::Netlist original;
        netlist::Netlist mutant;
    };
    std::vector<Case> cases;
    testutil::Xorshift64Star rng{0x57A1E5ULL};
    for (const field::Field& f : fields) {
        std::vector<netlist::Netlist> originals;
        for (const auto& info : mult::all_methods()) {
            if (info.in_table5) {
                originals.push_back(mult::build_multiplier(info.method, f));
            }
        }
        originals.push_back(mult::build_multiplier(mult::Method::Date2018Flat, f,
                                                   mult::Elaboration::Literal));
        for (auto& nl : originals) {
            auto mutant = seeded_mutant(nl, rng);
            cases.push_back({&f, std::move(nl), std::move(mutant)});
        }
    }
    ASSERT_EQ(cases.size(), 21U);

    for (const int threads : {1, 4}) {
        for (const int batch : {1, 16}) {
            mult::VerifyOptions opts;
            opts.threads = threads;
            opts.max_batch_blocks = batch;
            testutil::Fingerprint fp;
            for (const Case& c : cases) {
                const auto failure = mult::verify_multiplier(c.mutant, *c.field, opts);
                ASSERT_TRUE(failure.has_value());
                EXPECT_NE(failure->to_string().find(" [repro: "), std::string::npos);
                feed_string(fp, failure->to_string());
            }
            EXPECT_EQ(fp.value(), 0x89c11bf4c1c423a9ULL) << threads << " threads, batch " << batch;
        }
    }

    for (const int threads : {1, 4}) {
        netlist::EquivalenceOptions opts;
        opts.threads = threads;
        testutil::Fingerprint fp;
        for (const Case& c : cases) {
            const auto mm = netlist::check_equivalence(c.original, c.mutant, opts);
            ASSERT_TRUE(mm.has_value());
            EXPECT_NE(mm->to_string().find(" [repro: "), std::string::npos);
            feed_string(fp, mm->to_string());
        }
        EXPECT_EQ(fp.value(), 0x6f91ec595c14a8c2ULL) << threads << " threads";
    }
}

}  // namespace
}  // namespace gfr::verify
