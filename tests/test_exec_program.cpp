// Differential tier for the compiled execution layer (exec::Program).
//
// The compiled tape replaced the node-by-node interpreter under every
// evaluation path in the repo, so its correctness claim is load-bearing:
// here it is checked against two structurally independent references —
//
//   - simulate_interpreted(): the original gate-by-gate interpreter, which
//     shares no code with the compiler (no DCE, no fusion, no slots);
//   - verify::LaneReference: the bitsliced lane-major reference multiplier,
//     derived only from the reduction matrix;
//
// across every generator family x every Table V field (random sweeps), the
// exhaustive GF(2^8) space, all block widths 1..kMaxBlocks, LUT-network
// compilation, and the compiler's structural guarantees (DCE, fusion,
// liveness width, allocation-free steady state).  Backend-vs-backend
// differentials (scalar vs AVX2/AVX-512) live in test_exec_backends.cpp.

#include "exec/program.h"
#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/simulate.h"
#include "verify/lane_reference.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gfr::exec {
namespace {

using netlist::Netlist;
using testutil::Xorshift64Star;

/// Fills `in` (block-major, `blocks` x n words) from the shared PRNG.
void fill_random(std::vector<std::uint64_t>& in, Xorshift64Star& rng) {
    for (auto& w : in) {
        w = rng.next();
    }
}

/// Runs `prog` over `blocks` and checks each block against the interpreter.
void expect_matches_interpreter(const Program& prog, const Netlist& nl,
                                std::span<const std::uint64_t> in, int blocks,
                                Program::Scratch& scratch, const std::string& what) {
    const std::size_t n_in = nl.inputs().size();
    const std::size_t n_out = nl.outputs().size();
    std::vector<std::uint64_t> out(n_out * static_cast<std::size_t>(blocks), 0);
    prog.run(in, out, scratch, blocks);
    for (int b = 0; b < blocks; ++b) {
        const auto ref = netlist::simulate_interpreted(
            nl, in.subspan(static_cast<std::size_t>(b) * n_in, n_in));
        for (std::size_t o = 0; o < n_out; ++o) {
            ASSERT_EQ(out[static_cast<std::size_t>(b) * n_out + o], ref[o])
                << what << ": block " << b << " output " << o;
        }
    }
}

TEST(ExecProgram, AllFamiliesAllTable5FieldsMatchInterpreterAndLaneReference) {
    // Every generator family x every Table V field: compiled tape vs the
    // gate-by-gate interpreter (word-exact over 64 lanes) and, for the
    // multiplier interface, vs the lane-major reference oracle.
    Xorshift64Star rng{0xE8EC5EEDULL};
    testutil::for_each_table5_field([&](const auto& spec, const field::Field& f) {
        const int m = f.degree();
        const verify::LaneReference laneref{f};
        verify::LaneReference::Scratch lane_scratch;
        std::vector<std::uint64_t> want;
        for (const auto& info : mult::all_methods()) {
            const auto nl = mult::build_multiplier(info.method, f);
            const Program prog = Program::compile(nl);
            Program::Scratch scratch;
            std::vector<std::uint64_t> in(2 * static_cast<std::size_t>(m), 0);
            std::vector<std::uint64_t> out(static_cast<std::size_t>(m), 0);
            const std::string what =
                std::string{info.key} + " / " + spec.label();
            for (int sweep = 0; sweep < 3; ++sweep) {
                fill_random(in, rng);
                expect_matches_interpreter(prog, nl, in, 1, scratch, what);
                // Lane-major oracle agrees with the netlist on every word.
                prog.run(in, out, scratch, 1);
                laneref.products(in, want, lane_scratch);
                for (int k = 0; k < m; ++k) {
                    ASSERT_EQ(out[static_cast<std::size_t>(k)],
                              want[static_cast<std::size_t>(k)])
                        << what << ": coefficient " << k;
                }
            }
        }
    });
}

TEST(ExecProgram, ExhaustiveGf256EveryFamilyEveryBlockWidth) {
    // The full 2^16 operand space of the paper's worked field, swept with
    // full-width passes (1024 lanes each): compiled tape vs interpreter vs
    // lane reference on all 65536 products, for every generator family.
    const field::Field f = field::gf256_paper_field();
    const verify::LaneReference laneref{f};
    verify::LaneReference::Scratch lane_scratch;
    std::vector<std::uint64_t> want;
    for (const auto& info : mult::all_methods()) {
        const auto nl = mult::build_multiplier(info.method, f);
        const Program prog = Program::compile(nl);
        Program::Scratch scratch;
        constexpr int kBlocks = Program::kMaxBlocks;
        static_assert(1024 % kBlocks == 0);
        const std::size_t n_in = 16;
        const std::size_t n_out = 8;
        std::vector<std::uint64_t> in(n_in * kBlocks, 0);
        std::vector<std::uint64_t> out(n_out * kBlocks, 0);
        for (std::uint64_t base = 0; base < 1024; base += kBlocks) {
            for (int b = 0; b < kBlocks; ++b) {
                for (std::size_t i = 0; i < n_in; ++i) {
                    in[static_cast<std::size_t>(b) * n_in + i] =
                        netlist::exhaustive_pattern(static_cast<int>(i),
                                                    base + static_cast<std::uint64_t>(b));
                }
            }
            prog.run(in, out, scratch, kBlocks);
            for (int b = 0; b < kBlocks; ++b) {
                const auto in_b =
                    std::span{in}.subspan(static_cast<std::size_t>(b) * n_in, n_in);
                const auto ref = netlist::simulate_interpreted(nl, in_b);
                laneref.products(in_b, want, lane_scratch);
                for (std::size_t o = 0; o < n_out; ++o) {
                    const std::uint64_t got =
                        out[static_cast<std::size_t>(b) * n_out + o];
                    ASSERT_EQ(got, ref[o]) << info.key << " block " << base + b;
                    ASSERT_EQ(got, want[o]) << info.key << " block " << base + b;
                }
            }
        }
    }
}

TEST(ExecProgram, BlockWidthsAgreeWithSingleBlockRuns) {
    // One 4-block pass must equal four 1-block runs on the same vectors —
    // the property the exhaustive campaign regimes lean on.
    Xorshift64Star rng{0xB10C5ULL};
    const field::Field f = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const Program prog = Program::compile(nl);
    Program::Scratch scratch;
    const std::size_t n_in = nl.inputs().size();
    const std::size_t n_out = nl.outputs().size();
    for (int blocks = 2; blocks <= Program::kMaxBlocks; ++blocks) {
        std::vector<std::uint64_t> in(n_in * static_cast<std::size_t>(blocks));
        fill_random(in, rng);
        std::vector<std::uint64_t> grouped(n_out * static_cast<std::size_t>(blocks));
        prog.run(in, grouped, scratch, blocks);
        for (int b = 0; b < blocks; ++b) {
            std::vector<std::uint64_t> single(n_out);
            prog.run(std::span{in}.subspan(static_cast<std::size_t>(b) * n_in, n_in),
                     single, scratch, 1);
            for (std::size_t o = 0; o < n_out; ++o) {
                EXPECT_EQ(grouped[static_cast<std::size_t>(b) * n_out + o], single[o])
                    << "blocks=" << blocks << " b=" << b << " o=" << o;
            }
        }
    }
}

TEST(ExecProgram, LutNetworkTapeMatchesNetlistFunction) {
    // Compile the mapped LUT network of a full flow and check the LUT tape
    // against the gate-level interpreter of the source netlist.
    Xorshift64Star rng{0x1A7E57ULL};
    for (const auto spec : {field::FieldSpec{8, 2, ""}, field::FieldSpec{64, 23, ""}}) {
        const field::Field f = spec.make();
        const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, f);
        fpga::FlowOptions opts;
        opts.synthesis_freedom = true;
        const auto flow = fpga::run_flow(nl, opts);
        const Program prog = Program::compile(flow.network);
        EXPECT_EQ(prog.input_count(), flow.network.input_count());
        EXPECT_EQ(prog.output_count(), static_cast<int>(flow.network.outputs.size()));
        // Parity cones lower to fused XORs, not per-minterm LUT folds.
        const auto stats = prog.stats();
        EXPECT_GT(stats.n_xor2 + stats.n_xorn + stats.n_andxor, 0U);
        Program::Scratch scratch;
        const std::size_t n_in = nl.inputs().size();
        const std::size_t n_out = nl.outputs().size();
        // Every block width: LUT opcodes (Shannon folds included) must hold
        // their block-indexed buffer arithmetic at B > 1 too.
        for (int blocks = 1; blocks <= Program::kMaxBlocks; ++blocks) {
            std::vector<std::uint64_t> in(n_in * static_cast<std::size_t>(blocks));
            std::vector<std::uint64_t> out(n_out * static_cast<std::size_t>(blocks));
            fill_random(in, rng);
            prog.run(in, out, scratch, blocks);
            for (int b = 0; b < blocks; ++b) {
                const auto ref = netlist::simulate_interpreted(
                    nl, std::span{in}.subspan(static_cast<std::size_t>(b) * n_in, n_in));
                for (std::size_t o = 0; o < n_out; ++o) {
                    ASSERT_EQ(out[static_cast<std::size_t>(b) * n_out + o], ref[o])
                        << spec.label() << " blocks=" << blocks << " output " << o;
                }
            }
        }
    }
}

TEST(ExecProgram, GeneralLutConesEvaluateBitsliced) {
    // A hand-built network whose truth tables are neither parity nor AND
    // (majority, an inverted cone, a constant-1 LUT, a const-0 fanin)
    // exercises the Shannon mux fold paths.
    fpga::LutNetwork net;
    net.input_names = {"a", "b", "c"};
    fpga::LutNetwork::Lut maj;
    maj.fanins = {0, 1, 2};
    maj.truth = 0xE8;  // majority(a, b, c)
    net.luts.push_back(maj);
    fpga::LutNetwork::Lut inv;
    inv.fanins = {3};
    inv.truth = 0x1;  // NOT lut0
    net.luts.push_back(inv);
    fpga::LutNetwork::Lut one;
    one.truth = 0x1;  // constant 1, no fanins
    net.luts.push_back(one);
    fpga::LutNetwork::Lut zero_mix;
    zero_mix.fanins = {fpga::LutNetwork::kConst0Ref, 0};
    zero_mix.truth = 0x6;  // XOR(const0, a) == a
    net.luts.push_back(zero_mix);
    net.outputs = {{"m", 3}, {"nm", 4}, {"one", 5}, {"za", 6}};

    const Program prog = Program::compile(net);
    Program::Scratch scratch;
    std::vector<std::uint64_t> in = {0xF0F0F0F0F0F0F0F0ULL, 0xCCCCCCCCCCCCCCCCULL,
                                     0xAAAAAAAAAAAAAAAAULL};
    std::vector<std::uint64_t> out(4, 0);
    prog.run(in, out, scratch, 1);
    // The same general cones at every block width: block b of a grouped
    // pass must equal a fresh single-block run on block b's inputs.
    for (int blocks = 2; blocks <= Program::kMaxBlocks; ++blocks) {
        std::vector<std::uint64_t> in_blocks;
        for (int b = 0; b < blocks; ++b) {
            for (const std::uint64_t w : in) {
                in_blocks.push_back(w + 0x9E3779B97F4A7C15ULL * static_cast<unsigned>(b));
            }
        }
        std::vector<std::uint64_t> out_blocks(4U * static_cast<std::size_t>(blocks));
        prog.run(in_blocks, out_blocks, scratch, blocks);
        for (int b = 0; b < blocks; ++b) {
            std::vector<std::uint64_t> single(4, 0);
            prog.run(std::span{in_blocks}.subspan(static_cast<std::size_t>(b) * 3, 3),
                     single, scratch, 1);
            for (std::size_t o = 0; o < 4; ++o) {
                ASSERT_EQ(out_blocks[static_cast<std::size_t>(b) * 4 + o], single[o])
                    << "blocks=" << blocks << " b=" << b << " o=" << o;
            }
        }
    }

    const auto ref = net.simulate(in);  // itself compiled, but independently
    for (int lane = 0; lane < 64; ++lane) {
        const int a = (in[0] >> lane) & 1;
        const int b = (in[1] >> lane) & 1;
        const int c = (in[2] >> lane) & 1;
        const int m = (a + b + c >= 2) ? 1 : 0;
        ASSERT_EQ(static_cast<int>((out[0] >> lane) & 1), m) << "lane " << lane;
        ASSERT_EQ(static_cast<int>((out[1] >> lane) & 1), 1 - m) << "lane " << lane;
        ASSERT_EQ(static_cast<int>((out[2] >> lane) & 1), 1) << "lane " << lane;
        ASSERT_EQ(static_cast<int>((out[3] >> lane) & 1), a) << "lane " << lane;
    }
    EXPECT_EQ(out, ref);
}

TEST(ExecProgram, DeadLogicNeverReachesTheTape) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto c = nl.add_input("c");  // dead input
    const auto live = nl.make_and(a, b);
    nl.make_xor(nl.make_and(a, c), b);  // dead cone
    nl.add_output("y", live);
    const Program prog = Program::compile(nl);
    const auto stats = prog.stats();
    EXPECT_EQ(stats.instructions, 1U);
    EXPECT_EQ(stats.n_and2, 1U);
    // The dead input is never even loaded; dead cone gates are absent.
    Program::Scratch scratch;
    std::vector<std::uint64_t> out(1);
    prog.run(std::vector<std::uint64_t>{0xFF, 0x0F, 0x123}, out, scratch, 1);
    EXPECT_EQ(out[0], 0x0FULL);
}

TEST(ExecProgram, XorChainFusesToOneInstruction) {
    // A 32-leaf XOR chain (every interior node fanout 1) must compile to a
    // single fused accumulate, not 31 dispatches; with AND leaves of fanout
    // 1 it becomes one AndXorN covering the whole product column.
    Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 32; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("chain", nl.make_xor_tree(leaves, netlist::TreeShape::Chain));
    const Program prog = Program::compile(nl);
    const auto stats = prog.stats();
    EXPECT_EQ(stats.instructions, 1U);
    EXPECT_EQ(stats.n_xorn, 1U);
    EXPECT_EQ(stats.total_args, 32U);

    Netlist nl2;
    std::vector<netlist::NodeId> products;
    for (int i = 0; i < 8; ++i) {
        const auto x = nl2.add_input("x" + std::to_string(i));
        const auto y = nl2.add_input("y" + std::to_string(i));
        products.push_back(nl2.make_and(x, y));
    }
    nl2.add_output("acc", nl2.make_xor_tree(products, netlist::TreeShape::Balanced));
    const Program prog2 = Program::compile(nl2);
    const auto stats2 = prog2.stats();
    EXPECT_EQ(stats2.instructions, 1U);
    EXPECT_EQ(stats2.n_andxor, 1U);
    EXPECT_EQ(stats2.fused_ands, 8U);
}

TEST(ExecProgram, OperandListsSortedBySlotIndex) {
    // Compile-time operand scheduling: commutative instructions list their
    // operand slots in ascending order (AndXorN: each pair low-high, pairs
    // ordered by key, singles sorted after the pairs), so tape execution
    // scans the slot file mostly forward.  Checked on a real Mastrovito
    // tape, whose fused columns carry the long operand lists.
    const field::Field f = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const Program prog = Program::compile(nl);
    const auto args = prog.args();
    std::size_t checked_xorn = 0;
    std::size_t checked_pairs = 0;
    for (const auto& insn : prog.instructions()) {
        const auto* a = args.data() + insn.arg_begin;
        switch (insn.op) {
            case Op::And2:
            case Op::Xor2:
                ASSERT_LE(a[0], a[1]);
                break;
            case Op::XorN:
                for (std::uint32_t i = 1; i < insn.arg_count; ++i) {
                    ASSERT_LE(a[i - 1], a[i]) << "XorN operand order";
                }
                ++checked_xorn;
                break;
            case Op::AndXorN: {
                const std::uint32_t np = insn.aux;
                for (std::uint32_t q = 0; q < np; ++q) {
                    ASSERT_LE(a[2 * q], a[2 * q + 1]) << "pair internal order";
                    if (q > 0) {
                        const auto prev = std::make_pair(a[2 * q - 2], a[2 * q - 1]);
                        const auto cur = std::make_pair(a[2 * q], a[2 * q + 1]);
                        ASSERT_LE(prev, cur) << "pair key order";
                    }
                    ++checked_pairs;
                }
                for (std::uint32_t i = 2 * np + 1; i < insn.arg_count; ++i) {
                    ASSERT_LE(a[i - 1], a[i]) << "single operand order";
                }
                break;
            }
            case Op::Lut:
                break;  // operand order indexes the truth table — never sorted
        }
    }
    // The m=64 flat multiplier must actually exercise the sorted shapes.
    EXPECT_GT(checked_xorn, 0U);
    EXPECT_GT(checked_pairs, 1000U);
}

TEST(ExecProgram, CompileIsDeterministic) {
    // Two compiles of the same netlist produce bit-identical tapes (insn
    // stream and operand pool) — the determinism the verification campaign
    // relies on when workers share one Program, pinned here so operand
    // sorting (or any future scheduling change) can never introduce
    // run-to-run variation.
    const field::Field f = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const Program p1 = Program::compile(nl);
    const Program p2 = Program::compile(nl);
    ASSERT_EQ(p1.instruction_count(), p2.instruction_count());
    const auto i1 = p1.instructions();
    const auto i2 = p2.instructions();
    for (std::size_t k = 0; k < i1.size(); ++k) {
        ASSERT_EQ(i1[k].op, i2[k].op);
        ASSERT_EQ(i1[k].dst, i2[k].dst);
        ASSERT_EQ(i1[k].arg_begin, i2[k].arg_begin);
        ASSERT_EQ(i1[k].arg_count, i2[k].arg_count);
        ASSERT_EQ(i1[k].aux, i2[k].aux);
    }
    const auto a1 = p1.args();
    const auto a2 = p2.args();
    ASSERT_EQ(a1.size(), a2.size());
    for (std::size_t k = 0; k < a1.size(); ++k) {
        ASSERT_EQ(a1[k], a2[k]);
    }
}

TEST(ExecProgram, LivenessKeepsWorkingSetFarBelowNodeCount) {
    // The whole point of slot allocation: the m=64 flat multiplier has
    // thousands of nodes but executes in a working set orders of magnitude
    // smaller.
    const field::Field f = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const Program prog = Program::compile(nl);
    const auto stats = prog.stats();
    EXPECT_GT(stats.source_nodes, 8000U);
    EXPECT_LT(stats.slots, stats.source_nodes / 10);
    EXPECT_LT(stats.instructions, stats.source_nodes / 4);  // fusion collapsed it
}

TEST(ExecProgram, SteadyStateRunsAreAllocationFree) {
    const field::Field f = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Imana2016Paren, f);
    const Program prog = Program::compile(nl);
    Program::Scratch scratch;
    std::vector<std::uint64_t> in(16, 0x5A5A5A5A5A5A5A5AULL);
    std::vector<std::uint64_t> out(8, 0);
    prog.run(in, out, scratch, 1);  // warm: scratch sized, buffers sized
    testutil::AllocationGuard guard;
    for (int sweep = 0; sweep < 64; ++sweep) {
        in[0] ^= static_cast<std::uint64_t>(sweep);
        prog.run(in, out, scratch, 1);
    }
    EXPECT_EQ(guard.delta(), 0);
}

TEST(ExecProgram, OutputAliasesAndConstants) {
    // Outputs may alias inputs or the constant; an input may drive several
    // outputs; all without emitting instructions.
    Netlist nl;
    const auto a = nl.add_input("a");
    nl.add_output("same", a);
    nl.add_output("again", a);
    nl.add_output("zero", nl.const0());
    const Program prog = Program::compile(nl);
    EXPECT_EQ(prog.instruction_count(), 0U);
    Program::Scratch scratch;
    std::vector<std::uint64_t> out(3, ~0ULL);
    prog.run(std::vector<std::uint64_t>{0xABCDULL}, out, scratch, 1);
    EXPECT_EQ(out[0], 0xABCDULL);
    EXPECT_EQ(out[1], 0xABCDULL);
    EXPECT_EQ(out[2], 0ULL);
}

/// EXPECT_THROW with the exact what() string (test_region_errors.cpp style).
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& message) {
    try {
        fn();
        ADD_FAILURE() << "expected std::invalid_argument: " << message;
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}, message);
    }
}

TEST(ExecProgram, RunValidatesShapes) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.make_xor(a, b));
    const Program prog = Program::compile(nl);
    Program::Scratch scratch;
    std::vector<std::uint64_t> out(1);
    EXPECT_THROW(prog.run(std::vector<std::uint64_t>{1}, out, scratch, 1),
                 std::invalid_argument);
    EXPECT_THROW(prog.run(std::vector<std::uint64_t>{1, 2}, out, scratch, 0),
                 std::invalid_argument);
    EXPECT_THROW(
        prog.run(std::vector<std::uint64_t>{1, 2}, out, scratch,
                 Program::kMaxBlocks + 1),
        std::invalid_argument);
    std::vector<std::uint64_t> out_bad(3);
    EXPECT_THROW(prog.run(std::vector<std::uint64_t>{1, 2}, out_bad, scratch, 1),
                 std::invalid_argument);
}

TEST(ExecProgram, RunPreconditionMessagesArePinned) {
    // The exact what() strings of every run() precondition: the blocks
    // range must state the widened maximum, and the shape messages must not
    // drift — campaign drivers log them verbatim.
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.make_xor(a, b));
    const Program prog = Program::compile(nl);
    Program::Scratch scratch;
    std::vector<std::uint64_t> in(2);
    std::vector<std::uint64_t> out(1);
    expect_invalid([&] { prog.run(in, out, scratch, 0); },
                   "exec::Program::run: blocks must be in [1, 16]");
    expect_invalid([&] { prog.run(in, out, scratch, Program::kMaxBlocks + 1); },
                   "exec::Program::run: blocks must be in [1, 16]");
    std::vector<std::uint64_t> in_bad(3);
    expect_invalid([&] { prog.run(in_bad, out, scratch, 1); },
                   "exec::Program::run: wrong number of input words");
    std::vector<std::uint64_t> out_bad(3);
    expect_invalid([&] { prog.run(in, out_bad, scratch, 1); },
                   "exec::Program::run: wrong number of output words");
    // The explicit-backend overload validates availability first; blocks
    // beyond kMaxBlocks were valid on no backend, so the widened range is
    // accepted by every compiled one (run shapes checked in
    // test_exec_backends.cpp).
}

/// Two inputs and one XOR LUT driving output "y".
fpga::LutNetwork xor_lut_network() {
    fpga::LutNetwork net;
    net.input_names = {"a", "b"};
    fpga::LutNetwork::Lut x;
    x.fanins = {0, 1};
    x.truth = 0x6;
    net.luts.push_back(x);
    net.outputs = {{"y", 2}};
    return net;
}

TEST(ExecProgram, LutFaninsMustBeEarlierRefs) {
    // A LUT may read the constant, an input or an earlier LUT only.  A ref
    // to itself or a later LUT (which could close a cycle), past the end,
    // or below kConst0Ref is rejected before scheduling, and
    // LutNetwork::simulate inherits the check.
    const std::string message =
        "exec::Program: LUT fanin must be kConst0Ref or an earlier input or LUT";
    for (const std::int32_t ref : {2, 3, 1000, -2}) {
        SCOPED_TRACE("fanin ref " + std::to_string(ref));
        fpga::LutNetwork net = xor_lut_network();
        net.luts[0].fanins[1] = ref;
        expect_invalid([&] { static_cast<void>(Program::compile(net)); }, message);
    }
    // Two LUTs reading each other.
    fpga::LutNetwork cycle = xor_lut_network();
    cycle.luts[0].fanins = {0, 3};
    fpga::LutNetwork::Lut back;
    back.fanins = {2};
    back.truth = 0x2;
    cycle.luts.push_back(back);
    expect_invalid([&] { static_cast<void>(Program::compile(cycle)); }, message);
    expect_invalid([&] { static_cast<void>(cycle.simulate(std::vector<std::uint64_t>{1, 2})); },
                   message);
}

TEST(ExecProgram, LutOutputRefsMustNameAValue) {
    const std::string message =
        "exec::Program: output ref must be kConst0Ref or an input or LUT";
    for (const std::int32_t ref : {3, 1000, -2}) {
        SCOPED_TRACE("output ref " + std::to_string(ref));
        fpga::LutNetwork net = xor_lut_network();
        net.outputs[0].second = ref;
        expect_invalid([&] { static_cast<void>(Program::compile(net)); }, message);
    }
    // The constant and every input or LUT are legal outputs.
    fpga::LutNetwork net = xor_lut_network();
    net.outputs = {{"zero", fpga::LutNetwork::kConst0Ref}, {"a", 0}, {"y", 2}};
    EXPECT_EQ(net.simulate(std::vector<std::uint64_t>{0xF0, 0x3C}),
              (std::vector<std::uint64_t>{0, 0xF0, 0xCC}));
}

TEST(ExecProgram, CompileAllocatesABoundedNumberOfTimes) {
    // Compilation keeps flat per-node arrays and one operand pool, so its
    // allocation count does not grow with the gate count.
    const field::Field f = field::Field::type2(163, 68);
    for (const auto elaboration : {mult::Elaboration::Shared, mult::Elaboration::Literal}) {
        const auto nl =
            mult::build_multiplier(mult::Method::Date2018Flat, f, elaboration);
        const testutil::AllocationGuard guard;
        const Program prog = Program::compile(nl);
        EXPECT_LE(guard.delta(), 256)
            << (elaboration == mult::Elaboration::Shared ? "Shared" : "Literal");
        EXPECT_GT(prog.instruction_count(), 0U);
    }
}

TEST(ExecProgram, CompiledCampaignMatchesAcrossThreadCounts) {
    // The compiled verify path must report the same verdict and
    // counterexample at any thread count — exercised here so the TSan job
    // chews on the threaded tape execution too.
    const field::Field f = field::Field::type2(113, 4);
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const auto bad = testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const netlist::NodeId> mapped,
            Netlist& dst) {
            return index == 56 ? dst.make_xor(mapped[index], dst.inputs()[3].node)
                               : mapped[index];
        });

    mult::VerifyOptions lane_opts;
    lane_opts.threads = 1;
    lane_opts.random_sweeps = 8;
    const auto reference = mult::verify_multiplier(bad, f, lane_opts);
    ASSERT_TRUE(reference.has_value());
    EXPECT_FALSE(mult::verify_multiplier(good, f, lane_opts).has_value());

    for (int threads : {2, 4}) {
        mult::VerifyOptions opts = lane_opts;
        opts.threads = threads;
        const auto failure = mult::verify_multiplier(bad, f, opts);
        ASSERT_TRUE(failure.has_value()) << threads << " threads";
        EXPECT_EQ(failure->to_string(), reference->to_string())
            << threads << " threads";
    }
}

}  // namespace
}  // namespace gfr::exec
