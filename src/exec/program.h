#ifndef GFR_EXEC_PROGRAM_H
#define GFR_EXEC_PROGRAM_H

// Compiled netlist execution: one liveness-scheduled instruction tape behind
// every evaluation path in the repo.
//
// The interpretive simulators (netlist::Simulator pre-PR-4, the per-lane
// LutNetwork walk) re-decode the graph node-by-node over the *entire* node
// vector on every sweep: a working set of node_count words, a dispatch per
// gate, and a full-buffer clear per call.  Program::compile lowers an
// AND/XOR Netlist (or a mapped LutNetwork) once into a flat tape:
//
//   - DCE by construction: compilation schedules only logic reachable from
//     the outputs (dead gates never reach the tape);
//   - topological scheduling by depth-first post-order from the outputs, so
//     values are defined close to their uses — the precondition for tight
//     liveness;
//   - fused multi-input XOR: an XOR tree whose interior nodes have fanout 1
//     collapses into a single XOR-accumulate instruction over its leaves
//     (one dispatch instead of leaves-1), the dominant op shape in
//     Mastrovito-style multipliers;
//   - liveness-based slot allocation: a value's storage slot is recycled the
//     moment its last consumer has executed, so the execution working set is
//     the *maximum live width* of the schedule, not node_count — sweeps over
//     an m=163 multiplier run in a few KB instead of ~0.5 MB;
//   - bitsliced execution over 1..kMaxBlocks blocks of 64 lanes per pass
//     (up to 1024 test vectors per sweep step): every instruction processes
//     `blocks` words per slot, amortising tape decode across lanes
//     (verify::BlockSweep batches campaign blocks into such passes).  The
//     executor behind run() is runtime-dispatched (exec/run_kernels.h):
//     AVX-512 / AVX2 backends process a block group as 512- / 256-bit
//     vectors, and the scalar u64 loop remains the always-available
//     reference rung.
//
// A Program is immutable after compile and shares nothing mutable across
// calls: run() draws all storage from a caller-owned Scratch, following the
// FieldOps explicit-scratch discipline, so one Program may serve any number
// of campaign workers concurrently.
//
// The tape accepts any well-formed AND/XOR netlist, including fresh
// (non-interned) gates beside interned ones and fault-injected clones whose
// gates may carry duplicate operands (a tied fanin b == a compiles and runs
// like any other gate: XOR(a, a) = 0, AND(a, a) = a).

#include "fpga/lut_network.h"
#include "netlist/netlist.h"

#include <cstdint>
#include <span>
#include <vector>

namespace gfr::exec {

namespace detail {
struct Linker;  // compile-time helper (program.cpp) that assembles a Program
}

struct TapeView;                         // run_kernels.h: executor-facing tape
enum class Backend : std::uint8_t;       // run_kernels.h: executor ISA ladder

/// Tape opcodes.  And2/Xor2 are the binary fast cases; XorN is the fused
/// XOR-accumulate over arg_count leaves; AndXorN additionally inlines
/// single-use AND leaves as operand pairs (aux = pair count), so a whole
/// partial-product column runs as one instruction; Lut evaluates a K<=6
/// truth table bitsliced (Shannon mux fold, no per-lane work).
enum class Op : std::uint8_t { And2, Xor2, XorN, AndXorN, Lut };

/// Aggregate shape of a compiled tape (for tests, benches and reports).
struct ProgramStats {
    std::size_t instructions = 0;
    std::size_t n_and2 = 0;
    std::size_t n_xor2 = 0;
    std::size_t n_xorn = 0;      ///< fused XOR-accumulate instructions
    std::size_t n_andxor = 0;    ///< fused AND-XOR-accumulate instructions
    std::size_t fused_ands = 0;  ///< AND gates inlined into AndXorN pairs
    std::size_t n_lut = 0;
    std::size_t total_args = 0;  ///< sum of arg_count over the tape
    std::size_t source_nodes = 0;  ///< nodes/luts in the source graph
    std::uint32_t slots = 0;     ///< max live width (execution working set)
};

class Program {
public:
    /// Blocks of 64 lanes a single pass may carry (1024 lanes per sweep):
    /// two full ZMM vectors per word-op for the AVX-512 backend, four YMM
    /// for AVX2, and 4x less tape-decode overhead per lane than the PR-4
    /// width of 4 even on the scalar rung.
    static constexpr int kMaxBlocks = 16;

    /// One tape instruction.  args_[arg_begin .. arg_begin+arg_count) are
    /// the operand slots; aux indexes truths_ for Op::Lut.
    struct Insn {
        Op op = Op::Xor2;
        std::uint32_t dst = 0;
        std::uint32_t arg_begin = 0;
        std::uint32_t arg_count = 0;
        std::uint32_t aux = 0;
    };

    /// Compile the logic reachable from nl's outputs.  The tape evaluates
    /// exactly nl's input/output interface (inputs() / outputs() order).
    static Program compile(const netlist::Netlist& nl);

    /// Compile a mapped LUT network.  LUTs whose truth table is a pure AND /
    /// XOR / parity of their fanins lower to And2/Xor2/XorN; the rest become
    /// bitsliced Op::Lut evaluations.
    static Program compile(const fpga::LutNetwork& net);

    /// Caller-owned working memory for run(): a 64-byte-aligned slot arena
    /// (vector backends load/store whole YMM/ZMM words per slot).  Reused
    /// allocation-free across calls once sized — ensure() only touches the
    /// backing vector when capacity grows.
    class Scratch {
    public:
        /// Grow the arena to hold at least `words` u64 words, 64-byte
        /// aligned.  No-op (and allocation-free) when capacity suffices.
        void ensure(std::size_t words);

        /// Arena base; valid until the next growing ensure().
        [[nodiscard]] std::uint64_t* data() noexcept { return aligned_; }
        [[nodiscard]] std::size_t size() const noexcept { return words_; }

    private:
        std::vector<std::uint64_t> storage_;  ///< over-allocated for alignment
        std::uint64_t* aligned_ = nullptr;
        std::size_t words_ = 0;
    };

    /// Execute the tape over `blocks` blocks of 64 lanes (block-major
    /// layout: input i of block b at in[b * input_count() + i], output o of
    /// block b at out[b * output_count() + o]).  Requires
    /// in.size() == input_count() * blocks and out.size() ==
    /// output_count() * blocks; throws std::invalid_argument otherwise.
    /// Runs on the process-wide dispatched backend (exec::dispatch());
    /// results are bit-identical across backends and block widths.
    void run(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
             Scratch& scratch, int blocks = 1) const;

    /// As above on an explicitly chosen backend, bypassing the process-wide
    /// dispatch (differential tests, guard self-tests, bench ladders).
    /// Throws std::invalid_argument when that backend is not compiled in or
    /// not supported by the running CPU.
    void run(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
             Scratch& scratch, int blocks, Backend backend) const;

    /// The executor-facing flattening of this tape (exec/run_kernels.h).
    [[nodiscard]] TapeView tape_view() const noexcept;

    [[nodiscard]] int input_count() const noexcept { return n_inputs_; }
    [[nodiscard]] int output_count() const noexcept { return n_outputs_; }

    /// Slots run() touches per block — the max live width of the schedule.
    [[nodiscard]] std::uint32_t slot_count() const noexcept { return slot_count_; }

    [[nodiscard]] std::size_t instruction_count() const noexcept {
        return insns_.size();
    }

    /// The compiled tape and its operand-slot pool, read-only (tests and
    /// tooling).  Operand lists of commutative instructions are sorted by
    /// slot index at compile time (AndXorN: pairs first, ordered by key;
    /// singles after, ascending); Lut operand order indexes the truth table.
    [[nodiscard]] std::span<const Insn> instructions() const noexcept {
        return insns_;
    }
    [[nodiscard]] std::span<const std::uint32_t> args() const noexcept {
        return args_;
    }

    [[nodiscard]] ProgramStats stats() const;

private:
    friend struct detail::Linker;

    int n_inputs_ = 0;
    int n_outputs_ = 0;
    std::uint32_t slot_count_ = 0;
    bool uses_zero_slot_ = false;  ///< slot 0 pinned to constant 0
    std::size_t source_nodes_ = 0;
    std::vector<Insn> insns_;
    std::vector<std::uint32_t> args_;
    std::vector<std::uint64_t> truths_;
    /// (input index, slot) for every input the tape actually reads.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> input_loads_;
    std::vector<std::uint32_t> output_slots_;
};

}  // namespace gfr::exec

#endif  // GFR_EXEC_PROGRAM_H
