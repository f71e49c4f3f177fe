#include "exec/program.h"

#include "bulk/cpu.h"
#include "exec/run_kernels.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace gfr::exec {

namespace {

constexpr std::uint32_t kNoValue = std::numeric_limits<std::uint32_t>::max();
constexpr std::int64_t kNeverUsed = -1;
constexpr std::int64_t kFreed = -2;

/// One scheduled definition, still in value-id space (slots come later).
/// Its operands are the value ids args[arg_begin, arg_begin + arg_count) of
/// the Builder's operand pool.
struct ValueDef {
    Op op = Op::Xor2;
    std::uint32_t value = 0;  ///< value id this instruction defines
    std::uint32_t aux = 0;    ///< Op::AndXorN: pair count
    std::uint32_t arg_begin = 0;
    std::uint32_t arg_count = 0;
    std::uint64_t truth = 0;  ///< Op::Lut only
};

/// Compile-time intermediate shared by both front ends: a post-order
/// schedule over a dense value-id space, one operand pool for all of its
/// definitions, plus the interface bindings.
struct Builder {
    std::size_t n_values = 0;
    std::vector<ValueDef> sched;
    std::vector<std::uint32_t> args;  ///< operand pool, value ids
    /// (input index, value id) for every primary input, in interface order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> inputs;
    std::vector<std::uint32_t> outputs;  ///< value id per output port
    std::uint32_t zero_value = kNoValue;
    int n_inputs_total = 0;
    int n_outputs_total = 0;

    [[nodiscard]] std::span<const std::uint32_t> operands(const ValueDef& def) const {
        return {args.data() + def.arg_begin, def.arg_count};
    }
};

/// Iterative depth-first post-order from the outputs: values are scheduled
/// immediately before their first consumer's subtree completes, which keeps
/// live ranges short.  `deps` maps a value id to its operand value ids
/// (empty for sources), `emit` is called once per value in schedule order.
template <typename DepsFn, typename EmitFn>
void schedule_post_order(std::size_t n_values, std::span<const std::uint32_t> roots,
                         const DepsFn& deps, const EmitFn& emit) {
    std::vector<std::uint8_t> state(n_values, 0);  // 0 new, 1 open, 2 done
    struct Frame {
        std::uint32_t value;
        std::size_t next_dep;
    };
    std::vector<Frame> stack;
    for (const std::uint32_t root : roots) {
        if (state[root] == 2) {
            continue;
        }
        stack.push_back({root, 0});
        state[root] = 1;
        while (!stack.empty()) {
            Frame& f = stack.back();
            const std::span<const std::uint32_t> d = deps(f.value);
            bool descended = false;
            while (f.next_dep < d.size()) {
                const std::uint32_t child = d[f.next_dep++];
                if (state[child] == 0) {
                    state[child] = 1;
                    stack.push_back({child, 0});
                    descended = true;
                    break;
                }
            }
            if (descended) {
                continue;
            }
            state[f.value] = 2;
            emit(f.value);
            stack.pop_back();
        }
    }
}

/// Truth table of the k-input parity function (low 2^k bits).
std::uint64_t parity_truth(int k) {
    std::uint64_t t = 0;
    for (unsigned i = 0; i < (1U << k); ++i) {
        if (std::popcount(i) & 1U) {
            t |= std::uint64_t{1} << i;
        }
    }
    return t;
}

}  // namespace

namespace detail {

/// Liveness analysis + slot allocation + tape emission over a finished
/// Builder.  Factored out of the front ends so Netlist and LutNetwork
/// compilation share one register allocator.
struct Linker {
    static Program link(Builder&& b, std::size_t source_nodes) {
        Program p;
        p.n_inputs_ = b.n_inputs_total;
        p.n_outputs_ = b.n_outputs_total;
        p.source_nodes_ = source_nodes;

        const std::int64_t n_insns = static_cast<std::int64_t>(b.sched.size());

        // Liveness: last instruction index reading each value; values that
        // feed an output port stay live past the end of the tape.
        std::vector<std::int64_t> last_use(b.n_values, kNeverUsed);
        for (std::int64_t t = 0; t < n_insns; ++t) {
            for (const std::uint32_t a : b.operands(b.sched[static_cast<std::size_t>(t)])) {
                last_use[a] = t;
            }
        }
        for (const std::uint32_t v : b.outputs) {
            last_use[v] = n_insns;
        }
        if (b.zero_value != kNoValue && last_use[b.zero_value] != kNeverUsed) {
            p.uses_zero_slot_ = true;
            last_use[b.zero_value] = n_insns;  // the zero slot is never recycled
        }

        // Slot allocation: a stack of free slots; a value's slot returns to
        // the pool the moment its last consumer has executed, so the
        // high-water mark is exactly the schedule's maximum live width.
        std::vector<std::uint32_t> slot_of(b.n_values, kNoValue);
        std::vector<std::uint32_t> free_slots;
        std::uint32_t next_slot = p.uses_zero_slot_ ? 1 : 0;
        const auto alloc = [&]() -> std::uint32_t {
            if (!free_slots.empty()) {
                const std::uint32_t s = free_slots.back();
                free_slots.pop_back();
                return s;
            }
            return next_slot++;
        };
        if (p.uses_zero_slot_) {
            slot_of[b.zero_value] = 0;
        }
        p.input_loads_.reserve(b.inputs.size());
        for (const auto& [input_index, value] : b.inputs) {
            if (last_use[value] == kNeverUsed) {
                continue;  // dead input: never loaded
            }
            const std::uint32_t s = alloc();
            slot_of[value] = s;
            p.input_loads_.emplace_back(input_index, s);
        }

        p.insns_.reserve(b.sched.size());
        p.args_.reserve(b.args.size());
        std::vector<std::uint64_t> pair_keys;
        for (std::int64_t t = 0; t < n_insns; ++t) {
            const ValueDef& def = b.sched[static_cast<std::size_t>(t)];
            const auto ops = b.operands(def);
            // Free the slots of args this instruction consumes for the last
            // time; the executor reads every operand before writing dst, so
            // dst may legally reuse one of them in the same step.
            for (const std::uint32_t a : ops) {
                if (last_use[a] == t) {
                    free_slots.push_back(slot_of[a]);
                    last_use[a] = kFreed;  // duplicate operands free only once
                }
            }
            Program::Insn insn;
            insn.op = def.op;
            insn.dst = alloc();
            insn.arg_begin = static_cast<std::uint32_t>(p.args_.size());
            insn.arg_count = def.arg_count;
            if (def.op == Op::Lut) {
                insn.aux = static_cast<std::uint32_t>(p.truths_.size());
                p.truths_.push_back(def.truth);
            } else {
                insn.aux = def.aux;
            }
            for (const std::uint32_t a : ops) {
                p.args_.push_back(slot_of[a]);
            }
            // Operand lists execute in ascending slot order: AND/XOR
            // accumulates are commutative, so sorting costs nothing
            // semantically and turns the executor's operand walk into a
            // mostly-forward scan of the slot file instead of random hops.
            // AndXorN keeps its pair structure (pairs first, each sorted
            // internally, then ordered by key; singles sorted after); Lut
            // operands stay put — their order indexes the truth table.
            const auto first = p.args_.begin() + static_cast<std::ptrdiff_t>(insn.arg_begin);
            switch (def.op) {
                case Op::And2:
                case Op::Xor2:
                case Op::XorN:
                    std::sort(first, p.args_.end());
                    break;
                case Op::AndXorN: {
                    // A pair packed as min << 32 | max orders exactly as the
                    // pair (min, max) does.
                    const std::size_t np = def.aux;
                    pair_keys.clear();
                    for (std::size_t q = 0; q < np; ++q) {
                        const std::uint64_t x = first[2 * q];
                        const std::uint64_t y = first[2 * q + 1];
                        pair_keys.push_back(std::min(x, y) << 32U | std::max(x, y));
                    }
                    std::sort(pair_keys.begin(), pair_keys.end());
                    for (std::size_t q = 0; q < np; ++q) {
                        first[2 * q] = static_cast<std::uint32_t>(pair_keys[q] >> 32U);
                        first[2 * q + 1] = static_cast<std::uint32_t>(pair_keys[q]);
                    }
                    std::sort(first + static_cast<std::ptrdiff_t>(2 * np), p.args_.end());
                    break;
                }
                case Op::Lut:
                    break;
            }
            slot_of[def.value] = insn.dst;
            p.insns_.push_back(insn);
        }

        p.output_slots_.reserve(b.outputs.size());
        for (const std::uint32_t v : b.outputs) {
            p.output_slots_.push_back(slot_of[v]);
        }
        p.slot_count_ = std::max<std::uint32_t>(next_slot, 1);
        return p;
    }
};

}  // namespace detail

// --- Netlist front end -------------------------------------------------------

Program Program::compile(const netlist::Netlist& nl) {
    using netlist::GateKind;
    using netlist::NodeId;
    const std::size_t n = nl.node_count();

    // Consumer census over the reachable subgraph, in one sweep.  Node ids
    // are a topological order (every fanin id is below its gate's id), so a
    // walk from the top id down marks each reachable node before reaching
    // it, and a node's census is final once the walk gets there: all its
    // consumers have higher ids.  use[v] keeps what the compiler needs: v is
    // unreached, or its one consumer is an Xor2 gate, or anything else (two
    // or more consumers, an And2 consumer, an output port).  An Xor2 whose
    // one consumer is an Xor2 is an interior tree node and fuses into its
    // root's accumulate instruction; an And2 in that position is inlined.
    enum : std::uint8_t { kUnreached, kOneXorUse, kOtherUse };
    std::vector<std::uint8_t> use(n, kUnreached);
    for (const auto& port : nl.outputs()) {
        use[port.node] = kOtherUse;
    }
    std::size_t n_gates = 0;
    for (std::size_t id = n; id-- > 0;) {
        if (use[id] == kUnreached) {
            continue;
        }
        const netlist::Node& node = nl.node(static_cast<NodeId>(id));
        if (node.kind == GateKind::Xor2) {
            for (const NodeId fanin : {node.a, node.b}) {
                use[fanin] = use[fanin] == kUnreached ? kOneXorUse : kOtherUse;
            }
            ++n_gates;
        } else if (node.kind == GateKind::And2) {
            use[node.a] = kOtherUse;
            use[node.b] = kOtherUse;
            ++n_gates;
        }
    }
    const auto fused = [&](NodeId v) { return use[v] == kOneXorUse; };

    // Operand lists per schedulable gate, appended to one pool (at most two
    // operands per reachable gate).  XOR roots expand their fused leaf set by
    // walking interior nodes; ANDs keep their two fanins.  Interior nodes
    // have exactly one consumer, so each lands in exactly one root's list
    // and expansion is linear in the XOR count.  Duplicate leaves (one value
    // reached through two interior branches) are kept: XOR-ing a word twice
    // contributes zero, exactly as the gate tree computes.
    //
    // AND inlining: a leaf that is an And2 with exactly one consumer (this
    // tree) never materialises — the root instruction becomes AndXorN and
    // carries the AND's two fanins as an operand pair, turning a whole
    // partial-product column into one instruction.  The pairs come first in
    // the list, the singles after, each in walk order.
    struct OperandRange {
        std::uint32_t begin = 0;
        std::uint32_t count = 0;
        std::uint32_t pairs = 0;  ///< leading inlined AND pairs
    };
    std::vector<OperandRange> operands(n);
    Builder b;
    b.args.reserve(2 * n_gates);
    std::size_t n_defs = 0;
    std::vector<NodeId> walk;
    std::vector<NodeId> singles;
    for (NodeId id = 0; id < n; ++id) {
        if (use[id] == kUnreached || fused(id)) {
            continue;
        }
        const netlist::Node& node = nl.node(id);
        if (node.kind != GateKind::And2 && node.kind != GateKind::Xor2) {
            continue;
        }
        OperandRange& range = operands[id];
        range.begin = static_cast<std::uint32_t>(b.args.size());
        if (node.kind == GateKind::And2) {
            b.args.push_back(node.a);
            b.args.push_back(node.b);
        } else {
            walk.clear();
            singles.clear();
            walk.push_back(node.b);
            walk.push_back(node.a);
            while (!walk.empty()) {
                const NodeId v = walk.back();
                walk.pop_back();
                const netlist::Node& nv = nl.node(v);
                if (fused(v) && nv.kind == GateKind::Xor2) {
                    walk.push_back(nv.b);
                    walk.push_back(nv.a);
                } else if (fused(v) && nv.kind == GateKind::And2) {
                    b.args.push_back(nv.a);  // inlined pair
                    b.args.push_back(nv.b);
                    ++range.pairs;
                } else {
                    singles.push_back(v);
                }
            }
            b.args.insert(b.args.end(), singles.begin(), singles.end());
        }
        range.count = static_cast<std::uint32_t>(b.args.size()) - range.begin;
        ++n_defs;
    }

    b.n_values = n;
    b.n_inputs_total = static_cast<int>(nl.inputs().size());
    b.n_outputs_total = static_cast<int>(nl.outputs().size());
    b.inputs.reserve(nl.inputs().size());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        b.inputs.emplace_back(static_cast<std::uint32_t>(i), nl.inputs()[i].node);
    }
    b.outputs.reserve(nl.outputs().size());
    for (const auto& port : nl.outputs()) {
        b.outputs.push_back(port.node);
    }
    b.sched.reserve(n_defs);

    const auto deps = [&](std::uint32_t v) -> std::span<const std::uint32_t> {
        return {b.args.data() + operands[v].begin, operands[v].count};
    };
    const auto emit = [&](std::uint32_t v) {
        const OperandRange& range = operands[v];
        ValueDef def;
        def.value = v;
        def.arg_begin = range.begin;
        def.arg_count = range.count;
        switch (nl.node(v).kind) {
            case GateKind::Input:
                return;
            case GateKind::Const0:
                b.zero_value = v;
                return;
            case GateKind::And2:
                def.op = Op::And2;
                break;
            case GateKind::Xor2:
                if (range.pairs > 0) {
                    def.op = Op::AndXorN;
                    def.aux = range.pairs;
                } else {
                    def.op = range.count == 2 ? Op::Xor2 : Op::XorN;
                }
                break;
        }
        b.sched.push_back(def);
    };
    schedule_post_order(n, b.outputs, deps, emit);
    return detail::Linker::link(std::move(b), n);
}

// --- LutNetwork front end ----------------------------------------------------

Program Program::compile(const fpga::LutNetwork& net) {
    const std::size_t n_in = net.input_names.size();
    const std::size_t n_luts = net.luts.size();
    // Value ids: inputs, then LUTs, then one pseudo-value for const 0.
    const std::uint32_t zero_value = static_cast<std::uint32_t>(n_in + n_luts);
    const auto value_of_ref = [&](std::int32_t ref) -> std::uint32_t {
        return ref < 0 ? zero_value : static_cast<std::uint32_t>(ref);
    };
    // Refs below `limit`, or the constant.  The scheduler relies on every
    // LUT reading only topologically earlier refs.
    const auto valid_ref = [](std::int32_t ref, std::size_t limit) {
        return ref == fpga::LutNetwork::kConst0Ref ||
               (ref >= 0 && static_cast<std::size_t>(ref) < limit);
    };

    // Per-LUT operand ranges in value-id space, plus the lowered op: pure
    // parity cones become fused XOR instructions, 2-input AND stays binary,
    // everything else evaluates its truth table bitsliced.
    Builder b;
    std::size_t n_fanins = 0;
    for (const auto& lut : net.luts) {
        n_fanins += lut.fanins.size();
    }
    b.args.reserve(n_fanins);
    std::vector<ValueDef> defs(n_luts);
    for (std::size_t i = 0; i < n_luts; ++i) {
        const auto& lut = net.luts[i];
        const int k = static_cast<int>(lut.fanins.size());
        if (k > 6) {
            throw std::invalid_argument{"exec::Program: LUT with more than 6 fanins"};
        }
        ValueDef& def = defs[i];
        def.value = static_cast<std::uint32_t>(n_in + i);
        def.arg_begin = static_cast<std::uint32_t>(b.args.size());
        def.arg_count = static_cast<std::uint32_t>(k);
        for (const auto ref : lut.fanins) {
            if (!valid_ref(ref, n_in + i)) {
                throw std::invalid_argument{
                    "exec::Program: LUT fanin must be kConst0Ref or an earlier input or LUT"};
            }
            b.args.push_back(value_of_ref(ref));
        }
        const std::uint64_t mask =
            (k == 6) ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << (std::uint64_t{1} << k)) - 1);
        const std::uint64_t truth = lut.truth & mask;
        if (k >= 2 && truth == parity_truth(k)) {
            def.op = (k == 2) ? Op::Xor2 : Op::XorN;
        } else if (k == 2 && truth == 0x8) {
            def.op = Op::And2;
        } else {
            def.op = Op::Lut;
            def.truth = truth;
        }
    }

    b.n_values = n_in + n_luts + 1;
    b.n_inputs_total = static_cast<int>(n_in);
    b.n_outputs_total = static_cast<int>(net.outputs.size());
    b.zero_value = zero_value;
    b.inputs.reserve(n_in);
    for (std::size_t i = 0; i < n_in; ++i) {
        b.inputs.emplace_back(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(i));
    }
    b.outputs.reserve(net.outputs.size());
    for (const auto& [name, ref] : net.outputs) {
        if (!valid_ref(ref, n_in + n_luts)) {
            throw std::invalid_argument{
                "exec::Program: output ref must be kConst0Ref or an input or LUT"};
        }
        b.outputs.push_back(value_of_ref(ref));
    }
    b.sched.reserve(n_luts);
    const auto deps = [&](std::uint32_t v) -> std::span<const std::uint32_t> {
        if (v < n_in || v == zero_value) {
            return {};
        }
        return b.operands(defs[v - n_in]);
    };
    const auto emit = [&](std::uint32_t v) {
        if (v < n_in || v == zero_value) {
            return;
        }
        b.sched.push_back(defs[v - n_in]);
    };
    schedule_post_order(b.n_values, b.outputs, deps, emit);
    return detail::Linker::link(std::move(b), n_in + n_luts);
}

// --- Execution ---------------------------------------------------------------
//
// The executors themselves live in run_kernels_{scalar,avx2,avx512}.cpp;
// run() validates the call shape, sizes the aligned slot arena to the
// backend's vector stride, and hands a TapeView to the kernel.

void Program::Scratch::ensure(std::size_t words) {
    // Over-allocate by 7 words so the base can be rounded up to a 64-byte
    // boundary.  Recompute the aligned pointer unconditionally (cheap, and
    // the vector moves on growth); steady state never touches the backing
    // vector, so sized scratches keep run() allocation-free.
    if (words > words_) {
        storage_.resize(words + 7);
        words_ = words;
    }
    const auto base = reinterpret_cast<std::uintptr_t>(storage_.data());
    aligned_ = reinterpret_cast<std::uint64_t*>((base + 63) & ~std::uintptr_t{63});
}

TapeView Program::tape_view() const noexcept {
    TapeView v;
    v.insns = insns_.data();
    v.n_insns = insns_.size();
    v.args = args_.data();
    v.truths = truths_.data();
    v.input_loads = input_loads_.data();
    v.n_input_loads = input_loads_.size();
    v.output_slots = output_slots_.data();
    v.n_inputs = n_inputs_;
    v.n_outputs = n_outputs_;
    v.slot_count = slot_count_;
    v.uses_zero_slot = uses_zero_slot_;
    return v;
}

namespace {

void run_on_kernel(const TapeKernel& kernel, const TapeView& tape,
                   std::span<const std::uint64_t> in,
                   std::span<std::uint64_t> out, Program::Scratch& scratch,
                   int blocks) {
    if (blocks < 1 || blocks > Program::kMaxBlocks) {
        throw std::invalid_argument{
            "exec::Program::run: blocks must be in [1, 16]"};
    }
    if (in.size() != static_cast<std::size_t>(tape.n_inputs) * blocks) {
        throw std::invalid_argument{
            "exec::Program::run: wrong number of input words"};
    }
    if (out.size() != static_cast<std::size_t>(tape.n_outputs) * blocks) {
        throw std::invalid_argument{
            "exec::Program::run: wrong number of output words"};
    }
    const auto lanes = static_cast<std::size_t>(kernel.word_lanes);
    const std::size_t stride =
        (static_cast<std::size_t>(blocks) + lanes - 1) / lanes * lanes;
    scratch.ensure(stride * tape.slot_count);
    kernel.run(tape, in.data(), out.data(), scratch.data(), blocks);
}

}  // namespace

void Program::run(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                  Scratch& scratch, int blocks) const {
    run_on_kernel(*dispatch().kernel, tape_view(), in, out, scratch, blocks);
}

void Program::run(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                  Scratch& scratch, int blocks, Backend backend) const {
    // An explicit backend bypasses the process-wide selection (force-scalar
    // knob, quarantine), so it needs only the ladder's compiled-and-supported
    // check, not dispatch() and its first-use screen.  Cache the probe —
    // CPUID/XGETBV serialize (and VM-exit under hypervisors), and this
    // overload sits on the per-sweep path of backend-pinned campaigns.
    static const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const TapeKernel* kernel = kTapeLadder.available(backend, cpu);
    if (kernel == nullptr) {
        throw std::invalid_argument{
            "exec::Program::run: backend not available on this host"};
    }
    run_on_kernel(*kernel, tape_view(), in, out, scratch, blocks);
}

ProgramStats Program::stats() const {
    ProgramStats s;
    s.instructions = insns_.size();
    s.total_args = args_.size();
    s.source_nodes = source_nodes_;
    s.slots = slot_count_;
    for (const Insn& insn : insns_) {
        switch (insn.op) {
            case Op::And2: ++s.n_and2; break;
            case Op::Xor2: ++s.n_xor2; break;
            case Op::XorN: ++s.n_xorn; break;
            case Op::AndXorN:
                ++s.n_andxor;
                s.fused_ands += insn.aux;
                break;
            case Op::Lut: ++s.n_lut; break;
        }
    }
    return s;
}

}  // namespace gfr::exec
