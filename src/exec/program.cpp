#include "exec/program.h"

#include "bulk/cpu.h"
#include "exec/run_kernels.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace gfr::exec {

namespace {

constexpr std::uint32_t kNoValue = std::numeric_limits<std::uint32_t>::max();
constexpr std::int64_t kNeverUsed = -1;
constexpr std::int64_t kFreed = -2;

/// One scheduled definition, still in value-id space (slots come later).
struct ValueDef {
    Op op = Op::Xor2;
    std::uint32_t value = 0;  ///< value id this instruction defines
    std::uint32_t aux = 0;    ///< Op::AndXorN: pair count
    std::uint64_t truth = 0;  ///< Op::Lut only
    std::vector<std::uint32_t> args;
};

/// Compile-time intermediate shared by both front ends: a post-order
/// schedule over a dense value-id space, plus the interface bindings.
struct Builder {
    std::size_t n_values = 0;
    std::vector<ValueDef> sched;
    /// (input index, value id) for every primary input, in interface order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> inputs;
    std::vector<std::uint32_t> outputs;  ///< value id per output port
    std::uint32_t zero_value = kNoValue;
    int n_inputs_total = 0;
    int n_outputs_total = 0;
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

/// Tape-level CSE (Program::CompileOptions::hoist_common_pairs): hoist XOR
/// operand pairs recurring across the singles regions of fused accumulate
/// instructions into shared Xor2 definitions.  Runs in value-id space
/// between scheduling and linking; XOR reassociation keeps the tape
/// semantically identical, and liveness/slots are recomputed by the
/// unchanged Linker afterwards.  Rounds repeat so hoisted values can pair
/// up again (multi-level sharing) until no pair clears the threshold.
void hoist_common_pairs(Builder& b, int min_count) {
    constexpr int kMaxRounds = 10;
    constexpr std::size_t kMaxSinglesCounted = 128;
    if (min_count < 2) {
        min_count = 2;
    }
    const auto singles_begin = [](const ValueDef& def) -> std::size_t {
        return def.op == Op::AndXorN ? static_cast<std::size_t>(def.aux) * 2 : 0;
    };
    for (int round = 0; round < kMaxRounds; ++round) {
        // --- Count: each unordered singles pair at most once per def -----
        std::unordered_map<std::uint64_t, std::uint32_t> counts;
        std::vector<std::uint32_t> uniq;
        for (const ValueDef& def : b.sched) {
            if (def.op != Op::XorN && def.op != Op::AndXorN) {
                continue;
            }
            const std::size_t begin = singles_begin(def);
            if (def.args.size() < begin + 2) {
                continue;
            }
            const std::size_t end =
                std::min(def.args.size(), begin + kMaxSinglesCounted);
            uniq.assign(def.args.begin() + static_cast<std::ptrdiff_t>(begin),
                        def.args.begin() + static_cast<std::ptrdiff_t>(end));
            std::sort(uniq.begin(), uniq.end());
            uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
            for (std::size_t i = 0; i < uniq.size(); ++i) {
                for (std::size_t j = i + 1; j < uniq.size(); ++j) {
                    const std::uint64_t key =
                        (static_cast<std::uint64_t>(uniq[i]) << 32U) | uniq[j];
                    ++counts[key];
                }
            }
        }
        std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked;
        for (const auto& [key, count] : counts) {
            if (static_cast<int>(count) >= min_count) {
                ranked.emplace_back(count, key);
            }
        }
        if (ranked.empty()) {
            break;
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& p, const auto& q) {
            return p.first != q.first ? p.first > q.first : p.second < q.second;
        });

        // --- Apply greedily; overlapping pairs re-check live state -------
        struct NewDef {
            std::uint32_t value;
            std::uint32_t x;
            std::uint32_t y;
            std::size_t before;  ///< sched index of the first user
        };
        std::vector<NewDef> created;
        for (const auto& [count, key] : ranked) {
            const auto x = static_cast<std::uint32_t>(key >> 32U);
            const auto y = static_cast<std::uint32_t>(key & 0xFFFFFFFFULL);
            const auto find_pair = [&](const ValueDef& def, std::size_t& ix,
                                       std::size_t& iy) {
                if (def.op != Op::XorN && def.op != Op::AndXorN) {
                    return false;
                }
                const std::size_t begin = singles_begin(def);
                ix = iy = def.args.size();
                for (std::size_t k = begin; k < def.args.size(); ++k) {
                    if (def.args[k] == x && ix == def.args.size()) {
                        ix = k;
                    } else if (def.args[k] == y && iy == def.args.size()) {
                        iy = k;
                    }
                }
                return ix != def.args.size() && iy != def.args.size();
            };
            // Dry scan first: overlaps with already-applied pairs may have
            // consumed occurrences, and a pair no longer clearing the
            // threshold is not worth a definition.
            int live = 0;
            for (const ValueDef& def : b.sched) {
                std::size_t ix = 0;
                std::size_t iy = 0;
                if (find_pair(def, ix, iy)) {
                    ++live;
                }
            }
            if (live < min_count) {
                continue;
            }
            const auto v = static_cast<std::uint32_t>(b.n_values++);
            std::size_t first_user = b.sched.size();
            for (std::size_t t = 0; t < b.sched.size(); ++t) {
                ValueDef& def = b.sched[t];
                std::size_t ix = 0;
                std::size_t iy = 0;
                // Repeat within one def: duplicate leaves can carry the
                // same pair more than once.
                while (find_pair(def, ix, iy)) {
                    if (iy < ix) {
                        std::swap(ix, iy);
                    }
                    def.args.erase(def.args.begin() +
                                   static_cast<std::ptrdiff_t>(iy));
                    def.args.erase(def.args.begin() +
                                   static_cast<std::ptrdiff_t>(ix));
                    def.args.push_back(v);
                    first_user = std::min(first_user, t);
                    if (def.op == Op::XorN && def.args.size() == 2) {
                        def.op = Op::Xor2;
                    }
                }
            }
            created.push_back(NewDef{v, x, y, first_user});
        }
        if (created.empty()) {
            break;
        }

        // --- Insert the hoisted defs right before their first user -------
        std::vector<ValueDef> rebuilt;
        rebuilt.reserve(b.sched.size() + created.size());
        for (std::size_t t = 0; t < b.sched.size(); ++t) {
            for (const NewDef& nd : created) {
                if (nd.before == t) {
                    ValueDef def;
                    def.op = Op::Xor2;
                    def.value = nd.value;
                    def.args = {nd.x, nd.y};
                    rebuilt.push_back(std::move(def));
                }
            }
            rebuilt.push_back(std::move(b.sched[t]));
        }
        b.sched = std::move(rebuilt);
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
            for (const std::uint32_t a : b.sched[static_cast<std::size_t>(t)].args) {
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
        for (const auto& [input_index, value] : b.inputs) {
            if (last_use[value] == kNeverUsed) {
                continue;  // dead input: never loaded
            }
            const std::uint32_t s = alloc();
            slot_of[value] = s;
            p.input_loads_.emplace_back(input_index, s);
        }

        p.insns_.reserve(b.sched.size());
        std::vector<std::uint32_t> slots;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
        for (std::int64_t t = 0; t < n_insns; ++t) {
            ValueDef& def = b.sched[static_cast<std::size_t>(t)];
            // Free the slots of args this instruction consumes for the last
            // time; the executor reads every operand before writing dst, so
            // dst may legally reuse one of them in the same step.
            for (const std::uint32_t a : def.args) {
                if (last_use[a] == t) {
                    free_slots.push_back(slot_of[a]);
                    last_use[a] = kFreed;  // duplicate operands free only once
                }
            }
            Program::Insn insn;
            insn.op = def.op;
            insn.dst = alloc();
            insn.arg_begin = static_cast<std::uint32_t>(p.args_.size());
            insn.arg_count = static_cast<std::uint32_t>(def.args.size());
            if (def.op == Op::Lut) {
                insn.aux = static_cast<std::uint32_t>(p.truths_.size());
                p.truths_.push_back(def.truth);
            } else {
                insn.aux = def.aux;
            }
            slots.clear();
            for (const std::uint32_t a : def.args) {
                slots.push_back(slot_of[a]);
            }
            // Operand lists execute in ascending slot order: AND/XOR
            // accumulates are commutative, so sorting costs nothing
            // semantically and turns the executor's operand walk into a
            // mostly-forward scan of the slot file instead of random hops.
            // AndXorN keeps its pair structure (pairs first, each sorted
            // internally, then ordered by key; singles sorted after); Lut
            // operands stay put — their order indexes the truth table.
            switch (def.op) {
                case Op::And2:
                case Op::Xor2:
                case Op::XorN:
                    std::sort(slots.begin(), slots.end());
                    break;
                case Op::AndXorN: {
                    const std::size_t np = def.aux;
                    pairs.clear();
                    for (std::size_t q = 0; q < np; ++q) {
                        const std::uint32_t x = slots[2 * q];
                        const std::uint32_t y = slots[2 * q + 1];
                        pairs.emplace_back(std::min(x, y), std::max(x, y));
                    }
                    std::sort(pairs.begin(), pairs.end());
                    for (std::size_t q = 0; q < np; ++q) {
                        slots[2 * q] = pairs[q].first;
                        slots[2 * q + 1] = pairs[q].second;
                    }
                    std::sort(slots.begin() + static_cast<std::ptrdiff_t>(2 * np),
                              slots.end());
                    break;
                }
                case Op::Lut:
                    break;
            }
            p.args_.insert(p.args_.end(), slots.begin(), slots.end());
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
    return compile(nl, CompileOptions{});
}

Program Program::compile(const netlist::Netlist& nl,
                         const CompileOptions& options) {
    using netlist::GateKind;
    using netlist::NodeId;
    const std::size_t n = nl.node_count();

    // Consumer census over the reachable subgraph, split by consumer kind:
    // an Xor2 with exactly one consumer, itself an Xor2 gate, is an interior
    // tree node and fuses into its root's accumulate instruction.
    const auto reachable = nl.reachable_from_outputs();
    std::vector<std::uint32_t> xor_uses(n, 0);
    std::vector<std::uint32_t> other_uses(n, 0);
    for (NodeId id = 0; id < n; ++id) {
        if (!reachable[id]) {
            continue;
        }
        const netlist::Node& node = nl.node(id);
        if (node.kind == GateKind::And2 || node.kind == GateKind::Xor2) {
            auto& uses = (node.kind == GateKind::Xor2) ? xor_uses : other_uses;
            ++uses[node.a];
            ++uses[node.b];
        }
    }
    for (const auto& port : nl.outputs()) {
        ++other_uses[port.node];
    }
    std::vector<bool> interior(n, false);
    for (NodeId id = 0; id < n; ++id) {
        interior[id] = reachable[id] && nl.node(id).kind == GateKind::Xor2 &&
                       xor_uses[id] == 1 && other_uses[id] == 0;
    }

    // Operand lists per schedulable gate.  XOR roots expand their fused leaf
    // set by walking interior nodes; ANDs keep their two fanins.  Interior
    // nodes have exactly one consumer, so each lands in exactly one root's
    // list and expansion is linear in the XOR count.  Duplicate leaves (one
    // value reached through two interior branches) are kept: XOR-ing a word
    // twice contributes zero, exactly as the gate tree computes.
    //
    // AND inlining: a leaf that is an And2 with exactly one consumer (this
    // tree) never materialises — the root instruction becomes AndXorN and
    // carries the AND's two fanins as an operand pair, turning a whole
    // partial-product column into one instruction.  pair_count[id] holds the
    // number of leading pairs in operands[id] (pairs first, singles after).
    std::vector<std::vector<std::uint32_t>> operands(n);
    std::vector<std::uint32_t> pair_count(n, 0);
    std::vector<std::uint32_t> walk;
    std::vector<std::uint32_t> singles;
    for (NodeId id = 0; id < n; ++id) {
        if (!reachable[id] || interior[id]) {
            continue;
        }
        const netlist::Node& node = nl.node(id);
        if (node.kind == GateKind::And2) {
            operands[id] = {node.a, node.b};
            continue;
        }
        if (node.kind != GateKind::Xor2) {
            continue;
        }
        walk.clear();
        singles.clear();
        walk.push_back(node.b);
        walk.push_back(node.a);
        auto& out = operands[id];
        while (!walk.empty()) {
            const NodeId v = walk.back();
            walk.pop_back();
            if (interior[v]) {
                const netlist::Node& nv = nl.node(v);
                walk.push_back(nv.b);
                walk.push_back(nv.a);
                continue;
            }
            const netlist::Node& leaf = nl.node(v);
            if (leaf.kind == GateKind::And2 && xor_uses[v] + other_uses[v] == 1) {
                out.push_back(leaf.a);  // inlined pair
                out.push_back(leaf.b);
                ++pair_count[id];
            } else {
                singles.push_back(v);
            }
        }
        out.insert(out.end(), singles.begin(), singles.end());
    }

    Builder b;
    b.n_values = n;
    b.n_inputs_total = static_cast<int>(nl.inputs().size());
    b.n_outputs_total = static_cast<int>(nl.outputs().size());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        b.inputs.emplace_back(static_cast<std::uint32_t>(i), nl.inputs()[i].node);
    }
    std::vector<std::uint32_t> roots;
    roots.reserve(nl.outputs().size());
    for (const auto& port : nl.outputs()) {
        b.outputs.push_back(port.node);
        roots.push_back(port.node);
    }

    const auto deps = [&](std::uint32_t v) -> std::span<const std::uint32_t> {
        return operands[v];
    };
    const auto emit = [&](std::uint32_t v) {
        const netlist::Node& node = nl.node(v);
        switch (node.kind) {
            case GateKind::Input:
                return;
            case GateKind::Const0:
                b.zero_value = v;
                return;
            case GateKind::And2: {
                ValueDef def;
                def.op = Op::And2;
                def.value = v;
                def.args = std::move(operands[v]);
                b.sched.push_back(std::move(def));
                return;
            }
            case GateKind::Xor2: {
                ValueDef def;
                def.value = v;
                if (pair_count[v] > 0) {
                    def.op = Op::AndXorN;
                    def.aux = pair_count[v];
                } else {
                    def.op = operands[v].size() == 2 ? Op::Xor2 : Op::XorN;
                }
                def.args = std::move(operands[v]);
                b.sched.push_back(std::move(def));
                return;
            }
        }
    };
    schedule_post_order(n, roots, deps, emit);
    if (options.hoist_common_pairs) {
        hoist_common_pairs(b, options.min_pair_occurrences);
    }
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

    // Per-LUT operand lists in value-id space, plus the lowered op: pure
    // parity cones become fused XOR instructions, 2-input AND stays binary,
    // everything else evaluates its truth table bitsliced.
    std::vector<ValueDef> defs(n_luts);
    for (std::size_t i = 0; i < n_luts; ++i) {
        const auto& lut = net.luts[i];
        const int k = static_cast<int>(lut.fanins.size());
        if (k > 6) {
            throw std::invalid_argument{"exec::Program: LUT with more than 6 fanins"};
        }
        ValueDef& def = defs[i];
        def.value = static_cast<std::uint32_t>(n_in + i);
        def.args.reserve(lut.fanins.size());
        for (const auto ref : lut.fanins) {
            def.args.push_back(value_of_ref(ref));
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

    Builder b;
    b.n_values = n_in + n_luts + 1;
    b.n_inputs_total = static_cast<int>(n_in);
    b.n_outputs_total = static_cast<int>(net.outputs.size());
    b.zero_value = zero_value;
    for (std::size_t i = 0; i < n_in; ++i) {
        b.inputs.emplace_back(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(i));
    }
    std::vector<std::uint32_t> roots;
    roots.reserve(net.outputs.size());
    for (const auto& [name, ref] : net.outputs) {
        b.outputs.push_back(value_of_ref(ref));
        roots.push_back(value_of_ref(ref));
    }
    const auto deps = [&](std::uint32_t v) -> std::span<const std::uint32_t> {
        if (v < n_in || v == zero_value) {
            return {};
        }
        return defs[v - n_in].args;
    };
    const auto emit = [&](std::uint32_t v) {
        if (v < n_in || v == zero_value) {
            return;
        }
        b.sched.push_back(std::move(defs[v - n_in]));
    };
    schedule_post_order(b.n_values, roots, deps, emit);
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
