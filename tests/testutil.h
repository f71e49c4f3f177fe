#ifndef GFR_TESTS_TESTUTIL_H
#define GFR_TESTS_TESTUTIL_H

// Shared property-test harness for the arithmetic tier.
//
// Every test binary that cross-checks the fast paths against the reference
// arithmetic needs the same four ingredients, previously copy-pasted per
// file:
//
//   - a seeded, platform-stable PRNG (Xorshift64Star) whose replay semantics
//     are trivially copyable — essential for the concurrency tests, which
//     compare threaded runs against a serial replay with the same seeds;
//   - random Poly / field-element generators built on it;
//   - iteration over the paper's Table V fields (and the large differential
//     degrees beyond them);
//   - a counting allocator guard so "allocation-free" claims are asserted,
//     not promised.
//
// The golden tests also share the FNV-1a fingerprint they pin tapes,
// netlists and LUT networks by.
//
// The allocator hooks replace global operator new for the including binary.
// Each test executable is a single translation unit, so including this
// header once per binary keeps the one-definition rule intact.

#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "fpga/lut_network.h"
#include "gf2/gf2_poly.h"
#include "gf2/pentanomial.h"
#include "netlist/clone.h"
#include "netlist/netlist.h"
#include "verify/campaign.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

// --- Counting allocator ------------------------------------------------------

namespace gfr::testutil::detail {
inline std::atomic<long> g_allocations{0};
inline std::atomic<bool> g_fail_next_allocation{false};
}  // namespace gfr::testutil::detail

void* operator new(std::size_t size) {
    gfr::testutil::detail::g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (gfr::testutil::detail::g_fail_next_allocation.load(std::memory_order_relaxed) &&
        gfr::testutil::detail::g_fail_next_allocation.exchange(false)) {
        throw std::bad_alloc{};
    }
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// otherwise they come from the default allocator, go uncounted, and are
// released through the free() below — a mismatch AddressSanitizer reports.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    gfr::testutil::detail::g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gfr::testutil {

/// Heap allocations seen by this binary so far.  Tests measure deltas around
/// loops that must stay at zero.
inline long allocation_count() {
    return detail::g_allocations.load(std::memory_order_relaxed);
}

/// RAII window over the allocation counter: `AllocationGuard g; ...;
/// EXPECT_EQ(g.delta(), 0);`
class AllocationGuard {
public:
    AllocationGuard() : before_{allocation_count()} {}
    [[nodiscard]] long delta() const { return allocation_count() - before_; }

private:
    long before_;
};

/// RAII fault injection: the first throwing `operator new` after
/// construction throws std::bad_alloc instead of allocating.  Arm it right
/// before the one call under test; `fired()` tells whether it was used.
class FailNextAllocation {
public:
    FailNextAllocation() { detail::g_fail_next_allocation.store(true); }
    ~FailNextAllocation() { detail::g_fail_next_allocation.store(false); }
    FailNextAllocation(const FailNextAllocation&) = delete;
    FailNextAllocation& operator=(const FailNextAllocation&) = delete;
    [[nodiscard]] bool fired() const { return !detail::g_fail_next_allocation.load(); }
};

// --- Golden fingerprints -----------------------------------------------------

/// 64-bit FNV-1a over a stream of integers, each fed as 8 little-endian
/// bytes: the fingerprint the golden tests pin tapes and netlists by.
class Fingerprint {
public:
    void feed(std::uint64_t v) noexcept {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xFFU;
            h_ *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Node-for-node fingerprint of a netlist: every node's (kind, a, b) in id
/// order, then the input and output port nodes.
inline std::uint64_t netlist_fingerprint(const netlist::Netlist& nl) {
    Fingerprint fp;
    fp.feed(nl.node_count());
    for (netlist::NodeId id = 0; id < nl.node_count(); ++id) {
        const netlist::Node& node = nl.node(id);
        fp.feed(static_cast<std::uint64_t>(node.kind));
        fp.feed(node.a);
        fp.feed(node.b);
    }
    fp.feed(nl.inputs().size());
    for (const auto& port : nl.inputs()) {
        fp.feed(port.node);
    }
    fp.feed(nl.outputs().size());
    for (const auto& port : nl.outputs()) {
        fp.feed(port.node);
    }
    return fp.value();
}

/// Fingerprint of a mapped LUT network: every LUT in order (fanin count,
/// fanin refs, truth table), then every output ref.
inline std::uint64_t lut_network_fingerprint(const fpga::LutNetwork& net) {
    Fingerprint fp;
    for (const auto& lut : net.luts) {
        fp.feed(lut.fanins.size());
        for (const std::int32_t ref : lut.fanins) {
            fp.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(ref)));
        }
        fp.feed(lut.truth);
    }
    for (const auto& out : net.outputs) {
        fp.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(out.second)));
    }
    return fp.value();
}

// --- Seeded PRNG -------------------------------------------------------------

/// xorshift64* — tiny, fast, trivially copyable, identical on every platform
/// and standard library.  Good enough statistics for property tests, and its
/// value-semantics replay is what the concurrency tests lean on.
///
/// Deliberately THE SAME generator the verification campaign uses for its
/// sweep bodies (verify::SweepRng) — a thin wrapper, not a copy, so a
/// counterexample seed logged by either replays in both by construction.
class Xorshift64Star : public verify::SweepRng {
public:
    using verify::SweepRng::SweepRng;

    std::uint64_t next() noexcept { return (*this)(); }
};

// --- Random generators -------------------------------------------------------

/// Uniformly random polynomial of degree < max_bits (may be zero).
inline gf2::Poly random_poly(Xorshift64Star& rng, int max_bits) {
    if (max_bits <= 0) {
        return {};
    }
    std::vector<std::uint64_t> words(static_cast<std::size_t>((max_bits + 63) / 64));
    for (auto& w : words) {
        w = rng.next();
    }
    const int top = max_bits % 64;
    if (top != 0) {
        words.back() &= (std::uint64_t{1} << top) - 1;
    }
    return gf2::Poly::from_words(words);
}

/// Uniformly random canonical element of f (may be zero).
inline field::Field::Element random_element(const field::Field& f,
                                            Xorshift64Star& rng) {
    return random_poly(rng, f.degree());
}

/// Uniformly random nonzero canonical element of f.
inline field::Field::Element random_nonzero_element(const field::Field& f,
                                                    Xorshift64Star& rng) {
    for (;;) {
        auto e = random_element(f, rng);
        if (!e.is_zero()) {
            return e;
        }
    }
}

/// Random canonical element of a single-word field as its bit pattern.
inline std::uint64_t random_word_element(const field::Field& f,
                                         Xorshift64Star& rng) {
    const int m = f.degree();
    const std::uint64_t mask =
        (m >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << m) - 1);
    return rng.next() & mask;
}

/// A seeded random multi-output XOR-of-products netlist for the LUT-aware
/// XOR builder and the flow's strategy search.  3-8 inputs, so every input
/// wire lands in many terms of a sum.  The terms are inputs themselves
/// (LUT level 0), AND cones of 2-8 inputs
/// (level 1, or 2 when wider than one LUT), ANDs over a small XOR, and the
/// constant 0.  Each output is an unshared XOR chain over 2-60 terms drawn
/// with repeats from one pool, so outputs share leaves and duplicates
/// cancel.  Chains and cones use the fresh constructors, so nothing folds
/// before the passes see it; the builder's chunk roots then sit at levels
/// 2-3 beside wide leaves, which ties overlaps across levels.
inline netlist::Netlist random_xor_sums(Xorshift64Star& rng) {
    netlist::Netlist nl;
    const auto n_inputs = static_cast<int>(3 + rng.next() % 6);
    std::vector<netlist::NodeId> inputs;
    for (int i = 0; i < n_inputs; ++i) {
        inputs.push_back(nl.add_input("x" + std::to_string(i)));
    }
    const auto input = [&] { return inputs[rng.next() % inputs.size()]; };
    std::vector<netlist::NodeId> pool = inputs;
    pool.push_back(nl.const0());
    const auto n_terms = static_cast<int>(4 + rng.next() % 40);
    for (int t = 0; t < n_terms; ++t) {
        netlist::NodeId term = input();
        if (rng.next() % 6 == 0) {
            const netlist::NodeId x = input();
            term = nl.make_and_fresh(nl.make_xor_fresh(term, x), input());
        } else {
            const auto width = static_cast<int>(2 + rng.next() % 7);
            for (int k = 1; k < width; ++k) {
                term = nl.make_and_fresh(term, input());
            }
        }
        pool.push_back(term);
    }
    const auto n_outputs = static_cast<int>(1 + rng.next() % 4);
    for (int o = 0; o < n_outputs; ++o) {
        const auto length = static_cast<int>(2 + rng.next() % 59);
        netlist::NodeId sum = pool[rng.next() % pool.size()];
        for (int k = 1; k < length; ++k) {
            sum = nl.make_xor_fresh(sum, pool[rng.next() % pool.size()]);
        }
        nl.add_output("y" + std::to_string(o), sum);
    }
    return nl;
}

// --- Field iteration ---------------------------------------------------------

/// Run fn(spec, field) over every Table V catalog field.
template <typename Fn>
void for_each_table5_field(Fn&& fn) {
    for (const auto& spec : field::table5_fields()) {
        const field::Field f = spec.make();
        fn(spec, f);
    }
}

/// The large-field differential degrees the arithmetic tier is exercised at
/// beyond Table V: wide trinomial/pentanomial moduli up to 16 words.
inline const std::vector<int>& large_differential_degrees() {
    static const std::vector<int> degrees = {127, 192, 256, 409, 571, 1024};
    return degrees;
}

/// A known low-weight irreducible modulus for each large differential
/// degree (trinomials where they exist, else the lexicographically-first
/// pentanomial from the standard low-weight tables).  Hardcoded rather than
/// searched: the runtime search is fine for catalog degrees but a unit test
/// should not pay a pentanomial sweep at m = 1024.  Field's constructor
/// re-proves irreducibility, so a typo here fails loudly.
inline gf2::Poly large_modulus(int m) {
    switch (m) {
        case 127:  return gf2::Poly::from_exponents({127, 1, 0});
        case 192:  return gf2::Poly::from_exponents({192, 7, 2, 1, 0});
        case 256:  return gf2::Poly::from_exponents({256, 10, 5, 2, 0});
        case 409:  return gf2::Poly::from_exponents({409, 87, 0});   // NIST B-409
        case 571:  return gf2::Poly::from_exponents({571, 10, 5, 2, 0});  // NIST B-571
        case 1024: return gf2::Poly::from_exponents({1024, 19, 6, 1, 0});
        default:   break;
    }
    const auto mod = gf2::preferred_low_weight_modulus(m);
    if (!mod.has_value()) {
        throw std::runtime_error{"no low-weight modulus for m=" + std::to_string(m)};
    }
    return *mod;
}

// --- Netlist cloning (verification-tier tests) -------------------------------
// The mutation substrate now lives in the library (netlist/clone.h) so the
// fault-injection campaign can build on it; these aliases keep the
// historical test-harness spelling.  The default here remains the interning
// clone — structural hashing in the destination may merge or simplify
// rewritten gates, which the mutation tests rely on.

using GateHook = netlist::GateHook;
using OutputHook = netlist::OutputHook;

inline netlist::Netlist clone_netlist(const netlist::Netlist& src,
                                      const GateHook& gate_hook = nullptr,
                                      const OutputHook& output_hook = nullptr) {
    return netlist::clone_netlist(src, {.intern = true}, gate_hook, output_hook);
}

}  // namespace gfr::testutil

#endif  // GFR_TESTS_TESTUTIL_H
