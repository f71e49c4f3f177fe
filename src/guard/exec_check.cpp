#include "guard/exec_check.h"

#include "netlist/netlist.h"

#include <array>
#include <cstdio>
#include <string>
#include <vector>

namespace gfr::guard {

namespace {

/// splitmix64 — deterministic test-vector generation, local on purpose: the
/// guard tier must not share PRNG code with the tiers it screens.
struct TapeTestRng {
    std::uint64_t state;
    std::uint64_t operator()() noexcept {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
};

/// Golden AND/XOR netlist: shaped so compilation produces every tape
/// instruction form — a lone And2 and Xor2, a fanout-1 XOR chain (fuses to
/// XorN), a partial-product column (fuses to AndXorN with both pair and
/// single operands), and a shared subterm consumed twice (fanout > 1, so
/// fusion must stop there and the slot recycler is exercised).
exec::Program golden_netlist_tape() {
    namespace nl = gfr::netlist;
    nl::Netlist n;
    std::array<nl::NodeId, 16> x{};
    for (int i = 0; i < 16; ++i) {
        x[i] = n.add_input("x" + std::to_string(i));
    }
    // o_and / o_xor: the binary fast cases.
    n.add_output("o_and", n.make_and(x[0], x[1]));
    n.add_output("o_xor", n.make_xor(x[2], x[3]));
    // o_parity: 8-leaf XOR tree, interior fanout 1 -> one XorN.
    std::array<nl::NodeId, 8> leaves{};
    for (int i = 0; i < 8; ++i) {
        leaves[i] = x[i];
    }
    n.add_output("o_parity",
                 n.make_xor_tree(std::span<const nl::NodeId>{leaves},
                                 nl::TreeShape::Balanced));
    // o_col: XOR of four single-use products plus two singles -> AndXorN
    // with aux = 4 pairs and two trailing single operands.
    std::array<nl::NodeId, 6> col{};
    for (int i = 0; i < 4; ++i) {
        col[i] = n.make_and(x[2 * i + 4], x[2 * i + 5]);
    }
    col[4] = x[14];
    col[5] = x[15];
    n.add_output("o_col", n.make_xor_tree(std::span<const nl::NodeId>{col},
                                          nl::TreeShape::Chain));
    // o_shared / o_shared2: one product consumed by two outputs, so the
    // fused accumulates must reference a materialised shared slot.
    const nl::NodeId shared = n.make_and(x[6], x[9]);
    n.add_output("o_shared", n.make_xor(shared, x[0]));
    n.add_output("o_shared2", n.make_xor(shared, x[7]));
    return exec::Program::compile(n);
}

/// Golden LUT network: cones of every width 0..6, including non-parity /
/// non-AND truth tables (majority, a raw random table) so the Shannon mux
/// fold runs its full depth, plus a LUT-feeds-LUT chain and a constant.
exec::Program golden_lut_tape() {
    namespace fp = gfr::fpga;
    fp::LutNetwork net;
    for (int i = 0; i < 8; ++i) {
        net.input_names.push_back("i" + std::to_string(i));
    }
    const auto lut_ref = [&](int idx) {
        return static_cast<std::int32_t>(net.input_count() + idx);
    };
    // k=0 constant one.
    net.luts.push_back({{}, 1});
    // k=1 inverter of input 0.
    net.luts.push_back({{0}, 0b01});
    // k=2 NAND.
    net.luts.push_back({{1, 2}, 0b0111});
    // k=3 majority (non-parity cone).
    net.luts.push_back({{0, 1, 2}, 0b11101000});
    // k=4 raw table.
    net.luts.push_back({{3, 4, 5, 6}, 0x6A3C});
    // k=5 raw table.
    net.luts.push_back({{0, 2, 4, 6, 7}, 0x9D2B47F10C83E56AULL & 0xFFFFFFFFULL});
    // k=6 raw table over inputs and earlier LUTs (chained cone).
    net.luts.push_back({{0, 1, lut_ref(1), lut_ref(2), lut_ref(3), 7},
                        0x9D2B47F10C83E56AULL});
    for (int i = 0; i < static_cast<int>(net.luts.size()); ++i) {
        net.outputs.emplace_back("o" + std::to_string(i), lut_ref(i));
    }
    return exec::Program::compile(net);
}

/// Run `prog` through `k` at every block width and diff against the scalar
/// executor.  `tag` labels the golden tape in failure details.
Status diff_tape(const exec::TapeKernel& k, const exec::Program& prog,
                 const char* tag, TapeTestRng& rng, bool& fault_pending) {
    const char* name = exec::backend_name(k.backend);
    const exec::TapeView tape = prog.tape_view();
    const auto n_in = static_cast<std::size_t>(prog.input_count());
    const auto n_out = static_cast<std::size_t>(prog.output_count());
    exec::Program::Scratch ref_scratch;
    exec::Program::Scratch got_scratch;
    std::vector<std::uint64_t> in;
    std::vector<std::uint64_t> want;
    std::vector<std::uint64_t> got;
    for (int blocks = 1; blocks <= exec::Program::kMaxBlocks; ++blocks) {
        in.resize(n_in * blocks);
        want.assign(n_out * blocks, 0);
        got.assign(n_out * blocks, 0);
        for (auto& w : in) {
            w = rng();
        }
        const auto lanes = static_cast<std::size_t>(k.word_lanes);
        const std::size_t stride =
            (static_cast<std::size_t>(blocks) + lanes - 1) / lanes * lanes;
        ref_scratch.ensure(static_cast<std::size_t>(blocks) * tape.slot_count);
        got_scratch.ensure(stride * tape.slot_count);
        exec::kTapeScalar.run(tape, in.data(), want.data(), ref_scratch.data(),
                              blocks);
        k.run(tape, in.data(), got.data(), got_scratch.data(), blocks);
        if (fault_pending) {
            got[0] ^= 1;  // forced fault: corrupt one output lane
            fault_pending = false;
        }
        for (std::size_t i = 0; i < n_out * blocks; ++i) {
            if (got[i] != want[i]) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "%s tape mismatch on %s at blocks=%d block=%zu "
                              "output=%zu: got 0x%llx want 0x%llx",
                              name, tag, blocks, i / n_out, i % n_out,
                              static_cast<unsigned long long>(got[i]),
                              static_cast<unsigned long long>(want[i]));
                return Status::fail(Fault::KernelSelfTest, buf);
            }
        }
    }
    return Status::good();
}

/// Local lane-product reference for the oracle screen: schoolbook partials
/// plus the view's reduction columns, written independently here on
/// purpose — the guard tier must not certify the sweep oracle against the
/// very code it screens.
void screen_lane_products(const exec::SweepOracleView& ov,
                          const std::uint64_t* a, const std::uint64_t* b,
                          std::uint64_t* want) {
    const auto m = static_cast<std::size_t>(ov.m);
    std::vector<std::uint64_t> d(2 * m - 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            d[i + j] ^= a[i] & b[j];
        }
    }
    for (std::size_t k = 0; k < m; ++k) {
        std::uint64_t c = d[k];
        for (std::int32_t t = ov.red_offsets[k]; t < ov.red_offsets[k + 1];
             ++t) {
            c ^= d[m + static_cast<std::size_t>(ov.red_indices[t])];
        }
        want[k] = c;
    }
}

/// Screen the candidate's fused sweep oracle against the scalar rung on a
/// synthetic reduction structure at degree `m` (any column support
/// exercises the math — no field needed), every block width: the true
/// product must report all-clean, one flipped got-bit must flag exactly its
/// block, and on fully random got-words the diff words must match the
/// scalar rung bit-exactly.
Status diff_oracle(const exec::TapeKernel& k, int m, TapeTestRng& rng,
                   bool& fault_pending) {
    const char* name = exec::backend_name(k.backend);
    std::vector<std::int32_t> red_indices;
    std::vector<std::int32_t> red_offsets{0};
    for (int c = 0; c < m; ++c) {
        const int count = static_cast<int>(rng() % 4);
        for (int t = 0; t < count; ++t) {
            red_indices.push_back(
                static_cast<std::int32_t>(rng() % static_cast<unsigned>(m - 1)));
        }
        red_offsets.push_back(static_cast<std::int32_t>(red_indices.size()));
    }
    const exec::SweepOracleView ov{red_indices.data(), red_offsets.data(), m};

    const auto mz = static_cast<std::size_t>(m);
    std::vector<std::uint64_t> in;
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> dwork(8 * mz + 64);
    std::vector<std::uint64_t> diff_got(exec::Program::kMaxBlocks);
    std::vector<std::uint64_t> diff_want(exec::Program::kMaxBlocks);
    for (int blocks = 1; blocks <= exec::Program::kMaxBlocks; ++blocks) {
        in.resize(2 * mz * blocks);
        got.resize(mz * blocks);
        for (auto& w : in) {
            w = rng();
        }
        for (int b = 0; b < blocks; ++b) {
            screen_lane_products(ov, in.data() + 2 * mz * b,
                                 in.data() + 2 * mz * b + mz,
                                 got.data() + mz * b);
        }
        const int flip_block = static_cast<int>(rng() % static_cast<unsigned>(blocks));
        for (int phase = 0; phase < 3; ++phase) {
            if (phase == 1) {
                got[mz * flip_block + rng() % mz] ^= std::uint64_t{1}
                                                    << (rng() % 64);
            } else if (phase == 2) {
                for (auto& w : got) {
                    w = rng();
                }
            }
            k.oracle(ov, in.data(), got.data(), diff_got.data(), dwork.data(),
                     blocks);
            if (fault_pending) {
                diff_got[0] ^= 1;  // forced fault: corrupt one diff word
                fault_pending = false;
            }
            exec::kTapeScalar.oracle(ov, in.data(), got.data(),
                                     diff_want.data(), dwork.data(), blocks);
            for (int b = 0; b < blocks; ++b) {
                if (diff_got[b] != diff_want[b]) {
                    char buf[160];
                    std::snprintf(
                        buf, sizeof buf,
                        "%s sweep-oracle mismatch at m=%d blocks=%d block=%d "
                        "phase=%d: got 0x%llx want 0x%llx",
                        name, m, blocks, b, phase,
                        static_cast<unsigned long long>(diff_got[b]),
                        static_cast<unsigned long long>(diff_want[b]));
                    return Status::fail(Fault::KernelSelfTest, buf);
                }
            }
            // Cross-check the scalar rung's own semantics while we are
            // here: the true product is all-clean and the flipped bit
            // flags exactly its block.
            if (phase == 0 || phase == 1) {
                for (int b = 0; b < blocks; ++b) {
                    const bool want_flag = phase == 1 && b == flip_block;
                    if ((diff_want[b] != 0) != want_flag) {
                        char buf[160];
                        std::snprintf(buf, sizeof buf,
                                      "scalar sweep-oracle semantics broken at "
                                      "m=%d blocks=%d block=%d phase=%d",
                                      m, blocks, b, phase);
                        return Status::fail(Fault::KernelSelfTest, buf);
                    }
                }
            }
        }
    }
    return Status::good();
}

}  // namespace

Status selftest_tape_kernel(const exec::TapeKernel& k, bool force_fault) {
    if (k.run == nullptr || k.oracle == nullptr) {
        return Status::fail(Fault::KernelSelfTest,
                            std::string{exec::backend_name(k.backend)} +
                                " tape kernel: null entry point");
    }
    TapeTestRng rng{0x7A9EC0DEULL ^ static_cast<std::uint64_t>(k.backend)};
    bool fault_pending = force_fault;
    const exec::Program netlist_tape = golden_netlist_tape();
    if (Status s = diff_tape(k, netlist_tape, "netlist", rng, fault_pending);
        !s.ok()) {
        return s;
    }
    const exec::Program lut_tape = golden_lut_tape();
    if (Status s = diff_tape(k, lut_tape, "lut", rng, fault_pending);
        !s.ok()) {
        return s;
    }
    // The fused sweep oracle rides the same rung: screen it at a degree
    // with full vector rows (8), a ragged tail (13), and a sub-vector
    // width (5), so no masked path ships unchecked.
    for (const int m : {8, 13, 5}) {
        if (Status s = diff_oracle(k, m, rng, fault_pending); !s.ok()) {
            return s;
        }
    }
    return Status::good();
}

const std::vector<Quarantine>& exec_quarantine_report() {
    return exec::dispatch().quarantined;
}

}  // namespace gfr::guard
