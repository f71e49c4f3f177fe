// "Reconfigurable" in practice: a multiplier bank holding mapped LUT
// networks for several type II fields, hot-swapped at runtime the way a
// partially-reconfigurable FPGA region would be re-programmed.  One driver
// multiplies operands in whichever field is currently loaded.
//
// Each configuration's LUT network is compiled once at load time into an
// exec::Program tape (the "bitstream" of this software model); the active
// multiply executes the compiled tape, not a per-LUT interpretation.

#include "exec/program.h"
#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "opt/opt.h"

#include <cstdio>
#include <map>
#include <random>
#include <string>

namespace {

using namespace gfr;

/// One "bitstream": the mapped multiplier, its compiled tape, and its field
/// for verification.
struct Configuration {
    field::Field field;
    fpga::LutNetwork network;
    exec::Program program;  ///< compiled at load, executed per multiply
    int luts = 0;
    double ns = 0;
};

class ReconfigurableMultiplier {
public:
    void load(const std::string& name, Configuration cfg) {
        configs_.insert_or_assign(name, std::move(cfg));
    }

    /// "Partial reconfiguration": swap the active configuration.
    void activate(const std::string& name) { active_ = name; }

    [[nodiscard]] const Configuration& active() const { return configs_.at(active_); }

    /// Multiply through the active configuration's compiled tape (one
    /// lane).  The caller owns the execution scratch — the same discipline
    /// as Program::run itself — so the bank stays shareable across threads.
    [[nodiscard]] field::Field::Element mul(const field::Field::Element& a,
                                            const field::Field::Element& b,
                                            exec::Program::Scratch& scratch) const {
        const auto& cfg = active();
        const int m = cfg.field.degree();
        std::vector<std::uint64_t> in(static_cast<std::size_t>(2 * m), 0);
        for (int i = 0; i < m; ++i) {
            in[static_cast<std::size_t>(i)] = a.coeff(i) ? 1 : 0;
            in[static_cast<std::size_t>(m + i)] = b.coeff(i) ? 1 : 0;
        }
        std::vector<std::uint64_t> out(static_cast<std::size_t>(m), 0);
        cfg.program.run(in, out, scratch);
        field::Field::Element c;
        for (int k = 0; k < m; ++k) {
            if (out[static_cast<std::size_t>(k)] & 1U) {
                c.set_coeff(k, true);
            }
        }
        return c;
    }

private:
    std::map<std::string, Configuration> configs_;
    std::string active_;
};

}  // namespace

int main() {
    ReconfigurableMultiplier bank;

    // Build configurations for three fields of Table V.
    for (const auto& spec : {field::FieldSpec{8, 2, ""}, field::FieldSpec{64, 23, ""},
                             field::FieldSpec{113, 4, "SECG"}}) {
        field::Field fld = spec.make();
        const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
        const auto raw_gates = nl.stats().gates();
        // Run the campaign-gated optimization pipeline before mapping: each
        // "bitstream" is built from the optimized netlist, never the raw one.
        const auto optimized = opt::optimize(nl);
        fpga::FlowOptions opts;
        opts.synthesis_freedom = true;
        auto flow = fpga::run_flow(optimized.netlist, opts);
        auto program = exec::Program::compile(flow.network);
        std::printf(
            "built configuration %-14s: %5d LUTs, %.2f ns  "
            "(opt: %lld -> %lld gates; tape: %zu insns, %u slots)\n",
            spec.label().c_str(), flow.luts, flow.delay_ns,
            static_cast<long long>(raw_gates),
            static_cast<long long>(flow.gate_stats.gates()),
            program.instruction_count(), program.slot_count());
        bank.load(spec.label(),
                  Configuration{std::move(fld), std::move(flow.network),
                                std::move(program), flow.luts, flow.delay_ns});
    }

    // Swap configurations at runtime and multiply in each field.
    std::mt19937_64 rng{1234};
    exec::Program::Scratch scratch;  // this driver's execution scratch
    bool all_ok = true;
    for (const std::string name : {"(8,2)", "(64,23)", "(113,4) SECG"}) {
        bank.activate(name);
        const auto& fld = bank.active().field;
        int pass = 0;
        constexpr int kTrials = 25;
        for (int t = 0; t < kTrials; ++t) {
            const auto a = fld.random_element(rng);
            const auto b = fld.random_element(rng);
            if (bank.mul(a, b, scratch) == fld.mul(a, b)) {
                ++pass;
            }
        }
        all_ok = all_ok && pass == kTrials;
        std::printf("active %-14s: %d/%d products match reference arithmetic\n",
                    name.c_str(), pass, kTrials);
    }
    std::printf("reconfigurable bank: %s\n", all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
}
