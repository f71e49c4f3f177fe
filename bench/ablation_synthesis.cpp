// Ablation bench for four design choices of the Table V flow (README, "FPGA
// flow (Table V)"):
//   1. flat vs. parenthesised netlist under ONE mapper (the paper's claim),
//   2. XOR-pair extraction (sharing) on/off,
//   3. XOR-tree balancing on/off,
//   4. mapper area recovery on/off.
// Run on (8,2) and (64,23) so effects are visible at both scales.

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "report/table.h"

#include <cstdio>

namespace {

void run_field(int m, int n) {
    using namespace gfr;
    const field::Field fld = field::Field::type2(m, n);
    std::printf("--- ablation at (m,n) = (%d,%d) ---\n", m, n);

    report::TextTable t{{"config", "gate XORs", "gate depth", "LUTs", "LUT depth",
                         "ns", "AxT"}};

    struct Config {
        const char* name;
        mult::Method method;
        bool freedom;
        bool flatten;
        bool extract;
        bool balance;
        bool area_recovery;
    };
    const Config configs[] = {
        {"[7] paren, as-given", mult::Method::Imana2016Paren, false, false, false, false,
         true},
        {"flat, as-given (no synth)", mult::Method::Date2018Flat, false, false, false,
         false, true},
        {"flat + balance only", mult::Method::Date2018Flat, true, false, false, true,
         true},
        {"flat + CSE + balance", mult::Method::Date2018Flat, true, false, true, true,
         true},
        {"flat + ANF flatten (default)", mult::Method::Date2018Flat, true, true, false,
         true, true},
        {"flat + flatten, no area rec", mult::Method::Date2018Flat, true, true, false,
         true, false},
    };

    for (const auto& cfg : configs) {
        const auto nl = mult::build_multiplier(cfg.method, fld);
        fpga::FlowOptions opts;
        opts.synthesis_freedom = cfg.freedom;
        opts.strategy_search = false;  // ablate one fixed pipeline at a time
        opts.synth.flatten_anf = cfg.flatten;
        opts.synth.extract_pairs = cfg.extract;
        opts.synth.balance = cfg.balance;
        opts.mapper.area_recovery = cfg.area_recovery;
        const auto r = fpga::run_flow(nl, opts);
        t.add_row({cfg.name, std::to_string(r.gate_stats.n_xor),
                   std::to_string(r.gate_stats.xor_depth), std::to_string(r.luts),
                   std::to_string(r.lut_depth), report::fmt(r.delay_ns, 2),
                   report::fmt(r.area_time, 2)});
    }
    std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main() {
    std::puts("=== Ablation: what 'synthesis freedom' buys ===\n");
    run_field(8, 2);
    run_field(64, 23);
    std::puts("Reading: the paper's claim is the gap between '[7] paren, as-given'");
    std::puts("and 'flat + ANF flatten (default)' — same algebra, different freedom.");
    return 0;
}
