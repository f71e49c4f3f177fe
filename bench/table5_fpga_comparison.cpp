// Reproduces TABLE V of the paper: "Comparison of GF(2^m) multipliers" —
// post-place-and-route LUTs / Slices / Time (ns) / Area x Time on Artix-7
// for six architectures across nine type II fields.
//
// Our numbers come from the full model flow (README, "FPGA flow (Table
// V)"): generator -> (synthesis freedom for "This work" only, exactly like
// the paper gives XST freedom only over the flat Table IV equations) ->
// priority-cuts 6-LUT mapping -> slice packing -> calibrated timing.  The paper's measured
// values are printed alongside.  The reproduction target is the SHAPE:
// which method wins A x T per field, and how area/delay scale with m.
//
// Set GFR_TABLE5_FAST=1 to run only the two smallest fields (CI-speed).

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "report/table.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace {

struct PaperRow {
    int luts;
    int slices;
    double ns;
    double axt;
};

// Verbatim Table V from the paper, keyed by (field label, method display).
const std::map<std::string, std::map<std::string, PaperRow>>& paper_table5() {
    static const std::map<std::string, std::map<std::string, PaperRow>> data = {
        {"(8,2)",
         {{"[2]", {34, 11, 9.86, 335.24}},
          {"[8]", {35, 14, 9.62, 336.70}},
          {"[3]", {35, 13, 10.10, 353.50}},
          {"[6]", {37, 14, 9.68, 358.16}},
          {"[7]", {40, 13, 9.90, 396.00}},
          {"This work", {33, 12, 9.77, 322.41}}}},
        {"(64,23)",
         {{"[2]", {1836, 586, 22.63, 41548.68}},
          {"[8]", {1794, 585, 20.37, 36543.78}},
          {"[3]", {1749, 566, 20.91, 36571.59}},
          {"[6]", {1825, 580, 20.21, 36883.25}},
          {"[7]", {1854, 642, 21.28, 39453.12}},
          {"This work", {1769, 541, 20.18, 35698.42}}}},
        {"(113,4) SECG",
         {{"[2]", {5747, 2672, 21.39, 122928.33}},
          {"[8]", {5501, 2864, 23.29, 128118.29}},
          {"[3]", {5424, 2637, 21.77, 118080.48}},
          {"[6]", {5778, 2469, 21.28, 122955.84}},
          {"[7]", {5944, 2115, 21.30, 126607.20}},
          {"This work", {5420, 2571, 20.94, 113494.80}}}},
        {"(113,34) SECG",
         {{"[2]", {5560, 2849, 23.58, 131104.80}},
          {"[8]", {5505, 2682, 23.38, 128706.90}},
          {"[3]", {5445, 2563, 20.84, 113473.80}},
          {"[6]", {5813, 2361, 20.36, 118352.68}},
          {"[7]", {5909, 2073, 21.73, 128402.57}},
          {"This work", {5474, 2507, 21.59, 118183.66}}}},
        {"(122,49)",
         {{"[2]", {6487, 3122, 23.47, 152249.89}},
          {"[8]", {6420, 3045, 23.75, 152475.00}},
          {"[3]", {6305, 2024, 21.15, 133350.75}},
          {"[6]", {6834, 2287, 21.83, 149186.22}},
          {"[7]", {6858, 1992, 21.86, 149915.88}},
          {"This work", {6361, 1951, 20.95, 133262.95}}}},
        {"(139,59)",
         {{"[2]", {8370, 3511, 23.54, 197029.80}},
          {"[8]", {8301, 3915, 23.77, 197314.77}},
          {"[3]", {8139, 2657, 21.63, 176046.57}},
          {"[6]", {8900, 2960, 22.29, 198381.00}},
          {"[7]", {8998, 3031, 21.55, 193906.90}},
          {"This work", {8222, 2543, 21.35, 175539.70}}}},
        {"(148,72)",
         {{"[2]", {9466, 3888, 25.27, 239205.82}},
          {"[8]", {9406, 3804, 23.91, 224897.46}},
          {"[3]", {9252, 3156, 21.98, 203358.96}},
          {"[6]", {9996, 3329, 22.40, 223910.40}},
          {"[7]", {9943, 3112, 22.31, 221828.33}},
          {"This work", {9314, 3104, 21.76, 202672.64}}}},
        {"(163,66) NIST",
         {{"[2]", {11425, 4053, 25.20, 287910.00}},
          {"[8]", {11379, 4433, 23.52, 267634.08}},
          {"[3]", {11179, 3361, 23.66, 264495.14}},
          {"[6]", {12155, 4056, 22.48, 273244.40}},
          {"[7]", {12293, 4015, 22.95, 282124.35}},
          {"This work", {11295, 3621, 22.77, 257187.15}}}},
        {"(163,68) NIST",
         {{"[2]", {11422, 4205, 24.20, 276412.40}},
          {"[8]", {11379, 4349, 24.01, 273209.79}},
          {"[3]", {11172, 3105, 22.40, 250252.80}},
          {"[6]", {12187, 3876, 22.83, 278229.91}},
          {"[7]", {12334, 4430, 23.82, 293795.88}},
          {"This work", {11330, 3697, 22.39, 253678.70}}}},
    };
    return data;
}

}  // namespace

int main() {
    using namespace gfr;

    const bool fast = std::getenv("GFR_TABLE5_FAST") != nullptr;
    std::puts("=== TABLE V: comparison of GF(2^m) multipliers ===");
    std::puts("measured = this library's model flow; paper = Imana DATE 2018, Artix-7\n");

    int fields_done = 0;
    int measured_wins_for_this_work = 0;
    int paper_wins_for_this_work = 0;

    for (const auto& spec : field::table5_fields()) {
        if (fast && fields_done >= 2) {
            break;
        }
        ++fields_done;
        const field::Field fld = spec.make();
        const auto& paper_rows = paper_table5().at(spec.label());

        report::TextTable t{{"method", "LUTs", "Slices", "ns", "AxT", "paper LUTs",
                             "paper Slices", "paper ns", "paper AxT"}};
        std::string best_method;
        double best_axt = 1e100;
        std::string paper_best_method;
        double paper_best_axt = 1e100;

        for (const auto& info : mult::all_methods()) {
            if (!info.in_table5) {
                continue;
            }
            const auto nl = mult::build_multiplier(info.method, fld);
            fpga::FlowOptions opts;
            opts.synthesis_freedom = info.synthesis_freedom;
            const auto r = fpga::run_flow(nl, opts);
            const auto& p = paper_rows.at(std::string{info.display});
            t.add_row({std::string{info.display}, std::to_string(r.luts),
                       std::to_string(r.slices), report::fmt(r.delay_ns, 2),
                       report::fmt(r.area_time, 2), std::to_string(p.luts),
                       std::to_string(p.slices), report::fmt(p.ns, 2),
                       report::fmt(p.axt, 2)});
            if (r.area_time < best_axt) {
                best_axt = r.area_time;
                best_method = std::string{info.display};
            }
            if (p.axt < paper_best_axt) {
                paper_best_axt = p.axt;
                paper_best_method = std::string{info.display};
            }
        }
        std::printf("--- field %s ---\n%s", spec.label().c_str(), t.render().c_str());
        std::printf("best AxT: measured -> %s ; paper -> %s\n\n", best_method.c_str(),
                    paper_best_method.c_str());
        if (best_method == "This work") {
            ++measured_wins_for_this_work;
        }
        if (paper_best_method == "This work") {
            ++paper_wins_for_this_work;
        }
    }

    std::printf(
        "SUMMARY: 'This work' wins AxT in %d/%d measured fields "
        "(paper: %d/%d — all but (113,34) and (163,68), where [3] wins).\n",
        measured_wins_for_this_work, fields_done, paper_wins_for_this_work, fields_done);
    return 0;
}
