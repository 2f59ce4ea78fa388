// Ablation A3: the group-selection benefit heuristic.
//
//  * ReuseOverCost — the paper's (Liu'12) ratio of enabled superword reuse
//    to packing/unpacking cost;
//  * SavingsOnly   — reuse-blind: instruction savings minus overhead ops;
//  * no profitability floor (min_benefit = 0) — reproduces the paper's
//    deliberately filter-free CONV configuration (Section V.D), where a
//    selected solution may degrade performance.
#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

int main(int argc, char** argv) {
    print_header("Ablation A3 — benefit heuristic variants",
                 "DATE'17 Section V.D / Liu'12 heuristic");

    FlowOptions savings_options;
    savings_options.wlo_slp.slp.benefit_mode = BenefitMode::SavingsOnly;
    FlowOptions no_floor_options;
    no_floor_options.wlo_slp.slp.min_benefit = 0.0;

    const std::vector<TargetModel> ablation_targets{targets::xentium(),
                                                    targets::vex1()};
    std::vector<SweepPoint> points;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : ablation_targets) {
            for (const double a : {-15.0, -45.0}) {
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, {}, {}, {}});
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, savings_options, {}, {}});
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, no_floor_options, {}, {}});
            }
        }
    }
    const std::vector<SweepResult> results = driver().run(points);

    std::printf("%-6s %-9s %8s %12s %12s %12s\n", "kernel", "target", "A(dB)",
                "reuse/cost", "savings", "no-floor");
    size_t i = 0;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : ablation_targets) {
            for (const double a : {-15.0, -45.0}) {
                const long long c0 = results[i++].flow.simd_cycles;
                const long long c1 = results[i++].flow.simd_cycles;
                const long long c2 = results[i++].flow.simd_cycles;
                std::printf("%-6s %-9s %8.0f %12lld %12lld %12lld\n",
                            kernel_name.c_str(), target.name.c_str(), a, c0,
                            c1, c2);
            }
        }
    }
    std::printf("\n=== A3 summary ===\n");
    std::printf("reuse/cost is the default; no-floor shows the paper's "
                "filter-free behaviour (occasionally slower solutions, as "
                "in their CONV-on-XENTIUM observation)\n");
    maybe_emit_json(argc, argv, results);
    return 0;
}
