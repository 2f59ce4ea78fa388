// Ablation A2: the accuracy-awareness of the extraction (Fig. 1c) —
// accuracy-conflict detection and the strict per-selection feasibility
// recheck — on vs off.
//
// With both off, the extractor still applies equation (1) WL reductions
// but never consults the evaluator during selection: the final spec can
// then violate the accuracy constraint (measured with the analytical
// evaluator), which is exactly why the paper couples the two.
#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

int main(int argc, char** argv) {
    print_header("Ablation A2 — accuracy-aware extraction on/off",
                 "DATE'17 Fig. 1c lines 6-25");

    FlowOptions blind_options;
    blind_options.wlo_slp.accuracy_conflicts = false;
    blind_options.wlo_slp.strict_feasibility = false;

    const std::vector<TargetModel> ablation_targets{targets::xentium(),
                                                    targets::vex4()};
    std::vector<SweepPoint> points;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : ablation_targets) {
            for (const double a : {-25.0, -45.0, -65.0}) {
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, {}, {}, {}});
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, blind_options, {}, {}});
            }
        }
    }
    const std::vector<SweepResult> results = driver().run(points);

    std::printf("%-6s %-9s %8s | %10s %10s | %10s %10s %9s\n", "kernel",
                "target", "A(dB)", "aware-n", "aware-ok", "blind-n",
                "blind-ok", "blind-g");
    int blind_violations = 0, aware_violations = 0, total = 0;
    size_t i = 0;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : ablation_targets) {
            for (const double a : {-25.0, -45.0, -65.0}) {
                const FlowResult& with = results[i++].flow;
                const FlowResult& without = results[i++].flow;
                const bool aware_ok = with.analytic_noise_db <= a + 1e-9;
                const bool blind_ok = without.analytic_noise_db <= a + 1e-9;
                std::printf("%-6s %-9s %8.0f | %10.1f %10s | %10.1f %10s "
                            "%9d\n",
                            kernel_name.c_str(), target.name.c_str(), a,
                            with.analytic_noise_db, aware_ok ? "yes" : "NO",
                            without.analytic_noise_db,
                            blind_ok ? "yes" : "VIOLATED",
                            without.group_count);
                total++;
                if (!blind_ok) blind_violations++;
                if (!aware_ok) aware_violations++;
            }
        }
    }
    std::printf("\n=== A2 summary ===\n");
    std::printf("constraint violations: aware %d/%d, blind %d/%d\n",
                aware_violations, total, blind_violations, total);
    std::printf("(the aware flow must never violate; the blind flow "
                "over-commits WL reductions at strict constraints)\n");
    maybe_emit_json(argc, argv, results);
    return 0;
}
