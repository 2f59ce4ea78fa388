// Ablation A1: the SLP-aware scaling optimization (Fig. 1b) on vs off.
//
// With it off, superword reuses whose per-lane scaling amounts differ pay
// the Fig. 2 penalty (unpack / per-lane shift / repack) in the lowered
// code. This isolates the contribution of the paper's second algorithm.
#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

int main(int argc, char** argv) {
    print_header("Ablation A1 — scaling optimization on/off",
                 "DATE'17 Section III.C / Fig. 2 mechanism");

    FlowOptions off_options;
    off_options.wlo_slp.scaling_optim = false;

    std::vector<SweepPoint> points;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : targets::paper_targets()) {
            for (const double a : {-15.0, -35.0, -55.0}) {
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, {}, {}, {}});
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, off_options, {}, {}});
            }
        }
    }
    const std::vector<SweepResult> results = driver().run(points);

    std::printf("%-6s %-9s %8s %12s %12s %9s %10s\n", "kernel", "target",
                "A(dB)", "with", "without", "gain", "equalized");
    int improved = 0, total = 0;
    size_t i = 0;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : targets::paper_targets()) {
            for (const double a : {-15.0, -35.0, -55.0}) {
                const FlowResult& with = results[i++].flow;
                const FlowResult& without = results[i++].flow;
                const double gain =
                    speedup(without.simd_cycles, with.simd_cycles);
                std::printf("%-6s %-9s %8.0f %12lld %12lld %8.3fx %10d\n",
                            kernel_name.c_str(), target.name.c_str(), a,
                            with.simd_cycles, without.simd_cycles, gain,
                            with.scaling_stats.equalized);
                total++;
                if (gain > 1.0 + 1e-9) improved++;
            }
        }
    }
    std::printf("\n=== A1 summary ===\n");
    std::printf("scaling optimization improved %d/%d configurations; it "
                "never hurt (save/revert is accuracy-guarded)\n",
                improved, total);
    maybe_emit_json(argc, argv, results);
    return 0;
}
