// Figure 4: speedup of the SIMD versions of WLO-First and WLO-SLP over the
// scalar fixed-point baseline (the WLO-First spec without SIMD), as a
// function of the accuracy constraint, for every benchmark on every target.
//
// Paper shapes this harness regenerates:
//  * WLO-SLP dominates WLO-First at (nearly) every point;
//  * WLO-First varies erratically and degrades below 1.0 at some points;
//  * higher-ILP targets (VEX-4) gain less from SIMD than VEX-1.
#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

int main(int argc, char** argv) {
    print_header("Fig. 4 — SIMD speedup vs accuracy constraint",
                 "DATE'17 Figure 4 (3 benchmarks x 4 targets)");

    // Build the grid in print order: kernel-major, then target, then the
    // constraint axis, with both flows per point.
    std::vector<SweepPoint> points;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : targets::paper_targets()) {
            for (const double a : constraint_grid()) {
                points.push_back(
                    {kernel_name, target.name, "WLO-First", a, {}, {}, {}});
                points.push_back(
                    {kernel_name, target.name, "WLO-SLP", a, {}, {}, {}});
            }
        }
    }
    const std::vector<SweepResult> results = driver().run(points);

    int points_seen = 0;
    int slp_wins_or_ties = 0;
    int first_below_one = 0;

    size_t i = 0;
    for (const std::string& kernel_name : kernels::paper_kernel_names()) {
        for (const TargetModel& target : targets::paper_targets()) {
            std::printf("\n-- %s on %s --\n", kernel_name.c_str(),
                        target.name.c_str());
            std::printf("%8s %12s %12s %14s %14s\n", "A(dB)", "WLO-First",
                        "WLO-SLP", "first-groups", "slp-groups");
            for (const double a : constraint_grid()) {
                const FlowResult& first = results[i++].flow;
                const FlowResult& slp = results[i++].flow;
                const double speedup_first =
                    speedup(first.scalar_cycles, first.simd_cycles);
                const double speedup_slp =
                    speedup(first.scalar_cycles, slp.simd_cycles);
                std::printf("%8.0f %12.3f %12.3f %14d %14d\n", a,
                            speedup_first, speedup_slp, first.group_count,
                            slp.group_count);
                points_seen++;
                if (speedup_slp >= speedup_first - 1e-9) slp_wins_or_ties++;
                if (speedup_first < 1.0 - 1e-9) first_below_one++;
            }
        }
    }

    std::printf("\n=== Fig. 4 summary ===\n");
    std::printf("points: %d\n", points_seen);
    std::printf("WLO-SLP >= WLO-First: %d/%d (paper: nearly all)\n",
                slp_wins_or_ties, points_seen);
    std::printf("WLO-First below 1.0x: %d (paper: frequent degradation)\n",
                first_below_one);
    maybe_emit_json(argc, argv, results);
    return 0;
}
