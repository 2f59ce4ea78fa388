// Figure 6: speedup of WLO-SLP over the original single-precision
// floating-point version, on XENTIUM (soft-float emulation) and ST240
// (hardware FP), for FIR / IIR / CONV across accuracy constraints.
// The grid extends to -70 dB (beyond the paper's Fig. 6 -45 dB) because the
// analytical noise floors of this implementation sit lower than the
// paper's, shifting the speedup decay toward stricter constraints
// (EXPERIMENTS.md discusses the offset).
//
// Paper shapes: an order-of-magnitude speedup band on XENTIUM (15-45x in
// the paper; soft-float emulation dominates) versus a modest >1x on ST240
// (hardware FP; the gain comes from SIMD alone).
#include <algorithm>

#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

int main(int argc, char** argv) {
    print_header("Fig. 6 — WLO-SLP speedup over floating point",
                 "DATE'17 Figure 6");

    const std::vector<TargetModel> figure_targets{targets::xentium(),
                                                  targets::st240()};

    // Float references: one point per (kernel, target); the constraint is
    // irrelevant to the float lowering.
    std::vector<SweepPoint> float_points;
    for (const TargetModel& target : figure_targets) {
        for (const std::string& k : kernels::paper_kernel_names()) {
            float_points.push_back({k, target.name, "Float", 0.0, {}, {}, {}});
        }
    }
    const std::vector<SweepResult> float_results = driver().run(float_points);

    // The WLO-SLP grid, target-major in print order.
    std::vector<SweepPoint> points;
    for (const TargetModel& target : figure_targets) {
        for (const double a : constraint_grid(-5.0, -70.0)) {
            for (const std::string& k : kernels::paper_kernel_names()) {
                points.push_back({k, target.name, "WLO-SLP", a, {}, {}, {}});
            }
        }
    }
    const std::vector<SweepResult> results = driver().run(points);

    double xentium_min = 1e9, xentium_max = 0.0;
    double st240_min = 1e9, st240_max = 0.0;

    size_t i = 0;
    size_t float_index = 0;
    for (const TargetModel& target : figure_targets) {
        std::printf("\n-- %s (float: %s) --\n", target.name.c_str(),
                    target.fp.hardware ? "hardware" : "soft-float");
        std::printf("%8s", "A(dB)");
        for (const std::string& k : kernels::paper_kernel_names()) {
            std::printf(" %9s", k.c_str());
        }
        std::printf("\n");
        const size_t float_base = float_index;
        float_index += kernels::paper_kernel_names().size();
        for (const double a : constraint_grid(-5.0, -70.0)) {
            std::printf("%8.0f", a);
            for (size_t k = 0; k < kernels::paper_kernel_names().size(); ++k) {
                const long long fc =
                    float_results[float_base + k].flow.simd_cycles;
                const FlowResult& slp = results[i++].flow;
                const double s = speedup(fc, slp.simd_cycles);
                std::printf(" %9.2f", s);
                if (target.fp.hardware) {
                    st240_min = std::min(st240_min, s);
                    st240_max = std::max(st240_max, s);
                } else {
                    xentium_min = std::min(xentium_min, s);
                    xentium_max = std::max(xentium_max, s);
                }
            }
            std::printf("\n");
        }
    }

    std::printf("\n=== Fig. 6 summary ===\n");
    std::printf("XENTIUM speedup band: %.1fx .. %.1fx (paper: 15x .. 45x)\n",
                xentium_min, xentium_max);
    std::printf("ST240   speedup band: %.2fx .. %.2fx (paper: ~0.9x .. 1.4x)\n",
                st240_min, st240_max);
    // Emit the float references too: the speedups are only reproducible
    // from the JSON with both sides present.
    std::vector<SweepResult> all = float_results;
    all.insert(all.end(), results.begin(), results.end());
    maybe_emit_json(argc, argv, all);
    return 0;
}
