// Table I: cycle counts of the SIMD versions for FIR on XENTIUM, ST240 and
// VEX-4 across accuracy constraints {-5,-15,-25,-35,-45,-55,-65} dB.
//
// Paper shape: WLO-SLP's cycle count increases monotonically as the
// constraint tightens (accuracy is traded for performance in an orderly
// way), while WLO-First's "varies randomly".
#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

int main(int argc, char** argv) {
    print_header("Table I — FIR SIMD cycle counts", "DATE'17 Table I");

    const std::vector<double> constraints{-5, -15, -25, -35, -45, -55, -65};
    const std::vector<TargetModel> table_targets{
        targets::xentium(), targets::st240(), targets::vex4()};

    std::vector<SweepPoint> points;
    for (const TargetModel& target : table_targets) {
        for (const double a : constraints) {
            points.push_back({"FIR", target.name, "WLO-First", a, {}, {}, {}});
            points.push_back({"FIR", target.name, "WLO-SLP", a, {}, {}, {}});
        }
    }
    const std::vector<SweepResult> results = driver().run(points);

    std::printf("%-8s %-10s", "Target", "Flow");
    for (const double a : constraints) std::printf(" %9.0f", a);
    std::printf("\n");

    bool monotone = true;
    size_t i = 0;
    for (const TargetModel& target : table_targets) {
        std::vector<long long> first_cycles, slp_cycles;
        for (size_t c = 0; c < constraints.size(); ++c) {
            first_cycles.push_back(results[i++].flow.simd_cycles);
            slp_cycles.push_back(results[i++].flow.simd_cycles);
        }
        std::printf("%-8s %-10s", target.name.c_str(), "WLO-First");
        for (const long long c : first_cycles) std::printf(" %9lld", c);
        std::printf("\n%-8s %-10s", "", "WLO-SLP");
        for (const long long c : slp_cycles) std::printf(" %9lld", c);
        std::printf("\n");
        for (size_t j = 1; j < slp_cycles.size(); ++j) {
            // The paper's own Table I dips slightly (645128 -> 626696 on
            // VEX-4); require monotone up to a 12% tolerance.
            if (static_cast<double>(slp_cycles[j]) <
                0.88 * static_cast<double>(slp_cycles[j - 1])) {
                monotone = false;
            }
        }
    }

    std::printf("\n=== Table I summary ===\n");
    std::printf("WLO-SLP cycles monotone non-decreasing (12%% tolerance) with stricter A: %s "
                "(paper: yes)\n",
                monotone ? "yes" : "NO");
    std::printf("note: absolute counts are from the repository's VLIW timing "
                "model, not the vendor simulators (see DESIGN.md)\n");
    maybe_emit_json(argc, argv, results);
    return 0;
}
