// slpwlo end-to-end benchmark program.
//
//   slpwlo_perfbench --workload cold_queries|design_sweep|measured_sweep
//                    --seed N --seconds S --trace 0|1
//                    [--corpus DIR] [--scratch DIR] [--trace-out FILE]
//                    [--report FILE] [--commit ID]
//
// Prints a table of every metric with its unit and better-direction, then,
// as the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. An untraced run reports the gated end-to-end metrics; a
// traced run (--trace 1) reports the per-layer metrics. Exits 1 when any
// answer failed a check, 2 when the run could not be set up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/toolchain.hpp"
#include "flow/report.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Metric {
    std::string name;
    std::string unit;
    std::string better;
    double value = 0.0;
    bool defined = true;  ///< false: does not apply to this workload
    bool gated = false;   ///< listed under end_to_end in BENCHMARK.json
};

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
    return values[std::max<size_t>(rank, 1) - 1];
}

/// p99 of the points: for the sweeps, the median over rounds of each
/// round's p99. A tail over a whole run is set by its slowest few
/// seconds, which a host's drifting speed decides; each round is one
/// whole sweep, and the median leaves a slow round out.
double point_p99(const RunResult& r) {
    if (r.round_ends.empty()) return percentile(r.point_ms, 0.99);
    std::vector<double> rounds;
    size_t begin = 0;
    for (const size_t end : r.round_ends) {
        if (end > begin) {
            rounds.push_back(percentile({r.point_ms.begin() + begin,
                                         r.point_ms.begin() + end},
                                        0.99));
        }
        begin = end;
    }
    return median(rounds);
}

double geomean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double v : values) log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

std::vector<Metric> end_to_end(const RunResult& r, bool measured) {
    std::vector<Metric> m;
    m.push_back({"setup_s", "s", "lower", median(r.setup_s), true, true});
    m.push_back({"points_per_s", "1/s", "higher",
                 ratio(static_cast<double>(r.point_ms.size()), r.timed_s), true,
                 true});
    m.push_back({"point_ms_p50", "ms", "lower", percentile(r.point_ms, 0.50), true,
                 true});
    m.push_back({"point_ms_p99", "ms", "lower", point_p99(r), true, true});
    m.push_back({"failed_ratio", "ratio", "lower",
                 ratio(static_cast<double>(r.failed),
                       static_cast<double>(r.attempted)),
                 true, false});
    m.push_back({"simd_cycles_geomean", "cycles", "lower", geomean(r.simd_cycles),
                 true, true});
    m.push_back({"noise_miss_ratio", "ratio", "lower",
                 ratio(static_cast<double>(r.noise_misses),
                       static_cast<double>(r.noise_points)),
                 measured, false});
    m.push_back({"emitted_ns_geomean", "ns", "lower", geomean(r.emitted_ns),
                 measured, false});
    // Reported, not gated: a peak is the extreme of the run's inputs, and
    // one memory-hungry generated kernel moves it several-fold.
    m.push_back({"peak_rss_mb", "MiB", "lower", r.peak_rss_mb, true, false});
    return m;
}

std::vector<Metric> per_layer(const RunResult& r, const TraceTotals& t) {
    const LayerCounters& c = r.counters;
    const double points = static_cast<double>(std::max<long long>(r.replayed_points, 1));
    const auto self = [&](const char* span) {
        const auto it = t.self_ms.find(span);
        return it == t.self_ms.end() ? 0.0 : it->second;
    };
    const auto spans = [&](const char* span) {
        const auto it = t.spans.find(span);
        return it == t.spans.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto per_point = [&](const std::string& name, const char* span) {
        return Metric{name, "ms/point", "lower", self(span) / points};
    };
    // Each exec span holds one CompiledKernel::create call, which emits the
    // translation unit again; codegen.emit times that emission once per
    // measured point, so the exec metrics are net of it. They still hold
    // the JIT cache lookup and dlopen that every create call repeats.
    const auto exec_net = [&](const std::string& name, const char* span) {
        return Metric{name, "ms/point", "lower",
                      std::max(0.0, self(span) - self("codegen.emit")) / points};
    };
    std::vector<Metric> m;
    m.push_back({"frontend.compile_ms", "ms", "lower",
                 ratio(self("frontend.compile"), spans("frontend.compile"))});
    m.push_back(per_point("fixpoint.range_ms", "fixpoint.range"));
    m.push_back(per_point("fixpoint.iwl_ms", "fixpoint.iwl"));
    m.push_back(per_point("accuracy.calibrate_ms", "accuracy.calibrate"));
    m.push_back({"accuracy.calibrations", "count/point", "lower",
                 c.calibrations / points});
    m.push_back({"accuracy.calibrate_share", "ratio", "lower",
                 ratio(self("accuracy.calibrate"), t.point_ms)});
    m.push_back(per_point("core.slp_aware_wlo_ms", "core.slp_aware_wlo"));
    m.push_back(per_point("core.tabu_wlo_ms", "core.tabu_wlo"));
    m.push_back(per_point("core.scaling_optim_ms", "core.scaling_optim"));
    m.push_back({"core.tabu_iterations", "count/point", "lower",
                 c.tabu_iterations / points});
    m.push_back(per_point("slp.plain_slp_ms", "slp.plain_slp"));
    m.push_back({"slp.candidates_seen", "count/point", "lower",
                 c.candidates_seen / points});
    m.push_back({"slp.selected_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.selected),
                       static_cast<double>(c.candidates_seen))});
    m.push_back(per_point("solver.exact_ms", "solver.exact"));
    m.push_back({"solver.nodes", "count/point", "lower", c.solver_nodes / points});
    m.push_back({"solver.proven_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.proven_points),
                       static_cast<double>(c.exact_points))});
    m.push_back(per_point("lower.lowering_ms", "lower.lowering"));
    m.push_back(per_point("schedule.cycle_eval_ms", "schedule.cycle_eval"));
    m.push_back(per_point("flow.run_ms", "flow.run"));
    m.push_back({"flow.stage_hit_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.stage_hits),
                       static_cast<double>(c.stage_hits + c.stage_misses))});
    m.push_back({"flow.eval_hit_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.eval_hits),
                       static_cast<double>(c.eval_hits + c.eval_misses))});
    m.push_back({"flow.parallel_efficiency", "ratio", "higher",
                 ratio(c.busy_s, c.capacity_s)});
    m.push_back({"dist.snapshot_ms", "ms", "lower",
                 ratio(self("dist.snapshot"), static_cast<double>(c.snapshots))});
    m.push_back({"dist.snapshot_bytes", "bytes", "lower",
                 ratio(c.snapshot_bytes, static_cast<double>(c.snapshots))});
    m.push_back(per_point("codegen.emit_ms", "codegen.emit"));
    m.push_back({"codegen.c_bytes", "bytes", "lower",
                 ratio(c.c_bytes, static_cast<double>(c.emissions))});
    m.push_back(exec_net("exec.jit_build_ms", "exec.jit_build"));
    m.push_back({"exec.jit_builds", "count/point", "lower",
                 ratio(static_cast<double>(c.jit_builds),
                       static_cast<double>(r.point_ms.size()))});
    m.push_back({"exec.jit_hit_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.jit_hits),
                       static_cast<double>(c.jit_hits + c.jit_builds))});
    m.push_back(exec_net("exec.measure_ms", "exec.measure"));
    m.push_back(exec_net("exec.compiled_noise_ms", "exec.compiled_noise"));
    m.push_back({"trace.overhead_ratio", "ratio", "lower",
                 ratio(c.traced_s, c.untraced_s)});
    m.push_back({"trace.coverage", "ratio", "higher",
                 ratio(t.covered_ms, t.point_ms)});
    for (Metric& metric : m) metric.gated = true;
    return m;
}

std::string number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/// `result_line`: only the metrics BENCHMARK.json lists, value and unit.
std::string metrics_json(const std::vector<Metric>& metrics, bool result_line) {
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const Metric& m : metrics) {
        if (result_line && !m.gated) continue;
        os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
           << (m.defined ? number(m.value) : "null") << ", \"unit\": \"" << m.unit
           << "\"";
        if (!result_line) os << ", \"better\": \"" << m.better << "\"";
        os << "}";
        first = false;
    }
    os << "}";
    return os.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
        if (m.defined) {
            std::printf("  %-26s %16.6g %-12s %s-is-better\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.better.c_str());
        } else {
            std::printf("  %-26s %16s %-12s (not measured by this workload)\n",
                        m.name.c_str(), "n/a", m.unit.c_str());
        }
    }
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: slpwlo_perfbench --workload "
                 "cold_queries|design_sweep|measured_sweep --seed N --seconds S "
                 "--trace 0|1 [--corpus DIR] [--scratch DIR] [--trace-out FILE] "
                 "[--report FILE] [--commit ID]\n",
                 why);
    return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--corpus") {
            options.corpus_dir = value;
        } else if (flag == "--scratch") {
            options.scratch_dir = value;
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else if (flag == "--report") {
            options.report_out = value;
        } else if (flag == "--commit") {
            options.commit = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (options.seconds <= 0) return usage("--seconds must be positive");
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    options.threads = static_cast<int>(std::min(4u, nproc));

    const bool measured = options.workload == "measured_sweep";
    void (*workload)(const Options&, RunResult&, Trace*) = nullptr;
    if (options.workload == "cold_queries") workload = run_cold_queries;
    if (options.workload == "design_sweep") workload = run_design_sweep;
    if (measured) workload = run_measured_sweep;
    if (workload == nullptr) return usage("unknown --workload");

    const slpwlo::exec::Toolchain& toolchain = slpwlo::exec::host_toolchain();
    std::ostringstream provenance;
    provenance << "{\"workload\": " << slpwlo::json_escape(options.workload)
               << ", \"seed\": " << options.seed
               << ", \"seconds\": " << number(options.seconds)
               << ", \"trace\": " << (options.trace ? 1 : 0)
               << ", \"threads\": " << options.threads << ", \"nproc\": " << nproc
               << ", \"compiler\": "
               << slpwlo::json_escape(toolchain.usable ? toolchain.id : "none")
               << ", \"build_type\": " << slpwlo::json_escape(PERFBENCH_BUILD_TYPE)
               << ", \"commit\": " << slpwlo::json_escape(options.commit) << "}";
    std::printf("perfbench %s\n", provenance.str().c_str());
    std::fflush(stdout);

    RunResult result;
    std::unique_ptr<Trace> trace;
    if (options.trace) trace = std::make_unique<Trace>(options.threads + 1);
    std::vector<Metric> layers;
    try {
        workload(options, result, trace.get());
        if (trace) {
            const TraceTotals totals = trace->totals();
            layers = per_layer(result, totals);
            if (!options.trace_out.empty()) {
                trace->write_chrome_json(options.trace_out, provenance.str());
            }
            std::printf("trace: %lld points, coverage min %.4f\n", totals.points,
                        totals.min_coverage);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    const std::vector<Metric> e2e = end_to_end(result, measured);
    std::printf("points %zu in %.3f s, %zu set-ups, attempted %lld, failed %lld\n",
                result.point_ms.size(), result.timed_s, result.setup_s.size(),
                result.attempted, result.failed);
    print_table(options.trace ? "end-to-end (untraced phase of a traced run)"
                              : "end-to-end",
                e2e);
    if (options.trace) print_table("per-layer (traced replay)", layers);
    for (const std::string& failure : result.failures) {
        std::fprintf(stderr, "FAILED %s\n", failure.c_str());
    }

    if (!options.report_out.empty()) {
        std::ofstream report(options.report_out);
        report << "{\"provenance\": " << provenance.str()
               << ", \"attempted\": " << result.attempted
               << ", \"failed\": " << result.failed
               << ", \"end_to_end\": " << metrics_json(e2e, false)
               << ", \"per_layer\": " << metrics_json(layers, false) << "}\n";
        if (!report) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         options.report_out.c_str());
            return 2;
        }
    }

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", result.attempted, result.failed,
                metrics_json(options.trace ? layers : e2e, true).c_str());
    return correct ? 0 : 1;
}
