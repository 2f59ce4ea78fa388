// Shared types of the slpwlo end-to-end benchmark: the command-line
// options, what one run accumulates, and the three workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 4;
    /// Directory of the `.slp` kernel corpus.
    std::string corpus_dir = "kernels";
    /// Scratch space for JIT directories (created if missing).
    std::string scratch_dir = ".bench_build/scratch";
    /// Chrome trace output of a traced run ("" = not written).
    std::string trace_out;
    /// Full JSON report: provenance and every metric ("" = not written).
    std::string report_out;
    std::string commit = "unknown";
};

/// Per-point verdicts of one phase: an empty reason is a pass.
class Verdicts {
public:
    /// One label per point, naming it in failure messages.
    explicit Verdicts(std::vector<std::string> labels)
        : labels_(std::move(labels)), why_(labels_.size()) {}
    void fail(size_t point, const std::string& why) {
        if (why_[point].empty()) why_[point] = why;
    }
    size_t size() const { return why_.size(); }
    const std::string& label(size_t point) const { return labels_[point]; }
    const std::string& why(size_t point) const { return why_[point]; }

private:
    std::vector<std::string> labels_;
    std::vector<std::string> why_;
};

/// Counts and times behind the per-layer metrics that are not span self
/// times. Counts of cache and JIT traffic come from the untraced phase of
/// a traced run, which executes the workload exactly as an untraced run
/// does; optimizer statistics come from the replayed results.
struct LayerCounters {
    long long calibrations = 0;
    long long tabu_iterations = 0;
    long long candidates_seen = 0;
    long long selected = 0;
    long long exact_points = 0;
    long long proven_points = 0;
    long long solver_nodes = 0;
    long long stage_hits = 0;
    long long stage_misses = 0;
    long long eval_hits = 0;
    long long eval_misses = 0;
    double busy_s = 0.0;      ///< summed single-point wall time
    double capacity_s = 0.0;  ///< threads x wall of the same phases
    long long snapshots = 0;
    double snapshot_bytes = 0.0;
    long long emissions = 0;
    double c_bytes = 0.0;
    long long jit_builds = 0;
    long long jit_hits = 0;
    double untraced_s = 0.0;  ///< wall of the work the trace replays
    double traced_s = 0.0;    ///< wall of its traced replay
};

/// Everything one run accumulates; main.cpp turns it into metrics.
struct RunResult {
    std::vector<double> setup_s;   ///< one entry per set-up
    std::vector<double> point_ms;  ///< untraced points of the timed region
    /// The sweeps' rounds: point_ms.size() after each one.
    std::vector<size_t> round_ends;
    double timed_s = 0.0;          ///< wall of the timed region
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> failures;  ///< first few failure reasons
    std::vector<double> simd_cycles;    ///< of every untraced answer
    std::vector<double> emitted_ns;     ///< measured_sweep only
    long long noise_points = 0;         ///< answers checked by simulation
    long long noise_misses = 0;
    double peak_rss_mb = 0.0;
    LayerCounters counters;
    long long replayed_points = 0;  ///< traced points

    /// Fold a phase's verdicts into attempted/failed.
    void add(const Verdicts& verdicts, const std::string& phase);
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

double seconds_since(Clock::time_point start);

void run_cold_queries(const Options& options, RunResult& result, Trace* trace);
void run_design_sweep(const Options& options, RunResult& result, Trace* trace);
void run_measured_sweep(const Options& options, RunResult& result,
                        Trace* trace);

}  // namespace perfbench
