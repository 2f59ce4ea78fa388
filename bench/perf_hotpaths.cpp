// Hot-path performance harness: delta evaluation, the compiled
// simulation tape, noise-gain calibration, SLP candidate selection and
// accuracy conflicts.
//
// Nine measurements, each paired with a bit-identity or exact-count check
// so a speedup can never come from computing something different:
//
//   1. Tabu move evaluation — incremental sessions (EvalSession +
//      WlCostSession) against full noise/cost recomputation per candidate
//      move, the inner loop of run_tabu_wlo.
//   2. Simulation noise evaluation — the compiled SimTape with
//      pregenerated stimuli and cached double reference traces against
//      the tree-walking simulators regenerating both per call (what
//      SimulationEvaluator::noise_power did before the tape).
//   3. Sweep wall-clock — a cold constraint sweep against a warm rerun
//      preloaded with the cold run's EvalCache snapshot (stage memo +
//      eval memo), with the report bytes compared.
//   4. Compiled noise evaluation — the emit->compile->execute backend
//      (CompiledEvaluator, src/exec) against the tape-backed
//      SimulationEvaluator on the same stimuli; gated on bit-identical
//      noise powers across a spread of specs. Skipped (reported as
//      available:false) when the host has no usable C compiler.
//   5. Exact solver — SLP-Optimal per kernel at the default node
//      budget: nodes expanded, time to the incumbent, and the gap
//      closed over the greedy heuristic. Gated on every solve running,
//      proving optimality, and never regressing below its heuristic
//      seed.
//   6. Gain calibration — analyze_gains (sparse differential replay)
//      against the dense one-replay-per-injection reference
//      (tests/gain_reference.hpp) per registry kernel; gated on
//      bit-identical gains.
//   7. Candidate selection — select_candidates (per-round economics
//      index) against the pool-scan greedy loop
//      (tests/economics_reference.hpp) on every plain-extraction round of
//      stencil2d, stencil1d, CONV and FIR; gated on identical selections.
//   8. JIT builds — K distinct FIR specs compiled through the JitCache
//      into a fresh directory at 1 thread and at min(4, nproc) threads:
//      builds/s, object bytes, the most builds in flight at once; gated on
//      exact build/hit counts and every object loading. Skipped (reported
//      as available:false) without a usable host compiler or when
//      $SLPWLO_JIT_DIR pins the cache directory.
//   9. Accuracy conflicts — Fig. 1c lines 6-25 (candidate validity and
//      accuracy conflicts) through AccuracyConflicts' footprint screen
//      against the pairwise probe (tests/conflict_reference.hpp) on every
//      WLO-SLP extraction round of stencil2d, stencil1d, CONV and FIR;
//      pair counts by how the screen decided them; gated on identical
//      conflict sets.
//
// Emits a JSON report (--json / --json=FILE). Exits non-zero when any
// bit-identity check fails — walker/tape divergence, delta/full
// divergence, compiled/tape divergence, sparse/dense calibration
// divergence, indexed/pool-scan selection divergence, screened/probed
// conflict divergence or an inexact JIT build count is a correctness bug,
// not a performance result.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accuracy/analytic_evaluator.hpp"
#include "accuracy/sim_evaluator.hpp"
#include "bench_util.hpp"
#include "conflict_reference.hpp"
#include "core/accuracy_conflicts.hpp"
#include "core/wl_cost_model.hpp"
#include "dist/cache_snapshot.hpp"
#include "exec/compiled_evaluator.hpp"
#include "exec/compiled_kernel.hpp"
#include "exec/jit_cache.hpp"
#include "exec/toolchain.hpp"
#include "economics_reference.hpp"
#include "frontend/kernel_file.hpp"
#include "gain_reference.hpp"
#include "sim/fixed_sim.hpp"
#include "sim/sim_tape.hpp"
#include "support/rng.hpp"
#include "target/target_model.hpp"

namespace {

using namespace slpwlo;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

bool bits_equal(double a, double b) {
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

struct TabuReport {
    std::string kernel;
    long long moves = 0;
    double full_moves_per_sec = 0.0;
    double delta_moves_per_sec = 0.0;
    double speedup = 0.0;
    bool bit_identical = true;
};

/// One random single-WL move per iteration, exactly the candidate shape
/// the Tabu loop evaluates; every `commit_every`-th move is committed so
/// the spec keeps drifting like a real search. Both legs are run several
/// times interleaved and the best rate kept, so a frequency dip in one
/// leg cannot masquerade as (or hide) a speedup.
TabuReport bench_tabu_moves(const Kernel& kernel, const TargetModel& target,
                            long long moves, int repeats) {
    TabuReport report;
    report.kernel = kernel.name();
    report.moves = moves;

    const AnalyticEvaluator evaluator(kernel);
    const WlCostModel cost_model(kernel, target);
    const std::vector<int>& wls = target.scalar_wls;
    constexpr int kCommitEvery = 16;

    // Pregenerate the move sequence so the timed loops measure evaluation,
    // not random-number generation, and both legs replay identical moves.
    struct MoveCandidate {
        uint32_t node_index;
        int wl;
    };
    std::vector<MoveCandidate> sequence;
    {
        const FixedPointSpec probe(kernel);
        Rng rng(0xD1CE, "perf/tabu-moves");
        sequence.reserve(static_cast<size_t>(moves));
        for (long long i = 0; i < moves; ++i) {
            sequence.push_back(MoveCandidate{
                static_cast<uint32_t>(rng.uniform_int(
                    0, static_cast<int>(probe.nodes().size()) - 1)),
                wls[static_cast<size_t>(rng.uniform_int(
                    0, static_cast<int>(wls.size()) - 1))]});
        }
    }

    const auto run = [&](long long count, bool delta, bool check) {
        FixedPointSpec spec(kernel);
        for (const NodeRef node : spec.nodes()) {
            spec.set_wl(node, wls.back());
        }
        const std::vector<NodeRef> nodes = spec.nodes();

        std::unique_ptr<EvalSession> eval;
        std::unique_ptr<WlCostSession> costs;
        if (delta || check) {
            eval = evaluator.open_session(spec);
            costs = cost_model.open_session(spec);
        }

        double sink = 0.0;
        const auto start = std::chrono::steady_clock::now();
        for (long long i = 0; i < count; ++i) {
            const MoveCandidate& mc = sequence[static_cast<size_t>(i)];
            const NodeRef node = nodes[mc.node_index];
            const int wl = mc.wl;

            const FixedFormat saved = spec.format(node);
            double noise_db, cost;
            if (delta) {
                // The exact probe shape of the Tabu candidate loop: one
                // shared set/restore window bracketed on both sessions.
                eval->begin_move(node);
                costs->begin_move(node);
                spec.set_wl(node, wl);
                noise_db = eval->noise_power_db();
                cost = costs->cost();
                spec.set_format(node, saved);
                eval->end_move();
                costs->end_move();
            } else {
                spec.set_wl(node, wl);
                noise_db = evaluator.noise_power_db(spec);
                cost = cost_model.cost(spec);
                if (check) {
                    // The sessions see the same journaled mutations; their
                    // answers must be bit-equal to the full recompute.
                    if (!bits_equal(eval->noise_power_db(), noise_db) ||
                        !bits_equal(costs->cost(), cost)) {
                        report.bit_identical = false;
                    }
                }
                spec.set_format(node, saved);
            }
            sink += noise_db + cost;
            if (i % kCommitEvery == kCommitEvery - 1) {
                spec.set_wl(node, wl);  // commit the move
            }
        }
        const double elapsed = seconds_since(start);
        if (sink == 0.12345) std::printf("unlikely\n");  // keep `sink` live
        return static_cast<double>(count) / elapsed;
    };

    // Correctness pass first (every move cross-checked), then clean timed
    // legs with no checking overhead on either side.
    run(std::min<long long>(moves, 512), /*delta=*/false, /*check=*/true);
    for (int r = 0; r < repeats; ++r) {
        report.full_moves_per_sec =
            std::max(report.full_moves_per_sec,
                     run(moves, /*delta=*/false, /*check=*/false));
        report.delta_moves_per_sec =
            std::max(report.delta_moves_per_sec,
                     run(moves, /*delta=*/true, /*check=*/false));
    }
    report.speedup = report.delta_moves_per_sec / report.full_moves_per_sec;
    return report;
}

struct NoiseReport {
    long long evals = 0;
    double walker_evals_per_sec = 0.0;
    double tape_evals_per_sec = 0.0;
    double speedup = 0.0;
    bool bit_identical = true;
};

double mse_against(const std::vector<double>& ref,
                   const std::vector<double>& outputs) {
    double total = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double err = outputs[i] - ref[i];
        total += err * err;
    }
    return ref.empty() ? 0.0 : total / static_cast<double>(ref.size());
}

NoiseReport bench_noise_evals(const Kernel& kernel, long long evals) {
    NoiseReport report;
    report.evals = evals;

    // A mid-precision spec so quantization (and the occasional overflow)
    // actually exercises the fixed-point path.
    FixedPointSpec spec(kernel);
    for (const NodeRef node : spec.nodes()) spec.set_wl(node, 12);

    const SimTape tape(kernel);
    constexpr uint64_t kSeed = 0x5EED;

    // Divergence gate: tape and walker must agree bit-for-bit on the
    // double reference, the fixed outputs and the overflow count.
    {
        const Stimulus stimulus = make_stimulus(kernel, kSeed);
        const DoubleSimResult ref_tape = run_double(tape, stimulus);
        const DoubleSimResult ref_walk = run_double_walker(kernel, stimulus);
        const FixedSimResult fx_tape = run_fixed(tape, spec, stimulus);
        const FixedSimResult fx_walk =
            run_fixed_walker(kernel, spec, stimulus);
        bool same = ref_tape.outputs.size() == ref_walk.outputs.size() &&
                    fx_tape.outputs.size() == fx_walk.outputs.size() &&
                    fx_tape.overflow_count == fx_walk.overflow_count;
        for (size_t i = 0; same && i < ref_tape.outputs.size(); ++i) {
            same = bits_equal(ref_tape.outputs[i], ref_walk.outputs[i]);
        }
        for (size_t i = 0; same && i < fx_tape.outputs.size(); ++i) {
            same = bits_equal(fx_tape.outputs[i], fx_walk.outputs[i]);
        }
        report.bit_identical = same;
    }

    // Walker leg: the pre-tape noise_power — stimulus regenerated, double
    // reference re-walked, fixed tree re-walked, every call.
    {
        double sink = 0.0;
        const auto start = std::chrono::steady_clock::now();
        for (long long i = 0; i < evals; ++i) {
            const Stimulus stimulus = make_stimulus(kernel, kSeed + i % 4);
            const DoubleSimResult ref = run_double_walker(kernel, stimulus);
            const FixedSimResult fx =
                run_fixed_walker(kernel, spec, stimulus);
            sink += mse_against(ref.outputs, fx.outputs);
        }
        report.walker_evals_per_sec =
            static_cast<double>(evals) / seconds_since(start);
        if (sink == 0.12345) std::printf("unlikely\n");
    }

    // Tape leg: what SimulationEvaluator does now — stimuli and reference
    // traces pregenerated once, one fixed tape replay per eval.
    {
        std::vector<Stimulus> stimuli;
        std::vector<std::vector<double>> refs;
        for (uint64_t s = 0; s < 4; ++s) {
            stimuli.push_back(make_stimulus(kernel, kSeed + s));
            refs.push_back(run_double(tape, stimuli.back()).outputs);
        }
        double sink = 0.0;
        const auto start = std::chrono::steady_clock::now();
        for (long long i = 0; i < evals; ++i) {
            const size_t s = static_cast<size_t>(i % 4);
            sink += measure_noise_power(tape, spec, stimuli[s], refs[s]);
        }
        report.tape_evals_per_sec =
            static_cast<double>(evals) / seconds_since(start);
        if (sink == 0.12345) std::printf("unlikely\n");
    }

    report.speedup = report.tape_evals_per_sec / report.walker_evals_per_sec;
    return report;
}

struct CompiledReport {
    long long evals = 0;
    double tape_evals_per_sec = 0.0;
    double compiled_evals_per_sec = 0.0;
    double speedup = 0.0;
    bool bit_identical = true;
    bool available = true;  ///< host toolchain usable; timing skipped if not
};

CompiledReport bench_compiled_evals(const Kernel& kernel, long long evals) {
    CompiledReport report;
    report.evals = evals;

    const SimulationEvaluator tape_eval(kernel);
    const exec::CompiledEvaluator compiled_eval(kernel);

    // A spread of specs: three uniform precisions plus a ragged one, so
    // the gate covers distinct emitted bodies (and the evaluator's MRU).
    std::vector<FixedPointSpec> specs;
    for (const int wl : {8, 10, 12, 14}) {
        FixedPointSpec spec(kernel);
        for (const NodeRef node : spec.nodes()) spec.set_wl(node, wl);
        specs.push_back(std::move(spec));
    }
    {
        FixedPointSpec ragged(kernel);
        int wl = 8;
        for (const NodeRef node : ragged.nodes()) {
            ragged.set_wl(node, wl);
            wl = wl == 16 ? 8 : wl + 1;
        }
        specs.push_back(std::move(ragged));
    }

    // Divergence gate (doubles as the compile warm-up): every spec's
    // compiled noise power must be bit-equal to the tape's.
    for (const FixedPointSpec& spec : specs) {
        const double tape_np = tape_eval.noise_power(spec);
        const double compiled_np = compiled_eval.noise_power(spec);
        if (!bits_equal(tape_np, compiled_np)) report.bit_identical = false;
    }
    if (compiled_eval.degraded()) {
        // No usable host compiler: the evaluator already fell back to the
        // tape (which is why the gate still passed) — nothing to time.
        report.available = false;
        report.speedup = 1.0;
        return report;
    }

    const auto time_leg = [&](const AccuracyEvaluator& evaluator,
                              long long count) {
        double sink = 0.0;
        const auto start = std::chrono::steady_clock::now();
        for (long long i = 0; i < count; ++i) {
            sink += evaluator.noise_power(
                specs[static_cast<size_t>(i) % specs.size()]);
        }
        const double elapsed = seconds_since(start);
        if (sink == 0.12345) std::printf("unlikely\n");
        return static_cast<double>(count) / elapsed;
    };

    report.tape_evals_per_sec = time_leg(tape_eval, evals);
    // The compiled leg is orders of magnitude faster; run it longer so
    // the clock resolution cannot dominate the rate.
    report.compiled_evals_per_sec = time_leg(compiled_eval, evals * 20);
    report.speedup =
        report.compiled_evals_per_sec / report.tape_evals_per_sec;
    return report;
}

struct JitLegReport {
    int threads = 0;
    long long builds = 0;
    long long hits = 0;
    long long peak_builds_in_flight = 0;
    double builds_per_sec = 0.0;
    long long object_bytes = 0;  ///< all .so files the leg published
    bool all_loaded = true;      ///< every CompiledKernel::create succeeded
};

struct JitReport {
    bool available = true;  ///< host toolchain usable, directory not pinned
    int specs = 0;
    std::vector<JitLegReport> legs;
    bool counts_exact = true;  ///< every leg: builds == specs, hits == 0
    bool all_loaded = true;
};

/// K distinct specs of `kernel` through CompiledKernel::create into a fresh
/// JitCache directory per leg, the specs shared out over `threads` workers.
JitLegReport bench_jit_leg(const Kernel& kernel,
                           const std::vector<FixedPointSpec>& specs,
                           int threads, int leg) {
    namespace fs = std::filesystem;
    JitLegReport report;
    report.threads = threads;
    const fs::path dir =
        fs::temp_directory_path() /
        ("slpwlo-jit-bench-" + std::to_string(::getpid()) + "-" +
         std::to_string(leg));
    std::error_code ec;
    fs::remove_all(dir, ec);
    exec::set_jit_cache_directory(dir.string());
    exec::reset_jit_cache_stats();

    std::atomic<size_t> next{0};
    std::atomic<bool> all_loaded{true};
    const auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < specs.size();
             i = next.fetch_add(1)) {
            std::string error;
            if (exec::CompiledKernel::create(kernel, specs[i], &error) ==
                nullptr) {
                all_loaded = false;
            }
        }
    };
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
    report.builds_per_sec =
        static_cast<double>(specs.size()) / seconds_since(start);

    const exec::JitCacheStats stats = exec::jit_cache_stats();
    report.builds = stats.builds;
    report.hits = stats.hits;
    report.peak_builds_in_flight = stats.peak_builds_in_flight;
    report.all_loaded = all_loaded;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".so") {
            report.object_bytes +=
                static_cast<long long>(entry.file_size(ec));
        }
    }
    exec::set_jit_cache_directory("");
    fs::remove_all(dir, ec);
    return report;
}

JitReport bench_jit(const Kernel& kernel, int specs) {
    JitReport report;
    report.specs = specs;
    const char* pinned = std::getenv("SLPWLO_JIT_DIR");
    if (!exec::host_toolchain().usable ||
        (pinned != nullptr && pinned[0] != '\0')) {
        report.available = false;
        return report;
    }
    // Distinct format sets: uniform word lengths x both quantization modes.
    std::vector<FixedPointSpec> distinct;
    for (int i = 0; i < specs; ++i) {
        FixedPointSpec spec(kernel);
        spec.set_quant_mode(i % 2 == 0 ? QuantMode::Truncate
                                       : QuantMode::Round);
        for (const NodeRef node : spec.nodes()) spec.set_wl(node, 8 + i / 2);
        distinct.push_back(std::move(spec));
    }
    const int hardware =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    int leg = 0;
    for (const int threads : {1, std::min(4, hardware)}) {
        report.legs.push_back(bench_jit_leg(kernel, distinct, threads, leg++));
        const JitLegReport& r = report.legs.back();
        if (r.builds != specs || r.hits != 0) report.counts_exact = false;
        if (!r.all_loaded) report.all_loaded = false;
    }
    return report;
}

struct SweepReport {
    size_t points = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    double speedup = 0.0;
    size_t stage_hits = 0;
    bool bytes_identical = true;
};

struct SolverKernelReport {
    std::string kernel;
    long long nodes = 0;   ///< B&B nodes expanded (all solves summed)
    long long solves = 0;  ///< exact solves (one per extraction round)
    bool proven = false;   ///< search space exhausted within budget
    double gap = 0.0;      ///< objective improvement over the heuristic
    /// Wall time of the whole exact flow point — by construction the
    /// time to its final incumbent (the solver is anytime: the answer
    /// it returns is the incumbent standing when the search ends).
    double incumbent_ms = 0.0;
};

struct SolverReport {
    std::vector<SolverKernelReport> kernels;
    bool ran_everywhere = true;
    bool all_proven = true;
    bool gaps_nonnegative = true;
};

/// The exact-flow hot path: SLP-Optimal (B&B pack selection seeded by
/// the greedy incumbent) per kernel at the default node budget, at the
/// acceptance constraint every kernel is known to prove within budget.
/// Reported per kernel: nodes expanded, time to the incumbent, and the
/// gap the exact search closed over the heuristic.
SolverReport bench_solver(const std::vector<std::string>& kernel_names,
                          int threads) {
    SolverReport report;

    SweepOptions options;
    options.threads = threads;
    options.flow_options.solver.optimizer = Optimizer::Optimal;
    SweepDriver driver(options);

    std::vector<SweepPoint> points;
    for (const std::string& name : kernel_names) {
        points.push_back(
            SweepPoint{name, "XENTIUM", "WLO-SLP", -30.0, {}, {}, {}});
    }
    std::vector<long long> micros;
    const std::vector<SweepResult> results =
        driver.run_timed(points, &micros);

    for (size_t i = 0; i < results.size(); ++i) {
        const SolverStats& stats = results[i].flow.solver_stats;
        SolverKernelReport kr;
        kr.kernel = results[i].flow.kernel_name;
        kr.nodes = stats.nodes;
        kr.solves = stats.solves;
        kr.proven = stats.proven_optimal;
        kr.gap = stats.gap;
        kr.incumbent_ms = static_cast<double>(micros[i]) / 1000.0;
        report.kernels.push_back(kr);

        if (!stats.ran) report.ran_everywhere = false;
        if (!stats.proven_optimal) report.all_proven = false;
        if (stats.gap < 0.0) report.gaps_nonnegative = false;
    }
    return report;
}

SweepReport bench_sweep(const std::vector<SweepPoint>& grid, int threads) {
    SweepReport report;
    report.points = grid.size();

    SweepOptions options;
    options.threads = threads;

    SweepDriver cold(options);
    const auto cold_start = std::chrono::steady_clock::now();
    const std::vector<SweepResult> cold_results = cold.run(grid);
    report.cold_ms = seconds_since(cold_start) * 1000.0;

    const dist::CacheSnapshot snapshot = dist::snapshot_cache(cold.eval_cache());

    SweepDriver warm(options);
    dist::preload_cache(warm.eval_cache(), snapshot);
    const auto warm_start = std::chrono::steady_clock::now();
    const std::vector<SweepResult> warm_results = warm.run(grid);
    report.warm_ms = seconds_since(warm_start) * 1000.0;

    report.speedup = report.cold_ms / report.warm_ms;
    report.stage_hits = warm.eval_cache().stage_hits();
    report.bytes_identical =
        sweep_to_json(cold_results) == sweep_to_json(warm_results);
    return report;
}

struct CalibrationKernelReport {
    std::string kernel;
    double dense_ms = 0.0;
    double sparse_ms = 0.0;
    double speedup = 0.0;
    bool bit_identical = true;
};

struct CalibrationReport {
    std::vector<CalibrationKernelReport> kernels;
    bool bit_identical = true;
};

/// Per-kernel gain calibration: analyze_gains against the dense reference,
/// best of `repeats` interleaved runs each, gains compared bitwise.
CalibrationReport bench_calibration(const std::vector<std::string>& names,
                                    int repeats) {
    CalibrationReport report;
    for (const std::string& name : names) {
        const kernels::BenchmarkKernel bk = kernels::make_benchmark_kernel(name);
        CalibrationKernelReport kr;
        kr.kernel = name;
        kr.dense_ms = kr.sparse_ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < repeats; ++r) {
            auto start = std::chrono::steady_clock::now();
            const KernelGains dense = reference::dense_analyze_gains(bk.kernel);
            kr.dense_ms = std::min(kr.dense_ms, seconds_since(start) * 1000.0);
            start = std::chrono::steady_clock::now();
            const KernelGains sparse = analyze_gains(bk.kernel);
            kr.sparse_ms = std::min(kr.sparse_ms, seconds_since(start) * 1000.0);
            if (!reference::gains_bit_identical(dense, sparse)) {
                kr.bit_identical = false;
            }
        }
        kr.speedup = kr.dense_ms / kr.sparse_ms;
        if (!kr.bit_identical) report.bit_identical = false;
        report.kernels.push_back(kr);
    }
    return report;
}

struct SelectionKernelReport {
    std::string kernel;
    int rounds = 0;
    long long candidates = 0;
    double reference_ms = 0.0;
    double indexed_ms = 0.0;
    double speedup = 0.0;
    bool bit_identical = true;
};

struct SelectionReport {
    std::vector<SelectionKernelReport> kernels;
    bool bit_identical = true;
};

/// One extraction round: the view it starts from, its candidates and
/// their structural conflicts.
struct SelectionRound {
    PackedView view;
    std::vector<Candidate> candidates;
    ConflictSet conflicts;
};

/// The rounds plain extraction runs on every block of `kernel` (all
/// candidates valid), each fused with the indexed selection.
std::vector<SelectionRound> selection_rounds(const Kernel& kernel,
                                             const TargetModel& target,
                                             const SlpOptions& options) {
    std::vector<SelectionRound> rounds;
    for (const BlockId block : kernel.blocks_in_order()) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        for (int r = 0; r < options.max_rounds; ++r) {
            std::vector<Candidate> candidates = extract_candidates(view, target);
            if (candidates.empty()) break;
            ConflictSet conflicts =
                detect_structural_conflicts(view, candidates);
            const std::vector<Candidate> selected = select_candidates(
                view, candidates, conflicts, target, options.benefit_mode,
                options.min_benefit, {}, nullptr);
            rounds.push_back(SelectionRound{view, std::move(candidates),
                                            std::move(conflicts)});
            if (selected.empty()) break;
            std::vector<std::vector<int>> tuples;
            for (const Candidate& c : selected) tuples.push_back(c.nodes);
            view.fuse(tuples);
        }
    }
    return rounds;
}

/// Per-kernel greedy selection on XENTIUM: the pool-scan reference against
/// select_candidates over all of the kernel's rounds, best of `repeats`
/// interleaved runs each, selections compared.
SelectionReport bench_selection(
    const std::vector<std::pair<std::string, Kernel>>& kernels, int repeats) {
    SelectionReport report;
    const TargetModel target = targets::xentium();
    const SlpOptions options;
    for (const auto& [name, kernel] : kernels) {
        const std::vector<SelectionRound> rounds =
            selection_rounds(kernel, target, options);
        SelectionKernelReport kr;
        kr.kernel = name;
        kr.rounds = static_cast<int>(rounds.size());
        for (const SelectionRound& round : rounds) {
            kr.candidates += static_cast<long long>(round.candidates.size());
        }
        kr.reference_ms = kr.indexed_ms =
            std::numeric_limits<double>::infinity();
        for (int r = 0; r < repeats; ++r) {
            std::vector<std::vector<Candidate>> expected, got;
            auto start = std::chrono::steady_clock::now();
            for (const SelectionRound& round : rounds) {
                expected.push_back(reference::select_candidates(
                    round.view, round.candidates, round.conflicts, target,
                    options.benefit_mode, options.min_benefit));
            }
            kr.reference_ms =
                std::min(kr.reference_ms, seconds_since(start) * 1000.0);
            start = std::chrono::steady_clock::now();
            for (const SelectionRound& round : rounds) {
                got.push_back(select_candidates(
                    round.view, round.candidates, round.conflicts, target,
                    options.benefit_mode, options.min_benefit, {}, nullptr));
            }
            kr.indexed_ms =
                std::min(kr.indexed_ms, seconds_since(start) * 1000.0);
            if (got != expected) kr.bit_identical = false;
        }
        kr.speedup = kr.reference_ms / kr.indexed_ms;
        if (!kr.bit_identical) report.bit_identical = false;
        report.kernels.push_back(kr);
    }
    return report;
}

struct ConflictKernelReport {
    std::string kernel;
    int rounds = 0;
    long long pairs = 0;  ///< structurally compatible pairs per pass
    double probe_ms = 0.0;
    double screen_ms = 0.0;
    double speedup = 0.0;
    ConflictScreenCounts decided;  ///< one screen pass
    bool bit_identical = true;
};

struct ConflictReport {
    double accuracy_db = 0.0;
    std::vector<ConflictKernelReport> kernels;
    bool bit_identical = true;
};

/// One WLO-SLP extraction round as the reference flow met it: the view and
/// spec at the round's base, every extracted candidate, and the conflicts
/// of the valid ones.
struct ConflictRound {
    PackedView view;
    FixedPointSpec spec;
    std::vector<Candidate> candidates;
    ConflictSet structural;
};

std::vector<ConflictRound> conflict_rounds(const Kernel& kernel,
                                           const AccuracyEvaluator& evaluator,
                                           const TargetModel& target,
                                           double accuracy_db) {
    std::vector<ConflictRound> rounds;
    FixedPointSpec spec = build_initial_spec(kernel);
    const PackedView* view = nullptr;
    const FixedPointSpec* live = nullptr;
    std::vector<Candidate> extracted;
    reference::ConflictWatch watch;
    watch.extraction_begin = [&](const PackedView& v, FixedPointSpec& s) {
        view = &v;
        live = &s;
    };
    watch.round_begin = [&] { extracted.clear(); };
    watch.validity = [&](const Candidate& c, bool) { extracted.push_back(c); };
    watch.conflicts = [&](const std::vector<Candidate>&,
                          const ConflictSet& structural, const ConflictSet&) {
        FixedPointSpec base(kernel);
        base.set_quant_mode(live->quant_mode());
        for (const NodeRef node : live->nodes()) {
            base.set_format(node, live->format(node));
        }
        rounds.push_back(ConflictRound{*view, std::move(base), extracted,
                                       structural});
    };
    WloSlpOptions options;
    options.accuracy_db = accuracy_db;
    reference::run_slp_aware_wlo(kernel, spec, evaluator, target, options,
                                 watch);
    return rounds;
}

/// Per-kernel Fig. 1c lines 6-25 on XENTIUM: the pairwise probe against
/// the footprint screen over all of the kernel's rounds, best of `repeats`
/// interleaved runs each, conflict sets compared.
ConflictReport bench_conflicts(
    const std::vector<std::pair<std::string, Kernel>>& kernels,
    double accuracy_db, int repeats) {
    ConflictReport report;
    report.accuracy_db = accuracy_db;
    const TargetModel target = targets::xentium();
    for (const auto& [name, kernel] : kernels) {
        const AnalyticEvaluator evaluator(kernel);
        std::vector<ConflictRound> rounds =
            conflict_rounds(kernel, evaluator, target, accuracy_db);
        ConflictKernelReport kr;
        kr.kernel = name;
        kr.rounds = static_cast<int>(rounds.size());
        for (const ConflictRound& round : rounds) {
            const size_t n = round.structural.size();
            kr.pairs += static_cast<long long>(n * (n - 1) / 2 -
                                               round.structural.pair_count());
        }
        kr.probe_ms = kr.screen_ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < repeats; ++r) {
            std::vector<ConflictSet> probed, screened;
            double probe_s = 0.0;
            double screen_s = 0.0;
            ConflictScreenCounts decided;
            for (ConflictRound& round : rounds) {
                const std::unique_ptr<EvalSession> eval =
                    evaluator.open_session(round.spec);
                auto start = std::chrono::steady_clock::now();
                std::vector<Candidate> valid;
                for (const Candidate& c : round.candidates) {
                    const auto cp = round.spec.checkpoint();
                    const std::vector<OpId> lanes = fused_lanes(round.view, c);
                    set_group_max_wl(round.spec, lanes,
                                     static_cast<int>(lanes.size()), target);
                    const bool ok = !eval->violates(accuracy_db);
                    round.spec.revert(cp);
                    if (ok) valid.push_back(c);
                }
                ConflictSet set = round.structural;
                reference::add_probed_conflicts(round.view, round.spec, *eval,
                                                target, accuracy_db, valid,
                                                set);
                probe_s += seconds_since(start);
                probed.push_back(std::move(set));

                AccuracyConflicts screen(round.view, round.spec, *eval,
                                         target, accuracy_db);
                start = std::chrono::steady_clock::now();
                screen.begin_round();
                std::vector<Candidate> accepted;
                for (const Candidate& c : round.candidates) {
                    if (screen.valid(c)) accepted.push_back(c);
                }
                set = round.structural;
                if (accepted == valid) screen.add_conflicts(accepted, set);
                screen_s += seconds_since(start);
                if (accepted != valid) kr.bit_identical = false;
                screened.push_back(std::move(set));
                decided.disjoint += screen.counts().disjoint;
                decided.corrected += screen.counts().corrected;
                decided.probed += screen.counts().probed;
            }
            kr.probe_ms = std::min(kr.probe_ms, probe_s * 1000.0);
            kr.screen_ms = std::min(kr.screen_ms, screen_s * 1000.0);
            kr.decided = decided;
            for (size_t i = 0; i < rounds.size(); ++i) {
                const size_t n = rounds[i].structural.size();
                for (size_t a = 0; a < n; ++a) {
                    for (size_t b = a + 1; b < n; ++b) {
                        if (probed[i].conflict(a, b) !=
                            screened[i].conflict(a, b)) {
                            kr.bit_identical = false;
                        }
                    }
                }
            }
        }
        kr.speedup = kr.probe_ms / kr.screen_ms;
        if (!kr.bit_identical) report.bit_identical = false;
        report.kernels.push_back(kr);
    }
    return report;
}

/// Geometric mean of the per-kernel speedups — the one-number summary
/// that doesn't let a single large kernel drown out a regression on a
/// small one.
double tabu_speedup_geomean(const std::vector<TabuReport>& reports) {
    double log_sum = 0.0;
    for (const TabuReport& r : reports) log_sum += std::log(r.speedup);
    return std::exp(log_sum / static_cast<double>(reports.size()));
}

std::string report_json(const std::vector<TabuReport>& tabu,
                        const NoiseReport& noise,
                        const CompiledReport& compiled,
                        const JitReport& jit,
                        const SweepReport& sweep,
                        const SolverReport& solver,
                        const CalibrationReport& calibration,
                        const SelectionReport& selection,
                        const ConflictReport& conflicts) {
    const bool tabu_identical =
        std::all_of(tabu.begin(), tabu.end(),
                    [](const TabuReport& r) { return r.bit_identical; });
    std::ostringstream os;
    os << "{\"tabu\":{\"moves\":" << tabu.front().moves << ",\"kernels\":[";
    for (size_t i = 0; i < tabu.size(); ++i) {
        const TabuReport& r = tabu[i];
        os << (i == 0 ? "" : ",") << "{\"kernel\":\"" << r.kernel
           << "\",\"full_moves_per_sec\":" << json_number(r.full_moves_per_sec)
           << ",\"delta_moves_per_sec\":"
           << json_number(r.delta_moves_per_sec)
           << ",\"speedup\":" << json_number(r.speedup)
           << ",\"bit_identical\":" << (r.bit_identical ? "true" : "false")
           << "}";
    }
    os << "],\"speedup_geomean\":" << json_number(tabu_speedup_geomean(tabu))
       << ",\"bit_identical\":" << (tabu_identical ? "true" : "false")
       << "},\"noise\":{\"evals\":" << noise.evals
       << ",\"walker_evals_per_sec\":"
       << json_number(noise.walker_evals_per_sec)
       << ",\"tape_evals_per_sec\":" << json_number(noise.tape_evals_per_sec)
       << ",\"speedup\":" << json_number(noise.speedup)
       << ",\"bit_identical\":" << (noise.bit_identical ? "true" : "false")
       << "},\"compiled\":{\"evals\":" << compiled.evals
       << ",\"tape_evals_per_sec\":"
       << json_number(compiled.tape_evals_per_sec)
       << ",\"compiled_evals_per_sec\":"
       << json_number(compiled.compiled_evals_per_sec)
       << ",\"speedup\":" << json_number(compiled.speedup)
       << ",\"bit_identical\":"
       << (compiled.bit_identical ? "true" : "false")
       << ",\"available\":" << (compiled.available ? "true" : "false")
       << "},\"jit\":{\"available\":" << (jit.available ? "true" : "false")
       << ",\"specs\":" << jit.specs << ",\"legs\":[";
    for (size_t i = 0; i < jit.legs.size(); ++i) {
        const JitLegReport& r = jit.legs[i];
        os << (i == 0 ? "" : ",") << "{\"threads\":" << r.threads
           << ",\"builds\":" << r.builds << ",\"hits\":" << r.hits
           << ",\"peak_builds_in_flight\":" << r.peak_builds_in_flight
           << ",\"builds_per_sec\":" << json_number(r.builds_per_sec)
           << ",\"object_bytes\":" << r.object_bytes
           << ",\"all_loaded\":" << (r.all_loaded ? "true" : "false") << "}";
    }
    os << "],\"counts_exact\":" << (jit.counts_exact ? "true" : "false")
       << ",\"all_loaded\":" << (jit.all_loaded ? "true" : "false")
       << "},\"sweep\":{\"points\":" << sweep.points
       << ",\"cold_ms\":" << json_number(sweep.cold_ms)
       << ",\"warm_ms\":" << json_number(sweep.warm_ms)
       << ",\"speedup\":" << json_number(sweep.speedup)
       << ",\"stage_hits\":" << sweep.stage_hits
       << ",\"bytes_identical\":" << (sweep.bytes_identical ? "true" : "false")
       << "},\"solver\":{\"kernels\":[";
    for (size_t i = 0; i < solver.kernels.size(); ++i) {
        const SolverKernelReport& r = solver.kernels[i];
        os << (i == 0 ? "" : ",") << "{\"kernel\":\"" << r.kernel
           << "\",\"nodes\":" << r.nodes << ",\"solves\":" << r.solves
           << ",\"proven_optimal\":" << (r.proven ? "true" : "false")
           << ",\"gap\":" << json_number(r.gap)
           << ",\"incumbent_ms\":" << json_number(r.incumbent_ms) << "}";
    }
    os << "],\"ran_everywhere\":"
       << (solver.ran_everywhere ? "true" : "false")
       << ",\"all_proven\":" << (solver.all_proven ? "true" : "false")
       << ",\"gaps_nonnegative\":"
       << (solver.gaps_nonnegative ? "true" : "false")
       << "},\"calibration\":{\"kernels\":[";
    for (size_t i = 0; i < calibration.kernels.size(); ++i) {
        const CalibrationKernelReport& r = calibration.kernels[i];
        os << (i == 0 ? "" : ",") << "{\"kernel\":\"" << r.kernel
           << "\",\"dense_ms\":" << json_number(r.dense_ms)
           << ",\"sparse_ms\":" << json_number(r.sparse_ms)
           << ",\"speedup\":" << json_number(r.speedup)
           << ",\"bit_identical\":" << (r.bit_identical ? "true" : "false")
           << "}";
    }
    os << "],\"bit_identical\":"
       << (calibration.bit_identical ? "true" : "false")
       << "},\"selection\":{\"target\":\"XENTIUM\",\"kernels\":[";
    for (size_t i = 0; i < selection.kernels.size(); ++i) {
        const SelectionKernelReport& r = selection.kernels[i];
        os << (i == 0 ? "" : ",") << "{\"kernel\":\"" << r.kernel
           << "\",\"rounds\":" << r.rounds
           << ",\"candidates\":" << r.candidates
           << ",\"reference_ms\":" << json_number(r.reference_ms)
           << ",\"indexed_ms\":" << json_number(r.indexed_ms)
           << ",\"speedup\":" << json_number(r.speedup)
           << ",\"bit_identical\":" << (r.bit_identical ? "true" : "false")
           << "}";
    }
    os << "],\"bit_identical\":"
       << (selection.bit_identical ? "true" : "false")
       << "},\"conflicts\":{\"target\":\"XENTIUM\",\"accuracy_db\":"
       << json_number(conflicts.accuracy_db) << ",\"kernels\":[";
    for (size_t i = 0; i < conflicts.kernels.size(); ++i) {
        const ConflictKernelReport& r = conflicts.kernels[i];
        os << (i == 0 ? "" : ",") << "{\"kernel\":\"" << r.kernel
           << "\",\"rounds\":" << r.rounds << ",\"pairs\":" << r.pairs
           << ",\"probe_ms\":" << json_number(r.probe_ms)
           << ",\"screen_ms\":" << json_number(r.screen_ms)
           << ",\"speedup\":" << json_number(r.speedup)
           << ",\"disjoint\":" << r.decided.disjoint
           << ",\"corrected\":" << r.decided.corrected
           << ",\"probed\":" << r.decided.probed
           << ",\"bit_identical\":" << (r.bit_identical ? "true" : "false")
           << "}";
    }
    os << "],\"bit_identical\":"
       << (conflicts.bit_identical ? "true" : "false") << "}}\n";
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace slpwlo;
    namespace bench = slpwlo::bench;

    bench::BenchArgSpec spec;
    spec.smoke = true;
    const bench::BenchOptions options =
        bench::parse_bench_args(argc, argv, spec);

    bench::print_header(
        "perf_hotpaths: delta evaluation, compiled tape, JIT builds, gain "
        "calibration, SLP selection, accuracy conflicts",
        "inner-loop cost of the WLO flows (Section IV hot paths)");

    const long long tabu_moves = options.smoke ? 4000 : 40000;
    const long long noise_evals = options.smoke ? 200 : 2000;
    const int tabu_repeats = options.smoke ? 2 : 3;

    kernels::BenchmarkKernel fir = kernels::make_benchmark_kernel("FIR");
    const TargetModel target = targets::by_name("XENTIUM");

    std::vector<TabuReport> tabu;
    std::printf("\ntabu move evaluation (%lld moves x %d legs, XENTIUM)\n",
                tabu_moves, tabu_repeats);
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        tabu.push_back(
            bench_tabu_moves(bk.kernel, target, tabu_moves, tabu_repeats));
        const TabuReport& r = tabu.back();
        std::printf(
            "  %-6s full %10.0f /s   delta %10.0f /s   %6.2fx   "
            "bit-identical: %s\n",
            r.kernel.c_str(), r.full_moves_per_sec, r.delta_moves_per_sec,
            r.speedup, r.bit_identical ? "yes" : "NO");
    }
    const bool tabu_identical =
        std::all_of(tabu.begin(), tabu.end(),
                    [](const TabuReport& r) { return r.bit_identical; });
    std::printf("  geomean speedup: %12.2fx\n", tabu_speedup_geomean(tabu));

    const NoiseReport noise = bench_noise_evals(fir.kernel, noise_evals);
    std::printf("\nsimulation noise evaluation (%lld evals, FIR)\n",
                noise.evals);
    std::printf("  tree walker    : %12.1f evals/sec\n",
                noise.walker_evals_per_sec);
    std::printf("  compiled tape  : %12.1f evals/sec\n",
                noise.tape_evals_per_sec);
    std::printf("  speedup        : %12.2fx   bit-identical: %s\n",
                noise.speedup, noise.bit_identical ? "yes" : "NO");

    const CompiledReport compiled =
        bench_compiled_evals(fir.kernel, noise_evals);
    std::printf("\ncompiled noise evaluation (%lld evals, FIR)\n",
                compiled.evals);
    if (compiled.available) {
        std::printf("  tape evaluator : %12.1f evals/sec\n",
                    compiled.tape_evals_per_sec);
        std::printf("  compiled       : %12.1f evals/sec\n",
                    compiled.compiled_evals_per_sec);
        std::printf("  speedup        : %12.2fx   bit-identical: %s\n",
                    compiled.speedup,
                    compiled.bit_identical ? "yes" : "NO");
    } else {
        std::printf("  no usable host compiler — degraded to the tape "
                    "(bit-identical: %s), timing skipped\n",
                    compiled.bit_identical ? "yes" : "NO");
    }

    const JitReport jit = bench_jit(fir.kernel, options.smoke ? 8 : 16);
    std::printf("\njit builds (%d distinct FIR specs, fresh directory per "
                "leg)\n",
                jit.specs);
    if (jit.available) {
        for (const JitLegReport& r : jit.legs) {
            std::printf(
                "  %d thread%s : %8.2f builds/s   %lld builds %lld hits   "
                "peak in flight %lld   objects %lld bytes   loaded: %s\n",
                r.threads, r.threads == 1 ? " " : "s", r.builds_per_sec,
                r.builds, r.hits, r.peak_builds_in_flight, r.object_bytes,
                r.all_loaded ? "yes" : "NO");
        }
        std::printf("  exact counts: %s\n", jit.counts_exact ? "yes" : "NO");
    } else {
        std::printf("  skipped: no usable host compiler, or $SLPWLO_JIT_DIR "
                    "pins the cache directory\n");
    }

    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR", "DOT"}, {"XENTIUM"}, {"WLO-SLP", "WLO-First"},
        options.smoke ? std::vector<double>{-20.0, -40.0}
                      : bench::constraint_grid());
    const SweepReport sweep = bench_sweep(grid, options.threads);
    std::printf("\nconstraint sweep, cold vs stage-memo warm (%zu points)\n",
                sweep.points);
    std::printf("  cold           : %12.1f ms\n", sweep.cold_ms);
    std::printf("  warm           : %12.1f ms   (%zu stage hits)\n",
                sweep.warm_ms, sweep.stage_hits);
    std::printf("  speedup        : %12.2fx   report bytes identical: %s\n",
                sweep.speedup, sweep.bytes_identical ? "yes" : "NO");

    const SolverReport solver = bench_solver(
        options.smoke ? std::vector<std::string>{"FIR", "DOT"}
                      : kernels::benchmark_kernel_names(),
        options.threads);
    std::printf("\nexact solver (SLP-Optimal @ -30 dB, default budget)\n");
    for (const SolverKernelReport& r : solver.kernels) {
        std::printf(
            "  %-8s %9lld nodes  %3lld solves  incumbent %9.1f ms  "
            "gap %10.2f  proven: %s\n",
            r.kernel.c_str(), r.nodes, r.solves, r.incumbent_ms, r.gap,
            r.proven ? "yes" : "NO");
    }
    std::printf("  ran everywhere: %s   all proven: %s   gaps >= 0: %s\n",
                solver.ran_everywhere ? "yes" : "NO",
                solver.all_proven ? "yes" : "NO",
                solver.gaps_nonnegative ? "yes" : "NO");

    const CalibrationReport calibration = bench_calibration(
        kernels::benchmark_kernel_names(), options.smoke ? 2 : 3);
    std::printf("\ngain calibration, dense reference vs sparse replay\n");
    for (const CalibrationKernelReport& r : calibration.kernels) {
        std::printf(
            "  %-6s dense %9.2f ms   sparse %9.2f ms   %7.2fx   "
            "bit-identical: %s\n",
            r.kernel.c_str(), r.dense_ms, r.sparse_ms, r.speedup,
            r.bit_identical ? "yes" : "NO");
    }

    std::vector<std::pair<std::string, Kernel>> selection_kernels;
    for (const char* name : {"stencil2d", "stencil1d"}) {
        selection_kernels.emplace_back(
            name, frontend::load_kernel_file(std::string(
                                                 SLPWLO_KERNEL_CORPUS_DIR) +
                                             "/" + name + ".slp")
                      .kernel);
    }
    for (const char* name : {"CONV", "FIR"}) {
        selection_kernels.emplace_back(
            name, kernels::make_benchmark_kernel(name).kernel);
    }
    const SelectionReport selection =
        bench_selection(selection_kernels, options.smoke ? 2 : 3);
    std::printf("\ncandidate selection, pool-scan reference vs round "
                "economics index (XENTIUM)\n");
    for (const SelectionKernelReport& r : selection.kernels) {
        std::printf(
            "  %-9s %2d rounds %6lld candidates   reference %9.2f ms   "
            "indexed %8.2f ms   %7.2fx   bit-identical: %s\n",
            r.kernel.c_str(), r.rounds, r.candidates, r.reference_ms,
            r.indexed_ms, r.speedup, r.bit_identical ? "yes" : "NO");
    }

    const ConflictReport conflicts = bench_conflicts(
        selection_kernels, -40.0, options.smoke ? 2 : 3);
    std::printf("\naccuracy conflicts, pairwise probe vs footprint screen "
                "(XENTIUM, WLO-SLP @ %.0f dB)\n",
                conflicts.accuracy_db);
    for (const ConflictKernelReport& r : conflicts.kernels) {
        std::printf(
            "  %-9s %2d rounds %7lld pairs   probe %9.2f ms   screen %8.2f ms"
            "   %7.2fx   disjoint %lld corrected %lld probed %lld   "
            "bit-identical: %s\n",
            r.kernel.c_str(), r.rounds, r.pairs, r.probe_ms, r.screen_ms,
            r.speedup, r.decided.disjoint, r.decided.corrected,
            r.decided.probed, r.bit_identical ? "yes" : "NO");
    }

    const std::string json =
        report_json(tabu, noise, compiled, jit, sweep, solver, calibration,
                    selection, conflicts);
    if (options.json_path.has_value()) {
        bench::emit_json_to(*options.json_path, json, 3);
    }

    const bool ok = tabu_identical && noise.bit_identical &&
                    compiled.bit_identical && jit.counts_exact &&
                    jit.all_loaded && sweep.bytes_identical &&
                    sweep.stage_hits > 0 && solver.ran_everywhere &&
                    solver.all_proven && solver.gaps_nonnegative &&
                    calibration.bit_identical && selection.bit_identical &&
                    conflicts.bit_identical;
    if (!ok) {
        std::printf("\nFAIL: divergence between fast and reference paths\n");
        return 1;
    }
    std::printf("\nall bit-identity checks passed\n");
    return 0;
}
