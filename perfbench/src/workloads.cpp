// The three workloads. Each runs its untraced work for the measured time
// (half of it in a traced run, which then replays exactly the same points
// with spans), checks every answer, and accumulates into a RunResult.
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "dist/cache_snapshot.hpp"
#include "exec/compiled_evaluator.hpp"
#include "exec/jit_cache.hpp"
#include "inputs.hpp"
#include "kernels/kernel_registry.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace slpwlo;

namespace {

/// Set-up samples before and again after the cold_queries closed loop
/// (the sweeps take one per round, spread over the run). A host's
/// single-thread speed can shift for a second at a time, so samples that
/// span most of a second at both ends of the run make the median steadier
/// than one burst would.
constexpr int kSetups = 20;
/// Set-ups timed together as one setup_s sample. One set-up takes a few
/// milliseconds, too short to average over a host's speed jitter.
constexpr int kSetupBatch = 4;
/// An untraced run keeps going past its measured time until it has this
/// many points, so at least ten samples lie beyond cold_queries' p99 (the
/// sweeps take theirs per round) ...
constexpr size_t kMinPoints = 1000;
/// ... but never past this multiple of the measured time.
constexpr double kMaxStretch = 3.0;
/// A measured_sweep answer misses its constraint when its bit-accurate
/// simulated noise exceeds the constraint by more than this.
constexpr double kMissToleranceDb = 1.0;

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

/// Runs `set_up` kSetupBatch times, records the mean time as one set-up
/// sample and returns the last set-up's inputs. Repeating a set-up is
/// harmless: registering the same kernel sources again is a no-op.
template <class SetUp>
auto timed_setup(RunResult& result, SetUp&& set_up) {
    const Clock::time_point start = Clock::now();
    for (int i = 1; i < kSetupBatch; ++i) set_up();
    auto inputs = set_up();
    result.setup_s.push_back(seconds_since(start) / kSetupBatch);
    return inputs;
}

/// The untraced part of a run: all of an untraced run, the first half of
/// a traced one (which then replays the same points with spans).
struct Budget {
    Budget(const Options& options, bool traced)
        : seconds(traced ? options.seconds / 2 : options.seconds),
          min_points(traced ? 0 : kMinPoints) {}

    /// Whether a loop that started at `start` and has finished `points`
    /// should start another unit of work.
    bool keep_going(Clock::time_point start, size_t points) const {
        const double elapsed = seconds_since(start);
        if (elapsed < seconds) return true;
        return points < min_points && elapsed < kMaxStretch * seconds;
    }

    double seconds;
    size_t min_points;
};

std::string describe(const SweepPoint& point) {
    std::string text = point.kernel + " " + point.target + " " + point.flow + " " +
                       std::to_string(point.accuracy_db) + " dB";
    if (point.options && point.options->solver.optimizer == Optimizer::Optimal) {
        text += " optimal";
    }
    return text;
}

std::vector<std::string> labels_of(const std::vector<SweepPoint>& points) {
    std::vector<std::string> labels;
    for (const SweepPoint& point : points) labels.push_back(describe(point));
    return labels;
}

std::string row_of(const SweepPoint& point, const FlowResult& result) {
    return sweep_result_to_json(SweepResult{point, result});
}

/// Checks every answer must pass; "" when it does.
std::string check_answer(const FlowResult& r) {
    if (r.scalar_cycles <= 0 || r.simd_cycles <= 0) {
        return "non-positive cycle count";
    }
    if (!(r.analytic_noise_db <= r.accuracy_db)) {
        return "analytic noise " + std::to_string(r.analytic_noise_db) +
               " dB exceeds the constraint " + std::to_string(r.accuracy_db);
    }
    return "";
}

void count_work(LayerCounters& counters, const FlowResult& r) {
    counters.tabu_iterations += r.tabu_stats.iterations;
    counters.candidates_seen += r.slp_stats.candidates_seen;
    counters.selected += r.slp_stats.selected;
    if (r.solver_stats.ran) {
        ++counters.exact_points;
        counters.proven_points += r.solver_stats.proven_optimal ? 1 : 0;
        counters.solver_nodes += r.solver_stats.nodes;
    }
}

void count_cache(LayerCounters& counters, const SweepCacheStats& stats) {
    counters.stage_hits += static_cast<long long>(stats.stage_hits);
    counters.stage_misses += static_cast<long long>(stats.stage_misses);
    counters.eval_hits += static_cast<long long>(stats.eval_hits);
    counters.eval_misses += static_cast<long long>(stats.eval_misses);
}

void fold_replay(LayerCounters& counters,
                 const std::vector<ReplayCounters>& workers) {
    for (const ReplayCounters& w : workers) {
        counters.calibrations += w.calibrations;
        counters.emissions += w.emissions;
        counters.c_bytes += w.c_bytes;
    }
}

/// Claims indices 0..n-1 once each.
struct IndexQueue {
    explicit IndexQueue(size_t n) : size(static_cast<long long>(n)) {}
    long long operator()() {
        const long long i = next.fetch_add(1);
        return i < size ? i : -1;
    }
    const long long size;
    std::atomic<long long> next{0};
};

/// Replays `points` pass by pass on the benchmark's clients, against the
/// kernel contexts and evaluation cache of `driver`. Point i's row lands in
/// rows[first_slot + i]; its optimizer work is counted into `result`.
/// Returns the answers, empty where a point failed.
std::vector<std::optional<FlowResult>> replay_sweep_points(
    const Options& options, SweepDriver& driver,
    const std::vector<SweepPoint>& points, size_t first_slot, long long first_id,
    Trace& trace, std::vector<std::string>& rows, Verdicts& verdicts,
    RunResult& result) {
    std::vector<std::optional<FlowResult>> answers(points.size());
    std::vector<ReplayCounters> workers(options.threads);
    ContextLedger ledger;
    IndexQueue queue(points.size());
    run_clients(options.threads, &trace, std::ref(queue),
                [&](long long i, SpanBuffer* spans, int worker) {
                    const size_t slot = first_slot + static_cast<size_t>(i);
                    ScopedSpan point(spans, kPointSpan,
                                     first_id + static_cast<long long>(slot));
                    try {
                        PointJob job = [&] {
                            ScopedSpan span(spans, "flow.resolve");
                            return resolve_point(driver, points[i]);
                        }();
                        answers[i] = replay_point(job, &driver.eval_cache(), spans,
                                                  &ledger, workers[worker]);
                        rows[slot] = row_of(points[i], *answers[i]);
                    } catch (const std::exception& e) {
                        verdicts.fail(slot, e.what());
                    }
                });
    for (const std::optional<FlowResult>& answer : answers) {
        if (answer) count_work(result.counters, *answer);
    }
    fold_replay(result.counters, workers);
    return answers;
}

/// Points SLPWLO_JIT_DIR at a fresh directory for its lifetime and
/// removes the directory afterwards. Only set while no sweep is running.
class JitDirectory {
public:
    explicit JitDirectory(std::string path) : path_(std::move(path)) {
        ::setenv("SLPWLO_JIT_DIR", path_.c_str(), 1);
    }
    ~JitDirectory() {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    JitDirectory(const JitDirectory&) = delete;
    JitDirectory& operator=(const JitDirectory&) = delete;

private:
    std::string path_;
};

// --- cold_queries ----------------------------------------------------------------

struct QueryOutcome {
    long long index = 0;
    SweepPoint point;
    std::string row;
    std::string error;
    double ms = 0.0;
    long long simd_cycles = 0;
};

SweepPoint point_of(const Query& query) {
    SweepPoint point;
    point.kernel = query.kernel;
    point.target = query.target;
    point.flow = query.flow;
    point.accuracy_db = query.accuracy_db;
    return point;
}

/// One query as a one-shot compile pays for it: its own KernelContext,
/// calibrated from scratch, no cache.
FlowResult answer_query(const SweepPoint& point) {
    kernels::BenchmarkKernel bench =
        kernels::KernelRegistry::instance().get(point.kernel);
    const KernelContext context(std::move(bench.kernel), bench.range_options);
    FlowOptions options;
    options.accuracy_db = point.accuracy_db;
    return FlowRegistry::instance().flow(point.flow).run(
        context, targets::by_name(point.target), options);
}

/// The same query replayed with spans.
FlowResult replay_query(const SweepPoint& point, SpanBuffer* spans,
                        ReplayCounters& counters) {
    kernels::BenchmarkKernel bench = [&] {
        ScopedSpan span(spans, "kernels.lookup");
        return kernels::KernelRegistry::instance().get(point.kernel);
    }();
    std::optional<KernelContext> context;
    {
        ScopedSpan span(spans, "flow.context");
        context.emplace(std::move(bench.kernel), bench.range_options);
    }
    PointJob job;
    job.context = &*context;
    {
        ScopedSpan span(spans, "target.lookup");
        job.target = targets::by_name(point.target);
    }
    job.pipeline = &FlowRegistry::instance().flow(point.flow);
    job.options.accuracy_db = point.accuracy_db;
    return replay_point(job, nullptr, spans, nullptr, counters);
}

}  // namespace

void RunResult::add(const Verdicts& verdicts, const std::string& phase) {
    attempted += static_cast<long long>(verdicts.size());
    for (size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts.why(i).empty()) continue;
        ++failed;
        if (failures.size() < 10) {
            failures.push_back(phase + " point " + std::to_string(i) + " (" +
                               verdicts.label(i) + "): " + verdicts.why(i));
        }
    }
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void run_cold_queries(const Options& options, RunResult& result, Trace* trace) {
    SpanBuffer* main_spans = trace != nullptr ? &trace->buffer(0) : nullptr;
    QueryPool pool;
    const auto set_up = [&] {
        for (int i = 0; i < kSetups; ++i) {
            pool = timed_setup(
                result, [&] { return setup_cold_queries(options, main_spans); });
        }
    };
    set_up();

    // Untraced: a closed loop of `threads` clients, one query at a time.
    const int threads = options.threads;
    const Budget budget(options, trace != nullptr);
    std::vector<std::vector<QueryOutcome>> done(threads);
    std::atomic<long long> next{0};
    std::atomic<size_t> finished{0};
    const Clock::time_point start = Clock::now();
    const double wall = run_clients(
        threads, nullptr,
        [&]() -> long long {
            return budget.keep_going(start, finished.load()) ? next.fetch_add(1)
                                                             : -1;
        },
        [&](long long index, SpanBuffer*, int worker) {
            QueryOutcome out;
            out.index = index;
            out.point = point_of(pool.draw(index));
            const Clock::time_point begin = Clock::now();
            try {
                const FlowResult r = answer_query(out.point);
                out.ms = ms_since(begin);
                out.row = row_of(out.point, r);
                out.error = check_answer(r);
                out.simd_cycles = r.simd_cycles;
            } catch (const std::exception& e) {
                out.ms = ms_since(begin);
                out.error = e.what();
            }
            done[worker].push_back(std::move(out));
            ++finished;
        });
    result.peak_rss_mb = peak_rss_mb();
    set_up();

    std::vector<QueryOutcome> outcomes;
    for (std::vector<QueryOutcome>& part : done) {
        for (QueryOutcome& out : part) outcomes.push_back(std::move(out));
    }
    std::sort(outcomes.begin(), outcomes.end(),
              [](const QueryOutcome& a, const QueryOutcome& b) {
                  return a.index < b.index;
              });

    // Checks: every answer is sound, and a query drawn twice is answered
    // with the same bytes both times.
    std::vector<SweepPoint> points;
    for (const QueryOutcome& out : outcomes) points.push_back(out.point);
    Verdicts verdicts(labels_of(points));
    std::map<std::string, std::string> first_row;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const QueryOutcome& out = outcomes[i];
        result.point_ms.push_back(out.ms);
        if (!out.error.empty()) {
            verdicts.fail(i, out.error);
            continue;
        }
        result.simd_cycles.push_back(static_cast<double>(out.simd_cycles));
        const std::string key = out.point.kernel + "|" + out.point.target + "|" +
                                out.point.flow + "|" +
                                std::to_string(out.point.accuracy_db);
        const auto [it, inserted] = first_row.emplace(key, out.row);
        if (!inserted && it->second != out.row) {
            verdicts.fail(i, "repeated query answered differently");
        }
    }
    result.timed_s = wall;
    for (const double ms : result.point_ms) result.counters.busy_s += ms * 1e-3;
    result.counters.capacity_s += threads * wall;
    result.add(verdicts, "cold_queries");
    if (trace == nullptr) return;

    // Traced: the same queries again, replayed with spans.
    Verdicts traced(labels_of(points));
    std::vector<std::string> rows(outcomes.size());
    std::vector<std::optional<FlowResult>> answers(outcomes.size());
    std::vector<ReplayCounters> workers(threads);
    IndexQueue queue(outcomes.size());
    const double traced_wall = run_clients(
        threads, trace, std::ref(queue),
        [&](long long i, SpanBuffer* spans, int worker) {
            ScopedSpan point(spans, kPointSpan, i);
            try {
                answers[i] = replay_query(outcomes[i].point, spans, workers[worker]);
                rows[i] = row_of(outcomes[i].point, *answers[i]);
            } catch (const std::exception& e) {
                traced.fail(i, e.what());
            }
        });
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (answers[i]) count_work(result.counters, *answers[i]);
        if (rows[i] != outcomes[i].row) {
            traced.fail(i, "traced answer differs from the untraced one");
        }
    }
    fold_replay(result.counters, workers);
    result.counters.untraced_s += wall;
    result.counters.traced_s += traced_wall;
    result.replayed_points += static_cast<long long>(outcomes.size());
    result.add(traced, "cold_queries traced");
}

// --- design_sweep ---------------------------------------------------------------

namespace {

/// Labels of a round's cold points, then of its re-sweep points.
std::vector<std::string> labels_of(const DesignRound& round) {
    std::vector<std::string> labels = labels_of(round.cold);
    for (std::string& label : labels_of(round.resweep)) {
        labels.push_back(label + " re-sweep");
    }
    return labels;
}

struct DesignRecord {
    DesignRound inputs;
    std::vector<std::string> rows;  ///< cold rows, then re-sweep rows
    std::string snapshot;           ///< the cold phase's cache snapshot
    std::unique_ptr<Verdicts> verdicts;
};

/// One untraced round: cold sweep, snapshot through the text form,
/// preload into a fresh driver, re-sweep with the added constraints.
/// Returns the round's wall time.
double design_round(const Options& options, DesignRecord& record,
                    RunResult& result) {
    const DesignRound& inputs = record.inputs;
    const size_t cold_points = inputs.cold.size();
    record.verdicts = std::make_unique<Verdicts>(labels_of(inputs));
    SweepOptions sweep;
    sweep.threads = options.threads;
    std::vector<long long> cold_us, warm_us;
    std::vector<SweepResult> cold, warm;
    double wall = 0.0;
    try {
        const Clock::time_point start = Clock::now();
        SweepDriver cold_driver(sweep);
        cold = cold_driver.run_timed(inputs.cold, &cold_us);
        record.snapshot = dist::cache_snapshot_text(
            dist::snapshot_cache(cold_driver.eval_cache()));
        SweepDriver warm_driver(sweep);
        dist::preload_cache(warm_driver.eval_cache(),
                            dist::parse_cache_snapshot(record.snapshot,
                                                       "cold phase snapshot"));
        warm = warm_driver.run_timed(inputs.resweep, &warm_us);
        wall = seconds_since(start);
        count_cache(result.counters, cold_driver.cache_stats());
        count_cache(result.counters, warm_driver.cache_stats());
    } catch (const std::exception& e) {
        for (size_t i = 0; i < record.verdicts->size(); ++i) {
            record.verdicts->fail(i, e.what());
        }
        record.rows.assign(record.verdicts->size(), "");
        return wall;
    }

    std::vector<SweepResult> all = std::move(cold);
    std::vector<long long> micros = std::move(cold_us);
    all.insert(all.end(), warm.begin(), warm.end());
    micros.insert(micros.end(), warm_us.begin(), warm_us.end());
    for (size_t i = 0; i < all.size(); ++i) {
        record.rows.push_back(sweep_result_to_json(all[i]));
        result.point_ms.push_back(micros[i] * 1e-3);
        result.simd_cycles.push_back(static_cast<double>(all[i].flow.simd_cycles));
        const std::string why = check_answer(all[i].flow);
        if (!why.empty()) record.verdicts->fail(i, why);
    }
    // The re-sweep starts warm but must answer the cold points unchanged.
    for (size_t i = 0; i < cold_points; ++i) {
        if (record.rows[cold_points + i] != record.rows[i]) {
            record.verdicts->fail(cold_points + i,
                                  "warm re-sweep changed a cold answer");
        }
    }
    result.counters.busy_s += busy_seconds(micros);
    result.counters.capacity_s += options.threads * wall;
    return wall;
}

/// The same round replayed with spans: cold points pass by pass, the
/// snapshot functions, then the re-sweep as whole FlowPipeline::run calls
/// (its stage-memo hits happen inside run). The traced cold phase stores
/// no stage entries, so the re-sweep is preloaded with the untraced
/// round's snapshot — the input the untraced re-sweep started from.
double replay_design_round(const Options& options, const DesignRecord& record,
                           long long first_id, Trace& trace,
                           RunResult& result) {
    const DesignRound& inputs = record.inputs;
    const size_t cold_points = inputs.cold.size();
    Verdicts traced(labels_of(inputs));
    std::vector<std::string> rows(record.rows.size());
    SpanBuffer& main_spans = trace.buffer(0);
    SweepOptions sweep;
    sweep.threads = options.threads;

    const Clock::time_point start = Clock::now();
    SweepDriver cold_driver(sweep);
    replay_sweep_points(options, cold_driver, inputs.cold, 0, first_id, trace, rows,
                        traced, result);
    {
        ScopedSpan span(&main_spans, "dist.snapshot");
        dist::cache_snapshot_text(dist::snapshot_cache(cold_driver.eval_cache()));
    }
    SweepDriver warm_driver(sweep);
    {
        ScopedSpan span(&main_spans, "dist.snapshot");
        dist::preload_cache(warm_driver.eval_cache(),
                            dist::parse_cache_snapshot(record.snapshot,
                                                       "cold phase snapshot"));
    }
    IndexQueue warm_queue(inputs.resweep.size());
    run_clients(options.threads, &trace, std::ref(warm_queue),
                [&](long long i, SpanBuffer* spans, int) {
                    const size_t slot = cold_points + static_cast<size_t>(i);
                    ScopedSpan point(spans, kPointSpan,
                                     first_id + static_cast<long long>(slot));
                    try {
                        PointJob job = [&] {
                            ScopedSpan span(spans, "flow.resolve");
                            return resolve_point(warm_driver, inputs.resweep[i]);
                        }();
                        const FlowResult answer = [&] {
                            ScopedSpan span(spans, "flow.run");
                            return job.pipeline->run(*job.context, job.target,
                                                     job.options,
                                                     &warm_driver.eval_cache());
                        }();
                        rows[slot] = row_of(inputs.resweep[i], answer);
                    } catch (const std::exception& e) {
                        traced.fail(slot, e.what());
                    }
                });
    const double wall = seconds_since(start);

    for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] != record.rows[i]) {
            traced.fail(i, "traced answer differs from the untraced one");
        }
    }
    ++result.counters.snapshots;
    result.counters.snapshot_bytes += static_cast<double>(record.snapshot.size());
    result.replayed_points += static_cast<long long>(rows.size());
    result.add(traced, "design_sweep traced");
    return wall;
}

}  // namespace

void run_design_sweep(const Options& options, RunResult& result, Trace* trace) {
    SpanBuffer* main_spans = trace != nullptr ? &trace->buffer(0) : nullptr;
    const Budget budget(options, trace != nullptr);
    std::vector<DesignRecord> records;
    const Clock::time_point start = Clock::now();
    while (records.empty() || budget.keep_going(start, result.point_ms.size())) {
        DesignRecord record;
        record.inputs = timed_setup(result, [&] {
            return setup_design_round(options, static_cast<int>(records.size()),
                                      main_spans);
        });
        result.timed_s += design_round(options, record, result);
        result.round_ends.push_back(result.point_ms.size());
        records.push_back(std::move(record));
    }
    result.peak_rss_mb = peak_rss_mb();

    // 1 vs N threads: the first round's cold grid again on one thread.
    DesignRecord& first = records.front();
    try {
        SweepOptions one_thread;
        one_thread.threads = 1;
        SweepDriver driver(one_thread);
        const std::vector<SweepResult> serial = driver.run(first.inputs.cold);
        for (size_t i = 0; i < serial.size(); ++i) {
            if (sweep_result_to_json(serial[i]) != first.rows[i]) {
                first.verdicts->fail(i, "1-thread answer differs from the " +
                                            std::to_string(options.threads) +
                                            "-thread one");
            }
        }
    } catch (const std::exception& e) {
        first.verdicts->fail(0, std::string("1-thread sweep failed: ") + e.what());
    }
    for (const DesignRecord& record : records) {
        result.add(*record.verdicts, "design_sweep");
    }
    if (trace == nullptr) return;

    result.counters.untraced_s += result.timed_s;
    long long first_id = 0;
    for (const DesignRecord& record : records) {
        result.counters.traced_s +=
            replay_design_round(options, record, first_id, *trace, result);
        first_id += static_cast<long long>(record.rows.size());
    }
}

// --- measured_sweep -------------------------------------------------------------

namespace {

struct MeasuredRecord {
    MeasuredRound inputs;
    std::vector<std::string> rows;
    /// Simulated noise of each answer; result rows leave it out.
    std::vector<double> sim_noise_db;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One untraced round into a fresh JIT directory, then its checks: the
/// compiled noise of every answer against the tape interpreter, bit for
/// bit, and the answer's simulated noise against its constraint.
double measured_round(const Options& options, MeasuredRecord& record,
                      RunResult& result) {
    const std::vector<SweepPoint>& points = record.inputs.points;
    Verdicts verdicts(labels_of(points));
    JitDirectory jit_dir(record.inputs.jit_dir);
    SweepOptions sweep;
    sweep.threads = options.threads;
    sweep.flow_options.measure = true;
    sweep.flow_options.evaluator = SimBackend::Compiled;
    SweepDriver driver(sweep);
    std::vector<long long> micros;
    std::vector<SweepResult> answers;
    double wall = 0.0;
    try {
        exec::reset_jit_cache_stats();
        const Clock::time_point start = Clock::now();
        answers = driver.run_timed(points, &micros);
        wall = seconds_since(start);
        const SweepCacheStats stats = driver.cache_stats();
        count_cache(result.counters, stats);
        result.counters.jit_builds += static_cast<long long>(stats.jit_builds);
        result.counters.jit_hits += static_cast<long long>(stats.jit_hits);
    } catch (const std::exception& e) {
        for (size_t i = 0; i < points.size(); ++i) verdicts.fail(i, e.what());
        record.rows.assign(points.size(), "");
        record.sim_noise_db.assign(points.size(), 0.0);
        result.add(verdicts, "measured_sweep");
        return wall;
    }

    std::map<std::string, std::unique_ptr<AccuracyEvaluator>> tapes;
    for (size_t i = 0; i < answers.size(); ++i) {
        const FlowResult& r = answers[i].flow;
        record.rows.push_back(sweep_result_to_json(answers[i]));
        record.sim_noise_db.push_back(r.sim_noise_db);
        result.point_ms.push_back(micros[i] * 1e-3);
        result.simd_cycles.push_back(static_cast<double>(r.simd_cycles));
        const std::string why = check_answer(r);
        if (!why.empty()) verdicts.fail(i, why);
        if (r.measured_ns <= 0) {
            verdicts.fail(i, "emitted code was not measured (no usable C compiler?)");
            continue;
        }
        result.emitted_ns.push_back(static_cast<double>(r.measured_ns));

        const Kernel& kernel = driver.context(points[i].kernel).kernel();
        std::unique_ptr<AccuracyEvaluator>& tape = tapes[points[i].kernel];
        if (!tape) tape = exec::make_noise_evaluator(kernel, SimBackend::Tape);
        const double reference = tape->noise_power_db(r.spec);
        if (!same_bits(reference, r.sim_noise_db)) {
            verdicts.fail(i, "compiled noise " + std::to_string(r.sim_noise_db) +
                                 " dB differs from the tape's " +
                                 std::to_string(reference));
        }
        ++result.noise_points;
        if (r.sim_noise_db > r.accuracy_db + kMissToleranceDb) ++result.noise_misses;
    }
    result.counters.busy_s += busy_seconds(micros);
    result.counters.capacity_s += options.threads * wall;
    result.add(verdicts, "measured_sweep");
    return wall;
}

/// The same round replayed with spans, into another fresh JIT directory
/// so it builds what the untraced round built. Each replayed answer must
/// match the untraced one in its row and, bit for bit, in its compiled
/// noise, which the row leaves out.
double replay_measured_round(const Options& options, const MeasuredRecord& record,
                             int round, long long first_id, Trace& trace,
                             RunResult& result) {
    const std::vector<SweepPoint>& points = record.inputs.points;
    Verdicts traced(labels_of(points));
    std::vector<std::string> rows(points.size());
    const MeasuredRound fresh = setup_measured_round(options, round, "traced", nullptr);
    JitDirectory jit_dir(fresh.jit_dir);
    SweepOptions sweep;
    sweep.threads = options.threads;
    sweep.flow_options.measure = true;
    sweep.flow_options.evaluator = SimBackend::Compiled;
    SweepDriver driver(sweep);
    const Clock::time_point start = Clock::now();
    const std::vector<std::optional<FlowResult>> answers = replay_sweep_points(
        options, driver, points, 0, first_id, trace, rows, traced, result);
    const double wall = seconds_since(start);
    for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] != record.rows[i]) {
            traced.fail(i, "traced answer differs from the untraced one");
        } else if (answers[i] &&
                   !same_bits(answers[i]->sim_noise_db, record.sim_noise_db[i])) {
            traced.fail(i, "traced compiled noise differs bitwise from the "
                           "untraced one");
        }
    }
    result.replayed_points += static_cast<long long>(rows.size());
    result.add(traced, "measured_sweep traced");
    return wall;
}

}  // namespace

void run_measured_sweep(const Options& options, RunResult& result,
                        Trace* trace) {
    SpanBuffer* main_spans = trace != nullptr ? &trace->buffer(0) : nullptr;
    const Budget budget(options, trace != nullptr);
    std::vector<MeasuredRecord> records;
    const Clock::time_point start = Clock::now();
    while (records.empty() || budget.keep_going(start, result.point_ms.size())) {
        MeasuredRecord record;
        record.inputs = timed_setup(result, [&] {
            return setup_measured_round(options, static_cast<int>(records.size()),
                                        "untraced", main_spans);
        });
        result.timed_s += measured_round(options, record, result);
        result.round_ends.push_back(result.point_ms.size());
        records.push_back(std::move(record));
    }
    result.peak_rss_mb = peak_rss_mb();
    if (trace == nullptr) return;

    result.counters.untraced_s += result.timed_s;
    long long first_id = 0;
    for (size_t r = 0; r < records.size(); ++r) {
        result.counters.traced_s += replay_measured_round(
            options, records[r], static_cast<int>(r), first_id, *trace, result);
        first_id += static_cast<long long>(records[r].rows.size());
    }
}

}  // namespace perfbench
