#include "flow/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>

#include "exec/jit_cache.hpp"
#include "flow/report.hpp"
#include "frontend/kernel_file.hpp"
#include "flow/work_source.hpp"
#include "support/diagnostics.hpp"
#include "support/thread_pool.hpp"
#include "target/target_model.hpp"

namespace slpwlo {

SweepDriver::SweepDriver(SweepOptions options)
    : options_(std::move(options)) {
    if (options_.cache_capacity.has_value()) {
        eval_cache_.set_capacity(*options_.cache_capacity);
    }
}

SweepDriver::~SweepDriver() = default;

std::vector<SweepPoint> SweepDriver::grid(
    const std::vector<std::string>& kernels,
    const std::vector<std::string>& targets,
    const std::vector<std::string>& flows,
    const std::vector<double>& constraints) {
    std::vector<SweepPoint> points;
    points.reserve(kernels.size() * targets.size() * flows.size() *
                   constraints.size());
    for (const std::string& kernel : kernels) {
        for (const std::string& target : targets) {
            for (const std::string& flow : flows) {
                for (const double a : constraints) {
                    points.push_back(
                        SweepPoint{kernel, target, flow, a, {}, {}, {}});
                }
            }
        }
    }
    return points;
}

std::vector<SweepPoint> SweepDriver::grid(
    const std::vector<std::string>& kernels,
    const std::vector<std::string>& targets,
    const std::vector<int>& simd_widths,
    const std::vector<std::string>& flows,
    const std::vector<double>& constraints) {
    std::vector<SweepPoint> points;
    points.reserve(kernels.size() * targets.size() * simd_widths.size() *
                   flows.size() * constraints.size());
    for (const std::string& target : targets) {
        const TargetModel base = targets::by_name(target);
        for (const int width : simd_widths) {
            // Width 0 keeps the base model; a positive width spawns the
            // derived variant once and shares it across the inner axes.
            const TargetModel model =
                width == 0 ? base : base.with_simd_width(width);
            for (const std::string& kernel : kernels) {
                for (const std::string& flow : flows) {
                    for (const double a : constraints) {
                        points.push_back(SweepPoint{kernel, model.name, flow,
                                                    a, {}, model, {}});
                    }
                }
            }
        }
    }
    return points;
}

const KernelContext& SweepDriver::context(const std::string& kernel_name) {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    auto& slot = contexts_[kernel_name];
    if (!slot) {
        kernels::BenchmarkKernel bench =
            kernels::make_benchmark_kernel(kernel_name);
        slot = std::make_unique<KernelContext>(std::move(bench.kernel),
                                               bench.range_options);
    }
    return *slot;
}

std::vector<SweepResult> SweepDriver::run(
    const std::vector<SweepPoint>& points) {
    // The whole grid as one in-process work source, drained through the
    // same service the sharded and farm paths use. VectorSource leases
    // every point at once: one pool run over the whole grid.
    VectorSource source(points);
    SweepService service(*this);
    service.drain(source);
    return source.take_results();
}

std::vector<SweepResult> SweepDriver::run_timed(
    const std::vector<SweepPoint>& points,
    std::vector<long long>* micros_out) {
    // Resolve the per-point ingredients up front so configuration errors
    // (unknown kernel / target / flow) surface before any thread spawns.
    struct Job {
        const KernelContext* context;
        TargetModel target;
        const FlowPipeline* pipeline;
        FlowOptions options;
    };
    std::vector<Job> jobs;
    jobs.reserve(points.size());
    for (const SweepPoint& point : points) {
        Job job;
        // A point carrying its kernel's DSL source (a manifest point for
        // a file-based kernel) registers it before the name resolves —
        // idempotent for identical content, an error for a name clash.
        if (point.kernel_source.has_value()) {
            frontend::register_kernel_source(*point.kernel_source,
                                             "<point " + point.kernel + ">");
        }
        job.context = &context(point.kernel);
        if (point.target_model.has_value()) {
            point.target_model->validate();
            job.target = *point.target_model;
        } else {
            job.target = targets::by_name(point.target);
        }
        job.options = point.options.value_or(options_.flow_options);
        job.options.accuracy_db = point.accuracy_db;
        // The `--optimizer` axis resolves here: under Optimizer::Optimal a
        // heuristic flow name runs as its exact counterpart (WLO-SLP ->
        // SLP-Optimal, WLO-First -> WLO-Optimal). The pipeline stamps its
        // own name into the result, so rows are byte-identical whether the
        // point named the exact flow directly or reached it via the axis.
        job.pipeline = &FlowRegistry::instance().flow(
            job.options.solver.optimizer == Optimizer::Optimal
                ? optimal_flow_for(point.flow)
                : point.flow);
        jobs.push_back(std::move(job));
    }

    EvalCache* cache = options_.memoize ? &eval_cache_ : nullptr;
    std::vector<std::optional<FlowResult>> slots(points.size());
    std::vector<long long> micros(points.size(), 0);
    std::exception_ptr first_error;
    std::mutex error_mutex;

    if (!pool_) pool_ = std::make_unique<ThreadPool>(options_.threads);
    ThreadPool& pool = *pool_;
    for (size_t i = 0; i < jobs.size(); ++i) {
        pool.submit([&, i] {
            try {
                const Job& job = jobs[i];
                const auto start = std::chrono::steady_clock::now();
                slots[i] = job.pipeline->run(*job.context, job.target,
                                             job.options, cache);
                micros[i] = std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        });
    }
    pool.wait_idle();

    if (first_error) std::rethrow_exception(first_error);

    std::vector<SweepResult> results;
    results.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        SLPWLO_ASSERT(slots[i].has_value(), "sweep point produced no result");
        results.push_back(SweepResult{points[i], std::move(*slots[i])});
    }
    if (micros_out != nullptr) *micros_out = std::move(micros);
    return results;
}

SweepCacheStats SweepDriver::cache_stats() const {
    SweepCacheStats stats;
    stats.eval_hits = eval_cache_.hits();
    stats.eval_misses = eval_cache_.misses();
    stats.eval_entries = eval_cache_.size();
    stats.stage_hits = eval_cache_.stage_hits();
    stats.stage_misses = eval_cache_.stage_misses();
    stats.stage_entries = eval_cache_.stage_size();
    {
        std::lock_guard<std::mutex> lock(contexts_mutex_);
        stats.contexts = contexts_.size();
    }
    const exec::JitCacheStats jit = exec::jit_cache_stats();
    stats.jit_hits = jit.hits;
    stats.jit_builds = jit.builds;
    return stats;
}

std::vector<double> accuracy_grid(double from, double to, double step) {
    SLPWLO_CHECK(step > 0.0, "accuracy_grid step must be positive");
    std::vector<double> grid;
    for (double a = from; a >= to; a -= step) grid.push_back(a);
    return grid;
}

namespace {

std::string slp_options_to_json(const SlpOptions& slp) {
    std::ostringstream os;
    os << "{\"benefit_mode\":"
       << (slp.benefit_mode == BenefitMode::ReuseOverCost
               ? "\"reuse-over-cost\""
               : "\"savings-only\"")
       << ",\"min_benefit\":" << json_number(slp.min_benefit) << "}";
    return os.str();
}

/// The option fields a per-point override can vary (both flows' ablation
/// axes); emitted alongside the result so variant rows stay
/// distinguishable. The evaluator/measure fields are deliberately absent:
/// they select an execution strategy, not an outcome, so rows produced
/// under different backends must stay byte-identical.
std::string options_to_json(const FlowOptions& options) {
    std::ostringstream os;
    os << "{\"quant_mode\":"
       << (options.quant_mode == QuantMode::Truncate ? "\"truncate\""
                                                     : "\"round\"")
       << ",\"wlo_slp\":{\"scaling_optim\":"
       << (options.wlo_slp.scaling_optim ? "true" : "false")
       << ",\"accuracy_conflicts\":"
       << (options.wlo_slp.accuracy_conflicts ? "true" : "false")
       << ",\"strict_feasibility\":"
       << (options.wlo_slp.strict_feasibility ? "true" : "false")
       << ",\"slp\":" << slp_options_to_json(options.wlo_slp.slp) << "}"
       << ",\"wlo_first\":{\"slp\":"
       << slp_options_to_json(options.wlo_first.slp)
       << ",\"tabu\":{\"max_iterations\":"
       << options.wlo_first.tabu.max_iterations
       << ",\"tenure\":" << options.wlo_first.tabu.tenure
       << ",\"stagnation_limit\":" << options.wlo_first.tabu.stagnation_limit
       << ",\"infeasibility_penalty\":"
       << json_number(options.wlo_first.tabu.infeasibility_penalty)
       << "}}"
       << ",\"solver\":{\"optimizer\":\""
       << to_string(options.solver.optimizer)
       << "\",\"max_nodes\":" << options.solver.budget.max_nodes
       << ",\"max_millis\":" << options.solver.budget.max_millis << "}}";
    return os.str();
}

}  // namespace

std::string sweep_result_to_json(const SweepResult& result) {
    // Splice the point's option overrides into the result object so
    // ablation variants with identical flow/kernel/target/constraint
    // stay distinguishable.
    std::string object = to_json(result.flow);
    if (result.point.options.has_value()) {
        object.back() = ',';
        object += "\"options\":" + options_to_json(*result.point.options) + "}";
    }
    return object;
}

std::string sweep_to_json(const std::vector<SweepResult>& results) {
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < results.size(); ++i) {
        if (i != 0) os << ",";
        os << "\n  " << sweep_result_to_json(results[i]);
    }
    os << "\n]\n";
    return os.str();
}

std::string cache_stats_to_json(const SweepCacheStats& stats) {
    std::ostringstream os;
    os << "{\"hits\":" << stats.eval_hits << ",\"misses\":" << stats.eval_misses
       << ",\"entries\":" << stats.eval_entries
       << ",\"stage_hits\":" << stats.stage_hits
       << ",\"stage_misses\":" << stats.stage_misses
       << ",\"stage_entries\":" << stats.stage_entries
       << ",\"contexts\":" << stats.contexts;
    // JIT traffic appears only when the compiled backend actually ran, so
    // tape/walker sweeps keep their historical report bytes.
    if (stats.jit_hits != 0 || stats.jit_builds != 0) {
        os << ",\"jit_hits\":" << stats.jit_hits
           << ",\"jit_builds\":" << stats.jit_builds;
    }
    os << "}";
    return os.str();
}

std::string sweep_to_json(const std::vector<SweepResult>& results,
                          const SweepCacheStats& stats) {
    std::string array = sweep_to_json(results);
    // The plain array ends with "\n]\n"; keep its layout inside the
    // wrapper so the "results" payload stays byte-identical to the
    // standalone form (minus the trailing newline).
    array.pop_back();
    return "{\"results\":" + array +
           ",\"eval_cache\":" + cache_stats_to_json(stats) + "}\n";
}

}  // namespace slpwlo
