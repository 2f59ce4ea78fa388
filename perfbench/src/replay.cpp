#include "replay.hpp"

#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "codegen/fixed_c.hpp"
#include "codegen/ref_c.hpp"
#include "exec/compiled_evaluator.hpp"
#include "exec/compiled_kernel.hpp"
#include "exec/measured_cost.hpp"

namespace perfbench {

using namespace slpwlo;

namespace {

/// Span name of each built-in pass: "<layer>.<what>", the layer being the
/// src/ module that implements the pass's work.
const char* pass_span(const char* pass) {
    static constexpr std::pair<const char*, const char*> kTable[] = {
        {"range-analysis", "fixpoint.range"},
        {"iwl-determination", "fixpoint.iwl"},
        {"slp-aware-wlo", "core.slp_aware_wlo"},
        {"tabu-wlo", "core.tabu_wlo"},
        {"scaling-optim", "core.scaling_optim"},
        {"plain-slp", "slp.plain_slp"},
        {"wlo-exact", "solver.exact"},
        {"slp-aware-wlo-exact", "solver.exact"},
        {"lowering", "lower.lowering"},
        {"float-lowering", "lower.lowering"},
        {"cycle-eval", "schedule.cycle_eval"},
    };
    for (const auto& [name, span] : kTable) {
        if (std::strcmp(name, pass) == 0) return span;
    }
    return "flow.other_pass";
}

}  // namespace

PointJob resolve_point(SweepDriver& driver, const SweepPoint& point) {
    PointJob job;
    job.context = &driver.context(point.kernel);
    job.target = point.target_model ? *point.target_model
                                    : targets::by_name(point.target);
    job.options = point.options.value_or(driver.options().flow_options);
    job.options.accuracy_db = point.accuracy_db;
    job.pipeline = &FlowRegistry::instance().flow(
        job.options.solver.optimizer == Optimizer::Optimal
            ? optimal_flow_for(point.flow)
            : point.flow);
    return job;
}

bool ContextLedger::first_use(const KernelContext* context) {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_.insert(context).second;
}

FlowResult replay_point(const PointJob& job, EvalCache* cache,
                        SpanBuffer* spans, ContextLedger* ledger,
                        ReplayCounters& counters) {
    const KernelContext& context = *job.context;
    if (ledger == nullptr || ledger->first_use(&context)) ++counters.calibrations;
    {
        ScopedSpan span(spans, "fixpoint.range");
        context.ensure_ranges();
    }
    {
        ScopedSpan span(spans, "fixpoint.iwl");
        context.ensure_iwls();
    }
    {
        ScopedSpan span(spans, "accuracy.calibrate");
        context.ensure_evaluator();
    }

    // The result is stamped exactly as FlowPipeline::run stamps it.
    PassContext ctx(context, job.target, job.options,
                    FlowResult{.flow_name = job.pipeline->name(),
                               .kernel_name = context.kernel().name(),
                               .target_name = job.target.name,
                               .target_fp = target_fingerprint(job.target),
                               .accuracy_db = job.options.accuracy_db,
                               .spec = FixedPointSpec(context.kernel()),
                               .groups = {},
                               .slp_stats = {},
                               .scaling_stats = {},
                               .tabu_stats = {},
                               .solver_stats = {}});
    ctx.cache = cache;
    for (const PassRef& pass : job.pipeline->passes()) {
        ScopedSpan span(spans, pass_span(pass->name()));
        pass->run(ctx);
    }

    if (job.options.measure && !ctx.float_variant) {
        const Kernel& kernel = context.kernel();
        const FixedPointSpec& spec = ctx.result.spec;
        if (spec_fits_c_domain(spec)) {
            // The translation unit CompiledKernel::create emits.
            ScopedSpan span(spans, "codegen.emit");
            FixedCOptions emit;
            emit.count_overflows = true;
            emit.record_trace = true;
            counters.c_bytes += static_cast<double>(
                emit_fixed_c(kernel, spec, emit).code.size() +
                emit_ref_c(kernel).code.size());
            ++counters.emissions;
        }
        {
            ScopedSpan span(spans, "exec.jit_build");
            std::string error;
            exec::CompiledKernel::create(kernel, spec, &error);
        }
        {
            ScopedSpan span(spans, "exec.measure");
            ctx.result.measured_ns = exec::measure_kernel_ns(kernel, spec);
        }
        {
            ScopedSpan span(spans, "exec.compiled_noise");
            ctx.result.sim_noise_db =
                exec::make_noise_evaluator(kernel, job.options.evaluator)
                    ->noise_power_db(spec);
        }
    }
    return std::move(ctx.result);
}

double run_clients(int threads, Trace* trace,
                   const std::function<long long()>& claim,
                   const std::function<void(long long, SpanBuffer*, int)>& work) {
    const Clock::time_point start = Clock::now();
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
            try {
                SpanBuffer* spans = trace != nullptr ? &trace->buffer(w + 1) : nullptr;
                for (long long i = claim(); i >= 0; i = claim()) work(i, spans, w);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
            }
        });
    }
    for (std::thread& worker : workers) worker.join();
    if (error) std::rethrow_exception(error);
    return seconds_since(start);
}

double busy_seconds(const std::vector<long long>& micros) {
    double total = 0.0;
    for (const long long us : micros) total += us * 1e-6;
    return total;
}

}  // namespace perfbench
