// Running points from outside the library, with and without spans.
//
// A traced point is replayed through the public pass interface
// (FlowRegistry -> FlowPipeline::passes() -> Pass::run on a PassContext)
// with a span around each pass, around the KernelContext preparation
// calls and around the exec entry points of a measured point. Inner calls
// are made first, so each span measures one layer: the kernel artifacts
// are prepared before the passes that would otherwise prepare them, and
// the JIT object is built before measure_kernel_ns obtains it. Every
// CompiledKernel::create call emits its C again, which no outside call can
// split off, so the exec spans hold one emission each and the exec metrics
// subtract the separately timed `codegen.emit`.
//
// The stage memo lives inside FlowPipeline::run and cannot be reproduced
// from outside, so points whose run depends on it are timed as one
// `flow.run` span around the whole FlowPipeline::run call instead.
#pragma once

#include <functional>
#include <mutex>
#include <set>

#include "flow/sweep.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// A point resolved the way SweepDriver::run_timed resolves it.
struct PointJob {
    const slpwlo::KernelContext* context = nullptr;
    slpwlo::TargetModel target;
    const slpwlo::FlowPipeline* pipeline = nullptr;
    slpwlo::FlowOptions options;
};

PointJob resolve_point(slpwlo::SweepDriver& driver,
                       const slpwlo::SweepPoint& point);

/// Remembers which kernel contexts have had their preparation requested,
/// so a replay can tell the calibrating call from the ones that find the
/// gains ready. One ledger per set of live contexts (one driver).
class ContextLedger {
public:
    bool first_use(const slpwlo::KernelContext* context);

private:
    std::mutex mutex_;
    std::set<const slpwlo::KernelContext*> seen_;
};

/// Replay-side counters of one worker thread.
struct ReplayCounters {
    long long calibrations = 0;
    long long emissions = 0;
    double c_bytes = 0.0;
};

/// Run `job` pass by pass with spans in `spans` (inside the caller's
/// point span). `cache` is handed to the passes, so the evaluation memo
/// of the lowering pass works as in a sweep; `ledger` null means the
/// context is this point's own.
slpwlo::FlowResult replay_point(const PointJob& job, slpwlo::EvalCache* cache,
                                SpanBuffer* spans, ContextLedger* ledger,
                                ReplayCounters& counters);

/// Closed-loop clients: `threads` workers each claim the next point index
/// and run it until `claim` returns a negative index. Worker w records
/// into trace buffer w + 1 when `trace` is set. Returns the wall time in
/// seconds from start until the last worker finished.
double run_clients(int threads, Trace* trace,
                   const std::function<long long()>& claim,
                   const std::function<void(long long, SpanBuffer*, int)>& work);

/// Sum of a run_timed micros vector, in seconds.
double busy_seconds(const std::vector<long long>& micros);

}  // namespace perfbench
