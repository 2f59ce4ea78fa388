// ShardEngine, stage 5: executing one shard's manifest.
//
// run_shard is the worker-side entry point shared by the slpwlo-shard CLI
// and the in-process tests. Since the SweepService redesign it is a thin
// wrapper: the manifest becomes a PlanSource, a SweepService drains it,
// and the source packages slot-tagged, fingerprinted result rows (plus
// the cache contents, so new entries can ship back to the coordinator).
#pragma once

#include <optional>

#include "dist/cache_snapshot.hpp"
#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "flow/work_source.hpp"

namespace slpwlo::dist {

/// Options for one shard worker: the unified ExecOptions (threads, flow
/// defaults, memoization, cache bound — the same struct SweepDriver and
/// the farm workers consume) plus the dist-only warm-start snapshot.
/// `flow_options` is overridden by the manifest's embedded defaults.
struct ShardRunOptions : ExecOptions {
    /// Warm-start snapshot, preloaded into the EvalCache before the run.
    const CacheSnapshot* warm = nullptr;
};

/// Package one completed point as the serialized row the merge stage
/// consumes: `json` is exactly sweep_result_to_json, `point_fp` the
/// point's fingerprint, `micros` the measured wall-clock. The one place
/// row packaging lives — PlanSource and the farm workers both use it,
/// so a new column cannot be added to one path and missed in the other.
ShardRow make_shard_row(size_t slot, const SweepPoint& point,
                        const WorkRow& row);

/// A static shard plan (already parsed into a manifest) as a WorkSource:
/// leases hand out the manifest's slots in order, and completed rows are
/// serialized into the ShardResultsFile the merge stage consumes —
/// `row.json` is exactly sweep_result_to_json, `row.point_fp` the
/// manifest point's fingerprint, `row.micros` the measured wall-clock.
class PlanSource final : public WorkSource {
public:
    /// The manifest must embed a target model in every point (workers do
    /// not resolve names) and outlive the source; throws Error otherwise.
    explicit PlanSource(const ShardManifest& manifest);

    size_t total_slots() const override { return slots_.size(); }
    Lease acquire() override;
    void complete(const Lease& lease, std::vector<WorkRow> rows) override;
    void abandon(const Lease& lease) override;

    struct Output {
        /// Slot-tagged rows with the manifest's shard header (EvalCache
        /// counters still zero — the caller owns the cache and fills
        /// them in).
        ShardResultsFile results;
        /// Raw sweep results, manifest (ascending-slot) order.
        std::vector<SweepResult> sweep;
    };

    /// Drain the completed rows once the service is done; throws when
    /// any of the manifest's slots was never completed.
    Output take();

private:
    const ShardManifest& manifest_;
    std::vector<size_t> slots_;      ///< manifest slots (grid positions)
    VectorSource inner_;             ///< leases indexed into the manifest
};

struct ShardRunOutput {
    ShardResultsFile results;           ///< slot-tagged rows + counters
    CacheSnapshot snapshot;             ///< cache contents after the run
    SweepCacheStats stats;              ///< hit/miss/size counters
    std::vector<SweepResult> sweep;     ///< raw results, manifest order
};

/// Run every point of `manifest` and package the outputs. Results are
/// bit-identical to the same points' slice of a single-process sweep at
/// any thread count (the SweepDriver guarantee, inherited through
/// SweepService).
ShardRunOutput run_shard(const ShardManifest& manifest,
                         const ShardRunOptions& options = {});

}  // namespace slpwlo::dist
