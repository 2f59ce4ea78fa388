#include "dist/shard_runner.hpp"

#include <algorithm>

#include "dist/shard_plan.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo::dist {

ShardRow make_shard_row(size_t slot, const SweepPoint& point,
                        const WorkRow& row) {
    ShardRow out;
    out.slot = slot;
    out.point_fp = point_fingerprint(point);
    out.json = sweep_result_to_json(row.result);
    out.micros = row.micros;
    out.measured_ns = row.result.flow.measured_ns;
    return out;
}

PlanSource::PlanSource(const ShardManifest& manifest)
    : manifest_(manifest),
      slots_(manifest.slots),
      inner_(manifest.points) {
    SLPWLO_CHECK(manifest.slots.size() == manifest.points.size(),
                 "manifest slots/points size mismatch");
    for (const SweepPoint& point : manifest.points) {
        SLPWLO_CHECK(point.target_model.has_value(),
                     "shard manifests must embed target models — workers "
                     "do not resolve names");
    }
}

Lease PlanSource::acquire() {
    // The inner source leases manifest *indices*; relabel them with the
    // grid slots the merge stage keys on.
    Lease lease = inner_.acquire();
    for (size_t& slot : lease.slots) slot = slots_[slot];
    return lease;
}

namespace {

/// Grid slot -> manifest index over the (strictly ascending, parser-
/// checked) slot list; O(log n) per slot.
size_t manifest_index(const std::vector<size_t>& slots, size_t slot,
                      const char* what) {
    const auto it = std::lower_bound(slots.begin(), slots.end(), slot);
    SLPWLO_CHECK(it != slots.end() && *it == slot,
                 std::string(what) + " slot not in manifest");
    return static_cast<size_t>(it - slots.begin());
}

}  // namespace

void PlanSource::complete(const Lease& lease, std::vector<WorkRow> rows) {
    Lease indexed = lease;
    for (size_t& slot : indexed.slots) {
        slot = manifest_index(slots_, slot, "completed");
    }
    inner_.complete(indexed, std::move(rows));
}

void PlanSource::abandon(const Lease& lease) {
    Lease indexed = lease;
    for (size_t& slot : indexed.slots) {
        slot = manifest_index(slots_, slot, "abandoned");
    }
    inner_.abandon(indexed);
}

PlanSource::Output PlanSource::take() {
    std::vector<WorkRow> rows = inner_.take_rows();

    Output out;
    out.results.shard_index = manifest_.shard_index;
    out.results.shard_count = manifest_.shard_count;
    out.results.total_slots = manifest_.total_slots;
    out.results.grid_fp = manifest_.grid_fp;
    out.results.rows.reserve(rows.size());
    out.sweep.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        out.results.rows.push_back(
            make_shard_row(slots_[i], manifest_.points[i], rows[i]));
        out.sweep.push_back(std::move(rows[i].result));
    }
    return out;
}

ShardRunOutput run_shard(const ShardManifest& manifest,
                         const ShardRunOptions& options) {
    ExecOptions exec = options;  // slice off the dist-only extras
    exec.flow_options = manifest.defaults;
    SweepService service(exec);
    if (options.warm != nullptr) {
        preload_cache(service.driver().eval_cache(), *options.warm);
    }

    PlanSource source(manifest);
    service.drain(source);
    PlanSource::Output drained = source.take();

    ShardRunOutput out;
    out.results = std::move(drained.results);
    out.sweep = std::move(drained.sweep);
    out.stats = service.driver().cache_stats();
    out.results.eval_hits = out.stats.eval_hits;
    out.results.eval_misses = out.stats.eval_misses;
    out.results.eval_entries = out.stats.eval_entries;
    out.results.stage_hits = out.stats.stage_hits;
    out.results.stage_misses = out.stats.stage_misses;
    out.results.stage_entries = out.stats.stage_entries;
    out.snapshot = snapshot_cache(service.driver().eval_cache());
    return out;
}

}  // namespace slpwlo::dist
