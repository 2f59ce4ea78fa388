// ShardEngine, stage 4: folding per-shard result files back into the
// single-process sweep report.
//
// A shard result file carries one JSON row per completed slot plus the
// shard's EvalCache counters (so warm-start effectiveness is visible at
// merge time). Rows are the exact sweep_result_to_json objects the
// single-process sweep_to_json emits, tagged with their grid slot and the
// point's content fingerprint:
//
//   # slpwlo shard results
//   results_version = 4
//   shard_index = 0
//   shard_count = 4
//   total_slots = 24
//   grid_fingerprint = <16 hex>
//   eval_hits = 12
//   eval_misses = 6
//   eval_entries = 6
//   stage_hits = 0
//   stage_misses = 6
//   stage_entries = 6
//   rows = 6
//   row = <slot> <point fingerprint:16 hex> <micros> <measured_ns> <JSON>
//
// `micros` is the slot's measured wall-clock and `measured_ns` the
// compiled kernel body's per-execution wall time (FlowResult::measured_ns,
// 0 unless the flow ran with measure on). Both are for cost models and
// are deliberately excluded from row identity, fingerprints and merged
// report bytes — measurements are the nondeterministic fields in an
// otherwise bit-reproducible pipeline. The reader accepts only
// results_version 4 (DESIGN.md §7).
//
// merge_shard_results() reassembles the rows in slot order and produces
// output byte-identical to sweep_to_json over the unsharded grid. The
// merge is defensive by design:
//
//   * shards whose grid fingerprints disagree do not merge (someone ran
//     against a different grid);
//   * the same slot appearing twice with different point fingerprints or
//     row bytes is a hard conflict (two shards claim to be the same work);
//   * even an *identical* duplicate slot is an overlap error (static
//     plans are disjoint by construction — overlap means someone merged
//     the wrong files). The farm daemon's streaming merge legitimately
//     sees identical duplicates (a straggler and its replacement both
//     finish), so its RowAccumulator runs under
//     DuplicatePolicy::AllowIdentical: same fingerprint and same row
//     bytes (micros excluded) deduplicate, anything else still conflicts;
//   * missing slots fail with the exact holes listed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "flow/sweep.hpp"

namespace slpwlo::dist {

struct ShardRow {
    size_t slot = 0;
    uint64_t point_fp = 0;   ///< point_fingerprint of the manifest point
    std::string json;        ///< sweep_result_to_json object (one line)
    /// Measured wall-clock of this slot's flow run in microseconds.
    /// Excluded from row identity and from the merged report: scheduling
    /// may read it, bytes never depend on it.
    long long micros = 0;
    /// Median wall time of one compiled kernel execution in nanoseconds
    /// (FlowResult::measured_ns); 0 unless the flow measured. Same
    /// exclusion discipline as micros.
    long long measured_ns = 0;
};

struct ShardResultsFile {
    int shard_index = 0;
    int shard_count = 1;
    size_t total_slots = 0;
    uint64_t grid_fp = 0;
    size_t eval_hits = 0;
    size_t eval_misses = 0;
    size_t eval_entries = 0;
    size_t stage_hits = 0;
    size_t stage_misses = 0;
    size_t stage_entries = 0;
    std::vector<ShardRow> rows;
};

std::string shard_results_text(const ShardResultsFile& results);
ShardResultsFile parse_shard_results(const std::string& text,
                                     const std::string& source = "<string>");
ShardResultsFile load_shard_results(const std::string& path);

/// How a RowAccumulator treats the same slot reported twice with
/// identical content (fingerprint and row bytes; micros never compared).
enum class DuplicatePolicy {
    /// Hard error: static shard plans are disjoint, overlap is a bug.
    Error,
    /// Keep the first row: farm re-issue runs a slot twice when a
    /// straggler and its replacement both finish. Differing content is
    /// still a conflict under either policy.
    AllowIdentical,
};

/// Fold per-shard files into one JSON results array, byte-identical to
/// sweep_to_json(results) of the unsharded run. Throws Error on grid
/// mismatch, slot conflicts, duplicate slots, or missing slots.
std::string merge_shard_results(const std::vector<ShardResultsFile>& shards);

/// The merge stage as an *online* accumulator: rows stream in (one shard
/// file, one farm `complete` frame, one spliced batch at a time) and the
/// defensive checks of merge_shard_results — grid identity, fingerprint
/// and byte conflicts, the duplicate policy — run at arrival time, so a
/// bad row is rejected the moment it lands instead of at the final
/// offline fold. merge_shard_results is itself a thin wrapper over this
/// class, which is the byte-identity argument for every streaming
/// consumer (the farm daemon's per-job merger): accumulating rows in any
/// arrival order and rendering the report produces exactly the bytes the
/// offline merge produces, which are exactly sweep_to_json of the
/// 1-process sweep.
class RowAccumulator {
public:
    RowAccumulator(size_t total_slots, uint64_t grid_fp,
                   DuplicatePolicy duplicates = DuplicatePolicy::Error);

    /// Fold one file in; throws Error on grid mismatch, slot conflicts
    /// or duplicates the policy forbids. All-or-nothing: a throwing add
    /// leaves the accumulator unchanged (a rejected farm `complete` frame
    /// must not half-land). Rows are copied — the file need not outlive
    /// the accumulator. Returns how many previously-empty slots this
    /// file filled.
    size_t add(const ShardResultsFile& file);

    size_t total_slots() const { return total_slots_; }
    uint64_t grid_fp() const { return grid_fp_; }
    size_t done_slots() const { return rows_.size(); }
    bool complete() const { return rows_.size() == total_slots_; }
    /// True when `slot` already has an accepted row.
    bool has_slot(size_t slot) const;

    /// Up to `limit` missing slots, ascending.
    std::vector<size_t> missing(size_t limit = 8) const;

    /// The merged JSON results array — byte-identical to
    /// sweep_to_json(results) of the unsharded sweep. Throws Error while
    /// any slot is missing (listing the first few holes).
    std::string report() const;

    /// Everything accumulated as one whole-grid rows file (shard 0 of 1),
    /// rows ascending by slot — the artifact `merge --rows-out` writes so
    /// a later changed grid can splice unchanged slots out of it. Throws
    /// while incomplete.
    ShardResultsFile rows_file() const;

private:
    size_t total_slots_;
    uint64_t grid_fp_;
    DuplicatePolicy duplicates_;
    std::map<size_t, ShardRow> rows_;
};

/// Incremental re-sweeps: rows from a previous run re-slotted onto a new
/// grid by *point fingerprint*. `slot_fps[s]` is point_fingerprint of the
/// new grid's slot `s` (from its manifest — dist::point_fingerprint);
/// every slot whose fingerprint matches an old row is emitted at its new
/// slot with the old row's bytes, so only changed slots need re-running.
/// Old files may come from any grid (their own fingerprints are not
/// checked against `grid_fp`, which stamps the *returned* file); two old
/// rows with the same fingerprint but different bytes are a conflict.
/// Determinism makes the splice sound: a point's row bytes are a pure
/// function of the point, so a spliced report is byte-identical to
/// re-running everything.
ShardResultsFile splice_rows(const std::vector<ShardResultsFile>& old_files,
                             const std::vector<uint64_t>& slot_fps,
                             uint64_t grid_fp);

}  // namespace slpwlo::dist
