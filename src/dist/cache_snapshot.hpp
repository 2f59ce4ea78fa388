// ShardEngine, stage 3: serializable, mergeable EvalCache snapshots.
//
// The EvalCache (flow/pass.hpp) memoizes the evaluation stage of a flow
// under content-hash keys — kernel, target, final spec and groups — so
// entries are valid on any machine: a snapshot taken on one worker can
// warm-start any other. The sharded workflow is:
//
//   coordinator:  merge yesterday's snapshots -> shared warm snapshot
//   shard run:    preload_cache(warm) -> run -> snapshot_cache -> ship home
//   coordinator:  merge_cache_snapshots(all shards) -> next warm snapshot
//
// Format (versioned, fingerprint-keyed, line-oriented):
//
//   # slpwlo evalcache snapshot
//   snapshot_version = 3
//   entries = 2
//   entry = <key:16 hex> <scalar cycles> <simd cycles> <noise bits:16 hex>
//   entry = ...
//   stage_entries = 1
//   stage_entry = <key:16 hex> <flattened StageEntry, counted fields>
//
// The stage-memo table holds optimization-stage results keyed by
// stage_memo_key, so warm sweeps skip Tabu/SLP; each stage_entry line
// flattens one StageEntry as space-separated tokens with explicit counts:
//
//   <quant mode> <#formats> {<iwl> <fwl>}* <#blocks> {<block> <#groups>
//   {<#lanes> {<lane>}*}*}* <8 slp ints> <6 scaling ints>
//   <tabu iters> <tabu improvements> <initial cost bits:16 hex>
//   <best cost bits:16 hex> <feasible> <group count>
//   <solver ran> <solver nodes> <solver solves> <solver proven>
//   <heuristic objective bits:16 hex> <best objective bits:16 hex>
//   <gap bits:16 hex>
//
// Doubles are stored as their raw IEEE-754 bits, so save -> load is
// bit-exact (including the -inf noise of an exact spec) and a round-trip
// preserves snapshot_fingerprint identically. Entries are sorted by key:
// a snapshot's bytes are a pure function of the cache contents.
//
// Versioning policy mirrors the manifest (DESIGN.md §7): the reader
// accepts only the version the writer emits (3) and rejects any other
// with an Error naming it; any incompatible change bumps
// `snapshot_version`, which orphans older snapshots (they are caches, so
// the next cold run rebuilds them).
#pragma once

#include <string>
#include <vector>

#include "flow/pass.hpp"

namespace slpwlo::dist {

struct CacheSnapshot {
    /// Entries sorted by key, each key unique.
    std::vector<std::pair<uint64_t, EvalCache::Entry>> entries;
    /// Stage-memo entries sorted by key, each key unique.
    std::vector<std::pair<uint64_t, EvalCache::StageEntry>> stage_entries;
};

/// Capture a cache's current contents (sorted by key).
CacheSnapshot snapshot_cache(const EvalCache& cache);

/// Preload snapshot entries into `cache` (the warm-start path).
/// Existing keys keep their entries. On a capacity-bounded cache only
/// the free slots are filled — with the snapshot's highest-keyed
/// entries, a deterministic survivor set — so resident entries are
/// never displaced. Preloading is counter-neutral: it never inflates
/// the cache's hit/miss counters and never counts as evictions.
void preload_cache(EvalCache& cache, const CacheSnapshot& snapshot);

/// Serialize / parse the snapshot text format. parse validates the
/// version, the declared entry count, key ordering and uniqueness.
std::string cache_snapshot_text(const CacheSnapshot& snapshot);
CacheSnapshot parse_cache_snapshot(const std::string& text,
                                   const std::string& source = "<string>");
CacheSnapshot load_cache_snapshot(const std::string& path);

/// Union of several snapshots. The same key appearing with bit-identical
/// entries deduplicates; the same key with different entries is a hard
/// error — content-hash keys make that either a hash collision or
/// nondeterminism, and both must surface, not be papered over.
CacheSnapshot merge_cache_snapshots(const std::vector<CacheSnapshot>& parts);

/// Content hash of a snapshot (order- and bit-sensitive); save -> load
/// round-trips preserve it exactly.
uint64_t snapshot_fingerprint(const CacheSnapshot& snapshot);

}  // namespace slpwlo::dist
