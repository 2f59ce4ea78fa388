// ShardEngine, stage 1: turning a SweepDriver grid into N deterministic,
// disjoint shard plans.
//
// A sweep grid is a vector of SweepPoints whose index is its *slot* — the
// position the point's result occupies in the single-process
// SweepDriver::run output (and therefore in sweep_to_json). Sharding
// never reorders slots: a plan is a subset of slot indices plus the exact
// points behind them, and the merge stage (shard_merger.hpp) folds
// per-shard results back into slot order, so an N-shard run reproduces
// the 1-process output byte for byte.
//
// Two assignment strategies, both deterministic functions of (grid, N):
//
//  * RoundRobin     slot i goes to shard i % N — trivially balanced in
//                   point count, ideal for homogeneous grids;
//  * CostBalanced   longest-processing-time greedy over a deterministic
//                   per-point cost heuristic (estimate_point_cost), so a
//                   grid mixing cheap Float reference points with
//                   expensive strict-constraint Tabu searches still
//                   spreads wall-clock evenly across shards.
//
// Every plan embeds the exact TargetModel each of its points must run
// against (registry names are resolved at plan time): the manifest a
// shard receives (shard_manifest.hpp) is self-contained, and a worker
// machine never resolves a target name it may not know.
#pragma once

#include <string>
#include <vector>

#include "flow/sweep.hpp"

namespace slpwlo::dist {

enum class ShardStrategy {
    RoundRobin,
    CostBalanced,
};

/// "round-robin" / "cost-balanced" (the manifest spelling).
std::string to_string(ShardStrategy strategy);

/// Inverse of to_string; throws Error for unknown spellings.
ShardStrategy shard_strategy_from_string(const std::string& text);

/// Deterministic relative wall-clock estimate of one sweep point, for
/// CostBalanced assignment and farm chunk sizing. A heuristic, not a
/// measurement: stricter accuracy constraints drive more optimizer
/// iterations, the decoupled WLO-First flows add a Tabu search, the
/// Float reference skips optimization entirely, and a point's embedded
/// `target_model` override weighs in through its lane-count menu (a
/// derived `@simd256` point costs more than its narrow base). Balance
/// quality only affects wall-clock spread across shards — never results.
double estimate_point_cost(const SweepPoint& point);

/// Resolve registry names into embedded per-point models: points without
/// a target_model get `targets::by_name(point.target)`; points that
/// already carry one are validated. After this every point is
/// self-contained (serializable without a registry on the other side).
void embed_target_models(std::vector<SweepPoint>& points);

/// The kernel-side analogue of embed_target_models: points naming a
/// file-based registry kernel (one registered with DSL source —
/// frontend/kernel_file.hpp) get that source embedded as
/// `point.kernel_source`, so manifests carry it and workers re-register
/// the kernel by content. Built-in and builder-made kernels embed
/// nothing (workers resolve those names themselves, bit-identically).
/// Points that already carry a source are left untouched.
void embed_kernel_sources(std::vector<SweepPoint>& points);

/// Content hash of one grid point: kernel/flow identity, the constraint,
/// the per-point options (when present), the embedded kernel source
/// (when present — same-name kernels with different sources must not
/// alias) and the embedded target model's content fingerprint. The point
/// must carry an embedded model (embed_target_models). Used to tag shard
/// result rows so the merger can tell a true conflict from a benign
/// duplicate.
uint64_t point_fingerprint(const SweepPoint& point);

/// Content hash of a whole grid in slot order. Identical for any shard
/// count over the same grid; the merge stage refuses to fold result files
/// whose grids disagree.
uint64_t grid_fingerprint(const std::vector<SweepPoint>& points);

/// One shard's slice of a grid: parallel slot/point arrays in ascending
/// slot order.
struct ShardPlan {
    int shard_index = 0;
    int shard_count = 1;
    ShardStrategy strategy = ShardStrategy::RoundRobin;
    size_t total_slots = 0;       ///< size of the full grid
    uint64_t grid_fp = 0;         ///< grid_fingerprint of the full grid
    std::vector<size_t> slots;    ///< this shard's grid slots, ascending
    std::vector<SweepPoint> points;  ///< points[i] is the grid point at slots[i]
};

/// Partition `grid` into `shard_count` disjoint plans covering every slot
/// exactly once. Deterministic: the same grid and count produce identical
/// plans on every run and every machine. Registry names are resolved and
/// embedded (embed_target_models) before assignment, so the returned
/// plans are self-contained. Shards may be empty when shard_count exceeds
/// the grid size.
std::vector<ShardPlan> make_shard_plans(
    std::vector<SweepPoint> grid, int shard_count,
    ShardStrategy strategy = ShardStrategy::RoundRobin);

/// CostBalanced partition with explicit per-slot costs instead of the
/// estimate_point_cost heuristic — the `plan --measured-from` path:
/// slot_costs[i] is the relative cost of grid slot i (one entry per grid
/// point). Costs only shape the wall-clock balance, never results.
std::vector<ShardPlan> make_shard_plans(std::vector<SweepPoint> grid,
                                        int shard_count,
                                        const std::vector<double>& slot_costs);

/// Options for chunk_grid_slots — how a farm daemon (farm::JobBoard)
/// chops a whole grid into the demand-paged units it hands to workers.
struct ChunkOptions {
    /// Target estimated cost per chunk (estimate_point_cost units);
    /// <= 0 auto-sizes to total_cost / 16 — roughly four chunks in
    /// flight per worker on a 4-worker farm.
    double chunk_cost = 0.0;
    /// Hard cap on slots per chunk; 0 = uncapped.
    size_t max_chunk_slots = 0;
};

/// Chop `slots` (ascending grid slots; points[i] is the point at
/// slots[i]) into cost-balanced chunks: greedy, in slot order, cut when
/// the accumulated per-point cost reaches the target. A pure function of
/// its inputs — the same grid and options always produce the same chunks
/// on every machine.
std::vector<std::vector<size_t>> chunk_grid_slots(
    const std::vector<SweepPoint>& points, const std::vector<size_t>& slots,
    const ChunkOptions& options = {});

struct ShardResultsFile;

/// Per-slot costs measured by a previous run of the same grid: the
/// minimum `micros` reported for each slot across `files` (a slot run
/// twice keeps its faster wall-clock; a straggler's inflated one must
/// not poison the plan). Slots no file reported get the mean of the
/// measured ones (1.0 when nothing was measured), and every cost is
/// floored at one microsecond so a degenerate measurement cannot
/// zero out the LPT ordering. Files whose grid fingerprint or slot count
/// disagree with (`total_slots`, `grid_fp`) throw — re-planning a
/// different grid from old measurements would balance garbage.
std::vector<double> measured_slot_costs(
    const std::vector<ShardResultsFile>& files, size_t total_slots,
    uint64_t grid_fp);

}  // namespace slpwlo::dist
