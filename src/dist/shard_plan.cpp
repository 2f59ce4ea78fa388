#include "dist/shard_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "flow/pass.hpp"
#include "flow/report.hpp"
#include "kernels/kernel_registry.hpp"
#include "support/diagnostics.hpp"
#include "target/target_model.hpp"

namespace slpwlo::dist {

std::string to_string(ShardStrategy strategy) {
    switch (strategy) {
        case ShardStrategy::RoundRobin: return "round-robin";
        case ShardStrategy::CostBalanced: return "cost-balanced";
    }
    SLPWLO_ASSERT(false, "unhandled ShardStrategy");
}

ShardStrategy shard_strategy_from_string(const std::string& text) {
    if (text == "round-robin") return ShardStrategy::RoundRobin;
    if (text == "cost-balanced") return ShardStrategy::CostBalanced;
    // Same convention as targets::by_name: an unknown spelling names
    // every valid one (sorted).
    throw Error("unknown shard strategy `" + text +
                "`; known: cost-balanced, round-robin");
}

double estimate_point_cost(const SweepPoint& point) {
    // Flow weight: the Float reference only lowers and schedules; the
    // decoupled flows run a Tabu search on top of extraction.
    double flow_weight = 1.0;
    if (point.flow == "Float") {
        flow_weight = 0.1;
    } else if (point.flow.rfind("WLO-First", 0) == 0) {
        flow_weight = 1.5;
    }
    // Stricter constraints make the optimizers work harder before the
    // noise budget closes.
    const double constraint_weight = 1.0 + std::abs(point.accuracy_db) / 20.0;
    // Per-point model overrides change the work: a wider derived datapath
    // (@simd256) admits more lane counts, and candidate seeding, fusion
    // and equation-(1) WL commitments all grow with them. Points without
    // an embedded model stay at the neutral weight (make_shard_plans
    // embeds models before costing; manifest points carry theirs). The
    // Float reference skips the SLP machinery entirely, so width is free
    // there.
    double width_weight = 1.0;
    if (point.flow != "Float" && point.target_model.has_value()) {
        const int lanes = point.target_model->max_group_size();
        if (lanes > 1) {
            width_weight += 0.25 * std::log2(static_cast<double>(lanes));
        }
    }
    return flow_weight * constraint_weight * width_weight;
}

void embed_target_models(std::vector<SweepPoint>& points) {
    for (SweepPoint& point : points) {
        if (point.target_model.has_value()) {
            point.target_model->validate();
        } else {
            point.target_model = targets::by_name(point.target);
        }
    }
}

void embed_kernel_sources(std::vector<SweepPoint>& points) {
    for (SweepPoint& point : points) {
        if (point.kernel_source.has_value()) continue;
        // Resolving here also surfaces unknown kernel names at plan time
        // (the same moment unknown targets surface), not on a worker.
        const kernels::KernelEntry entry =
            kernels::KernelRegistry::instance().entry(point.kernel);
        if (!entry.dsl_source.empty()) {
            point.kernel_source = entry.dsl_source;
        }
    }
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void mix(uint64_t& h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

void mix_string(uint64_t& h, const std::string& s) {
    mix(h, s.size());
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

}  // namespace

uint64_t point_fingerprint(const SweepPoint& point) {
    SLPWLO_CHECK(point.target_model.has_value(),
                 "point_fingerprint needs an embedded target model "
                 "(embed_target_models)");
    uint64_t h = kFnvOffset;
    mix_string(h, point.kernel);
    mix_string(h, point.target);
    mix_string(h, point.flow);
    uint64_t accuracy_bits;
    static_assert(sizeof(accuracy_bits) == sizeof(point.accuracy_db));
    std::memcpy(&accuracy_bits, &point.accuracy_db, sizeof(accuracy_bits));
    mix(h, accuracy_bits);
    mix(h, point.options.has_value() ? 1u : 0u);
    if (point.options.has_value()) {
        // The serialized form covers every field the manifest round-trips,
        // so two points whose options differ anywhere get distinct
        // fingerprints.
        mix_string(h, flow_options_kv(*point.options, ""));
    }
    if (point.kernel_source.has_value()) {
        // File-based kernels: the name alone does not identify the kernel
        // across processes — mix the embedded DSL source so same-name
        // kernels with different bodies never alias. Built-in points mix
        // nothing here, keeping their fingerprints stable across the
        // introduction of this field.
        mix(h, 0x6b65726eull);  // "kern" tag keeps absent/present distinct
        mix_string(h, *point.kernel_source);
    }
    // Both the name-free content fingerprint and the name: the name
    // lands in FlowResult.target_name (and so in the report bytes), so
    // renamed-identical models must not alias.
    mix(h, target_fingerprint(*point.target_model));
    mix_string(h, point.target_model->name);
    return h;
}

uint64_t grid_fingerprint(const std::vector<SweepPoint>& points) {
    uint64_t h = kFnvOffset;
    mix(h, points.size());
    for (const SweepPoint& point : points) {
        mix(h, point_fingerprint(point));
    }
    return h;
}

namespace {

/// Longest-processing-time greedy: place expensive slots first, each on
/// the currently least-loaded shard. Ties break on the lower slot / lower
/// shard index, so the assignment is a pure function of the costs.
std::vector<int> lpt_assignment(const std::vector<double>& cost,
                                int shard_count) {
    std::vector<size_t> order(cost.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (cost[a] != cost[b]) return cost[a] > cost[b];
        return a < b;
    });
    std::vector<int> shard_of(cost.size(), 0);
    std::vector<double> load(shard_count, 0.0);
    for (const size_t slot : order) {
        int lightest = 0;
        for (int s = 1; s < shard_count; ++s) {
            if (load[s] < load[lightest]) lightest = s;
        }
        shard_of[slot] = lightest;
        load[lightest] += cost[slot];
    }
    return shard_of;
}

std::vector<ShardPlan> plans_from_assignment(std::vector<SweepPoint> grid,
                                             int shard_count,
                                             ShardStrategy strategy,
                                             uint64_t grid_fp,
                                             const std::vector<int>& shard_of) {
    std::vector<ShardPlan> plans(shard_count);
    for (int s = 0; s < shard_count; ++s) {
        plans[s].shard_index = s;
        plans[s].shard_count = shard_count;
        plans[s].strategy = strategy;
        plans[s].total_slots = grid.size();
        plans[s].grid_fp = grid_fp;
    }
    // Walking slots in ascending order keeps each plan's slot list sorted.
    for (size_t slot = 0; slot < grid.size(); ++slot) {
        ShardPlan& plan = plans[shard_of[slot]];
        plan.slots.push_back(slot);
        plan.points.push_back(std::move(grid[slot]));
    }
    return plans;
}

}  // namespace

std::vector<ShardPlan> make_shard_plans(std::vector<SweepPoint> grid,
                                        int shard_count,
                                        ShardStrategy strategy) {
    SLPWLO_CHECK(shard_count >= 1, "shard count must be >= 1");
    embed_target_models(grid);
    embed_kernel_sources(grid);
    const uint64_t grid_fp = grid_fingerprint(grid);

    std::vector<int> shard_of;
    if (strategy == ShardStrategy::RoundRobin) {
        shard_of.resize(grid.size(), 0);
        for (size_t i = 0; i < grid.size(); ++i) {
            shard_of[i] = static_cast<int>(i % shard_count);
        }
    } else {
        std::vector<double> cost(grid.size());
        for (size_t i = 0; i < grid.size(); ++i) {
            cost[i] = estimate_point_cost(grid[i]);
        }
        shard_of = lpt_assignment(cost, shard_count);
    }
    return plans_from_assignment(std::move(grid), shard_count, strategy,
                                 grid_fp, shard_of);
}

std::vector<ShardPlan> make_shard_plans(
    std::vector<SweepPoint> grid, int shard_count,
    const std::vector<double>& slot_costs) {
    SLPWLO_CHECK(shard_count >= 1, "shard count must be >= 1");
    SLPWLO_CHECK(slot_costs.size() == grid.size(),
                 "measured-cost plans need one cost per grid slot (" +
                     std::to_string(slot_costs.size()) + " costs, " +
                     std::to_string(grid.size()) + " slots)");
    embed_target_models(grid);
    embed_kernel_sources(grid);
    const uint64_t grid_fp = grid_fingerprint(grid);
    return plans_from_assignment(std::move(grid), shard_count,
                                 ShardStrategy::CostBalanced, grid_fp,
                                 lpt_assignment(slot_costs, shard_count));
}

std::vector<std::vector<size_t>> chunk_grid_slots(
    const std::vector<SweepPoint>& points, const std::vector<size_t>& slots,
    const ChunkOptions& options) {
    SLPWLO_CHECK(points.size() == slots.size(),
                 "chunking needs one point per slot");
    SLPWLO_CHECK(!points.empty(), "cannot chunk an empty grid");
    std::vector<double> costs;
    costs.reserve(points.size());
    double total_cost = 0.0;
    for (const SweepPoint& point : points) {
        costs.push_back(estimate_point_cost(point));
        total_cost += costs.back();
    }
    double target = options.chunk_cost;
    if (target <= 0.0) target = total_cost / 16.0;

    // Greedy in slot order: cut when the accumulated cost reaches the
    // target (or the slot cap). Deterministic for fixed inputs.
    std::vector<std::vector<size_t>> chunks;
    std::vector<size_t> current;
    double current_cost = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
        current.push_back(slots[i]);
        current_cost += costs[i];
        const bool full = current_cost >= target ||
                          (options.max_chunk_slots != 0 &&
                           current.size() >= options.max_chunk_slots);
        if (full) {
            chunks.push_back(std::move(current));
            current.clear();
            current_cost = 0.0;
        }
    }
    if (!current.empty()) chunks.push_back(std::move(current));
    return chunks;
}

std::vector<double> measured_slot_costs(
    const std::vector<ShardResultsFile>& files, size_t total_slots,
    uint64_t grid_fp) {
    std::vector<double> costs(total_slots, -1.0);
    for (const ShardResultsFile& file : files) {
        if (file.total_slots != total_slots || file.grid_fp != grid_fp) {
            throw Error("measured costs: result file for grid " +
                        fingerprint_hex(file.grid_fp) + " with " +
                        std::to_string(file.total_slots) +
                        " slots does not match the grid being planned (" +
                        std::to_string(total_slots) + " slots)");
        }
        for (const ShardRow& row : file.rows) {
            SLPWLO_CHECK(row.slot < total_slots,
                         "measured costs: row slot out of range");
            const double micros = static_cast<double>(row.micros);
            // A slot reported twice (a straggler and its replacement)
            // keeps the faster measurement — the straggler's inflated
            // wall-clock says nothing about the point.
            if (costs[row.slot] < 0.0 || micros < costs[row.slot]) {
                costs[row.slot] = micros;
            }
        }
    }
    double sum = 0.0;
    size_t measured = 0;
    for (const double c : costs) {
        if (c < 0.0) continue;
        sum += c;
        measured++;
    }
    const double fallback = measured > 0 ? sum / measured : 1.0;
    for (double& c : costs) {
        if (c < 0.0) c = fallback;
        if (c < 1.0) c = 1.0;  // floor: zeroes would degenerate the LPT
    }
    return costs;
}

}  // namespace slpwlo::dist
