// SweepService and the WorkSource seam: VectorSource/PlanSource
// equivalence with SweepDriver::run, and duplicate-row resolution in the
// streaming merge (flow/work_source.hpp, dist/shard_merger.hpp).
#include <gtest/gtest.h>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "flow/work_source.hpp"
#include "support/diagnostics.hpp"
#include "target/target_model.hpp"

namespace slpwlo {
namespace {

using namespace slpwlo::dist;

std::vector<SweepPoint> tiny_grid() {
    return SweepDriver::grid({"FIR"}, {"XENTIUM"}, {"WLO-SLP"},
                             {-20.0, -30.0});
}

/// The single-process reference bytes every other execution shape must
/// reproduce exactly.
std::string reference_json(const std::vector<SweepPoint>& grid) {
    SweepOptions options;
    options.threads = 2;
    SweepDriver driver(options);
    return sweep_to_json(driver.run(grid));
}

/// Run one lease's points on `driver` and package the rows the way
/// SweepService::drain does.
std::vector<WorkRow> run_lease(SweepDriver& driver, const Lease& lease) {
    std::vector<long long> micros;
    std::vector<SweepResult> results = driver.run_timed(lease.points, &micros);
    std::vector<WorkRow> rows;
    rows.reserve(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        rows.push_back(WorkRow{std::move(results[i]), micros[i]});
    }
    return rows;
}

// --- VectorSource mechanics ----------------------------------------------------

TEST(VectorSource, AcquireCompleteAbandonRoundTrip) {
    std::vector<SweepPoint> grid = tiny_grid();
    grid.push_back(grid.front());  // 3 points
    VectorSource source(grid);
    EXPECT_EQ(source.total_slots(), 3u);

    // One acquire hands out every slot, ascending; then the source is dry.
    Lease first = source.acquire();
    ASSERT_EQ(first.slots, (std::vector<size_t>{0, 1, 2}));
    EXPECT_TRUE(source.acquire().empty());

    // Abandoned slots become acquirable again, points intact.
    source.abandon(first);
    Lease retry = source.acquire();
    ASSERT_EQ(retry.slots, first.slots);
    ASSERT_EQ(retry.points.size(), 3u);

    SweepDriver driver;
    source.complete(retry, run_lease(driver, retry));
    const std::vector<SweepResult> results = source.take_results();
    ASSERT_EQ(results.size(), 3u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].point.accuracy_db, grid[i].accuracy_db);
    }
}

TEST(VectorSource, IncompleteDrainThrows) {
    VectorSource source(tiny_grid());
    source.abandon(source.acquire());
    EXPECT_THROW(source.take_results(), Error);  // nothing completed
}

// --- SweepService equivalence --------------------------------------------------

TEST(SweepService, PlanSourceMatchesDriverRunBytes) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const std::string reference = reference_json(grid);

    const std::vector<ShardPlan> plans =
        make_shard_plans(grid, 2, ShardStrategy::RoundRobin);
    std::vector<ShardResultsFile> files;
    for (const ShardPlan& plan : plans) {
        const ShardManifest manifest =
            parse_shard_manifest(shard_manifest_text(plan), "<test>");
        PlanSource source(manifest);
        SweepService service(ExecOptions{});
        service.drain(source);
        PlanSource::Output out = source.take();
        EXPECT_EQ(out.sweep.size(), plan.points.size());
        files.push_back(std::move(out.results));
    }
    EXPECT_EQ(merge_shard_results(files), reference);
}

TEST(SweepService, RunShardStillMatchesReferenceSlice) {
    // dist::run_shard is now a PlanSource + SweepService wrapper; its rows
    // must still be the exact reference slice (the pre-redesign contract).
    const std::vector<SweepPoint> grid = tiny_grid();
    const std::string reference = reference_json(grid);

    const std::vector<ShardPlan> plans =
        make_shard_plans(grid, 2, ShardStrategy::CostBalanced);
    std::vector<ShardResultsFile> files;
    for (const ShardPlan& plan : plans) {
        const ShardManifest manifest =
            parse_shard_manifest(shard_manifest_text(plan), "<test>");
        files.push_back(run_shard(manifest).results);
    }
    EXPECT_EQ(merge_shard_results(files), reference);
}

// --- estimate_point_cost width awareness ---------------------------------------

TEST(PointCost, SeesTargetModelOverrides) {
    SweepPoint base{"FIR", "XENTIUM", "WLO-SLP", -30.0, {}, {}, {}};
    SweepPoint embedded = base;
    embedded.target_model = targets::xentium();
    SweepPoint wide = base;
    wide.target_model = targets::xentium().with_simd_width(64);

    // A width-derived model admits more lanes and must cost more than its
    // base; an un-embedded point stays at the neutral weight.
    EXPECT_GT(estimate_point_cost(wide), estimate_point_cost(embedded));
    EXPECT_GT(estimate_point_cost(embedded), estimate_point_cost(base));

    // The Float reference skips the SLP machinery: width is free there.
    SweepPoint float_base = base;
    float_base.flow = "Float";
    SweepPoint float_wide = float_base;
    float_wide.target_model = wide.target_model;
    EXPECT_EQ(estimate_point_cost(float_base),
              estimate_point_cost(float_wide));
}

// --- merge duplicate policy ----------------------------------------------------

ShardResultsFile rows_file(std::vector<ShardRow> rows) {
    ShardResultsFile file;
    file.total_slots = 2;
    file.grid_fp = 0xabc;
    file.rows = std::move(rows);
    return file;
}

TEST(MergePolicy, AllowIdenticalResolvesReissuedDuplicates) {
    const ShardResultsFile a = rows_file({ShardRow{0, 0x1, "{\"x\":1}", 100},
                                          ShardRow{1, 0x2, "{\"x\":2}", 100}});
    // The re-run of slot 1: identical bytes, different measured micros.
    const ShardResultsFile b =
        rows_file({ShardRow{1, 0x2, "{\"x\":2}", 999}});

    // The default policy still refuses overlap (static plans are disjoint).
    RowAccumulator strict(2, 0xabc);
    strict.add(a);
    EXPECT_THROW(strict.add(b), Error);

    RowAccumulator lenient(2, 0xabc, DuplicatePolicy::AllowIdentical);
    lenient.add(a);
    lenient.add(b);
    EXPECT_EQ(lenient.report(), "[\n  {\"x\":1},\n  {\"x\":2}\n]\n");

    // Differing bytes stay a hard conflict under either policy.
    const ShardResultsFile conflict =
        rows_file({ShardRow{1, 0x2, "{\"x\":9}", 999}});
    EXPECT_THROW(lenient.add(conflict), Error);
}

}  // namespace
}  // namespace slpwlo
