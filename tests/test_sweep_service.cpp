// SweepService and the WorkSource seam: VectorSource/PlanSource
// equivalence with SweepDriver::run, lease directory round trips, expiry
// re-issue with duplicate-row resolution, and in-process elastic runs
// byte-identical to the single-process report (flow/work_source.hpp,
// dist/lease_coordinator.hpp).
#include <gtest/gtest.h>

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "dist/lease_coordinator.hpp"
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
namespace fs = std::filesystem;

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

ShardManifest whole_grid_manifest(const std::vector<SweepPoint>& grid) {
    const std::vector<ShardPlan> plans =
        make_shard_plans(grid, 1, ShardStrategy::RoundRobin);
    return parse_shard_manifest(shard_manifest_text(plans[0]), "<test>");
}

/// A scoped temporary directory for lease tests.
struct TempDir {
    TempDir() {
        char tmpl[] = "/tmp/slpwlo_lease.XXXXXX";
        const char* created = mkdtemp(tmpl);
        SLPWLO_CHECK(created != nullptr, "mkdtemp failed");
        path = created;
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string sub(const std::string& name) const { return path + "/" + name; }
    std::string path;
};

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

    // Bounded acquires hand out ascending slots.
    Lease first = source.acquire(2);
    ASSERT_EQ(first.slots, (std::vector<size_t>{0, 1}));
    Lease second = source.acquire(0);
    ASSERT_EQ(second.slots, (std::vector<size_t>{2}));
    EXPECT_TRUE(source.acquire(0).empty());

    // Abandoned slots come back first.
    source.abandon(first);
    Lease retry = source.acquire(0);
    ASSERT_EQ(retry.slots, (std::vector<size_t>{0, 1}));

    SweepDriver driver;
    source.complete(retry, run_lease(driver, retry));
    source.complete(second, run_lease(driver, second));
    const std::vector<SweepResult> results = source.take_results();
    ASSERT_EQ(results.size(), 3u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].point.accuracy_db, grid[i].accuracy_db);
    }
}

TEST(VectorSource, IncompleteDrainThrows) {
    VectorSource source(tiny_grid());
    Lease lease = source.acquire(1);
    SweepDriver driver;
    source.complete(lease, run_lease(driver, lease));
    EXPECT_THROW(source.take_results(), Error);  // slot 1 never completed
}

// --- SweepService equivalence --------------------------------------------------

TEST(SweepService, ChunkedVectorSourceMatchesDriverRunBytes) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const std::string reference = reference_json(grid);

    // One point per lease, single-threaded: maximally different execution
    // shape from the one-pool-run reference, identical bytes required.
    VectorSource source(grid);
    SweepService service(ExecOptions{});
    EXPECT_EQ(service.drain(source, 1), grid.size());
    EXPECT_EQ(sweep_to_json(source.take_results()), reference);
}

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
        service.drain(source, 1);
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

TEST(MergePolicy, AllowIdenticalResolvesReissuedDuplicates) {
    ShardResultsFile a;
    a.total_slots = 2;
    a.grid_fp = 0xabc;
    a.rows.push_back(ShardRow{0, 0x1, "{\"x\":1}", 100});
    a.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}", 100});
    ShardResultsFile b;
    b.total_slots = 2;
    b.grid_fp = 0xabc;
    // The re-run of slot 1: identical bytes, different measured micros.
    b.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}", 999});

    // Default policy still refuses overlap (static plans are disjoint).
    EXPECT_THROW(merge_shard_results({a, b}), Error);
    EXPECT_EQ(merge_shard_results({a, b}, DuplicatePolicy::AllowIdentical),
              "[\n  {\"x\":1},\n  {\"x\":2}\n]\n");

    // Differing bytes stay a hard conflict under either policy.
    ShardResultsFile conflict;
    conflict.total_slots = 2;
    conflict.grid_fp = 0xabc;
    conflict.rows.push_back(ShardRow{1, 0x2, "{\"x\":9}", 999});
    EXPECT_THROW(
        merge_shard_results({a, conflict}, DuplicatePolicy::AllowIdentical),
        Error);
}

// --- lease directory -----------------------------------------------------------

TEST(LeaseDir, ServeStatusAndWorkerRoundTrip) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const ShardManifest manifest = whole_grid_manifest(grid);
    TempDir tmp;
    const std::string dir = tmp.sub("farm");

    LeaseOptions options;
    options.max_chunk_slots = 1;  // one chunk per point, deterministic
    const size_t chunks = init_lease_dir(dir, manifest, options);
    EXPECT_EQ(chunks, grid.size());
    // Re-initializing an existing directory is refused.
    EXPECT_THROW(init_lease_dir(dir, manifest, options), Error);

    LeaseDirStatus status = lease_dir_status(dir);
    EXPECT_EQ(status.chunks, chunks);
    EXPECT_EQ(status.completed, 0u);
    EXPECT_EQ(status.claimed, 0u);
    EXPECT_EQ(status.reissued, 0u);

    LeaseWorkerOptions worker;
    worker.worker_id = "a";
    LeaseWorkSource source(dir, worker);
    EXPECT_EQ(source.total_slots(), grid.size());
    EXPECT_EQ(source.manifest().grid_fp, manifest.grid_fp);

    // Acquire claims chunk 0; abandon releases it for re-acquire.
    Lease lease = source.acquire(0);
    ASSERT_EQ(lease.slots, (std::vector<size_t>{0}));
    EXPECT_EQ(lease_dir_status(dir).claimed, 1u);
    source.abandon(lease);
    EXPECT_EQ(lease_dir_status(dir).claimed, 0u);
    Lease again = source.acquire(0);
    EXPECT_EQ(again.slots, lease.slots);

    // Complete publishes the chunk and releases the claim.
    SweepDriver driver;
    source.complete(again, run_lease(driver, again));
    status = lease_dir_status(dir);
    EXPECT_EQ(status.completed, 1u);
    EXPECT_EQ(status.claimed, 0u);
    // Collecting with chunks outstanding names the holes.
    EXPECT_THROW(collect_lease_results(dir), Error);

    // Drain the rest through the service; acquire() then reports empty.
    SweepService service(driver);
    EXPECT_EQ(service.drain(source), grid.size() - 1);
    EXPECT_TRUE(source.acquire(0).empty());
    EXPECT_EQ(lease_dir_status(dir).completed, chunks);
    EXPECT_EQ(collect_lease_results(dir), reference_json(grid));
}

TEST(LeaseDir, ExpiryReissueAndDuplicateRowsMerge) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const ShardManifest manifest = whole_grid_manifest(grid);
    TempDir tmp;
    const std::string dir = tmp.sub("farm");

    LeaseOptions options;
    options.max_chunk_slots = 1;
    options.ttl_ms = 0;  // every claim is stealable as soon as time moves
    init_lease_dir(dir, manifest, options);

    LeaseWorkerOptions a_opts, b_opts;
    a_opts.worker_id = "a";
    b_opts.worker_id = "b";
    LeaseWorkSource a(dir, a_opts);
    LeaseWorkSource b(dir, b_opts);

    // a claims chunk 0 and stalls; once the ttl passes, b steals the same
    // chunk (re-issue) and runs it too.
    Lease held = a.acquire(0);
    ASSERT_EQ(held.slots, (std::vector<size_t>{0}));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Lease stolen = b.acquire(0);
    ASSERT_EQ(stolen.slots, held.slots);
    EXPECT_EQ(b.steals(), 1u);
    EXPECT_EQ(lease_dir_status(dir).reissued, 1u);

    // Both finish: two rows files for chunk 0, byte-identical modulo the
    // measured micros, resolved at merge. The straggler's publish after
    // being stolen must not disturb anything.
    SweepDriver driver;
    b.complete(stolen, run_lease(driver, stolen));
    a.complete(held, run_lease(driver, held));
    SweepService service(driver);
    service.drain(b);  // the remaining chunk

    const LeaseDirStatus status = lease_dir_status(dir);
    EXPECT_EQ(status.completed, status.chunks);
    EXPECT_EQ(status.reissued, 1u);
    EXPECT_EQ(collect_lease_results(dir), reference_json(grid));
}

TEST(LeaseDir, BoundedAcquireSplitsOversizedChunks) {
    // One big chunk, workers that only want one slot at a time: acquire
    // re-chops on claim, publishing the remainder as new claimable
    // chunks, and the merged bytes still match the reference exactly.
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR"}, {"XENTIUM"}, {"WLO-SLP"}, {-20.0, -30.0, -40.0});
    const ShardManifest manifest = whole_grid_manifest(grid);
    const std::string reference = reference_json(grid);
    TempDir tmp;
    const std::string dir = tmp.sub("farm");

    LeaseOptions options;
    options.chunk_cost = 1e12;  // everything lands in one chunk
    ASSERT_EQ(init_lease_dir(dir, manifest, options), 1u);

    LeaseWorkerOptions small_opts;
    small_opts.worker_id = "small";
    LeaseWorkSource small(dir, small_opts);

    // The bounded acquire keeps the first slot and splits the rest off.
    Lease head = small.acquire(1);
    ASSERT_EQ(head.slots, (std::vector<size_t>{0}));
    ASSERT_EQ(head.points.size(), 1u);
    EXPECT_EQ(lease_dir_status(dir).chunks, 2u);

    // The split-off tail is immediately claimable by a second worker
    // while the head is still held — and that worker's own bound splits
    // it again (fresh-id allocation past an existing split chunk).
    LeaseWorkerOptions peer_opts;
    peer_opts.worker_id = "peer";
    LeaseWorkSource peer(dir, peer_opts);
    Lease mid = peer.acquire(1);
    ASSERT_EQ(mid.slots, (std::vector<size_t>{1}));
    const LeaseDirStatus in_flight = lease_dir_status(dir);
    EXPECT_EQ(in_flight.chunks, 3u);
    EXPECT_EQ(in_flight.claimed, 2u);

    SweepDriver driver;
    small.complete(head, run_lease(driver, head));
    peer.complete(mid, run_lease(driver, mid));

    // The last tail ([2]) fits the bound — claimed whole, no new split.
    Lease last = small.acquire(1);
    ASSERT_EQ(last.slots, (std::vector<size_t>{2}));
    EXPECT_EQ(lease_dir_status(dir).chunks, 3u);
    small.complete(last, run_lease(driver, last));
    EXPECT_TRUE(small.acquire(1).empty());

    const LeaseDirStatus status = lease_dir_status(dir);
    EXPECT_EQ(status.completed, 3u);
    EXPECT_EQ(status.claimed, 0u);
    EXPECT_EQ(collect_lease_results(dir), reference);
}

TEST(LeaseDir, InProcessElasticMatchesReferenceAtOneAndNWorkers) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const ShardManifest manifest = whole_grid_manifest(grid);
    const std::string reference = reference_json(grid);

    // One worker drains everything.
    {
        TempDir tmp;
        const std::string dir = tmp.sub("solo");
        LeaseOptions options;
        options.max_chunk_slots = 1;
        init_lease_dir(dir, manifest, options);
        LeaseWorkerOptions worker;
        worker.worker_id = "solo";
        LeaseWorkSource source(dir, worker);
        SweepService service{ExecOptions{}};
        EXPECT_EQ(service.drain(source), grid.size());
        EXPECT_EQ(collect_lease_results(dir), reference);
    }

    // N workers race over the same directory; the union of what they ran
    // is the whole grid, and the merged bytes do not change.
    {
        TempDir tmp;
        const std::string dir = tmp.sub("farm");
        LeaseOptions options;
        options.max_chunk_slots = 1;
        init_lease_dir(dir, manifest, options);

        constexpr int kWorkers = 2;
        size_t executed[kWorkers] = {};
        std::vector<std::thread> threads;
        for (int w = 0; w < kWorkers; ++w) {
            threads.emplace_back([&, w] {
                LeaseWorkerOptions worker;
                worker.worker_id = "w" + std::to_string(w);
                LeaseWorkSource source(dir, worker);
                SweepService service{ExecOptions{}};
                executed[w] = service.drain(source);
            });
        }
        for (std::thread& thread : threads) thread.join();
        EXPECT_EQ(executed[0] + executed[1], grid.size());
        EXPECT_EQ(collect_lease_results(dir), reference);
    }
}

}  // namespace
}  // namespace slpwlo
