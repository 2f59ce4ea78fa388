// Accuracy conflicts by footprint (core/accuracy_conflicts.hpp) against the
// pairwise-probe reference (tests/conflict_reference.hpp).
//
// Every decision is compared where it is made: the reference extraction
// runs with an AccuracyConflicts watching on the same spec, which must
// reach the same validity and the same conflict pairs in every round; then
// the library flow runs alone and must return the same groups, SlpStats,
// solver statistics and spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accuracy/sim_evaluator.hpp"
#include "conflict_reference.hpp"
#include "core/accuracy_conflicts.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "target/target_registry.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::initial_spec;

constexpr long long kExactNodeBudget = 20000;

struct OracleCounts {
    long long points = 0;
    long long rounds = 0;
    long long pairs = 0;      ///< structurally compatible pairs decided
    long long conflicts = 0;  ///< accuracy conflicts the probe found
    long long mismatches = 0;
    ConflictScreenCounts screen;

    void add(const ConflictScreenCounts& c) {
        screen.disjoint += c.disjoint;
        screen.corrected += c.corrected;
        screen.probed += c.probed;
    }
};

const std::vector<double>& constraint_grid() {
    static const std::vector<double> grid{-20.0, -30.0, -40.0, -50.0, -60.0};
    return grid;
}

bool same_groups(const WloSlpResult& a, const WloSlpResult& b) {
    if (a.block_groups.size() != b.block_groups.size()) return false;
    for (size_t i = 0; i < a.block_groups.size(); ++i) {
        const BlockGroups& x = a.block_groups[i];
        const BlockGroups& y = b.block_groups[i];
        if (x.block != y.block || x.groups.size() != y.groups.size()) {
            return false;
        }
        for (size_t g = 0; g < x.groups.size(); ++g) {
            if (x.groups[g].lanes != y.groups[g].lanes) return false;
        }
    }
    return true;
}

bool same_stats(const SlpStats& a, const SlpStats& b) {
    return a.rounds == b.rounds && a.candidates_seen == b.candidates_seen &&
           a.invalid_candidates == b.invalid_candidates &&
           a.structural_conflicts == b.structural_conflicts &&
           a.extra_conflicts == b.extra_conflicts && a.selected == b.selected &&
           a.rejected_at_select == b.rejected_at_select &&
           a.devirtualized == b.devirtualized;
}

bool same_spec(const FixedPointSpec& a, const FixedPointSpec& b) {
    for (const NodeRef node : a.nodes()) {
        const FixedFormat& x = a.format(node);
        const FixedFormat& y = b.format(node);
        if (x.iwl != y.iwl || x.fwl != y.fwl) return false;
    }
    return true;
}

/// One flow point: the reference extraction with an AccuracyConflicts
/// watching on the same spec, then the library flow alone.
void expect_point_matches(const Kernel& kernel,
                          const AccuracyEvaluator& evaluator,
                          const FixedPointSpec& initial,
                          const TargetModel& target, double accuracy_db,
                          bool exact, OracleCounts& counts) {
    {
        FixedPointSpec widest = initial;
        for (const NodeRef node : widest.nodes()) {
            widest.set_wl(node, target.max_wl());
        }
        if (evaluator.violates(widest, accuracy_db)) return;
    }
    WloSlpOptions options;
    options.accuracy_db = accuracy_db;
    options.exact_selection = exact;
    // The exact search consumes the conflict sets; a small node budget
    // keeps the matrix fast and is the same for both runs.
    options.solver_budget.max_nodes = kExactNodeBudget;
    const std::string where = kernel.name() + " @ " + target.name + " " +
                              std::to_string(accuracy_db) + " dB" +
                              (exact ? " SLP-Optimal" : " WLO-SLP");

    std::unique_ptr<EvalSession> session;
    std::optional<AccuracyConflicts> screen;
    const auto retire_screen = [&] {
        if (screen.has_value()) counts.add(screen->counts());
        screen.reset();
    };
    reference::ConflictWatch watch;
    watch.extraction_begin = [&](const PackedView& view,
                                 FixedPointSpec& spec) {
        retire_screen();
        session = evaluator.open_session(spec);
        screen.emplace(view, spec, *session, target, accuracy_db);
    };
    watch.round_begin = [&] { screen->begin_round(); };
    watch.validity = [&](const Candidate& c, bool valid) {
        if (screen->valid(c) != valid) {
            counts.mismatches++;
            ADD_FAILURE() << where << ": validity differs";
        }
    };
    watch.conflicts = [&](const std::vector<Candidate>& candidates,
                          const ConflictSet& structural,
                          const ConflictSet& probed) {
        ConflictSet screened = structural;
        screen->add_conflicts(candidates, screened);
        const size_t n = candidates.size();
        counts.rounds++;
        counts.pairs += static_cast<long long>(n * (n - 1) / 2 -
                                               structural.pair_count());
        counts.conflicts += static_cast<long long>(probed.pair_count() -
                                                   structural.pair_count());
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = i + 1; j < n; ++j) {
                if (screened.conflict(i, j) != probed.conflict(i, j)) {
                    counts.mismatches++;
                    ADD_FAILURE() << where << ": pair (" << i << ", " << j
                                  << ") differs";
                }
            }
        }
    };

    FixedPointSpec expected_spec = initial;
    const WloSlpResult expected = reference::run_slp_aware_wlo(
        kernel, expected_spec, evaluator, target, options, watch);
    retire_screen();

    FixedPointSpec spec = initial;
    const WloSlpResult got =
        run_slp_aware_wlo(kernel, spec, evaluator, target, options);
    counts.points++;
    EXPECT_TRUE(same_groups(got, expected)) << where;
    EXPECT_TRUE(same_stats(got.slp_stats, expected.slp_stats)) << where;
    EXPECT_EQ(got.slp_stats.extra_conflicts, expected.slp_stats.extra_conflicts)
        << where;
    EXPECT_EQ(got.solver_stats.nodes, expected.solver_stats.nodes) << where;
    EXPECT_EQ(got.solver_stats.solves, expected.solver_stats.solves) << where;
    EXPECT_TRUE(same_spec(spec, expected_spec)) << where;
}

/// Every kernel x every target preset x the constraint grid x both
/// extraction flows, the (kernel, target) items shared out over up to four
/// threads (the probe on every pair is the slow side).
OracleCounts expect_kernels_match(const std::vector<Kernel>& kernels) {
    std::vector<std::unique_ptr<AnalyticEvaluator>> evaluators;
    std::vector<FixedPointSpec> initial;
    for (const Kernel& kernel : kernels) {
        evaluators.push_back(std::make_unique<AnalyticEvaluator>(kernel));
        initial.push_back(initial_spec(kernel));
    }
    const std::vector<std::string> targets =
        TargetRegistry::instance().names();

    OracleCounts total;
    std::mutex mutex;
    std::atomic<size_t> next{0};
    const size_t items = kernels.size() * targets.size();
    const auto worker = [&] {
        OracleCounts counts;
        for (size_t i = next++; i < items; i = next++) {
            const size_t k = i / targets.size();
            const TargetModel target =
                targets::by_name(targets[i % targets.size()]);
            for (const double db : constraint_grid()) {
                for (const bool exact : {false, true}) {
                    expect_point_matches(kernels[k], *evaluators[k],
                                         initial[k], target, db, exact,
                                         counts);
                }
            }
        }
        const std::lock_guard<std::mutex> lock(mutex);
        total.points += counts.points;
        total.rounds += counts.rounds;
        total.pairs += counts.pairs;
        total.conflicts += counts.conflicts;
        total.mismatches += counts.mismatches;
        total.add(counts.screen);
    };
    const size_t threads = std::min<size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
    return total;
}

TEST(ConflictOracle, RegistryKernels) {
    std::vector<Kernel> kernels;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        kernels.push_back(kernels::make_benchmark_kernel(name).kernel);
    }
    const OracleCounts counts = expect_kernels_match(kernels);
    EXPECT_EQ(counts.mismatches, 0);
    EXPECT_GT(counts.pairs, 1000);
    // (a) points with real accuracy conflicts.
    EXPECT_GT(counts.conflicts, 0);
    EXPECT_EQ(counts.screen.disjoint + counts.screen.corrected +
                  counts.screen.probed,
              counts.pairs);
}

TEST(ConflictOracle, KernelCorpus) {
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(SLPWLO_KERNEL_CORPUS_DIR)) {
        if (entry.path().extension() == ".slp") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_GE(paths.size(), 7u);
    std::vector<Kernel> kernels;
    for (const std::string& path : paths) {
        kernels.push_back(frontend::load_kernel_file(path).kernel);
    }
    const OracleCounts counts = expect_kernels_match(kernels);
    EXPECT_EQ(counts.mismatches, 0);
    // (b) overlapping footprints: load groups on one array share its node.
    EXPECT_GT(counts.screen.corrected, 0);
    EXPECT_GT(counts.screen.disjoint, 0);
}

TEST(ConflictOracle, GeneratedKernels) {
    frontend::GenOptions hostile;
    hostile.slp_hostile = true;
    std::vector<Kernel> kernels;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        kernels.push_back(frontend::generate_kernel(seed).kernel);
    }
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        kernels.push_back(frontend::generate_kernel(seed, hostile).kernel);
    }
    const OracleCounts counts = expect_kernels_match(kernels);
    EXPECT_EQ(counts.mismatches, 0);
    EXPECT_GT(counts.points, 0);
}

/// One extraction round of `kernel`'s hottest block at the widest WLs:
/// the screen against the probe on the round's valid candidates.
struct RoundCheck {
    ConflictScreenCounts screen;
    long long extra = 0;  ///< accuracy conflicts the probe found
    bool same = true;
};

RoundCheck check_first_round(const Kernel& kernel,
                             const AccuracyEvaluator& evaluator,
                             const TargetModel& target, double accuracy_db) {
    FixedPointSpec spec = initial_spec(kernel);
    for (const NodeRef node : spec.nodes()) spec.set_wl(node, target.max_wl());
    PackedView view(kernel, blocks_by_priority(kernel).front());
    const std::unique_ptr<EvalSession> session = evaluator.open_session(spec);
    AccuracyConflicts screen(view, spec, *session, target, accuracy_db);

    screen.begin_round();
    std::vector<Candidate> valid;
    for (const Candidate& c : extract_candidates(view, target)) {
        if (screen.valid(c)) valid.push_back(c);
    }
    const ConflictSet structural = detect_structural_conflicts(view, valid);
    ConflictSet screened = structural;
    screen.add_conflicts(valid, screened);
    ConflictSet probed = structural;
    reference::add_probed_conflicts(view, spec, *session, target, accuracy_db,
                                    valid, probed);

    RoundCheck check;
    check.screen = screen.counts();
    check.extra = static_cast<long long>(probed.pair_count() -
                                         structural.pair_count());
    for (size_t i = 0; i < valid.size(); ++i) {
        for (size_t j = i + 1; j < valid.size(); ++j) {
            if (screened.conflict(i, j) != probed.conflict(i, j)) {
                check.same = false;
            }
        }
    }
    return check;
}

TEST(ConflictOracle, TwoLoadGroupsOnOneArrayShareFootprints) {
    // y[n] = c0 x[4n] + c1 x[4n+1] + c2 x[4n+2] + c3 x[4n+3]: the load
    // pairs {x0, x1} and {x2, x3} both lower the node of array x, so
    // their footprints share every site that reads it.
    KernelBuilder b("four_tap");
    const ArrayId x = b.input("x", 64, Interval(-1.0, 1.0));
    const ArrayId y = b.output("y", 16);
    const LoopId n = b.begin_loop("n", 0, 16);
    VarId acc;
    const double coeffs[] = {0.5, -0.25, 0.125, 0.75};
    for (int k = 0; k < 4; ++k) {
        const VarId term = b.mul(b.load(x, Affine::var(n) * 4 + k),
                                 b.constant(coeffs[k]));
        acc = k == 0 ? term : b.add(acc, term);
    }
    b.store(y, Affine::var(n), acc);
    b.end_loop();
    const Kernel kernel = b.take();
    const AnalyticEvaluator evaluator(kernel);
    for (const double db : constraint_grid()) {
        const RoundCheck check =
            check_first_round(kernel, evaluator, targets::xentium(), db);
        EXPECT_TRUE(check.same) << db << " dB";
        EXPECT_GT(check.screen.corrected, 0) << db << " dB";
    }
}

TEST(ConflictOracle, PairAtTheConstraintFallsBackToTheProbe) {
    // (c) Set the constraint to one compatible pair's own noise: no
    // screened value can clear it by the error bound, so that pair (at
    // least) is probed, and the conflict set still matches.
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const AnalyticEvaluator evaluator(kernel);
    const TargetModel target = targets::xentium();
    FixedPointSpec spec = initial_spec(kernel);
    for (const NodeRef node : spec.nodes()) spec.set_wl(node, target.max_wl());
    PackedView view(kernel, blocks_by_priority(kernel).front());
    const std::vector<Candidate> candidates = extract_candidates(view, target);
    const ConflictSet structural =
        detect_structural_conflicts(view, candidates);

    int forced = 0;
    for (size_t i = 0; i < candidates.size() && forced < 4; ++i) {
        for (size_t j = i + 1; j < candidates.size() && forced < 4; ++j) {
            if (structural.conflict(i, j)) continue;
            const auto cp = spec.checkpoint();
            for (const size_t k : {i, j}) {
                const std::vector<OpId> lanes =
                    fused_lanes(view, candidates[k]);
                set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()),
                                 target);
            }
            const double pair_db = evaluator.noise_power_db(spec);
            spec.revert(cp);
            const RoundCheck check =
                check_first_round(kernel, evaluator, target, pair_db);
            EXPECT_TRUE(check.same) << pair_db << " dB";
            // Both candidates alone stay valid unless narrowing one of
            // them lowers the noise; then the pair is not in the round.
            if (check.screen.probed > 0) forced++;
            j += candidates.size() / 4;  // spread over the round
        }
    }
    EXPECT_GT(forced, 0);
}

TEST(ConflictOracle, SessionsWithoutSiteTermsProbeEveryPair) {
    const Kernel kernel = ::slpwlo::testing::make_two_tap();
    const SimulationEvaluator evaluator(kernel);
    OracleCounts counts;
    const FixedPointSpec initial = initial_spec(kernel);
    for (const double db : {-30.0, -50.0}) {
        expect_point_matches(kernel, evaluator, initial, targets::xentium(),
                             db, false, counts);
    }
    EXPECT_EQ(counts.mismatches, 0);
    EXPECT_GT(counts.pairs, 0);
    EXPECT_EQ(counts.screen.disjoint + counts.screen.corrected, 0);
    EXPECT_EQ(counts.screen.probed, counts.pairs);
}

}  // namespace
}  // namespace slpwlo
