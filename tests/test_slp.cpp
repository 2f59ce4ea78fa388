// Tests for the SLP substrate: packed view, candidates, conflicts,
// economics, extraction engine and the plain (WLO-First) extractor.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "economics_reference.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "slp/plain_extractor.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "target/target_model.hpp"
#include "target/target_registry.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::set_uniform_wl;
using ::slpwlo::testing::small_fir;

BlockId hot_block(const Kernel& k) {
    BlockId best = k.blocks_in_order().front();
    for (const BlockId b : k.blocks_in_order()) {
        if (k.block_frequency(b) > k.block_frequency(best)) best = b;
    }
    return best;
}

// --- PackedView ---------------------------------------------------------------

TEST(PackedView, InitialNodesAreScalar) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    EXPECT_EQ(view.size(), 16);  // 4 lanes x (2 loads + mul + add)
    for (int i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view.width(i), 1);
    }
    EXPECT_TRUE(view.groups().empty());
}

TEST(PackedView, FuseCreatesWiderNodes) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    // Find two independent muls.
    std::vector<int> muls;
    for (int i = 0; i < view.size(); ++i) {
        if (view.kind(i) == OpKind::Mul) muls.push_back(i);
    }
    ASSERT_GE(muls.size(), 2u);
    ASSERT_TRUE(view.independent(muls[0], muls[1]));
    view.fuse({{muls[0], muls[1]}});
    EXPECT_EQ(view.size(), 15);
    const auto groups = view.groups();
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].width(), 2);
}

TEST(PackedView, DependenceThroughLanes) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    // The add consuming a mul's result depends on it; fusing keeps that.
    int mul = -1, add = -1;
    for (int i = 0; i < view.size(); ++i) {
        if (view.kind(i) == OpKind::Mul && mul < 0) mul = i;
        if (view.kind(i) == OpKind::Add && add < 0) add = i;
    }
    ASSERT_GE(mul, 0);
    ASSERT_GE(add, 0);
    EXPECT_TRUE(view.depends(add, mul) || view.independent(add, mul));
}

TEST(PackedView, SelfAccumulatorHasExternalUses) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    for (int i = 0; i < view.size(); ++i) {
        if (view.kind(i) == OpKind::Add) {
            // acc feeds the reduction in another block.
            EXPECT_TRUE(view.has_external_uses(view.node(i).lanes[0]));
        }
    }
}

TEST(PackedView, IncrementalDepsMatchFullRebuild) {
    // fuse/split maintain the node dependence matrix incrementally; every
    // intermediate state must match the from-scratch recomputation bit
    // for bit.
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));

    const auto check = [&](const std::string& stage) {
        const auto full = view.full_node_deps();
        for (int i = 0; i < view.size(); ++i) {
            for (int j = 0; j < view.size(); ++j) {
                if (i == j) continue;
                ASSERT_EQ(view.depends(i, j), full[i][j])
                    << stage << ": nodes (" << i << ", " << j << ")";
            }
        }
    };
    check("initial");

    // Greedy rounds of same-kind equal-width pair fusion: round 1 builds
    // 2-lane groups, round 2 widens to 4, exercising multi-lane unions.
    for (int round = 0; round < 3; ++round) {
        std::vector<std::vector<int>> tuples;
        std::vector<bool> used(static_cast<size_t>(view.size()), false);
        for (int i = 0; i < view.size(); ++i) {
            if (used[static_cast<size_t>(i)]) continue;
            for (int j = i + 1; j < view.size(); ++j) {
                if (used[static_cast<size_t>(j)]) continue;
                if (view.kind(i) != view.kind(j)) continue;
                if (view.width(i) != view.width(j)) continue;
                if (!view.independent(i, j)) continue;
                tuples.push_back({i, j});
                used[static_cast<size_t>(i)] = true;
                used[static_cast<size_t>(j)] = true;
                break;
            }
        }
        if (tuples.empty()) break;
        view.fuse(tuples);
        check("after fuse round " + std::to_string(round));
    }
    ASSERT_FALSE(view.groups().empty());

    // Split half the groups (narrowing only the affected rows/columns),
    // then the rest (back to the all-scalar view).
    std::vector<int> wide;
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) >= 2) wide.push_back(i);
    }
    std::vector<int> first_half(wide.begin(),
                                wide.begin() + (wide.size() + 1) / 2);
    view.split_to_scalars(first_half);
    check("after partial split");

    wide.clear();
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) >= 2) wide.push_back(i);
    }
    view.split_to_scalars(wide);
    check("after full split");
    for (int i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view.width(i), 1);
    }
}

// --- candidates -----------------------------------------------------------------

TEST(Candidates, IsomorphismRules) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const TargetModel target = targets::xentium();
    const auto candidates = extract_candidates(view, target);
    EXPECT_FALSE(candidates.empty());
    for (const Candidate& c : candidates) {
        EXPECT_EQ(view.kind(c.nodes.front()), view.kind(c.nodes.back()));
        EXPECT_TRUE(view.independent(c.nodes.front(), c.nodes.back()));
        if (view.kind(c.nodes.front()) == OpKind::Load) {
            EXPECT_EQ(k.op(view.node(c.nodes.front()).lanes[0]).array,
                      k.op(view.node(c.nodes.back()).lanes[0]).array);
        }
    }
}

TEST(Candidates, NoneWithoutSimd) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const auto candidates =
        extract_candidates(view, targets::generic32());
    EXPECT_TRUE(candidates.empty());
}

TEST(Candidates, AdjacentLoadsOrientedAscending) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const auto candidates = extract_candidates(view, targets::xentium());
    for (const Candidate& c : candidates) {
        if (view.kind(c.nodes.front()) != OpKind::Load) continue;
        const auto diff =
            k.op(view.node(c.nodes.back()).lanes[0])
                .index.constant_difference(k.op(view.node(c.nodes.front()).lanes[0]).index);
        if (diff.has_value() && std::abs(*diff) == 1) {
            // Oriented so the pair is ascending-adjacent.
            EXPECT_EQ(*diff, 1);
        }
    }
}

// --- conflicts -------------------------------------------------------------------

TEST(Conflicts, SharedNodeConflicts) {
    const Candidate c1{1, 2}, c2{2, 3}, c3{4, 5};
    EXPECT_TRUE(shares_node(c1, c2));
    EXPECT_FALSE(shares_node(c1, c3));
}

TEST(Conflicts, DetectedSetIsSymmetric) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const auto candidates = extract_candidates(view, targets::xentium());
    const ConflictSet conflicts =
        detect_structural_conflicts(view, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_FALSE(conflicts.conflict(i, i));
        for (size_t j = 0; j < candidates.size(); ++j) {
            EXPECT_EQ(conflicts.conflict(i, j), conflicts.conflict(j, i));
        }
    }
}

TEST(Conflicts, CyclicDependencyCase) {
    // a -> b and c -> d with cross dependencies: groups {a,d} and {b,c}
    // would deadlock.
    KernelBuilder b("cycle");
    const ArrayId x = b.input("x", 8, Interval(-1.0, 1.0));
    const ArrayId y = b.output("y", 4);
    const LoopId n = b.begin_loop("n", 0, 4);
    const VarId a1 = b.load(x, Affine::var(n));        // 0
    const VarId a2 = b.load(x, Affine::var(n) + 4);    // 1
    const VarId m1 = b.mul(a1, a1);                    // 2
    const VarId m2 = b.mul(a2, m1);                    // 3: depends on m1
    const VarId m3 = b.mul(a1, m2);                    // 4: depends on m2
    b.store(y, Affine::var(n), b.add(m3, m2));
    b.end_loop();
    const Kernel k = b.take();
    PackedView view(k, k.blocks_in_order()[0]);
    // Candidate {2,4} x candidate {3, anything 3 depends on / that depends
    // on it} — verify the primitive directly: {m1,m3} and a singleton pair
    // containing m2 on both sides is impossible, so check cross deps.
    EXPECT_TRUE(view.depends(4, 3));
    EXPECT_TRUE(view.depends(3, 2));
    const Candidate g1{2, 4};
    // g1 is NOT a legal candidate (m3 depends on m1 transitively).
    EXPECT_FALSE(view.independent(2, 4));
    (void)g1;
}

// --- economics --------------------------------------------------------------------

TEST(Economics, AdjacentLoadPairIsCheap) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const TargetModel target = targets::xentium();
    const auto candidates = extract_candidates(view, target);
    bool found_cheap_load = false;
    for (const Candidate& c : candidates) {
        if (view.kind(c.nodes.front()) != OpKind::Load) continue;
        const Economics econ =
            reference::evaluate_candidate(view, candidates, c, target);
        if (lanes_memory_adjacent(view, fused_lanes(view, c))) {
            EXPECT_EQ(econ.pack_cost, 0.0);
            found_cheap_load = true;
        } else {
            EXPECT_GT(econ.pack_cost, 0.0);
        }
    }
    EXPECT_TRUE(found_cheap_load);
}

TEST(Economics, SelfAccumulationCountsAsReuse) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const TargetModel target = targets::xentium();
    const auto candidates = extract_candidates(view, target);
    for (const Candidate& c : candidates) {
        if (view.kind(c.nodes.front()) != OpKind::Add) continue;
        const Economics econ =
            reference::evaluate_candidate(view, candidates, c, target);
        EXPECT_GE(econ.reuse, 1.0);  // acc operand is a held vector register
    }
}

TEST(Economics, BenefitModes) {
    Economics econ;
    econ.reuse = 2.0;
    econ.pack_cost = 1.0;
    econ.saved_ops = 1.0;
    EXPECT_DOUBLE_EQ(benefit_score(econ, BenefitMode::ReuseOverCost), 1.5);
    EXPECT_DOUBLE_EQ(benefit_score(econ, BenefitMode::SavingsOnly), 1.0);
}

// --- extraction ------------------------------------------------------------------

TEST(Extraction, FirPairsEverythingOn2x16) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    SlpStats stats;
    const auto groups =
        extract_slp_plain(view, targets::xentium(), spec, {}, &stats);
    // 2 load pairs x2, 2 mul pairs, 2 add pairs = 8 groups of width 2.
    EXPECT_EQ(groups.size(), 8u);
    for (const SimdGroup& g : groups) {
        EXPECT_EQ(g.width(), 2);
    }
    EXPECT_GE(stats.rounds, 1);
    EXPECT_EQ(stats.selected, 8);
}

TEST(Extraction, WidensTo4On8BitCapableTarget) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 8);
    const auto groups = extract_slp_plain(view, targets::vex4(), spec, {});
    bool found_quad = false;
    for (const SimdGroup& g : groups) {
        if (g.width() == 4) found_quad = true;
    }
    EXPECT_TRUE(found_quad);
}

TEST(Extraction, EqualWlRuleBlocksMixedGroups) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    // Make one mul temporary 32-bit: its pair partner stays 16.
    for (const auto& op : k.ops()) {
        if (op.kind == OpKind::Mul) {
            spec.set_wl(NodeRef::of_var(op.dest), 32);
            break;
        }
    }
    const auto groups = extract_slp_plain(view, targets::xentium(), spec, {});
    for (const SimdGroup& g : groups) {
        const int wl = spec.result_format(g.lanes[0]).wl();
        for (const OpId lane : g.lanes) {
            EXPECT_EQ(spec.result_format(lane).wl(), wl);
        }
    }
}

TEST(Extraction, SelectionIsDeterministic) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    std::vector<std::vector<SimdGroup>> runs;
    for (int r = 0; r < 3; ++r) {
        PackedView view(k, hot_block(k));
        runs.push_back(extract_slp_plain(view, targets::xentium(), spec, {}));
    }
    for (size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (size_t g = 0; g < runs[0].size(); ++g) {
            EXPECT_EQ(runs[r][g].lanes, runs[0][g].lanes);
        }
    }
}

TEST(Extraction, GroupsAreDisjointAndIndependent) {
    // Property: no op appears in two groups.
    for (const Kernel* k :
         {&small_fir(), &::slpwlo::testing::small_conv()}) {
        PackedView view(*k, hot_block(*k));
        FixedPointSpec spec = initial_spec(*k);
        set_uniform_wl(spec, 16);
        const auto groups = extract_slp_plain(view, targets::vex4(), spec, {});
        std::set<int32_t> seen;
        for (const SimdGroup& g : groups) {
            for (const OpId lane : g.lanes) {
                EXPECT_TRUE(seen.insert(lane.index()).second)
                    << "op in two groups";
            }
        }
    }
}

// --- round economics oracle -------------------------------------------------------
//
// RoundEconomics must reproduce the pool-scan reference
// (tests/economics_reference.hpp) bit for bit: for every evaluation the
// greedy loop makes, for the exact selector's round-start pools, and for
// random pools and commit orders; and the indexed select_candidates must
// pick the same sequence.

struct OracleCounts {
    long long evaluations = 0;
    long long mismatches = 0;
    long long rounds = 0;
};

/// Candidate lists as extract_candidates builds them orient each node set
/// once. With `both_orientations` every round also carries each
/// candidate reversed and one exact duplicate, so a producer and its
/// reverse, and a candidate equal to the one scored, meet in one pool.
void expect_economics_match_reference(const Kernel& kernel,
                                      const TargetModel& target,
                                      OracleCounts& counts,
                                      bool both_orientations = false) {
    Rng rng(0x5e1ec7ull ^ static_cast<uint64_t>(kernel.ops().size()));
    const SlpOptions options;
    for (const BlockId block : kernel.blocks_in_order()) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        for (int round = 0; round < options.max_rounds; ++round) {
            std::vector<Candidate> candidates =
                extract_candidates(view, target);
            if (candidates.empty()) break;
            if (both_orientations) {
                const size_t extracted = candidates.size();
                for (size_t i = 0; i < extracted; ++i) {
                    const std::vector<int>& nodes = candidates[i].nodes;
                    candidates.emplace_back(
                        std::vector<int>(nodes.rbegin(), nodes.rend()));
                }
                candidates.push_back(candidates.front());
            }
            counts.rounds++;
            const size_t n = candidates.size();
            const ConflictSet conflicts =
                detect_structural_conflicts(view, candidates);
            const RoundEconomics economics(view, candidates, target);
            auto check = [&](size_t i, const auto& in_pool,
                             const std::vector<size_t>& committed,
                             const Economics& expected) {
                CommitLog log(n);
                for (const size_t k : committed) log.push(k);
                counts.evaluations++;
                if (!reference::economics_bit_identical(
                        economics.evaluate(i, in_pool, log), expected)) {
                    counts.mismatches++;
                    ADD_FAILURE() << kernel.name() << " @ " << target.name
                                  << " round " << round << " candidate " << i;
                }
            };

            // Every evaluation of the reference greedy loop.
            const std::vector<Candidate> expected = reference::select_candidates(
                view, candidates, conflicts, target, options.benefit_mode,
                options.min_benefit, {}, nullptr,
                [&](size_t i, const std::vector<char>& alive,
                    const std::vector<size_t>& committed,
                    const Economics& econ) {
                    check(
                        i,
                        [&](size_t j) {
                            return alive[j] && !conflicts.conflict(i, j);
                        },
                        committed, econ);
                });
            const std::vector<Candidate> selected = select_candidates(
                view, candidates, conflicts, target, options.benefit_mode,
                options.min_benefit, {}, nullptr);
            EXPECT_EQ(selected, expected)
                << kernel.name() << " @ " << target.name << " round "
                << round;

            // Round-start weights of the exact selector, and random pools
            // with random commit orders.
            std::vector<reference::ScanFacts> facts;
            for (const Candidate& c : candidates) {
                facts.push_back(reference::scan_facts(view, c));
            }
            for (size_t i = 0; i < n; ++i) {
                std::vector<const reference::ScanFacts*> pool;
                for (size_t j = 0; j < n; ++j) {
                    if (j != i && !conflicts.conflict(i, j)) {
                        pool.push_back(&facts[j]);
                    }
                }
                check(
                    i,
                    [&](size_t j) { return j != i && !conflicts.conflict(i, j); },
                    {}, reference::evaluate_scan(view, pool, facts[i], target));
            }
            for (int trial = 0; trial < 24; ++trial) {
                const size_t i = static_cast<size_t>(
                    rng.uniform_int(0, static_cast<int>(n) - 1));
                std::vector<char> member(n, 0);
                for (size_t j = 0; j < n; ++j) {
                    member[j] = rng.uniform_int(0, 1) != 0;
                }
                std::vector<size_t> order(n);
                for (size_t j = 0; j < n; ++j) order[j] = j;
                for (size_t j = n; j > 1; --j) {
                    std::swap(order[j - 1],
                              order[static_cast<size_t>(rng.uniform_int(
                                  0, static_cast<int>(j) - 1))]);
                }
                order.resize(std::min<size_t>(
                    n, static_cast<size_t>(rng.uniform_int(0, 6))));
                std::vector<const reference::ScanFacts*> pool;
                for (size_t j = 0; j < n; ++j) {
                    if (member[j]) pool.push_back(&facts[j]);
                }
                for (const size_t k : order) pool.push_back(&facts[k]);
                check(
                    i, [&](size_t j) { return member[j] != 0; }, order,
                    reference::evaluate_scan(view, pool, facts[i], target));
            }

            if (selected.empty()) break;
            std::vector<std::vector<int>> tuples;
            for (const Candidate& c : selected) tuples.push_back(c.nodes);
            view.fuse(tuples);
        }
    }
}

void expect_economics_match_reference(const Kernel& kernel,
                                      OracleCounts& counts,
                                      bool both_orientations = false) {
    for (const std::string& name : TargetRegistry::instance().names()) {
        expect_economics_match_reference(kernel, targets::by_name(name),
                                         counts, both_orientations);
    }
}

TEST(EconomicsOracle, BuiltinKernels) {
    OracleCounts counts;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        expect_economics_match_reference(
            kernels::make_benchmark_kernel(name).kernel, counts);
    }
    EXPECT_EQ(counts.mismatches, 0);
    EXPECT_GT(counts.evaluations, 1000);
}

TEST(EconomicsOracle, KernelCorpus) {
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(SLPWLO_KERNEL_CORPUS_DIR)) {
        if (entry.path().extension() == ".slp") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_GE(paths.size(), 7u);
    OracleCounts counts;
    for (const std::string& path : paths) {
        expect_economics_match_reference(
            frontend::load_kernel_file(path).kernel, counts);
    }
    EXPECT_EQ(counts.mismatches, 0);
    EXPECT_GT(counts.rounds, 20);
}

TEST(EconomicsOracle, GeneratedKernels) {
    frontend::GenOptions hostile;
    hostile.slp_hostile = true;
    OracleCounts counts;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        expect_economics_match_reference(
            frontend::generate_kernel(seed).kernel, counts);
    }
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        expect_economics_match_reference(
            frontend::generate_kernel(seed, hostile).kernel, counts);
    }
    EXPECT_EQ(counts.mismatches, 0);
}

TEST(EconomicsOracle, BothOrientationsAndDuplicates) {
    OracleCounts counts;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        expect_economics_match_reference(
            kernels::make_benchmark_kernel(name).kernel, counts, true);
    }
    expect_economics_match_reference(small_fir(), counts, true);
    expect_economics_match_reference(::slpwlo::testing::small_conv(), counts,
                                     true);
    EXPECT_EQ(counts.mismatches, 0);
    EXPECT_GT(counts.evaluations, 1000);
}

// --- dependence cycles through fused nodes ------------------------------------------

TEST(PackCycleGuard, SeesCyclesThroughCommittedPacks) {
    // b -> x2 and x1 -> a: {a, b} and {x1, x2} are each independent
    // pairs, but with {x1, x2} fused, a depends on it and it depends on b.
    KernelBuilder kb("cycle_via_pack");
    const ArrayId x = kb.input("x", 4, Interval(-1.0, 1.0));
    const ArrayId y = kb.input("y", 4, Interval(-1.0, 1.0));
    const ArrayId out = kb.output("out", 4);
    const VarId b = kb.load(x, Affine(0));  // node 0
    const VarId x2 = kb.mul(b, b);                    // node 1
    const VarId x1 = kb.load(y, Affine(0));  // node 2
    const VarId a = kb.mul(x1, x1);                   // node 3
    kb.store(out, Affine(0), a);
    kb.store(out, Affine(1), x2);
    const Kernel k = kb.take();
    PackedView view(k, k.blocks_in_order()[0]);
    ASSERT_TRUE(view.independent(3, 0));
    ASSERT_TRUE(view.independent(2, 1));

    PackCycleGuard guard(view);
    const Candidate pack_x{2, 1};
    const Candidate pack_ab{3, 0};
    EXPECT_FALSE(guard.closes_cycle(pack_x));
    EXPECT_FALSE(guard.closes_cycle(pack_ab));
    guard.commit(pack_x);
    EXPECT_TRUE(guard.closes_cycle(pack_ab));
}

TEST(PackCycleGuard, SeesCyclesThroughFusedViewNodes) {
    // Same shape one round later: with {x1, x2} already a view node, a and
    // b stay independent at node level, yet fusing them closes a cycle.
    KernelBuilder kb("cycle_via_view");
    const ArrayId x = kb.input("x", 4, Interval(-1.0, 1.0));
    const ArrayId y = kb.input("y", 4, Interval(-1.0, 1.0));
    const ArrayId out = kb.output("out", 4);
    const VarId b = kb.load(x, Affine(0));
    const VarId x2 = kb.mul(b, b);
    const VarId x1 = kb.load(y, Affine(0));
    const VarId a = kb.mul(x1, x1);
    kb.store(out, Affine(0), a);
    kb.store(out, Affine(1), x2);
    const Kernel k = kb.take();
    PackedView view(k, k.blocks_in_order()[0]);
    view.fuse({{2, 1}});  // nodes: b(0), {x1, x2}(1), a(2), stores
    ASSERT_EQ(view.width(1), 2);
    ASSERT_TRUE(view.independent(0, 2));
    EXPECT_TRUE(PackCycleGuard(view).closes_cycle(Candidate{2, 0}));
}

}  // namespace
}  // namespace slpwlo
