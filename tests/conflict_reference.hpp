// Pairwise-probe reference for Fig. 1c's accuracy conflicts: the
// accuracy-aware extraction as it ran before footprint screening
// (core/accuracy_conflicts.hpp), with one session noise evaluation per
// candidate (lines 6-12) and per structurally compatible candidate pair
// (lines 14-25). Header-only (the library keeps a single conflict path);
// tests/test_accuracy_conflicts.cpp and bench/perf_hotpaths.cpp compare the
// library against it.
//
// A ConflictWatch sees every decision the reference makes, at the points
// where the library's AccuracyConflicts runs, so a caller can drive an
// AccuracyConflicts on the same spec and compare decision by decision.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/slp_aware_wlo.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo::reference {

struct ConflictWatch {
    /// An extraction starts on `view`; `spec` is the spec it mutates.
    std::function<void(const PackedView& view, FixedPointSpec& spec)>
        extraction_begin;
    /// A round starts; the spec is at the round's base state.
    std::function<void()> round_begin;
    /// The probe's validity decision on one extracted candidate.
    std::function<void(const Candidate&, bool valid)> validity;
    /// The round's valid candidates, their structural conflicts, and the
    /// structural plus accuracy conflicts the pairwise probe found.
    std::function<void(const std::vector<Candidate>&,
                       const ConflictSet& structural,
                       const ConflictSet& probed)>
        conflicts;
};

/// Fig. 1c lines 14-25, one noise evaluation per compatible pair.
inline void add_probed_conflicts(const PackedView& view, FixedPointSpec& spec,
                                 EvalSession& eval, const TargetModel& target,
                                 double constraint_db,
                                 const std::vector<Candidate>& candidates,
                                 ConflictSet& conflicts) {
    auto apply_eq1 = [&](const Candidate& c) {
        const std::vector<OpId> lanes = fused_lanes(view, c);
        set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()), target);
    };
    for (size_t i = 0; i < candidates.size(); ++i) {
        for (size_t j = i + 1; j < candidates.size(); ++j) {
            if (conflicts.conflict(i, j)) continue;
            const auto cp = spec.checkpoint();
            apply_eq1(candidates[i]);
            apply_eq1(candidates[j]);
            const bool violates = eval.violates(constraint_db);
            spec.revert(cp);
            if (violates) conflicts.add(i, j);
        }
    }
}

/// accuracy_aware_slp with the pairwise probe.
inline std::vector<SimdGroup> accuracy_aware_slp(
    PackedView& view, FixedPointSpec& spec, const AccuracyEvaluator& evaluator,
    const TargetModel& target, const AccuracySlpConfig& config,
    SlpStats* stats = nullptr, const ConflictWatch& watch = {}) {
    const double constraint = config.accuracy_db;
    const std::unique_ptr<EvalSession> eval = evaluator.open_session(spec);
    if (watch.extraction_begin) watch.extraction_begin(view, spec);

    auto apply_eq1 = [&](const Candidate& c) {
        const std::vector<OpId> lanes = fused_lanes(view, c);
        set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()), target);
    };

    SlpHooks hooks;
    hooks.candidate_valid = [&](const Candidate& c) {
        const auto cp = spec.checkpoint();
        apply_eq1(c);
        const bool ok = !eval->violates(constraint);
        spec.revert(cp);
        if (watch.validity) watch.validity(c, ok);
        return ok;
    };
    if (config.accuracy_conflicts) {
        hooks.add_extra_conflicts = [&](const std::vector<Candidate>& valid,
                                        ConflictSet& conflicts) {
            const ConflictSet structural = conflicts;
            add_probed_conflicts(view, spec, *eval, target, constraint, valid,
                                 conflicts);
            if (watch.conflicts) watch.conflicts(valid, structural, conflicts);
        };
    }
    hooks.try_select = [&](const Candidate& c) {
        const auto cp = spec.checkpoint();
        apply_eq1(c);
        if (config.strict_feasibility && eval->violates(constraint)) {
            spec.revert(cp);
            return false;
        }
        spec.commit(cp);
        return true;
    };

    std::vector<FixedPointSpec::Checkpoint> fix_stack;
    if (config.exact_selection) {
        hooks.select_round = [&](std::vector<Candidate> candidates,
                                 const ConflictSet& conflicts, int* rejected) {
            solver::PackSelectOptions options;
            options.benefit_mode = config.slp.benefit_mode;
            options.min_benefit = config.slp.min_benefit;
            options.budget = config.solver_budget;
            const solver::PackFix fix = [&](const Candidate& c) {
                const auto cp = spec.checkpoint();
                apply_eq1(c);
                if (config.strict_feasibility && eval->violates(constraint)) {
                    spec.revert(cp);
                    return false;
                }
                fix_stack.push_back(cp);
                return true;
            };
            const solver::PackUnfix unfix = [&](const Candidate&) {
                spec.revert(fix_stack.back());
                fix_stack.pop_back();
            };
            const solver::PackSelectResult result =
                solver::select_packs_exact(view, candidates, conflicts,
                                           target, options, fix, unfix,
                                           rejected);
            if (config.solver_stats != nullptr) {
                config.solver_stats->nodes += result.solve.nodes;
                config.solver_stats->solves++;
                config.solver_stats->proven_optimal &=
                    result.solve.proven_optimal;
                config.solver_stats->heuristic_objective +=
                    result.greedy_objective;
                config.solver_stats->best_objective +=
                    result.solve.best_objective;
            }
            PackCycleGuard cycles(view);
            std::vector<Candidate> replayed;
            for (const Candidate& c : result.selected) {
                if (cycles.closes_cycle(c)) continue;
                SLPWLO_CHECK(hooks.try_select(c),
                             "exact selection failed its feasibility replay");
                cycles.commit(c);
                replayed.push_back(c);
            }
            return replayed;
        };
    }

    FixedPointSpec::Checkpoint round_cp = 0;
    bool round_open = false;
    hooks.round_begin = [&] {
        if (round_open) spec.commit(round_cp);
        round_cp = spec.checkpoint();
        round_open = true;
        if (watch.round_begin) watch.round_begin();
    };
    hooks.round_finish = [&](std::vector<Candidate> selection) {
        auto consumed_as_superword = [&](const Candidate& load) {
            const std::vector<OpId> lanes = fused_lanes(view, load);
            const std::vector<OpId> reversed(lanes.rbegin(), lanes.rend());
            for (const Candidate& s : selection) {
                if (s == load) continue;
                const std::vector<OpId> sl = fused_lanes(view, s);
                const int slots = view.kernel().op(sl.front()).num_args();
                for (int slot = 0; slot < slots; ++slot) {
                    const std::vector<OpId> defs =
                        operand_defs(view, sl, slot);
                    if (defs == lanes || defs == reversed) return true;
                }
            }
            return false;
        };
        std::vector<Candidate> survivors;
        bool demoted = false;
        for (const Candidate& c : selection) {
            if (view.kind(c.nodes.front()) == OpKind::Load &&
                !consumed_as_superword(c)) {
                demoted = true;
                continue;
            }
            survivors.push_back(c);
        }
        if (!round_open) return survivors;
        if (!demoted) {
            spec.commit(round_cp);
            round_open = false;
            return survivors;
        }
        spec.revert(round_cp);
        round_open = false;
        std::vector<Candidate> confirmed;
        for (const Candidate& c : survivors) {
            const auto cp = spec.checkpoint();
            apply_eq1(c);
            if (config.strict_feasibility && eval->violates(constraint)) {
                spec.revert(cp);
                continue;
            }
            spec.commit(cp);
            confirmed.push_back(c);
        }
        return confirmed;
    };

    std::vector<SimdGroup> groups =
        extract_slp(view, target, config.slp, hooks, stats);
    if (round_open) spec.commit(round_cp);
    return groups;
}

/// run_slp_aware_wlo's block loop over the reference extraction.
inline WloSlpResult run_slp_aware_wlo(const Kernel& kernel,
                                      FixedPointSpec& spec,
                                      const AccuracyEvaluator& evaluator,
                                      const TargetModel& target,
                                      const WloSlpOptions& options,
                                      const ConflictWatch& watch = {}) {
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, target.max_wl());
    }
    SLPWLO_CHECK(!evaluator.violates(spec, options.accuracy_db),
                 "accuracy constraint infeasible at maximum word lengths");

    AccuracySlpConfig slp_config;
    slp_config.accuracy_db = options.accuracy_db;
    slp_config.accuracy_conflicts = options.accuracy_conflicts;
    slp_config.strict_feasibility = options.strict_feasibility;
    slp_config.slp = options.slp;

    WloSlpResult result;
    slp_config.exact_selection = options.exact_selection;
    slp_config.solver_budget = options.solver_budget;
    if (options.exact_selection) {
        slp_config.solver_stats = &result.solver_stats;
    }
    for (const BlockId block : blocks_by_priority(kernel)) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        std::vector<SimdGroup> groups =
            reference::accuracy_aware_slp(view, spec, evaluator, target,
                                          slp_config, &result.slp_stats,
                                          watch);
        if (options.scaling_optim && !groups.empty()) {
            result.scaling_stats += optimize_scalings(
                view, groups, spec, evaluator, options.accuracy_db);
        }
        if (!groups.empty()) {
            result.block_groups.push_back(
                BlockGroups{block, std::move(groups)});
        }
    }
    return result;
}

}  // namespace slpwlo::reference
