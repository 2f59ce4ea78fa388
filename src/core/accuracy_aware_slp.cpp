#include "core/accuracy_aware_slp.hpp"

#include <algorithm>

#include "core/accuracy_conflicts.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo {

void set_group_max_wl(FixedPointSpec& spec, const std::vector<OpId>& lanes,
                      int group_width, const TargetModel& target) {
    // A virtual-width group commits the WL of its *realization*
    // configuration — the element width its lanes will execute at once
    // the group has grown into an implementable size.
    const auto m = target.realized_element_wl(group_width);
    SLPWLO_ASSERT(m.has_value(),
                  "set_group_max_wl on an unrealizable group size");
    for (const OpId lane : lanes) {
        const NodeRef node = spec.node_of(lane);
        const int wl = std::min(spec.format(node).wl(), *m);
        spec.set_wl(node, wl);
    }
}

std::vector<SimdGroup> accuracy_aware_slp(PackedView& view,
                                          FixedPointSpec& spec,
                                          const AccuracyEvaluator& evaluator,
                                          const TargetModel& target,
                                          const AccuracySlpConfig& config,
                                          SlpStats* stats) {
    const double constraint = config.accuracy_db;

    // One incremental session for the whole extraction: the hooks probe
    // small WL perturbations thousands of times, and the journal-tracking
    // session re-evaluates each probe in O(changed nodes).
    const std::unique_ptr<EvalSession> eval = evaluator.open_session(spec);
    AccuracyConflicts accuracy(view, spec, *eval, target, constraint);

    auto apply_eq1 = [&](const Candidate& c) {
        const std::vector<OpId> lanes = fused_lanes(view, c);
        set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()), target);
    };

    SlpHooks hooks;
    // Fig. 1c lines 6-12: a candidate whose own WL reduction (with all
    // other nodes untouched) violates the constraint can never be
    // implemented as a SIMD instruction.
    hooks.candidate_valid = [&](const Candidate& c) {
        return accuracy.valid(c);
    };
    // Fig. 1c lines 14-25: candidates that cannot coexist are in conflict.
    if (config.accuracy_conflicts) {
        hooks.add_extra_conflicts = [&](const std::vector<Candidate>& valid,
                                        ConflictSet& conflicts) {
            accuracy.add_conflicts(valid, conflicts);
        };
    }
    // Fig. 1c line 34 (SETMAXWL on selection), plus the strict feasibility
    // re-check on top of everything committed so far.
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

    // `SLP-Optimal`: exact per-round selection. fix/unfix bracket the
    // equation-(1) commitment revertibly for the branch-and-bound search;
    // the winning selection is then replayed, in candidate order, through
    // the regular selection hook. Equation (1) only lowers WLs to a
    // minimum, so the order does not matter and the replay ends on the
    // spec the search accepted. Its prefixes are states the search never
    // evaluated: the replay relies on every subset of the winning set
    // meeting the constraint too. The noise model does not guarantee that
    // (it is not monotone in every WL: narrowing an operand shrinks the
    // alignment noise at its consumer), so a prefix that violates it
    // fails the replay check below rather than changing the selection.
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
                SLPWLO_ASSERT(!fix_stack.empty(),
                              "solver unfix without a matching fix");
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
            // The model has no dependence-cycle constraint: the replay
            // drops a pack that would close a cycle with the view and the
            // packs replayed before it (the rest is again a subset of the
            // winning set, under the same reliance as above).
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

    // Stranded-load demotion. Greedy selection can commit a load-group
    // widening (and its equation-(1) WL drop on the arrays) before the
    // consuming arithmetic widening gets rejected by the cumulative
    // accuracy check; the narrow load vectors would then feed wider
    // consumers through expensive lane traffic for no gain. At the end of
    // each round, unselect load groups no surviving candidate consumes as
    // a superword and replay the round's WL commitments without them.
    FixedPointSpec::Checkpoint round_cp = 0;
    bool round_open = false;
    hooks.round_begin = [&] {
        if (round_open) spec.commit(round_cp);
        round_cp = spec.checkpoint();
        round_open = true;
        accuracy.begin_round();
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
        // Replay: undo every WL commitment of the round, then re-apply
        // equation (1) for the survivors under the same feasibility rule.
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

}  // namespace slpwlo
