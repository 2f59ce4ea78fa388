#include "slp/plain_extractor.hpp"

namespace slpwlo {

SlpStats& SlpStats::operator+=(const SlpStats& other) {
    rounds += other.rounds;
    candidates_seen += other.candidates_seen;
    invalid_candidates += other.invalid_candidates;
    structural_conflicts += other.structural_conflicts;
    extra_conflicts += other.extra_conflicts;
    selected += other.selected;
    rejected_at_select += other.rejected_at_select;
    devirtualized += other.devirtualized;
    return *this;
}

std::vector<SimdGroup> extract_slp(PackedView& view, const TargetModel& target,
                                   const SlpOptions& options,
                                   const SlpHooks& hooks, SlpStats* stats) {
    SlpStats local;
    for (int round = 0; round < options.max_rounds; ++round) {
        if (hooks.round_begin) hooks.round_begin();
        std::vector<Candidate> candidates = extract_candidates(view, target);
        local.candidates_seen += static_cast<int>(candidates.size());

        if (hooks.candidate_valid) {
            std::vector<Candidate> valid;
            valid.reserve(candidates.size());
            for (const Candidate& c : candidates) {
                if (hooks.candidate_valid(c)) {
                    valid.push_back(c);
                } else {
                    local.invalid_candidates++;
                }
            }
            candidates = std::move(valid);
        }
        if (candidates.empty()) break;

        ConflictSet conflicts = detect_structural_conflicts(view, candidates);
        local.structural_conflicts += static_cast<int>(conflicts.pair_count());
        if (hooks.add_extra_conflicts) {
            const size_t structural = conflicts.pair_count();
            hooks.add_extra_conflicts(candidates, conflicts);
            local.extra_conflicts +=
                static_cast<int>(conflicts.pair_count() - structural);
        }

        std::vector<Candidate> selected =
            hooks.select_round
                ? hooks.select_round(std::move(candidates), conflicts,
                                     &local.rejected_at_select)
                : select_candidates(view, std::move(candidates), conflicts,
                                    target, options.benefit_mode,
                                    options.min_benefit, hooks.try_select,
                                    &local.rejected_at_select);
        if (hooks.round_finish) {
            selected = hooks.round_finish(std::move(selected));
        }
        if (selected.empty()) break;

        local.selected += static_cast<int>(selected.size());
        local.rounds++;
        std::vector<std::vector<int>> tuples;
        tuples.reserve(selected.size());
        for (const Candidate& c : selected) {
            tuples.push_back(c.nodes);
        }
        view.fuse(tuples);
    }

    // De-virtualize: a node stranded at a width the target cannot realize
    // (it was fused through a virtual intermediate width but never grew
    // into an implementable size) is not a SIMD group — split it back to
    // scalars so downstream passes only ever see realizable groups. Any
    // equation-(1) WL reductions its selections committed stay: they were
    // feasibility-checked, so the spec is merely narrower than it had to
    // be, never wrong.
    std::vector<int> stranded;
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) >= 2 && !target.supports_group_size(view.width(i))) {
            stranded.push_back(i);
        }
    }
    local.devirtualized += static_cast<int>(stranded.size());
    view.split_to_scalars(stranded);

    if (stats != nullptr) *stats += local;
    return view.groups();
}

std::vector<SimdGroup> extract_slp_plain(PackedView& view,
                                         const TargetModel& target,
                                         const FixedPointSpec& spec,
                                         const SlpOptions& options,
                                         SlpStats* stats) {
    SlpHooks hooks;
    hooks.candidate_valid = [&view, &target, &spec](const Candidate& c) {
        // All elements of a group must have the same WL, and a SIMD
        // configuration must exist whose element slots hold that WL. A
        // virtual-width candidate is judged at its realization width —
        // the configuration its lanes will actually execute in.
        const std::vector<OpId> lanes = fused_lanes(view, c);
        const int wl = spec.result_format(lanes.front()).wl();
        for (const OpId lane : lanes) {
            if (spec.result_format(lane).wl() != wl) return false;
        }
        const auto slot_wl =
            target.realized_element_wl(static_cast<int>(lanes.size()));
        return slot_wl.has_value() && *slot_wl >= wl;
    };
    return extract_slp(view, target, options, hooks, stats);
}

}  // namespace slpwlo
