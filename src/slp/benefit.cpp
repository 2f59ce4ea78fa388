#include "slp/benefit.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace slpwlo {

double benefit_score(const Economics& econ, BenefitMode mode) {
    switch (mode) {
        case BenefitMode::ReuseOverCost:
            return (1.0 + econ.reuse) /
                   (1.0 + econ.pack_cost + econ.unpack_cost);
        case BenefitMode::SavingsOnly:
            return 2.0 * econ.saved_ops - (econ.pack_cost + econ.unpack_cost);
    }
    return 0.0;
}

std::vector<Candidate> select_candidates(
    const PackedView& view, std::vector<Candidate> candidates,
    const ConflictSet& conflicts, const TargetModel& target, BenefitMode mode,
    double min_benefit, const TrySelect& try_select, int* rejected_count) {
    const size_t n = candidates.size();
    const RoundEconomics economics(view, candidates, target);
    PackCycleGuard cycles(view);
    std::vector<char> alive(n, 1);
    size_t alive_count = n;
    CommitLog committed(n);

    std::vector<Candidate> selected;
    while (alive_count > 0) {
        double best_score = 0.0;
        double best_saved = 0.0;
        size_t best = n;
        for (size_t i = 0; i < n; ++i) {
            if (!alive[i]) continue;
            // Estimate against the candidates this selection could coexist
            // with: the alive non-conflicting ones plus the selections
            // already committed this round. Reuse promised by a candidate
            // that selecting `i` would eliminate is not real.
            const Economics econ = economics.evaluate(
                i,
                [&](size_t j) { return alive[j] && !conflicts.conflict(i, j); },
                committed);
            const double score = benefit_score(econ, mode);
            const bool better =
                best == n || score > best_score ||
                (score == best_score && econ.saved_ops > best_saved);
            if (better) {
                best = i;
                best_score = score;
                best_saved = econ.saved_ops;
            }
        }
        SLPWLO_ASSERT(best < n, "no candidate selected");
        if (best_score < min_benefit) break;  // only unprofitable ones left

        alive[best] = 0;
        alive_count--;
        // A pack whose members reach one another through the view (or
        // through a pack committed earlier this round) cannot be lowered.
        if (cycles.closes_cycle(candidates[best])) continue;
        if (try_select && !try_select(candidates[best])) {
            if (rejected_count != nullptr) (*rejected_count)++;
            continue;
        }
        selected.push_back(candidates[best]);
        committed.push(best);
        cycles.commit(candidates[best]);

        // Eliminate everything in conflict with the selection.
        for (size_t i = 0; i < n; ++i) {
            if (alive[i] && conflicts.conflict(best, i)) {
                alive[i] = 0;
                alive_count--;
            }
        }
    }
    return selected;
}

}  // namespace slpwlo
