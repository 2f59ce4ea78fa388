// Benefit estimation and iterative group selection
// (Fig. 1c "SIMD Groups Selection").
//
// The default benefit is the paper's (and Liu et al.'s): the ratio of the
// superword reuse a candidate enables to its packing/unpacking cost. The
// savings-only mode ignores reuse and is kept as an ablation
// (bench/ablation_benefit).
#pragma once

#include <functional>

#include "slp/conflict.hpp"
#include "slp/packing_cost.hpp"

namespace slpwlo {

enum class BenefitMode {
    ReuseOverCost,  ///< (1 + reuse) / (1 + pack + unpack), the paper's choice
    SavingsOnly,    ///< issues saved minus overhead ops, reuse-blind
};

/// Scalar benefit score under the chosen mode.
double benefit_score(const Economics& econ, BenefitMode mode);

/// Called before committing the most-beneficial candidate; returning false
/// drops the candidate instead of selecting it (used for the strict
/// accuracy-feasibility recheck).
using TrySelect = std::function<bool(const Candidate&)>;

/// Iteratively select the most beneficial candidate, eliminating
/// conflicting candidates after each selection, until none remain whose
/// benefit reaches `min_benefit` (the profitability floor: a candidate
/// whose packing/unpacking overhead swamps its reuse would degrade the
/// SIMD code, Section II.A). A pick that would close a dependence cycle
/// (PackCycleGuard) is dropped like a conflicting one. Deterministic:
/// ties break on saved ops, then on candidate order. Returns the selected
/// candidates (pairs or k-lane run seeds) in selection order.
std::vector<Candidate> select_candidates(
    const PackedView& view, std::vector<Candidate> candidates,
    const ConflictSet& conflicts, const TargetModel& target, BenefitMode mode,
    double min_benefit, const TrySelect& try_select, int* rejected_count);

}  // namespace slpwlo
