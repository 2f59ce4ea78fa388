// Accuracy conflicts by footprint (Fig. 1c lines 6-25; DESIGN.md §10
// "Accuracy conflicts by footprint").
//
// Fig. 1c declares two structurally compatible candidates in conflict when
// their combined equation-(1) WL drops violate the accuracy constraint, one
// accuracy evaluation per pair. AccuracyConflicts decides most pairs
// without one. While it checks each candidate alone (lines 6-12) it records
// the candidate's *footprint*: the noise sites whose terms its WL drop
// changes, with their new terms. A pair's noise is then the round's base
// plus both candidates' deltas plus a correction over the sites the two
// footprints share — exact in real arithmetic. The pair is decided from
// that value when it clears the constraint by more than a forward-error
// bound, and by a full evaluation (the probe) otherwise, so the conflict
// sets are exactly those of a probe on every pair. Sessions without
// per-site terms (simulation-backed evaluators) probe every pair.
#pragma once

#include <vector>

#include "accuracy/evaluator.hpp"
#include "slp/conflict.hpp"
#include "target/target_model.hpp"

namespace slpwlo {

/// How add_conflicts decided its pairs. Observational only: kept out of
/// SlpStats, which is part of the cached flow results.
struct ConflictScreenCounts {
    long long disjoint = 0;   ///< footprints disjoint, decided by the screen
    long long corrected = 0;  ///< decided after the shared-site correction
    long long probed = 0;     ///< decided by a full evaluation
};

class AccuracyConflicts {
public:
    /// `eval` must be a session bound to `spec`; `view` is read at each
    /// valid() call, so it may be fused between rounds.
    AccuracyConflicts(const PackedView& view, FixedPointSpec& spec,
                      EvalSession& eval, const TargetModel& target,
                      double constraint_db);

    /// Start of an extraction round, with the spec at the round's base
    /// state: forget the previous round's footprints.
    void begin_round();

    /// Fig. 1c lines 6-12: does `c`'s equation-(1) WL drop alone, every
    /// other node untouched, meet the constraint? A valid candidate's
    /// footprint is recorded for add_conflicts.
    bool valid(const Candidate& c);

    /// Fig. 1c lines 14-25: add to `conflicts` every pair of `candidates`
    /// not already in it whose combined WL drops violate the constraint.
    /// `candidates` must be exactly the candidates valid() accepted since
    /// begin_round(), in the same order. Returns the number of pairs added.
    int add_conflicts(const std::vector<Candidate>& candidates,
                      ConflictSet& conflicts);

    const ConflictScreenCounts& counts() const { return counts_; }

private:
    struct Footprint {
        Candidate candidate;
        std::vector<OpId> lanes;  ///< equation (1) is applied through these
        size_t begin = 0;         ///< range in site_pool_ / term_pool_
        size_t end = 0;
        size_t nodes_begin = 0;   ///< range in node_pool_: what it lowered
        size_t nodes_end = 0;
        double dv = 0.0;  ///< Σ (v_term - base v_term) over the footprint
        double dm = 0.0;  ///< Σ (m_term - base m_term)
        double kv = 0.0;  ///< Σ (|v_term| + |base v_term|)
        double km = 0.0;  ///< Σ (|m_term| + |base m_term|)
    };

    void apply(const Footprint& f);
    /// True if every node `b` lowers, `a` lowers at least as far: the
    /// pair's spec is then `a`'s alone.
    bool subsumes(const Footprint& a, const Footprint& b) const;
    /// Put the spec in the pair's state from the recorded formats (the
    /// caller brackets it with a checkpoint).
    void apply_pair(const Footprint& a, const Footprint& b);
    void record_footprint(Footprint& f, size_t journal_begin,
                          size_t journal_end);
    /// The full evaluation of the pair (the decision of record).
    bool probe(const Footprint& a, const Footprint& b);
    /// 1 conflict, 0 no conflict (both counted), -1 undecided: within the
    /// error bound, left to the probe.
    int screen(const Footprint& a, const Footprint& b);

    const PackedView& view_;
    FixedPointSpec& spec_;
    EvalSession& eval_;
    const TargetModel& target_;
    double constraint_db_;
    SiteTerms* terms_;     ///< nullptr: every pair is probed
    bool screenable_;      ///< terms_ and a constraint the bound covers
    double power_lo_ = 0;  ///< below: the probe cannot report a violation
    double power_hi_ = 0;  ///< above: the probe must report one

    std::vector<SiteTerm> base_;  ///< the round's base term per site
    double base_v_ = 0.0;         ///< Σ base v_term, in site order
    double base_m_ = 0.0;
    double base_kv_ = 0.0;  ///< Σ |base v_term|
    double base_km_ = 0.0;

    std::vector<Footprint> footprints_;
    std::vector<std::pair<NodeRef, FixedFormat>> node_pool_;
    std::vector<uint32_t> site_pool_;
    std::vector<SiteTerm> term_pool_;
    std::vector<uint32_t> scratch_sites_;
    std::vector<std::pair<size_t, size_t>> shared_;  ///< pool offsets
    ConflictScreenCounts counts_;
};

}  // namespace slpwlo
