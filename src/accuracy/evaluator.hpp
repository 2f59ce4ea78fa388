// AccuracyEvaluator interface.
//
// The WLO algorithms only ever ask one question of the accuracy machinery:
// "what is the output quantization-noise power of this spec, and does it
// violate the constraint?" (EVALACC in Fig. 1). The paper stresses that its
// WLO is decoupled from any particular accuracy-evaluation method; we mirror
// that with this interface, implemented analytically (AnalyticEvaluator)
// and by bit-accurate simulation (SimulationEvaluator).
//
// Hot loops (Tabu moves, SLP candidate filtering, scaling equalization)
// evaluate thousands of single-node variations of one spec. For those,
// open_session() returns an EvalSession bound to the (mutable) spec being
// optimized: sessions may cache per-site noise contributions and track the
// spec's change journal so each re-evaluation only recomputes what a move
// touched. The contract is strict bit-identity: a session's noise_power()
// returns the exact double the evaluator's full noise_power(spec) would
// return for the spec's current state. The default session simply forwards
// to the full evaluation, so simulation-backed evaluators work unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fixpoint/spec.hpp"
#include "support/dbmath.hpp"

namespace slpwlo {

/// One noise site's gain-weighted contribution (accuracy/noise_source.hpp).
/// A session that keeps these returns (Σ v_term) + (Σ m_term)² from
/// noise_power(), each sum taken in site order.
struct SiteTerm {
    double v_term = 0.0;  ///< variance * variance gain; +0.0 if inactive
    double m_term = 0.0;  ///< mean * DC gain * dc_sign; +0.0 if inactive
};

/// Per-site access to an incremental session's cache, for callers that
/// decide from recorded per-site deltas instead of re-summing every site
/// (the accuracy-conflict screen, core/accuracy_conflicts.hpp).
class SiteTerms {
public:
    virtual ~SiteTerms() = default;

    /// The cached terms, brought up to date with the spec's current state.
    virtual const std::vector<SiteTerm>& current() = 0;

    /// Ascending indices of the sites whose terms depend on `node`.
    virtual const std::vector<uint32_t>& sites_of(NodeRef node) const = 0;

    /// The term of `site` under the spec's current formats, computed from
    /// the spec; the cache is left as it is.
    virtual SiteTerm evaluate(uint32_t site) const = 0;

    /// Declare that every spec change made since the last current() call
    /// has been undone (a checkpoint taken right after it was reverted), so
    /// the journal entries since then need no refresh.
    virtual void forget_undone_changes() = 0;
};

/// A per-optimization-run evaluation handle bound to one spec.
///
/// Sessions exist so that a *shared, const* evaluator (KernelContext hands
/// one AnalyticEvaluator to every sweep thread) can still keep mutable
/// incremental state per optimization run. The bound spec may be mutated
/// freely between calls — through set_wl, set_format, or checkpoint/revert —
/// and the session resynchronizes from the spec's change journal.
class EvalSession {
public:
    virtual ~EvalSession() = default;

    /// Output noise power (linear) of the bound spec in its current state.
    /// Bit-identical to the owning evaluator's noise_power(spec).
    virtual double noise_power() = 0;

    /// Bracket a single-node probe: between begin_move(node) and end_move()
    /// the caller may mutate only `node` and must restore it to its
    /// begin-time format before end_move(). Incremental sessions snapshot
    /// the cached terms the node feeds in begin_move() and put them back in
    /// end_move(), so the probe's restore costs a copy instead of a second
    /// refresh pass. At most one probe may be outstanding per session.
    /// The default is a no-op (full-recompute sessions have no cache).
    virtual void begin_move(NodeRef) {}
    virtual void end_move() {}

    /// Noise power of the spec with `node` moved to word length `wl`, the
    /// spec left unchanged on return. The single-move candidate evaluation
    /// of the Tabu loop; incremental sessions make this O(degree(node)).
    double preview_move(NodeRef node, int wl) {
        FixedPointSpec& spec = this->spec();
        begin_move(node);
        const FixedFormat saved = spec.format(node);
        spec.set_wl(node, wl);
        const double power = noise_power();
        spec.set_format(node, saved);
        end_move();
        return power;
    }

    /// Apply a move to the bound spec (the accepted candidate).
    void commit_move(NodeRef node, int wl) { spec().set_wl(node, wl); }

    double noise_power_db() { return power_to_db(noise_power()); }

    bool violates(double constraint_db) {
        return noise_power_db() > constraint_db;
    }

    virtual FixedPointSpec& spec() = 0;

    /// The session's per-site decomposition, or nullptr when it keeps none
    /// (the default full-recompute session, hence every simulation-backed
    /// evaluator).
    virtual SiteTerms* site_terms() { return nullptr; }
};

class AccuracyEvaluator {
public:
    virtual ~AccuracyEvaluator() = default;

    /// Output noise power (linear) of the given fixed-point specification.
    virtual double noise_power(const FixedPointSpec& spec) const = 0;

    /// Noise power in dB (10 log10 P); -inf for an exact spec.
    double noise_power_db(const FixedPointSpec& spec) const {
        return power_to_db(noise_power(spec));
    }

    /// EVALACC check: true if the spec's noise exceeds the constraint.
    /// The constraint is the maximum tolerable noise power in dB (e.g. -40).
    bool violates(const FixedPointSpec& spec, double constraint_db) const {
        return noise_power_db(spec) > constraint_db;
    }

    /// Open an evaluation session bound to `spec` for a hot optimization
    /// loop. The default implementation re-evaluates from scratch on every
    /// call; evaluators with incremental state override this.
    virtual std::unique_ptr<EvalSession> open_session(
        FixedPointSpec& spec) const;
};

}  // namespace slpwlo
