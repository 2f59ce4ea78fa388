#include "core/accuracy_conflicts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/accuracy_aware_slp.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

/// Relative margin around the constraint's linear power. A value this far
/// from it is on the same side of it in dB after power_to_db's log10 and
/// db_to_power's pow round (each within a few ulps for |dB| <= 1000, about
/// 1e-13 dB, against 4.3e-9 dB of margin).
constexpr double kThresholdSlack = 1e-9;
constexpr double kMaxScreenedDb = 1000.0;

}  // namespace

AccuracyConflicts::AccuracyConflicts(const PackedView& view,
                                     FixedPointSpec& spec, EvalSession& eval,
                                     const TargetModel& target,
                                     double constraint_db)
    : view_(view),
      spec_(spec),
      eval_(eval),
      target_(target),
      constraint_db_(constraint_db),
      terms_(eval.site_terms()),
      screenable_(terms_ != nullptr && std::isfinite(constraint_db) &&
                  std::fabs(constraint_db) <= kMaxScreenedDb) {
    const double power = db_to_power(constraint_db);
    power_lo_ = power * (1.0 - kThresholdSlack);
    power_hi_ = power * (1.0 + kThresholdSlack);
}

void AccuracyConflicts::begin_round() {
    footprints_.clear();
    node_pool_.clear();
    site_pool_.clear();
    term_pool_.clear();
    if (!screenable_) return;
    base_ = terms_->current();
    base_v_ = base_m_ = base_kv_ = base_km_ = 0.0;
    for (const SiteTerm& t : base_) {
        base_v_ += t.v_term;
        base_m_ += t.m_term;
        base_kv_ += std::fabs(t.v_term);
        base_km_ += std::fabs(t.m_term);
    }
}

void AccuracyConflicts::apply(const Footprint& f) {
    set_group_max_wl(spec_, f.lanes, static_cast<int>(f.lanes.size()),
                     target_);
}

bool AccuracyConflicts::valid(const Candidate& c) {
    Footprint f;
    f.candidate = c;
    f.lanes = fused_lanes(view_, c);
    const size_t journal_begin = spec_.journal_size();
    const auto cp = spec_.checkpoint();
    apply(f);
    const size_t journal_end = spec_.journal_size();
    const bool ok = !eval_.violates(constraint_db_);
    if (ok && screenable_) record_footprint(f, journal_begin, journal_end);
    spec_.revert(cp);
    if (ok) footprints_.push_back(std::move(f));
    return ok;
}

void AccuracyConflicts::record_footprint(Footprint& f, size_t journal_begin,
                                         size_t journal_end) {
    // The journal window holds each node the WL drop lowered, once.
    scratch_sites_.clear();
    f.nodes_begin = node_pool_.size();
    for (size_t k = journal_begin; k < journal_end; ++k) {
        const NodeRef node = spec_.journal_entry(k);
        node_pool_.emplace_back(node, spec_.format(node));
        const std::vector<uint32_t>& sites = terms_->sites_of(node);
        scratch_sites_.insert(scratch_sites_.end(), sites.begin(),
                              sites.end());
    }
    f.nodes_end = node_pool_.size();
    std::sort(scratch_sites_.begin(), scratch_sites_.end());
    scratch_sites_.erase(
        std::unique(scratch_sites_.begin(), scratch_sites_.end()),
        scratch_sites_.end());

    // The session is synced to the candidate's state by the validity
    // evaluation, so this reads the terms without recomputing any.
    const std::vector<SiteTerm>& now = terms_->current();
    SLPWLO_ASSERT(base_.size() == now.size(),
                  "AccuracyConflicts::valid before begin_round");
    f.begin = site_pool_.size();
    for (const uint32_t s : scratch_sites_) {
        const SiteTerm& t = now[s];
        const SiteTerm& b = base_[s];
        f.dv += t.v_term - b.v_term;
        f.dm += t.m_term - b.m_term;
        f.kv += std::fabs(t.v_term) + std::fabs(b.v_term);
        f.km += std::fabs(t.m_term) + std::fabs(b.m_term);
        site_pool_.push_back(s);
        term_pool_.push_back(t);
    }
    f.end = site_pool_.size();
}

bool AccuracyConflicts::probe(const Footprint& a, const Footprint& b) {
    const auto cp = spec_.checkpoint();
    apply(a);
    apply(b);
    const bool violates = eval_.violates(constraint_db_);
    spec_.revert(cp);
    return violates;
}

bool AccuracyConflicts::subsumes(const Footprint& a,
                                 const Footprint& b) const {
    for (size_t k = b.nodes_begin; k < b.nodes_end; ++k) {
        const auto& [node, format] = node_pool_[k];
        bool covered = false;
        for (size_t l = a.nodes_begin; l < a.nodes_end && !covered; ++l) {
            covered = node_pool_[l].first == node &&
                      node_pool_[l].second.wl() <= format.wl();
        }
        if (!covered) return false;
    }
    return true;
}

void AccuracyConflicts::apply_pair(const Footprint& a, const Footprint& b) {
    // Equation (1) only takes minimums of WLs at an unchanged IWL, so the
    // pair lowers each node to the narrower of the two candidates' formats.
    for (size_t k = a.nodes_begin; k < a.nodes_end; ++k) {
        spec_.set_format(node_pool_[k].first, node_pool_[k].second);
    }
    for (size_t k = b.nodes_begin; k < b.nodes_end; ++k) {
        const auto& [node, format] = node_pool_[k];
        if (format.wl() < spec_.format(node).wl()) {
            spec_.set_format(node, format);
        }
    }
}

int AccuracyConflicts::screen(const Footprint& a, const Footprint& b) {
    // When one candidate lowers every node the other lowers at least as
    // far (two load groups of one width on one array), the pair's spec is
    // that candidate's alone: the probe would evaluate the very state its
    // validity check found feasible.
    if (subsumes(a, b) || subsumes(b, a)) {
        const bool empty = a.nodes_begin == a.nodes_end ||
                           b.nodes_begin == b.nodes_end;
        (empty ? counts_.disjoint : counts_.corrected)++;
        return 0;
    }

    // Sites both footprints touch, as (offset in a, offset in b).
    shared_.clear();
    if (a.begin < a.end && b.begin < b.end &&
        site_pool_[a.begin] <= site_pool_[b.end - 1] &&
        site_pool_[b.begin] <= site_pool_[a.end - 1]) {
        size_t i = a.begin;
        size_t j = b.begin;
        while (i < a.end && j < b.end) {
            if (site_pool_[i] < site_pool_[j]) {
                ++i;
            } else if (site_pool_[j] < site_pool_[i]) {
                ++j;
            } else {
                shared_.emplace_back(i++, j++);
            }
        }
    }

    // Real-arithmetic identity, per site s of the pair state:
    //   t_ab = t_0 + (t_a - t_0) + (t_b - t_0) + (t_ab - t_a - t_b + t_0)
    // with the last term zero off the shared sites (a site outside one
    // footprint has none of its inputs lowered by that candidate).
    double cv = 0.0;
    double cm = 0.0;
    double kv = base_kv_ + a.kv + b.kv;
    double km = base_km_ + a.km + b.km;
    if (!shared_.empty()) {
        // The shared sites' terms in the pair state, read from the spec
        // without refreshing the cache; the revert leaves the cache valid.
        terms_->current();
        const auto cp = spec_.checkpoint();
        apply_pair(a, b);
        for (const auto& [ia, ib] : shared_) {
            const uint32_t s = site_pool_[ia];
            const SiteTerm t = terms_->evaluate(s);
            const SiteTerm& ta = term_pool_[ia];
            const SiteTerm& tb = term_pool_[ib];
            const SiteTerm& t0 = base_[s];
            cv += ((t.v_term - ta.v_term) - tb.v_term) + t0.v_term;
            cm += ((t.m_term - ta.m_term) - tb.m_term) + t0.m_term;
            kv += std::fabs(t.v_term) + std::fabs(ta.v_term) +
                  std::fabs(tb.v_term) + std::fabs(t0.v_term);
            km += std::fabs(t.m_term) + std::fabs(ta.m_term) +
                  std::fabs(tb.m_term) + std::fabs(t0.m_term);
        }
        spec_.revert(cp);
        terms_->forget_undone_changes();
    }
    const double v = ((base_v_ + a.dv) + b.dv) + cv;
    const double m = ((base_m_ + a.dm) + b.dm) + cm;
    const double power = v + m * m;

    // Forward-error bound on |power - the probe's power| (DESIGN.md §10):
    // both are sums of the same terms, `count` of them at most, so each
    // variance and mean sum is within gamma * kv (gamma * km) of the exact
    // sum, and squaring the mean adds 2 * km * gamma * km. 4.2 * gamma *
    // (kv + 2 km^2) covers both sides; the factor 8 also covers the
    // rounding of kv, km and of the bound itself, and the denormal term an
    // underflowing square.
    const double count = static_cast<double>(
        base_.size() + 2 * (a.end - a.begin) + 2 * (b.end - b.begin) +
        4 * shared_.size());
    const double gamma =
        count * kUnitRoundoff / (1.0 - count * kUnitRoundoff);
    const double bound = 8.0 * gamma * (kv + 2.0 * km * km) +
                         4.0 * std::numeric_limits<double>::denorm_min();
    int decision = -1;
    if (!std::isfinite(power) || !std::isfinite(bound)) {
        decision = -1;
    } else if (power + bound < power_lo_) {
        decision = 0;
    } else if (power - bound > power_hi_) {
        decision = 1;
    }
    if (decision >= 0) (shared_.empty() ? counts_.disjoint : counts_.corrected)++;
    return decision;
}

int AccuracyConflicts::add_conflicts(const std::vector<Candidate>& candidates,
                                     ConflictSet& conflicts) {
    SLPWLO_ASSERT(candidates.size() == footprints_.size(),
                  "add_conflicts: candidates differ from the valid ones");
    int added = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
        SLPWLO_ASSERT(candidates[i] == footprints_[i].candidate,
                      "add_conflicts: candidates differ from the valid ones");
        for (size_t j = i + 1; j < candidates.size(); ++j) {
            if (conflicts.conflict(i, j)) continue;
            const Footprint& a = footprints_[i];
            const Footprint& b = footprints_[j];
            int decision = screenable_ ? screen(a, b) : -1;
            if (decision < 0) {
                counts_.probed++;
                decision = probe(a, b) ? 1 : 0;
            }
            if (decision == 1) {
                conflicts.add(i, j);
                added++;
            }
        }
    }
    return added;
}

}  // namespace slpwlo
