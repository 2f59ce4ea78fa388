// Pool-scan reference for candidate economics: evaluate_candidate and the
// greedy selection loop as they were computed before the per-round index
// (RoundEconomics). Every evaluation walks the whole pool; only what is
// derived from one candidate alone (fused lanes, operand defs) is
// computed once per round. Header-only (the library keeps a single
// economics path); tests/test_slp.cpp and bench/perf_hotpaths.cpp compare
// the indexed path against it bit for bit.
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include "slp/benefit.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo::reference {

/// What a pool scan reads of a candidate: its fused lanes and each
/// operand slot's defs. Derived from the candidate alone, so a scan may
/// compute them once per round.
struct ScanFacts {
    const Candidate* candidate = nullptr;
    std::vector<OpId> lanes;
    std::vector<std::vector<OpId>> defs;  ///< per operand slot
};

inline ScanFacts scan_facts(const PackedView& view, const Candidate& c) {
    ScanFacts facts;
    facts.candidate = &c;
    facts.lanes = fused_lanes(view, c);
    const int slots = view.kernel().op(facts.lanes.front()).num_args();
    for (int slot = 0; slot < slots; ++slot) {
        facts.defs.push_back(operand_defs(view, facts.lanes, slot));
    }
    return facts;
}

namespace detail {

/// Does some pool entry or existing group produce exactly `defs` — in
/// lane order (Direct) or in reverse (Reversed)? Pool order decides: the
/// first entry of `pool`, then the view's groups by index.
inline SuperwordMatch producible_as_superword(
    const PackedView& view, const std::vector<const ScanFacts*>& pool,
    const std::vector<OpId>& defs) {
    if (defs.empty()) return SuperwordMatch::No;
    std::vector<OpId> reversed(defs.rbegin(), defs.rend());

    auto usable = [&view](const std::vector<OpId>& producer_lanes) {
        if (view.kernel().op(producer_lanes.front()).kind != OpKind::Load) {
            return true;
        }
        return lanes_memory_adjacent(view, producer_lanes);
    };

    for (const ScanFacts* p : pool) {
        if (p->lanes == defs && usable(p->lanes)) return SuperwordMatch::Direct;
        if (p->lanes == reversed && usable(p->lanes)) {
            return SuperwordMatch::Reversed;
        }
    }
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) < 2) continue;
        const std::vector<OpId>& lanes = view.node(i).lanes;
        if (lanes == defs && usable(lanes)) return SuperwordMatch::Direct;
        if (lanes == reversed && usable(lanes)) return SuperwordMatch::Reversed;
    }
    return SuperwordMatch::No;
}

inline bool is_splat(const PackedView& view, const std::vector<OpId>& lanes,
                     int slot) {
    const Kernel& kernel = view.kernel();
    const VarId first = kernel.op(lanes.front()).args[slot];
    for (const OpId lane : lanes) {
        if (view.def_of_arg(lane, slot).valid()) return false;
        if (kernel.op(lane).args[slot] != first) return false;
    }
    return true;
}

}  // namespace detail

/// Economics of candidate `c` against `pool`, scanning the whole pool for
/// every operand and for consumers of the result.
inline Economics evaluate_scan(const PackedView& view,
                               const std::vector<const ScanFacts*>& pool,
                               const ScanFacts& c, const TargetModel& target) {
    Economics econ;
    econ.saved_ops = static_cast<double>(c.candidate->node_count() - 1);
    const Kernel& kernel = view.kernel();
    const std::vector<OpId>& lanes = c.lanes;
    const int w = static_cast<int>(lanes.size());
    const OpKind kind = view.kind(c.candidate->nodes.front());

    if (kind == OpKind::Load || kind == OpKind::Store) {
        if (!lanes_memory_adjacent(view, lanes)) {
            econ.pack_cost += (w - 1) * target.pack2_ops;
        }
    }

    const int slots = static_cast<int>(c.defs.size());
    for (int slot = 0; slot < slots; ++slot) {
        const bool self_accumulation = std::all_of(
            lanes.begin(), lanes.end(), [&](OpId lane) {
                const Op& op = kernel.op(lane);
                return op.dest.valid() && op.args[slot] == op.dest &&
                       !view.def_of_arg(lane, slot).valid();
            });
        if (self_accumulation) {
            econ.reuse += 1.0;
            continue;
        }
        const std::vector<OpId>& defs = c.defs[static_cast<size_t>(slot)];
        switch (detail::producible_as_superword(view, pool, defs)) {
            case SuperwordMatch::Direct:
                econ.reuse += 1.0;
                break;
            case SuperwordMatch::Reversed:
                econ.reuse += 1.0;
                econ.pack_cost += 1.0;
                break;
            case SuperwordMatch::No:
                if (!defs.empty() && lanes_memory_adjacent(view, defs)) {
                    econ.reuse += 0.5;
                } else if (detail::is_splat(view, lanes, slot)) {
                    econ.pack_cost += 1.0;
                } else {
                    econ.pack_cost += (w - 1) * target.pack2_ops;
                }
                break;
        }
    }

    if (kind != OpKind::Store) {
        bool consumed_as_superword = false;
        for (int slot = 0; slot < slots && !consumed_as_superword; ++slot) {
            consumed_as_superword = std::all_of(
                lanes.begin(), lanes.end(), [&](OpId lane) {
                    const Op& op = kernel.op(lane);
                    return op.dest.valid() && op.args[slot] == op.dest;
                });
        }
        const std::vector<OpId> lanes_reversed(lanes.rbegin(), lanes.rend());
        for (const ScanFacts* d : pool) {
            if (*d->candidate == *c.candidate) continue;
            for (const std::vector<OpId>& defs : d->defs) {
                if (defs == lanes || defs == lanes_reversed) {
                    econ.reuse += 1.0;
                    consumed_as_superword = true;
                }
            }
        }
        if (!consumed_as_superword) {
            for (const OpId lane : lanes) {
                if (!view.consumers_of(lane).empty() ||
                    view.has_external_uses(lane)) {
                    econ.unpack_cost += target.extract_ops;
                }
            }
        }
    }
    return econ;
}

/// Economics of candidate `c` against the pool `available`.
inline Economics evaluate_candidate(
    const PackedView& view, const std::vector<const Candidate*>& available,
    const Candidate& c, const TargetModel& target) {
    std::vector<ScanFacts> facts;
    facts.reserve(available.size());
    for (const Candidate* a : available) facts.push_back(scan_facts(view, *a));
    std::vector<const ScanFacts*> pool;
    for (const ScanFacts& f : facts) pool.push_back(&f);
    return evaluate_scan(view, pool, scan_facts(view, c), target);
}

inline Economics evaluate_candidate(const PackedView& view,
                                    const std::vector<Candidate>& available,
                                    const Candidate& c,
                                    const TargetModel& target) {
    std::vector<const Candidate*> pool;
    pool.reserve(available.size());
    for (const Candidate& a : available) pool.push_back(&a);
    return evaluate_candidate(view, pool, c, target);
}

inline bool economics_bit_identical(const Economics& a, const Economics& b) {
    auto same = [](double x, double y) {
        return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
    };
    return same(a.reuse, b.reuse) && same(a.pack_cost, b.pack_cost) &&
           same(a.unpack_cost, b.unpack_cost) &&
           same(a.saved_ops, b.saved_ops);
}

/// Called for every evaluation the reference greedy loop makes: the
/// candidate index, the alive flags and the commit order it was scored
/// against, and the economics it got.
using SelectionVisitor =
    std::function<void(size_t i, const std::vector<char>& alive,
                       const std::vector<size_t>& committed,
                       const Economics& econ)>;

/// select_candidates with a fresh pool per evaluation: the alive
/// non-conflicting candidates in index order, then the committed
/// selections in commit order.
inline std::vector<Candidate> select_candidates(
    const PackedView& view, const std::vector<Candidate>& candidates,
    const ConflictSet& conflicts, const TargetModel& target, BenefitMode mode,
    double min_benefit, const TrySelect& try_select = {},
    int* rejected_count = nullptr, const SelectionVisitor& visit = {}) {
    const size_t n = candidates.size();
    std::vector<ScanFacts> facts;
    facts.reserve(n);
    for (const Candidate& c : candidates) facts.push_back(scan_facts(view, c));
    std::vector<char> alive(n, 1);
    size_t alive_count = n;
    std::vector<size_t> committed;
    PackCycleGuard cycles(view);

    std::vector<Candidate> selected;
    while (alive_count > 0) {
        double best_score = 0.0;
        double best_saved = 0.0;
        size_t best = n;
        for (size_t i = 0; i < n; ++i) {
            if (!alive[i]) continue;
            std::vector<const ScanFacts*> pool;
            for (size_t j = 0; j < n; ++j) {
                if (alive[j] && !conflicts.conflict(i, j)) {
                    pool.push_back(&facts[j]);
                }
            }
            for (const size_t k : committed) pool.push_back(&facts[k]);
            const Economics econ = evaluate_scan(view, pool, facts[i], target);
            if (visit) visit(i, alive, committed, econ);
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
        if (best_score < min_benefit) break;

        alive[best] = 0;
        alive_count--;
        if (cycles.closes_cycle(candidates[best])) continue;
        if (try_select && !try_select(candidates[best])) {
            if (rejected_count != nullptr) (*rejected_count)++;
            continue;
        }
        selected.push_back(candidates[best]);
        committed.push_back(best);
        cycles.commit(candidates[best]);
        for (size_t i = 0; i < n; ++i) {
            if (alive[i] && conflicts.conflict(best, i)) {
                alive[i] = 0;
                alive_count--;
            }
        }
    }
    return selected;
}

}  // namespace slpwlo::reference
