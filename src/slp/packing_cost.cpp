#include "slp/packing_cost.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace slpwlo {

std::vector<OpId> fused_lanes(const PackedView& view, const Candidate& c) {
    std::vector<OpId> lanes;
    for (const int n : c.nodes) {
        const auto& more = view.node(n).lanes;
        lanes.insert(lanes.end(), more.begin(), more.end());
    }
    return lanes;
}

bool lanes_memory_adjacent(const PackedView& view,
                           const std::vector<OpId>& lanes) {
    const Kernel& kernel = view.kernel();
    const Op& first = kernel.op(lanes.front());
    if (!first.is_memory()) return false;
    for (size_t i = 1; i < lanes.size(); ++i) {
        const Op& op = kernel.op(lanes[i]);
        if (op.array != first.array) return false;
        const auto diff =
            op.index.constant_difference(kernel.op(lanes[i - 1]).index);
        if (!diff.has_value() || *diff != 1) return false;
    }
    return true;
}

std::vector<OpId> operand_defs(const PackedView& view,
                               const std::vector<OpId>& lanes, int slot) {
    std::vector<OpId> defs;
    defs.reserve(lanes.size());
    for (const OpId lane : lanes) {
        const OpId def = view.def_of_arg(lane, slot);
        if (!def.valid()) return {};
        defs.push_back(def);
    }
    return defs;
}

namespace {

/// True if every lane reads the same live-in variable (splat).
bool is_splat(const PackedView& view, const std::vector<OpId>& lanes,
              int slot) {
    const Kernel& kernel = view.kernel();
    const VarId first = kernel.op(lanes.front()).args[slot];
    for (const OpId lane : lanes) {
        if (view.def_of_arg(lane, slot).valid()) return false;
        if (kernel.op(lane).args[slot] != first) return false;
    }
    return true;
}

/// A producer's lanes only yield a free superword when they are not a
/// gathered (non-contiguous) load group — that merely relocates the
/// packing cost.
bool usable_producer(const PackedView& view, const std::vector<OpId>& lanes) {
    if (view.kernel().op(lanes.front()).kind != OpKind::Load) return true;
    return lanes_memory_adjacent(view, lanes);
}

using LaneIndex = std::map<std::vector<OpId>, std::vector<uint32_t>>;

const std::vector<uint32_t>& lookup(const LaneIndex& index,
                                    const std::vector<OpId>& lanes) {
    static const std::vector<uint32_t> none;
    const auto it = index.find(lanes);
    return it == index.end() ? none : it->second;
}

}  // namespace

RoundEconomics::RoundEconomics(const PackedView& view,
                               const std::vector<Candidate>& candidates,
                               const TargetModel& target) {
    const Kernel& kernel = view.kernel();
    const size_t n = candidates.size();

    // Fused lanes, and candidates by fused lanes (ascending index). Equal
    // lanes mean equal node lists: view nodes partition the block's ops.
    std::vector<std::vector<OpId>> lanes(n);
    LaneIndex by_lanes;
    for (size_t i = 0; i < n; ++i) {
        lanes[i] = fused_lanes(view, candidates[i]);
        by_lanes[lanes[i]].push_back(static_cast<uint32_t>(i));
    }
    // View groups, for the last pool tier.
    std::set<std::vector<OpId>> view_groups;
    for (int v = 0; v < view.size(); ++v) {
        if (view.width(v) >= 2) view_groups.insert(view.node(v).lanes);
    }

    entries_.resize(n);
    std::vector<std::vector<Consumer>> consumers(n);
    for (size_t i = 0; i < n; ++i) {
        const Candidate& c = candidates[i];
        const std::vector<OpId>& li = lanes[i];
        Entry& e = entries_[i];
        const int w = static_cast<int>(li.size());
        const OpKind kind = view.kind(c.nodes.front());

        // n node issues become one (1.0 for a pair; a k-lane run seed saves
        // k - 1 issues in one step).
        e.saved_ops = static_cast<double>(c.node_count() - 1);
        if ((kind == OpKind::Load || kind == OpKind::Store) &&
            !lanes_memory_adjacent(view, li)) {
            // Gather/scatter: synthesize the vector (or tear it apart)
            // lane by lane.
            e.gather_cost = (w - 1) * target.pack2_ops;
        }

        // Operand superwords of arithmetic ops and the stored value of
        // stores.
        const int slots = kernel.op(li.front()).num_args();
        e.slots.resize(static_cast<size_t>(slots));
        for (int s = 0; s < slots; ++s) {
            Slot& slot = e.slots[static_cast<size_t>(s)];
            // acc = acc + p: the operand is the group's own previous-
            // iteration result, held in a vector register — a reuse, not
            // a pack.
            slot.self_accumulation =
                std::all_of(li.begin(), li.end(), [&](OpId lane) {
                    const Op& op = kernel.op(lane);
                    return op.dest.valid() && op.args[s] == op.dest &&
                           !view.def_of_arg(lane, s).valid();
                });
            if (slot.self_accumulation) continue;

            const std::vector<OpId> defs = operand_defs(view, li, s);
            if (!defs.empty()) {
                const std::vector<OpId> reversed(defs.rbegin(), defs.rend());
                for (const uint32_t j : lookup(by_lanes, defs)) {
                    if (usable_producer(view, lanes[j])) {
                        slot.producers.push_back({j, SuperwordMatch::Direct});
                    }
                }
                for (const uint32_t j : lookup(by_lanes, reversed)) {
                    if (usable_producer(view, lanes[j])) {
                        slot.producers.push_back(
                            {j, SuperwordMatch::Reversed});
                    }
                }
                // Ascending index, as the pool is scanned. No producer
                // matches both ways: its lanes are distinct ops, so they
                // are never their own reverse.
                std::sort(slot.producers.begin(), slot.producers.end(),
                          [](const Producer& a, const Producer& b) {
                              return a.j < b.j;
                          });

                // A view group producing the operand. (A group and its
                // reverse never both exist: view nodes partition the
                // block's ops.)
                if (view_groups.count(defs) && usable_producer(view, defs)) {
                    slot.view_match = SuperwordMatch::Direct;
                } else if (view_groups.count(reversed) &&
                           usable_producer(view, reversed)) {
                    slot.view_match = SuperwordMatch::Reversed;
                }
            }
            if (!defs.empty() && lanes_memory_adjacent(view, defs)) {
                // Loads that could be vectorized even w/o a candidate.
                slot.adjacent_defs = true;
            } else if (is_splat(view, li, s)) {
                slot.fallback_pack = 1.0;
            } else {
                slot.fallback_pack = (w - 1) * target.pack2_ops;
            }
        }

        // Result side (stores produce no value).
        e.produces_value = kind != OpKind::Store;
        if (e.produces_value) {
            // A self-accumulating group consumes its own result in the
            // next iteration.
            for (int s = 0; s < slots && !e.self_consumed; ++s) {
                e.self_consumed =
                    std::all_of(li.begin(), li.end(), [&](OpId lane) {
                        const Op& op = kernel.op(lane);
                        return op.dest.valid() && op.args[s] == op.dest;
                    });
            }
            // Extraction cost, summed in lane order, paid when no consuming
            // candidate takes the result as a superword.
            for (const OpId lane : li) {
                if (!view.consumers_of(lane).empty() ||
                    view.has_external_uses(lane)) {
                    e.extract_cost += target.extract_ops;
                }
            }
        }

        // Consumer side, from i's point of view as a consumer: each operand
        // slot of i whose defs are some candidate's lanes (in either
        // order) makes i a consumer of that candidate. (Never of itself,
        // or of a copy of itself: a candidate's lanes are mutually
        // independent.)
        for (int s = 0; s < slots; ++s) {
            const std::vector<OpId> defs = operand_defs(view, li, s);
            if (defs.empty()) continue;
            const std::vector<OpId> reversed(defs.rbegin(), defs.rend());
            for (const std::vector<OpId>* key : {&defs, &reversed}) {
                for (const uint32_t p : lookup(by_lanes, *key)) {
                    std::vector<Consumer>& list = consumers[p];
                    if (!list.empty() && list.back().d == i) {
                        list.back().slots++;
                    } else {
                        list.push_back({static_cast<uint32_t>(i), 1});
                    }
                }
            }
        }
    }

    for (size_t i = 0; i < n; ++i) {
        if (entries_[i].produces_value) {
            entries_[i].consumers = std::move(consumers[i]);
        }
    }
}

}  // namespace slpwlo
