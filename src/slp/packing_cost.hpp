// Candidate economics: superword reuse and packing/unpacking cost
// (the Liu-style benefit inputs, Section II.A / III.B).
//
// For a candidate (the tentative fusion of two view nodes), we analyze:
//  * memory adjacency — contiguous loads/stores become one vector access,
//    anything else needs per-lane packing/extraction;
//  * operand superwords — an operand vector is free when another candidate
//    (or an already-formed group) produces exactly those lanes in order,
//    cheap when it is a splat, and otherwise costs pack operations;
//  * result use — a result consumed lane-by-lane by scalar code costs
//    extraction; consumed by a matching candidate it is a reuse.
//
// A candidate is scored against a *pool*: the candidates it could still
// coexist with (ascending candidate index), then the selections committed
// earlier in the round (commit order), then the groups already in the
// view. The first pool entry that produces an operand superword decides
// how it is matched. RoundEconomics indexes a round once — fused lanes,
// operand defs, static costs, and per candidate the sorted lists of its
// possible producers and consumers — so scoring against any pool walks
// those short lists instead of the whole pool (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <vector>

#include "slp/candidate.hpp"

namespace slpwlo {

struct Economics {
    /// Superword reuses enabled by selecting this candidate (operand vectors
    /// produced by other candidates/groups + consumers that can take the
    /// result as a superword).
    double reuse = 0.0;
    /// ALU ops to assemble operand vectors that are not reusable.
    double pack_cost = 0.0;
    /// ALU ops to extract lanes consumed by scalar code.
    double unpack_cost = 0.0;
    /// Instruction issues saved by fusing (one per fusion).
    double saved_ops = 0.0;
};

/// The fused lane list of a candidate: lanes(a) followed by lanes(b).
std::vector<OpId> fused_lanes(const PackedView& view, const Candidate& c);

/// True if the lanes are loads/stores of consecutive elements (ascending,
/// constant step 1) of one array.
bool lanes_memory_adjacent(const PackedView& view,
                           const std::vector<OpId>& lanes);

/// In-block defining ops of each lane's operand `slot`; empty if any lane's
/// operand is live-in to the block.
std::vector<OpId> operand_defs(const PackedView& view,
                               const std::vector<OpId>& lanes, int slot);

/// How an operand superword is produced: not at all, in lane order, or in
/// reverse lane order (realizable with one vector permute; the FIR
/// convolution's x-descending / c-ascending pattern).
enum class SuperwordMatch : uint8_t { No, Direct, Reversed };

/// The selections committed so far in a round, as each candidate's
/// position in commit order.
class CommitLog {
public:
    static constexpr size_t npos = SIZE_MAX;

    explicit CommitLog(size_t candidate_count)
        : rank_(candidate_count, npos) {}

    void push(size_t i) { rank_[i] = committed_++; }
    /// Position of candidate `i` in commit order, npos if not committed.
    size_t rank(size_t i) const { return rank_[i]; }

private:
    std::vector<size_t> rank_;
    size_t committed_ = 0;
};

/// The economics index of one extraction round (fixed view, fixed
/// candidate list).
class RoundEconomics {
public:
    RoundEconomics(const PackedView& view,
                   const std::vector<Candidate>& candidates,
                   const TargetModel& target);

    /// Economics of candidate `i` against the pool {j ascending :
    /// in_pool(j)}, then `committed` in commit order, then the view's
    /// groups. Bitwise equal to scanning that pool: every cost term is
    /// added in the same sequence, and the consumer terms are all 1.0
    /// (DESIGN.md §8).
    template <typename InPool>
    Economics evaluate(size_t i, const InPool& in_pool,
                       const CommitLog& committed) const;

private:
    struct Producer {
        uint32_t j;
        SuperwordMatch match;
    };
    struct Consumer {
        uint32_t d;
        uint32_t slots;  ///< operand slots of d that read i's lanes
    };
    struct Slot {
        bool self_accumulation = false;
        /// Usable producers among the candidates, ascending index.
        std::vector<Producer> producers;
        /// First view group producing the operand, if any.
        SuperwordMatch view_match = SuperwordMatch::No;
        /// Unmatched operand: memory-adjacent defs (reuse 0.5), else the
        /// pack cost (splat or lane-by-lane).
        bool adjacent_defs = false;
        double fallback_pack = 0.0;
    };
    struct Entry {
        double saved_ops = 0.0;
        double gather_cost = 0.0;  ///< 0 unless a gather/scatter
        std::vector<Slot> slots;
        bool produces_value = false;
        bool self_consumed = false;
        std::vector<Consumer> consumers;  ///< ascending d
        double extract_cost = 0.0;
    };

    template <typename InPool>
    static SuperwordMatch match_operand(const Slot& slot, const InPool& in_pool,
                                        const CommitLog& committed);

    std::vector<Entry> entries_;
};

template <typename InPool>
SuperwordMatch RoundEconomics::match_operand(const Slot& slot,
                                             const InPool& in_pool,
                                             const CommitLog& committed) {
    for (const Producer& p : slot.producers) {
        if (in_pool(static_cast<size_t>(p.j))) return p.match;
    }
    size_t best_rank = CommitLog::npos;
    SuperwordMatch best = SuperwordMatch::No;
    for (const Producer& p : slot.producers) {
        const size_t rank = committed.rank(p.j);
        if (rank < best_rank) {
            best_rank = rank;
            best = p.match;
        }
    }
    return best_rank != CommitLog::npos ? best : slot.view_match;
}

template <typename InPool>
Economics RoundEconomics::evaluate(size_t i, const InPool& in_pool,
                                   const CommitLog& committed) const {
    const Entry& e = entries_[i];
    Economics econ;
    econ.saved_ops = e.saved_ops;
    econ.pack_cost += e.gather_cost;
    for (const Slot& slot : e.slots) {
        if (slot.self_accumulation) {
            econ.reuse += 1.0;
            continue;
        }
        switch (match_operand(slot, in_pool, committed)) {
            case SuperwordMatch::Direct:
                econ.reuse += 1.0;
                break;
            case SuperwordMatch::Reversed:
                econ.reuse += 1.0;
                econ.pack_cost += 1.0;  // one vector permute
                break;
            case SuperwordMatch::No:
                if (slot.adjacent_defs) {
                    econ.reuse += 0.5;
                } else {
                    econ.pack_cost += slot.fallback_pack;
                }
                break;
        }
    }
    if (e.produces_value) {
        bool consumed = e.self_consumed;
        for (const Consumer& c : e.consumers) {
            const uint32_t entries =
                (in_pool(static_cast<size_t>(c.d)) ? 1u : 0u) +
                (committed.rank(c.d) != CommitLog::npos ? 1u : 0u);
            // One reuse per (pool entry, matching slot). Reuse is a small
            // multiple of 0.5, so one addition is exact, like k of them.
            econ.reuse += static_cast<double>(entries * c.slots);
            if (entries > 0) consumed = true;
        }
        if (!consumed) econ.unpack_cost = e.extract_cost;
    }
    return econ;
}

}  // namespace slpwlo
