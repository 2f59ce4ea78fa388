// Structural conflict detection between SIMD group candidates
// (Fig. 1c "Conflicts Detection", the Liu et al. part).
//
// Two candidates conflict when they share a view node (an operation can be
// in only one group) or when selecting both would create a cyclic
// dependency between the two groups (each group depends on a member of the
// other). Accuracy conflicts — the paper's extension — are added on top by
// the accuracy-aware extractor in src/core.
//
// Pairwise checks cannot see a cycle that runs through other nodes: fusing
// {a, b} closes one when a depends on some node x and x depends on b, or
// when the path runs through a pack selected earlier in the round.
// PackCycleGuard answers that question at selection time, over the view
// condensed with the round's committed packs.
#pragma once

#include <cstdint>
#include <vector>

#include "slp/candidate.hpp"

namespace slpwlo {

class ConflictSet {
public:
    explicit ConflictSet(size_t candidate_count);

    void add(size_t i, size_t j);
    bool conflict(size_t i, size_t j) const;

    /// Number of conflicting pairs recorded.
    size_t pair_count() const { return pairs_; }

    /// Number of candidates the set ranges over.
    size_t size() const { return matrix_.size(); }

    bool any() const { return pairs_ > 0; }

private:
    std::vector<std::vector<bool>> matrix_;
    size_t pairs_ = 0;
};

/// True if candidates share a view node (any member of x is a member
/// of y).
bool shares_node(const Candidate& x, const Candidate& y);

/// True if selecting both candidates creates a cyclic dependency: some
/// member of y depends on a member of x and vice versa.
bool cyclic_dependency(const PackedView& view, const Candidate& x,
                       const Candidate& y);

/// Transitive dependences of the view condensed with the packs committed
/// so far this round. Each committed pack is one node; fusing a candidate
/// whose members reach one another through the condensed graph would
/// give the lowering a unit that depends on itself.
class PackCycleGuard {
public:
    explicit PackCycleGuard(const PackedView& view);

    /// True if fusing `c`'s nodes into one would close a dependence cycle.
    bool closes_cycle(const Candidate& c) const;

    /// Condense `c`'s nodes into one (c must not close a cycle).
    void commit(const Candidate& c);

private:
    bool reaches(int from, int to) const;

    size_t words_ = 0;
    /// reach_[v]: the view nodes that v's condensed node transitively
    /// depends on, as a bitset (the members of a committed pack share one
    /// row).
    std::vector<std::vector<uint64_t>> reach_;
};

/// All structural conflicts among `candidates`.
ConflictSet detect_structural_conflicts(const PackedView& view,
                                        const std::vector<Candidate>& candidates);

}  // namespace slpwlo
