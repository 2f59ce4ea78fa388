#include "slp/conflict.hpp"

#include "support/diagnostics.hpp"

namespace slpwlo {

ConflictSet::ConflictSet(size_t candidate_count)
    : matrix_(candidate_count, std::vector<bool>(candidate_count, false)) {}

void ConflictSet::add(size_t i, size_t j) {
    SLPWLO_ASSERT(i < matrix_.size() && j < matrix_.size(),
                  "conflict index out of range");
    if (i == j || matrix_[i][j]) return;
    matrix_[i][j] = true;
    matrix_[j][i] = true;
    pairs_++;
}

bool ConflictSet::conflict(size_t i, size_t j) const {
    return matrix_[i][j];
}

bool shares_node(const Candidate& x, const Candidate& y) {
    for (const int xn : x.nodes) {
        for (const int yn : y.nodes) {
            if (xn == yn) return true;
        }
    }
    return false;
}

bool cyclic_dependency(const PackedView& view, const Candidate& x,
                       const Candidate& y) {
    // A cycle arises when some member of Y depends on a member of X and
    // some member of X depends on a member of Y.
    auto group_depends = [&view](const std::vector<int>& later,
                                 const std::vector<int>& earlier) {
        for (const int l : later) {
            for (const int e : earlier) {
                if (view.depends(l, e)) return true;
            }
        }
        return false;
    };
    return group_depends(y.nodes, x.nodes) && group_depends(x.nodes, y.nodes);
}

PackCycleGuard::PackCycleGuard(const PackedView& view)
    : words_((static_cast<size_t>(view.size()) + 63) / 64),
      reach_(static_cast<size_t>(view.size()),
             std::vector<uint64_t>(words_, 0)) {
    const int n = view.size();
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i != j && view.depends(i, j)) {
                reach_[static_cast<size_t>(i)][static_cast<size_t>(j) / 64] |=
                    uint64_t{1} << (j % 64);
            }
        }
    }
    // Warshall closure: node dependences over fused nodes are not
    // transitive (a may depend on one lane of x, another lane of x on b).
    for (int k = 0; k < n; ++k) {
        const std::vector<uint64_t>& via = reach_[static_cast<size_t>(k)];
        for (int i = 0; i < n; ++i) {
            std::vector<uint64_t>& row = reach_[static_cast<size_t>(i)];
            if (i == k || !reaches(i, k)) continue;
            for (size_t w = 0; w < words_; ++w) row[w] |= via[w];
        }
    }
}

bool PackCycleGuard::reaches(int from, int to) const {
    return (reach_[static_cast<size_t>(from)][static_cast<size_t>(to) / 64] >>
            (to % 64)) & 1u;
}

bool PackCycleGuard::closes_cycle(const Candidate& c) const {
    for (const int a : c.nodes) {
        for (const int b : c.nodes) {
            if (a != b && reaches(a, b)) return true;
        }
    }
    return false;
}

void PackCycleGuard::commit(const Candidate& c) {
    // The condensed node reaches what any member reached; every node that
    // reached a member now reaches all of that, and the members.
    std::vector<uint64_t> merged(words_, 0);
    std::vector<uint64_t> members(words_, 0);
    for (const int m : c.nodes) {
        const std::vector<uint64_t>& row = reach_[static_cast<size_t>(m)];
        for (size_t w = 0; w < words_; ++w) merged[w] |= row[w];
        members[static_cast<size_t>(m) / 64] |= uint64_t{1} << (m % 64);
    }
    for (std::vector<uint64_t>& row : reach_) {
        bool hits = false;
        for (size_t w = 0; w < words_ && !hits; ++w) {
            hits = (row[w] & members[w]) != 0;
        }
        if (!hits) continue;
        for (size_t w = 0; w < words_; ++w) row[w] |= merged[w] | members[w];
    }
    for (const int m : c.nodes) reach_[static_cast<size_t>(m)] = merged;
}

ConflictSet detect_structural_conflicts(
    const PackedView& view, const std::vector<Candidate>& candidates) {
    ConflictSet conflicts(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        for (size_t j = i + 1; j < candidates.size(); ++j) {
            if (shares_node(candidates[i], candidates[j]) ||
                cyclic_dependency(view, candidates[i], candidates[j])) {
                conflicts.add(i, j);
            }
        }
    }
    return conflicts;
}

}  // namespace slpwlo
