// Seeded inputs of the three workloads. The workload seed is the only
// source of generated kernels and query draws; the library sees only the
// kernel sources, grids and queries built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/sweep.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// splitmix64: small, seedable and identical on every platform.
class Rng {
public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }

private:
    uint64_t state_;
};

/// A seed derived from a parent seed and a label (round, index, ...).
uint64_t derive_seed(uint64_t seed, uint64_t label);

/// Compile every `.slp` file of the corpus and register it, each compile
/// inside a `frontend.compile` span; returns the kernel names.
std::vector<std::string> register_corpus(const std::string& dir,
                                         SpanBuffer* spans);

/// Generate `count` kernels from `seed`, compile and register them
/// (`frontend.compile` spans); returns their names.
std::vector<std::string> register_generated(uint64_t seed, int count,
                                            bool slp_hostile,
                                            SpanBuffer* spans);

/// One `slpwlo_cc`-style compile request.
struct Query {
    std::string kernel;
    std::string target;
    std::string flow;
    double accuracy_db = 0.0;
};

/// The cold_queries draw: query `i` is a pure function of (seed, i).
/// Queries come in blocks that hold every fixed kernel once plus the next
/// generated kernel, in a seeded order, so every run issues the same
/// kernel mix; target, flow and constraint are drawn per query.
struct QueryPool {
    uint64_t seed = 0;
    std::vector<std::string> kernels;    ///< in every block
    std::vector<std::string> generated;  ///< one per block, in turn
    std::vector<std::string> targets;
    std::vector<std::string> flows;
    std::vector<double> constraints;

    Query draw(long long index) const;
};

QueryPool setup_cold_queries(const Options& options, SpanBuffer* spans);

/// One design_sweep round: a cold grid, then the re-sweep grid (the cold
/// points first, in the same order, then the points of new constraints).
struct DesignRound {
    std::vector<slpwlo::SweepPoint> cold;
    std::vector<slpwlo::SweepPoint> resweep;
};

DesignRound setup_design_round(const Options& options, int round,
                               SpanBuffer* spans);

/// One measured_sweep round: the grid and the fresh JIT directory it
/// compiles into.
struct MeasuredRound {
    std::vector<slpwlo::SweepPoint> points;
    std::string jit_dir;
};

/// Builds the round's grid and creates its JIT directory; `tag` keeps
/// the directories of different phases apart.
MeasuredRound setup_measured_round(const Options& options, int round,
                                   const std::string& tag, SpanBuffer* spans);

}  // namespace perfbench
