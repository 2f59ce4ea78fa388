#include "inputs.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "kernels/kernel_registry.hpp"
#include "target/target_registry.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using slpwlo::SweepDriver;
using slpwlo::SweepPoint;

uint64_t Rng::next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t derive_seed(uint64_t seed, uint64_t label) {
    Rng rng(seed ^ (label * 0xD1B54A32D192ED03ull));
    rng.next();
    return rng.next();
}

namespace {

// Generated kernels run only under WLO-SLP. Under WLO-First, plain SLP
// extraction on some of them selects packs whose units form a dependence
// cycle, and lowering stops with an internal error ("cyclic unit
// dependences in block lowering"), e.g. on gen_7850360376960094126 at
// -60 dB on VEX-1 and VEX-4.
const char* const kGeneratedFlow = "WLO-SLP";

std::string compile_and_register(const std::string& source,
                                 const std::string& origin, SpanBuffer* spans) {
    slpwlo::kernels::BenchmarkKernel bench = [&] {
        ScopedSpan span(spans, "frontend.compile");
        return slpwlo::frontend::compile_benchmark_source(source, origin);
    }();
    std::string name = bench.name;
    // Registering identical content again is a no-op, so every set-up of
    // a run may compile and register the same sources.
    slpwlo::kernels::KernelRegistry::instance().add(
        std::move(bench), slpwlo::frontend::canonical_kernel_source(source));
    return name;
}

template <class T>
void shuffle(std::vector<T>& items, Rng& rng) {
    for (size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.below(i)]);
    }
}

std::vector<double> constraint_range(double from, double to, double step) {
    std::vector<double> values;
    for (double a = from; a >= to; a -= step) values.push_back(a);
    return values;
}

void append(std::vector<SweepPoint>& to, std::vector<SweepPoint> from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

/// One point per generated kernel on `target`, cycling through
/// `accuracies`: generated kernels differ widely in cost and in the code
/// they yield, so many kernels with one point each keep every run's mix
/// alike.
std::vector<SweepPoint> one_point_each(const std::vector<std::string>& kernels,
                                       const std::string& target,
                                       const std::vector<double>& accuracies) {
    std::vector<SweepPoint> points;
    for (size_t i = 0; i < kernels.size(); ++i) {
        SweepPoint point;
        point.kernel = kernels[i];
        point.target = target;
        point.flow = kGeneratedFlow;
        point.accuracy_db = accuracies[i % accuracies.size()];
        points.push_back(std::move(point));
    }
    return points;
}

}  // namespace

std::vector<std::string> register_corpus(const std::string& dir,
                                         SpanBuffer* spans) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() && entry.path().extension() == ".slp") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        throw std::runtime_error("kernel corpus `" + dir + "` has no .slp files");
    }
    std::vector<std::string> names;
    for (const fs::path& file : files) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        if (!in) throw std::runtime_error("cannot read `" + file.string() + "`");
        names.push_back(compile_and_register(text.str(), file.string(), spans));
    }
    return names;
}

std::vector<std::string> register_generated(uint64_t seed, int count,
                                            bool slp_hostile,
                                            SpanBuffer* spans) {
    slpwlo::frontend::GenOptions gen;
    gen.slp_hostile = slp_hostile;
    std::vector<std::string> names;
    for (int i = 0; i < count; ++i) {
        const slpwlo::frontend::GeneratedKernel kernel =
            slpwlo::frontend::generate_kernel_source(derive_seed(seed, i), gen);
        names.push_back(compile_and_register(kernel.source, kernel.name, spans));
    }
    return names;
}

Query QueryPool::draw(long long index) const {
    const long long block_size = static_cast<long long>(kernels.size()) + 1;
    const long long block = index / block_size;
    std::vector<size_t> order(static_cast<size_t>(block_size));
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng block_rng(derive_seed(seed, 2 * block));
    shuffle(order, block_rng);

    Rng rng(derive_seed(seed, 2 * index + 1));
    Query query;
    const size_t slot = order[static_cast<size_t>(index % block_size)];
    query.target = targets[rng.below(targets.size())];
    query.flow = flows[rng.below(flows.size())];
    query.accuracy_db = constraints[rng.below(constraints.size())];
    if (slot < kernels.size()) {
        query.kernel = kernels[slot];
    } else {
        query.kernel = generated[static_cast<size_t>(block) % generated.size()];
        query.flow = kGeneratedFlow;
    }
    return query;
}

QueryPool setup_cold_queries(const Options& options, SpanBuffer* spans) {
    QueryPool pool;
    pool.seed = derive_seed(options.seed, 0xC01D);
    pool.kernels = {"CONV", "DOT", "FIR", "IIR"};
    // stencil2d is left to design_sweep: one of its queries costs as much
    // as ~50 others, so it would set this workload's throughput alone.
    for (const std::string& name : register_corpus(options.corpus_dir, spans)) {
        if (name != "stencil2d") pool.kernels.push_back(name);
    }
    // Many generated kernels, each drawn rarely: the mix of every run
    // averages over them instead of hinging on a few.
    pool.generated = register_generated(pool.seed, 96, /*slp_hostile=*/false, spans);
    pool.targets = slpwlo::TargetRegistry::instance().names();
    pool.flows = {"WLO-SLP", "WLO-First", "WLO-First+Scaling"};
    pool.constraints = constraint_range(-20.0, -60.0, 5.0);
    return pool;
}

DesignRound setup_design_round(const Options& options, int round,
                               SpanBuffer* spans) {
    const uint64_t seed = derive_seed(derive_seed(options.seed, 0xD51C), round);
    register_corpus(options.corpus_dir, spans);
    const std::vector<std::string> heavy = {"stencil1d", "stencil2d", "CONV",
                                            "IIR", "fft4"};
    // About a third of the hostile kernels cost ~40x the others.
    const std::vector<std::string> hostile =
        register_generated(seed, 6, /*slp_hostile=*/true, spans);
    // Exact search only on small kernels: on stencil2d it takes minutes.
    const std::vector<std::string> small = {"DOT", "dotprod", "fir8", "matmul4",
                                            "memcpy2"};
    const std::vector<std::string> targets = {"NEON128", "DSP64"};
    const std::vector<std::string> flows = {"WLO-SLP", "WLO-First"};

    // 10 dB steps. On 5 dB steps stencil2d under WLO-First throws an
    // internal lowering error ("cyclic unit dependences in block
    // lowering") at -45 dB, and at -47 dB on DSP64.
    std::vector<double> constraints = constraint_range(-20.0, -60.0, 10.0);
    Rng rng(seed);
    shuffle(constraints, rng);
    const std::vector<double> cold(constraints.begin(), constraints.begin() + 3);
    const std::vector<double> added(constraints.begin() + 3,
                                    constraints.begin() + 5);

    slpwlo::FlowOptions optimal;
    optimal.solver.optimizer = slpwlo::Optimizer::Optimal;
    const auto grid = [&](const std::vector<double>& accuracies) {
        std::vector<SweepPoint> points =
            SweepDriver::grid(heavy, targets, flows, accuracies);
        std::vector<SweepPoint> exact =
            SweepDriver::grid(small, targets, flows, accuracies);
        for (SweepPoint& point : exact) point.options = optimal;
        append(points, std::move(exact));
        return points;
    };
    DesignRound result;
    result.cold = grid(cold);
    append(result.cold, one_point_each(hostile, "DSP64", cold));
    result.resweep = result.cold;
    append(result.resweep, grid(added));
    return result;
}

MeasuredRound setup_measured_round(const Options& options, int round,
                                   const std::string& tag, SpanBuffer* spans) {
    const uint64_t seed = derive_seed(derive_seed(options.seed, 0x3EA5), round);
    register_corpus(options.corpus_dir, spans);
    const std::vector<double> constraints = constraint_range(-20.0, -60.0, 10.0);
    MeasuredRound result;
    result.points = SweepDriver::grid(
        {"DOT", "dotprod", "fir8", "matmul4", "memcpy2", "fft4"},
        {"XENTIUM", "NEON128", "DSP64", "VEX-4"}, {"WLO-SLP", "WLO-First"},
        constraints);
    append(result.points,
           one_point_each(register_generated(seed, 4, /*slp_hostile=*/false,
                                             spans),
                          "XENTIUM", constraints));
    // A seeded order, not grid order: the grid puts a kernel's points on
    // one target side by side, so those that need JIT builds (made one at
    // a time per process) all wait on each other, and every round's tail
    // is the same pile-up.
    Rng rng(seed);
    shuffle(result.points, rng);

    const fs::path dir = fs::absolute(options.scratch_dir) /
                         ("jit-" + std::to_string(getpid()) + "-" + tag + "-r" +
                          std::to_string(round));
    fs::remove_all(dir);
    fs::create_directories(dir);
    result.jit_dir = dir.string();
    return result;
}

}  // namespace perfbench
