// Corpus differential robustness harness: every kernel that enters the
// system as *data* — the checked-in `.slp` corpus plus seeded random
// kernels from the generator — must behave exactly like the built-in
// builder kernels do. Three hard exit-code gates:
//
//   1. Evaluator agreement — for every corpus and generated kernel, the
//      tape, walker and compiled noise backends return bit-identical
//      noise_power on both the initial spec and a flow-optimized spec
//      (the compiled backend may degrade to the tape without a host
//      compiler; degradation is reported, never a failure).
//   2. Flow consistency — every registered flow runs every kernel at the
//      reference constraint; each result must form SIMD groups' cycles
//      (simd_cycles > 0) and meet the accuracy constraint (Float, the
//      unconstrained reference, is exempt from the latter). Exact flows
//      run under a deterministic node budget.
//   3. Determinism — the whole sweep runs twice (1 thread, then N) and
//      the serialized reports must be byte-identical.
//
// Emits a JSON gate report (--json / --json=FILE) for CI artifacts.
//
//   $ ./corpus_differential [--corpus DIR]... [--generated N]
//                           [--hostile N] [--smoke]
//                           [--threads N] [--json[=FILE]]
//
// --corpus defaults to the checked-in kernels/ corpus (its path is
// compiled in, so the harness runs from any directory); --generated
// seeds that many random kernels (default 8); --hostile adds that many
// SLP-*hostile* generated kernels (default 4) — non-adjacent strides and
// mixed-array lanes where a correct extractor finds nothing profitable
// to pack, so "the flow still meets its constraint when SLP comes up
// empty" is exercised every run; --smoke skips the exact flows, keeping
// CI wall-clock down without narrowing the kernel set.
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/compiled_evaluator.hpp"
#include "flow/pass.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "kernels/kernel_registry.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

namespace {

constexpr double kConstraintDb = -30.0;

uint64_t bits_of(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

struct KernelGates {
    std::string name;
    bool evaluators_agree = true;
    bool compiled_degraded = false;
};

/// Gate 1: tape vs walker vs compiled, bitwise, on the initial spec and
/// on the spec WLO-SLP converged to.
KernelGates check_evaluators(const std::string& name) {
    KernelGates gates;
    gates.name = name;
    const kernels::BenchmarkKernel bench =
        kernels::KernelRegistry::instance().get(name);
    const KernelContext context(bench.kernel, bench.range_options);

    FlowOptions options;
    options.accuracy_db = kConstraintDb;
    const TargetModel target = targets::by_name("XENTIUM");
    const FlowResult optimized =
        FlowRegistry::instance().flow("WLO-SLP").run(context, target, options);

    const auto tape = exec::make_noise_evaluator(context.kernel(),
                                                 SimBackend::Tape);
    const auto walker = exec::make_noise_evaluator(context.kernel(),
                                                   SimBackend::Walker);
    const auto compiled = exec::make_noise_evaluator(context.kernel(),
                                                     SimBackend::Compiled);
    for (const FixedPointSpec& spec :
         {context.initial_spec(), optimized.spec}) {
        const uint64_t reference = bits_of(tape->noise_power(spec));
        if (bits_of(walker->noise_power(spec)) != reference ||
            bits_of(compiled->noise_power(spec)) != reference) {
            gates.evaluators_agree = false;
        }
    }
    if (const auto* c =
            dynamic_cast<const exec::CompiledEvaluator*>(compiled.get())) {
        gates.compiled_degraded = c->degraded();
    }
    return gates;
}

int run(int argc, char** argv) {
    print_header("Corpus differential — .slp corpus + generated kernels",
                 "kernels-as-data robustness harness (no paper figure)");

    int generated = 8;
    int hostile = 4;
    BenchArgSpec spec;
    spec.smoke = true;
    spec.kernel_files = true;
    spec.extra.push_back(
        {"--generated", true, "N  seeded random kernels (default 8)",
         [&](const std::string& v) { generated = std::atoi(v.c_str()); }});
    spec.extra.push_back(
        {"--hostile", true, "N  seeded SLP-hostile kernels (default 4)",
         [&](const std::string& v) { hostile = std::atoi(v.c_str()); }});
    const BenchOptions args = parse_bench_args(argc, argv, spec);

    // The kernel set: every corpus directory (default: the checked-in
    // kernels/), any --kernel-file extras, then the generated tail.
    std::vector<std::string> corpus_dirs = args.corpus_dirs;
    if (corpus_dirs.empty()) corpus_dirs.push_back(SLPWLO_KERNEL_CORPUS_DIR);
    std::vector<std::string> names;
    for (const std::string& dir : corpus_dirs) {
        for (std::string& name : frontend::load_kernel_corpus(dir)) {
            names.push_back(std::move(name));
        }
    }
    const size_t corpus_count = names.size();
    for (const std::string& path : args.kernel_files) {
        names.push_back(frontend::register_kernel_file(path));
    }
    for (int seed = 1; seed <= generated; ++seed) {
        const frontend::GeneratedKernel gen =
            frontend::generate_kernel_source(static_cast<uint64_t>(seed));
        names.push_back(frontend::register_kernel_source(
            gen.source, "<generated seed " + std::to_string(seed) + ">"));
    }
    frontend::GenOptions hostile_options;
    hostile_options.slp_hostile = true;
    for (int seed = 1; seed <= hostile; ++seed) {
        const frontend::GeneratedKernel gen = frontend::generate_kernel_source(
            static_cast<uint64_t>(seed), hostile_options);
        names.push_back(frontend::register_kernel_source(
            gen.source, "<hostile seed " + std::to_string(seed) + ">"));
    }
    std::printf("kernel set: %zu corpus + %zu file + %d generated + "
                "%d slp-hostile\n\n",
                corpus_count, args.kernel_files.size(), generated, hostile);

    // Gate 1: evaluator agreement, kernel by kernel.
    bool evaluators_agree = true;
    size_t degraded = 0;
    std::vector<KernelGates> rows;
    rows.reserve(names.size());
    for (const std::string& name : names) {
        rows.push_back(check_evaluators(name));
        const KernelGates& gates = rows.back();
        if (!gates.evaluators_agree) evaluators_agree = false;
        if (gates.compiled_degraded) degraded++;
        std::printf("  %-24s tape/walker/compiled %s%s\n", name.c_str(),
                    gates.evaluators_agree ? "agree" : "DISAGREE",
                    gates.compiled_degraded ? " (compiled degraded to tape)"
                                            : "");
    }
    if (degraded == names.size() && !names.empty()) {
        std::printf("\n(no host compiler: compiled backend degraded on every "
                    "kernel — agreement still checked via the tape path)\n");
    }

    // Gates 2+3: every registered flow over every kernel, twice.
    std::vector<std::string> flows;
    for (const std::string& flow : FlowRegistry::instance().names()) {
        if (args.smoke &&
            (flow == "WLO-Optimal" || flow == "SLP-Optimal")) {
            continue;
        }
        flows.push_back(flow);
    }
    SweepOptions serial_options;
    serial_options.threads = 1;
    // Exact flows must stay deterministic *and* bounded here: cap the
    // branch-and-bound by node count (never wall-clock, which would break
    // the byte-identity gate) well below the prove-everything default.
    serial_options.flow_options.solver.budget.max_nodes = 200000;
    SweepOptions parallel_options = serial_options;
    parallel_options.threads = args.threads;

    const std::vector<SweepPoint> grid =
        SweepDriver::grid(names, {"XENTIUM"}, flows, {kConstraintDb});
    std::printf("\nflow grid: %zu points (%zu kernels x %zu flows)\n",
                grid.size(), names.size(), flows.size());

    SweepDriver serial(serial_options);
    const std::vector<SweepResult> first = serial.run(grid);
    SweepDriver parallel(parallel_options);
    const std::vector<SweepResult> second = parallel.run(grid);

    const std::string first_json = sweep_to_json(first);
    const std::string second_json = sweep_to_json(second);
    const bool deterministic = first_json == second_json;

    bool cycles_positive = true;
    bool constraints_met = true;
    for (const SweepResult& r : first) {
        if (r.flow.simd_cycles <= 0 || r.flow.scalar_cycles <= 0) {
            cycles_positive = false;
            std::printf("  NON-POSITIVE CYCLES: %s / %s\n",
                        r.point.kernel.c_str(), r.point.flow.c_str());
        }
        // Float is the unconstrained reference; every other flow promises
        // the analytic noise stays within the budget it was given.
        if (r.point.flow != "Float" &&
            r.flow.analytic_noise_db > r.point.accuracy_db) {
            constraints_met = false;
            std::printf("  CONSTRAINT MISSED: %s / %s (%.2f dB > %.2f dB)\n",
                        r.point.kernel.c_str(), r.point.flow.c_str(),
                        r.flow.analytic_noise_db, r.point.accuracy_db);
        }
    }

    std::printf("\nevaluator agreement: %s (%zu/%zu compiled degraded)\n",
                evaluators_agree ? "yes" : "NO", degraded, names.size());
    std::printf("reports byte-identical (1 vs %d threads): %s\n",
                args.threads, deterministic ? "yes" : "NO");
    std::printf("cycles positive everywhere: %s\n",
                cycles_positive ? "yes" : "NO");
    std::printf("constraints met everywhere: %s\n",
                constraints_met ? "yes" : "NO");

    const bool ok =
        evaluators_agree && deterministic && cycles_positive && constraints_met;
    if (args.json_path.has_value()) {
        std::ostringstream os;
        os << "{\"kernels\":[";
        for (size_t i = 0; i < rows.size(); ++i) {
            if (i != 0) os << ",";
            os << "{\"name\":\"" << rows[i].name << "\",\"evaluators_agree\":"
               << (rows[i].evaluators_agree ? "true" : "false")
               << ",\"compiled_degraded\":"
               << (rows[i].compiled_degraded ? "true" : "false") << "}";
        }
        os << "],\"corpus_kernels\":" << corpus_count
           << ",\"generated_kernels\":" << generated
           << ",\"hostile_kernels\":" << hostile
           << ",\"flows\":" << flows.size()
           << ",\"gates\":{\"evaluator_agreement\":"
           << (evaluators_agree ? "true" : "false")
           << ",\"determinism\":" << (deterministic ? "true" : "false")
           << ",\"cycles_positive\":" << (cycles_positive ? "true" : "false")
           << ",\"constraints_met\":" << (constraints_met ? "true" : "false")
           << "},\"ok\":" << (ok ? "true" : "false") << "}\n";
        emit_json_to(*args.json_path, os.str(), rows.size());
    }
    std::printf("\ncorpus differential: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    // A kernel file that does not parse, or a corpus path that is not a
    // directory, is a usage error: report it instead of aborting.
    try {
        return run(argc, argv);
    } catch (const Error& e) {
        std::fprintf(stderr, "corpus_differential: %s\n", e.what());
        return 2;
    }
}
