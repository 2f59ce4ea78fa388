// Differential tests for the compile-and-execute backend (src/exec).
//
// The compiled artifact must be a bit-exact stand-in for the interpreted
// simulators: raw fixed-point outputs and overflow counts identical to
// SimTape::run_fixed (and the tree walker), the double reference emitter's
// traces identical to run_double, and CompiledEvaluator's noise power
// identical to SimulationEvaluator's — across the registry kernels,
// word-length presets and quantization modes. Concurrent JitCache builds
// compile each object once and overlap distinct ones. Tests that need the host toolchain skip when no
// compiler is usable (matching tests/test_codegen.cpp).
#include <dlfcn.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>

#include "accuracy/sim_backend.hpp"
#include "accuracy/sim_evaluator.hpp"
#include "codegen/fixed_c.hpp"
#include "codegen/ref_c.hpp"
#include "codegen/simd_c.hpp"
#include "exec/compiled_evaluator.hpp"
#include "exec/compiled_kernel.hpp"
#include "exec/jit_cache.hpp"
#include "exec/measured_cost.hpp"
#include "exec/toolchain.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "ir/printer.hpp"
#include "kernels/kernels.hpp"
#include "sim/fixed_sim.hpp"
#include "sim/sim_tape.hpp"
#include "support/rng.hpp"
#include "target/target_model.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

namespace fs = std::filesystem;

uint64_t bits_of(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/// Scoped jit-cache directory so cache-counter tests are deterministic and
/// the suite never litters the shared default directory.
class TempJitDir {
public:
    TempJitDir() {
        path_ = (fs::temp_directory_path() /
                 ("slpwlo-jit-test-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter_++)))
                    .string();
        exec::set_jit_cache_directory(path_);
    }
    ~TempJitDir() {
        exec::set_jit_cache_directory("");
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    static inline int counter_ = 0;
    std::string path_;
};

bool toolchain_usable() { return exec::host_toolchain().usable; }

/// The WL preset of tests/test_sim.cpp's differential matrix: non-uniform
/// WLs and a deliberately tight IWL so saturation paths are exercised.
FixedPointSpec preset_spec(const Kernel& kernel, int base_wl,
                           QuantMode mode) {
    FixedPointSpec spec(kernel);
    spec.set_quant_mode(mode);
    size_t i = 0;
    for (const NodeRef node : spec.nodes()) {
        const int wl = base_wl + static_cast<int>(i++ % 3);
        spec.set_format(node, FixedFormat(4, wl - 4));
    }
    return spec;
}

/// Raw-integer view of a value-domain output trace (exact: every simulator
/// output is an integer multiple of its store's step).
long long raw_of(double value, double step) {
    return std::llround(value / step);
}

TEST(CompiledExec, FixedMatchesTapeAndWalkerBitwiseAcrossRegistry) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimTape tape(bk.kernel);
        const Stimulus stimulus = make_stimulus(bk.kernel, 29);

        for (const int base_wl : {8, 12, 16}) {
            for (const QuantMode mode :
                 {QuantMode::Truncate, QuantMode::Round}) {
                const FixedPointSpec spec =
                    preset_spec(bk.kernel, base_wl, mode);
                const std::string what = name + " wl" +
                                         std::to_string(base_wl) + " " +
                                         to_string(mode);

                std::string error;
                const auto ck =
                    exec::CompiledKernel::create(bk.kernel, spec, &error);
                ASSERT_NE(ck, nullptr) << what << ": " << error;

                std::vector<int64_t> in(ck->input_elems());
                std::vector<int64_t> out(ck->output_count());
                long long ovf = ck->param_overflow_count() +
                                ck->pack_stimulus(stimulus, in.data());
                ck->run_fixed_batch(in.data(), out.data(), &ovf, 1);

                const FixedSimResult sim = run_fixed(tape, spec, stimulus);
                ASSERT_EQ(sim.outputs.size(), out.size()) << what;
                for (size_t i = 0; i < out.size(); ++i) {
                    ASSERT_EQ(out[i],
                              raw_of(sim.outputs[i], ck->output_step(i)))
                        << what << " output " << i;
                }
                EXPECT_EQ(ovf, sim.overflow_count) << what;

                if (base_wl == 12) {
                    // Close the three-way loop through the tree walker.
                    const FixedSimResult walker =
                        run_fixed_walker(bk.kernel, spec, stimulus);
                    ASSERT_EQ(walker.outputs.size(), out.size()) << what;
                    for (size_t i = 0; i < out.size(); ++i) {
                        ASSERT_EQ(out[i], raw_of(walker.outputs[i],
                                                 ck->output_step(i)))
                            << what << " output " << i;
                    }
                    EXPECT_EQ(ovf, walker.overflow_count) << what;
                }
            }
        }
    }
}

/// emit_ref_c's body plus a batch loop over n stimuli of double inputs
/// (input arrays concatenated in declaration order), exported as
/// `slpwlo_test_ref_batch`. Returns the C source; `input_elems` receives
/// the doubles per stimulus.
std::string ref_batch_source(const Kernel& kernel, size_t output_count,
                             size_t* input_elems) {
    const RefCResult ref = emit_ref_c(kernel);
    std::string locals;
    std::string args;
    size_t offset = 0;
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        if (decl.storage == StorageClass::Input) {
            args += "src + " + std::to_string(offset) + ", ";
            offset += static_cast<size_t>(decl.size);
        } else if (decl.storage == StorageClass::Output) {
            const std::string local = "o" + std::to_string(a);
            locals += "    double " + local + "[" +
                      std::to_string(decl.size) + "] = {0};\n";
            args += local + ", ";
        }
    }
    *input_elems = offset;
    return ref.code + "\nvoid slpwlo_test_ref_batch(const double* in, " +
           "double* out, int n) {\n  for (int s = 0; s < n; ++s) {\n" +
           "    const double* src = in + (long)s * " +
           std::to_string(offset) + ";\n" + locals + "    " +
           ref.function_name + "(" + args + "out + (long)s * " +
           std::to_string(output_count) + ");\n  }\n}\n";
}

TEST(CompiledExec, RefBatchMatchesRunDoubleBitwiseAcrossRegistry) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimTape tape(bk.kernel);
        const size_t oc = tape.output_count();
        size_t elems = 0;
        const std::string source = ref_batch_source(bk.kernel, oc, &elems);

        // The reference object gets its own key: no format set.
        exec::JitKey key;
        key.kernel_fp = hash_name(print_kernel(bk.kernel));
        key.format_fp = 0;
        key.compiler_id = exec::host_toolchain().id;
        std::string error;
        const std::string so_path = exec::jit_obtain(key, source, &error);
        ASSERT_FALSE(so_path.empty()) << name << ": " << error;
        void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
        ASSERT_NE(handle, nullptr) << name << ": " << dlerror();
        using RefBatch = void (*)(const double*, double*, int);
        const auto ref_batch = reinterpret_cast<RefBatch>(
            dlsym(handle, "slpwlo_test_ref_batch"));
        ASSERT_NE(ref_batch, nullptr) << name;

        // Two stimuli through one batched call.
        const Stimulus s0 = make_stimulus(bk.kernel, 0x5E1F);
        const Stimulus s1 = make_stimulus(bk.kernel, 0x5E1F + 1);
        std::vector<double> in;
        for (const Stimulus* stimulus : {&s0, &s1}) {
            for (size_t a = 0; a < bk.kernel.arrays().size(); ++a) {
                if (bk.kernel.arrays()[a].storage != StorageClass::Input) {
                    continue;
                }
                const std::vector<double>& values = (*stimulus)[a];
                in.insert(in.end(), values.begin(), values.end());
            }
        }
        ASSERT_EQ(in.size(), 2 * elems) << name;
        std::vector<double> out(2 * oc);
        ref_batch(in.data(), out.data(), 2);
        dlclose(handle);

        const std::vector<double> ref0 = run_double(tape, s0).outputs;
        const std::vector<double> ref1 = run_double(tape, s1).outputs;
        ASSERT_EQ(ref0.size(), oc) << name;
        for (size_t i = 0; i < oc; ++i) {
            ASSERT_EQ(bits_of(out[i]), bits_of(ref0[i]))
                << name << " ref output " << i;
            ASSERT_EQ(bits_of(out[oc + i]), bits_of(ref1[i]))
                << name << " ref output " << i << " (second stimulus)";
        }
    }
}

TEST(CompiledExec, EvaluatorNoisePowerBitIdenticalToSimulation) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimulationEvaluator sim_eval(bk.kernel);
        const WalkerEvaluator walker_eval(bk.kernel);
        const exec::CompiledEvaluator compiled_eval(bk.kernel);
        for (const int base_wl : {10, 14}) {
            const FixedPointSpec spec =
                preset_spec(bk.kernel, base_wl, QuantMode::Truncate);
            const double sim_power = sim_eval.noise_power(spec);
            EXPECT_EQ(bits_of(compiled_eval.noise_power(spec)),
                      bits_of(sim_power))
                << name << " wl" << base_wl;
            EXPECT_EQ(bits_of(walker_eval.noise_power(spec)),
                      bits_of(sim_power))
                << name << " wl" << base_wl;
        }
        EXPECT_FALSE(compiled_eval.degraded()) << name;
    }
}

TEST(CompiledExec, JitCacheHitsAndRebuildsOnFingerprintChange) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);

    exec::reset_jit_cache_stats();
    std::string error;
    ASSERT_NE(exec::CompiledKernel::create(kernel, spec, &error), nullptr)
        << error;
    exec::JitCacheStats stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 1);
    EXPECT_EQ(stats.hits, 0);

    // Same formats again: the object is served from disk.
    ASSERT_NE(exec::CompiledKernel::create(kernel, spec, &error), nullptr);
    stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 1);
    EXPECT_EQ(stats.hits, 1);

    // Any format change changes the fingerprint and forces a rebuild.
    FixedPointSpec changed = spec;
    changed.set_wl(changed.nodes().front(), 20);
    EXPECT_NE(exec::spec_format_fingerprint(changed),
              exec::spec_format_fingerprint(spec));
    ASSERT_NE(exec::CompiledKernel::create(kernel, changed, &error), nullptr);
    stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 2);
    EXPECT_EQ(stats.hits, 1);

    // Quantization mode is part of the key too.
    FixedPointSpec rounded = spec;
    rounded.set_quant_mode(QuantMode::Round);
    ASSERT_NE(exec::CompiledKernel::create(kernel, rounded, &error), nullptr);
    stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 3);
}

/// Runs body(t) for t in [0, threads) on threads released together.
template <class Body>
void run_together(int threads, Body body) {
    std::latch start(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            start.arrive_and_wait();
            body(static_cast<size_t>(t));
        });
    }
    for (std::thread& thread : pool) thread.join();
}

// Threads that need the same object wait for its one build and take the
// hit; every thread gets the same, loadable object.
TEST(CompiledExec, ConcurrentSameKeyBuildsOnce) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    constexpr int kThreads = 6;

    exec::reset_jit_cache_stats();
    std::vector<std::unique_ptr<exec::CompiledKernel>> objects(kThreads);
    std::vector<std::string> errors(kThreads);
    run_together(kThreads, [&](size_t i) {
        objects[i] = exec::CompiledKernel::create(kernel, spec, &errors[i]);
    });

    const exec::JitCacheStats stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 1);
    EXPECT_EQ(stats.hits, kThreads - 1);
    for (int t = 0; t < kThreads; ++t) {
        const size_t i = static_cast<size_t>(t);
        ASSERT_NE(objects[i], nullptr) << "thread " << t << ": " << errors[i];
        EXPECT_EQ(objects[i]->so_path(), objects[0]->so_path());
    }
}

// Threads that need different objects each build their own, and every
// object runs bit-identically to the tape.
TEST(CompiledExec, ConcurrentDistinctSpecsBuildEachAndMatchTape) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const SimTape tape(kernel);
    const Stimulus stimulus = make_stimulus(kernel, 31);
    constexpr int kThreads = 4;
    std::vector<FixedPointSpec> specs;
    for (int t = 0; t < kThreads; ++t) {
        specs.push_back(preset_spec(kernel, 9 + 2 * t,
                                    t % 2 == 0 ? QuantMode::Truncate
                                               : QuantMode::Round));
    }

    exec::reset_jit_cache_stats();
    std::vector<std::unique_ptr<exec::CompiledKernel>> objects(kThreads);
    std::vector<std::string> errors(kThreads);
    run_together(kThreads, [&](size_t i) {
        objects[i] =
            exec::CompiledKernel::create(kernel, specs[i], &errors[i]);
    });

    const exec::JitCacheStats stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, kThreads);
    EXPECT_EQ(stats.hits, 0);
    for (int t = 0; t < kThreads; ++t) {
        const size_t i = static_cast<size_t>(t);
        ASSERT_NE(objects[i], nullptr) << "thread " << t << ": " << errors[i];
        const exec::CompiledKernel& ck = *objects[i];
        std::vector<int64_t> in(ck.input_elems());
        std::vector<int64_t> out(ck.output_count());
        long long ovf =
            ck.param_overflow_count() + ck.pack_stimulus(stimulus, in.data());
        ck.run_fixed_batch(in.data(), out.data(), &ovf, 1);
        const FixedSimResult sim = run_fixed(tape, specs[i], stimulus);
        ASSERT_EQ(sim.outputs.size(), out.size()) << "thread " << t;
        for (size_t o = 0; o < out.size(); ++o) {
            ASSERT_EQ(out[o], raw_of(sim.outputs[o], ck.output_step(o)))
                << "thread " << t << " output " << o;
        }
        EXPECT_EQ(ovf, sim.overflow_count) << "thread " << t;
    }
}

// Different objects really compile side by side: each build is its own
// compiler process, so this holds on one core too.
TEST(CompiledExec, ConcurrentDistinctBuildsOverlap) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    constexpr int kThreads = 4;

    std::vector<exec::JitKey> keys(kThreads);
    std::vector<std::string> sources(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        const size_t i = static_cast<size_t>(t);
        keys[i].kernel_fp = hash_name("overlap-" + std::to_string(t));
        keys[i].compiler_id = exec::host_toolchain().id;
        sources[i] = "int slpwlo_test_value(void) { return " +
                     std::to_string(t) + "; }\n";
    }

    exec::reset_jit_cache_stats();
    std::vector<std::string> paths(kThreads);
    std::vector<std::string> errors(kThreads);
    run_together(kThreads, [&](size_t i) {
        paths[i] = exec::jit_obtain(keys[i], sources[i], &errors[i]);
    });

    const exec::JitCacheStats stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, kThreads);
    EXPECT_GE(stats.peak_builds_in_flight, 2);
    EXPECT_LE(stats.peak_builds_in_flight, kThreads);
    for (int t = 0; t < kThreads; ++t) {
        const size_t i = static_cast<size_t>(t);
        ASSERT_FALSE(paths[i].empty()) << "thread " << t << ": " << errors[i];
        void* handle = dlopen(paths[i].c_str(), RTLD_NOW | RTLD_LOCAL);
        ASSERT_NE(handle, nullptr) << "thread " << t << ": " << dlerror();
        using ValueFn = int (*)();
        const auto value = reinterpret_cast<ValueFn>(
            dlsym(handle, "slpwlo_test_value"));
        ASSERT_NE(value, nullptr) << "thread " << t;
        EXPECT_EQ(value(), t);
        dlclose(handle);
    }
}

TEST(CompiledExec, StaleTempFilesAreSweptByAgeOnly) {
    TempJitDir jit_dir;
    fs::create_directories(jit_dir.path());
    const fs::path stale = fs::path(jit_dir.path()) / "dead.so.tmp.999.0";
    const fs::path fresh = fs::path(jit_dir.path()) / "live.so.tmp.1000.0";
    const fs::path object = fs::path(jit_dir.path()) / "0123456789abcdef.so";
    for (const fs::path& p : {stale, fresh, object}) {
        std::ofstream(p) << "x";
    }
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));

    EXPECT_EQ(exec::jit_cleanup_stale(jit_dir.path(), 60000), 1);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));   // young temp: a build may be running
    EXPECT_TRUE(fs::exists(object));  // published objects are never swept
    EXPECT_EQ(exec::jit_cleanup_stale("/nonexistent-dir", 1), 0);
}

TEST(CompiledExec, JitTagPinsTheEmittedSource) {
    // jit_key_hash keys objects by kernel, formats, mode and compiler —
    // not by the C source — so the `slpwlo-jit-vN` tag in jit_cache.cpp is
    // the only thing that retires objects built by an older emitter. The
    // pins cover the whole translation unit CompiledKernel::create
    // compiles: the emitted body and its batch wrapper.
    // Bump `slpwlo-jit-vN` when this moves, then re-pin these hashes:
    // otherwise a shared $SLPWLO_JIT_DIR keeps serving stale objects.
    struct Pin {
        const char* kernel;
        QuantMode mode;
        uint64_t source_hash;
    };
    const Pin pins[] = {
        {"FIR", QuantMode::Truncate, 0x59b289885a0c0c9fULL},
        {"FIR", QuantMode::Round, 0xed79f369cb138cbaULL},
        {"IIR", QuantMode::Truncate, 0xe8dd8538d6e84b3eULL},
        {"IIR", QuantMode::Round, 0xeb32827cb3ce6d73ULL},
        {"CONV", QuantMode::Truncate, 0x24b890d5f64d493bULL},
        {"CONV", QuantMode::Round, 0x792f286cfc17c2daULL},
        {"DOT", QuantMode::Truncate, 0xb0494cafe953df7fULL},
        {"DOT", QuantMode::Round, 0x2ab4ed605d09e8e2ULL},
    };
    for (const Pin& pin : pins) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(pin.kernel);
        const FixedPointSpec spec = preset_spec(bk.kernel, 12, pin.mode);
        const std::string code =
            exec::jit_translation_unit(bk.kernel, spec).code;
        EXPECT_EQ(hash_name(code), pin.source_hash)
            << pin.kernel << " " << to_string(pin.mode) << ": 0x" << std::hex
            << hash_name(code);
    }
}

TEST(CompiledExec, EvaluatorDegradesToTapeWhenBuildFails) {
    // An unusable cache directory makes every build fail, which must leave
    // the evaluator bit-identical to the tape backend instead of throwing.
    exec::set_jit_cache_directory("/dev/null/unwritable");
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const exec::CompiledEvaluator compiled_eval(kernel);
    const SimulationEvaluator sim_eval(kernel);
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    EXPECT_EQ(bits_of(compiled_eval.noise_power(spec)),
              bits_of(sim_eval.noise_power(spec)));
    EXPECT_TRUE(compiled_eval.degraded());
    exec::set_jit_cache_directory("");
}

TEST(CompiledExec, DegenerateFormatsDegradeToTapeBitIdentically) {
    // A spec straight out of range analysis can carry wl <= 0 formats
    // (fwl stays 0 until WLO runs); those cannot be represented in the
    // generated C's raw integer domain. The evaluator must refuse to
    // compile — before invoking any toolchain — and replay the tape,
    // staying bit-identical to the simulation backend instead of
    // executing undefined-behavior shifts (caught by the corpus
    // differential harness on kernels with sub-unit value ranges).
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    spec.set_wl(spec.nodes().front(), 0);
    ASSERT_FALSE(spec_fits_c_domain(spec));
    std::string why;
    EXPECT_EQ(exec::CompiledKernel::create(kernel, spec, &why), nullptr);
    EXPECT_NE(why.find("raw integer domain"), std::string::npos) << why;
    EXPECT_THROW(emit_fixed_c(kernel, spec), Error);
    EXPECT_THROW(emit_simd_c(kernel, spec, {}), Error);

    const exec::CompiledEvaluator compiled_eval(kernel);
    const SimulationEvaluator sim_eval(kernel);
    EXPECT_EQ(bits_of(compiled_eval.noise_power(spec)),
              bits_of(sim_eval.noise_power(spec)));
    EXPECT_TRUE(compiled_eval.degraded());

    // A well-formed spec on the same evaluator still compiles.
    const FixedPointSpec good = preset_spec(kernel, 12, QuantMode::Truncate);
    EXPECT_EQ(bits_of(compiled_eval.noise_power(good)),
              bits_of(sim_eval.noise_power(good)));
}

TEST(CompiledExec, MeasuredCostReportsPlausibleTiming) {
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    exec::MeasureOptions options;
    options.reps = 3;
    options.batch = 8;
    options.calibrate_ns = 200000;
    const long long ns = exec::measure_kernel_ns(kernel, spec, options);
    if (!toolchain_usable()) {
        EXPECT_EQ(ns, 0);
    } else {
        EXPECT_GT(ns, 0);
        EXPECT_LT(ns, 1000000000LL);  // a 16-tap FIR is not a second
    }
}

// The `--evaluator` axis must actually execute during a measured flow:
// the post-flow hook verifies the final spec on the configured backend
// (FlowResult::sim_noise_db) while the identity JSON stays byte-identical
// across backends — including the degraded compiled-without-a-compiler
// case, which falls back to the tape.
TEST(CompiledExec, FlowMeasureRunsConfiguredEvaluator) {
    TempJitDir jit_dir;
    const KernelContext context(::slpwlo::testing::small_fir());
    FlowOptions tape;
    tape.accuracy_db = -25.0;
    tape.measure = true;
    tape.evaluator = SimBackend::Tape;
    FlowOptions compiled = tape;
    compiled.evaluator = SimBackend::Compiled;

    const FlowResult a = run_wlo_slp_flow(context, targets::xentium(), tape);
    const FlowResult b =
        run_wlo_slp_flow(context, targets::xentium(), compiled);

    EXPECT_NE(a.sim_noise_db, 0.0);
    EXPECT_EQ(bits_of(a.sim_noise_db), bits_of(b.sim_noise_db));
    EXPECT_EQ(to_json(a), to_json(b));

    const std::string measured = to_json(a, /*include_measured=*/true);
    EXPECT_NE(measured.find("\"sim_noise_db\":"), std::string::npos);
    EXPECT_NE(measured.find("\"measured_ns\":"), std::string::npos);
    if (toolchain_usable()) {
        EXPECT_GT(b.measured_ns, 0);
    }

    FlowOptions unmeasured = tape;
    unmeasured.measure = false;
    const FlowResult c =
        run_wlo_slp_flow(context, targets::xentium(), unmeasured);
    EXPECT_EQ(c.sim_noise_db, 0.0);
    EXPECT_EQ(c.measured_ns, 0);
    EXPECT_EQ(to_json(c), to_json(a));
}

TEST(CompiledExec, FactoryCoversAllBackends) {
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    EXPECT_NE(exec::make_noise_evaluator(kernel, SimBackend::Tape), nullptr);
    EXPECT_NE(exec::make_noise_evaluator(kernel, SimBackend::Walker),
              nullptr);
    EXPECT_NE(exec::make_noise_evaluator(kernel, SimBackend::Compiled),
              nullptr);
    EXPECT_EQ(parse_sim_backend("tape"), SimBackend::Tape);
    EXPECT_EQ(parse_sim_backend("walker"), SimBackend::Walker);
    EXPECT_EQ(parse_sim_backend("compiled"), SimBackend::Compiled);
    EXPECT_EQ(to_string(SimBackend::Compiled), "compiled");
    EXPECT_THROW(parse_sim_backend("native"), Error);
}

}  // namespace
}  // namespace slpwlo
