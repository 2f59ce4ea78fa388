// Tests for the accuracy model: noise-source enumeration, gain calibration,
// and agreement between the analytical evaluator and bit-accurate simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "accuracy/analytic_evaluator.hpp"
#include "accuracy/sim_evaluator.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "gain_reference.hpp"
#include "sim/fixed_sim.hpp"
#include "support/dbmath.hpp"
#include "support/diagnostics.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::cached_evaluator;
using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::make_two_tap;
using ::slpwlo::testing::set_uniform_wl;
using ::slpwlo::testing::small_conv;
using ::slpwlo::testing::small_fir;
using ::slpwlo::testing::small_iir;

// --- noise-source enumeration ---------------------------------------------------

TEST(NoiseSources, WideSpecHasOnlyContinuousSources) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    // Give everything the same generous fwl: no discrete narrowing remains
    // except input/coefficient quantization (and mul full-product drops).
    for (const NodeRef node : spec.nodes()) {
        spec.set_format(node, FixedFormat(spec.format(node).iwl, 20));
    }
    const auto def_nodes = compute_var_def_nodes(k);
    const auto sources = enumerate_noise_sources(k, spec, def_nodes);
    bool has_input = false, has_coeff = false, has_mul = false;
    for (const auto& s : sources) {
        if (std::string(s.why) == "input quantization") has_input = true;
        if (std::string(s.why) == "coefficient quantization") has_coeff = true;
        if (std::string(s.why) == "mul result") has_mul = true;
        EXPECT_NE(std::string(s.why), "align arg0");  // fwls are uniform
    }
    EXPECT_TRUE(has_input);
    EXPECT_TRUE(has_coeff);
    EXPECT_TRUE(has_mul);  // products drop from fwl 40 to 20
}

TEST(NoiseSources, AlignmentAppearsWhenFwlsDiffer) {
    const Kernel k = make_two_tap();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    // Make one product wider than the sum -> alignment shift at the add.
    const auto def_nodes = compute_var_def_nodes(k);
    // Find the add op and give its first operand's node a bigger fwl.
    for (const auto& op : k.ops()) {
        if (op.kind == OpKind::Add) {
            const NodeRef src = def_nodes[op.args[0].index()];
            spec.set_format(src, FixedFormat(spec.format(src).iwl, 24));
        }
    }
    const auto sources = enumerate_noise_sources(k, spec, def_nodes);
    bool found_align = false;
    for (const auto& s : sources) {
        if (std::string(s.why) == "align arg0") found_align = true;
    }
    EXPECT_TRUE(found_align);
}

TEST(NoiseSources, ConstErrorIsExactAndDeterministic) {
    KernelBuilder b("const_noise");
    const ArrayId y = b.output("y", 4);
    const LoopId n = b.begin_loop("n", 0, 4);
    const VarId c = b.set_const(b.user_var("c"), 0.3);  // not a dyadic value
    b.store(y, Affine::var(n), c);
    b.end_loop();
    const Kernel k = b.take();

    FixedPointSpec spec(k);
    spec.set_format(NodeRef::of_var(c), FixedFormat(1, 4));
    spec.set_format(NodeRef::of_array(y), FixedFormat(1, 4));
    const auto sources =
        enumerate_noise_sources(k, spec, compute_var_def_nodes(k));
    ASSERT_EQ(sources.size(), 1u);
    EXPECT_EQ(std::string(sources[0].why), "const literal");
    EXPECT_NEAR(sources[0].stats.mean,
                quantize_value(0.3, 4, QuantMode::Truncate) - 0.3, 1e-12);
    EXPECT_EQ(sources[0].stats.variance, 0.0);
}

TEST(NoiseSources, ZeroConstIsNoiseless) {
    const Kernel& k = small_fir();  // accumulators initialized to 0.0
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 8);
    const auto sources =
        enumerate_noise_sources(k, spec, compute_var_def_nodes(k));
    for (const auto& s : sources) {
        EXPECT_NE(std::string(s.why), "const literal");
    }
}

// --- gain calibration ------------------------------------------------------------

TEST(Gains, TwoTapHandComputed) {
    const Kernel k = make_two_tap(0.5, 0.25);
    const KernelGains gains = analyze_gains(k);

    // Store op: unit gain, one instance per sample.
    // Muls: unit gain into the output through the add.
    for (size_t i = 0; i < k.ops().size(); ++i) {
        const Op& op = k.ops()[i];
        if (op.kind == OpKind::Store || op.kind == OpKind::Mul ||
            op.kind == OpKind::Add) {
            EXPECT_NEAR(gains.op_gains[i].a, 1.0, 1e-6) << to_string(op.kind);
            EXPECT_NEAR(gains.op_gains[i].b, 1.0, 1e-6);
        }
    }
    // Input array: A = c0^2 + c1^2, B = c0 + c1.
    EXPECT_NEAR(gains.array_gains[0].a, 0.25 + 0.0625, 1e-6);
    EXPECT_NEAR(gains.array_gains[0].b, 0.75, 1e-6);
}

TEST(Gains, FirInputGainMatchesCoefficientEnergy) {
    const Kernel& k = small_fir();
    const KernelGains& gains = cached_evaluator(k).gains();
    const auto& c = k.array(ArrayId(1)).values;
    double energy = 0.0, dc = 0.0;
    for (const double v : c) {
        energy += v * v;
        dc += v;
    }
    EXPECT_NEAR(gains.array_gains[0].a, energy, energy * 0.02);
    EXPECT_NEAR(gains.array_gains[0].b, dc, 0.02);
}

TEST(Gains, FirMulGainCountsInstances) {
    // Each static mul op runs taps/lanes times per sample, each instance
    // reaching the output with unit gain: A = taps/lanes.
    const Kernel& k = small_fir();
    const KernelGains& gains = cached_evaluator(k).gains();
    const int expected = 16 / 4;
    for (size_t i = 0; i < k.ops().size(); ++i) {
        if (k.ops()[i].kind == OpKind::Mul) {
            EXPECT_NEAR(gains.op_gains[i].a, expected, expected * 0.01);
            EXPECT_NEAR(gains.op_gains[i].b, expected, expected * 0.01);
        }
    }
}

TEST(Gains, IirFeedbackAmplifiesStoreGain) {
    // In an IIR, noise injected at the output store recirculates: its L2
    // gain must exceed the feed-forward-only value of 1.
    const Kernel& k = small_iir();
    const KernelGains& gains = cached_evaluator(k).gains();
    for (size_t i = 0; i < k.ops().size(); ++i) {
        if (k.ops()[i].kind == OpKind::Store) {
            EXPECT_GT(gains.op_gains[i].a, 1.2);
        }
    }
}

TEST(Gains, ConvGainsAreLocal) {
    // No feedback: the store gain is exactly 1.
    const Kernel& k = small_conv();
    const KernelGains& gains = cached_evaluator(k).gains();
    for (size_t i = 0; i < k.ops().size(); ++i) {
        if (k.ops()[i].kind == OpKind::Store) {
            EXPECT_NEAR(gains.op_gains[i].a, 1.0, 0.01);
        }
    }
}

// --- sparse calibration vs the dense reference ------------------------------------

/// analyze_gains must equal the dense one-replay-per-injection calibration
/// bit for bit (tests/gain_reference.hpp).
void expect_matches_dense(const Kernel& kernel) {
    const KernelGains sparse = analyze_gains(kernel);
    const KernelGains dense = reference::dense_analyze_gains(kernel);
    EXPECT_TRUE(reference::gains_bit_identical(sparse, dense))
        << "kernel " << kernel.name();
}

TEST(GainOracle, BuiltinKernels) {
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        expect_matches_dense(kernels::make_benchmark_kernel(name).kernel);
    }
    expect_matches_dense(small_fir());
    expect_matches_dense(small_iir());  // feedback: replays to the tape end
    expect_matches_dense(small_conv());
}

TEST(GainOracle, KernelCorpus) {
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(SLPWLO_KERNEL_CORPUS_DIR)) {
        if (entry.path().extension() == ".slp") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_GE(paths.size(), 7u);
    for (const std::string& path : paths) {
        expect_matches_dense(frontend::load_kernel_file(path).kernel);
    }
}

TEST(GainOracle, GeneratedKernels) {
    frontend::GenOptions hostile;
    hostile.slp_hostile = true;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        expect_matches_dense(frontend::generate_kernel(seed).kernel);
    }
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        expect_matches_dense(frontend::generate_kernel(seed, hostile).kernel);
    }
}

TEST(GainOracle, SquareReadsOneVarTwice) {
    KernelBuilder b("square");
    const ArrayId x = b.input("x", 32, Interval(-1.0, 1.0));
    const ArrayId y = b.output("y", 32);
    const LoopId n = b.begin_loop("n", 0, 32);
    const VarId v = b.load(x, Affine::var(n));
    b.store(y, Affine::var(n), b.mul(v, v));
    b.end_loop();
    expect_matches_dense(b.take());
}

TEST(GainOracle, NegativeZeroOutputs) {
    // y[n] = -(x[n] * 0): the base outputs are signed zeros, and inputs
    // this small change sign under the perturbation, so some perturbed
    // values differ from the base only in the sign of a zero.
    KernelBuilder b("neg_zero");
    const ArrayId x = b.input("x", 32, Interval(-1.0 / 4096, 1.0 / 4096));
    const ArrayId zero = b.param("zero", {0.0});
    const ArrayId y = b.output("y", 32);
    const LoopId n = b.begin_loop("n", 0, 32);
    const VarId p = b.mul(b.load(x, Affine::var(n)), b.load(zero, Affine(0)));
    b.store(y, Affine::var(n), b.neg(p));
    b.end_loop();
    const Kernel k = b.take();
    expect_matches_dense(k);
    const Stimulus stimulus = make_stimulus(k, GainOptions{}.seed);
    bool has_negative_zero = false;
    for (const double v : run_double(k, stimulus).outputs) {
        if (v == 0.0 && std::signbit(v)) has_negative_zero = true;
    }
    EXPECT_TRUE(has_negative_zero);
}

TEST(GainOracle, DivisionByPerturbedOperands) {
    KernelBuilder b("divide");
    const ArrayId x = b.input("x", 33, Interval(-1.0, 1.0));
    const ArrayId y = b.output("y", 32);
    const LoopId n = b.begin_loop("n", 0, 32);
    const VarId den =
        b.add(b.load(x, Affine::var(n) + 1), b.constant(4.0));
    b.store(y, Affine::var(n), b.div(b.load(x, Affine::var(n)), den));
    b.end_loop();
    expect_matches_dense(b.take());
}

TEST(GainOracle, BufferCellOverwrittenCleanBeforeNextRead) {
    // t[0] takes a perturbable product, is read once, then is overwritten
    // by a constant before its next read; d is a one-sample delay line
    // (a cell written in one sample and read in the next).
    KernelBuilder b("buffer_overwrite");
    const ArrayId x = b.input("x", 32, Interval(-1.0, 1.0));
    const ArrayId t = b.buffer("t", 1);
    const ArrayId d = b.buffer("d", 33);
    const ArrayId y = b.output("y", 32);
    const LoopId n = b.begin_loop("n", 0, 32);
    b.store(t, Affine(0), b.mul(b.load(x, Affine::var(n)), b.constant(0.5)));
    const VarId u = b.load(t, Affine(0));
    b.store(t, Affine(0), b.constant(0.25));
    const VarId w = b.load(t, Affine(0));
    b.store(d, Affine::var(n) + 1, u);
    const VarId prev = b.load(d, Affine::var(n));
    b.store(y, Affine::var(n), b.add(b.add(u, w), prev));
    b.end_loop();
    expect_matches_dense(b.take());
}

TEST(Gains, NonFiniteCalibrationOutputThrows) {
    KernelBuilder b("div_by_zero");
    const ArrayId x = b.input("x", 16, Interval(-1.0, 1.0));
    const ArrayId y = b.output("y", 16);
    const LoopId n = b.begin_loop("n", 0, 16);
    b.store(y, Affine::var(n),
            b.div(b.load(x, Affine::var(n)), b.constant(0.0)));
    b.end_loop();
    const Kernel k = b.take();
    try {
        analyze_gains(k);
        FAIL() << "expected an Error for non-finite calibration outputs";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("div_by_zero"),
                  std::string::npos)
            << e.what();
    }
}

// --- analytic vs simulated ------------------------------------------------------

struct AgreementCase {
    const char* name;
    const Kernel* kernel;
    int wl;
    double tolerance_db;
};

class AnalyticMatchesSimulation
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(AnalyticMatchesSimulation, WithinTolerance) {
    const auto [name, wl] = GetParam();
    const bool is_iir = std::string(name) == "iir";
    const Kernel& k = std::string(name) == "fir" ? small_fir()
                      : is_iir                   ? small_iir()
                                                 : small_conv();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, wl);

    const double analytic = cached_evaluator(k).noise_power_db(spec);
    const SimulationEvaluator sim(k, 2);
    const double simulated = sim.noise_power_db(spec);

    // The analytical model is a statistical approximation; 3 dB agreement is
    // the standard bar for this class of estimator. Exception: recursive
    // kernels under very coarse quantization (q comparable to the signal)
    // violate the white-noise assumption — truncation errors correlate with
    // the signal and recirculate coherently — so the linear model
    // underestimates there (a known limitation it shares with the paper's
    // analytical evaluator [11]). We then only require the analytic value to
    // be a sane, non-overestimating bound.
    if (is_iir && wl < 14) {
        EXPECT_LT(analytic, simulated + 3.0);
        EXPECT_NEAR(analytic, simulated, 12.0)
            << name << " wl=" << wl;
    } else {
        EXPECT_NEAR(analytic, simulated, 3.0)
            << name << " wl=" << wl << " analytic=" << analytic
            << " simulated=" << simulated;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, AnalyticMatchesSimulation,
    ::testing::Combine(::testing::Values("fir", "iir", "conv"),
                       ::testing::Values(8, 10, 12, 16, 20)));

TEST(Analytic, MixedSpecAgreesToo) {
    // Non-uniform word lengths (the WLO's actual working regime).
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    Rng rng(123, "mixed-spec");
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, rng.uniform_int(10, 20));
    }
    const double analytic = cached_evaluator(k).noise_power_db(spec);
    const SimulationEvaluator sim(k, 2);
    EXPECT_NEAR(analytic, sim.noise_power_db(spec), 3.5);
}

TEST(Analytic, MonotoneInWordLength) {
    // Property: growing any single node's WL does not materially increase
    // noise power. (Strict monotonicity can be broken by truncation-bias
    // cancellation between sources with opposite DC gains, so a small
    // relative slack is allowed.)
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 12);
    const AnalyticEvaluator& eval = cached_evaluator(k);
    const double base = eval.noise_power(spec);
    for (const NodeRef node : spec.nodes()) {
        const auto cp = spec.checkpoint();
        spec.set_wl(node, 16);
        EXPECT_LE(eval.noise_power(spec), base * 1.15);
        spec.revert(cp);
    }
}

TEST(Analytic, PerNodeWideningIsBoundedAbove) {
    // Per-node monotonicity is genuinely false in fixed-point systems:
    // widening one node makes every consumer re-truncate (new alignment
    // sources appear at its fan-out), which can raise total noise slightly.
    // The property that does hold: the increase is bounded — each consumer
    // adds at most one quantization step of noise at its own resolution, so
    // the node-local move can never blow the budget by a large factor.
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    spec.set_quant_mode(QuantMode::Round);
    set_uniform_wl(spec, 12);
    const AnalyticEvaluator& eval = cached_evaluator(k);
    const double base = eval.noise_power(spec);
    for (const NodeRef node : spec.nodes()) {
        const auto cp = spec.checkpoint();
        spec.set_wl(node, 16);
        EXPECT_LE(eval.noise_power(spec), base * 1.25);
        spec.revert(cp);
    }
}

TEST(Analytic, MonotoneWhenAllNodesWiden) {
    // Widening every node at once must strictly reduce noise power.
    const Kernel& k = small_fir();
    const AnalyticEvaluator& eval = cached_evaluator(k);
    double previous = std::numeric_limits<double>::infinity();
    for (const int wl : {8, 10, 12, 16, 20, 24}) {
        FixedPointSpec spec = initial_spec(k);
        set_uniform_wl(spec, wl);
        const double power = eval.noise_power(spec);
        EXPECT_LT(power, previous) << "wl=" << wl;
        previous = power;
    }
}

TEST(Analytic, EvaluatorIsFast) {
    // EVALACC must be usable inside O(n^2) conflict loops: demand at least
    // ~10k evaluations per second (typically far more).
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const AnalyticEvaluator& eval = cached_evaluator(k);
    const auto start = std::chrono::steady_clock::now();
    double acc = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) acc += eval.noise_power(spec);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GT(acc, 0.0);
    EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.5)
        << "2000 EVALACC calls took too long";
}

TEST(Analytic, ViolatesChecksDbThreshold) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 12);
    const AnalyticEvaluator& eval = cached_evaluator(k);
    const double level = eval.noise_power_db(spec);
    EXPECT_TRUE(eval.violates(spec, level - 5.0));
    EXPECT_FALSE(eval.violates(spec, level + 5.0));
}

TEST(Analytic, RoundModeBeatsTruncation) {
    const Kernel& k = small_fir();
    FixedPointSpec trunc = initial_spec(k);
    set_uniform_wl(trunc, 12);
    FixedPointSpec round = trunc;
    round.set_quant_mode(QuantMode::Round);
    const AnalyticEvaluator& eval = cached_evaluator(k);
    EXPECT_LT(eval.noise_power(round), eval.noise_power(trunc));
}

}  // namespace
}  // namespace slpwlo
