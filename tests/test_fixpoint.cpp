// Unit tests for the fixed-point substrate: formats, quantization, spec
// checkpoints, range analysis, IWL determination.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fixpoint/iwl.hpp"
#include "sim/fixed_sim.hpp"
#include "support/rng.hpp"
#include "fixpoint/quantize.hpp"
#include "fixpoint/range_analysis.hpp"
#include "fixpoint/spec.hpp"
#include "support/dbmath.hpp"
#include "support/diagnostics.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::small_fir;
using ::slpwlo::testing::small_iir;

// --- FixedFormat --------------------------------------------------------------

TEST(FixedFormat, Q1_15) {
    const FixedFormat q(1, 15);
    EXPECT_EQ(q.wl(), 16);
    EXPECT_DOUBLE_EQ(q.step(), pow2(-15));
    EXPECT_DOUBLE_EQ(q.min_value(), -1.0);
    EXPECT_DOUBLE_EQ(q.max_value(), 1.0 - pow2(-15));
}

TEST(FixedFormat, NegativeFwlIsCoarse) {
    const FixedFormat f(8, -2);  // resolution 4
    EXPECT_EQ(f.wl(), 6);
    EXPECT_DOUBLE_EQ(f.step(), 4.0);
    EXPECT_DOUBLE_EQ(f.max_value(), 128.0 - 4.0);
}

TEST(FixedFormat, FwlReductionKeepsWl) {
    const FixedFormat f(2, 14);
    const FixedFormat g = f.with_fwl_reduced_by(3);
    EXPECT_EQ(g.iwl, 5);
    EXPECT_EQ(g.fwl, 11);
    EXPECT_EQ(g.wl(), f.wl());
}

TEST(FixedFormat, WithWl) {
    const FixedFormat f(3, 0);
    EXPECT_EQ(f.with_wl(16).fwl, 13);
    EXPECT_EQ(f.with_wl(16).iwl, 3);
}

TEST(IwlForRange, TypicalCases) {
    EXPECT_EQ(iwl_for_range(Interval(-1.0, 1.0)), 1);   // Q1.f, saturating +1
    EXPECT_EQ(iwl_for_range(Interval(-0.5, 0.5)), 0);   // binary point shifts
    EXPECT_EQ(iwl_for_range(Interval(-1.0, 0.9)), 1);
    EXPECT_EQ(iwl_for_range(Interval(-2.0, 1.5)), 2);
    EXPECT_EQ(iwl_for_range(Interval(0.0, 3.0)), 3);
    EXPECT_EQ(iwl_for_range(Interval(-5.0, 5.0)), 4);
    EXPECT_EQ(iwl_for_range(Interval(0.0, 0.0)), 1);
    EXPECT_EQ(iwl_for_range(Interval::empty()), 1);
}

TEST(IwlForRange, NegativeIwlForSmallMagnitudes) {
    // 1/16 needs the binary point three places left of the sign bit.
    EXPECT_EQ(iwl_for_range(Interval(-0.0625, 0.0625)), -3);
    EXPECT_EQ(iwl_for_range(Interval(0.0, 0.25)), -1);
    const FixedFormat f(-3, 19);  // wl 16
    EXPECT_EQ(f.wl(), 16);
    EXPECT_DOUBLE_EQ(f.max_value(), 0.0625 - f.step());
}

/// Property: the chosen IWL admits the whole range under saturation-free
/// arithmetic (up to the saturating top value convention).
class IwlProperty : public ::testing::TestWithParam<int> {};

TEST_P(IwlProperty, RangeFitsFormat) {
    Rng rng(static_cast<uint64_t>(GetParam()), "iwl-prop");
    for (int trial = 0; trial < 200; ++trial) {
        const double a = rng.uniform(-100.0, 100.0);
        const double b = rng.uniform(-100.0, 100.0);
        const Interval range(std::min(a, b), std::max(a, b));
        const int iwl = iwl_for_range(range);
        EXPECT_LE(-pow2(iwl - 1), range.lo());
        EXPECT_LE(range.hi(), pow2(iwl - 1));
        // Minimality: one bit less must fail (unless iwl already 1).
        if (iwl > 1) {
            const bool fits = -pow2(iwl - 2) <= range.lo() &&
                              range.hi() <= pow2(iwl - 2);
            EXPECT_FALSE(fits);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IwlProperty, ::testing::Values(10, 20, 30));

// --- quantize -------------------------------------------------------------------

TEST(Quantize, TruncateAndRound) {
    EXPECT_DOUBLE_EQ(quantize_value(0.7, 1, QuantMode::Truncate), 0.5);
    EXPECT_DOUBLE_EQ(quantize_value(0.7, 1, QuantMode::Round), 0.5);
    EXPECT_DOUBLE_EQ(quantize_value(0.8, 1, QuantMode::Round), 1.0);
    EXPECT_DOUBLE_EQ(quantize_value(-0.7, 1, QuantMode::Truncate), -1.0);
    EXPECT_DOUBLE_EQ(quantize_value(-0.7, 1, QuantMode::Round), -0.5);
    EXPECT_DOUBLE_EQ(quantize_value(0.3, 8, QuantMode::Truncate),
                     std::floor(0.3 * 256) / 256);
}

TEST(Quantize, SaturateClamps) {
    const FixedFormat q(1, 7);
    bool overflow = false;
    EXPECT_DOUBLE_EQ(quantize_saturate(3.0, q, QuantMode::Truncate, &overflow),
                     q.max_value());
    EXPECT_TRUE(overflow);
    EXPECT_DOUBLE_EQ(
        quantize_saturate(-3.0, q, QuantMode::Truncate, &overflow),
        -1.0);
    EXPECT_TRUE(overflow);
    quantize_saturate(0.25, q, QuantMode::Truncate, &overflow);
    EXPECT_FALSE(overflow);
}

TEST(QuantizeStats, ContinuousLimits) {
    const auto t = continuous_quantization_stats(8, QuantMode::Truncate);
    const double q = pow2(-8);
    EXPECT_NEAR(t.mean, -q / 2, 1e-15);
    EXPECT_NEAR(t.variance, q * q / 12, 1e-18);
    const auto r = continuous_quantization_stats(8, QuantMode::Round);
    EXPECT_NEAR(r.mean, 0.0, 1e-15);
    EXPECT_NEAR(r.variance, q * q / 12, 1e-18);
}

TEST(QuantizeStats, NoDropNoNoise) {
    const auto s = quantization_stats(8, 0, QuantMode::Truncate);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.variance, 0.0);
    EXPECT_EQ(quantization_stats(8, -3, QuantMode::Truncate).power(), 0.0);
}

TEST(QuantizeStats, SingleBitDrop) {
    // k=1: mean -q/4, var q^2/16 for truncation.
    const auto s = quantization_stats(4, 1, QuantMode::Truncate);
    const double q = pow2(-4);
    EXPECT_NEAR(s.mean, -q / 4, 1e-15);
    EXPECT_NEAR(s.variance, q * q / 12 * 0.75, 1e-18);
}

/// Property: empirical truncation-error moments match the model.
class QuantStatsMatchEmpirical
    : public ::testing::TestWithParam<std::tuple<int, QuantMode>> {};

TEST_P(QuantStatsMatchEmpirical, MomentsAgree) {
    const auto [k, mode] = GetParam();
    const int f_in = 12 + k;
    const int f_out = 12;
    Rng rng(77, "quant-emp");
    double sum = 0.0, sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double v = quantize_value(rng.uniform(-1.0, 1.0), f_in, mode);
        const double e = quantize_value(v, f_out, mode) - v;
        sum += e;
        sum_sq += e * e;
    }
    const auto model = quantization_stats(f_out, k, mode);
    const double emp_mean = sum / n;
    const double emp_var = sum_sq / n - emp_mean * emp_mean;
    const double q = pow2(-f_out);
    EXPECT_NEAR(emp_mean, model.mean, q * 0.02);
    EXPECT_NEAR(emp_var, model.variance, model.variance * 0.1 + q * q * 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    DropCounts, QuantStatsMatchEmpirical,
    ::testing::Combine(::testing::Values(1, 2, 3, 8),
                       ::testing::Values(QuantMode::Truncate,
                                         QuantMode::Round)));

// --- FixedPointSpec -----------------------------------------------------------

TEST(Spec, NodesCoverVarsAndArrays) {
    const Kernel& k = small_fir();
    const FixedPointSpec spec(k);
    // Nodes: arrays + defined non-load vars.
    size_t array_nodes = 0, var_nodes = 0;
    for (const NodeRef n : spec.nodes()) {
        (n.kind == NodeRef::Kind::Array ? array_nodes : var_nodes)++;
    }
    EXPECT_EQ(array_nodes, k.arrays().size());
    EXPECT_GT(var_nodes, 0u);
}

TEST(Spec, LoadResolvesToArrayFormat) {
    const Kernel& k = small_fir();
    FixedPointSpec spec(k);
    spec.set_format(NodeRef::of_array(ArrayId(0)), FixedFormat(1, 15));
    // Find a load op of array x.
    for (const BlockId b : k.blocks_in_order()) {
        for (const OpId op : k.block(b).ops) {
            if (k.op(op).kind == OpKind::Load && k.op(op).array == ArrayId(0)) {
                EXPECT_EQ(spec.result_format(op), FixedFormat(1, 15));
                EXPECT_EQ(spec.node_of(op), NodeRef::of_array(ArrayId(0)));
                return;
            }
        }
    }
    FAIL() << "no load of x found";
}

TEST(Spec, CheckpointRevertRestores) {
    FixedPointSpec spec(small_fir());
    const NodeRef node = spec.nodes().front();
    spec.set_format(node, FixedFormat(2, 10));
    const auto cp = spec.checkpoint();
    spec.set_format(node, FixedFormat(2, 4));
    EXPECT_EQ(spec.format(node).fwl, 4);
    spec.revert(cp);
    EXPECT_EQ(spec.format(node).fwl, 10);
}

TEST(Spec, CheckpointCommitKeeps) {
    FixedPointSpec spec(small_fir());
    const NodeRef node = spec.nodes().front();
    const auto cp = spec.checkpoint();
    spec.set_format(node, FixedFormat(3, 5));
    spec.commit(cp);
    EXPECT_EQ(spec.format(node), FixedFormat(3, 5));
    EXPECT_EQ(spec.open_checkpoints(), 0u);
}

TEST(Spec, NestedCheckpoints) {
    FixedPointSpec spec(small_fir());
    const NodeRef node = spec.nodes().front();
    spec.set_format(node, FixedFormat(1, 1));
    const auto cp1 = spec.checkpoint();
    spec.set_format(node, FixedFormat(1, 2));
    const auto cp2 = spec.checkpoint();
    spec.set_format(node, FixedFormat(1, 3));
    spec.revert(cp2);
    EXPECT_EQ(spec.format(node).fwl, 2);
    spec.revert(cp1);
    EXPECT_EQ(spec.format(node).fwl, 1);
}

TEST(Spec, SetWlKeepsIwl) {
    FixedPointSpec spec(small_fir());
    const NodeRef node = spec.nodes().front();
    spec.set_format(node, FixedFormat(3, 0));
    spec.set_wl(node, 16);
    EXPECT_EQ(spec.format(node).iwl, 3);
    EXPECT_EQ(spec.format(node).fwl, 13);
}

// --- Range analysis -------------------------------------------------------------

TEST(RangeAnalysis, FirConvergesWithIntervals) {
    RangeOptions options;
    options.method = RangeMethod::Interval;
    const RangeMap map = analyze_ranges(small_fir(), options);
    EXPECT_EQ(map.method_used, RangeMethod::Interval);
    // Input range is the declared one.
    EXPECT_EQ(map.array_ranges[0], Interval(-1.0, 1.0));
    // Output magnitude is bounded by the L1 norm of the coefficients.
    const auto& coeffs = small_fir().array(ArrayId(1)).values;
    double l1 = 0.0;
    for (const double c : coeffs) l1 += std::fabs(c);
    EXPECT_LE(map.array_ranges[2].max_abs(), l1 + 1e-9);
    EXPECT_GT(map.array_ranges[2].max_abs(), 0.0);
}

TEST(RangeAnalysis, IirIntervalDivergesAndAutoFallsBack) {
    RangeOptions interval_only;
    interval_only.method = RangeMethod::Interval;
    EXPECT_THROW(analyze_ranges(small_iir(), interval_only), Error);

    RangeOptions auto_options;
    auto_options.method = RangeMethod::Auto;
    const RangeMap map = analyze_ranges(small_iir(), auto_options);
    EXPECT_EQ(map.method_used, RangeMethod::Simulation);
    // Output stays bounded (stable filter).
    EXPECT_LT(map.array_ranges[3].max_abs(), 8.0);
}

TEST(RangeAnalysis, SimulatedRangesContainActualRuns) {
    RangeOptions options;
    options.method = RangeMethod::Simulation;
    const Kernel& k = small_iir();
    const RangeMap map = analyze_ranges(k, options);
    // A fresh run with a different seed must stay within the widened hulls.
    const Stimulus stimulus = make_stimulus(k, 0xDEAD);
    DoubleSimOptions sim_options;
    sim_options.record_ranges = true;
    const auto result = run_double(k, stimulus, sim_options);
    for (size_t v = 0; v < result.var_ranges.size(); ++v) {
        if (result.var_ranges[v].is_empty()) continue;
        EXPECT_TRUE(map.var_ranges[v].contains(result.var_ranges[v]))
            << "var " << v << ": " << map.var_ranges[v].str() << " vs "
            << result.var_ranges[v].str();
    }
}

TEST(RangeAnalysis, ConvRangesAreTight) {
    RangeOptions options;
    options.method = RangeMethod::Interval;
    const RangeMap map = analyze_ranges(::slpwlo::testing::small_conv(), options);
    // Gaussian kernel has unit L1 norm, so |out| <= 1.
    const ArrayId out = ::slpwlo::testing::small_conv().find_array("out");
    EXPECT_LE(map.array_ranges[out.index()].max_abs(), 1.0 + 1e-12);
}

// --- IWL determination ------------------------------------------------------------

TEST(Iwl, InputGetsQ1) {
    const FixedPointSpec spec = ::slpwlo::testing::initial_spec(small_fir());
    EXPECT_EQ(spec.array_format(ArrayId(0)).iwl, 1);  // x in [-1,1)
}

TEST(Iwl, CoefficientIwlReflectsMagnitude) {
    const Kernel& k = small_fir();
    const FixedPointSpec spec = ::slpwlo::testing::initial_spec(k);
    const auto& coeffs = k.array(ArrayId(1)).values;
    double max_abs = 0.0;
    for (const double c : coeffs) max_abs = std::max(max_abs, std::fabs(c));
    EXPECT_EQ(spec.array_format(ArrayId(1)).iwl,
              iwl_for_range(Interval(-max_abs, max_abs)));
}

TEST(Iwl, NoOverflowInFixedSimAtGenerousWl) {
    // Property: with IWLs from range analysis and plenty of fractional bits,
    // the bit-accurate simulation must never saturate.
    for (const Kernel* k : {&small_fir(), &::slpwlo::testing::small_conv()}) {
        FixedPointSpec spec = ::slpwlo::testing::initial_spec(*k);
        for (const NodeRef node : spec.nodes()) {
            spec.set_format(node, FixedFormat(spec.format(node).iwl, 24));
        }
        const auto result = run_fixed(*k, spec, make_stimulus(*k, 5));
        EXPECT_EQ(result.overflow_count, 0) << k->name();
    }
}

// The checkpoint semantics before the undo log, kept as a model: a
// checkpoint copies every format; revert journals each node whose format
// differs from the copy (vars, then arrays, each by ascending id) and
// restores the copy.
class SnapshotSpecModel {
public:
    explicit SnapshotSpecModel(const Kernel& kernel)
        : vars_(kernel.vars().size(), FixedFormat(1, 0)),
          arrays_(kernel.arrays().size(), FixedFormat(1, 0)) {}

    FixedFormat& at(NodeRef node) {
        return node.kind == NodeRef::Kind::Var
                   ? vars_[static_cast<size_t>(node.id)]
                   : arrays_[static_cast<size_t>(node.id)];
    }
    void set_format(NodeRef node, const FixedFormat& fmt) {
        if (at(node) == fmt) return;
        at(node) = fmt;
        journal.push_back(node);
    }
    void checkpoint() { stack_.push_back({vars_, arrays_}); }
    void revert() {
        const Snapshot& snap = stack_.back();
        for (size_t v = 0; v < vars_.size(); ++v) {
            if (!(vars_[v] == snap.vars[v])) {
                journal.push_back(
                    NodeRef::of_var(VarId(static_cast<int32_t>(v))));
            }
        }
        for (size_t a = 0; a < arrays_.size(); ++a) {
            if (!(arrays_[a] == snap.arrays[a])) {
                journal.push_back(
                    NodeRef::of_array(ArrayId(static_cast<int32_t>(a))));
            }
        }
        vars_ = snap.vars;
        arrays_ = snap.arrays;
        stack_.pop_back();
    }
    void commit() { stack_.pop_back(); }
    size_t depth() const { return stack_.size(); }

    std::vector<NodeRef> journal;

private:
    struct Snapshot {
        std::vector<FixedFormat> vars;
        std::vector<FixedFormat> arrays;
    };
    std::vector<FixedFormat> vars_;
    std::vector<FixedFormat> arrays_;
    std::vector<Snapshot> stack_;
};

TEST(Spec, UndoLogCheckpointsMatchSnapshotModel) {
    for (const Kernel* kernel : {&small_fir(), &small_iir()}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            FixedPointSpec spec(*kernel);
            SnapshotSpecModel model(*kernel);
            std::vector<FixedPointSpec::Checkpoint> open;
            const std::vector<NodeRef>& nodes = spec.nodes();
            Rng rng(seed);
            for (int step = 0; step < 600; ++step) {
                const int op = rng.uniform_int(0, 9);
                if (op <= 5) {
                    // Few distinct word lengths, so nodes often change and
                    // change back inside one checkpoint.
                    const NodeRef node = nodes[static_cast<size_t>(
                        rng.uniform_int(0, static_cast<int>(nodes.size()) - 1))];
                    if (op == 5) {
                        const int iwl = rng.uniform_int(1, 3);
                        spec.set_iwl(node, iwl);
                        FixedFormat fmt = model.at(node);
                        fmt.iwl = iwl;
                        model.set_format(node, fmt);
                    } else {
                        const int wl = 8 + 4 * rng.uniform_int(0, 2);
                        spec.set_wl(node, wl);
                        model.set_format(node, model.at(node).with_wl(wl));
                    }
                } else if (op <= 7 && open.size() < 5) {
                    open.push_back(spec.checkpoint());
                    model.checkpoint();
                } else if (!open.empty()) {
                    if (op == 8) {
                        spec.revert(open.back());
                        model.revert();
                    } else {
                        spec.commit(open.back());
                        model.commit();
                    }
                    open.pop_back();
                }
                ASSERT_EQ(spec.open_checkpoints(), model.depth());
                for (const NodeRef node : nodes) {
                    ASSERT_EQ(spec.format(node), model.at(node))
                        << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(spec.journal_size(), model.journal.size())
                    << "seed " << seed << " step " << step;
                for (size_t i = 0; i < model.journal.size(); ++i) {
                    ASSERT_EQ(spec.journal_entry(i), model.journal[i])
                        << "seed " << seed << " step " << step << " entry "
                        << i;
                }
            }
        }
    }
}

}  // namespace
}  // namespace slpwlo
