// Tests for target models, machine lowering and the VLIW timing model.
#include <gtest/gtest.h>

#include "core/slp_aware_wlo.hpp"
#include "lower/lowering.hpp"
#include "schedule/cycle_model.hpp"
#include "target/target_model.hpp"
#include "support/diagnostics.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::cached_evaluator;
using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::set_uniform_wl;
using ::slpwlo::testing::small_fir;
using ::slpwlo::testing::small_iir;

// --- target models -----------------------------------------------------------------

TEST(Targets, BuiltinsValidate) {
    for (const TargetModel& t : targets::paper_targets()) {
        EXPECT_NO_THROW(t.validate());
    }
    EXPECT_NO_THROW(targets::generic32().validate());
}

TEST(Targets, EquationOneTable) {
    const TargetModel xentium = targets::xentium();
    EXPECT_EQ(xentium.simd_element_wl(1), 32);
    EXPECT_EQ(xentium.simd_element_wl(2), 16);
    EXPECT_EQ(xentium.simd_element_wl(4), std::nullopt);  // no 4x8
    EXPECT_EQ(xentium.max_group_size(), 2);

    const TargetModel vex = targets::vex4();
    EXPECT_EQ(vex.simd_element_wl(2), 16);
    EXPECT_EQ(vex.simd_element_wl(4), 8);
    EXPECT_EQ(vex.simd_element_wl(8), std::nullopt);
    EXPECT_EQ(vex.max_group_size(), 4);

    EXPECT_EQ(targets::generic32().simd_element_wl(2), std::nullopt);
}

TEST(Targets, RelativeCostIsWlProportional) {
    const TargetModel t = targets::xentium();
    EXPECT_DOUBLE_EQ(t.relative_op_cost(OpKind::Add, 32), 1.0);
    EXPECT_DOUBLE_EQ(t.relative_op_cost(OpKind::Add, 16), 0.5);
    EXPECT_DOUBLE_EQ(t.relative_op_cost(OpKind::Mul, 8), 0.25);
    EXPECT_DOUBLE_EQ(t.relative_op_cost(OpKind::Add, 12), 0.5);  // rounds up
    EXPECT_DOUBLE_EQ(targets::generic32().relative_op_cost(OpKind::Add, 8),
                     1.0);
}

TEST(Targets, ByNameLookup) {
    EXPECT_EQ(targets::by_name("xentium").name, "XENTIUM");
    EXPECT_EQ(targets::by_name("VEX-1").issue_width, 1);
    EXPECT_THROW(targets::by_name("TPU"), Error);
}

// --- lowering -----------------------------------------------------------------------

TEST(Lowering, ScalarFixedHasShiftsAndNoPacks) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const MachineKernel machine = lower_kernel(
        k, &spec, nullptr, targets::xentium(), LowerMode::FixedScalar);
    EXPECT_GT(count_ops(machine, MachKind::Shift), 0);
    EXPECT_EQ(count_ops(machine, MachKind::Pack), 0);
    EXPECT_EQ(count_ops(machine, MachKind::Extract), 0);
    EXPECT_EQ(count_ops(machine, MachKind::SoftFloat), 0);
    for (const MachineBlock& b : machine.blocks) {
        for (const MachOp& op : b.ops) {
            EXPECT_EQ(op.lanes, 1);
        }
    }
}

TEST(Lowering, FloatModeUsesSoftFloatOnXentium) {
    const Kernel& k = small_fir();
    const MachineKernel machine =
        lower_kernel(k, nullptr, nullptr, targets::xentium(),
                     LowerMode::Float);
    EXPECT_GT(count_ops(machine, MachKind::SoftFloat), 0);
    EXPECT_EQ(count_ops(machine, MachKind::Shift), 0);
}

TEST(Lowering, FloatModeUsesHardFpOnSt240) {
    const Kernel& k = small_fir();
    const MachineKernel machine = lower_kernel(
        k, nullptr, nullptr, targets::st240(), LowerMode::Float);
    EXPECT_GT(count_ops(machine, MachKind::FloatOp), 0);
    EXPECT_EQ(count_ops(machine, MachKind::SoftFloat), 0);
}

TEST(Lowering, SimdModeEmitsVectorOps) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    WloSlpOptions options;
    options.accuracy_db = -30.0;
    const auto result = run_slp_aware_wlo(k, spec, cached_evaluator(k),
                                          targets::xentium(), options);
    const MachineKernel machine =
        lower_kernel(k, &spec, &result.block_groups, targets::xentium(),
                     LowerMode::FixedSimd);
    bool found_vector = false;
    for (const MachineBlock& b : machine.blocks) {
        for (const MachOp& op : b.ops) {
            if (op.lanes > 1) found_vector = true;
        }
    }
    EXPECT_TRUE(found_vector);
}

TEST(Lowering, DependencesPointBackwards) {
    const Kernel& k = small_iir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const MachineKernel machine = lower_kernel(
        k, &spec, nullptr, targets::st240(), LowerMode::FixedScalar);
    for (const MachineBlock& b : machine.blocks) {
        for (size_t i = 0; i < b.ops.size(); ++i) {
            for (const int p : b.ops[i].preds) {
                EXPECT_GE(p, 0);
                EXPECT_LT(p, static_cast<int>(i));
            }
        }
    }
}

TEST(Lowering, IirHasLoopCarriedRecurrences) {
    const Kernel& k = small_iir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const MachineKernel machine = lower_kernel(
        k, &spec, nullptr, targets::st240(), LowerMode::FixedScalar);
    bool found = false;
    for (const MachineBlock& b : machine.blocks) {
        if (!b.recurrences.empty()) found = true;
    }
    EXPECT_TRUE(found) << "IIR feedback must create recurrences";
}

// --- scheduler ---------------------------------------------------------------------

TEST(Scheduler, RespectsDependencesAndLatencies) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const TargetModel target = targets::st240();
    const MachineKernel machine =
        lower_kernel(k, &spec, nullptr, target, LowerMode::FixedScalar);
    for (const MachineBlock& b : machine.blocks) {
        const BlockSchedule sched = schedule_block(b, target);
        for (size_t i = 0; i < b.ops.size(); ++i) {
            for (const int p : b.ops[i].preds) {
                EXPECT_GE(sched.cycle_of[i],
                          sched.cycle_of[static_cast<size_t>(p)] +
                              op_latency(b.ops[static_cast<size_t>(p)],
                                         target))
                    << "latency violated";
            }
        }
    }
}

TEST(Scheduler, RespectsIssueWidth) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const TargetModel target = targets::vex4();
    const MachineKernel machine =
        lower_kernel(k, &spec, nullptr, target, LowerMode::FixedScalar);
    for (const MachineBlock& b : machine.blocks) {
        const BlockSchedule sched = schedule_block(b, target);
        std::map<int, int> per_cycle;
        for (size_t i = 0; i < b.ops.size(); ++i) {
            if (b.ops[i].kind == MachKind::SoftFloat) continue;
            per_cycle[sched.cycle_of[i]]++;
        }
        for (const auto& [cycle, count] : per_cycle) {
            (void)cycle;
            EXPECT_LE(count, target.issue_width);
        }
    }
}

TEST(Scheduler, NarrowMachineIsSlower) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const MachineKernel m1 = lower_kernel(k, &spec, nullptr, targets::vex1(),
                                          LowerMode::FixedScalar);
    const MachineKernel m4 = lower_kernel(k, &spec, nullptr, targets::vex4(),
                                          LowerMode::FixedScalar);
    EXPECT_GT(estimate_cycles(m1, targets::vex1()).total_cycles,
              estimate_cycles(m4, targets::vex4()).total_cycles);
}

TEST(Scheduler, RecurrenceBoundsFeedbackII) {
    // Single-block first-order feedback: y[n] = a * y[n-1] + x[n].
    // The recurrence (load y[n-1] -> mul -> add -> store y[n], distance 1)
    // must bound the II at the path latency.
    KernelBuilder b("feedback");
    const ArrayId x = b.input("x", 65, Interval(-1.0, 1.0));
    const ArrayId a = b.param("a", {0.5});
    const ArrayId y = b.output("y", 65);
    const LoopId n = b.begin_loop("n", 0, 64);
    const VarId prev = b.load(y, Affine::var(n));
    const VarId prod = b.mul(prev, b.load(a, Affine(0)));
    const VarId next = b.add(prod, b.load(x, Affine::var(n) + 1));
    b.store(y, Affine::var(n) + 1, next);
    b.end_loop();
    const Kernel k = b.take();

    FixedPointSpec spec = build_initial_spec(k, [] {
        RangeOptions options;
        options.method = RangeMethod::Auto;
        return options;
    }());
    set_uniform_wl(spec, 16);
    const TargetModel target = targets::st240();
    const MachineKernel machine =
        lower_kernel(k, &spec, nullptr, target, LowerMode::FixedScalar);
    bool recurrence_bound = false;
    for (const MachineBlock& b2 : machine.blocks) {
        if (b2.ops.empty()) continue;
        const BlockSchedule sched = schedule_block(b2, target);
        EXPECT_GE(sched.ii, std::max(sched.res_mii, sched.rec_mii));
        // load(3) + mul(3) + add(1) + store at distance 1.
        if (sched.rec_mii >= 5) recurrence_bound = true;
    }
    EXPECT_TRUE(recurrence_bound);
}

TEST(Scheduler, SoftFloatSerializes) {
    const Kernel& k = small_fir();
    const TargetModel target = targets::xentium();
    const MachineKernel machine =
        lower_kernel(k, nullptr, nullptr, target, LowerMode::Float);
    for (const MachineBlock& b : machine.blocks) {
        const BlockSchedule sched = schedule_block(b, target);
        int expected = 0;
        for (const MachOp& op : b.ops) {
            if (op.kind == MachKind::SoftFloat) expected += op.soft_cycles;
        }
        EXPECT_EQ(sched.serial_cycles, expected);
        if (expected > 0) {
            EXPECT_GE(sched.ii, expected);
        }
    }
}

TEST(CycleModel, TotalsAreConsistent) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const TargetModel target = targets::st240();
    const MachineKernel machine =
        lower_kernel(k, &spec, nullptr, target, LowerMode::FixedScalar);
    const CycleReport report = estimate_cycles(machine, target);
    long long sum = report.loop_overhead;
    for (const auto& b : report.blocks) sum += b.total;
    EXPECT_EQ(report.total_cycles, sum);
    EXPECT_GT(report.total_cycles, 0);
}

TEST(CycleModel, ShiftHeavySpecCostsMore) {
    // A spec with many format mismatches inserts more scaling shifts and
    // must not be faster than a uniform one on a 1-wide machine.
    const Kernel& k = small_fir();
    const TargetModel target = targets::vex1();
    FixedPointSpec uniform = initial_spec(k);
    set_uniform_wl(uniform, 16);
    FixedPointSpec ragged = initial_spec(k);
    int toggle = 0;
    for (const NodeRef node : ragged.nodes()) {
        ragged.set_wl(node, (toggle++ % 2) == 0 ? 16 : 24);
    }
    const auto cu = estimate_cycles(
        lower_kernel(k, &uniform, nullptr, target, LowerMode::FixedScalar),
        target);
    const auto cr = estimate_cycles(
        lower_kernel(k, &ragged, nullptr, target, LowerMode::FixedScalar),
        target);
    EXPECT_GE(cr.total_cycles, cu.total_cycles);
}

}  // namespace
}  // namespace slpwlo
