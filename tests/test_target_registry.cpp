// Target subsystem tests: the TargetRegistry, the description-file
// parser/serializer round trip, validate() hardening, derived-target
// transforms, and content-fingerprint memoization through the sweep
// layer (same-name/different-model separation, renamed-model cache hits).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "flow/pass.hpp"
#include "flow/sweep.hpp"
#include "support/diagnostics.hpp"
#include "target/target_desc.hpp"
#include "target/target_model.hpp"
#include "target/target_registry.hpp"

namespace slpwlo {
namespace {

// --- registry ------------------------------------------------------------------

TEST(TargetRegistry, HasBuiltinsAndPresets) {
    TargetRegistry& registry = TargetRegistry::instance();
    for (const char* name : {"XENTIUM", "ST240", "VEX-1", "VEX-4",
                             "GENERIC32", "NEON128", "SSE128", "DSP64"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        EXPECT_NO_THROW(registry.get(name).validate()) << name;
    }
    // Lookup is case-insensitive and returns the registered casing.
    EXPECT_EQ(registry.get("neon128").name, "NEON128");
    EXPECT_EQ(registry.get("Vex-4").issue_width, 4);
}

TEST(TargetRegistry, PresetsMatchTheShippedDescriptions) {
    // The presets are parsed from the same text CMake embeds from
    // targets/*.target, so the registry exercises the parser at startup.
    const std::vector<TargetModel> presets = targets::preset_targets();
    ASSERT_EQ(presets.size(), 3u);
    EXPECT_EQ(presets[0].name, "NEON128");
    EXPECT_EQ(presets[0].simd_width_bits, 128);
    EXPECT_EQ(presets[1].name, "SSE128");
    EXPECT_EQ(presets[1].pack2_ops, 2);
    EXPECT_EQ(presets[2].name, "DSP64");
    EXPECT_FALSE(presets[2].fp.hardware);
    EXPECT_DOUBLE_EQ(
        presets[2].op_class_cost[static_cast<size_t>(OpClass::MulUnit)], 1.5);
}

TEST(TargetRegistry, UnknownNameListsRegisteredTargets) {
    try {
        TargetRegistry::instance().get("TPU");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("unknown target `TPU`"), std::string::npos)
            << message;
        for (const char* name : {"XENTIUM", "ST240", "NEON128", "DSP64"}) {
            EXPECT_NE(message.find(name), std::string::npos) << message;
        }
    }
    // by_name is a thin wrapper over the registry: same behavior.
    try {
        targets::by_name("TPU");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("NEON128"), std::string::npos);
    }
}

TEST(TargetRegistry, AddRegistersAndReplaces) {
    TargetModel custom = targets::generic32();
    custom.name = "TEST-ADD";
    TargetRegistry::instance().add(custom);
    EXPECT_TRUE(TargetRegistry::instance().contains("test-add"));
    EXPECT_EQ(TargetRegistry::instance().get("TEST-ADD").issue_width, 1);

    custom.issue_width = 2;
    custom.alu_slots = 2;
    TargetRegistry::instance().add(custom);
    EXPECT_EQ(TargetRegistry::instance().get("TEST-ADD").issue_width, 2);

    // add() validates: a broken model never lands in the registry.
    TargetModel broken = custom;
    broken.name = "TEST-BROKEN";
    broken.alu_latency = 0;
    EXPECT_THROW(TargetRegistry::instance().add(broken), Error);
    EXPECT_FALSE(TargetRegistry::instance().contains("TEST-BROKEN"));
}

TEST(TargetRegistry, NamesAreSorted) {
    const std::vector<std::string> names = TargetRegistry::instance().names();
    EXPECT_GE(names.size(), 8u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// --- description parser --------------------------------------------------------

TEST(TargetDesc, RoundTripsEveryRegisteredTarget) {
    for (const std::string& name : TargetRegistry::instance().names()) {
        const TargetModel original = TargetRegistry::instance().get(name);
        const TargetModel reparsed =
            parse_target_description(target_description(original), name);
        EXPECT_EQ(reparsed.name, original.name);
        EXPECT_EQ(target_fingerprint(reparsed), target_fingerprint(original))
            << name;
    }
}

TEST(TargetDesc, ParsesListsCommentsAndWhitespace) {
    const TargetModel model = parse_target_description(
        "# leading comment\n"
        "name = SPACED   \n"
        "\n"
        "  scalar_wls = 32 16 8   # space-separated works too\n"
        "  simd_width_bits = 32\n"
        "  simd_element_wls = 16,8\n"
        "  op_cost.mul = 2.0\n");
    EXPECT_EQ(model.name, "SPACED");
    EXPECT_EQ(model.scalar_wls, (std::vector<int>{32, 16, 8}));
    EXPECT_EQ(model.simd_element_wls, (std::vector<int>{16, 8}));
    EXPECT_DOUBLE_EQ(model.relative_op_cost(OpKind::Mul, 32), 2.0);
    EXPECT_DOUBLE_EQ(model.relative_op_cost(OpKind::Add, 32), 1.0);
}

TEST(TargetDesc, RejectsMalformedInputWithPositions) {
    const auto expect_error = [](const std::string& text,
                                 const std::string& needle) {
        try {
            parse_target_description(text, "desc");
            FAIL() << "expected Error for: " << text;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    expect_error("name = X\nbogus_key = 1\n", "desc:2: unknown key");
    expect_error("name = X\nissue_width = fast\n", "not an integer");
    expect_error("name = X\nbarrel_shifter = maybe\n", "expected true/false");
    expect_error("name = X\nop_cost.simd = 1\n", "unknown op class");
    expect_error("name = X\nname = Y\n", "duplicate key");
    expect_error("name = X\nno equals sign\n", "desc:2: expected");
    expect_error("issue_width = 2\n", "no `name` key");
    // validate() failures carry the source name too.
    expect_error("name = X\nalu_latency = 0\n", "desc: ");
}

TEST(TargetDesc, LoadsFromFile) {
    const std::string path =
        ::testing::TempDir() + "slpwlo_test_target.target";
    {
        std::ofstream out(path);
        out << "name = FROMFILE\n"
            << "issue_width = 2\n"
            << "alu_slots = 2\n"
            << "simd_width_bits = 64\n"
            << "simd_element_wls = 32, 16, 8\n"
            << "scalar_wls = 32, 16, 8\n";
    }
    const TargetModel model = load_target_description(path);
    EXPECT_EQ(model.name, "FROMFILE");
    EXPECT_EQ(model.simd_width_bits, 64);
    EXPECT_EQ(model.max_group_size(), 8);

    EXPECT_THROW(load_target_description(path + ".does-not-exist"), Error);
}

// --- validate() hardening ------------------------------------------------------

TEST(TargetModel, ValidateRejectsInconsistentModels) {
    const auto expect_invalid = [](void (*doctor)(TargetModel&),
                                   const std::string& needle) {
        TargetModel model = targets::st240();
        doctor(model);
        try {
            model.validate();
            FAIL() << "expected Error containing: " << needle;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    expect_invalid([](TargetModel& t) { t.scalar_wls = {8, 16, 32}; },
                   "strictly descending");
    expect_invalid([](TargetModel& t) { t.scalar_wls = {32, 16, 16}; },
                   "strictly descending");
    expect_invalid([](TargetModel& t) { t.simd_element_wls = {8, 16}; },
                   "strictly descending");
    // No element width divides the datapath.
    expect_invalid([](TargetModel& t) { t.simd_element_wls = {12}; },
                   "divide the datapath");
    // Elements divide but never into >= 2 lanes (32-bit datapath, 32-bit
    // elements only): no equation-1 group exists.
    expect_invalid([](TargetModel& t) { t.simd_element_wls = {32}; },
                   ">= 2 lanes");
    expect_invalid([](TargetModel& t) { t.alu_latency = 0; },
                   "latencies must be positive");
    expect_invalid([](TargetModel& t) { t.mul_latency = -3; },
                   "latencies must be positive");
    expect_invalid([](TargetModel& t) { t.mem_latency = 0; },
                   "latencies must be positive");
    expect_invalid(
        [](TargetModel& t) {
            t.op_class_cost[static_cast<size_t>(OpClass::Alu)] = 0.0;
        },
        "cost weights must be positive");
    expect_invalid(
        [](TargetModel& t) {
            t.op_class_cost[static_cast<size_t>(OpClass::Mem)] = -1.0;
        },
        "cost weights must be positive");

    // Elements wider than native_wl are lane containers, not scalar
    // storage: a 128-bit datapath with 2x64 configurations (the NEON128
    // and SSE128 presets) is consistent.
    TargetModel wide = targets::st240();
    wide.simd_width_bits = 128;
    wide.simd_element_wls = {64, 32, 16, 8};
    EXPECT_NO_THROW(wide.validate());
    EXPECT_TRUE(wide.supports_group_size(2));  // 2x64 seeds pairwise SLP
}

// --- derived-target transforms -------------------------------------------------

TEST(TargetModel, WithSimdWidthDerivesValidatedVariants) {
    const TargetModel neon = targets::by_name("NEON128");
    EXPECT_TRUE(neon.can_derive_simd_width(64));
    EXPECT_TRUE(neon.can_derive_simd_width(0));
    EXPECT_FALSE(neon.can_derive_simd_width(8));   // narrowest element is 8
    EXPECT_FALSE(neon.can_derive_simd_width(-1));

    const TargetModel narrow = neon.with_simd_width(64);
    EXPECT_EQ(narrow.name, "NEON128@simd64");
    EXPECT_EQ(narrow.simd_width_bits, 64);
    EXPECT_EQ(narrow.simd_element_wls, (std::vector<int>{32, 16, 8}));
    EXPECT_EQ(narrow.issue_width, neon.issue_width);

    // Element widths that stop fitting are dropped: a 16-bit datapath
    // keeps only the 8-bit lanes.
    const TargetModel tiny = neon.with_simd_width(16);
    EXPECT_EQ(tiny.simd_element_wls, (std::vector<int>{8}));

    const TargetModel scalar = neon.with_simd_width(0);
    EXPECT_EQ(scalar.simd_width_bits, 0);
    EXPECT_TRUE(scalar.simd_element_wls.empty());
    EXPECT_EQ(scalar.max_group_size(), 1);

    // XENTIUM only implements 16-bit elements: no width under 32 works.
    EXPECT_THROW(targets::xentium().with_simd_width(24), Error);
    EXPECT_THROW(targets::xentium().with_simd_width(16), Error);
}

TEST(TargetModel, WithSimdWidthErrorNamesTheInfeasibleElement) {
    // The failure message must say which element cannot pair at the new
    // width and why, not just that validation failed.
    try {
        targets::xentium().with_simd_width(24);  // 24 % 16 != 0
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("element 16 bits"), std::string::npos) << what;
        EXPECT_NE(what.find("does not divide 24"), std::string::npos) << what;
    }
    try {
        targets::xentium().with_simd_width(16);  // one 16-bit lane only
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("element 16 bits"), std::string::npos) << what;
        EXPECT_NE(what.find("yields only 1 lane"), std::string::npos) << what;
    }
}

TEST(TargetModel, LaneFeasibilityQueries) {
    // DSP64: 64-bit datapath, elements {32, 16, 8} -> k in {2, 4, 8}.
    const TargetModel dsp = targets::by_name("DSP64");
    EXPECT_EQ(dsp.feasible_group_sizes(), (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(dsp.min_group_size(), 2);
    EXPECT_EQ(dsp.realization_group_size(2), 2);
    EXPECT_EQ(dsp.realization_group_size(3), std::nullopt);  // 3, 6, 12...
    EXPECT_TRUE(dsp.fusion_can_reach(4));

    // DSP64@simd128 keeps {32, 16, 8} -> k in {4, 8, 16}: the cliff.
    const TargetModel cliff = dsp.with_simd_width(128);
    EXPECT_FALSE(cliff.supports_group_size(2));
    EXPECT_EQ(cliff.feasible_group_sizes(), (std::vector<int>{4, 8, 16}));
    EXPECT_EQ(cliff.min_group_size(), 4);
    // Width 2 is virtual: it realizes by doubling into the 4-lane config.
    EXPECT_EQ(cliff.realization_group_size(2), 4);
    EXPECT_TRUE(cliff.fusion_can_reach(2));
    EXPECT_EQ(cliff.realized_element_wl(2), 32);
    EXPECT_EQ(cliff.realized_element_wl(4), 32);
    EXPECT_EQ(cliff.realization_group_size(32), std::nullopt);

    // No SIMD at all: nothing is feasible or reachable.
    const TargetModel scalar = targets::generic32();
    EXPECT_TRUE(scalar.feasible_group_sizes().empty());
    EXPECT_EQ(scalar.min_group_size(), 1);
    EXPECT_FALSE(scalar.fusion_can_reach(2));
}

TEST(TargetModel, WithElementWlsDerivesValidatedVariants) {
    const TargetModel st = targets::st240();
    const TargetModel only16 = st.with_element_wls({16});
    EXPECT_EQ(only16.name, "ST240@e16");
    EXPECT_EQ(only16.max_group_size(), 2);
    EXPECT_TRUE(only16.supports_group_size(2));
    EXPECT_FALSE(only16.supports_group_size(4));

    // The variant is validated like any other model.
    EXPECT_THROW(st.with_element_wls({12}), Error);
    EXPECT_THROW(st.with_element_wls({8, 16}), Error);
}

TEST(TargetModel, OpClassCostScalesRelativeCost) {
    TargetModel dsp = targets::by_name("DSP64");
    // The shipped DSP64 preset prices multiplies at 1.5 ALU ops.
    EXPECT_DOUBLE_EQ(dsp.relative_op_cost(OpKind::Mul, 32), 1.5);
    EXPECT_DOUBLE_EQ(dsp.relative_op_cost(OpKind::Mul, 16), 0.75);
    EXPECT_DOUBLE_EQ(dsp.relative_op_cost(OpKind::Add, 32), 1.0);
    EXPECT_DOUBLE_EQ(dsp.relative_op_cost(OpKind::Load, 32), 1.0);
    EXPECT_EQ(op_class_for(OpKind::Mul), OpClass::MulUnit);
    EXPECT_EQ(op_class_for(OpKind::Div), OpClass::MulUnit);
    EXPECT_EQ(op_class_for(OpKind::Load), OpClass::Mem);
    EXPECT_EQ(op_class_for(OpKind::Store), OpClass::Mem);
    EXPECT_EQ(op_class_for(OpKind::Add), OpClass::Alu);
}

// --- content fingerprints ------------------------------------------------------

TEST(TargetFingerprint, NameFreeContentIdentity) {
    const TargetModel base = targets::xentium();

    // Renaming does not change the fingerprint (identical models under
    // different names share evaluation cache entries)...
    TargetModel renamed = base;
    renamed.name = "XENTIUM-CLONE";
    EXPECT_EQ(target_fingerprint(base), target_fingerprint(renamed));

    // ...and every semantic field changes it (same-name models with
    // different parameters never collide).
    TargetModel wider = base;
    wider.simd_width_bits = 64;
    EXPECT_NE(target_fingerprint(base), target_fingerprint(wider));

    TargetModel priced = base;
    priced.op_class_cost[static_cast<size_t>(OpClass::MulUnit)] = 2.0;
    EXPECT_NE(target_fingerprint(base), target_fingerprint(priced));

    TargetModel slower = base;
    slower.mul_latency = 5;
    EXPECT_NE(target_fingerprint(base), target_fingerprint(slower));
}

// --- sweep integration ---------------------------------------------------------

TEST(TargetSweep, SameNameDifferentModelsNeverShareCacheEntries) {
    // Two points whose targets share the label "CLASH" but are different
    // machines: a scalar one and a SIMD one. If evaluation were keyed by
    // name the second point would replay the first's cached cycles.
    TargetModel scalar = targets::generic32();
    scalar.name = "CLASH";
    TargetModel simd = targets::st240();
    simd.name = "CLASH";

    SweepOptions options;
    options.threads = 1;
    SweepDriver driver(options);
    const std::vector<SweepResult> results =
        driver.run({SweepPoint{"FIR", "CLASH", "WLO-SLP", -30.0, {}, scalar, {}},
                    SweepPoint{"FIR", "CLASH", "WLO-SLP", -30.0, {}, simd, {}}});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].flow.target_name, "CLASH");
    EXPECT_EQ(results[1].flow.target_name, "CLASH");
    EXPECT_NE(results[0].flow.target_fp, results[1].flow.target_fp);
    EXPECT_EQ(results[0].flow.group_count, 0);  // scalar machine: no SLP
    EXPECT_GT(results[1].flow.group_count, 0);
    EXPECT_NE(results[0].flow.simd_cycles, results[1].flow.simd_cycles);
    const SweepCacheStats stats = driver.cache_stats();
    EXPECT_EQ(stats.eval_hits, 0u);
    EXPECT_EQ(stats.eval_entries, 2u);
}

TEST(TargetSweep, RenamedIdenticalModelHitsTheCache) {
    TargetModel original = targets::xentium();
    TargetModel renamed = original;
    renamed.name = "XENTIUM-UNDER-ANOTHER-NAME";

    SweepOptions options;
    options.threads = 1;
    SweepDriver driver(options);
    const std::vector<SweepResult> first = driver.run(
        {SweepPoint{"FIR", original.name, "WLO-SLP", -30.0, {}, original, {}}});
    const size_t hits_before = driver.cache_stats().eval_hits;
    const std::vector<SweepResult> second = driver.run(
        {SweepPoint{"FIR", renamed.name, "WLO-SLP", -30.0, {}, renamed, {}}});
    EXPECT_GT(driver.cache_stats().eval_hits, hits_before);
    EXPECT_EQ(first[0].flow.target_fp, second[0].flow.target_fp);
    EXPECT_EQ(first[0].flow.scalar_cycles, second[0].flow.scalar_cycles);
    EXPECT_EQ(first[0].flow.simd_cycles, second[0].flow.simd_cycles);
    EXPECT_NE(first[0].flow.target_name, second[0].flow.target_name);
}

TEST(TargetSweep, WidthAxisGridAcrossRegistryAndFileTargets) {
    // The acceptance grid: one kernel x three registry targets (one of
    // them loaded from a description file) x a SIMD-width axis,
    // bit-identical at 1 vs 4 threads.
    const std::string path =
        ::testing::TempDir() + "slpwlo_sweep_target.target";
    {
        std::ofstream out(path);
        out << "name = FILEDSP\n"
            << "issue_width = 2\n"
            << "alu_slots = 2\n"
            << "scalar_wls = 32, 16, 8\n"
            << "simd_width_bits = 64\n"
            << "simd_element_wls = 32, 16, 8\n"
            << "op_cost.mul = 1.25\n";
    }
    TargetRegistry::instance().add(load_target_description(path));

    const std::vector<SweepPoint> points = SweepDriver::grid(
        {"FIR"}, {"XENTIUM", "NEON128", "FILEDSP"}, {0, 64},
        {"WLO-SLP"}, {-25.0, -45.0});
    ASSERT_EQ(points.size(), 12u);
    // Width 0 keeps the base model; width 64 derives a renamed variant
    // carried as a per-point override.
    EXPECT_EQ(points[0].target, "XENTIUM");
    EXPECT_EQ(points[2].target, "XENTIUM@simd64");
    ASSERT_TRUE(points[2].target_model.has_value());
    EXPECT_EQ(points[2].target_model->simd_width_bits, 64);

    SweepOptions serial_options;
    serial_options.threads = 1;
    SweepDriver serial(serial_options);
    const std::vector<SweepResult> serial_results = serial.run(points);

    SweepOptions parallel_options;
    parallel_options.threads = 4;
    SweepDriver parallel(parallel_options);
    const std::vector<SweepResult> parallel_results = parallel.run(points);

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (size_t i = 0; i < serial_results.size(); ++i) {
        const FlowResult& a = serial_results[i].flow;
        const FlowResult& b = parallel_results[i].flow;
        EXPECT_EQ(a.target_name, b.target_name);
        EXPECT_EQ(a.target_fp, b.target_fp);
        EXPECT_EQ(a.scalar_cycles, b.scalar_cycles);
        EXPECT_EQ(a.simd_cycles, b.simd_cycles);
        EXPECT_EQ(a.group_count, b.group_count);
        EXPECT_EQ(a.analytic_noise_db, b.analytic_noise_db);
        for (const NodeRef node : a.spec.nodes()) {
            EXPECT_EQ(a.spec.format(node), b.spec.format(node));
        }
    }
    // The FILEDSP width-64 variant re-derives the same machine as the
    // base (64 == its native datapath minus the name): same fingerprint,
    // so the two rows share cached evaluations instead of recomputing.
    const uint64_t file_fp = target_fingerprint(targets::by_name("FILEDSP"));
    const uint64_t derived_fp = target_fingerprint(
        targets::by_name("FILEDSP").with_simd_width(64));
    EXPECT_EQ(file_fp, derived_fp);
}

TEST(TargetSweep, OverrideModelsAreValidatedBeforeRunning) {
    TargetModel broken = targets::xentium();
    broken.scalar_wls = {8, 16, 32};
    SweepDriver driver;
    EXPECT_THROW(
        driver.run({SweepPoint{"FIR", "X", "WLO-SLP", -20.0, {}, broken, {}}}),
        Error);
}

}  // namespace
}  // namespace slpwlo
