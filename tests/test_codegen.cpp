// Code-generation tests: structural checks on the emitted C, plus the
// compile-and-run integration test — the generated fixed-point and SIMD C
// must be bit-exact with the bit-accurate simulator under both truncation
// and round-to-nearest (host compiler required; skipped if none is
// available).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>

#include "codegen/fixed_c.hpp"
#include "codegen/simd_c.hpp"
#include "flow/flow.hpp"
#include "kernels/kernels.hpp"
#include "sim/fixed_sim.hpp"
#include "support/dbmath.hpp"
#include "support/text.hpp"
#include "target/target_model.hpp"
#include "codegen/c_emitter.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::set_uniform_wl;
using ::slpwlo::testing::small_fir;

bool host_cc_available() {
    static const bool available =
        std::system("cc --version > /dev/null 2>&1") == 0;
    return available;
}

TEST(FixedC, StructuralContent) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const FixedCResult result = emit_fixed_c(k, spec);
    EXPECT_EQ(result.function_name, "fir16_fixed");
    EXPECT_TRUE(contains(result.code, "void fir16_fixed("));
    EXPECT_TRUE(contains(result.code, "static const int16_t c[16]"));
    EXPECT_TRUE(contains(result.code, "for (int"));
    EXPECT_TRUE(contains(result.code, "slpwlo_shr"));  // scaling shifts
    EXPECT_TRUE(contains(result.code, "slpwlo_sat"));
}

TEST(FixedC, RawCoefficientValues) {
    const Kernel& k = ::slpwlo::testing::make_two_tap(0.5, 0.25);
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    const FixedCResult result = emit_fixed_c(k, spec);
    // c in format <iwl=0 (|c|<=0.5), fwl=16>: 0.5 saturates to 0.5-2^-16.
    const FixedFormat fmt = spec.array_format(k.find_array("c"));
    const long long raw0 = raw_fixed_value(0.5, fmt, QuantMode::Truncate);
    EXPECT_TRUE(contains(result.code, std::to_string(raw0)));
}

TEST(SimdC, StructuralContent) {
    const KernelContext ctx(small_fir());
    FlowOptions options;
    options.accuracy_db = -30.0;
    const FlowResult flow =
        run_wlo_slp_flow(ctx, targets::xentium(), options);
    const FixedCResult result =
        emit_simd_c(ctx.kernel(), flow.spec, flow.groups);
    EXPECT_TRUE(contains(result.code, "SLPWLO_VLOAD"));
    EXPECT_TRUE(contains(result.code, "SLPWLO_VMUL"));
    EXPECT_TRUE(contains(result.code, "SLPWLO_VADD"));
    EXPECT_TRUE(contains(result.code, "slpwlo_simd_emu.h"));
}

TEST(SimdC, EmulationHeaderAndMappingNotes) {
    const std::string header = simd_emulation_header();
    EXPECT_TRUE(contains(header, "SLPWLO_VADD"));
    EXPECT_TRUE(contains(header, "slpwlo_vec"));
    const std::string notes =
        simd_target_mapping_comment(targets::xentium());
    EXPECT_TRUE(contains(notes, "XENTIUM"));
    EXPECT_TRUE(contains(notes, "32 bits"));
}

/// One compile-and-run point: a registry kernel run through the WLO-SLP
/// flow on a target under a quantization mode.
struct RoundTripCase {
    std::string kernel;
    std::string target;
    QuantMode mode;
};

std::string case_name(const RoundTripCase& c) {
    return c.kernel + "_" + c.target + "_" +
           (c.mode == QuantMode::Round ? "Round" : "Truncate");
}

void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << case_name(c); }

std::string round_trip_name(
    const ::testing::TestParamInfo<RoundTripCase>& info) {
    return case_name(info.param);
}

/// Compile-and-run equivalence: generated code vs bit-accurate simulator,
/// for both entry points of the fixed-point emitter.
class CodegenRoundTrip : public ::testing::TestWithParam<RoundTripCase> {
protected:
    void SetUp() override {
        if (!host_cc_available()) GTEST_SKIP() << "no host C compiler";
        const RoundTripCase& c = GetParam();
        auto bench = kernels::make_benchmark_kernel(c.kernel);
        context_ = std::make_unique<KernelContext>(std::move(bench.kernel),
                                                   bench.range_options);
        FlowOptions options;
        options.accuracy_db = -40.0;
        options.quant_mode = c.mode;
        flow_ = run_wlo_slp_flow(*context_, targets::by_name(c.target),
                                 options);
        stimulus_ = make_stimulus(kernel(), 0xC0DE);
    }

    const Kernel& kernel() const { return context_->kernel(); }

    /// The kernel's single Output array.
    ArrayId output_array() const {
        ArrayId out_id;
        for (size_t a = 0; a < kernel().arrays().size(); ++a) {
            if (kernel().arrays()[a].storage == StorageClass::Output) {
                EXPECT_FALSE(out_id.valid()) << "driver prints one output";
                out_id = ArrayId(static_cast<int32_t>(a));
            }
        }
        return out_id;
    }

    /// Writes a main() that feeds every Input array its raw stimulus, runs
    /// the generated function and prints the Output array; returns the
    /// printed raw outputs.
    std::vector<long long> compile_and_run(const FixedCResult& gen,
                                           const std::string& tag) {
        const FixedPointSpec& spec = flow_->spec;
        const std::string dir = ::testing::TempDir() + "slpwlo_" + tag;
        std::system(("mkdir -p " + dir).c_str());
        {
            std::ofstream emu(dir + "/slpwlo_simd_emu.h");
            emu << simd_emulation_header();
        }
        std::ofstream src(dir + "/gen.c");
        src << gen.code << "\n#include <stdio.h>\n";
        src << "int main(void) {\n";
        std::vector<std::string> args;
        for (size_t a = 0; a < kernel().arrays().size(); ++a) {
            const ArrayDecl& decl = kernel().arrays()[a];
            if (decl.storage != StorageClass::Input &&
                decl.storage != StorageClass::Output) {
                continue;
            }
            const FixedFormat fmt =
                spec.array_format(ArrayId(static_cast<int32_t>(a)));
            src << "  static " << c_int_type(fmt.wl()) << " " << decl.name
                << "[" << decl.size << "] = {";
            for (int i = 0; decl.storage == StorageClass::Input &&
                            i < decl.size;
                 ++i) {
                src << raw_fixed_value(stimulus_[a][static_cast<size_t>(i)],
                                       fmt, spec.quant_mode())
                    << (i + 1 < decl.size ? "," : "");
            }
            src << "};\n";
            args.push_back(decl.name);
        }
        const ArrayDecl& out = kernel().array(output_array());
        src << "  " << gen.function_name << "(" << join(args, ", ")
            << ");\n";
        src << "  for (int i = 0; i < " << out.size
            << "; ++i) printf(\"%lld\\n\", (long long)" << out.name
            << "[i]);\n";
        src << "  return 0;\n}\n";
        src.close();

        const std::string bin = dir + "/gen";
        const std::string cmd =
            "cc -std=c99 -O1 -I " + dir + " -o " + bin + " " + dir + "/gen.c";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << "generated C must compile";

        std::vector<long long> values;
        FILE* pipe = popen((bin).c_str(), "r");
        EXPECT_NE(pipe, nullptr);
        long long v = 0;
        while (fscanf(pipe, "%lld", &v) == 1) values.push_back(v);
        pclose(pipe);
        return values;
    }

    void expect_matches_simulator(const std::vector<long long>& raw_outputs) {
        const FixedSimResult sim =
            run_fixed(kernel(), flow_->spec, stimulus_);
        const double step = flow_->spec.array_format(output_array()).step();
        // The driver prints the whole output array; kernels that shift
        // their writes (IIR warm-up region) leave a zero prefix.
        ASSERT_GE(raw_outputs.size(), sim.outputs.size());
        const size_t offset = raw_outputs.size() - sim.outputs.size();
        for (size_t i = 0; i < offset; ++i) {
            EXPECT_EQ(raw_outputs[i], 0) << "warm-up element " << i;
        }
        for (size_t i = 0; i < sim.outputs.size(); ++i) {
            const long long expected =
                static_cast<long long>(std::llround(sim.outputs[i] / step));
            EXPECT_EQ(raw_outputs[i + offset], expected) << "output " << i;
        }
    }

    std::unique_ptr<KernelContext> context_;
    std::optional<FlowResult> flow_;
    Stimulus stimulus_;
};

TEST_P(CodegenRoundTrip, FixedCMatchesSimulatorBitExactly) {
    const FixedCResult gen = emit_fixed_c(kernel(), flow_->spec);
    expect_matches_simulator(
        compile_and_run(gen, "fixed_" + case_name(GetParam())));
}

TEST_P(CodegenRoundTrip, SimdCMatchesSimulatorBitExactly) {
    ASSERT_FALSE(flow_->groups.empty()) << "the flow selected no groups";
    const FixedCResult gen =
        emit_simd_c(kernel(), flow_->spec, flow_->groups);
    EXPECT_TRUE(contains(gen.code, "SLPWLO_V"));
    expect_matches_simulator(
        compile_and_run(gen, "simd_" + case_name(GetParam())));
}

std::vector<RoundTripCase> round_trip_cases() {
    std::vector<RoundTripCase> cases;
    for (const char* kernel : {"FIR", "IIR", "CONV", "DOT"}) {
        for (const QuantMode mode : {QuantMode::Truncate, QuantMode::Round}) {
            for (const char* target : {"XENTIUM", "NEON128"}) {
                cases.push_back({kernel, target, mode});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(RegistryKernels, CodegenRoundTrip,
                         ::testing::ValuesIn(round_trip_cases()),
                         round_trip_name);

}  // namespace
}  // namespace slpwlo
