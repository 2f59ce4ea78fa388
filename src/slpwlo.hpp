// slpwlo — umbrella header for the public API.
//
// Reproduction of "Superword Level Parallelism aware Word Length
// Optimization" (El Moussawi & Derrien, DATE 2017): joint float-to-fixed-
// point word-length optimization and SLP extraction for embedded VLIW
// processors. See README.md for a tour and DESIGN.md for the architecture.
//
// Typical use:
//
//   #include "slpwlo.hpp"
//   using namespace slpwlo;
//
//   auto bench = kernels::make_benchmark_kernel("FIR");
//   KernelContext context(std::move(bench.kernel), bench.range_options);
//   FlowOptions options;
//   options.accuracy_db = -35.0;                      // noise budget
//   FlowResult r = run_wlo_slp_flow(context, targets::xentium(), options);
//   std::cout << summarize(r) << "\n"
//             << emit_simd_c(context.kernel(), r.spec, r.groups).code;
//
// emit_simd_c prints the fixed-point program of emit_fixed_c(context.kernel(),
// r.spec) with r.groups as vector macros over slpwlo_simd_emu.h
// (simd_emulation_header()); both are bit-exact with run_fixed in either
// quantization mode.
#pragma once

#include "codegen/fixed_c.hpp"
#include "codegen/simd_c.hpp"
#include "core/slp_aware_wlo.hpp"
#include "core/wlo_first.hpp"
#include "flow/flow.hpp"
#include "flow/pass.hpp"
#include "flow/report.hpp"
#include "flow/sweep.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "frontend/lower_ast.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/unroll.hpp"
#include "ir/verifier.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/kernels.hpp"
#include "target/target_desc.hpp"
#include "target/target_model.hpp"
#include "target/target_registry.hpp"
