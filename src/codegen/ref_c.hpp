// Double-precision reference C code generation.
//
// Emits the kernel's reference body as C99 doubles — the exact computation
// run_double performs, in the exact op order the loop-nest walk produces —
// so reference traces can run natively (CompiledKernel objects do not carry
// it: their reference traces come from run_double on the tape).
// Bit-identity with run_double holds because:
//   * coefficient and literal constants are printed as hexadecimal floating
//     literals (%a), which round-trip every double exactly;
//   * the ops are emitted in walk order with one assignment per op, leaving
//     the compiler no reassociation freedom;
//   * the backend compiles with -ffp-contract=off, so no fused
//     multiply-adds are introduced.
//
// Interface of the generated function:
//   void <kernel>_ref(const double* in..., double* out..., double* trace);
// one array parameter per Input/Output declaration; every store to an
// Output array appends the stored value to `trace` in execution order
// (run_double's output trace).
#pragma once

#include <string>

#include "ir/kernel.hpp"

namespace slpwlo {

struct RefCResult {
    std::string code;           ///< full translation unit (no includes needed)
    std::string function_name;  ///< entry point
};

RefCResult emit_ref_c(const Kernel& kernel);

}  // namespace slpwlo
