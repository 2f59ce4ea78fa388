// Fixed-point C code generation (the "Fixed-point / SIMD C Back-End" of
// Fig. 3/5).
//
// Emits a self-contained C99 translation unit implementing the kernel under
// a fixed-point specification: integer arrays and variables in each node's
// storage type, explicit scalings for operand alignment and product
// quantization (slpwlo_shr: floor under truncation, half-up rounding under
// round-to-nearest), and saturation to each node's range — bit-exact with
// the run_fixed simulator in both quantization modes (integration-tested
// by compiling and running the emitted code against it).
//
// This is the one fixed-point C emitter: emit_simd_c (simd_c.hpp) is the
// same emitter with the selected SIMD groups printed as vector macros, so
// both entry points share the prologue, the scalar ops and the
// spec_fits_c_domain refusal.
//
// Interface of the generated function:
//   void <kernel>_fixed(const T_in* x_raw, T_out* y_raw);
// where raw values are the fixed-point integers (value * 2^fwl); coefficient
// arrays are embedded as static const data.
//
// The compile-and-execute backend (src/exec) asks for two instrumented
// extensions so the compiled artifact can stand in for SimTape::run_fixed
// bit for bit (see DESIGN.md §12):
//   * count_overflows: every saturation site counts into a caller-provided
//     `long long* slpwlo_ovf`, exactly once per dynamic clamping event —
//     including constants that saturate at emission time, which the
//     simulator re-counts on every execution;
//   * record_trace: every store to an Output array appends the stored raw
//     integer to a caller-provided `int64_t* slpwlo_trace` cursor, in
//     execution order (the simulator's output trace).
#pragma once

#include <string>

#include "fixpoint/spec.hpp"

namespace slpwlo {

struct FixedCOptions {
    /// Add `long long* slpwlo_ovf` to the signature and count every dynamic
    /// saturation event into it (matches FixedSimResult::overflow_count for
    /// the op-level sites; input/param quantization is counted host-side).
    bool count_overflows = false;
    /// Add `int64_t* slpwlo_trace` to the signature and append each Output
    /// store's raw value to it, in execution order.
    bool record_trace = false;
};

struct FixedCResult {
    std::string code;           ///< full translation unit
    std::string function_name;  ///< entry point
};

/// True when every node format of `spec` fits the generated C's raw
/// integer domain: 1 <= wl <= 63 (the saturation limits are built with
/// `1 << (wl - 1)` over int64_t). Specs straight out of range analysis can
/// carry degenerate formats (wl <= 0 before WLO assigns word lengths);
/// emitting those would be undefined behavior in the generated C, so
/// callers that cannot fail (the compiled noise evaluator) test this first
/// and fall back to the tape. Writes a diagnostic into `why` when provided.
bool spec_fits_c_domain(const FixedPointSpec& spec,
                        std::string* why = nullptr);

/// Throws Error when `spec` has formats outside the C raw-integer domain
/// (see spec_fits_c_domain).
FixedCResult emit_fixed_c(const Kernel& kernel, const FixedPointSpec& spec,
                          const FixedCOptions& options);

FixedCResult emit_fixed_c(const Kernel& kernel, const FixedPointSpec& spec);

}  // namespace slpwlo
