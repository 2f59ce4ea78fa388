// SIMD C code generation (the "Fixed-point / SIMD C Back-End" of Fig. 3).
//
// emit_simd_c is the fixed-point emitter of fixed_c.hpp with the selected
// groups as a branch: each group becomes a sequence over the abstract SIMD
// macro API of slpwlo_simd_emu.h (SLPWLO_VLOAD / VADD / VMUL / VSHR / VGET
// / ...), everything else is the same scalar fixed-point code, and specs
// outside the C raw-integer domain are refused the same way. Lane values
// are extracted back to their scalar variables after each group, leaving
// register optimization (keeping vectors live across iterations) to the
// target C compiler — exactly the division of labour of the paper's macro
// backend.
//
// The macros saturate and scale with the unit's own slpwlo_sat /
// slpwlo_shr, so the emitted code is bit-exact with the run_fixed
// simulator under both truncation and round-to-nearest
// (integration-tested by compiling and running it).
#pragma once

#include "codegen/fixed_c.hpp"
#include "core/slp_aware_wlo.hpp"

namespace slpwlo {

/// The portable emulation implementation of the abstract macro API.
/// Target ports replace this header with intrinsic mappings (see
/// simd_target_mapping_comment).
std::string simd_emulation_header();

/// Commented intrinsic-mapping notes for a built-in target, to seed a port.
std::string simd_target_mapping_comment(const TargetModel& target);

/// The fixed-point program with `groups` (a flow's FlowResult::groups) as
/// vector macros; entry point `<kernel>_simd`. Throws Error when `spec`
/// has formats outside the C raw-integer domain (see spec_fits_c_domain).
FixedCResult emit_simd_c(const Kernel& kernel, const FixedPointSpec& spec,
                         const std::vector<BlockGroups>& groups);

}  // namespace slpwlo
