#include "codegen/simd_c.hpp"

#include <sstream>

#include "codegen/c_emitter.hpp"

namespace slpwlo {

std::string simd_emulation_header() {
    return R"(/* slpwlo_simd_emu.h — portable emulation of the abstract SIMD macro API.
 * A target port implements the same macros with the processor's intrinsics
 * (see simd_target_mapping_comment for mapping notes). Saturation and
 * scaling call the including unit's slpwlo_sat and slpwlo_shr, which the
 * generated prologue defines for its quantization mode; the macros expand
 * at their use sites, after those definitions. */
#ifndef SLPWLO_SIMD_EMU_H
#define SLPWLO_SIMD_EMU_H
#include <stdint.h>

#define SLPWLO_MAX_LANES 8
typedef struct { int64_t lane[SLPWLO_MAX_LANES]; } slpwlo_vec;

/* contiguous vector load, ascending addresses */
#define SLPWLO_VLOAD(dst, arr, start, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (arr)[(start) + _i]; } while (0)
/* contiguous vector load, lanes reversed (convolution access pattern) */
#define SLPWLO_VLOADR(dst, arr, start, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (arr)[(start) + (n) - 1 - _i]; } while (0)
/* contiguous vector store with per-store saturation */
#define SLPWLO_VSTORE(arr, start, src, n, bits) \
    do { for (int _i = 0; _i < (n); ++_i) (arr)[(start) + _i] = slpwlo_sat((src).lane[_i], (bits)); } while (0)

#define SLPWLO_VSET(dst, l, expr) ((dst).lane[(l)] = (int64_t)(expr))
#define SLPWLO_VGET(src, l) ((src).lane[(l)])

#define SLPWLO_VADD(dst, a, b, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (a).lane[_i] + (b).lane[_i]; } while (0)
#define SLPWLO_VSUB(dst, a, b, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (a).lane[_i] - (b).lane[_i]; } while (0)
#define SLPWLO_VMUL(dst, a, b, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (a).lane[_i] * (b).lane[_i]; } while (0)
#define SLPWLO_VNEG(dst, a, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = -(a).lane[_i]; } while (0)
/* shift right by a common amount, quantizing in the unit's mode
 * (slpwlo_shr: floor under truncation, half-up under round-to-nearest) */
#define SLPWLO_VSHR(dst, a, k, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = slpwlo_shr((a).lane[_i], (k)); } while (0)
#define SLPWLO_VSHL(dst, a, k, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (a).lane[_i] << (k); } while (0)

#endif /* SLPWLO_SIMD_EMU_H */
)";
}

std::string simd_target_mapping_comment(const TargetModel& target) {
    std::ostringstream os;
    os << "/* " << target.name << " intrinsic mapping notes:\n";
    if (target.simd_width_bits == 0) {
        os << " *   no SIMD: the macro API degrades to scalar loops.\n";
    } else {
        os << " *   vector width: " << target.simd_width_bits
           << " bits; element WLs:";
        for (const int m : target.simd_element_wls) os << " " << m;
        os << "\n";
        os << " *   SLPWLO_VADD(.., 2)  -> dual " << target.simd_element_wls[0]
           << "-bit add instruction\n";
        os << " *   SLPWLO_VMUL(.., 2)  -> dual multiply (widening)\n";
        os << " *   SLPWLO_VSHR         -> vector shift, common amount only;\n"
           << " *                          a rounding shift under "
              "round-to-nearest\n"
           << " *                          (e.g. NEON vrshr)\n";
        os << " *   SLPWLO_VLOAD/VSTORE -> aligned packed memory access\n";
        os << " *   SLPWLO_VSET/VGET    -> insert/extract lane ("
           << target.extract_ops << " op(s))\n";
    }
    os << " */\n";
    return os.str();
}

FixedCResult emit_simd_c(const Kernel& kernel, const FixedPointSpec& spec,
                         const std::vector<BlockGroups>& groups) {
    return emit_fixed_point_c(kernel, spec, FixedCOptions{}, &groups);
}

}  // namespace slpwlo
