// Noise-gain calibration by linearized perturbation analysis.
//
// For every noise-injection point we need two structural constants that do
// not depend on the fixed-point specification:
//
//   A = sum over injection events within one steady-state period of
//       sum_n h(n)^2   -- multiplies the source variance,
//   B = sum of h(n)    -- multiplies the source mean (DC accumulation),
//
// where h(n) is the output response to a unit perturbation at that point.
// They are measured by finite differences on the double-precision simulator
// (exact for the linear/LTI kernels this paper evaluates: every multiply is
// signal x coefficient). With them, the analytical noise power of a spec is
//
//   P = sum_s var_s * A_s + ( sum_s mean_s * B_s )^2
//
// evaluated in O(#static ops) — fast enough for the tens of thousands of
// EVALACC calls the joint optimization issues. See DESIGN.md section 4.
//
// Each perturbed run is a sparse differential replay against one recorded
// base run: only steps that read a value differing from the base run are
// recomputed, and a run stops once no differing value is read again. The
// gains are bit-identical to one full double replay per injection
// (tests/gain_reference.hpp keeps that dense form as the reference).
//
// Op sources: A/B are accumulated over the op's dynamic instances within one
// iteration of the outermost (sample) loop, injecting at a mid-stream
// iteration. Array sources: input arrays use a mid-element time-shift
// measurement; coefficient arrays sample elements and scale by element count
// (DESIGN.md, "Known deviations" #4).
#pragma once

#include <vector>

#include "ir/kernel.hpp"

namespace slpwlo {

struct NodeGains {
    double a = 0.0;  ///< variance gain
    double b = 0.0;  ///< DC gain
};

struct KernelGains {
    /// Per static op, aggregated over its per-sample dynamic instances.
    std::vector<NodeGains> op_gains;
    /// Per array (meaningful for Input and Param storage).
    std::vector<NodeGains> array_gains;
    /// Output trace length of the calibration run.
    long long n_outputs = 0;
};

struct GainOptions {
    /// Finite-difference step.
    double delta = 1.0 / 1024.0;
    /// Stimulus seed for the nominal run.
    uint64_t seed = 0xCA11B;
    /// Number of sampled elements for array-source calibration.
    int array_samples = 8;
};

/// Throws Error when the kernel produces no outputs, or a non-finite one
/// under the calibration stimulus.
KernelGains analyze_gains(const Kernel& kernel, const GainOptions& options = {});

}  // namespace slpwlo
