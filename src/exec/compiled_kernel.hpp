// CompiledKernel: a kernel + fixed-point spec compiled to native code.
//
// The translation unit holds only what runs (see DESIGN.md §12): the
// instrumented fixed-point body (codegen/fixed_c with overflow counting and
// output-trace recording) and a stimuli-batched wrapper
//   void <kernel>_fixed_batch(const int64_t* in, int64_t* out,
//                             long long* ovf, int n);
// `in` is n stimuli of raw input integers (input arrays concatenated in
// declaration order), `out` receives n output traces of raw integers in
// execution order, `ovf[s]` accumulates stimulus s's dynamic saturation
// events (the caller seeds it with the host-side input/param quantization
// counts). Reference traces come from run_double on the SimTape, not from
// the object.
//
// Objects are compiled through the on-disk JitCache and dlopen'ed; the
// handle is closed on destruction. Identity contract: for every stimulus,
// raw outputs scaled by output_step() and the seeded overflow counter are
// bit-identical to SimTape::run_fixed's outputs/overflow_count (enforced by
// tests/test_compiled_exec.cpp, which also holds the double reference
// emitter codegen/ref_c bit-identical to run_double on its own objects).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixpoint/spec.hpp"
#include "sim/double_sim.hpp"

namespace slpwlo::exec {

/// Fingerprint of every node format in the spec (+ quant mode): the
/// format-set component of the JitCache key.
uint64_t spec_format_fingerprint(const FixedPointSpec& spec);

/// The C translation unit CompiledKernel::create compiles for (kernel,
/// spec): the emit_fixed_c body (overflow counting and output trace on)
/// followed by its stimuli-batched wrapper `function_name + "_batch"`.
/// jit_key_hash does not hash this source, so tests pin its bytes; a change
/// that moves them needs a `slpwlo-jit-vN` bump in jit_cache.cpp.
struct JitSource {
    std::string code;
    std::string function_name;
};
JitSource jit_translation_unit(const Kernel& kernel,
                               const FixedPointSpec& spec);

class CompiledKernel {
public:
    /// Emit, compile (through the JitCache) and load. Returns nullptr with
    /// a diagnostic in `error` when no toolchain is usable or the object
    /// cannot be built/loaded — callers degrade to the SimTape.
    static std::unique_ptr<CompiledKernel> create(const Kernel& kernel,
                                                  const FixedPointSpec& spec,
                                                  std::string* error);

    ~CompiledKernel();
    CompiledKernel(const CompiledKernel&) = delete;
    CompiledKernel& operator=(const CompiledKernel&) = delete;

    /// Raw input elements per stimulus (input arrays concatenated).
    size_t input_elems() const { return input_elems_; }
    /// Output-trace entries per stimulus.
    size_t output_count() const { return output_steps_.size(); }

    /// Quantize `stimulus` into `slab` (input_elems() raw integers);
    /// returns the number of input-quantization saturation events — the
    /// host-side half of run_fixed's initial-memory pass.
    long long pack_stimulus(const Stimulus& stimulus, int64_t* slab) const;

    /// Param-array quantization saturation events, incurred once per replay.
    long long param_overflow_count() const { return param_overflows_; }

    /// n stimuli through the fixed-point body. `out` holds n*output_count()
    /// raw integers; `ovf` n counters the callee increments in place.
    void run_fixed_batch(const int64_t* in, int64_t* out, long long* ovf,
                         int n) const;

    /// 2^-fwl of the Output array behind trace slot `i`: raw * step = value.
    double output_step(size_t i) const { return output_steps_[i]; }
    const std::vector<double>& output_steps() const { return output_steps_; }

    const std::string& so_path() const { return so_path_; }

private:
    CompiledKernel() = default;

    struct InputSlot {
        int32_t array = 0;  ///< ArrayId index into the stimulus
        size_t offset = 0;  ///< element offset in the slab
        size_t size = 0;
        FixedFormat format;
    };

    void* handle_ = nullptr;
    void (*fixed_batch_)(const int64_t*, int64_t*, long long*, int) = nullptr;
    std::vector<InputSlot> inputs_;
    size_t input_elems_ = 0;
    std::vector<double> output_steps_;
    long long param_overflows_ = 0;
    QuantMode quant_mode_ = QuantMode::Truncate;
    std::string so_path_;
};

}  // namespace slpwlo::exec
