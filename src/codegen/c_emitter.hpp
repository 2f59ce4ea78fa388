// Shared C-emission utilities: identifier sanitization, integer types,
// affine-index expressions, an indenting writer, and the translation-unit
// skeleton every emitter prints (array parameters, zero-initialized
// locals, the loop-nest walk). Internal to src/codegen and src/exec; the
// public entry points are emit_fixed_c, emit_simd_c and emit_ref_c.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fixpoint/spec.hpp"
#include "ir/kernel.hpp"

namespace slpwlo {

struct BlockGroups;
struct FixedCOptions;
struct FixedCResult;

/// C identifier for a variable ("%t3" -> "t3", "acc0" -> "acc0").
std::string c_name(const Kernel& kernel, VarId var);

/// `name` with every character outside [A-Za-z0-9_] replaced by '_'
/// (entry-point stems from kernel names).
std::string c_identifier(const std::string& name);

/// Loop variable name ("n", "k_u", ...), unique per loop.
std::string c_loop_name(const Kernel& kernel, LoopId loop);

/// Smallest standard integer type holding `wl` bits (int8_t/16/32/64).
std::string c_int_type(int wl);

/// C expression for an affine index, e.g. "18*i + j + 19".
std::string c_index(const Kernel& kernel, const Affine& index);

/// Raw integer value of a real constant in a fixed-point format
/// (truncated and saturated, matching the simulator).
long long raw_fixed_value(double value, const FixedFormat& format,
                          QuantMode mode);

/// Simple indented code writer.
class CodeWriter {
public:
    void line(const std::string& text);
    void blank();
    void open(const std::string& text);   ///< "text {" and indent
    void close(const std::string& tail = "}");
    std::string str() const { return out_.str(); }

private:
    std::ostringstream out_;
    int indent_ = 0;
};

/// One parameter per Input ("const T name[size]") and Output
/// ("T name[size]") array, in declaration order; `type` gives an array's
/// C element type.
std::vector<std::string> c_array_params(
    const Kernel& kernel, const std::function<std::string(ArrayId)>& type);

/// Zero-initialized function-scope declarations: every Buffer array
/// ("T name[size] = {0};", as the simulator assumes), then every variable
/// with a defining node ("T name = 0;"). `def_nodes` comes from
/// compute_var_def_nodes(kernel).
void c_declare_locals(CodeWriter& w, const Kernel& kernel,
                      const std::vector<NodeRef>& def_nodes,
                      const std::function<std::string(ArrayId)>& array_type,
                      const std::function<std::string(NodeRef)>& var_type);

/// The loop nest of `region` in walk order: a `for` per loop, a call to
/// `emit_block` per block.
void c_emit_region(CodeWriter& w, const Kernel& kernel, const Region& region,
                   const std::function<void(BlockId)>& emit_block);

/// The fixed-point C emitter behind emit_fixed_c (`groups` null: the
/// scalar program `<kernel>_fixed`) and emit_simd_c (`groups` set: the
/// same program with the selected groups as vector macros,
/// `<kernel>_simd`). Throws Error when `spec` is outside the C raw-integer
/// domain (spec_fits_c_domain). Defined in fixed_c.cpp.
FixedCResult emit_fixed_point_c(const Kernel& kernel,
                                const FixedPointSpec& spec,
                                const FixedCOptions& options,
                                const std::vector<BlockGroups>* groups);

}  // namespace slpwlo
