#include "codegen/fixed_c.hpp"

#include <algorithm>

#include "accuracy/noise_source.hpp"
#include "codegen/c_emitter.hpp"
#include "core/slp_aware_wlo.hpp"
#include "lower/lowering.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace slpwlo {
namespace {

/// The one fixed-point C printer. Without groups it emits the scalar
/// program; with groups (emit_simd_c) it walks each grouped block in
/// block_unit_order and turns every group into a vector macro sequence
/// over slpwlo_simd_emu.h, while every other op stays the same scalar
/// code — so the SIMD program shares the scalar one's quantizing shifts
/// and saturation by construction.
class FixedCEmitter {
public:
    FixedCEmitter(const Kernel& kernel, const FixedPointSpec& spec,
                  const FixedCOptions& options,
                  const std::vector<BlockGroups>* groups)
        : kernel_(kernel),
          spec_(spec),
          options_(options),
          groups_(groups),
          def_nodes_(compute_var_def_nodes(kernel)) {}

    FixedCResult run() {
        FixedCResult result;
        result.function_name =
            c_identifier(kernel_.name()) +
            (groups_ != nullptr ? "_simd" : "_fixed");
        prologue(result.function_name);
        c_emit_region(w_, kernel_, kernel_.body(),
                      [this](BlockId block) { emit_block(block); });
        w_.close();
        result.code = w_.str();
        return result;
    }

private:
    int fwl_of_var(VarId v) const {
        const NodeRef node = def_nodes_[static_cast<size_t>(v.index())];
        SLPWLO_ASSERT(node.valid(), "read of a never-defined variable");
        return spec_.format(node).fwl;
    }

    /// Operand expression shifted from its own fwl to `target_fwl`.
    std::string aligned(VarId v, int target_fwl) const {
        const std::string name = c_name(kernel_, v);
        const int k = fwl_of_var(v) - target_fwl;
        if (k == 0) return "(int64_t)" + name;
        if (k > 0) {
            return "slpwlo_shr((int64_t)" + name + ", " + std::to_string(k) +
                   ")";
        }
        return "((int64_t)" + name + " << " + std::to_string(-k) + ")";
    }

    /// Operand negated at its own fwl, then shifted to `target_fwl`. The
    /// shift must see the negated value: both quantization modes are
    /// floor-based (floor(v), floor(v + 1/2)) and floor(-v) != -floor(v),
    /// so align-then-negate diverges from the simulator (which quantizes
    /// the negated result) whenever the shift drops bits.
    std::string aligned_negated(VarId v, int target_fwl) const {
        const std::string name = c_name(kernel_, v);
        const int k = fwl_of_var(v) - target_fwl;
        if (k == 0) return "(-(int64_t)" + name + ")";
        if (k > 0) {
            return "slpwlo_shr(-(int64_t)" + name + ", " + std::to_string(k) +
                   ")";
        }
        return "((-(int64_t)" + name + ") << " + std::to_string(-k) + ")";
    }

    std::string sat(const std::string& expr, int wl) const {
        std::string out = "(";
        out.append(c_int_type(wl))
            .append(")slpwlo_sat(")
            .append(expr)
            .append(", ")
            .append(std::to_string(wl))
            .append(options_.count_overflows ? ", slpwlo_ovf)" : ")");
        return out;
    }

    void prologue(const std::string& function_name) {
        if (groups_ != nullptr) {
            w_.line("/* generated by slpwlo: SIMD implementation of `" +
                    kernel_.name() + "` over the abstract macro API */");
        } else {
            w_.line("/* generated by slpwlo: fixed-point implementation of `" +
                    kernel_.name() + "` */");
        }
        w_.line("#include <stdint.h>");
        // The macros call the slpwlo_sat / slpwlo_shr defined below; they
        // expand at their use sites in the body.
        if (groups_ != nullptr) w_.line("#include \"slpwlo_simd_emu.h\"");
        w_.blank();
        if (options_.count_overflows) {
            // Saturation counts exactly once per dynamic clamping event,
            // matching run_fixed's quantize_into.
            w_.line(
                "static inline int64_t slpwlo_sat(int64_t v, int bits, "
                "long long* ovf) {");
            w_.line("    const int64_t hi = (((int64_t)1) << (bits - 1)) - 1;");
            w_.line("    const int64_t lo = -(((int64_t)1) << (bits - 1));");
            w_.line("    if (v < lo) { ++*ovf; return lo; }");
            w_.line("    if (v > hi) { ++*ovf; return hi; }");
            w_.line("    return v;");
            w_.line("}");
        } else {
            w_.line("static inline int64_t slpwlo_sat(int64_t v, int bits) {");
            w_.line("    const int64_t hi = (((int64_t)1) << (bits - 1)) - 1;");
            w_.line("    const int64_t lo = -(((int64_t)1) << (bits - 1));");
            w_.line("    return v < lo ? lo : (v > hi ? hi : v);");
            w_.line("}");
        }
        if (spec_.quant_mode() == QuantMode::Truncate) {
            w_.line("/* truncation: arithmetic shift right (floor) */");
            w_.line("static inline int64_t slpwlo_shr(int64_t v, int k) {");
            w_.line("    return v >> k;");
            w_.line("}");
        } else {
            w_.line("/* round-to-nearest, half up */");
            w_.line("static inline int64_t slpwlo_shr(int64_t v, int k) {");
            w_.line("    return (v + (((int64_t)1) << (k - 1))) >> k;");
            w_.line("}");
        }
        w_.blank();

        // Coefficient arrays as raw fixed-point data.
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            if (decl.storage != StorageClass::Param) continue;
            const FixedFormat fmt =
                spec_.array_format(ArrayId(static_cast<int32_t>(a)));
            std::vector<std::string> values;
            for (const double v : decl.values) {
                values.push_back(std::to_string(
                    raw_fixed_value(v, fmt, spec_.quant_mode())));
            }
            w_.line("/* " + decl.name + ": format " + fmt.str() + " */");
            w_.line("static const " + c_int_type(fmt.wl()) + " " + decl.name +
                    "[" + std::to_string(decl.size) + "] = {" +
                    join(values, ", ") + "};");
        }
        w_.blank();

        // Signature: inputs const, outputs mutable, raw integer domain.
        const auto array_type = [this](ArrayId array) {
            return c_int_type(spec_.array_format(array).wl());
        };
        std::vector<std::string> params = c_array_params(kernel_, array_type);
        if (options_.record_trace) params.push_back("int64_t* slpwlo_trace");
        if (options_.count_overflows) params.push_back("long long* slpwlo_ovf");
        w_.open("void " + function_name + "(" + join(params, ", ") + ")");

        // Storage type of scratch buffers and variables from each node's WL.
        c_declare_locals(w_, kernel_, def_nodes_, array_type,
                         [this](NodeRef node) {
                             return c_int_type(spec_.format(node).wl());
                         });
        if (groups_ != nullptr) {
            w_.line("slpwlo_vec va, vb, vr;");
            w_.line("(void)va; (void)vb; (void)vr;");
        }
        w_.blank();
    }

    void emit_block(BlockId block) {
        const std::vector<SimdGroup>* groups = groups_of(block);
        if (groups == nullptr) {
            for (const OpId op : kernel_.block(block).ops) emit_op(op);
            return;
        }
        for (const int unit : block_unit_order(kernel_, block, *groups)) {
            if (unit >= 0) {
                emit_op(kernel_.block(block).ops[static_cast<size_t>(unit)]);
            } else {
                emit_group((*groups)[static_cast<size_t>(-unit - 1)]);
            }
        }
    }

    const std::vector<SimdGroup>* groups_of(BlockId block) const {
        if (groups_ == nullptr) return nullptr;
        for (const BlockGroups& bg : *groups_) {
            if (bg.block == block) return &bg.groups;
        }
        return nullptr;
    }

    void emit_op(OpId op_id) {
        const Op& op = kernel_.op(op_id);
        const QuantMode mode = spec_.quant_mode();
        switch (op.kind) {
            case OpKind::Const: {
                const FixedFormat fmt = spec_.result_format(op_id);
                if (options_.count_overflows) {
                    // The simulator clamps (and counts) the literal on every
                    // execution; the saturation is resolved at emission time
                    // here, so re-emit the count as a plain increment.
                    bool overflowed = false;
                    quantize_saturate(op.const_value, fmt, mode, &overflowed);
                    if (overflowed) {
                        w_.line("++*slpwlo_ovf;  /* const saturates */");
                    }
                }
                w_.line(c_name(kernel_, op.dest) + " = " +
                        std::to_string(
                            raw_fixed_value(op.const_value, fmt, mode)) +
                        ";  /* " + format_double(op.const_value) + " in " +
                        fmt.str() + " */");
                break;
            }
            case OpKind::Copy:
            case OpKind::Neg: {
                const FixedFormat fmt = spec_.result_format(op_id);
                const std::string value =
                    op.kind == OpKind::Neg
                        ? aligned_negated(op.args[0], fmt.fwl)
                        : aligned(op.args[0], fmt.fwl);
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(value, fmt.wl()) + ";");
                break;
            }
            case OpKind::Load:
                w_.line(c_name(kernel_, op.dest) + " = " +
                        kernel_.array(op.array).name + "[" +
                        c_index(kernel_, op.index) + "];");
                break;
            case OpKind::Store: {
                const FixedFormat fmt = spec_.array_format(op.array);
                const std::string element = kernel_.array(op.array).name +
                                            "[" + c_index(kernel_, op.index) +
                                            "]";
                w_.line(element + " = " +
                        sat(aligned(op.args[0], fmt.fwl), fmt.wl()) + ";");
                if (options_.record_trace &&
                    kernel_.array(op.array).storage == StorageClass::Output) {
                    w_.line("*slpwlo_trace++ = (int64_t)" + element + ";");
                }
                break;
            }
            case OpKind::Add:
            case OpKind::Sub: {
                const FixedFormat fmt = spec_.result_format(op_id);
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(aligned(op.args[0], fmt.fwl) +
                                (op.kind == OpKind::Add ? " + " : " - ") +
                                aligned(op.args[1], fmt.fwl),
                            fmt.wl()) +
                        ";");
                break;
            }
            case OpKind::Mul: {
                const FixedFormat fmt = spec_.result_format(op_id);
                const int full =
                    fwl_of_var(op.args[0]) + fwl_of_var(op.args[1]);
                const int k = full - fmt.fwl;
                std::string product = "(int64_t)" +
                                      c_name(kernel_, op.args[0]) + " * " +
                                      c_name(kernel_, op.args[1]);
                if (k > 0) {
                    product = "slpwlo_shr(" + product + ", " +
                              std::to_string(k) + ")";
                } else if (k < 0) {
                    product = "((" + product + ") << " + std::to_string(-k) +
                              ")";
                }
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(product, fmt.wl()) + ";");
                break;
            }
            case OpKind::Div:
                throw Error(
                    "fixed-point C generation does not support division "
                    "(none of the supported kernels use it)");
        }
    }

    // --- groups ----------------------------------------------------------------

    bool adjacent(const SimdGroup& group, bool* reversed) const {
        bool fwd = true, rev = true;
        for (size_t i = 1; i < group.lanes.size(); ++i) {
            const auto d = kernel_.op(group.lanes[i])
                               .index.constant_difference(
                                   kernel_.op(group.lanes[i - 1]).index);
            if (!d.has_value() || *d != 1) fwd = false;
            if (!d.has_value() || *d != -1) rev = false;
        }
        *reversed = !fwd && rev;
        return fwd || rev;
    }

    void emit_group(const SimdGroup& group) {
        const Op& first = kernel_.op(group.lanes.front());
        const int w = group.width();
        const std::string n = std::to_string(w);
        switch (first.kind) {
            case OpKind::Load: {
                bool reversed = false;
                if (adjacent(group, &reversed)) {
                    const Affine& start =
                        kernel_
                            .op(reversed ? group.lanes.back()
                                         : group.lanes.front())
                            .index;
                    w_.line(std::string("SLPWLO_VLOAD") +
                            (reversed ? "R" : "") + "(vr, " +
                            kernel_.array(first.array).name + ", " +
                            c_index(kernel_, start) + ", " + n + ");");
                } else {
                    for (int lane = 0; lane < w; ++lane) {
                        const Op& lop = kernel_.op(group.lanes[lane]);
                        w_.line("SLPWLO_VSET(vr, " + std::to_string(lane) +
                                ", " + kernel_.array(lop.array).name + "[" +
                                c_index(kernel_, lop.index) + "]);");
                    }
                }
                extract_lanes(group, /*shift_amounts=*/{});
                break;
            }
            case OpKind::Store: {
                const FixedFormat fmt = spec_.array_format(first.array);
                for (int lane = 0; lane < w; ++lane) {
                    const Op& lop = kernel_.op(group.lanes[lane]);
                    w_.line("SLPWLO_VSET(va, " + std::to_string(lane) + ", " +
                            aligned(lop.args[0], fmt.fwl) + ");");
                }
                bool reversed = false;
                if (adjacent(group, &reversed) && !reversed) {
                    w_.line("SLPWLO_VSTORE(" +
                            kernel_.array(first.array).name + ", " +
                            c_index(kernel_, first.index) + ", va, " + n +
                            ", " + std::to_string(fmt.wl()) + ");");
                } else {
                    for (int lane = 0; lane < w; ++lane) {
                        const Op& lop = kernel_.op(group.lanes[lane]);
                        w_.line(kernel_.array(lop.array).name + "[" +
                                c_index(kernel_, lop.index) + "] = " +
                                sat("SLPWLO_VGET(va, " +
                                        std::to_string(lane) + ")",
                                    fmt.wl()) +
                                ";");
                    }
                }
                break;
            }
            case OpKind::Add:
            case OpKind::Sub: {
                // Operands aligned per lane to the lane's result fwl.
                for (int slot = 0; slot < first.num_args(); ++slot) {
                    const std::string vreg = slot == 0 ? "va" : "vb";
                    for (int lane = 0; lane < w; ++lane) {
                        const Op& lop = kernel_.op(group.lanes[lane]);
                        const int fr =
                            spec_.result_format(group.lanes[lane]).fwl;
                        w_.line("SLPWLO_VSET(" + vreg + ", " +
                                std::to_string(lane) + ", " +
                                aligned(lop.args[slot], fr) + ");");
                    }
                }
                const char* macro = first.kind == OpKind::Add
                                        ? "SLPWLO_VADD"
                                        : "SLPWLO_VSUB";
                w_.line(std::string(macro) + "(vr, va, vb, " + n + ");");
                extract_lanes(group, {});
                break;
            }
            case OpKind::Neg: {
                // Negate at the operand's own precision, then scale at
                // extraction: the alignment shift must see the *negated*
                // value (see aligned_negated).
                std::vector<int> amounts;
                amounts.reserve(static_cast<size_t>(w));
                bool any_shift = false;
                for (int lane = 0; lane < w; ++lane) {
                    const Op& lop = kernel_.op(group.lanes[lane]);
                    w_.line("SLPWLO_VSET(va, " + std::to_string(lane) +
                            ", (int64_t)" + c_name(kernel_, lop.args[0]) +
                            ");");
                    const int k =
                        fwl_of_var(lop.args[0]) -
                        spec_.result_format(group.lanes[lane]).fwl;
                    if (k != 0) any_shift = true;
                    amounts.push_back(k);
                }
                w_.line("SLPWLO_VNEG(vr, va, " + n + ");");
                extract_lanes(group, any_shift ? amounts
                                               : std::vector<int>{});
                break;
            }
            case OpKind::Mul: {
                for (int slot = 0; slot < 2; ++slot) {
                    const std::string vreg = slot == 0 ? "va" : "vb";
                    for (int lane = 0; lane < w; ++lane) {
                        const Op& lop = kernel_.op(group.lanes[lane]);
                        w_.line("SLPWLO_VSET(" + vreg + ", " +
                                std::to_string(lane) + ", (int64_t)" +
                                c_name(kernel_, lop.args[slot]) + ");");
                    }
                }
                w_.line("SLPWLO_VMUL(vr, va, vb, " + n + ");");
                // Per-lane product quantization down to the result format.
                std::vector<int> amounts;
                for (const OpId lane : group.lanes) {
                    const Op& lop = kernel_.op(lane);
                    amounts.push_back(fwl_of_var(lop.args[0]) +
                                      fwl_of_var(lop.args[1]) -
                                      spec_.result_format(lane).fwl);
                }
                const bool uniform = std::all_of(
                    amounts.begin(), amounts.end(),
                    [&](int a) { return a == amounts[0]; });
                if (uniform && amounts[0] > 0) {
                    w_.line("SLPWLO_VSHR(vr, vr, " +
                            std::to_string(amounts[0]) + ", " + n + ");");
                    extract_lanes(group, {});
                } else {
                    extract_lanes(group, amounts);
                }
                break;
            }
            default:
                throw Error("SIMD emission for unsupported group kind");
        }
    }

    /// Assign each lane back to its scalar variable, optionally shifting
    /// per lane (non-uniform quantization), saturating to the lane format.
    void extract_lanes(const SimdGroup& group,
                       const std::vector<int>& shift_amounts) {
        for (int lane = 0; lane < group.width(); ++lane) {
            const Op& lop = kernel_.op(group.lanes[lane]);
            if (!lop.dest.valid()) continue;
            const FixedFormat fmt = spec_.result_format(group.lanes[lane]);
            std::string expr =
                "SLPWLO_VGET(vr, " + std::to_string(lane) + ")";
            if (!shift_amounts.empty()) {
                const int k = shift_amounts[static_cast<size_t>(lane)];
                if (k > 0) {
                    expr = "slpwlo_shr(" + expr + ", " + std::to_string(k) +
                           ")";
                } else if (k < 0) {
                    expr = "(" + expr + " << " + std::to_string(-k) + ")";
                }
            }
            w_.line(c_name(kernel_, lop.dest) + " = " + sat(expr, fmt.wl()) +
                    ";");
        }
    }

    const Kernel& kernel_;
    const FixedPointSpec& spec_;
    FixedCOptions options_;
    const std::vector<BlockGroups>* groups_;
    std::vector<NodeRef> def_nodes_;
    CodeWriter w_;
};

}  // namespace

bool spec_fits_c_domain(const FixedPointSpec& spec, std::string* why) {
    for (const NodeRef node : spec.nodes()) {
        const FixedFormat& fmt = spec.format(node);
        const int wl = fmt.wl();
        if (wl >= 1 && wl <= 63) continue;
        if (why != nullptr) {
            *why = "format " + fmt.str() + " (wl=" + std::to_string(wl) +
                   ") does not fit the generated C's raw integer domain "
                   "(need 1 <= wl <= 63)";
        }
        return false;
    }
    return true;
}

FixedCResult emit_fixed_point_c(const Kernel& kernel,
                                const FixedPointSpec& spec,
                                const FixedCOptions& options,
                                const std::vector<BlockGroups>* groups) {
    std::string why;
    SLPWLO_CHECK(spec_fits_c_domain(spec, &why),
                 "cannot emit fixed-point C for `" + kernel.name() +
                     "`: " + why);
    return FixedCEmitter(kernel, spec, options, groups).run();
}

FixedCResult emit_fixed_c(const Kernel& kernel, const FixedPointSpec& spec,
                          const FixedCOptions& options) {
    return emit_fixed_point_c(kernel, spec, options, nullptr);
}

FixedCResult emit_fixed_c(const Kernel& kernel, const FixedPointSpec& spec) {
    return emit_fixed_c(kernel, spec, FixedCOptions{});
}

}  // namespace slpwlo
