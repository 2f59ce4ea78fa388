#include "codegen/simd_c.hpp"

#include <cctype>
#include <map>

#include "accuracy/noise_source.hpp"
#include "codegen/c_emitter.hpp"
#include "lower/lowering.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace slpwlo {

std::string simd_emulation_header() {
    return R"(/* slpwlo_simd_emu.h — portable emulation of the abstract SIMD macro API.
 * A target port implements the same macros with the processor's intrinsics
 * (see simd_target_mapping_comment for mapping notes). */
#ifndef SLPWLO_SIMD_EMU_H
#define SLPWLO_SIMD_EMU_H
#include <stdint.h>

#define SLPWLO_MAX_LANES 8
typedef struct { int64_t lane[SLPWLO_MAX_LANES]; } slpwlo_vec;

static inline int64_t slpwlo_vsat(int64_t v, int bits) {
    const int64_t hi = (((int64_t)1) << (bits - 1)) - 1;
    const int64_t lo = -(((int64_t)1) << (bits - 1));
    return v < lo ? lo : (v > hi ? hi : v);
}

/* contiguous vector load, ascending addresses */
#define SLPWLO_VLOAD(dst, arr, start, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (arr)[(start) + _i]; } while (0)
/* contiguous vector load, lanes reversed (convolution access pattern) */
#define SLPWLO_VLOADR(dst, arr, start, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (arr)[(start) + (n) - 1 - _i]; } while (0)
/* contiguous vector store with per-store saturation */
#define SLPWLO_VSTORE(arr, start, src, n, bits) \
    do { for (int _i = 0; _i < (n); ++_i) (arr)[(start) + _i] = slpwlo_vsat((src).lane[_i], (bits)); } while (0)

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
/* arithmetic shift right by a common amount (truncation scaling) */
#define SLPWLO_VSHR(dst, a, k, n) \
    do { for (int _i = 0; _i < (n); ++_i) (dst).lane[_i] = (a).lane[_i] >> (k); } while (0)
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
        os << " *   SLPWLO_VSHR         -> vector shift, common amount only\n";
        os << " *   SLPWLO_VLOAD/VSTORE -> aligned packed memory access\n";
        os << " *   SLPWLO_VSET/VGET    -> insert/extract lane ("
           << target.extract_ops << " op(s))\n";
    }
    os << " */\n";
    return os.str();
}

namespace {

class SimdCEmitter {
public:
    SimdCEmitter(const Kernel& kernel, const FixedPointSpec& spec,
                 const std::vector<BlockGroups>& groups)
        : kernel_(kernel),
          spec_(spec),
          groups_(groups),
          def_nodes_(compute_var_def_nodes(kernel)) {}

    FixedCResult run() {
        FixedCResult result;
        std::string fn;
        for (const char c : kernel_.name()) {
            fn += (std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
        }
        result.function_name = fn + "_simd";
        prologue(result.function_name);
        emit_region(kernel_.body());
        w_.close();
        result.code = w_.str();
        return result;
    }

private:
    const std::vector<SimdGroup>* groups_of(BlockId block) const {
        for (const BlockGroups& bg : groups_) {
            if (bg.block == block) return &bg.groups;
        }
        return nullptr;
    }

    int fwl_of_var(VarId v) const {
        const NodeRef node = def_nodes_[static_cast<size_t>(v.index())];
        SLPWLO_ASSERT(node.valid(), "read of a never-defined variable");
        return spec_.format(node).fwl;
    }

    std::string aligned(VarId v, int target_fwl) const {
        const std::string name = c_name(kernel_, v);
        const int k = fwl_of_var(v) - target_fwl;
        if (k == 0) return "(int64_t)" + name;
        if (k > 0) {
            return "(((int64_t)" + name + ") >> " + std::to_string(k) + ")";
        }
        return "(((int64_t)" + name + ") << " + std::to_string(-k) + ")";
    }

    /// `aligned` with the negation folded in before the shift (the shift
    /// is floor; floor(-v) != -floor(v) when bits drop).
    std::string aligned_negated(VarId v, int target_fwl) const {
        const std::string name = c_name(kernel_, v);
        const int k = fwl_of_var(v) - target_fwl;
        if (k == 0) return "(-(int64_t)" + name + ")";
        if (k > 0) {
            return "((-(int64_t)" + name + ") >> " + std::to_string(k) + ")";
        }
        return "((-(int64_t)" + name + ") << " + std::to_string(-k) + ")";
    }

    std::string sat(const std::string& expr, int wl) const {
        std::string out = "(";
        out.append(c_int_type(wl))
            .append(")slpwlo_vsat(")
            .append(expr)
            .append(", ")
            .append(std::to_string(wl))
            .append(")");
        return out;
    }

    void prologue(const std::string& function_name) {
        w_.line("/* generated by slpwlo: SIMD implementation of `" +
                kernel_.name() + "` over the abstract macro API */");
        w_.line("#include \"slpwlo_simd_emu.h\"");
        w_.blank();
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
            w_.line("static const " + c_int_type(fmt.wl()) + " " + decl.name +
                    "[" + std::to_string(decl.size) + "] = {" +
                    join(values, ", ") + "};");
        }
        std::vector<std::string> params;
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            const FixedFormat fmt =
                spec_.array_format(ArrayId(static_cast<int32_t>(a)));
            if (decl.storage == StorageClass::Input) {
                params.push_back("const " + c_int_type(fmt.wl()) + " " +
                                 decl.name + "[]");
            } else if (decl.storage == StorageClass::Output) {
                params.push_back(c_int_type(fmt.wl()) + " " + decl.name +
                                 "[]");
            }
            (void)fmt;
        }
        w_.blank();
        w_.open("void " + function_name + "(" + join(params, ", ") + ")");
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            if (decl.storage != StorageClass::Buffer) continue;
            const FixedFormat fmt =
                spec_.array_format(ArrayId(static_cast<int32_t>(a)));
            w_.line(c_int_type(fmt.wl()) + " " + decl.name + "[" +
                    std::to_string(decl.size) + "] = {0};");
        }
        for (size_t v = 0; v < kernel_.vars().size(); ++v) {
            const NodeRef node = def_nodes_[v];
            if (!node.valid()) continue;
            w_.line(c_int_type(spec_.format(node).wl()) + " " +
                    c_name(kernel_, VarId(static_cast<int32_t>(v))) + " = 0;");
        }
        w_.line("slpwlo_vec va, vb, vr;");
        w_.line("(void)va; (void)vb; (void)vr;");
        w_.blank();
    }

    void emit_region(const Region& region) {
        for (const RegionItem& item : region.items) {
            if (item.kind == RegionItem::Kind::Block) {
                emit_block(item.block);
            } else {
                const Loop& loop = kernel_.loop(item.loop);
                const std::string v = c_loop_name(kernel_, loop.id);
                w_.open("for (int " + v + " = " + std::to_string(loop.begin) +
                        "; " + v + " < " + std::to_string(loop.end) + "; ++" +
                        v + ")");
                emit_region(loop.body);
                w_.close();
            }
        }
    }

    void emit_block(BlockId block) {
        const std::vector<SimdGroup>* groups = groups_of(block);
        static const std::vector<SimdGroup> none;
        const std::vector<SimdGroup>& gs = groups != nullptr ? *groups : none;

        for (const int unit : block_unit_order(kernel_, block, gs)) {
            if (unit >= 0) {
                emit_scalar_op(
                    kernel_.block(block).ops[static_cast<size_t>(unit)]);
            } else {
                emit_group(gs[static_cast<size_t>(-unit - 1)]);
            }
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
                // value (the shift is floor, and floor(-v) != -floor(v)),
                // matching the simulator's quantize-the-result order.
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
                    expr = "(" + expr + " >> " + std::to_string(k) + ")";
                } else if (k < 0) {
                    expr = "(" + expr + " << " + std::to_string(-k) + ")";
                }
            }
            w_.line(c_name(kernel_, lop.dest) + " = " + sat(expr, fmt.wl()) +
                    ";");
        }
    }

    // --- scalar ops (same semantics as the fixed-point emitter) -----------------

    void emit_scalar_op(OpId op_id) {
        const Op& op = kernel_.op(op_id);
        switch (op.kind) {
            case OpKind::Const: {
                const FixedFormat fmt = spec_.result_format(op_id);
                w_.line(c_name(kernel_, op.dest) + " = " +
                        std::to_string(raw_fixed_value(
                            op.const_value, fmt, spec_.quant_mode())) +
                        ";");
                break;
            }
            case OpKind::Copy:
            case OpKind::Neg: {
                const FixedFormat fmt = spec_.result_format(op_id);
                // Neg: negate *before* the alignment shift (floor(-v) !=
                // -floor(v)), same order as the fixed-point emitter.
                const std::string src =
                    op.kind == OpKind::Neg
                        ? aligned_negated(op.args[0], fmt.fwl)
                        : aligned(op.args[0], fmt.fwl);
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(src, fmt.wl()) + ";");
                break;
            }
            case OpKind::Load:
                w_.line(c_name(kernel_, op.dest) + " = " +
                        kernel_.array(op.array).name + "[" +
                        c_index(kernel_, op.index) + "];");
                break;
            case OpKind::Store: {
                const FixedFormat fmt = spec_.array_format(op.array);
                w_.line(kernel_.array(op.array).name + "[" +
                        c_index(kernel_, op.index) + "] = " +
                        sat(aligned(op.args[0], fmt.fwl), fmt.wl()) + ";");
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
                const int k = fwl_of_var(op.args[0]) +
                              fwl_of_var(op.args[1]) - fmt.fwl;
                std::string product = "(int64_t)" +
                                      c_name(kernel_, op.args[0]) + " * " +
                                      c_name(kernel_, op.args[1]);
                if (k > 0) {
                    product = "((" + product + ") >> " + std::to_string(k) +
                              ")";
                } else if (k < 0) {
                    product = "((" + product + ") << " + std::to_string(-k) +
                              ")";
                }
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(product, fmt.wl()) + ";");
                break;
            }
            case OpKind::Div:
                throw Error("SIMD C generation does not support division");
        }
    }

    const Kernel& kernel_;
    const FixedPointSpec& spec_;
    const std::vector<BlockGroups>& groups_;
    std::vector<NodeRef> def_nodes_;
    CodeWriter w_;
};

}  // namespace

FixedCResult emit_simd_c(const Kernel& kernel, const FixedPointSpec& spec,
                         const std::vector<BlockGroups>& groups) {
    return SimdCEmitter(kernel, spec, groups).run();
}

}  // namespace slpwlo
