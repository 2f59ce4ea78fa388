#include "codegen/ref_c.hpp"

#include <cstdio>

#include "accuracy/noise_source.hpp"
#include "codegen/c_emitter.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace slpwlo {
namespace {

/// Hexadecimal floating literal: round-trips any finite double exactly.
std::string hex_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

class RefCEmitter {
public:
    explicit RefCEmitter(const Kernel& kernel)
        : kernel_(kernel), def_nodes_(compute_var_def_nodes(kernel)) {}

    RefCResult run() {
        RefCResult result;
        result.function_name = c_identifier(kernel_.name()) + "_ref";
        prologue(result.function_name);
        c_emit_region(w_, kernel_, kernel_.body(), [this](BlockId block) {
            for (const OpId op : kernel_.block(block).ops) emit_op(op);
        });
        w_.close();
        result.code = w_.str();
        return result;
    }

private:
    /// Param arrays are file-scope statics; prefix them so the reference
    /// body can share a translation unit with the fixed-point body (whose
    /// statics keep the plain names).
    std::string array_name(ArrayId array) const {
        const ArrayDecl& decl = kernel_.array(array);
        if (decl.storage == StorageClass::Param) {
            return "slpwlo_ref_" + decl.name;
        }
        return decl.name;
    }

    void prologue(const std::string& function_name) {
        w_.line("/* generated by slpwlo: double reference of `" +
                kernel_.name() + "` */");
        w_.blank();

        // Coefficient arrays, exact to the last bit.
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            if (decl.storage != StorageClass::Param) continue;
            std::vector<std::string> values;
            for (const double v : decl.values) values.push_back(hex_double(v));
            w_.line("static const double " +
                    array_name(ArrayId(static_cast<int32_t>(a))) + "[" +
                    std::to_string(decl.size) + "] = {" + join(values, ", ") +
                    "};");
        }
        w_.blank();

        const auto type = [](auto) { return std::string("double"); };
        std::vector<std::string> params = c_array_params(kernel_, type);
        params.push_back("double* slpwlo_trace");
        w_.open("void " + function_name + "(" + join(params, ", ") + ")");
        c_declare_locals(w_, kernel_, def_nodes_, type, type);
        w_.blank();
    }

    void emit_op(OpId op_id) {
        const Op& op = kernel_.op(op_id);
        switch (op.kind) {
            case OpKind::Const:
                w_.line(c_name(kernel_, op.dest) + " = " +
                        hex_double(op.const_value) + ";  /* " +
                        format_double(op.const_value) + " */");
                break;
            case OpKind::Copy:
                w_.line(c_name(kernel_, op.dest) + " = " +
                        c_name(kernel_, op.args[0]) + ";");
                break;
            case OpKind::Neg:
                w_.line(c_name(kernel_, op.dest) + " = -" +
                        c_name(kernel_, op.args[0]) + ";");
                break;
            case OpKind::Load:
                w_.line(c_name(kernel_, op.dest) + " = " +
                        array_name(op.array) + "[" +
                        c_index(kernel_, op.index) + "];");
                break;
            case OpKind::Store: {
                const std::string element = array_name(op.array) + "[" +
                                            c_index(kernel_, op.index) + "]";
                w_.line(element + " = " + c_name(kernel_, op.args[0]) + ";");
                if (kernel_.array(op.array).storage == StorageClass::Output) {
                    w_.line("*slpwlo_trace++ = " + element + ";");
                }
                break;
            }
            case OpKind::Add:
            case OpKind::Sub:
            case OpKind::Mul:
            case OpKind::Div: {
                const char* sign = op.kind == OpKind::Add   ? " + "
                                   : op.kind == OpKind::Sub ? " - "
                                   : op.kind == OpKind::Mul ? " * "
                                                            : " / ";
                w_.line(c_name(kernel_, op.dest) + " = " +
                        c_name(kernel_, op.args[0]) + sign +
                        c_name(kernel_, op.args[1]) + ";");
                break;
            }
        }
    }

    const Kernel& kernel_;
    std::vector<NodeRef> def_nodes_;
    CodeWriter w_;
};

}  // namespace

RefCResult emit_ref_c(const Kernel& kernel) {
    return RefCEmitter(kernel).run();
}

}  // namespace slpwlo
