#include "codegen/c_emitter.hpp"

#include <cmath>

#include "support/dbmath.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace slpwlo {

std::string c_name(const Kernel& kernel, VarId var) {
    std::string name = kernel.var(var).name;
    std::string out;
    for (const char c : name) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_') {
            out += c;
        }
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "v" + out;
    return out;
}

std::string c_identifier(const std::string& name) {
    std::string out;
    for (const char c : name) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_') {
            out += c;
        } else {
            out += '_';
        }
    }
    return out;
}

std::string c_loop_name(const Kernel& kernel, LoopId loop) {
    return c_identifier(kernel.loop(loop).var_name) +
           std::to_string(loop.index());
}

std::string c_int_type(int wl) {
    if (wl <= 8) return "int8_t";
    if (wl <= 16) return "int16_t";
    if (wl <= 32) return "int32_t";
    return "int64_t";
}

std::string c_index(const Kernel& kernel, const Affine& index) {
    std::ostringstream os;
    bool first = true;
    for (const auto& [loop, coeff] : index.coeffs()) {
        if (!first) os << (coeff >= 0 ? " + " : " - ");
        const int mag = first ? coeff : std::abs(coeff);
        first = false;
        if (mag == 1) {
            os << c_loop_name(kernel, loop);
        } else if (mag == -1) {
            os << "-" << c_loop_name(kernel, loop);
        } else {
            os << mag << "*" << c_loop_name(kernel, loop);
        }
    }
    if (first) {
        os << index.offset();
    } else if (index.offset() > 0) {
        os << " + " << index.offset();
    } else if (index.offset() < 0) {
        os << " - " << -index.offset();
    }
    return os.str();
}

long long raw_fixed_value(double value, const FixedFormat& format,
                          QuantMode mode) {
    const double q = quantize_saturate(value, format, mode);
    return static_cast<long long>(std::llround(q * pow2(format.fwl)));
}

void CodeWriter::line(const std::string& text) {
    for (int i = 0; i < indent_; ++i) out_ << "    ";
    out_ << text << "\n";
}

void CodeWriter::blank() { out_ << "\n"; }

void CodeWriter::open(const std::string& text) {
    line(text + " {");
    indent_++;
}

void CodeWriter::close(const std::string& tail) {
    SLPWLO_ASSERT(indent_ > 0, "unbalanced CodeWriter::close");
    indent_--;
    line(tail);
}

std::vector<std::string> c_array_params(
    const Kernel& kernel, const std::function<std::string(ArrayId)>& type) {
    std::vector<std::string> params;
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        const bool input = decl.storage == StorageClass::Input;
        if (!input && decl.storage != StorageClass::Output) continue;
        params.push_back((input ? "const " : "") +
                         type(ArrayId(static_cast<int32_t>(a))) + " " +
                         decl.name + "[" + std::to_string(decl.size) + "]");
    }
    return params;
}

void c_declare_locals(CodeWriter& w, const Kernel& kernel,
                      const std::vector<NodeRef>& def_nodes,
                      const std::function<std::string(ArrayId)>& array_type,
                      const std::function<std::string(NodeRef)>& var_type) {
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        if (decl.storage != StorageClass::Buffer) continue;
        w.line(array_type(ArrayId(static_cast<int32_t>(a))) + " " +
               decl.name + "[" + std::to_string(decl.size) + "] = {0};");
    }
    for (size_t v = 0; v < kernel.vars().size(); ++v) {
        if (!def_nodes[v].valid()) continue;
        w.line(var_type(def_nodes[v]) + " " +
               c_name(kernel, VarId(static_cast<int32_t>(v))) + " = 0;");
    }
}

void c_emit_region(CodeWriter& w, const Kernel& kernel, const Region& region,
                   const std::function<void(BlockId)>& emit_block) {
    for (const RegionItem& item : region.items) {
        if (item.kind == RegionItem::Kind::Block) {
            emit_block(item.block);
            continue;
        }
        const Loop& loop = kernel.loop(item.loop);
        const std::string v = c_loop_name(kernel, loop.id);
        w.open("for (int " + v + " = " + std::to_string(loop.begin) + "; " +
               v + " < " + std::to_string(loop.end) + "; ++" + v + ")");
        c_emit_region(w, kernel, loop.body, emit_block);
        w.close();
    }
}

}  // namespace slpwlo
