#include "fixpoint/spec.hpp"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hpp"

namespace slpwlo {

FixedPointSpec::FixedPointSpec(const Kernel& kernel) : kernel_(&kernel) {
    var_formats_.assign(kernel.vars().size(), FixedFormat(1, 0));
    array_formats_.assign(kernel.arrays().size(), FixedFormat(1, 0));

    // Enumerate nodes: defined variables in definition order, then arrays.
    std::vector<bool> defined(kernel.vars().size(), false);
    for (const BlockId block : kernel.blocks_in_order()) {
        for (const OpId op_id : kernel.block(block).ops) {
            const Op& op = kernel.op(op_id);
            // Loads resolve to their array node; their dest var node would
            // be redundant.
            if (op.kind == OpKind::Load) continue;
            if (op.dest.valid() && !defined[op.dest.index()]) {
                defined[op.dest.index()] = true;
                nodes_.push_back(NodeRef::of_var(op.dest));
            }
        }
    }
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        nodes_.push_back(NodeRef::of_array(ArrayId(static_cast<int32_t>(a))));
    }
}

const FixedFormat& FixedPointSpec::format(NodeRef node) const {
    SLPWLO_ASSERT(node.valid(), "invalid node");
    if (node.kind == NodeRef::Kind::Var) {
        return var_formats_.at(static_cast<size_t>(node.id));
    }
    return array_formats_.at(static_cast<size_t>(node.id));
}

const FixedFormat& FixedPointSpec::var_format(VarId v) const {
    return format(NodeRef::of_var(v));
}

const FixedFormat& FixedPointSpec::array_format(ArrayId a) const {
    return format(NodeRef::of_array(a));
}

FixedFormat& FixedPointSpec::slot(NodeRef node) {
    SLPWLO_ASSERT(node.valid(), "invalid node");
    return node.kind == NodeRef::Kind::Var
               ? var_formats_.at(static_cast<size_t>(node.id))
               : array_formats_.at(static_cast<size_t>(node.id));
}

void FixedPointSpec::set_format(NodeRef node, const FixedFormat& fmt) {
    FixedFormat& current = slot(node);
    if (current.iwl == fmt.iwl && current.fwl == fmt.fwl) return;
    if (!marks_.empty()) undo_.push_back(Undo{node, current});
    current = fmt;
    journal_.push_back(node);
}

NodeRef FixedPointSpec::node_of(OpId op_id) const {
    const Op& op = kernel_->op(op_id);
    if (op.kind == OpKind::Load || op.kind == OpKind::Store) {
        return NodeRef::of_array(op.array);
    }
    SLPWLO_ASSERT(op.dest.valid(), "non-store op without destination");
    return NodeRef::of_var(op.dest);
}

const FixedFormat& FixedPointSpec::result_format(OpId op_id) const {
    return format(node_of(op_id));
}

void FixedPointSpec::set_iwl(NodeRef node, int iwl) {
    FixedFormat fmt = format(node);
    fmt.iwl = iwl;
    set_format(node, fmt);
}

void FixedPointSpec::set_wl(NodeRef node, int wl) {
    set_format(node, format(node).with_wl(wl));
}

FixedPointSpec::Checkpoint FixedPointSpec::checkpoint() {
    marks_.push_back(undo_.size());
    return marks_.size();
}

void FixedPointSpec::revert(Checkpoint cp) {
    SLPWLO_ASSERT(cp == marks_.size(), "checkpoints must unwind in LIFO order");
    const size_t mark = marks_.back();
    marks_.pop_back();

    // The nodes touched since the mark, with their current formats.
    struct Touched {
        NodeRef node;
        FixedFormat now;
    };
    std::vector<Touched> touched;
    touched.reserve(undo_.size() - mark);
    for (size_t k = mark; k < undo_.size(); ++k) {
        touched.push_back(Touched{undo_[k].node, slot(undo_[k].node)});
    }
    auto order = [](const Touched& a, const Touched& b) {
        if (a.node.kind != b.node.kind) return a.node.kind < b.node.kind;
        return a.node.id < b.node.id;
    };
    std::sort(touched.begin(), touched.end(), order);
    touched.erase(std::unique(touched.begin(), touched.end(),
                              [](const Touched& a, const Touched& b) {
                                  return a.node == b.node;
                              }),
                  touched.end());

    // Undo newest first: each node ends at its format before the mark.
    for (size_t k = undo_.size(); k-- > mark;) {
        slot(undo_[k].node) = undo_[k].old;
    }
    undo_.resize(mark);

    // Journal every node the restore actually changes (a node changed and
    // changed back is not), so incremental evaluators see reverted moves
    // the same way they see applied ones.
    for (const Touched& t : touched) {
        if (slot(t.node) != t.now) journal_.push_back(t.node);
    }
}

void FixedPointSpec::commit(Checkpoint cp) {
    SLPWLO_ASSERT(cp == marks_.size(), "checkpoints must unwind in LIFO order");
    marks_.pop_back();
    // An enclosing checkpoint keeps the records; at depth 0 nothing can
    // revert them any more.
    if (marks_.empty()) undo_.clear();
}

std::string FixedPointSpec::str() const {
    std::ostringstream os;
    os << "spec(" << kernel_->name() << ", " << to_string(quant_mode_) << ")\n";
    for (const NodeRef node : nodes_) {
        if (node.kind == NodeRef::Kind::Var) {
            os << "  var " << kernel_->var(VarId(node.id)).name;
        } else {
            os << "  array " << kernel_->array(ArrayId(node.id)).name;
        }
        os << " : " << format(node).str() << "\n";
    }
    return os.str();
}

}  // namespace slpwlo
