#include "accuracy/analytic_evaluator.hpp"

#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

size_t node_slot(const Kernel& kernel, NodeRef node) {
    SLPWLO_ASSERT(node.valid(), "invalid node");
    const size_t id = static_cast<size_t>(node.id);
    return node.kind == NodeRef::Kind::Var ? id : kernel.vars().size() + id;
}

}  // namespace

/// Journal-tracking incremental session. Caches each site's gain-weighted
/// contribution terms; noise_power() refreshes the sites dependent on nodes
/// the spec's journal reports as changed, then re-sums the cached terms in
/// site order. The terms and the summation order are exactly those of
/// AnalyticEvaluator::noise_power, so the result is bit-identical. The cache
/// doubles as the session's SiteTerms.
class AnalyticEvalSession final : public EvalSession, public SiteTerms {
public:
    AnalyticEvalSession(const AnalyticEvaluator& evaluator,
                        FixedPointSpec& spec)
        : evaluator_(&evaluator), spec_(&spec) {
        contribs_.resize(evaluator_->sites_.size());
        for (size_t i = 0; i < contribs_.size(); ++i) refresh(i);
        cursor_ = spec_->journal_size();
    }

    double noise_power() override {
        sync();
        // Inactive sites hold +0.0 terms, so the sum needs no branch.
        // Adding +0.0 is bitwise neutral here: the accumulators start at
        // +0.0 and round-to-nearest addition never produces -0.0 from a
        // non-negative-zero left operand, so `x + 0.0` is exactly `x` at
        // every step and the result matches the skip-inactive loop of
        // AnalyticEvaluator::noise_power bit for bit.
        double variance = 0.0;
        double mean = 0.0;
        for (const SiteTerm& c : contribs_) {
            variance += c.v_term;
            mean += c.m_term;
        }
        return variance + mean * mean;
    }

    void begin_move(NodeRef node) override {
        sync();  // snapshot from a cache that is current
        move_sites_ = &evaluator_->sites_of(node);
        saved_contribs_.clear();
        for (const uint32_t i : *move_sites_) {
            saved_contribs_.push_back(contribs_[i]);
        }
    }

    void end_move() override {
        SLPWLO_ASSERT(move_sites_ != nullptr, "end_move without begin_move");
        // The caller restored the node's format; the journal window holds
        // only that node's set/restore entries, so putting the snapshot
        // back and skipping the window re-establishes the cache bit-exactly
        // without recomputing any site.
        for (size_t k = 0; k < move_sites_->size(); ++k) {
            contribs_[(*move_sites_)[k]] = saved_contribs_[k];
        }
        cursor_ = spec_->journal_size();
        move_sites_ = nullptr;
    }

    FixedPointSpec& spec() override { return *spec_; }

    SiteTerms* site_terms() override { return this; }

    const std::vector<SiteTerm>& current() override {
        sync();
        return contribs_;
    }

    const std::vector<uint32_t>& sites_of(NodeRef node) const override {
        return evaluator_->sites_of(node);
    }

    SiteTerm evaluate(uint32_t site) const override { return term(site); }

    void forget_undone_changes() override {
        cursor_ = spec_->journal_size();
    }

private:
    void sync() {
        while (cursor_ < spec_->journal_size()) {
            const NodeRef node = spec_->journal_entry(cursor_++);
            for (const uint32_t i : evaluator_->sites_of(node)) refresh(i);
        }
    }

    void refresh(size_t i) { contribs_[i] = term(i); }

    SiteTerm term(size_t i) const {
        const NoiseSite& site = evaluator_->sites_[i];
        const NoiseStats stats = compute_site_stats(
            site, *evaluator_->kernel_, *spec_, evaluator_->def_nodes_);
        if (!site_active(site, stats)) return SiteTerm{};
        const NodeGains& g =
            site.op.valid()
                ? evaluator_->gains_.op_gains[static_cast<size_t>(
                      site.op.index())]
                : evaluator_->gains_.array_gains[static_cast<size_t>(
                      site.array.index())];
        return SiteTerm{stats.variance * g.a, stats.mean * g.b * site.dc_sign};
    }

    const AnalyticEvaluator* evaluator_;
    FixedPointSpec* spec_;
    std::vector<SiteTerm> contribs_;
    std::vector<SiteTerm> saved_contribs_;  ///< begin_move() snapshot scratch
    const std::vector<uint32_t>* move_sites_ = nullptr;
    size_t cursor_ = 0;
};

AnalyticEvaluator::AnalyticEvaluator(const Kernel& kernel,
                                     const GainOptions& options)
    : AnalyticEvaluator(kernel, analyze_gains(kernel, options)) {}

AnalyticEvaluator::AnalyticEvaluator(const Kernel& kernel, KernelGains gains)
    : kernel_(&kernel),
      gains_(std::move(gains)),
      def_nodes_(compute_var_def_nodes(kernel)),
      sites_(enumerate_noise_sites(kernel, def_nodes_)) {
    SLPWLO_CHECK(gains_.op_gains.size() == kernel.ops().size(),
                 "gains were computed for a different kernel");
    node_sites_.resize(kernel.vars().size() + kernel.arrays().size());
    for (size_t i = 0; i < sites_.size(); ++i) {
        for (const NodeRef dep : sites_[i].deps) {
            if (!dep.valid()) continue;
            std::vector<uint32_t>& list =
                node_sites_[node_slot(kernel, dep)];
            // A site may name the same node twice (e.g. an accumulator's
            // result and operand); one entry is enough.
            if (!list.empty() && list.back() == i) continue;
            list.push_back(static_cast<uint32_t>(i));
        }
    }
}

const std::vector<uint32_t>& AnalyticEvaluator::sites_of(NodeRef node) const {
    return node_sites_[node_slot(*kernel_, node)];
}

double AnalyticEvaluator::noise_power(const FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == kernel_,
                  "spec belongs to a different kernel");
    double variance = 0.0;
    double mean = 0.0;
    for (const NoiseSite& site : sites_) {
        const NoiseStats stats =
            compute_site_stats(site, *kernel_, spec, def_nodes_);
        if (!site_active(site, stats)) continue;
        const NodeGains& g =
            site.op.valid()
                ? gains_.op_gains[static_cast<size_t>(site.op.index())]
                : gains_.array_gains[static_cast<size_t>(site.array.index())];
        variance += stats.variance * g.a;
        mean += stats.mean * g.b * site.dc_sign;
    }
    return variance + mean * mean;
}

std::unique_ptr<EvalSession> AnalyticEvaluator::open_session(
    FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == kernel_,
                  "spec belongs to a different kernel");
    return std::make_unique<AnalyticEvalSession>(*this, spec);
}

}  // namespace slpwlo
