#include "accuracy/gain_analyzer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "sim/sim_tape.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo {
namespace {

struct Response {
    double sum_sq = 0.0;
    double sum = 0.0;
};

/// Exact sparse differential replay of one SimTape.
///
/// The base (unperturbed) replay runs once and records every step's value,
/// the producer of each operand and the last read of each produced value.
/// A perturbed run — one `delta` added to one step's result or to one
/// memory cell's initial contents — then starts at the perturbation,
/// keeps an epoch-stamped overlay of only the var and cell slots whose
/// value differs bitwise from the base run, recomputes only the steps
/// that read such a slot (every other step's result is the base value),
/// and stops once no differing value has a future read.
///
/// This equals the dense run_double with the same injection bit for bit:
/// a recomputed step applies the same IEEE operation to the same operands
/// as the dense replay. An output equal to the base output contributes
/// h = +0.0 to the dense response sums, which cannot change them (neither
/// sum can be -0.0), so summing only the differing outputs, in output
/// order, yields the same doubles. That last step needs finite base
/// outputs: (x - x) / delta is +0.0 only for finite x.
class DifferentialReplay {
public:
    DifferentialReplay(const SimTape& tape, const Stimulus& stimulus,
                       double delta);

    /// The base run's output trace.
    const std::vector<double>& outputs() const { return outputs_; }

    /// Tape step of `op`'s `occurrence`-th dynamic execution (-1: none).
    int32_t step_of(OpId op, long long occurrence) const {
        const auto& steps = op_steps_[static_cast<size_t>(op.index())];
        return occurrence < static_cast<long long>(steps.size())
                   ? steps[static_cast<size_t>(occurrence)]
                   : -1;
    }
    /// Flat memory cell of one array element.
    int32_t cell_of(ArrayId array, int element) const {
        return array_base_[static_cast<size_t>(array.index())] + element;
    }

    /// Response to `delta` added to the result of tape step `step` (the
    /// stored value, for a Store).
    Response inject_step(int32_t step);
    /// Response to `delta` added to one cell's initial contents.
    Response inject_cell(int32_t cell);

private:
    /// Slots read and written by one step. Vars and memory cells share one
    /// slot space (cells after vars); unused operands point at a slot that
    /// is never dirty, so the clean path needs no per-kind branch.
    struct StepSlots {
        int32_t a0;
        int32_t a1;
        int32_t dest;
    };
    /// What a recomputation needs. `src0/src1` are the steps that produced
    /// a binary op's operands (-1: the var's initial 0.0), whose base
    /// values stand in for clean operands; `last_read` is the last step
    /// that reads this step's result (-1: never read).
    struct StepDetail {
        double value;
        int32_t src0;
        int32_t src1;
        int32_t last_read;
        OpKind kind;
        bool output;
    };

    double base_value(int32_t step) const {
        return step < 0 ? 0.0 : detail_[static_cast<size_t>(step)].value;
    }
    bool dirty(int32_t slot) const {
        return stamp_[static_cast<size_t>(slot)] == epoch_;
    }
    /// Record `value` as the perturbed result of `step`: dirty (and
    /// scored, for an output Store) when it differs from the base value.
    void commit(int32_t step, double value);
    /// Replay from step `from` while a dirty value has a future read.
    void replay(int32_t from);

    double delta_;
    std::vector<StepSlots> slots_;
    std::vector<StepDetail> detail_;
    std::vector<std::vector<int32_t>> op_steps_;
    std::vector<int32_t> array_base_;
    std::vector<double> initial_;            ///< per cell
    std::vector<int32_t> first_access_;      ///< per cell (-1: never)
    std::vector<int32_t> initial_last_read_; ///< per cell (-1: never)
    int32_t cell_slot0_ = 0;
    std::vector<double> outputs_;

    // Perturbed-run state.
    std::vector<uint32_t> stamp_;  ///< == epoch_: slot value in overlay_
    std::vector<double> overlay_;
    uint32_t epoch_ = 0;
    int32_t horizon_ = -1;
    Response response_;
};

double apply(OpKind kind, double x0, double x1) {
    switch (kind) {
        case OpKind::Neg:
            return -x0;
        case OpKind::Add:
            return x0 + x1;
        case OpKind::Sub:
            return x0 - x1;
        case OpKind::Mul:
            return x0 * x1;
        case OpKind::Div:
            return x0 / x1;
        case OpKind::Copy:
        case OpKind::Load:
        case OpKind::Store:
        case OpKind::Const:
            break;
    }
    return x0;
}

DifferentialReplay::DifferentialReplay(const SimTape& tape,
                                       const Stimulus& stimulus, double delta)
    : delta_(delta) {
    const Kernel& kernel = tape.kernel();
    const int32_t n_vars = static_cast<int32_t>(kernel.vars().size());

    // Flat initial memory image, as run_double builds it per array.
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        array_base_.push_back(static_cast<int32_t>(initial_.size()));
        if (decl.storage == StorageClass::Input) {
            SLPWLO_CHECK(a < stimulus.size() &&
                             stimulus[a].size() ==
                                 static_cast<size_t>(decl.size),
                         "stimulus missing or mis-sized for input array `" +
                             decl.name + "`");
            initial_.insert(initial_.end(), stimulus[a].begin(),
                            stimulus[a].end());
        } else if (decl.storage == StorageClass::Param) {
            initial_.insert(initial_.end(), decl.values.begin(),
                            decl.values.end());
        } else {
            initial_.resize(initial_.size() + static_cast<size_t>(decl.size),
                            0.0);
        }
    }
    const int32_t n_cells = static_cast<int32_t>(initial_.size());
    cell_slot0_ = n_vars;
    const int32_t never_dirty = n_vars + n_cells;
    stamp_.assign(static_cast<size_t>(never_dirty) + 1, 0);
    overlay_.assign(static_cast<size_t>(never_dirty) + 1, 0.0);
    first_access_.assign(static_cast<size_t>(n_cells), -1);
    initial_last_read_.assign(static_cast<size_t>(n_cells), -1);
    op_steps_.resize(kernel.ops().size());

    // The base replay, recording producers and last reads on the way.
    std::vector<double> mem = initial_;
    std::vector<double> vars(static_cast<size_t>(n_vars), 0.0);
    std::vector<int32_t> var_producer(static_cast<size_t>(n_vars), -1);
    std::vector<int32_t> cell_producer(static_cast<size_t>(n_cells), -1);
    const std::vector<TapeStep>& steps = tape.steps();
    slots_.reserve(steps.size());
    detail_.reserve(steps.size());
    outputs_.reserve(tape.output_count());

    const auto read_var = [&](int32_t var, int32_t t) {
        const int32_t producer = var_producer[static_cast<size_t>(var)];
        if (producer >= 0) detail_[static_cast<size_t>(producer)].last_read = t;
        return producer;
    };
    const auto touch_cell = [&](int32_t cell, int32_t t) {
        int32_t& first = first_access_[static_cast<size_t>(cell)];
        if (first < 0) first = t;
    };

    for (size_t i = 0; i < steps.size(); ++i) {
        const TapeStep& step = steps[i];
        const int32_t t = static_cast<int32_t>(i);
        StepSlots s{never_dirty, never_dirty, never_dirty};
        StepDetail d{0.0, -1, -1, -1, step.kind, step.output};
        double x0 = 0.0;
        double x1 = 0.0;
        switch (step.kind) {
            case OpKind::Const:
                x0 = step.const_value;
                break;
            case OpKind::Load: {
                const int32_t cell = cell_of(ArrayId(step.array), step.addr);
                touch_cell(cell, t);
                const int32_t producer =
                    cell_producer[static_cast<size_t>(cell)];
                if (producer >= 0) {
                    detail_[static_cast<size_t>(producer)].last_read = t;
                } else {
                    initial_last_read_[static_cast<size_t>(cell)] = t;
                }
                s.a0 = cell_slot0_ + cell;
                x0 = mem[static_cast<size_t>(cell)];
                break;
            }
            case OpKind::Store: {
                const int32_t cell = cell_of(ArrayId(step.array), step.addr);
                touch_cell(cell, t);
                read_var(step.arg0, t);
                s.a0 = step.arg0;
                s.dest = cell_slot0_ + cell;
                x0 = vars[static_cast<size_t>(step.arg0)];
                break;
            }
            case OpKind::Copy:
            case OpKind::Neg:
                read_var(step.arg0, t);
                s.a0 = step.arg0;
                x0 = vars[static_cast<size_t>(step.arg0)];
                break;
            case OpKind::Add:
            case OpKind::Sub:
            case OpKind::Mul:
            case OpKind::Div:
                d.src0 = read_var(step.arg0, t);
                d.src1 = read_var(step.arg1, t);
                s.a0 = step.arg0;
                s.a1 = step.arg1;
                x0 = vars[static_cast<size_t>(step.arg0)];
                x1 = vars[static_cast<size_t>(step.arg1)];
                break;
        }
        d.value = apply(step.kind, x0, x1);

        if (step.kind == OpKind::Store) {
            const int32_t cell = s.dest - cell_slot0_;
            mem[static_cast<size_t>(cell)] = d.value;
            cell_producer[static_cast<size_t>(cell)] = t;
            if (step.output) outputs_.push_back(d.value);
        } else {
            s.dest = step.dest;
            vars[static_cast<size_t>(step.dest)] = d.value;
            var_producer[static_cast<size_t>(step.dest)] = t;
        }
        slots_.push_back(s);
        detail_.push_back(d);
        op_steps_[static_cast<size_t>(step.op)].push_back(t);
    }
}

void DifferentialReplay::commit(int32_t step, double value) {
    const StepDetail& d = detail_[static_cast<size_t>(step)];
    const size_t dest = static_cast<size_t>(slots_[static_cast<size_t>(step)].dest);
    if (std::bit_cast<uint64_t>(value) == std::bit_cast<uint64_t>(d.value)) {
        stamp_[dest] = 0;
        return;
    }
    stamp_[dest] = epoch_;
    overlay_[dest] = value;
    horizon_ = std::max(horizon_, d.last_read);
    if (d.output) {
        // The dense response's expression, for this output only.
        const double h = (value - d.value) / delta_;
        response_.sum_sq += h * h;
        response_.sum += h;
    }
}

void DifferentialReplay::replay(int32_t from) {
    for (int32_t t = from; t <= horizon_; ++t) {
        const StepSlots& s = slots_[static_cast<size_t>(t)];
        const bool d0 = dirty(s.a0);
        const bool d1 = dirty(s.a1);
        if (!d0 && !d1) {
            // Same operands as the base run: the base result stands.
            stamp_[static_cast<size_t>(s.dest)] = 0;
            continue;
        }
        const StepDetail& d = detail_[static_cast<size_t>(t)];
        // Only binary ops can mix a dirty operand with a clean one; a
        // clean operand holds its producer's base value.
        const double x0 =
            d0 ? overlay_[static_cast<size_t>(s.a0)] : base_value(d.src0);
        const double x1 =
            d1 ? overlay_[static_cast<size_t>(s.a1)] : base_value(d.src1);
        commit(t, apply(d.kind, x0, x1));
    }
}

Response DifferentialReplay::inject_step(int32_t step) {
    if (step < 0) return Response{};
    ++epoch_;
    horizon_ = -1;
    response_ = Response{};
    // Every step before the injection is clean: the injected result is
    // the base value plus delta.
    commit(step, detail_[static_cast<size_t>(step)].value + delta_);
    replay(step + 1);
    return response_;
}

Response DifferentialReplay::inject_cell(int32_t cell) {
    ++epoch_;
    response_ = Response{};
    const size_t c = static_cast<size_t>(cell);
    const double value = initial_[c] + delta_;
    // A cell whose perturbed initial value is never read (no access, or a
    // Store first) cannot change any output.
    if (std::bit_cast<uint64_t>(value) == std::bit_cast<uint64_t>(initial_[c]) ||
        initial_last_read_[c] < 0) {
        return response_;
    }
    const size_t slot = static_cast<size_t>(cell_slot0_ + cell);
    stamp_[slot] = epoch_;
    overlay_[slot] = value;
    horizon_ = initial_last_read_[c];
    replay(first_access_[c]);
    return response_;
}

}  // namespace

KernelGains analyze_gains(const Kernel& kernel, const GainOptions& options) {
    // One compiled tape and one recorded base replay for the whole
    // calibration; every injection below is a sparse replay against it.
    const SimTape tape(kernel);
    const Stimulus stimulus = make_stimulus(kernel, options.seed);
    DifferentialReplay replay(tape, stimulus, options.delta);
    const std::vector<double>& base_outputs = replay.outputs();

    KernelGains gains;
    gains.op_gains.assign(kernel.ops().size(), NodeGains{});
    gains.array_gains.assign(kernel.arrays().size(), NodeGains{});
    gains.n_outputs = static_cast<long long>(base_outputs.size());
    SLPWLO_CHECK(gains.n_outputs > 0,
                 "kernel `" + kernel.name() + "` produces no outputs");
    // Finite base outputs are what makes the sparse replay exact (and a
    // non-finite response has no meaningful gain anyway).
    for (size_t i = 0; i < base_outputs.size(); ++i) {
        SLPWLO_CHECK(std::isfinite(base_outputs[i]),
                     "kernel `" + kernel.name() + "`: output " +
                         std::to_string(i) +
                         " of the gain calibration run is not finite (" +
                         std::to_string(base_outputs[i]) + ")");
    }

    // --- op sources ----------------------------------------------------------
    for (const BlockId block : kernel.blocks_in_order()) {
        const auto& chain = kernel.enclosing_loops(block);
        const long long per_sample = kernel.block_frequency_per_sample(block);
        // Inject at a mid-stream iteration of the outermost loop so the
        // response window sits in steady state.
        const long long outer_trip =
            chain.empty() ? 1 : kernel.loop(chain[0]).trip_count();
        const long long s0 = outer_trip / 2;
        // The source fires at every instance once per outer iteration; the
        // per-output-sample variance multiplier is the accumulated response
        // energy divided by the number of outputs produced per period
        // (1 for FIR/IIR, the j-trip count for the 2-D CONV).
        const double outputs_per_period =
            static_cast<double>(gains.n_outputs) /
            static_cast<double>(outer_trip);

        for (const OpId op_id : kernel.block(block).ops) {
            NodeGains& slot = gains.op_gains[static_cast<size_t>(op_id.index())];
            for (long long inst = 0; inst < per_sample; ++inst) {
                const Response r = replay.inject_step(
                    replay.step_of(op_id, s0 * per_sample + inst));
                slot.a += r.sum_sq;
                slot.b += r.sum;
            }
            slot.a /= outputs_per_period;
            slot.b /= outputs_per_period;
        }
    }

    // --- array sources ----------------------------------------------------------
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        if (decl.storage != StorageClass::Input &&
            decl.storage != StorageClass::Param) {
            continue;
        }
        const ArrayId id(static_cast<int32_t>(a));
        const int samples = std::min(options.array_samples, decl.size);

        double sum_a = 0.0;
        double sum_b = 0.0;
        for (int s = 0; s < samples; ++s) {
            int element;
            if (decl.storage == StorageClass::Input) {
                // Mid-array cluster: stream arrays are time-shift invariant,
                // so mid elements all see the steady-state response.
                element = decl.size / 2 - samples / 2 + s;
            } else {
                // Coefficients are position-dependent: spread the samples.
                element = (s * decl.size) / samples + decl.size / (2 * samples);
                element = std::min(element, decl.size - 1);
            }
            const Response r = replay.inject_cell(replay.cell_of(id, element));
            sum_a += r.sum_sq;
            sum_b += r.sum;
        }

        NodeGains& slot = gains.array_gains[a];
        if (decl.storage == StorageClass::Input) {
            // Time-shift argument: per-output variance multiplier equals the
            // single-element response energy.
            slot.a = sum_a / samples;
            slot.b = sum_b / samples;
        } else {
            // Per-element average energy over the output window, scaled by
            // the element count (every coefficient is quantized once).
            const double n = static_cast<double>(gains.n_outputs);
            slot.a = (sum_a / samples) / n * decl.size;
            slot.b = (sum_b / samples) / n * decl.size;
        }
    }

    return gains;
}

}  // namespace slpwlo
