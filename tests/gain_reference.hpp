// Dense reference for noise-gain calibration: one full run_double replay
// per injection, exactly as analyze_gains computed the gains before its
// sparse differential replay. Header-only (the library keeps a single
// calibration path); tests/test_accuracy.cpp and bench/perf_hotpaths.cpp
// compare analyze_gains against it bit for bit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "accuracy/gain_analyzer.hpp"
#include "sim/sim_tape.hpp"

namespace slpwlo::reference {

struct DenseResponse {
    double sum_sq = 0.0;
    double sum = 0.0;
};

inline DenseResponse dense_response(const std::vector<double>& base,
                                    const std::vector<double>& perturbed,
                                    double delta) {
    DenseResponse r;
    for (size_t i = 0; i < base.size(); ++i) {
        const double h = (perturbed[i] - base[i]) / delta;
        r.sum_sq += h * h;
        r.sum += h;
    }
    return r;
}

/// analyze_gains by dense perturbed replays (same sources, same
/// injection points, same normalization).
inline KernelGains dense_analyze_gains(const Kernel& kernel,
                                       const GainOptions& options = {}) {
    const SimTape tape(kernel);
    const Stimulus stimulus = make_stimulus(kernel, options.seed);
    const DoubleSimResult base = run_double(tape, stimulus);

    KernelGains gains;
    gains.op_gains.assign(kernel.ops().size(), NodeGains{});
    gains.array_gains.assign(kernel.arrays().size(), NodeGains{});
    gains.n_outputs = static_cast<long long>(base.outputs.size());

    for (const BlockId block : kernel.blocks_in_order()) {
        const auto& chain = kernel.enclosing_loops(block);
        const long long per_sample = kernel.block_frequency_per_sample(block);
        const long long outer_trip =
            chain.empty() ? 1 : kernel.loop(chain[0]).trip_count();
        const long long s0 = outer_trip / 2;
        const double outputs_per_period =
            static_cast<double>(gains.n_outputs) /
            static_cast<double>(outer_trip);

        for (const OpId op_id : kernel.block(block).ops) {
            NodeGains& slot = gains.op_gains[static_cast<size_t>(op_id.index())];
            for (long long inst = 0; inst < per_sample; ++inst) {
                DoubleSimOptions sim_options;
                DoubleSimOptions::Injection inj;
                inj.op = op_id;
                inj.occurrence = s0 * per_sample + inst;
                inj.delta = options.delta;
                sim_options.injections.push_back(inj);
                const DenseResponse r = dense_response(
                    base.outputs, run_double(tape, stimulus, sim_options).outputs,
                    options.delta);
                slot.a += r.sum_sq;
                slot.b += r.sum;
            }
            slot.a /= outputs_per_period;
            slot.b /= outputs_per_period;
        }
    }

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
                element = decl.size / 2 - samples / 2 + s;
            } else {
                element = (s * decl.size) / samples + decl.size / (2 * samples);
                element = std::min(element, decl.size - 1);
            }
            DoubleSimOptions sim_options;
            sim_options.array_injections.push_back(
                DoubleSimOptions::ArrayInjection{id, element, options.delta});
            const DenseResponse r = dense_response(
                base.outputs, run_double(tape, stimulus, sim_options).outputs,
                options.delta);
            sum_a += r.sum_sq;
            sum_b += r.sum;
        }

        NodeGains& slot = gains.array_gains[a];
        if (decl.storage == StorageClass::Input) {
            slot.a = sum_a / samples;
            slot.b = sum_b / samples;
        } else {
            const double n = static_cast<double>(gains.n_outputs);
            slot.a = (sum_a / samples) / n * decl.size;
            slot.b = (sum_b / samples) / n * decl.size;
        }
    }
    return gains;
}

/// Bitwise equality of two calibrations (n_outputs and every A/B double).
inline bool gains_bit_identical(const KernelGains& x, const KernelGains& y) {
    const auto same = [](const std::vector<NodeGains>& p,
                         const std::vector<NodeGains>& q) {
        if (p.size() != q.size()) return false;
        for (size_t i = 0; i < p.size(); ++i) {
            if (std::bit_cast<uint64_t>(p[i].a) !=
                    std::bit_cast<uint64_t>(q[i].a) ||
                std::bit_cast<uint64_t>(p[i].b) !=
                    std::bit_cast<uint64_t>(q[i].b)) {
                return false;
            }
        }
        return true;
    };
    return x.n_outputs == y.n_outputs && same(x.op_gains, y.op_gains) &&
           same(x.array_gains, y.array_gains);
}

}  // namespace slpwlo::reference
