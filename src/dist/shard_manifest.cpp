#include "dist/shard_manifest.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "flow/pass.hpp"
#include "flow/report.hpp"
#include "support/diagnostics.hpp"
#include "support/kv_format.hpp"
#include "target/target_desc.hpp"

namespace slpwlo::dist {

namespace {

std::string quant_mode_kv(QuantMode mode) {
    return mode == QuantMode::Truncate ? "truncate" : "round";
}

QuantMode quant_mode_from_kv(const std::string& value,
                             const std::string& source, int line) {
    if (value == "truncate") return QuantMode::Truncate;
    if (value == "round") return QuantMode::Round;
    kv::fail(source, line,
             "quant_mode: expected truncate/round, got `" + value + "`");
}

std::string benefit_mode_kv(BenefitMode mode) {
    return mode == BenefitMode::ReuseOverCost ? "reuse-over-cost"
                                              : "savings-only";
}

BenefitMode benefit_mode_from_kv(const std::string& value,
                                 const std::string& source, int line) {
    if (value == "reuse-over-cost") return BenefitMode::ReuseOverCost;
    if (value == "savings-only") return BenefitMode::SavingsOnly;
    kv::fail(source, line,
             "benefit_mode: expected reuse-over-cost/savings-only, got `" +
                 value + "`");
}

/// Serializable strings (labels, names) must survive the line format and
/// be non-empty (an empty label would be indistinguishable from a missing
/// key on re-read).
void check_serializable(const std::string& what, const std::string& value) {
    SLPWLO_CHECK(!value.empty(), what + " cannot be empty");
    kv::check_round_trips(what, value);
}

}  // namespace

std::string flow_options_kv(const FlowOptions& options,
                            const std::string& prefix) {
    std::ostringstream os;
    const auto emit = [&](const char* key, const std::string& value) {
        os << prefix << key << " = " << value << "\n";
    };
    const auto emit_bool = [&](const char* key, bool value) {
        emit(key, value ? "true" : "false");
    };
    const auto emit_slp = [&](const std::string& head, const SlpOptions& slp) {
        emit((head + ".max_rounds").c_str(), std::to_string(slp.max_rounds));
        emit((head + ".benefit_mode").c_str(),
             benefit_mode_kv(slp.benefit_mode));
        emit((head + ".min_benefit").c_str(), kv::exact_double(slp.min_benefit));
    };
    emit("accuracy_db", kv::exact_double(options.accuracy_db));
    emit("quant_mode", quant_mode_kv(options.quant_mode));
    emit_bool("wlo_slp.scaling_optim", options.wlo_slp.scaling_optim);
    emit_bool("wlo_slp.accuracy_conflicts", options.wlo_slp.accuracy_conflicts);
    emit_bool("wlo_slp.strict_feasibility",
              options.wlo_slp.strict_feasibility);
    emit_slp("wlo_slp.slp", options.wlo_slp.slp);
    emit_slp("wlo_first.slp", options.wlo_first.slp);
    emit("wlo_first.tabu.max_iterations",
         std::to_string(options.wlo_first.tabu.max_iterations));
    emit("wlo_first.tabu.tenure",
         std::to_string(options.wlo_first.tabu.tenure));
    emit("wlo_first.tabu.stagnation_limit",
         std::to_string(options.wlo_first.tabu.stagnation_limit));
    emit("wlo_first.tabu.infeasibility_penalty",
         kv::exact_double(options.wlo_first.tabu.infeasibility_penalty));
    // Execution-strategy fields: they never change a result byte, but
    // workers must inherit the launcher's choice of noise backend and
    // timing so an --evaluator=compiled sweep runs compiled on every shard.
    emit("evaluator", to_string(options.evaluator));
    emit_bool("measure", options.measure);
    // Solver fields. Unlike evaluator/measure the optimizer axis changes
    // outcomes, so a worker that dropped it would produce different result
    // bytes than the launcher's local run.
    emit("solver.optimizer", to_string(options.solver.optimizer));
    emit("solver.max_nodes", std::to_string(options.solver.budget.max_nodes));
    emit("solver.max_millis",
         std::to_string(options.solver.budget.max_millis));
    return os.str();
}

void apply_flow_option(FlowOptions& options, const std::string& key,
                       const std::string& value, const std::string& source,
                       int line) {
    const auto slp_field = [&](SlpOptions& slp, const std::string& field) {
        if (field == "max_rounds") {
            slp.max_rounds = kv::to_int(source, line, key, value);
        } else if (field == "benefit_mode") {
            slp.benefit_mode = benefit_mode_from_kv(value, source, line);
        } else if (field == "min_benefit") {
            slp.min_benefit = kv::to_double(source, line, key, value);
        } else {
            kv::fail(source, line, "unknown option key `" + key + "`");
        }
    };
    if (key == "accuracy_db") {
        options.accuracy_db = kv::to_double(source, line, key, value);
    } else if (key == "quant_mode") {
        options.quant_mode = quant_mode_from_kv(value, source, line);
    } else if (key == "wlo_slp.scaling_optim") {
        options.wlo_slp.scaling_optim = kv::to_bool(source, line, key, value);
    } else if (key == "wlo_slp.accuracy_conflicts") {
        options.wlo_slp.accuracy_conflicts =
            kv::to_bool(source, line, key, value);
    } else if (key == "wlo_slp.strict_feasibility") {
        options.wlo_slp.strict_feasibility =
            kv::to_bool(source, line, key, value);
    } else if (key.rfind("wlo_slp.slp.", 0) == 0) {
        slp_field(options.wlo_slp.slp, key.substr(12));
    } else if (key.rfind("wlo_first.slp.", 0) == 0) {
        slp_field(options.wlo_first.slp, key.substr(14));
    } else if (key == "wlo_first.tabu.max_iterations") {
        options.wlo_first.tabu.max_iterations =
            kv::to_int(source, line, key, value);
    } else if (key == "wlo_first.tabu.tenure") {
        options.wlo_first.tabu.tenure = kv::to_int(source, line, key, value);
    } else if (key == "wlo_first.tabu.stagnation_limit") {
        options.wlo_first.tabu.stagnation_limit =
            kv::to_int(source, line, key, value);
    } else if (key == "wlo_first.tabu.infeasibility_penalty") {
        options.wlo_first.tabu.infeasibility_penalty =
            kv::to_double(source, line, key, value);
    } else if (key == "evaluator") {
        try {
            options.evaluator = parse_sim_backend(value);
        } catch (const Error& e) {
            kv::fail(source, line, e.what());
        }
    } else if (key == "measure") {
        options.measure = kv::to_bool(source, line, key, value);
    } else if (key == "solver.optimizer") {
        try {
            options.solver.optimizer = optimizer_from_string(value);
        } catch (const Error& e) {
            kv::fail(source, line, e.what());
        }
    } else if (key == "solver.max_nodes") {
        options.solver.budget.max_nodes =
            kv::to_ll(source, line, key, value);
    } else if (key == "solver.max_millis") {
        options.solver.budget.max_millis =
            kv::to_ll(source, line, key, value);
    } else {
        kv::fail(source, line, "unknown option key `" + key + "`");
    }
}

std::string shard_manifest_text(const ShardPlan& plan,
                                const FlowOptions& defaults) {
    SLPWLO_CHECK(plan.slots.size() == plan.points.size(),
                 "shard plan slots/points size mismatch");
    std::ostringstream os;
    os << "# slpwlo shard manifest\n"
       << "manifest_version = 4\n"
       << "shard_index = " << plan.shard_index << "\n"
       << "shard_count = " << plan.shard_count << "\n"
       << "strategy = " << to_string(plan.strategy) << "\n"
       << "total_slots = " << plan.total_slots << "\n"
       << "grid_fingerprint = " << fingerprint_hex(plan.grid_fp) << "\n"
       << "points = " << plan.points.size() << "\n\n";

    os << "begin_defaults\n"
       << flow_options_kv(defaults, "option.") << "end_defaults\n";

    // Embed each distinct model once, in first-use order, and reference
    // it from the points by id. Deduplication keys on the serialized
    // description — which includes the name — not the name-free content
    // fingerprint: a renamed copy of a model (with_simd_width at the
    // native width is one) must keep its own name in the worker's
    // reports, or the merged JSON would drift from the single-process
    // run.
    std::map<std::string, std::string> model_ids;
    std::vector<std::string> point_model(plan.points.size());
    for (size_t i = 0; i < plan.points.size(); ++i) {
        const SweepPoint& point = plan.points[i];
        SLPWLO_CHECK(point.target_model.has_value(),
                     "manifest points must embed a target model "
                     "(make_shard_plans)");
        std::string desc = target_description(*point.target_model);
        const auto it = model_ids.find(desc);
        if (it != model_ids.end()) {
            point_model[i] = it->second;
            continue;
        }
        const std::string id =
            std::string("t").append(std::to_string(model_ids.size()));
        point_model[i] = id;
        os << "\nbegin_target " << id << "\n" << desc << "end_target\n";
        model_ids.emplace(std::move(desc), id);
    }

    // Embedded kernel sources, deduplicated the same way (keyed on the
    // exact source text — the bytes the point fingerprint mixes). Only
    // file-based kernels carry one; built-in points emit nothing here, so
    // built-in-only manifests keep their historical shape.
    std::map<std::string, std::string> kernel_ids;
    std::vector<std::string> point_kernel_src(plan.points.size());
    for (size_t i = 0; i < plan.points.size(); ++i) {
        const SweepPoint& point = plan.points[i];
        if (!point.kernel_source.has_value()) continue;
        const std::string& src = *point.kernel_source;
        const auto it = kernel_ids.find(src);
        if (it != kernel_ids.end()) {
            point_kernel_src[i] = it->second;
            continue;
        }
        // The block is parsed back line-by-line through the kv container
        // format; a blank or comment-only line would silently vanish and
        // the re-read source (and its point fingerprint) would drift.
        // canonical_kernel_source (frontend/kernel_file.hpp) produces the
        // safe form; anything else is a caller bug, not a data error.
        size_t pos = 0;
        while (pos < src.size()) {
            size_t end = src.find('\n', pos);
            SLPWLO_CHECK(end != std::string::npos,
                         "kernel source lines must be newline-terminated "
                         "(canonical_kernel_source)");
            std::string check = src.substr(pos, end - pos);
            const size_t comment = check.find('#');
            if (comment != std::string::npos) check.resize(comment);
            SLPWLO_CHECK(!kv::trim(check).empty(),
                         "kernel source must not contain blank or "
                         "comment-only lines (canonical_kernel_source)");
            pos = end + 1;
        }
        const std::string id =
            std::string("k").append(std::to_string(kernel_ids.size()));
        point_kernel_src[i] = id;
        os << "\nbegin_kernel " << id << "\n" << src << "end_kernel\n";
        kernel_ids.emplace(src, id);
    }

    for (size_t i = 0; i < plan.points.size(); ++i) {
        const SweepPoint& point = plan.points[i];
        check_serializable("kernel name", point.kernel);
        check_serializable("target label", point.target);
        check_serializable("flow name", point.flow);
        os << "\nbegin_point\n"
           << "slot = " << plan.slots[i] << "\n"
           << "kernel = " << point.kernel << "\n"
           << "target = " << point.target << "\n"
           << "flow = " << point.flow << "\n"
           << "accuracy_db = " << kv::exact_double(point.accuracy_db) << "\n"
           << "model = " << point_model[i] << "\n";
        if (!point_kernel_src[i].empty()) {
            os << "kernel_source = " << point_kernel_src[i] << "\n";
        }
        if (point.options.has_value()) {
            os << flow_options_kv(*point.options, "option.");
        }
        os << "end_point\n";
    }
    return os.str();
}

ShardManifest parse_shard_manifest(const std::string& text,
                                   const std::string& source) {
    ShardManifest manifest;
    kv::KvReader reader(text, source);
    kv::KvLine kvline;

    bool saw_version = false;
    bool saw_defaults = false;
    long long declared_points = -1;
    std::map<std::string, TargetModel> models;
    std::map<std::string, std::string> kernel_sources;
    std::set<std::string> header_seen;

    while (reader.next(kvline)) {
        if (kvline.key.empty()) {
            const std::string& marker = kvline.value;
            if (marker == "begin_defaults") {
                if (saw_defaults) reader.fail_here("duplicate begin_defaults");
                saw_defaults = true;
                bool closed = false;
                while (reader.next(kvline)) {
                    if (kvline.key.empty() && kvline.value == "end_defaults") {
                        closed = true;
                        break;
                    }
                    if (kvline.key.rfind("option.", 0) != 0) {
                        reader.fail_here(
                            "defaults block expects `option.*` keys");
                    }
                    apply_flow_option(manifest.defaults, kvline.key.substr(7),
                                      kvline.value, source, kvline.line);
                }
                if (!closed) reader.fail_here("unterminated begin_defaults");
            } else if (marker.rfind("begin_target ", 0) == 0) {
                const std::string id = kv::trim(marker.substr(13));
                if (id.empty()) reader.fail_here("begin_target needs an id");
                if (models.count(id) != 0) {
                    reader.fail_here("duplicate target id `" + id + "`");
                }
                // Accumulate the embedded description verbatim and hand it
                // to the target parser (which validates the model).
                std::string desc;
                bool closed = false;
                while (reader.next(kvline)) {
                    if (kvline.key.empty() && kvline.value == "end_target") {
                        closed = true;
                        break;
                    }
                    desc += kvline.raw;
                    desc += "\n";
                }
                if (!closed) reader.fail_here("unterminated begin_target");
                models.emplace(
                    id, parse_target_description(desc, source + ":" + id));
            } else if (marker.rfind("begin_kernel ", 0) == 0) {
                const std::string id = kv::trim(marker.substr(13));
                if (id.empty()) reader.fail_here("begin_kernel needs an id");
                if (kernel_sources.count(id) != 0) {
                    reader.fail_here("duplicate kernel id `" + id + "`");
                }
                // Accumulate the embedded DSL source verbatim; it is
                // compiled (and so validated) when a worker registers it,
                // not here — parsing a manifest must not require the
                // frontend.
                std::string src;
                bool closed = false;
                while (reader.next(kvline)) {
                    if (kvline.key.empty() && kvline.value == "end_kernel") {
                        closed = true;
                        break;
                    }
                    src += kvline.raw;
                    src += "\n";
                }
                if (!closed) reader.fail_here("unterminated begin_kernel");
                kernel_sources.emplace(id, std::move(src));
            } else if (marker == "begin_point") {
                SweepPoint point;
                long long slot = -1;
                bool has_kernel = false, has_target = false, has_flow = false;
                bool has_model = false, has_accuracy = false;
                FlowOptions point_options;
                bool has_options = false;
                std::set<std::string> seen;
                bool closed = false;
                while (reader.next(kvline)) {
                    if (kvline.key.empty() && kvline.value == "end_point") {
                        closed = true;
                        break;
                    }
                    if (kvline.key.empty()) {
                        reader.fail_here("expected `key = value`, got `" +
                                         kvline.value + "`");
                    }
                    if (!seen.insert(kvline.key).second) {
                        reader.fail_here("duplicate key `" + kvline.key + "`");
                    }
                    if (kvline.key == "slot") {
                        slot = kv::to_ll(source, kvline.line, kvline.key,
                                         kvline.value);
                    } else if (kvline.key == "kernel") {
                        point.kernel = kvline.value;
                        has_kernel = true;
                    } else if (kvline.key == "target") {
                        point.target = kvline.value;
                        has_target = true;
                    } else if (kvline.key == "flow") {
                        point.flow = kvline.value;
                        has_flow = true;
                    } else if (kvline.key == "accuracy_db") {
                        point.accuracy_db = kv::to_double(
                            source, kvline.line, kvline.key, kvline.value);
                        has_accuracy = true;
                    } else if (kvline.key == "model") {
                        const auto it = models.find(kvline.value);
                        if (it == models.end()) {
                            reader.fail_here("unknown target id `" +
                                             kvline.value + "`");
                        }
                        point.target_model = it->second;
                        has_model = true;
                    } else if (kvline.key == "kernel_source") {
                        const auto kit = kernel_sources.find(kvline.value);
                        if (kit == kernel_sources.end()) {
                            reader.fail_here("unknown kernel id `" +
                                             kvline.value + "`");
                        }
                        point.kernel_source = kit->second;
                    } else if (kvline.key.rfind("option.", 0) == 0) {
                        apply_flow_option(point_options,
                                          kvline.key.substr(7), kvline.value,
                                          source, kvline.line);
                        has_options = true;
                    } else {
                        reader.fail_here("unknown point key `" + kvline.key +
                                         "`");
                    }
                }
                if (!closed) reader.fail_here("unterminated begin_point");
                if (slot < 0 || !has_kernel || !has_target || !has_flow ||
                    !has_model || !has_accuracy) {
                    reader.fail_here(
                        "point needs slot, kernel, target, flow, "
                        "accuracy_db and model keys");
                }
                if (has_options) point.options = point_options;
                manifest.slots.push_back(static_cast<size_t>(slot));
                manifest.points.push_back(std::move(point));
            } else {
                reader.fail_here("expected `key = value` or a block marker, "
                                 "got `" + marker + "`");
            }
            continue;
        }

        // Header keys.
        if (!header_seen.insert(kvline.key).second) {
            reader.fail_here("duplicate key `" + kvline.key + "`");
        }
        if (kvline.key == "manifest_version") {
            if (kv::to_int(source, kvline.line, kvline.key, kvline.value) !=
                4) {
                reader.fail_here("unsupported manifest_version " +
                                 kvline.value +
                                 " (this reader accepts only 4)");
            }
            saw_version = true;
        } else if (kvline.key == "shard_index") {
            manifest.shard_index =
                kv::to_int(source, kvline.line, kvline.key, kvline.value);
        } else if (kvline.key == "shard_count") {
            manifest.shard_count =
                kv::to_int(source, kvline.line, kvline.key, kvline.value);
        } else if (kvline.key == "strategy") {
            manifest.strategy = shard_strategy_from_string(kvline.value);
        } else if (kvline.key == "total_slots") {
            manifest.total_slots = static_cast<size_t>(
                kv::to_ll(source, kvline.line, kvline.key, kvline.value));
        } else if (kvline.key == "grid_fingerprint") {
            manifest.grid_fp = kv::to_fingerprint(source, kvline.line,
                                                  kvline.key, kvline.value);
        } else if (kvline.key == "points") {
            declared_points =
                kv::to_ll(source, kvline.line, kvline.key, kvline.value);
        } else {
            reader.fail_here("unknown key `" + kvline.key + "`");
        }
    }

    if (!saw_version) {
        throw Error(source + ": missing manifest_version");
    }
    if (manifest.shard_count < 1 || manifest.shard_index < 0 ||
        manifest.shard_index >= manifest.shard_count) {
        throw Error(source + ": inconsistent shard_index/shard_count");
    }
    if (declared_points >= 0 &&
        static_cast<size_t>(declared_points) != manifest.points.size()) {
        throw Error(source + ": header declares " +
                    std::to_string(declared_points) + " points, file has " +
                    std::to_string(manifest.points.size()));
    }
    for (size_t i = 0; i < manifest.slots.size(); ++i) {
        if (manifest.slots[i] >= manifest.total_slots) {
            throw Error(source + ": slot " +
                        std::to_string(manifest.slots[i]) +
                        " out of range (total_slots = " +
                        std::to_string(manifest.total_slots) + ")");
        }
        if (i > 0 && manifest.slots[i] <= manifest.slots[i - 1]) {
            throw Error(source + ": slots must be strictly ascending");
        }
    }
    return manifest;
}

ShardManifest load_shard_manifest(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read shard manifest `" + path + "`");
    std::ostringstream text;
    text << in.rdbuf();
    return parse_shard_manifest(text.str(), path);
}

}  // namespace slpwlo::dist
