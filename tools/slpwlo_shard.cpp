// slpwlo-shard — distributed design-space sweeps from the command line.
//
// Turns any SweepDriver grid into N self-contained shard manifests, runs
// a manifest as an independent worker process, and folds per-shard result
// files back into the exact JSON the single-process sweep would have
// produced (byte-identical; the merge refuses grids that do not match).
// Beside the static plan/run/merge pipeline, daemon/submit/work run the
// same grid *elastically*: a farm daemon chops a whole-grid manifest into
// cost-balanced chunks, and any number of workers connect over TCP and
// drain them on demand — with heartbeat expiry and re-issue, so a
// straggling or killed worker's chunks are re-acquired (farm/).
//
//   slpwlo-shard plan  --shards N --out-prefix P --kernels A,B
//                      --targets X,Y [--widths 0,64] [--flows F,G]
//                      [--constraints -20,-30] [--strategy round-robin|
//                      cost-balanced] [--measured-from RESULTS]...
//                      [--target-file FILE]...
//   slpwlo-shard run   --manifest FILE --out FILE [--threads N]
//                      [--snapshot-in FILE] [--snapshot-out FILE]
//                      [--cache-capacity N] [--json[=FILE]]
//                      [--evaluator tape|walker|compiled] [--measure]
//   slpwlo-shard merge --out FILE RESULTS...
//                      [--cache FILE]... [--cache-out FILE]
//
// The measured-cost loop: a first sweep's result files carry per-slot
// wall-clock micros; `plan --measured-from` re-balances the *same grid*
// from those measurements instead of the estimate_point_cost heuristic.
// `--evaluator compiled` swaps the noise-evaluation backend for the
// jit-compiled one (bit-identical results, orders-of-magnitude faster on
// large stimulus sets) and `--measure` adds a measured_ns column to the
// rows — neither changes a single result byte, so mixed-backend farms
// still merge cleanly.
//
// A typical static 4-machine sweep (one command per line; see DESIGN.md
// §7 for the shell version with line continuations):
//
//   $ slpwlo-shard plan --shards 4 --strategy cost-balanced
//       --kernels FIR,IIR,CONV --targets XENTIUM --flows WLO-SLP,WLO-First
//       --constraints -30,-40,-50 --out-prefix sweep
//   ... ship sweep.<i>.manifest to worker i ...
//   $ slpwlo-shard run --manifest sweep.2.manifest --out sweep.2.results
//       --snapshot-in warm.snap --snapshot-out sweep.2.snap
//   ... ship the results and snapshots home ...
//   $ slpwlo-shard merge --out sweep.json sweep.*.results
//       --cache sweep.0.snap --cache sweep.1.snap --cache sweep.2.snap
//       --cache sweep.3.snap --cache-out warm.snap
//
// The same grid elastically, through a long-lived socket daemon — no
// shared filesystem, workers connect over TCP, completed rows stream into
// an online merge and the report is ready the instant the last slot lands
// (DESIGN.md §15):
//
//   $ slpwlo-shard plan --shards 1 --kernels ... --out-prefix grid
//   $ slpwlo-shard daemon --listen 7477 &
//   $ slpwlo-shard submit --connect :7477 --manifest grid.0.manifest
//   ... on each worker machine ...
//   $ slpwlo-shard work --connect coordinator:7477
//   $ slpwlo-shard status --connect :7477          # live JSON
//   $ slpwlo-shard merge --connect :7477 --job 0 --out sweep.json
//
// Incremental re-sweeps: `merge ... --rows-out sweep.rows` keeps the
// per-slot rows; after the grid changes, `submit --splice-from sweep.rows`
// (or offline: `merge --manifest new.manifest --splice-from sweep.rows`)
// re-uses every slot whose point fingerprint is unchanged, so only the
// changed slots are re-run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "accuracy/sim_backend.hpp"
#include "dist/cache_snapshot.hpp"
#include "farm/farm_client.hpp"
#include "farm/farm_server.hpp"
#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "frontend/kernel_file.hpp"
#include "support/diagnostics.hpp"
#include "target/target_desc.hpp"
#include "target/target_registry.hpp"

using namespace slpwlo;
using namespace slpwlo::dist;

namespace {

void usage(FILE* out) {
    std::fprintf(
        out,
        "usage:\n"
        "  slpwlo-shard plan  --shards N --out-prefix P --kernels A,B\n"
        "                     --targets X,Y [--widths 0,64] [--flows F,G]\n"
        "                     [--constraints -20,-30]\n"
        "                     [--strategy round-robin|cost-balanced]\n"
        "                     [--optimizer heuristic|optimal]\n"
        "                     [--measured-from RESULTS]...\n"
        "                     [--target-file FILE]...\n"
        "                     [--kernel-file FILE]... [--corpus DIR]...\n"
        "                     --measured-from re-balances the same grid\n"
        "                     from a previous run's per-slot wall-clocks;\n"
        "                     --kernel-file / --corpus register .slp DSL\n"
        "                     kernels (corpus names join the kernel axis;\n"
        "                     manifests embed their source)\n"
        "  slpwlo-shard run   --manifest FILE --out FILE [--threads N]\n"
        "                     [--snapshot-in FILE] [--snapshot-out FILE]\n"
        "                     [--cache-capacity N] [--json[=FILE]]\n"
        "                     [--evaluator tape|walker|compiled]\n"
        "                     [--optimizer heuristic|optimal] [--measure]\n"
        "  slpwlo-shard work  --connect HOST:PORT [--worker ID]\n"
        "                     [--heartbeat-ms T] [--poll-ms T] [--threads N]\n"
        "                     [--cache-capacity N] [--straggle-ms T]\n"
        "                     [--evaluator tape|walker|compiled]\n"
        "                     [--optimizer heuristic|optimal] [--measure]\n"
        "                     drain a farm daemon's jobs over TCP; missed\n"
        "                     heartbeats expire this worker's chunks for\n"
        "                     re-issue\n"
        "  slpwlo-shard merge --out FILE RESULTS...\n"
        "                     [--cache FILE]... [--cache-out FILE]\n"
        "  slpwlo-shard merge --connect HOST:PORT --job N --out FILE\n"
        "                     [--rows-out FILE]\n"
        "                     fetch a finalized farm job's streamed report\n"
        "                     (byte-identical to the 1-process sweep);\n"
        "                     --rows-out keeps per-slot rows for later\n"
        "                     --splice-from re-sweeps\n"
        "  slpwlo-shard merge --manifest FILE --splice-from ROWS...\n"
        "                     --rows-out FILE [--out FILE]\n"
        "                     offline incremental re-sweep: re-slot rows\n"
        "                     whose point fingerprints still appear in the\n"
        "                     new manifest; --out additionally writes the\n"
        "                     report when nothing changed\n"
        "  slpwlo-shard daemon --listen PORT [--ttl-ms T] [--tick-ms T]\n"
        "                     [--all-interfaces]\n"
        "                     serve the farm protocol until shutdown: jobs\n"
        "                     are submitted over the socket, rows stream\n"
        "                     into per-job merges, heartbeat expiry\n"
        "                     re-issues chunks (port 0 = ephemeral)\n"
        "  slpwlo-shard submit --connect HOST:PORT --manifest FILE\n"
        "                     [--chunk-cost C] [--chunk-slots N]\n"
        "                     [--splice-from ROWS]\n"
        "                     enqueue a whole-grid manifest as a farm job;\n"
        "                     --splice-from pre-fills unchanged slots from\n"
        "                     a previous run's rows file\n"
        "  slpwlo-shard status --connect HOST:PORT\n"
        "                     print the daemon's live status JSON\n"
        "  slpwlo-shard shutdown --connect HOST:PORT\n"
        "                     stop the daemon\n");
}

[[noreturn]] void bad_usage(const std::string& message) {
    std::fprintf(stderr, "slpwlo-shard: %s\n", message.c_str());
    usage(stderr);
    std::exit(2);
}

/// Strict numeric flag parsing: a typo must abort with a usage message,
/// never plan the wrong grid (atoi's silent 0) or std::terminate.
int int_flag(const std::string& flag, const std::string& value) {
    try {
        size_t pos = 0;
        const int parsed = std::stoi(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        bad_usage(flag + ": not an integer: `" + value + "`");
    }
}

double double_flag(const std::string& flag, const std::string& value) {
    try {
        size_t pos = 0;
        const double parsed = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        bad_usage(flag + ": not a number: `" + value + "`");
    }
}

SimBackend backend_flag(const std::string& flag, const std::string& value) {
    try {
        return parse_sim_backend(value);
    } catch (const Error& e) {
        bad_usage(flag + ": " + e.what());
    }
}

Optimizer optimizer_flag(const std::string& flag, const std::string& value) {
    try {
        return optimizer_from_string(value);
    } catch (const Error& e) {
        bad_usage(flag + ": " + e.what());
    }
}

std::vector<std::string> split_list(const std::string& text) {
    std::vector<std::string> out;
    std::string item;
    for (const char c : text) {
        if (c == ',') {
            if (!item.empty()) out.push_back(item);
            item.clear();
        } else {
            item += c;
        }
    }
    if (!item.empty()) out.push_back(item);
    return out;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot read `" + path + "`");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) throw Error("cannot read `" + path + "`");
    return text;
}

void write_file(const std::string& path, const std::string& text) {
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out.good()) throw Error("cannot write `" + path + "`");
}

/// A tiny argv cursor shared by the subcommands.
class Args {
public:
    Args(int argc, char** argv, int from) : argc_(argc), argv_(argv), i_(from) {}
    bool next(std::string& arg) {
        if (i_ >= argc_) return false;
        arg = argv_[i_++];
        return true;
    }
    std::string value(const std::string& flag) {
        if (i_ >= argc_) bad_usage(flag + " needs a value");
        return argv_[i_++];
    }

private:
    int argc_;
    char** argv_;
    int i_;
};

int cmd_plan(Args args) {
    int shards = 0;
    ShardStrategy strategy = ShardStrategy::RoundRobin;
    bool has_strategy = false;
    std::string out_prefix;
    std::vector<std::string> kernels, target_names, flows{"WLO-SLP"};
    std::vector<std::string> measured_from;
    std::vector<int> widths;
    bool has_widths = false;
    std::vector<double> constraints{-40.0};
    bool has_constraints = false;
    FlowOptions defaults;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--shards") {
            shards = int_flag(arg, args.value(arg));
        } else if (arg == "--strategy") {
            strategy = shard_strategy_from_string(args.value(arg));
            has_strategy = true;
        } else if (arg == "--measured-from") {
            measured_from.push_back(args.value(arg));
        } else if (arg == "--out-prefix") {
            out_prefix = args.value(arg);
        } else if (arg == "--kernels") {
            kernels = split_list(args.value(arg));
        } else if (arg == "--targets") {
            target_names = split_list(args.value(arg));
        } else if (arg == "--flows") {
            flows = split_list(args.value(arg));
        } else if (arg == "--widths") {
            has_widths = true;
            for (const std::string& w : split_list(args.value(arg))) {
                widths.push_back(int_flag(arg, w));
            }
        } else if (arg == "--constraints") {
            has_constraints = true;
            constraints.clear();
            for (const std::string& c : split_list(args.value(arg))) {
                constraints.push_back(double_flag(arg, c));
            }
        } else if (arg == "--optimizer") {
            defaults.solver.optimizer = optimizer_flag(arg, args.value(arg));
        } else if (arg == "--target-file") {
            TargetRegistry::instance().add(
                load_target_description(args.value(arg)));
        } else if (arg == "--kernel-file") {
            // Register the file's kernel so --kernels can name it; unlike
            // --corpus it does not join the axis by itself.
            frontend::register_kernel_file(args.value(arg));
        } else if (arg == "--corpus") {
            // Every kernel in the directory joins the kernel axis (sorted
            // by filename, so grids are deterministic).
            for (std::string& name :
                 frontend::load_kernel_corpus(args.value(arg))) {
                kernels.push_back(std::move(name));
            }
        } else {
            bad_usage("unknown plan flag `" + arg + "`");
        }
    }
    if (shards < 1) bad_usage("plan needs --shards N (>= 1)");
    if (out_prefix.empty()) bad_usage("plan needs --out-prefix");
    if (kernels.empty()) bad_usage("plan needs --kernels or --corpus");
    if (target_names.empty()) bad_usage("plan needs --targets");
    if (!measured_from.empty() && has_strategy &&
        strategy == ShardStrategy::RoundRobin) {
        bad_usage("--measured-from balances by cost; it cannot combine "
                  "with --strategy round-robin");
    }
    if (!has_constraints) {
        std::printf("using default constraint grid: -40 dB\n");
    }

    std::vector<SweepPoint> grid =
        has_widths ? SweepDriver::grid(kernels, target_names, widths, flows,
                                       constraints)
                   : SweepDriver::grid(kernels, target_names, flows,
                                       constraints);

    std::vector<ShardPlan> plans;
    std::vector<double> measured;
    if (!measured_from.empty()) {
        // The measurements must come from a run of this exact grid —
        // measured_slot_costs checks the fingerprint, so we need the
        // models (and any file-kernel sources, which fingerprints mix)
        // embedded before the files are loaded.
        embed_target_models(grid);
        embed_kernel_sources(grid);
        std::vector<ShardResultsFile> files;
        files.reserve(measured_from.size());
        for (const std::string& path : measured_from) {
            files.push_back(load_shard_results(path));
        }
        measured = measured_slot_costs(files, grid.size(),
                                       grid_fingerprint(grid));
        plans = make_shard_plans(grid, shards, measured);
    } else {
        plans = make_shard_plans(grid, shards, strategy);
    }

    std::printf("grid: %zu points -> %d shards (%s)\n", grid.size(), shards,
                measured.empty() ? to_string(strategy).c_str()
                                 : "cost-balanced, measured");
    for (const ShardPlan& plan : plans) {
        double cost = 0.0;
        for (size_t i = 0; i < plan.points.size(); ++i) {
            cost += measured.empty() ? estimate_point_cost(plan.points[i])
                                     : measured[plan.slots[i]];
        }
        const std::string path = out_prefix + "." +
                                 std::to_string(plan.shard_index) +
                                 ".manifest";
        write_file(path, shard_manifest_text(plan, defaults));
        std::printf("  %s: %zu points, %s cost %.1f\n", path.c_str(),
                    plan.points.size(), measured.empty() ? "est." : "meas.",
                    cost);
    }
    return 0;
}

int cmd_run(Args args) {
    std::string manifest_path, out_path, snapshot_in, snapshot_out, json_path;
    ShardRunOptions options;
    options.threads = 0;
    bool has_evaluator = false;
    SimBackend evaluator = SimBackend::Tape;
    bool measure = false;
    bool has_optimizer = false;
    Optimizer optimizer = Optimizer::Heuristic;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--manifest") {
            manifest_path = args.value(arg);
        } else if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--threads") {
            options.threads = int_flag(arg, args.value(arg));
        } else if (arg == "--snapshot-in") {
            snapshot_in = args.value(arg);
        } else if (arg == "--snapshot-out") {
            snapshot_out = args.value(arg);
        } else if (arg == "--cache-capacity") {
            options.cache_capacity =
                static_cast<size_t>(int_flag(arg, args.value(arg)));
        } else if (arg == "--evaluator") {
            evaluator = backend_flag(arg, args.value(arg));
            has_evaluator = true;
        } else if (arg == "--measure") {
            measure = true;
        } else if (arg == "--optimizer") {
            optimizer = optimizer_flag(arg, args.value(arg));
            has_optimizer = true;
        } else if (arg == "--json") {
            json_path = "-";
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else {
            bad_usage("unknown run flag `" + arg + "`");
        }
    }
    if (manifest_path.empty()) bad_usage("run needs --manifest");
    if (out_path.empty()) bad_usage("run needs --out");

    ShardManifest manifest = load_shard_manifest(manifest_path);
    // Worker-local execution knobs: the evaluator backend and cycle
    // measurement change how this process runs the manifest, never what
    // the rows say — mixed-backend shards still merge byte-identically.
    if (has_evaluator) manifest.defaults.evaluator = evaluator;
    if (measure) manifest.defaults.measure = true;
    // Unlike the knobs above, the optimizer axis *does* change row bytes
    // (heuristic flows resolve to their exact counterparts) — every shard
    // of one sweep must run with the same setting or the merge will
    // refuse the mismatched rows.
    if (has_optimizer) manifest.defaults.solver.optimizer = optimizer;
    CacheSnapshot warm;
    if (!snapshot_in.empty()) {
        warm = load_cache_snapshot(snapshot_in);
        options.warm = &warm;
    }

    const ShardRunOutput out = run_shard(manifest, options);
    write_file(out_path, shard_results_text(out.results));

    std::printf("shard %d/%d: %zu points -> %s (eval cache: %zu hits / %zu "
                "misses, %zu entries)\n",
                manifest.shard_index, manifest.shard_count,
                manifest.points.size(), out_path.c_str(),
                out.stats.eval_hits, out.stats.eval_misses,
                out.stats.eval_entries);
    if (!snapshot_out.empty()) {
        write_file(snapshot_out, cache_snapshot_text(out.snapshot));
        std::printf("snapshot: %zu entries -> %s\n",
                    out.snapshot.entries.size(), snapshot_out.c_str());
    }
    if (!json_path.empty()) {
        write_file(json_path, sweep_to_json(out.sweep, out.stats));
    }
    return 0;
}

int cmd_work(Args args) {
    std::string connect;
    farm::FarmWorkerOptions options;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else if (arg == "--worker") {
            options.worker = args.value(arg);
        } else if (arg == "--heartbeat-ms") {
            options.heartbeat_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--poll-ms") {
            options.poll_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--threads") {
            options.exec.threads = int_flag(arg, args.value(arg));
        } else if (arg == "--cache-capacity") {
            options.exec.cache_capacity =
                static_cast<size_t>(int_flag(arg, args.value(arg)));
        } else if (arg == "--straggle-ms") {
            // Test hook: hold every chunk this long before completing it,
            // to exercise expiry, re-issue and duplicate resolution end
            // to end.
            options.straggle_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--evaluator") {
            options.evaluator = backend_flag(arg, args.value(arg));
        } else if (arg == "--measure") {
            options.measure = true;
        } else if (arg == "--optimizer") {
            options.optimizer = optimizer_flag(arg, args.value(arg));
        } else {
            bad_usage("unknown work flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("work needs --connect HOST:PORT");

    // The daemon owns chunking and the merge; the worker is just the
    // drain loop over a socket.
    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    if (options.worker.empty()) {
        options.worker = std::string("w").append(std::to_string(::getpid()));
    }
    const size_t executed = farm::run_farm_worker(host, port, options);
    std::printf("worker %s drained farm %s: %zu slots run here\n",
                options.worker.c_str(), connect.c_str(), executed);
    return 0;
}

int cmd_merge(Args args) {
    std::string out_path, cache_out, connect, manifest_path;
    std::string rows_out;
    long long job = -1;
    std::vector<std::string> results_paths, cache_paths, splice_from;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--cache") {
            cache_paths.push_back(args.value(arg));
        } else if (arg == "--cache-out") {
            cache_out = args.value(arg);
        } else if (arg == "--connect") {
            connect = args.value(arg);
        } else if (arg == "--job") {
            job = int_flag(arg, args.value(arg));
        } else if (arg == "--manifest") {
            manifest_path = args.value(arg);
        } else if (arg == "--splice-from") {
            splice_from.push_back(args.value(arg));
        } else if (arg == "--rows-out") {
            rows_out = args.value(arg);
        } else if (!arg.empty() && arg[0] == '-') {
            bad_usage("unknown merge flag `" + arg + "`");
        } else {
            results_paths.push_back(arg);
        }
    }

    if (!connect.empty()) {
        // Farm mode: fetch the daemon's streamed merge of one job.
        if (job < 0) bad_usage("merge --connect needs --job N");
        if (out_path.empty()) bad_usage("merge needs --out");
        std::string host;
        int port = 0;
        farm::parse_endpoint(connect, host, port);
        farm::FarmClient client(host, port);
        farm::Message request;
        request.verb = "report";
        request.fields["job"] = std::to_string(job);
        write_file(out_path, client.call(request).body);
        std::printf("farm %s job %lld report -> %s\n", connect.c_str(), job,
                    out_path.c_str());
        if (!rows_out.empty()) {
            request.verb = "rows";
            write_file(rows_out, client.call(request).body);
            std::printf("farm %s job %lld rows -> %s\n", connect.c_str(),
                        job, rows_out.c_str());
        }
        return 0;
    }

    if (!manifest_path.empty() || !splice_from.empty()) {
        // Offline incremental re-sweep: re-slot a previous run's rows
        // onto the new grid by point fingerprint. Unchanged slots come
        // back verbatim; the rows file of what's left seeds the next run
        // (or the farm submit's --splice-from).
        if (manifest_path.empty() || splice_from.empty()) {
            bad_usage("splice needs both --manifest and --splice-from");
        }
        if (rows_out.empty()) bad_usage("splice needs --rows-out");
        const ShardManifest manifest = load_shard_manifest(manifest_path);
        if (manifest.slots.size() != manifest.total_slots) {
            bad_usage("--manifest must be a whole grid (plan --shards 1)");
        }
        std::vector<uint64_t> slot_fps;
        slot_fps.reserve(manifest.points.size());
        for (const SweepPoint& point : manifest.points) {
            slot_fps.push_back(point_fingerprint(point));
        }
        std::vector<ShardResultsFile> old_files;
        old_files.reserve(splice_from.size());
        for (const std::string& path : splice_from) {
            old_files.push_back(load_shard_results(path));
        }
        const ShardResultsFile spliced =
            splice_rows(old_files, slot_fps, manifest.grid_fp);
        write_file(rows_out, shard_results_text(spliced));
        std::printf("spliced %zu of %zu slots (%zu changed) -> %s\n",
                    spliced.rows.size(), manifest.total_slots,
                    manifest.total_slots - spliced.rows.size(),
                    rows_out.c_str());
        if (!out_path.empty()) {
            // A report needs every slot; merge_shard_results lists the
            // holes when slots still must be re-run.
            write_file(out_path, merge_shard_results({spliced}));
            std::printf("nothing changed: full report -> %s\n",
                        out_path.c_str());
        }
        return 0;
    }

    if (out_path.empty()) bad_usage("merge needs --out");
    if (results_paths.empty()) bad_usage("merge needs result files");
    // Validate the cache pairing before any output is written: a usage
    // error after side effects would leave a half-done merge behind, and
    // --cache-out with no inputs would overwrite a warm snapshot with an
    // empty one.
    if (!cache_paths.empty() && cache_out.empty()) {
        bad_usage("--cache given without --cache-out");
    }
    if (!cache_out.empty() && cache_paths.empty()) {
        bad_usage("--cache-out needs at least one --cache file");
    }

    std::vector<ShardResultsFile> shards;
    shards.reserve(results_paths.size());
    size_t hits = 0, misses = 0;
    for (const std::string& path : results_paths) {
        shards.push_back(load_shard_results(path));
        hits += shards.back().eval_hits;
        misses += shards.back().eval_misses;
    }
    const std::string merged = merge_shard_results(shards);
    write_file(out_path, merged);
    std::printf("merged %zu shards (%zu slots) -> %s (eval cache across "
                "shards: %zu hits / %zu misses)\n",
                shards.size(), shards.front().total_slots, out_path.c_str(),
                hits, misses);

    if (!cache_out.empty()) {
        std::vector<CacheSnapshot> snapshots;
        snapshots.reserve(cache_paths.size());
        for (const std::string& path : cache_paths) {
            snapshots.push_back(load_cache_snapshot(path));
        }
        const CacheSnapshot merged_cache = merge_cache_snapshots(snapshots);
        write_file(cache_out, cache_snapshot_text(merged_cache));
        std::printf("merged cache: %zu entries -> %s\n",
                    merged_cache.entries.size(), cache_out.c_str());
    }
    return 0;
}

int cmd_daemon(Args args) {
    farm::ServerOptions options;
    bool has_listen = false;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--listen") {
            options.port = int_flag(arg, args.value(arg));
            has_listen = true;
        } else if (arg == "--ttl-ms") {
            options.ttl_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--tick-ms") {
            options.tick_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--all-interfaces") {
            options.all_interfaces = true;
        } else {
            bad_usage("unknown daemon flag `" + arg + "`");
        }
    }
    if (!has_listen) bad_usage("daemon needs --listen PORT (0 = ephemeral)");

    farm::FarmServer server(options);
    // The port line goes out before serving (and unbuffered) so scripts
    // launching `daemon --listen 0 &` can scrape the ephemeral port.
    std::printf("farm daemon listening on %s:%d (ttl %lld ms, tick %lld ms)\n",
                options.all_interfaces ? "0.0.0.0" : "127.0.0.1",
                server.port(), options.ttl_ms, options.tick_ms);
    std::fflush(stdout);
    server.run();
    std::printf("farm daemon on port %d shut down\n", server.port());
    return 0;
}

int cmd_submit(Args args) {
    std::string connect, manifest_path, splice_path;
    double chunk_cost = 0.0;
    long long chunk_slots = 0;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else if (arg == "--manifest") {
            manifest_path = args.value(arg);
        } else if (arg == "--chunk-cost") {
            chunk_cost = double_flag(arg, args.value(arg));
        } else if (arg == "--chunk-slots") {
            chunk_slots = int_flag(arg, args.value(arg));
        } else if (arg == "--splice-from") {
            splice_path = args.value(arg);
        } else {
            bad_usage("unknown submit flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("submit needs --connect HOST:PORT");
    if (manifest_path.empty()) bad_usage("submit needs --manifest");

    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);

    farm::Message request;
    request.verb = "submit";
    if (chunk_cost > 0.0) {
        request.fields["chunk_cost"] = std::to_string(chunk_cost);
    }
    if (chunk_slots > 0) {
        request.fields["chunk_slots"] = std::to_string(chunk_slots);
    }
    request.body = read_file(manifest_path);
    if (!splice_path.empty()) {
        const std::string splice_text = read_file(splice_path);
        request.fields["splice_bytes"] = std::to_string(splice_text.size());
        request.body += splice_text;
    }
    const farm::Message response = client.call(request);
    std::printf("farm %s: job %s submitted (%s slots spliced from previous "
                "run)\n",
                connect.c_str(), response.require_field("job").c_str(),
                response.require_field("spliced").c_str());
    return 0;
}

int cmd_status(Args args) {
    std::string connect;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else {
            bad_usage("unknown status flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("status needs --connect HOST:PORT");

    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);
    farm::Message request;
    request.verb = "status";
    std::fputs(client.call(request).body.c_str(), stdout);
    return 0;
}

int cmd_shutdown(Args args) {
    std::string connect;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else {
            bad_usage("unknown shutdown flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("shutdown needs --connect HOST:PORT");

    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);
    farm::Message request;
    request.verb = "shutdown";
    client.call(request);
    std::printf("farm %s shutting down\n", connect.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "plan") return cmd_plan(Args(argc, argv, 2));
        if (command == "run") return cmd_run(Args(argc, argv, 2));
        if (command == "work") return cmd_work(Args(argc, argv, 2));
        if (command == "merge") return cmd_merge(Args(argc, argv, 2));
        if (command == "daemon") return cmd_daemon(Args(argc, argv, 2));
        if (command == "submit") return cmd_submit(Args(argc, argv, 2));
        if (command == "status") return cmd_status(Args(argc, argv, 2));
        if (command == "shutdown") return cmd_shutdown(Args(argc, argv, 2));
        if (command == "--help" || command == "-h") {
            usage(stdout);
            return 0;
        }
        // Same convention as targets::by_name: an unknown name lists
        // every valid spelling (sorted).
        bad_usage("unknown command `" + command +
                  "`; known: daemon, merge, plan, run, shutdown, status, "
                  "submit, work");
    } catch (const Error& e) {
        std::fprintf(stderr, "slpwlo-shard: %s\n", e.what());
        return 1;
    }
}
