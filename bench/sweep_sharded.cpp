// ShardEngine acceptance harness: the same grid, three ways.
//
//   1. single process, one SweepDriver        — the reference report;
//   2. N worker *processes* (fork/exec of the slpwlo-shard CLI), one
//      manifest each, merged                  — must be byte-identical,
//      for both assignment strategies;
//   3. shard 0 re-run warm from the merged    — must be byte-identical
//      cache snapshot of run 2                  and show nonzero cache
//                                               hits in its report.
//
// This is the end-to-end proof behind DESIGN.md §7: sharding a sweep
// across processes (and by extension machines) changes wall-clock, never
// bytes. The elastic path (farm daemon, SIGKILLed stragglers) has its own
// end-to-end test in tests/test_farm.cpp.
//
//   $ ./sweep_sharded [--threads N] [--smoke] [--shards N]
//                     [--shard-tool PATH] [--json[=FILE]]
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dist/cache_snapshot.hpp"
#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;
using namespace slpwlo::dist;

namespace {

std::string tool_path_from(const char* argv0) {
    const std::string self = argv0;
    const size_t slash = self.rfind('/');
    if (slash == std::string::npos) return "slpwlo-shard";
    return self.substr(0, slash + 1) + "slpwlo-shard";
}

/// fork/exec one worker and wait for it; returns its exit status
/// (shell-style).
int run_process(const std::vector<std::string>& command) {
    std::vector<char*> argv;
    argv.reserve(command.size() + 1);
    for (const std::string& arg : command) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return -1;
    }
    if (pid == 0) {
        execvp(argv[0], argv.data());
        std::perror(argv[0]);
        _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

bool plans_identical(const std::vector<ShardPlan>& a,
                     const std::vector<ShardPlan>& b) {
    if (a.size() != b.size()) return false;
    for (size_t s = 0; s < a.size(); ++s) {
        if (a[s].slots != b[s].slots || a[s].grid_fp != b[s].grid_fp) {
            return false;
        }
    }
    return true;
}

bool rows_identical(const ShardResultsFile& a, const ShardResultsFile& b) {
    if (a.rows.size() != b.rows.size()) return false;
    for (size_t i = 0; i < a.rows.size(); ++i) {
        if (a.rows[i].slot != b.rows[i].slot ||
            a.rows[i].point_fp != b.rows[i].point_fp ||
            a.rows[i].json != b.rows[i].json) {
            return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    print_header("Sharded sweep — N processes vs one, byte for byte",
                 "ShardEngine infrastructure (no paper figure)");

    int shards = 4;
    std::string tool = tool_path_from(argc > 0 ? argv[0] : "sweep_sharded");
    BenchArgSpec spec;
    spec.smoke = true;
    spec.extra = {
        {"--shards", true, "N  worker processes to fork (default 4)",
         [&](const std::string& v) { shards = std::atoi(v.c_str()); }},
        {"--shard-tool", true, "PATH  slpwlo-shard binary (default: sibling)",
         [&](const std::string& v) { tool = v; }},
    };
    const BenchOptions args = parse_bench_args(argc, argv, spec);
    if (shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
    }

    // The grid mixes base and derived-width targets (the derived variants
    // are exactly the models a worker machine could never resolve by
    // name) and, off smoke, both fixed-point flows.
    const std::vector<std::string> kernels =
        args.smoke ? std::vector<std::string>{"FIR"}
                   : std::vector<std::string>{"FIR", "DOT"};
    const std::vector<std::string> flows =
        args.smoke ? std::vector<std::string>{"WLO-SLP"}
                   : std::vector<std::string>{"WLO-SLP", "WLO-First"};
    const std::vector<double> constraints =
        args.smoke ? std::vector<double>{-20.0, -30.0}
                   : accuracy_grid(-20.0, -50.0, 10.0);
    std::vector<int> widths{0};
    if (targets::xentium().can_derive_simd_width(64)) widths.push_back(64);
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        kernels, {"XENTIUM"}, widths, flows, constraints);
    std::printf("grid: %zu points, %d shard processes, tool: %s\n\n",
                grid.size(), shards, tool.c_str());

    // Reference: one process, one driver.
    SweepOptions sweep_options;
    sweep_options.threads = args.threads;
    SweepDriver reference(sweep_options);
    const std::vector<SweepResult> reference_results = reference.run(grid);
    const std::string reference_json = sweep_to_json(reference_results);

    char tmp_template[] = "sweep_sharded.XXXXXX";
    const char* tmp = mkdtemp(tmp_template);
    if (tmp == nullptr) {
        std::perror("mkdtemp");
        return 1;
    }
    const std::string dir = tmp;

    bool ok = true;
    std::vector<std::string> snapshot_paths;

    for (const ShardStrategy strategy :
         {ShardStrategy::RoundRobin, ShardStrategy::CostBalanced}) {
        const std::string tag = to_string(strategy);

        // Plans must be a pure function of (grid, N).
        const std::vector<ShardPlan> plans =
            make_shard_plans(grid, shards, strategy);
        if (!plans_identical(plans,
                             make_shard_plans(grid, shards, strategy))) {
            std::printf("[%s] plans are NOT deterministic\n", tag.c_str());
            ok = false;
            continue;
        }

        std::vector<std::string> results_paths;
        bool round_ok = true;
        for (const ShardPlan& plan : plans) {
            const std::string base =
                dir + "/" + tag + "." + std::to_string(plan.shard_index);
            write_file(base + ".manifest", shard_manifest_text(plan));
            std::vector<std::string> command{
                tool,   "run",  "--manifest", base + ".manifest",
                "--out", base + ".results", "--threads",
                std::to_string(args.threads)};
            if (strategy == ShardStrategy::RoundRobin) {
                command.push_back("--snapshot-out");
                command.push_back(base + ".snap");
            }
            const int status = run_process(command);
            if (status != 0) {
                std::printf("[%s] shard %d worker failed (exit %d)\n",
                            tag.c_str(), plan.shard_index, status);
                round_ok = false;
                break;
            }
            results_paths.push_back(base + ".results");
            if (strategy == ShardStrategy::RoundRobin) {
                snapshot_paths.push_back(base + ".snap");
            }
        }
        if (!round_ok) {
            ok = false;
            continue;
        }

        std::vector<ShardResultsFile> shard_results;
        for (const std::string& path : results_paths) {
            shard_results.push_back(load_shard_results(path));
        }
        const std::string merged = merge_shard_results(shard_results);
        const bool identical = merged == reference_json;
        std::printf("[%s] merged %d-process report byte-identical to "
                    "1-process: %s\n",
                    tag.c_str(), shards, identical ? "yes" : "NO");
        ok = ok && identical;
    }

    // Warm re-run: shard 0 against the union of every shard's snapshot.
    if (ok && !snapshot_paths.empty()) {
        std::vector<CacheSnapshot> snapshots;
        for (const std::string& path : snapshot_paths) {
            snapshots.push_back(load_cache_snapshot(path));
        }
        const CacheSnapshot warm = merge_cache_snapshots(snapshots);
        const std::string warm_path = dir + "/warm.snap";
        write_file(warm_path, cache_snapshot_text(warm));
        std::printf("\nwarm snapshot: %zu eval + %zu stage entries merged "
                    "from %zu shards\n",
                    warm.entries.size(), warm.stage_entries.size(),
                    snapshot_paths.size());

        const std::string base = dir + "/round-robin.0";
        const std::string warm_results_path = dir + "/warm.0.results";
        const int status = run_process(
            {tool, "run", "--manifest", base + ".manifest", "--out",
             warm_results_path, "--threads", std::to_string(args.threads),
             "--snapshot-in", warm_path});
        if (status != 0) {
            std::printf("warm shard worker failed (exit %d)\n", status);
            ok = false;
        } else {
            const ShardResultsFile warm_results =
                load_shard_results(warm_results_path);
            const ShardResultsFile cold_results =
                load_shard_results(base + ".results");
            const bool hits = warm_results.eval_hits > 0;
            // A stage-memo hit means the warm worker skipped Tabu/SLP for
            // that point entirely; every preloaded point must hit.
            const bool stage_hits = warm_results.stage_hits > 0;
            const bool same = rows_identical(warm_results, cold_results);
            std::printf("warm-snapshot shard 0: %zu eval hits (%s), %zu "
                        "stage hits (%s), rows identical to cold run: %s\n",
                        warm_results.eval_hits, hits ? "ok" : "NONE",
                        warm_results.stage_hits, stage_hits ? "ok" : "NONE",
                        same ? "yes" : "NO");
            ok = ok && hits && stage_hits && same;
        }
    }

    if (ok) std::filesystem::remove_all(dir);
    else std::printf("keeping %s for inspection\n", dir.c_str());

    const SweepCacheStats stats = reference.cache_stats();
    maybe_emit_json(args, reference_results, &stats);
    std::printf("sharded sweep: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
