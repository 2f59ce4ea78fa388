#include "exec/jit_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>

#include "exec/toolchain.hpp"
#include "support/rng.hpp"

namespace slpwlo::exec {
namespace fs = std::filesystem;

namespace {

std::atomic<long long> g_hits{0};
std::atomic<long long> g_builds{0};
std::atomic<uint64_t> g_tmp_seq{0};
std::mutex g_mutex;
std::string g_default_dir;  // guarded by g_mutex

// Build claims: the object paths some thread of this process is compiling.
// A thread that needs a claimed path waits on g_build_cv and then takes the
// hit, so each object is built once per process while different objects
// compile side by side.
std::mutex g_build_mutex;
std::condition_variable g_build_cv;
std::set<std::string> g_in_flight;  // guarded by g_build_mutex
// Compiler runs under way, and the most at once since the last reset.
long long g_compiling = 0;       // guarded by g_build_mutex
long long g_peak_compiling = 0;  // guarded by g_build_mutex

/// Holds the claim on one object path; releasing it wakes the waiters.
class BuildClaim {
public:
    explicit BuildClaim(std::string path) : path_(std::move(path)) {}
    ~BuildClaim() {
        {
            std::lock_guard<std::mutex> lock(g_build_mutex);
            g_in_flight.erase(path_);
        }
        g_build_cv.notify_all();
    }
    BuildClaim(const BuildClaim&) = delete;
    BuildClaim& operator=(const BuildClaim&) = delete;

private:
    std::string path_;
};

uint64_t mix(uint64_t h, uint64_t value) {
    // FNV-1a over the value's bytes, matching the dist-layer fingerprints.
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (i * 8)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Write `text` to `path` via a pid-unique temp name + rename, so readers
/// never observe a partial file and orphaned temps are attributable.
bool publish_file(const fs::path& path, const std::string& text) {
    const fs::path tmp = fs::path(
        path.string() + ".tmp." + std::to_string(getpid()) + "." +
        std::to_string(g_tmp_seq.fetch_add(1)));
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out) return false;
        out << text;
        if (!out.flush()) return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) fs::remove(tmp, ec);
    return !ec;
}

}  // namespace

uint64_t jit_key_hash(const JitKey& key) {
    // The version tag doubles as the emitter generation: bumping it
    // orphans every cached object built by older emitters (the key hashes
    // kernel + formats, not the generated source, so a codegen fix would
    // otherwise keep hitting stale .so files).
    uint64_t h = hash_name("slpwlo-jit-v3");
    h = mix(h, key.kernel_fp);
    h = mix(h, key.target_fp);
    h = mix(h, key.format_fp);
    h = mix(h, static_cast<uint64_t>(key.quant_mode));
    h = mix(h, hash_name(key.compiler_id));
    return h;
}

JitCacheStats jit_cache_stats() {
    JitCacheStats stats;
    stats.hits = g_hits.load();
    stats.builds = g_builds.load();
    std::lock_guard<std::mutex> lock(g_build_mutex);
    stats.peak_builds_in_flight = g_peak_compiling;
    return stats;
}

void reset_jit_cache_stats() {
    g_hits.store(0);
    g_builds.store(0);
    std::lock_guard<std::mutex> lock(g_build_mutex);
    g_peak_compiling = g_compiling;
}

std::string jit_cache_directory() {
    if (const char* env = std::getenv("SLPWLO_JIT_DIR");
        env != nullptr && env[0] != '\0') {
        return env;
    }
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_default_dir.empty()) return g_default_dir;
    return (fs::temp_directory_path() / "slpwlo-jit").string();
}

void set_jit_cache_directory(const std::string& dir) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_default_dir = dir;
}

std::string jit_obtain(const JitKey& key, const std::string& c_source,
                       std::string* error) {
    const fs::path dir = jit_cache_directory();
    char stem[32];
    std::snprintf(stem, sizeof(stem), "%016llx",
                  static_cast<unsigned long long>(jit_key_hash(key)));
    const fs::path so_path = dir / (std::string(stem) + ".so");

    std::error_code ec;
    if (fs::exists(so_path, ec)) {
        g_hits.fetch_add(1);
        return so_path.string();
    }

    // One builder per object per process: claim the path, or wait for the
    // thread that holds it and take its hit. Cross-process racers publish
    // independently (both temps rename onto the same content-addressed
    // name).
    const std::string so_name = so_path.string();
    {
        std::unique_lock<std::mutex> lock(g_build_mutex);
        g_build_cv.wait(lock,
                        [&] { return g_in_flight.count(so_name) == 0; });
        if (fs::exists(so_path, ec)) {
            g_hits.fetch_add(1);
            return so_name;
        }
        g_in_flight.insert(so_name);
    }
    const BuildClaim claim(so_name);
    fs::create_directories(dir, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "cannot create jit cache directory " + dir.string() +
                     ": " + ec.message();
        }
        return {};
    }

    const std::string unique = std::to_string(getpid()) + "." +
                               std::to_string(g_tmp_seq.fetch_add(1));
    const fs::path tmp_c = dir / (std::string(stem) + ".so.tmp." + unique +
                                  ".c");
    const fs::path tmp_so = dir / (std::string(stem) + ".so.tmp." + unique);
    {
        std::ofstream out(tmp_c, std::ios::binary);
        out << c_source;
        if (!out.flush()) {
            if (error != nullptr) {
                *error = "cannot write " + tmp_c.string();
            }
            fs::remove(tmp_c, ec);
            return {};
        }
    }
    std::string log;
    {
        std::lock_guard<std::mutex> lock(g_build_mutex);
        g_peak_compiling = std::max(g_peak_compiling, ++g_compiling);
    }
    const bool ok =
        compile_shared(host_toolchain(), tmp_c.string(), tmp_so.string(),
                       &log);
    {
        std::lock_guard<std::mutex> lock(g_build_mutex);
        --g_compiling;
    }
    if (!ok) {
        if (error != nullptr) *error = log.empty() ? "compile failed" : log;
        fs::remove(tmp_c, ec);
        fs::remove(tmp_so, ec);
        return {};
    }
    fs::rename(tmp_so, so_path, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "cannot publish " + so_path.string() + ": " +
                     ec.message();
        }
        fs::remove(tmp_c, ec);
        fs::remove(tmp_so, ec);
        return {};
    }
    // The emitted source rides next to the object for debugging.
    publish_file(dir / (std::string(stem) + ".c"), c_source);
    fs::remove(tmp_c, ec);
    g_builds.fetch_add(1);
    return so_path.string();
}

int jit_cleanup_stale(const std::string& dir, long long age_ms) {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return 0;
    const auto now = fs::file_time_type::clock::now();
    const auto age = std::chrono::milliseconds(age_ms);
    int removed = 0;
    for (const auto& entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos) continue;
        const auto mtime = fs::last_write_time(entry.path(), ec);
        if (ec) continue;
        if (now - mtime < age) continue;
        if (fs::remove(entry.path(), ec) && !ec) removed++;
    }
    return removed;
}

}  // namespace slpwlo::exec
