// JitCache: content-addressed on-disk cache of compiled kernel objects.
//
// A compiled artifact is fully determined by what was emitted and who
// compiled it, so the cache key is the tuple
//   (kernel fingerprint, target fingerprint, format-set fingerprint,
//    quantization mode, compiler id)
// hashed to a filename `<16-hex>.so` (the emitted C rides next to it as
// `<16-hex>.c` for debugging). Sweeps and shard workers across processes
// share the directory: a second worker that needs the same object gets a
// hit instead of a rebuild.
//
// Within a process, builds of different objects run concurrently (each is
// its own compiler process); a thread that needs an object another thread
// is building waits for it and takes the hit, so every object is compiled
// once per process.
//
// Publishing follows the repo-wide tmp+rename discipline, with the builder
// pid and a process-local sequence number in the temp name so concurrent
// builders never collide — and so temp files orphaned by a SIGKILLed
// worker are identifiable: jit_cleanup_stale() removes `.tmp.` entries
// older than a TTL.
//
// The directory resolves to `$SLPWLO_JIT_DIR` if set, else the process
// default installed by set_jit_cache_directory(), else
// `<system temp>/slpwlo-jit`.
#pragma once

#include <cstdint>
#include <string>

#include "fixpoint/quantize.hpp"

namespace slpwlo::exec {

struct JitKey {
    uint64_t kernel_fp = 0;   ///< hash of the printed kernel
    uint64_t target_fp = 0;   ///< 0 for target-independent objects
    uint64_t format_fp = 0;   ///< hash of every node format in the spec
    QuantMode quant_mode = QuantMode::Truncate;
    std::string compiler_id;  ///< Toolchain::id
};

/// The key folded to the filename stem.
uint64_t jit_key_hash(const JitKey& key);

/// Process-wide hit/build counters (sweep cache stats surface them).
struct JitCacheStats {
    long long hits = 0;    ///< object already on disk
    long long builds = 0;  ///< object compiled by this process
    /// Most compiler runs this process had under way at once since the
    /// last reset (observational: it shows whether builds overlapped).
    long long peak_builds_in_flight = 0;
};

JitCacheStats jit_cache_stats();
void reset_jit_cache_stats();

/// The active cache directory (created on demand by jit_obtain).
std::string jit_cache_directory();

/// Install the process-default directory (overridden by $SLPWLO_JIT_DIR).
/// Empty string restores the system-temp default.
void set_jit_cache_directory(const std::string& dir);

/// Path to the ready shared object for `key`, compiling `c_source` with the
/// host toolchain when it is not cached yet. Returns an empty string on
/// failure (no toolchain, compile error) with diagnostics in `error`.
std::string jit_obtain(const JitKey& key, const std::string& c_source,
                       std::string* error = nullptr);

/// Remove `.tmp.` droppings older than `age_ms` from `dir` (orphans of
/// SIGKILLed builders). Returns the number of entries removed; a missing
/// directory is not an error (returns 0).
int jit_cleanup_stale(const std::string& dir, long long age_ms);

/// Age past which a `.tmp.` entry cannot belong to a running build (one
/// compile takes seconds). Farm workers and the farm daemon sweep the
/// active cache directory with it once at start-up.
inline constexpr long long kJitStaleTempAgeMs = 60LL * 60 * 1000;

}  // namespace slpwlo::exec
