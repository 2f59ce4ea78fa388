#include "dist/lease_coordinator.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "exec/jit_cache.hpp"
#include "flow/report.hpp"
#include "support/diagnostics.hpp"
#include "support/kv_format.hpp"

namespace slpwlo::dist {

namespace fs = std::filesystem;

namespace {

long long now_ms() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

std::string read_text(const fs::path& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read `" + path.string() + "`");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void write_text(const fs::path& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out.good()) throw Error("cannot write `" + path.string() + "`");
}

/// Publish atomically: readers never observe a half-written file. The
// `.tmp.<pid>.<seq>` suffix keeps concurrent publishers off each other's
// temp files and marks orphans from SIGKILLed workers for the age-based
// sweep (exec::jit_cleanup_stale matches the `.tmp.` infix).
void publish_text(const fs::path& path, const std::string& text) {
    static std::atomic<unsigned long long> seq{0};
    const fs::path tmp = path.string() + ".tmp." + std::to_string(getpid()) +
                         "." + std::to_string(seq.fetch_add(1));
    write_text(tmp, text);
    fs::rename(tmp, path);
}

/// Orphaned-temp sweep age: at least one ttl (nobody legitimately holds a
/// half-written file that long), floored so a zero-ttl test directory
/// cannot race a live writer.
long long stale_tmp_age_ms(long long ttl_ms) {
    return std::max(ttl_ms, 1000ll);
}

struct LeaseConfig {
    size_t chunks = 0;
    size_t total_slots = 0;
    uint64_t grid_fp = 0;
    long long ttl_ms = 0;
};

std::string lease_config_text(const LeaseConfig& config) {
    std::ostringstream os;
    os << "# slpwlo lease directory\n"
       << "lease_version = 1\n"
       << "chunks = " << config.chunks << "\n"
       << "total_slots = " << config.total_slots << "\n"
       << "grid_fingerprint = " << fingerprint_hex(config.grid_fp) << "\n"
       << "ttl_ms = " << config.ttl_ms << "\n";
    return os.str();
}

LeaseConfig parse_lease_config(const std::string& text,
                               const std::string& source) {
    LeaseConfig config;
    bool saw_version = false;
    kv::KvReader reader(text, source);
    kv::KvLine line;
    std::set<std::string> seen;
    while (reader.next(line)) {
        if (line.key.empty()) {
            reader.fail_here("expected `key = value`, got `" + line.value +
                             "`");
        }
        if (!seen.insert(line.key).second) {
            reader.fail_here("duplicate key `" + line.key + "`");
        }
        if (line.key == "lease_version") {
            const int version =
                kv::to_int(source, line.line, line.key, line.value);
            if (version != 1) {
                reader.fail_here("unsupported lease_version " + line.value +
                                 " (this reader knows 1)");
            }
            saw_version = true;
        } else if (line.key == "chunks") {
            config.chunks = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "total_slots") {
            config.total_slots = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "grid_fingerprint") {
            config.grid_fp =
                kv::to_fingerprint(source, line.line, line.key, line.value);
        } else if (line.key == "ttl_ms") {
            config.ttl_ms = kv::to_ll(source, line.line, line.key, line.value);
        } else {
            reader.fail_here("unknown key `" + line.key + "`");
        }
    }
    if (!saw_version) throw Error(source + ": missing lease_version");
    return config;
}

std::string chunk_text(size_t index, size_t count,
                       const std::vector<size_t>& slots) {
    std::ostringstream os;
    os << "# slpwlo lease chunk\n"
       << "chunk_index = " << index << "\n"
       << "chunk_count = " << count << "\n"
       << "slots =";
    for (const size_t slot : slots) os << " " << slot;
    os << "\n";
    return os.str();
}

std::vector<size_t> parse_chunk_slots(const std::string& text,
                                      const std::string& source,
                                      size_t expected_index) {
    std::vector<size_t> slots;
    bool saw_index = false;
    kv::KvReader reader(text, source);
    kv::KvLine line;
    while (reader.next(line)) {
        if (line.key == "chunk_index") {
            const long long index =
                kv::to_ll(source, line.line, line.key, line.value);
            if (index < 0 || static_cast<size_t>(index) != expected_index) {
                reader.fail_here("chunk_index does not match the filename");
            }
            saw_index = true;
        } else if (line.key == "chunk_count") {
            // Informational; the config's count is authoritative.
        } else if (line.key == "slots") {
            for (const int slot :
                 kv::to_int_list(source, line.line, line.key, line.value)) {
                if (slot < 0) reader.fail_here("negative slot");
                slots.push_back(static_cast<size_t>(slot));
            }
        } else {
            reader.fail_here("unknown key `" + line.key + "`");
        }
    }
    if (!saw_index) throw Error(source + ": missing chunk_index");
    if (slots.empty()) throw Error(source + ": chunk has no slots");
    for (size_t i = 1; i < slots.size(); ++i) {
        if (slots[i] <= slots[i - 1]) {
            throw Error(source + ": slots must be strictly ascending");
        }
    }
    return slots;
}

struct Claim {
    std::string worker;
    std::string nonce;
    long long deadline_ms = 0;
};

std::string claim_text(const Claim& claim) {
    std::ostringstream os;
    os << "# slpwlo lease claim\n"
       << "worker = " << claim.worker << "\n"
       << "nonce = " << claim.nonce << "\n"
       << "deadline_ms = " << claim.deadline_ms << "\n";
    return os.str();
}

/// Parse a claim; nullopt when the file is missing or unreadable (a
/// claimer that died between mkdir and write, or a steal racing us).
std::optional<Claim> try_read_claim(const fs::path& lease_dir) {
    std::ifstream in(lease_dir / "claim");
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    Claim claim;
    kv::KvReader reader(text.str(), (lease_dir / "claim").string());
    kv::KvLine line;
    while (reader.next(line)) {
        if (line.key == "worker") {
            claim.worker = line.value;
        } else if (line.key == "nonce") {
            claim.nonce = line.value;
        } else if (line.key == "deadline_ms") {
            claim.deadline_ms =
                kv::to_ll(reader.source(), line.line, line.key, line.value);
        }
    }
    if (claim.nonce.empty()) return std::nullopt;
    return claim;
}

void check_worker_id(const std::string& id) {
    SLPWLO_CHECK(!id.empty(), "worker id cannot be empty");
    for (const char c : id) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        SLPWLO_CHECK(ok, "worker id `" + id +
                             "` may only contain letters, digits, `-`, `_` "
                             "(it lands in lease filenames)");
    }
}

/// Chunk index from a `<i>.<rest>` filename, or nullopt for foreign files.
std::optional<size_t> chunk_of_filename(const std::string& name) {
    const size_t dot = name.find('.');
    if (dot == std::string::npos || dot == 0) return std::nullopt;
    size_t index = 0;
    for (size_t i = 0; i < dot; ++i) {
        if (name[i] < '0' || name[i] > '9') return std::nullopt;
        index = index * 10 + static_cast<size_t>(name[i] - '0');
    }
    return index;
}

std::set<size_t> chunks_with_results(const fs::path& dir) {
    std::set<size_t> done;
    for (const auto& entry : fs::directory_iterator(dir / "results")) {
        const std::string name = entry.path().filename().string();
        if (name.size() < 5 || name.substr(name.size() - 5) != ".rows") {
            continue;
        }
        if (const auto chunk = chunk_of_filename(name)) done.insert(*chunk);
    }
    return done;
}

/// Chunk ids present in `chunks/` — discovered by listing, never taken
/// from the config: workers splitting an oversized chunk (acquire's
/// `max_slots`) publish brand-new chunk files after init, so the
/// config's count is only the initial floor. Half-published temp files
/// (`.chunk.tmp.<pid>.<seq>`) fail the suffix test and are skipped.
std::set<size_t> list_chunks(const fs::path& dir) {
    std::set<size_t> chunks;
    for (const auto& entry : fs::directory_iterator(dir / "chunks")) {
        const std::string name = entry.path().filename().string();
        if (name.size() < 6 || name.substr(name.size() - 6) != ".chunk") {
            continue;
        }
        if (const auto chunk = chunk_of_filename(name)) chunks.insert(*chunk);
    }
    return chunks;
}

}  // namespace

// --- coordinator side ----------------------------------------------------------

size_t init_lease_dir(const std::string& dir, const ShardManifest& manifest,
                      const LeaseOptions& options) {
    SLPWLO_CHECK(!manifest.points.empty(), "cannot serve an empty grid");
    SLPWLO_CHECK(manifest.slots.size() == manifest.total_slots,
                 "lease serving needs a whole-grid manifest covering every "
                 "slot (generate one with `plan --shards 1`)");
    SLPWLO_CHECK(options.ttl_ms >= 0, "lease ttl must be non-negative");
    for (const SweepPoint& point : manifest.points) {
        SLPWLO_CHECK(point.target_model.has_value(),
                     "lease manifests must embed target models");
    }

    const fs::path root(dir);
    fs::create_directories(root);
    if (fs::exists(root / "config")) {
        throw Error("lease directory `" + dir + "` is already initialized");
    }
    fs::create_directories(root / "chunks");
    fs::create_directories(root / "leases");
    fs::create_directories(root / "results");
    fs::create_directories(root / "expired");
    // Shared compiled-kernel cache: workers running --evaluator=compiled
    // point their jit cache here, so the farm compiles each kernel once.
    fs::create_directories(root / "jit");

    // Re-serialize through the plan writer so the stored manifest keeps
    // the bit-exact round-trip guarantee (fingerprints and all).
    ShardPlan plan;
    plan.shard_index = manifest.shard_index;
    plan.shard_count = manifest.shard_count;
    plan.strategy = manifest.strategy;
    plan.total_slots = manifest.total_slots;
    plan.grid_fp = manifest.grid_fp;
    plan.slots = manifest.slots;
    plan.points = manifest.points;
    write_text(root / "manifest", shard_manifest_text(plan, manifest.defaults));

    // Cost-balanced greedy chunking in slot order (chunk_grid_slots —
    // the exact cutter the farm daemon uses, so a lease directory and a
    // farm job chop the same grid into the same chunks). Deterministic;
    // re-serving the same manifest and options always yields the same
    // chunks. Measured costs (when provided) replace the heuristic slot
    // for slot — the re-serve path sizes chunks from what the previous
    // run actually took.
    if (!options.measured_costs.empty()) {
        SLPWLO_CHECK(options.measured_costs.size() == manifest.points.size(),
                     "measured chunk costs need one entry per grid slot (" +
                         std::to_string(options.measured_costs.size()) +
                         " costs, " + std::to_string(manifest.points.size()) +
                         " slots)");
    }
    ChunkOptions chunking;
    chunking.chunk_cost = options.chunk_cost;
    chunking.max_chunk_slots = options.max_chunk_slots;
    chunking.measured_costs = options.measured_costs;
    const std::vector<std::vector<size_t>> chunks =
        chunk_grid_slots(manifest.points, manifest.slots, chunking);

    for (size_t i = 0; i < chunks.size(); ++i) {
        write_text(root / "chunks" / (std::to_string(i) + ".chunk"),
                   chunk_text(i, chunks.size(), chunks[i]));
    }

    // The config is written last: its presence marks the directory ready
    // (workers started early poll until it appears... they fail fast
    // today; see LeaseWorkSource ctor).
    LeaseConfig config;
    config.chunks = chunks.size();
    config.total_slots = manifest.total_slots;
    config.grid_fp = manifest.grid_fp;
    config.ttl_ms = options.ttl_ms;
    publish_text(root / "config", lease_config_text(config));
    return chunks.size();
}

LeaseDirStatus lease_dir_status(const std::string& dir) {
    const fs::path root(dir);
    // Parsed only to verify the directory is initialized — the live
    // chunk count comes from listing chunks/, which grows when workers
    // split oversized chunks.
    parse_lease_config(read_text(root / "config"),
                       (root / "config").string());
    LeaseDirStatus status;
    status.chunks = list_chunks(root).size();
    status.completed = chunks_with_results(root).size();
    for (const auto& entry : fs::directory_iterator(root / "leases")) {
        if (entry.is_directory()) status.claimed++;
    }
    std::set<size_t> reissued;
    for (const auto& entry : fs::directory_iterator(root / "expired")) {
        const std::string name = entry.path().filename().string();
        // `.done` entries are retired post-completion claims
        // (cleanup_stale_claim), not re-issues of live work.
        if (name.size() >= 5 && name.substr(name.size() - 5) == ".done") {
            continue;
        }
        if (const auto chunk = chunk_of_filename(name)) reissued.insert(*chunk);
    }
    status.reissued = reissued.size();
    return status;
}

std::string collect_lease_results(const std::string& dir) {
    const fs::path root(dir);
    const LeaseConfig config =
        parse_lease_config(read_text(root / "config"),
                           (root / "config").string());

    // Housekeeping for SIGKILLed workers: their half-written publishes
    // (`.tmp.<pid>.<seq>`) never match the `.rows` filter below, but they
    // would otherwise accumulate forever.
    const long long age = stale_tmp_age_ms(config.ttl_ms);
    exec::jit_cleanup_stale((root / "results").string(), age);
    exec::jit_cleanup_stale((root / "jit").string(), age);

    std::map<size_t, std::vector<fs::path>> by_chunk;
    for (const auto& entry : fs::directory_iterator(root / "results")) {
        const std::string name = entry.path().filename().string();
        if (name.size() < 5 || name.substr(name.size() - 5) != ".rows") {
            continue;
        }
        if (const auto chunk = chunk_of_filename(name)) {
            by_chunk[*chunk].push_back(entry.path());
        }
    }

    // Completeness is judged against the chunks that exist now — splits
    // grow the set past the config's initial count, and every split-off
    // chunk must publish its own results before the merge is whole.
    const std::set<size_t> chunks = list_chunks(root);
    std::string missing;
    int listed = 0;
    for (const size_t chunk : chunks) {
        if (by_chunk.count(chunk) != 0) continue;
        if (listed < 8) {
            if (!missing.empty()) missing += ", ";
            missing += std::to_string(chunk);
        }
        listed++;
    }
    if (listed != 0) {
        throw Error("lease directory `" + dir + "`: " +
                    std::to_string(listed) + " of " +
                    std::to_string(chunks.size()) +
                    " chunks have no published results yet (first: " +
                    missing + ")");
    }

    std::vector<ShardResultsFile> files;
    for (auto& [chunk, paths] : by_chunk) {
        (void)chunk;
        // Deterministic load order (directory iteration is not).
        std::sort(paths.begin(), paths.end());
        for (const fs::path& path : paths) {
            files.push_back(load_shard_results(path.string()));
        }
    }
    // Re-issued leases publish byte-identical duplicates (micros aside);
    // anything else is still a hard conflict.
    return merge_shard_results(files, DuplicatePolicy::AllowIdentical);
}

// --- worker side ---------------------------------------------------------------

struct LeaseWorkSource::Impl {
    fs::path root;
    LeaseWorkerOptions options;
    LeaseConfig config;
    ShardManifest manifest;
    std::set<size_t> done;        ///< chunks observed completed (monotonic)
    std::map<size_t, long long> claim_missing_since;  ///< see try_steal
    std::map<uint64_t, std::string> held;  ///< lease id -> claim nonce
    size_t seq = 0;
    size_t steals = 0;

    std::string next_nonce() {
        return options.worker_id + "." + std::to_string(seq++);
    }

    fs::path lease_path(size_t chunk) const {
        return root / "leases" / (std::to_string(chunk) + ".lease");
    }

    /// One results/ listing refreshes the (monotonic) done set for a
    /// whole acquire pass — never one listing per chunk. `total_chunks`
    /// is the pass's discovered chunk count (splits grow it past the
    /// config), used only to skip the listing once everything is done.
    void refresh_done(size_t total_chunks) {
        if (done.size() >= total_chunks) return;
        for (const size_t chunk : chunks_with_results(root)) {
            done.insert(chunk);
        }
    }

    /// A completed chunk whose claim outlived its owner (killed after
    /// publishing, or a straggler past its deadline) is never re-claimed,
    /// so nobody would ever steal the stale directory away — retire it
    /// once expired, or lease_dir_status would report an in-flight lease
    /// on a finished farm forever. Retirement is rename-first, exactly
    /// like try_steal: a plain read-check-remove could race a stealer
    /// whose done set predates the results file and delete its freshly
    /// re-created claim. The `.done` graveyard name keeps these out of
    /// the re-issue audit count.
    void cleanup_stale_claim(size_t chunk) {
        if (held.count(chunk) != 0) return;  // ours and live: release()'s job
        const fs::path path = lease_path(chunk);
        const auto claim = try_read_claim(path);
        if (!claim.has_value()) return;
        if (now_ms() <= claim->deadline_ms) return;  // owner may still act
        std::error_code ec;
        const fs::path grave =
            root / "expired" /
            (std::to_string(chunk) + "." + next_nonce() + ".done");
        fs::rename(path, grave, ec);
        if (ec) return;  // a racing rename won; nothing left to retire
        fs::remove_all(grave, ec);
    }

    /// Steal an expired (or claim-less past ttl) lease. True when the
    /// lease directory is gone afterwards (by us or a racing stealer).
    bool try_steal(size_t chunk) {
        const fs::path path = lease_path(chunk);
        const auto claim = try_read_claim(path);
        const long long now = now_ms();
        if (claim.has_value()) {
            claim_missing_since.erase(chunk);
            if (now <= claim->deadline_ms) return false;  // live
        } else {
            // A claim directory with no claim file: its owner died between
            // mkdir and write (or a steal is racing us). Wait a full ttl
            // from first sighting before declaring it dead — wall clocks
            // aside, nobody legitimately holds a bare directory that long.
            const auto [it, inserted] =
                claim_missing_since.emplace(chunk, now);
            if (now - it->second <= config.ttl_ms) return false;
        }
        claim_missing_since.erase(chunk);
        std::error_code ec;
        fs::rename(path,
                   root / "expired" /
                       (std::to_string(chunk) + "." + next_nonce()),
                   ec);
        if (ec) return !fs::exists(path);  // a racing stealer beat us
        steals++;
        return true;
    }

    /// mkdir-claim `chunk`; on success records the claim and returns true.
    bool try_claim(size_t chunk) {
        const fs::path path = lease_path(chunk);
        std::error_code ec;
        if (!fs::create_directory(path, ec) || ec) {
            if (!try_steal(chunk)) return false;
            ec.clear();
            if (!fs::create_directory(path, ec) || ec) return false;
        }
        Claim claim;
        claim.worker = options.worker_id;
        claim.nonce = next_nonce();
        claim.deadline_ms = now_ms() + config.ttl_ms;
        // tmp + rename: a racing reader must never parse a half-written
        // claim (a truncated deadline reads as 0 — instantly stealable).
        publish_text(path / "claim", claim_text(claim));
        held[chunk] = claim.nonce;
        return true;
    }

    /// Remove our own claim — never a stolen-and-reclaimed one. Only
    /// attempted while our deadline has not passed: past it, a stealer
    /// may own the path again, and the merge's duplicate resolution is
    /// cheaper than any read-check-remove race here.
    void release(size_t chunk) {
        const auto it = held.find(chunk);
        if (it == held.end()) return;
        const std::string nonce = it->second;
        held.erase(it);
        const fs::path path = lease_path(chunk);
        const auto claim = try_read_claim(path);
        if (!claim.has_value() || claim->nonce != nonce) return;  // stolen
        if (now_ms() > claim->deadline_ms) return;  // stealable — leave it
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    /// Re-chop an oversized chunk we hold the claim on: keep the first
    /// `max_slots` slots in `lease`, publish the remainder as a brand-new
    /// claimable chunk. Ordering is the crash-safety argument — the tail
    /// chunk file is published BEFORE the head chunk shrinks, so dying
    /// in between duplicates the tail (the old full chunk and the new
    /// tail chunk both eventually run, and the merge's AllowIdentical
    /// policy absorbs the byte-identical rows) rather than losing it.
    ///
    /// The fresh id is reserved with the same mkdir primitive try_claim
    /// uses, on the id's lease directory, so two concurrent splitters can
    /// never pick the same id. mkdir alone is not enough: a completed
    /// split-off chunk releases its lease directory, so a stale-watermark
    /// reserver could mkdir an id that already names a real chunk — the
    /// exists() check after a successful mkdir closes that (while we hold
    /// leases/<id>.lease, nobody else can create chunks/<id>.chunk).
    void split(size_t chunk, Lease& lease, size_t max_slots) {
        const std::vector<size_t> head(lease.slots.begin(),
                                       lease.slots.begin() +
                                           static_cast<long>(max_slots));
        const std::vector<size_t> tail(lease.slots.begin() +
                                           static_cast<long>(max_slots),
                                       lease.slots.end());

        size_t fresh = chunk + 1;
        for (const size_t known : list_chunks(root)) {
            fresh = std::max(fresh, known + 1);
        }
        for (;;) {
            std::error_code ec;
            if (fs::create_directory(lease_path(fresh), ec) && !ec) {
                if (!fs::exists(root / "chunks" /
                                (std::to_string(fresh) + ".chunk"))) {
                    break;
                }
                fs::remove_all(lease_path(fresh), ec);
            }
            ++fresh;
        }
        Claim claim;
        claim.worker = options.worker_id;
        claim.nonce = next_nonce();
        claim.deadline_ms = now_ms() + config.ttl_ms;
        publish_text(lease_path(fresh) / "claim", claim_text(claim));
        held[fresh] = claim.nonce;

        // chunk_count is informational (parse ignores it); the fresh id
        // is the best watermark either file can state.
        publish_text(root / "chunks" / (std::to_string(fresh) + ".chunk"),
                     chunk_text(fresh, fresh + 1, tail));
        publish_text(root / "chunks" / (std::to_string(chunk) + ".chunk"),
                     chunk_text(chunk, fresh + 1, head));
        release(fresh);  // the tail is on disk — let anyone claim it

        lease.slots = head;
        lease.points.resize(head.size());
    }

    Lease lease_for(size_t chunk) {
        const std::vector<size_t> slots = parse_chunk_slots(
            read_text(root / "chunks" / (std::to_string(chunk) + ".chunk")),
            (root / "chunks" / (std::to_string(chunk) + ".chunk")).string(),
            chunk);
        Lease lease;
        lease.id = chunk;
        lease.slots = slots;
        lease.points.reserve(slots.size());
        for (const size_t slot : slots) {
            SLPWLO_CHECK(slot < manifest.points.size(),
                         "chunk slot out of manifest range");
            // Whole-grid manifests are slot-complete and ascending, so
            // slot i sits at position i (checked in the constructor).
            lease.points.push_back(manifest.points[slot]);
        }
        return lease;
    }
};

LeaseWorkSource::LeaseWorkSource(std::string dir, LeaseWorkerOptions options)
    : impl_(std::make_unique<Impl>()) {
    impl_->root = fs::path(std::move(dir));
    if (options.worker_id.empty()) {
        options.worker_id = std::string("w").append(std::to_string(getpid()));
    }
    check_worker_id(options.worker_id);
    SLPWLO_CHECK(options.poll_ms > 0, "poll_ms must be positive");
    impl_->options = std::move(options);
    impl_->config = parse_lease_config(
        read_text(impl_->root / "config"),
        (impl_->root / "config").string());
    impl_->manifest = load_shard_manifest((impl_->root / "manifest").string());
    SLPWLO_CHECK(impl_->manifest.grid_fp == impl_->config.grid_fp,
                 "lease directory manifest/config grid fingerprints disagree");
    SLPWLO_CHECK(
        impl_->manifest.slots.size() == impl_->manifest.total_slots,
        "lease directory manifest does not cover the whole grid");
    for (size_t i = 0; i < impl_->manifest.slots.size(); ++i) {
        SLPWLO_CHECK(impl_->manifest.slots[i] == i,
                     "whole-grid manifest slots must be 0..n-1");
    }
    // Share one compiled-kernel cache across the farm ($SLPWLO_JIT_DIR
    // still wins when the user pinned one), and sweep temp orphans a
    // SIGKILLed predecessor may have left in it or in results/.
    exec::set_jit_cache_directory((impl_->root / "jit").string());
    const long long age = stale_tmp_age_ms(impl_->config.ttl_ms);
    exec::jit_cleanup_stale((impl_->root / "jit").string(), age);
    exec::jit_cleanup_stale((impl_->root / "results").string(), age);
}

LeaseWorkSource::~LeaseWorkSource() = default;

size_t LeaseWorkSource::total_slots() const {
    return impl_->config.total_slots;
}

const ShardManifest& LeaseWorkSource::manifest() const {
    return impl_->manifest;
}

size_t LeaseWorkSource::steals() const { return impl_->steals; }

Lease LeaseWorkSource::acquire(size_t max_slots) {
    const long long start = now_ms();
    for (;;) {
        // Chunks are discovered per pass, not read from the config:
        // any worker may have split an oversized chunk since the last
        // pass, publishing new chunk files past the initial count.
        const std::set<size_t> chunks = list_chunks(impl_->root);
        impl_->refresh_done(chunks.size());
        bool all_done = true;
        for (const size_t chunk : chunks) {
            if (impl_->done.count(chunk) != 0) {
                impl_->cleanup_stale_claim(chunk);
                continue;
            }
            all_done = false;
            if (impl_->try_claim(chunk)) {
                // The chunk may have been published (and its claim
                // released) after this pass's refresh_done — a large
                // farm walks many claim reads between the refresh and
                // here. One re-check saves re-running a whole chunk.
                impl_->refresh_done(chunks.size());
                if (impl_->done.count(chunk) != 0) {
                    impl_->release(chunk);
                    continue;
                }
                Lease lease = impl_->lease_for(chunk);
                if (max_slots > 0 && lease.slots.size() > max_slots) {
                    impl_->split(chunk, lease, max_slots);
                }
                return lease;
            }
        }
        if (all_done) return Lease{};
        if (now_ms() - start > impl_->options.acquire_timeout_ms) {
            throw Error("lease acquire timed out after " +
                        std::to_string(impl_->options.acquire_timeout_ms) +
                        " ms with chunks still outstanding in `" +
                        impl_->root.string() + "`");
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(impl_->options.poll_ms));
    }
}

void LeaseWorkSource::complete(const Lease& lease, std::vector<WorkRow> rows) {
    SLPWLO_CHECK(rows.size() == lease.slots.size(),
                 "lease completed with a row count that does not match its "
                 "slot count");
    if (impl_->options.straggle_ms > 0) {
        // Test hook: hold the lease past its deadline so another worker
        // steals and re-runs it — the duplicate-row path downstream.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(impl_->options.straggle_ms));
    }

    ShardResultsFile file;
    file.shard_index = static_cast<int>(lease.id);
    // Informational in the results format (the merge keys on grid
    // fingerprint and slots, not index/count) — a split-off chunk's id
    // may legitimately exceed the config's initial chunk count.
    file.shard_count = static_cast<int>(impl_->config.chunks);
    file.total_slots = impl_->config.total_slots;
    file.grid_fp = impl_->config.grid_fp;
    file.rows.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        file.rows.push_back(make_shard_row(
            lease.slots[i], impl_->manifest.points[lease.slots[i]], rows[i]));
    }

    const std::string name = std::to_string(lease.id) + "." +
                             impl_->next_nonce() + ".rows";
    publish_text(impl_->root / "results" / name, shard_results_text(file));
    impl_->done.insert(static_cast<size_t>(lease.id));
    impl_->release(static_cast<size_t>(lease.id));
}

void LeaseWorkSource::abandon(const Lease& lease) {
    impl_->release(static_cast<size_t>(lease.id));
}

}  // namespace slpwlo::dist
