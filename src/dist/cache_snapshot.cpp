#include "dist/cache_snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "flow/report.hpp"
#include "support/diagnostics.hpp"
#include "support/kv_format.hpp"

namespace slpwlo::dist {

CacheSnapshot snapshot_cache(const EvalCache& cache) {
    CacheSnapshot snapshot;
    snapshot.entries = cache.export_entries();
    snapshot.stage_entries = cache.export_stage_entries();
    return snapshot;
}

void preload_cache(EvalCache& cache, const CacheSnapshot& snapshot) {
    // store() never touches the hit/miss counters, so a warm start does
    // not masquerade as cache traffic. On a capacity-bounded cache the
    // preload only fills the *free* slots (with the snapshot's
    // highest-keyed entries, which is what FIFO insertion in snapshot
    // order would have kept): resident entries are never displaced and
    // the evictions counter keeps meaning "entries displaced by sweep
    // traffic", not "snapshot overflow".
    size_t begin = 0;
    const size_t capacity = cache.capacity();
    if (capacity > 0) {
        const size_t resident = cache.size();
        const size_t free_slots = capacity > resident ? capacity - resident : 0;
        // The preloadable suffix: walk back from the highest key, where
        // already-resident keys ride along for free (their store is a
        // no-op) and only genuinely new keys consume a slot.
        size_t taken = 0;
        begin = snapshot.entries.size();
        while (begin > 0) {
            if (!cache.contains(snapshot.entries[begin - 1].first)) {
                if (taken == free_slots) break;
                taken++;
            }
            begin--;
        }
    }
    for (size_t i = begin; i < snapshot.entries.size(); ++i) {
        cache.store(snapshot.entries[i].first, snapshot.entries[i].second);
    }

    // Stage-memo table: same free-slot discipline against the shared
    // capacity bound (each table is bounded independently).
    size_t stage_begin = 0;
    if (capacity > 0) {
        const size_t resident = cache.stage_size();
        const size_t free_slots = capacity > resident ? capacity - resident : 0;
        size_t taken = 0;
        stage_begin = snapshot.stage_entries.size();
        while (stage_begin > 0) {
            if (!cache.contains_stage(
                    snapshot.stage_entries[stage_begin - 1].first)) {
                if (taken == free_slots) break;
                taken++;
            }
            stage_begin--;
        }
    }
    for (size_t i = stage_begin; i < snapshot.stage_entries.size(); ++i) {
        cache.store_stage(snapshot.stage_entries[i].first,
                          snapshot.stage_entries[i].second);
    }
}

namespace {

uint64_t double_to_bits(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double bits_to_double(uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/// Flatten one StageEntry into the space-separated token stream described
/// in the header comment (explicit counts make it self-delimiting).
void write_stage_entry(std::ostream& os, const EvalCache::StageEntry& e) {
    os << static_cast<int>(e.quant_mode) << " " << e.formats.size();
    for (const FixedFormat& f : e.formats) os << " " << f.iwl << " " << f.fwl;
    os << " " << e.groups.size();
    for (const BlockGroups& bg : e.groups) {
        os << " " << bg.block.value << " " << bg.groups.size();
        for (const SimdGroup& g : bg.groups) {
            os << " " << g.lanes.size();
            for (const OpId lane : g.lanes) os << " " << lane.value;
        }
    }
    const SlpStats& s = e.slp_stats;
    os << " " << s.rounds << " " << s.candidates_seen << " "
       << s.invalid_candidates << " " << s.structural_conflicts << " "
       << s.extra_conflicts << " " << s.selected << " "
       << s.rejected_at_select << " " << s.devirtualized;
    const ScalingStats& c = e.scaling_stats;
    os << " " << c.reuses_examined << " " << c.already_uniform << " "
       << c.equalized << " " << c.reverted << " " << c.skipped_negative << " "
       << c.skipped_shared_node;
    const TabuStats& t = e.tabu_stats;
    os << " " << t.iterations << " " << t.improvements << " "
       << fingerprint_hex(double_to_bits(t.initial_cost)) << " "
       << fingerprint_hex(double_to_bits(t.best_cost)) << " "
       << (t.feasible ? 1 : 0);
    os << " " << e.group_count;
    const SolverStats& v = e.solver_stats;
    os << " " << (v.ran ? 1 : 0) << " " << v.nodes << " " << v.solves << " "
       << (v.proven_optimal ? 1 : 0) << " "
       << fingerprint_hex(double_to_bits(v.heuristic_objective)) << " "
       << fingerprint_hex(double_to_bits(v.best_objective)) << " "
       << fingerprint_hex(double_to_bits(v.gap));
}

/// Token-stream reader over one stage_entry line; every extraction failure
/// carries the source location.
class StageFieldReader {
public:
    StageFieldReader(std::string value, const std::string& source, int line)
        : fields_(std::move(value)), source_(source), line_(line) {}

    long long next_ll(const char* what) {
        std::string token;
        if (!(fields_ >> token)) {
            throw Error(source_ + ":" + std::to_string(line_) +
                        ": stage_entry truncated (expected " + what + ")");
        }
        return kv::to_ll(source_, line_, what, token);
    }

    int next_int(const char* what) {
        return static_cast<int>(next_ll(what));
    }

    size_t next_count(const char* what) {
        const long long n = next_ll(what);
        if (n < 0) {
            throw Error(source_ + ":" + std::to_string(line_) +
                        ": stage_entry " + what + " must be >= 0");
        }
        return static_cast<size_t>(n);
    }

    uint64_t next_bits(const char* what) {
        std::string token;
        if (!(fields_ >> token)) {
            throw Error(source_ + ":" + std::to_string(line_) +
                        ": stage_entry truncated (expected " + what + ")");
        }
        return kv::to_fingerprint(source_, line_, what, token);
    }

    void finish() {
        std::string extra;
        if (fields_ >> extra) {
            throw Error(source_ + ":" + std::to_string(line_) +
                        ": stage_entry has trailing fields (`" + extra + "`)");
        }
    }

private:
    std::istringstream fields_;
    const std::string& source_;
    int line_;
};

std::pair<uint64_t, EvalCache::StageEntry> parse_stage_entry(
    const std::string& value, const std::string& source, int line) {
    StageFieldReader in(value, source, line);
    const uint64_t key = in.next_bits("stage key");
    EvalCache::StageEntry e;
    const int mode = in.next_int("quant mode");
    if (mode != 0 && mode != 1) {
        throw Error(source + ":" + std::to_string(line) +
                    ": stage_entry quant mode must be 0 or 1");
    }
    e.quant_mode = static_cast<QuantMode>(mode);
    e.formats.resize(in.next_count("format count"));
    for (FixedFormat& f : e.formats) {
        f.iwl = in.next_int("format iwl");
        f.fwl = in.next_int("format fwl");
    }
    e.groups.resize(in.next_count("block count"));
    for (BlockGroups& bg : e.groups) {
        bg.block = BlockId(in.next_int("block id"));
        bg.groups.resize(in.next_count("group count"));
        for (SimdGroup& g : bg.groups) {
            g.lanes.resize(in.next_count("lane count"));
            for (OpId& lane : g.lanes) lane = OpId(in.next_int("lane op"));
        }
    }
    SlpStats& s = e.slp_stats;
    s.rounds = in.next_int("slp rounds");
    s.candidates_seen = in.next_int("slp candidates");
    s.invalid_candidates = in.next_int("slp invalid");
    s.structural_conflicts = in.next_int("slp structural conflicts");
    s.extra_conflicts = in.next_int("slp extra conflicts");
    s.selected = in.next_int("slp selected");
    s.rejected_at_select = in.next_int("slp rejected");
    s.devirtualized = in.next_int("slp devirtualized");
    ScalingStats& c = e.scaling_stats;
    c.reuses_examined = in.next_int("scaling examined");
    c.already_uniform = in.next_int("scaling uniform");
    c.equalized = in.next_int("scaling equalized");
    c.reverted = in.next_int("scaling reverted");
    c.skipped_negative = in.next_int("scaling skipped negative");
    c.skipped_shared_node = in.next_int("scaling skipped shared");
    TabuStats& t = e.tabu_stats;
    t.iterations = in.next_int("tabu iterations");
    t.improvements = in.next_int("tabu improvements");
    t.initial_cost = bits_to_double(in.next_bits("tabu initial cost bits"));
    t.best_cost = bits_to_double(in.next_bits("tabu best cost bits"));
    t.feasible = in.next_int("tabu feasible") != 0;
    e.group_count = in.next_int("group count total");
    SolverStats& v = e.solver_stats;
    v.ran = in.next_int("solver ran") != 0;
    v.nodes = in.next_ll("solver nodes");
    v.solves = in.next_ll("solver solves");
    v.proven_optimal = in.next_int("solver proven") != 0;
    v.heuristic_objective =
        bits_to_double(in.next_bits("solver heuristic bits"));
    v.best_objective = bits_to_double(in.next_bits("solver best bits"));
    v.gap = bits_to_double(in.next_bits("solver gap bits"));
    in.finish();
    return {key, std::move(e)};
}

}  // namespace

std::string cache_snapshot_text(const CacheSnapshot& snapshot) {
    std::ostringstream os;
    os << "# slpwlo evalcache snapshot\n"
       << "snapshot_version = 3\n"
       << "entries = " << snapshot.entries.size() << "\n";
    for (const auto& [key, entry] : snapshot.entries) {
        os << "entry = " << fingerprint_hex(key) << " " << entry.scalar_cycles
           << " " << entry.simd_cycles << " "
           << fingerprint_hex(double_to_bits(entry.analytic_noise_db)) << "\n";
    }
    os << "stage_entries = " << snapshot.stage_entries.size() << "\n";
    for (const auto& [key, entry] : snapshot.stage_entries) {
        os << "stage_entry = " << fingerprint_hex(key) << " ";
        write_stage_entry(os, entry);
        os << "\n";
    }
    return os.str();
}

CacheSnapshot parse_cache_snapshot(const std::string& text,
                                   const std::string& source) {
    CacheSnapshot snapshot;
    kv::KvReader reader(text, source);
    kv::KvLine line;
    bool saw_version = false;
    long long declared = -1;
    long long declared_stages = -1;
    std::set<std::string> header_seen;

    while (reader.next(line)) {
        // Header keys appear exactly once (silent last-wins would defeat
        // the declared-count check).
        if (!line.key.empty() && line.key != "entry" &&
            line.key != "stage_entry" &&
            !header_seen.insert(line.key).second) {
            reader.fail_here("duplicate key `" + line.key + "`");
        }
        if (line.key == "snapshot_version") {
            if (kv::to_int(source, line.line, line.key, line.value) != 3) {
                reader.fail_here("unsupported snapshot_version " + line.value +
                                 " (this reader accepts only 3)");
            }
            saw_version = true;
        } else if (line.key == "entries") {
            declared = kv::to_ll(source, line.line, line.key, line.value);
        } else if (line.key == "stage_entries") {
            declared_stages =
                kv::to_ll(source, line.line, line.key, line.value);
        } else if (line.key == "stage_entry") {
            if (!saw_version) {
                reader.fail_here(
                    "stage_entry before snapshot_version (the entry "
                    "format is versioned)");
            }
            auto [key, entry] =
                parse_stage_entry(line.value, source, line.line);
            if (!snapshot.stage_entries.empty() &&
                key <= snapshot.stage_entries.back().first) {
                reader.fail_here(
                    "stage_entry keys must be strictly ascending (key " +
                    fingerprint_hex(key) + ")");
            }
            snapshot.stage_entries.emplace_back(key, std::move(entry));
        } else if (line.key == "entry") {
            std::istringstream fields(line.value);
            std::string key_hex, scalar, simd, noise_hex;
            std::string extra;
            if (!(fields >> key_hex >> scalar >> simd >> noise_hex) ||
                (fields >> extra)) {
                reader.fail_here(
                    "entry expects `<key> <scalar> <simd> <noise bits>`");
            }
            const uint64_t key =
                kv::to_fingerprint(source, line.line, "entry key", key_hex);
            EvalCache::Entry entry;
            entry.scalar_cycles =
                kv::to_ll(source, line.line, "entry scalar cycles", scalar);
            entry.simd_cycles =
                kv::to_ll(source, line.line, "entry simd cycles", simd);
            const uint64_t noise_bits = kv::to_fingerprint(
                source, line.line, "entry noise bits", noise_hex);
            std::memcpy(&entry.analytic_noise_db, &noise_bits,
                        sizeof(entry.analytic_noise_db));
            if (!snapshot.entries.empty() &&
                key <= snapshot.entries.back().first) {
                reader.fail_here(
                    "entry keys must be strictly ascending (key " + key_hex +
                    ")");
            }
            snapshot.entries.emplace_back(key, entry);
        } else if (line.key.empty()) {
            reader.fail_here("expected `key = value`, got `" + line.value +
                             "`");
        } else {
            reader.fail_here("unknown key `" + line.key + "`");
        }
    }

    if (!saw_version) throw Error(source + ": missing snapshot_version");
    if (declared >= 0 &&
        static_cast<size_t>(declared) != snapshot.entries.size()) {
        throw Error(source + ": header declares " + std::to_string(declared) +
                    " entries, file has " +
                    std::to_string(snapshot.entries.size()));
    }
    if (declared_stages >= 0 &&
        static_cast<size_t>(declared_stages) !=
            snapshot.stage_entries.size()) {
        throw Error(source + ": header declares " +
                    std::to_string(declared_stages) +
                    " stage entries, file has " +
                    std::to_string(snapshot.stage_entries.size()));
    }
    return snapshot;
}

CacheSnapshot load_cache_snapshot(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read cache snapshot `" + path + "`");
    std::ostringstream text;
    text << in.rdbuf();
    return parse_cache_snapshot(text.str(), path);
}

CacheSnapshot merge_cache_snapshots(const std::vector<CacheSnapshot>& parts) {
    CacheSnapshot merged;
    for (const CacheSnapshot& part : parts) {
        for (const auto& [key, entry] : part.entries) {
            merged.entries.emplace_back(key, entry);
        }
    }
    std::sort(merged.entries.begin(), merged.entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t keep = 0;
    for (size_t i = 0; i < merged.entries.size(); ++i) {
        if (keep > 0 && merged.entries[i].first ==
                            merged.entries[keep - 1].first) {
            if (merged.entries[i].second != merged.entries[keep - 1].second) {
                throw Error(
                    "evalcache snapshot merge conflict: key " +
                    fingerprint_hex(merged.entries[i].first) +
                    " has two different entries — hash collision or "
                    "nondeterministic evaluation");
            }
            continue;  // benign duplicate
        }
        merged.entries[keep++] = merged.entries[i];
    }
    merged.entries.resize(keep);

    for (const CacheSnapshot& part : parts) {
        for (const auto& [key, entry] : part.stage_entries) {
            merged.stage_entries.emplace_back(key, entry);
        }
    }
    std::sort(merged.stage_entries.begin(), merged.stage_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t stage_keep = 0;
    for (size_t i = 0; i < merged.stage_entries.size(); ++i) {
        if (stage_keep > 0 &&
            merged.stage_entries[i].first ==
                merged.stage_entries[stage_keep - 1].first) {
            if (merged.stage_entries[i].second !=
                merged.stage_entries[stage_keep - 1].second) {
                throw Error(
                    "evalcache snapshot merge conflict: stage key " +
                    fingerprint_hex(merged.stage_entries[i].first) +
                    " has two different entries — hash collision or "
                    "nondeterministic optimization");
            }
            continue;  // benign duplicate
        }
        if (stage_keep != i) {
            merged.stage_entries[stage_keep] =
                std::move(merged.stage_entries[i]);
        }
        stage_keep++;
    }
    merged.stage_entries.resize(stage_keep);
    return merged;
}

uint64_t snapshot_fingerprint(const CacheSnapshot& snapshot) {
    constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kFnvPrime = 0x100000001b3ull;
    uint64_t h = kFnvOffset;
    const auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= kFnvPrime;
        }
    };
    mix(3);  // snapshot_version: fingerprints have always mixed it in
    mix(snapshot.entries.size());
    for (const auto& [key, entry] : snapshot.entries) {
        mix(key);
        mix(static_cast<uint64_t>(entry.scalar_cycles));
        mix(static_cast<uint64_t>(entry.simd_cycles));
        uint64_t noise_bits;
        std::memcpy(&noise_bits, &entry.analytic_noise_db,
                    sizeof(noise_bits));
        mix(noise_bits);
    }
    mix(snapshot.stage_entries.size());
    for (const auto& [key, entry] : snapshot.stage_entries) {
        mix(key);
        // The full flattened form (the same bytes the text format carries)
        // keeps the fingerprint sensitive to every field.
        std::ostringstream flat;
        write_stage_entry(flat, entry);
        const std::string text = flat.str();
        mix(text.size());
        for (const char ch : text) {
            mix(static_cast<uint64_t>(static_cast<unsigned char>(ch)));
        }
    }
    return h;
}

}  // namespace slpwlo::dist
