#include "dist/shard_merger.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "flow/report.hpp"
#include "support/diagnostics.hpp"
#include "support/kv_format.hpp"

namespace slpwlo::dist {

std::string shard_results_text(const ShardResultsFile& results) {
    std::ostringstream os;
    os << "# slpwlo shard results\n"
       << "results_version = 4\n"
       << "shard_index = " << results.shard_index << "\n"
       << "shard_count = " << results.shard_count << "\n"
       << "total_slots = " << results.total_slots << "\n"
       << "grid_fingerprint = " << fingerprint_hex(results.grid_fp) << "\n"
       << "eval_hits = " << results.eval_hits << "\n"
       << "eval_misses = " << results.eval_misses << "\n"
       << "eval_entries = " << results.eval_entries << "\n"
       << "stage_hits = " << results.stage_hits << "\n"
       << "stage_misses = " << results.stage_misses << "\n"
       << "stage_entries = " << results.stage_entries << "\n"
       << "rows = " << results.rows.size() << "\n";
    for (const ShardRow& row : results.rows) {
        SLPWLO_CHECK(row.json.find('\n') == std::string::npos,
                     "shard result rows must be single-line JSON");
        SLPWLO_CHECK(row.micros >= 0,
                     "shard result row micros must be non-negative");
        SLPWLO_CHECK(row.measured_ns >= 0,
                     "shard result row measured_ns must be non-negative");
        os << "row = " << row.slot << " " << fingerprint_hex(row.point_fp)
           << " " << row.micros << " " << row.measured_ns << " " << row.json
           << "\n";
    }
    return os.str();
}

ShardResultsFile parse_shard_results(const std::string& text,
                                     const std::string& source) {
    ShardResultsFile results;
    kv::KvReader reader(text, source);
    kv::KvLine line;
    bool saw_version = false;
    long long declared = -1;
    std::set<std::string> header_seen;

    while (reader.next(line)) {
        // Header keys appear exactly once — a concatenated or corrupted
        // file must not sneak a second grid_fingerprint past the merge
        // checks via silent last-wins.
        if (!line.key.empty() && line.key != "row" &&
            !header_seen.insert(line.key).second) {
            reader.fail_here("duplicate key `" + line.key + "`");
        }
        if (line.key == "row") {
            // The row grammar is versioned, so the header's version line
            // must have been read first (writers always emit it first).
            if (!saw_version) {
                reader.fail_here("row before results_version");
            }
            // Rows carry raw JSON which may legitimately contain '#', so
            // re-split from the raw line instead of the comment-stripped
            // value: four leading columns, then the JSON.
            const size_t eq = line.raw.find('=');
            SLPWLO_ASSERT(eq != std::string::npos, "row line lost its `=`");
            const std::string payload = kv::trim(line.raw.substr(eq + 1));
            std::vector<std::string> fields;
            size_t cursor = 0;
            bool malformed = false;
            for (int c = 0; c < 4; ++c) {
                const size_t space = payload.find(' ', cursor);
                if (space == std::string::npos) {
                    malformed = true;
                    break;
                }
                fields.push_back(payload.substr(cursor, space - cursor));
                cursor = space + 1;
            }
            if (malformed) {
                reader.fail_here(
                    "row expects `<slot> <fingerprint> <micros> "
                    "<measured_ns> <json>`");
            }
            ShardRow row;
            row.slot = static_cast<size_t>(
                kv::to_ll(source, line.line, "row slot", fields[0]));
            row.point_fp = kv::to_fingerprint(source, line.line,
                                              "row fingerprint", fields[1]);
            row.micros =
                kv::to_ll(source, line.line, "row micros", fields[2]);
            if (row.micros < 0) {
                reader.fail_here("row micros must be non-negative");
            }
            row.measured_ns =
                kv::to_ll(source, line.line, "row measured_ns", fields[3]);
            if (row.measured_ns < 0) {
                reader.fail_here("row measured_ns must be non-negative");
            }
            row.json = payload.substr(cursor);
            if (row.json.empty() || row.json.front() != '{' ||
                row.json.back() != '}') {
                reader.fail_here("row JSON must be a single-line object");
            }
            results.rows.push_back(std::move(row));
        } else if (line.key == "results_version") {
            if (kv::to_int(source, line.line, line.key, line.value) != 4) {
                reader.fail_here("unsupported results_version " + line.value +
                                 " (this reader accepts only 4)");
            }
            saw_version = true;
        } else if (line.key == "shard_index") {
            results.shard_index =
                kv::to_int(source, line.line, line.key, line.value);
        } else if (line.key == "shard_count") {
            results.shard_count =
                kv::to_int(source, line.line, line.key, line.value);
        } else if (line.key == "total_slots") {
            results.total_slots = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "grid_fingerprint") {
            results.grid_fp =
                kv::to_fingerprint(source, line.line, line.key, line.value);
        } else if (line.key == "eval_hits") {
            results.eval_hits = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "eval_misses") {
            results.eval_misses = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "eval_entries") {
            results.eval_entries = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "stage_hits") {
            results.stage_hits = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "stage_misses") {
            results.stage_misses = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "stage_entries") {
            results.stage_entries = static_cast<size_t>(
                kv::to_ll(source, line.line, line.key, line.value));
        } else if (line.key == "rows") {
            declared = kv::to_ll(source, line.line, line.key, line.value);
        } else if (line.key.empty()) {
            reader.fail_here("expected `key = value`, got `" + line.value +
                             "`");
        } else {
            reader.fail_here("unknown key `" + line.key + "`");
        }
    }

    if (!saw_version) throw Error(source + ": missing results_version");
    if (declared >= 0 && static_cast<size_t>(declared) != results.rows.size()) {
        throw Error(source + ": header declares " + std::to_string(declared) +
                    " rows, file has " + std::to_string(results.rows.size()));
    }
    for (const ShardRow& row : results.rows) {
        if (row.slot >= results.total_slots) {
            throw Error(source + ": row slot " + std::to_string(row.slot) +
                        " out of range (total_slots = " +
                        std::to_string(results.total_slots) + ")");
        }
    }
    return results;
}

ShardResultsFile load_shard_results(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read shard results `" + path + "`");
    std::ostringstream text;
    text << in.rdbuf();
    return parse_shard_results(text.str(), path);
}

std::string merge_shard_results(const std::vector<ShardResultsFile>& shards) {
    SLPWLO_CHECK(!shards.empty(), "nothing to merge: no shard result files");
    RowAccumulator accumulator(shards.front().total_slots,
                               shards.front().grid_fp);
    for (const ShardResultsFile& shard : shards) accumulator.add(shard);
    return accumulator.report();
}

// --- RowAccumulator ------------------------------------------------------------

RowAccumulator::RowAccumulator(size_t total_slots, uint64_t grid_fp,
                               DuplicatePolicy duplicates)
    : total_slots_(total_slots), grid_fp_(grid_fp), duplicates_(duplicates) {
    SLPWLO_CHECK(total_slots_ > 0, "cannot accumulate a zero-slot grid");
}

size_t RowAccumulator::add(const ShardResultsFile& file) {
    if (file.total_slots != total_slots_ || file.grid_fp != grid_fp_) {
        throw Error("shard merge: grid mismatch — shard " +
                    std::to_string(file.shard_index) + " ran grid " +
                    fingerprint_hex(file.grid_fp) + " with " +
                    std::to_string(file.total_slots) +
                    " slots, expected grid " + fingerprint_hex(grid_fp_) +
                    " with " + std::to_string(total_slots_) + " slots");
    }
    // Validate everything before inserting anything: an add() that throws
    // leaves the accumulator untouched. The farm daemon leans on this —
    // a `complete` frame either lands whole or is rejected whole, never
    // half-merged.
    std::map<size_t, const ShardRow*> fresh;
    for (const ShardRow& row : file.rows) {
        SLPWLO_CHECK(row.slot < total_slots_, "shard merge: row slot " +
                                                  std::to_string(row.slot) +
                                                  " out of range");
        const ShardRow* existing = nullptr;
        if (const auto it = rows_.find(row.slot); it != rows_.end()) {
            existing = &it->second;
        } else if (const auto nit = fresh.find(row.slot); nit != fresh.end()) {
            existing = nit->second;
        }
        if (existing == nullptr) {
            fresh.emplace(row.slot, &row);
            continue;
        }
        // Identity deliberately ignores micros and measured_ns: two runs
        // of the same point measure different wall-clocks but must
        // compare equal.
        if (existing->point_fp != row.point_fp ||
            existing->json != row.json) {
            throw Error("shard merge conflict: slot " +
                        std::to_string(row.slot) +
                        " reported twice with different contents (" +
                        fingerprint_hex(existing->point_fp) + " vs " +
                        fingerprint_hex(row.point_fp) + ")");
        }
        if (duplicates_ == DuplicatePolicy::AllowIdentical) continue;
        throw Error("shard merge: slot " + std::to_string(row.slot) +
                    " reported by more than one shard (overlapping plans)");
    }
    for (const auto& [slot, row] : fresh) rows_.emplace(slot, *row);
    return fresh.size();
}

bool RowAccumulator::has_slot(size_t slot) const {
    return rows_.count(slot) != 0;
}

std::vector<size_t> RowAccumulator::missing(size_t limit) const {
    std::vector<size_t> holes;
    for (size_t slot = 0; slot < total_slots_ && holes.size() < limit;
         ++slot) {
        if (rows_.count(slot) == 0) holes.push_back(slot);
    }
    return holes;
}

std::string RowAccumulator::report() const {
    if (!complete()) {
        std::string listed;
        for (const size_t slot : missing()) {
            if (!listed.empty()) listed += ", ";
            listed += std::to_string(slot);
        }
        throw Error("shard merge: " +
                    std::to_string(total_slots_ - rows_.size()) + " of " +
                    std::to_string(total_slots_) +
                    " slots missing (first: " + listed + ")");
    }
    // Reassemble exactly as sweep_to_json does, so a sharded sweep, a
    // farm-streamed sweep and a single-process sweep emit the same bytes.
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const auto& [slot, row] : rows_) {
        (void)slot;
        if (!first) os << ",";
        first = false;
        os << "\n  " << row.json;
    }
    os << "\n]\n";
    return os.str();
}

ShardResultsFile RowAccumulator::rows_file() const {
    // The holes check (and its error message) is report()'s.
    if (!complete()) report();
    ShardResultsFile file;
    file.shard_index = 0;
    file.shard_count = 1;
    file.total_slots = total_slots_;
    file.grid_fp = grid_fp_;
    file.rows.reserve(rows_.size());
    for (const auto& [slot, row] : rows_) {
        (void)slot;
        file.rows.push_back(row);
    }
    return file;
}

// --- splice_rows ---------------------------------------------------------------

ShardResultsFile splice_rows(const std::vector<ShardResultsFile>& old_files,
                             const std::vector<uint64_t>& slot_fps,
                             uint64_t grid_fp) {
    // Old rows by point fingerprint. The old grid's slot numbers are
    // irrelevant — identity is the point's content, which is exactly what
    // the fingerprint hashes (kernel + source + options + constraint +
    // target model).
    std::map<uint64_t, const ShardRow*> by_fp;
    for (const ShardResultsFile& file : old_files) {
        for (const ShardRow& row : file.rows) {
            const auto [it, inserted] = by_fp.emplace(row.point_fp, &row);
            if (inserted) continue;
            if (it->second->json != row.json) {
                throw Error("splice: point " + fingerprint_hex(row.point_fp) +
                            " appears in the old report with two different "
                            "row contents");
            }
        }
    }

    ShardResultsFile spliced;
    spliced.shard_index = 0;
    spliced.shard_count = 1;
    spliced.total_slots = slot_fps.size();
    spliced.grid_fp = grid_fp;
    for (size_t slot = 0; slot < slot_fps.size(); ++slot) {
        const auto it = by_fp.find(slot_fps[slot]);
        if (it == by_fp.end()) continue;  // changed slot: must be re-run
        ShardRow row = *it->second;
        row.slot = slot;
        spliced.rows.push_back(std::move(row));
    }
    return spliced;
}

}  // namespace slpwlo::dist
