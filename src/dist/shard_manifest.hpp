// ShardEngine, stage 2: self-contained work manifests.
//
// A manifest is the file a worker process (or machine) receives: one
// shard's slice of a sweep grid, serialized so the worker needs nothing
// but the file — every point embeds the exact serialized target
// description it must run against (target_desc.hpp's round-trip
// guarantee preserves content fingerprints bit-for-bit), and the
// sweep-wide FlowOptions defaults plus any per-point overrides travel
// along. Workers never consult a target registry.
//
// Format (line-oriented `key = value`, versioned; see DESIGN.md §7):
//
//   # slpwlo shard manifest
//   manifest_version = 4
//   shard_index = 0
//   shard_count = 4
//   strategy = round-robin
//   total_slots = 24
//   grid_fingerprint = 01b3...16 hex...
//   points = 6
//
//   begin_defaults                  # sweep-wide FlowOptions
//   option.accuracy_db = -40
//   option.quant_mode = truncate
//   ...
//   end_defaults
//
//   begin_target t0                 # each distinct model once, verbatim
//   name = XENTIUM                  # target_desc.hpp serialization
//   ...
//   end_target
//
//   begin_kernel k0                 # each distinct DSL source once,
//   kernel dotprod {                # verbatim (canonical_kernel_source
//   ...                             # form: no blank/comment-only lines)
//   }
//   end_kernel
//
//   begin_point
//   slot = 0                        # position in the full grid
//   kernel = FIR
//   target = XENTIUM                # display label
//   flow = WLO-SLP
//   accuracy_db = -20
//   model = t0                      # embedded model reference
//   kernel_source = k0              # file-based kernels only
//   option.quant_mode = round       # optional per-point override block
//   end_point
//
// `begin_kernel` blocks embed the deduplicated DSL source of file-based
// kernels (frontend/kernel_file.hpp), so workers reconstruct such kernels
// by content the way they reconstruct target models; built-in-kernel
// manifests carry none.
//
// Versioning policy (DESIGN.md §7): the reader accepts only the version
// the writer emits (4) and rejects any other with an Error naming it;
// unknown keys are errors, not extensions. A format change bumps
// `manifest_version`, which orphans files written by older builds — this
// tool is their only producer, so they are re-planned, not migrated.
#pragma once

#include <string>
#include <vector>

#include "dist/shard_plan.hpp"
#include "flow/flow.hpp"

namespace slpwlo::dist {

/// A parsed manifest: everything run_shard (shard_runner.hpp) needs.
struct ShardManifest {
    int shard_index = 0;
    int shard_count = 1;
    ShardStrategy strategy = ShardStrategy::RoundRobin;
    size_t total_slots = 0;
    uint64_t grid_fp = 0;
    FlowOptions defaults;          ///< sweep-wide flow options
    std::vector<size_t> slots;     ///< ascending grid slots
    std::vector<SweepPoint> points;  ///< every point carries its model
};

/// Serialize one shard plan (plus the sweep-wide option defaults) as a
/// self-contained manifest text.
std::string shard_manifest_text(const ShardPlan& plan,
                                const FlowOptions& defaults = {});

/// Parse a manifest; `source` names the text in errors. Validates the
/// header (version, counts), slot ordering and bounds, and every embedded
/// model (via the target description parser).
ShardManifest parse_shard_manifest(const std::string& text,
                                   const std::string& source = "<string>");

/// Read `path` and parse it; throws Error when the file cannot be read.
ShardManifest load_shard_manifest(const std::string& path);

// --- FlowOptions serialization -------------------------------------------------
// The `option.`-prefixed keys used in defaults and per-point blocks. The
// serialization covers every FlowOptions field that can influence a sweep
// result (the nested accuracy_db copies that flows overwrite per point
// are deliberately omitted).

/// Every option as `<prefix><key> = <value>` lines (one per line).
std::string flow_options_kv(const FlowOptions& options,
                            const std::string& prefix);

/// Apply one `key = value` pair (key already stripped of its prefix) onto
/// `options`; unknown keys and malformed values fail with `source:line:`.
void apply_flow_option(FlowOptions& options, const std::string& key,
                       const std::string& value, const std::string& source,
                       int line);

}  // namespace slpwlo::dist
