// FarmService client side: the daemon's WorkSource contract over a
// socket.
//
// Three layers, each reusable on its own:
//
//   FarmClient        one connection, synchronous request/response RPC
//                     (write a frame, read the answer, `error` responses
//                     become thrown slpwlo::Error);
//   Heartbeater       a second connection on a background thread sending
//                     `heartbeat` every period_ms. A separate connection
//                     because the worker's RPC socket is silent for the
//                     whole duration of a running chunk (SweepService
//                     blocks in the flow) — exactly when liveness must
//                     keep flowing;
//   SocketWorkSource  one job's slice of the daemon as a WorkSource:
//                     acquire() is the `acquire` verb (polling while the
//                     daemon says wait — claimed chunks elsewhere may
//                     expire back), complete() packages rows with the
//                     same dist::make_shard_row the static shard path
//                     uses and ships them as one atomic `complete` frame.
//
// run_worker() is the whole worker loop the CLI's `work --connect` verb
// wraps: register, then per job — fetch the manifest, build a
// SweepService whose flow defaults are *that job's* manifest defaults,
// drain a SocketWorkSource — until the daemon reports drained. Because
// the loop reuses SweepService/SweepDriver unchanged, farm results
// inherit the slot-determinism guarantee: report bytes are identical to
// the 1-process sweep no matter how chunks landed on workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "dist/shard_manifest.hpp"
#include "farm/framing.hpp"
#include "flow/work_source.hpp"

namespace slpwlo::farm {

/// One synchronous connection to a farm daemon. Not thread-safe: one
/// thread, one client (the Heartbeater brings its own).
class FarmClient {
public:
    /// Resolve and connect; throws Error when the daemon is unreachable.
    FarmClient(const std::string& host, int port);
    ~FarmClient();

    FarmClient(const FarmClient&) = delete;
    FarmClient& operator=(const FarmClient&) = delete;

    /// Send `request`, wait for the response. Throws Error when the
    /// connection drops or the daemon answers `verb = error` (carrying
    /// the daemon's message).
    Message call(const Message& request);

private:
    int fd_ = -1;
};

/// Parse "host:port" (or ":port" / "port" for localhost).
void parse_endpoint(const std::string& endpoint, std::string& host,
                    int& port);

/// Background liveness: `heartbeat` frames for `worker` every
/// `period_ms` on a dedicated connection. Starts on construction, stops
/// (promptly) on destruction. A lost connection ends the thread quietly
/// — the daemon will expire the worker, which is the correct outcome.
class Heartbeater {
public:
    Heartbeater(std::string host, int port, std::string worker,
                long long period_ms);
    ~Heartbeater();

    Heartbeater(const Heartbeater&) = delete;
    Heartbeater& operator=(const Heartbeater&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::condition_variable wake_;
    std::thread thread_;
};

/// One farm job as a WorkSource. The manifest (fetched via the
/// `manifest` verb, parsed by the caller) must be the daemon's whole
/// grid and outlive the source; lease slots index straight into
/// manifest.points.
class SocketWorkSource final : public WorkSource {
public:
    /// `poll_ms` is the retry sleep while the daemon says wait;
    /// `straggle_ms` delays each complete() just before its frame is
    /// sent — a test hook widening the window in which killing the
    /// worker leaves a claimed chunk behind (CI's SIGKILL run).
    SocketWorkSource(FarmClient& client, std::string worker, size_t job,
                     const dist::ShardManifest& manifest,
                     long long poll_ms = 200, long long straggle_ms = 0);

    size_t total_slots() const override;
    Lease acquire() override;
    void complete(const Lease& lease, std::vector<WorkRow> rows) override;
    void abandon(const Lease& lease) override;

private:
    FarmClient& client_;
    std::string worker_;
    size_t job_;
    const dist::ShardManifest& manifest_;
    long long poll_ms_;
    long long straggle_ms_;
};

/// Options for one farm worker process.
struct FarmWorkerOptions {
    std::string worker;           ///< worker id (must be unique per farm)
    long long heartbeat_ms = 1000;
    long long poll_ms = 200;
    ExecOptions exec;             ///< flow_options overridden per job
    long long straggle_ms = 0;    ///< test hook, see SocketWorkSource
    /// Worker-local execution knobs, re-applied on top of every job's
    /// manifest defaults (each job replaces flow_options wholesale).
    /// evaluator/measure never change row bytes; optimizer does — a farm
    /// must agree on it or the streaming merge rejects the rows.
    std::optional<SimBackend> evaluator;
    bool measure = false;
    std::optional<Optimizer> optimizer;
};

/// The complete worker loop: register, drain every job the daemon hands
/// out (a fresh SweepService per job, flow defaults from that job's
/// manifest), return the number of points this worker executed once the
/// daemon reports drained.
size_t run_farm_worker(const std::string& host, int port,
                       const FarmWorkerOptions& options);

}  // namespace slpwlo::farm
