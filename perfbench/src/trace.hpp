// Span recorder and Chrome trace-event writer for the traced benchmark run.
//
// Spans are recorded from outside the library, around the public calls the
// benchmark makes into each layer. Each span carries a name of the form
// "<layer>.<what>" (the layer is the src/ module the call belongs to), its
// start and end, the span that encloses it and the point it belongs to.
// Every worker thread owns one SpanBuffer, so recording takes no lock; the
// buffers are read only after the workers have been joined.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Name of the span that encloses one point's work; its children are the
/// layer spans, so the uncovered rest of a point span is untraced time.
inline constexpr const char* kPointSpan = "point";

struct Span {
    const char* name = "";  ///< static string
    long long start_ns = 0;  ///< since the trace origin
    long long end_ns = 0;
    int parent = -1;         ///< index in the same buffer, -1 at top level
    long long point = -1;    ///< point id, -1 outside any point
};

/// One thread's spans in start order.
class SpanBuffer {
public:
    explicit SpanBuffer(Clock::time_point origin) : origin_(origin) {}

    /// Open a span; `point` < 0 inherits the enclosing span's point id.
    int open(const char* name, long long point);
    void close(int index);

    const std::vector<Span>& spans() const { return spans_; }

private:
    long long now_ns() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// RAII span. A null buffer makes it a no-op, so untraced code paths can
/// share the traced ones.
class ScopedSpan {
public:
    ScopedSpan(SpanBuffer* buffer, const char* name, long long point = -1)
        : buffer_(buffer),
          index_(buffer != nullptr ? buffer->open(name, point) : -1) {}
    ~ScopedSpan() {
        if (buffer_ != nullptr) buffer_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanBuffer* buffer_;
    int index_;
};

/// What the per-layer metrics are computed from.
struct TraceTotals {
    /// Self time (duration minus direct children) summed per span name.
    std::map<std::string, double> self_ms;
    /// Number of spans per name.
    std::map<std::string, long long> spans;
    long long points = 0;
    double point_ms = 0.0;        ///< summed point-span durations
    double covered_ms = 0.0;      ///< part of those covered by child spans
    double min_coverage = 1.0;    ///< lowest covered share of one point
};

/// The buffers of one traced run: buffer 0 is the main thread's, the
/// others belong to worker threads.
class Trace {
public:
    explicit Trace(int buffers);

    SpanBuffer& buffer(int index) { return *buffers_.at(index); }

    TraceTotals totals() const;

    /// Write every span as a complete ("X") event of Chrome's trace-event
    /// format; `metadata_json` is a JSON object stored as "otherData".
    void write_chrome_json(const std::string& path,
                           const std::string& metadata_json) const;

private:
    Clock::time_point origin_;
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench
