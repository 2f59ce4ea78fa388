#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

long long SpanBuffer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
}

int SpanBuffer::open(const char* name, long long point) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.point = point >= 0 || span.parent < 0 ? point : spans_[span.parent].point;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void SpanBuffer::close(int index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
}

Trace::Trace(int buffers) : origin_(Clock::now()) {
    for (int i = 0; i < buffers; ++i) {
        buffers_.push_back(std::make_unique<SpanBuffer>(origin_));
    }
}

TraceTotals Trace::totals() const {
    TraceTotals totals;
    for (const auto& buffer : buffers_) {
        const std::vector<Span>& spans = buffer->spans();
        std::vector<long long> self(spans.size());
        for (size_t i = 0; i < spans.size(); ++i) {
            self[i] = spans[i].end_ns - spans[i].start_ns;
        }
        for (const Span& span : spans) {
            if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            totals.self_ms[spans[i].name] += self[i] * 1e-6;
            ++totals.spans[spans[i].name];
            if (std::string_view(spans[i].name) != kPointSpan) continue;
            const long long duration = spans[i].end_ns - spans[i].start_ns;
            ++totals.points;
            totals.point_ms += duration * 1e-6;
            totals.covered_ms += (duration - self[i]) * 1e-6;
            if (duration > 0) {
                totals.min_coverage =
                    std::min(totals.min_coverage,
                             static_cast<double>(duration - self[i]) / duration);
            }
        }
    }
    return totals;
}

void Trace::write_chrome_json(const std::string& path,
                              const std::string& metadata_json) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file `" + path + "`");
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
        << ",\"traceEvents\":[\n";
    bool first = true;
    char line[512];
    for (size_t tid = 0; tid < buffers_.size(); ++tid) {
        std::snprintf(line, sizeof(line),
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                      first ? "" : ",\n", tid, tid == 0 ? "main" : "worker");
        out << line;
        first = false;
        const std::vector<Span>& spans = buffers_[tid]->spans();
        for (const Span& span : spans) {
            const std::string_view name(span.name);
            const std::string layer(name.substr(0, name.find('.')));
            std::snprintf(
                line, sizeof(line),
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"pid\":1,\"tid\":%zu,\"args\":{\"point\":%lld,"
                "\"parent\":\"%s\"}}",
                span.name, layer.c_str(), span.start_ns * 1e-3,
                (span.end_ns - span.start_ns) * 1e-3, tid, span.point,
                span.parent >= 0 ? spans[span.parent].name : "");
            out << line;
        }
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace file `" + path + "`");
}

}  // namespace perfbench
