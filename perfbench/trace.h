// In-memory spans of the traced run, written once at exit as a Chrome
// trace (chrome://tracing or Perfetto). Spans are recorded from the
// suite's side of each layer boundary; the library is not instrumented
// for them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perf {

struct Span {
  const char* name = "";
  uint32_t tid = 0;     // 0 = main thread, c + 1 = client c
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = none
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// Owned by the main thread. Clients collect their spans in their own
/// vectors and hand them over with Append after they are joined.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  uint64_t NowNs() const { return NanosBetween(origin_, Clock::now()); }
  uint64_t NewId() { return ++last_id_; }

  void Append(const std::vector<Span>& spans) {
    if (on_) spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  void Add(const Span& span) {
    if (on_) spans_.push_back(span);
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"perf\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// One main-thread span over a scope: a workload phase or a probe.
class PhaseSpan {
 public:
  PhaseSpan(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer) {
    span_.name = name;
    span_.parent = parent;
    span_.id = tracer->NewId();
    span_.start_ns = tracer->NowNs();
  }
  ~PhaseSpan() {
    span_.dur_ns = tracer_->NowNs() - span_.start_ns;
    tracer_->Add(span_);
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perf
