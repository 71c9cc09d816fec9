// In-memory span recorder for the traced run. Spans are taken by the
// benchmark's own code around each call into a layer's public functions;
// nothing inside the program is instrumented. A span has a name, a layer,
// start and end, the span that caused it, and the job it belongs to. They
// stay in memory until the run ends, then go out as Chrome trace JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   // static storage: string literals or interned
  const char* layer = "";  // graph, local, algo, lcl, serve, store, obs, bench
  double start_s = 0.0;    // seconds since the tracer's epoch
  double end_s = -1.0;     // < start_s while the span is open
  std::int64_t parent = -1;  // index of the causing span; -1 for a root
  std::uint64_t job = 0;
  int tid = 0;
};

// Thread-safe append-only span store. Span ids are indices into spans().
// Holds at most `capacity` spans (a deque, so growth never copies); later
// spans are counted in dropped() and not recorded, which bounds the memory
// of a traced run of microsecond-scale jobs.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(std::size_t capacity) : capacity_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Returns the new span's id, or -1 once the store is full.
  std::int64_t begin(const char* name, const char* layer, std::int64_t parent,
                     std::uint64_t job) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, layer, t, -1.0, parent, job, thread_tag()});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void end(std::int64_t id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }

  // Call only after every recording thread has finished.
  const std::deque<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  static int thread_tag() {
    static std::mutex tag_mu;
    static int next = 0;
    thread_local int tag = -1;
    if (tag < 0) {
      std::lock_guard<std::mutex> lock(tag_mu);
      tag = next++;
    }
    return tag;
  }

  const std::size_t capacity_;
  const Clock::time_point epoch_ = Clock::now();
  std::mutex mu_;  // guards spans_ and dropped_
  std::deque<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// RAII span; a null tracer makes it a no-op, so untraced runs pay one
// branch per call site.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, const char* layer,
            std::int64_t parent, std::uint64_t job)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, layer, parent, job) : -1) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int64_t id() const { return id_; }

  void close() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->end(id_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

// Self time of every span: its duration minus the part of its interval
// covered by its children (each child clipped to the parent, overlapping
// children counted once). `Spans` is any indexable sequence of Span.
template <class Spans>
std::vector<double> self_times(const Spans& spans) {
  struct Kid {
    std::int64_t parent;
    double start, end;
  };
  std::vector<Kid> kids;
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[i] = std::max(s.end_s, s.start_s) - s.start_s;
    if (s.parent >= 0) kids.push_back({s.parent, s.start_s, s.end_s});
  }
  std::sort(kids.begin(), kids.end(), [](const Kid& x, const Kid& y) {
    return x.parent != y.parent ? x.parent < y.parent : x.start < y.start;
  });
  for (std::size_t k = 0; k < kids.size();) {
    const auto p = static_cast<std::size_t>(kids[k].parent);
    const double lo = spans[p].start_s;
    const double hi = std::max(spans[p].end_s, lo);
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (; k < kids.size() && static_cast<std::size_t>(kids[k].parent) == p;
         ++k) {
      const double a = std::max(kids[k].start, lo);
      const double b = std::min(kids[k].end, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[p] -= covered;
  }
  return out;
}

// Writes the first `max_events` spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps). Returns false on I/O failure.
template <class Spans>
bool write_chrome_trace(const std::string& path, const Spans& spans,
                        std::size_t max_events) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t n = std::min(spans.size(), max_events);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << std::max(0.0, s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}}";
  }
  out << "\n],\"otherData\":{\"spans_total\":" << spans.size()
      << ",\"spans_written\":" << n << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
