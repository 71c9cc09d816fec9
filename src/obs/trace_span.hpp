// Scoped span tracing exported as Chrome trace-event JSON.
//
// A SpanTracer collects named time spans — either scoped live via span()
// (RAII: the span closes when the handle is destroyed) or synthesized from a
// per-phase Trace — and writes them in the Trace Event Format ("catapult"
// JSON: complete "ph":"X" events). Load the file in chrome://tracing or
// https://ui.perfetto.dev to see a composite run's phases on a timeline.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "local/trace.hpp"
#include "util/timer.hpp"

namespace ckp {

class SpanTracer {
 public:
  // RAII handle returned by span(); closes the span on destruction.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    ~Span();

   private:
    friend class SpanTracer;
    Span(SpanTracer* tracer, std::size_t index)
        : tracer_(tracer), index_(index) {}
    SpanTracer* tracer_;
    std::size_t index_;
  };

  // Opens a span starting now (relative to the tracer's construction).
  [[nodiscard]] Span span(std::string name);

  // Records a closed span explicitly; times are in seconds relative to the
  // trace origin.
  void add_complete(std::string name, double start_seconds,
                    double duration_seconds);

  // Lays one complete span per Trace phase end-to-end starting at
  // `start_seconds`, using each phase's recorded wall time. A phase without
  // measured wall time becomes a zero-duration span: it keeps its place on
  // the timeline, but no time is invented for it. Returns the end time.
  double add_trace(const Trace& trace, double start_seconds = 0.0);

  std::size_t size() const { return events_.size(); }

  // Writes the whole trace as one Chrome trace-event JSON document.
  void write_chrome_json(std::ostream& os) const;
  void write_chrome_json(const std::string& path) const;
  std::string chrome_json() const;

 private:
  struct Event {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
  };

  void close_span(std::size_t index);

  Timer timer_;  // origin for scoped spans
  std::vector<Event> events_;
};

}  // namespace ckp
