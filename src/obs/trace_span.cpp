#include "obs/trace_span.hpp"

#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace ckp {

SpanTracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), index_(other.index_) {
  other.tracer_ = nullptr;
}

SpanTracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close_span(index_);
}

SpanTracer::Span SpanTracer::span(std::string name) {
  Event e;
  e.name = std::move(name);
  e.start_us = timer_.seconds() * 1e6;
  e.dur_us = -1.0;  // open
  events_.push_back(std::move(e));
  return Span(this, events_.size() - 1);
}

void SpanTracer::close_span(std::size_t index) {
  Event& e = events_[index];
  CKP_CHECK_MSG(e.dur_us < 0.0, "span closed twice");
  e.dur_us = timer_.seconds() * 1e6 - e.start_us;
}

void SpanTracer::add_complete(std::string name, double start_seconds,
                              double duration_seconds) {
  CKP_CHECK(duration_seconds >= 0.0);
  events_.push_back(
      {std::move(name), start_seconds * 1e6, duration_seconds * 1e6});
}

double SpanTracer::add_trace(const Trace& trace, double start_seconds) {
  double cursor = start_seconds;
  for (const PhaseRecord& p : trace.phases()) {
    add_complete(p.name, cursor, p.seconds);
    cursor += p.seconds;
  }
  return cursor;
}

void SpanTracer::write_chrome_json(std::ostream& os) const {
  os << chrome_json();
}

void SpanTracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  CKP_CHECK_MSG(out.good(), "cannot open trace output file " << path);
  write_chrome_json(out);
  out << '\n';
  CKP_CHECK_MSG(out.good(), "trace write failed for " << path);
}

std::string SpanTracer::chrome_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Event& e : events_) {
    CKP_CHECK_MSG(e.dur_us >= 0.0,
                  "span '" << e.name << "' still open at export");
    w.begin_object();
    w.key("name").value(e.name);
    w.key("ph").value("X");
    w.key("cat").value("phase");
    w.key("ts").value(e.start_us);
    w.key("dur").value(e.dur_us);
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace ckp
