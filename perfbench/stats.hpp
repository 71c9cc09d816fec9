// Arithmetic behind every number the benchmark prints. Kept free of I/O and
// timing so selftest.cpp can check each rule on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
// sorted samples (p in (0, 1]). Returns 0 for an empty sample.
inline double rank_percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// Samples strictly beyond the nearest-rank p-th percentile: n - ceil(p * n).
// The report rule asks for at least ten of them behind a quoted tail
// percentile (p95 needs n >= 200).
inline std::size_t tail_samples(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

// The highest whole percentile (in percent, 50..99) that keeps at least
// `min_tail` samples beyond it; 0 when even the median does not.
inline int highest_supported_percentile(std::size_t n,
                                        std::size_t min_tail = 10) {
  for (int pct = 99; pct >= 50; --pct) {
    if (tail_samples(n, pct / 100.0) >= min_tail) return pct;
  }
  return 0;
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// A uniform sample of at most `capacity` values from a stream (reservoir
// sampling, Algorithm R, with a fixed-seed generator) plus the exact count
// of values seen. Below capacity it holds every value, so percentiles are
// exact; above it, memory stays constant however fast the workload runs,
// which keeps the benchmark's own bookkeeping out of the peak RSS metric.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = std::size_t{1} << 18)
      : capacity_(capacity) {}

  void add(double x) {
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(x);
      return;
    }
    const std::uint64_t j = next() % seen_;
    if (j < capacity_) kept_[static_cast<std::size_t>(j)] = x;
  }

  const std::vector<double>& values() const { return kept_; }
  std::uint64_t count() const { return seen_; }

 private:
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::size_t capacity_;
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x5eed;
};

// The run's median latency, taken window by window: the nearest-rank
// median of each run of `window` consecutive samples, averaged over the
// windows, each weighted by its size (only the last can be partial). A run
// with fewer samples than one window gets its plain nearest-rank median.
// On a host whose speed flips between two modes every fraction of a second
// (METRICS.md), a whole-run median lands in whichever mode holds just over
// half of the samples and jumps between the two from run to run; the
// windowed form moves in proportion to the time spent in each mode, as a
// mean does. Memory stays at one window however long the run.
class WindowedMedian {
 public:
  explicit WindowedMedian(std::size_t window = 1024) : window_(window) {
    buf_.reserve(window_);
  }

  void add(double x) {
    buf_.push_back(x);
    if (buf_.size() == window_) {
      weighted_sum_ += window_median();
      count_ += buf_.size();
      buf_.clear();
    }
  }

  double value() const {
    const double sum = weighted_sum_ + window_median();
    const std::size_t n = count_ + buf_.size();
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  // The current window's median times its size.
  double window_median() const {
    return rank_percentile(buf_, 0.5) * static_cast<double>(buf_.size());
  }

  std::size_t window_;
  std::vector<double> buf_;
  double weighted_sum_ = 0.0;
  std::size_t count_ = 0;
};

// Failed jobs over attempted jobs; a job that was refused, errored, did
// not complete, or failed its verifier is one failure. 0 when nothing was
// attempted.
inline double failed_ratio(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// Time a served job spent outside its own run: the client-observed latency
// (handle_line call to terminal line) minus the wall_seconds the server
// stamped into the job's record. Queue wait, batch-barrier wait and
// response emission all land here. Clamped at 0 so clock granularity never
// yields a negative wait.
inline double queue_emit_seconds(double terminal_latency_s,
                                 double record_wall_s) {
  return std::max(0.0, terminal_latency_s - record_wall_s);
}

}  // namespace perfbench
