// Statistics helpers of the end-to-end benchmark: latency percentiles with
// the sample-support rule, zero-safe ratios, counter windows over
// bess::Stats snapshots, and the per-thread self-time budget of a trace.
// Everything here is pure computation so selftest.cc can pin it down.
#ifndef BESS_E2E_BENCH_STATS_H_
#define BESS_E2E_BENCH_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/stats.h"

namespace e2e {

/// Nearest-rank percentile of `samples` (need not be sorted; q in (0, 1]).
/// 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Number of samples strictly above the nearest-rank q-percentile's rank:
/// n - ceil(q * n).
uint64_t SamplesBeyond(uint64_t n, double q);

/// The q-percentile when at least `min_beyond` samples lie beyond it
/// (default 10), nullopt otherwise — a p99 needs >= 1000 samples.
std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double q, uint64_t min_beyond = 10);

/// One latency sample: completion time on the steady clock and duration.
struct Sample {
  uint64_t end_ns = 0;
  double us = 0;
};

/// A fixed-capacity uniform sample of a stream (reservoir sampling,
/// algorithm R). The buffer is allocated and zero-filled up front, so the
/// benchmark's own memory does not grow with the system's throughput and
/// cannot leak into the peak-RSS figure.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity, uint64_t seed = 1);
  void Add(const Sample& s);
  uint64_t seen() const { return seen_; }
  /// The kept samples (all of them while fewer than `capacity` were seen).
  std::vector<Sample> kept() const;

 private:
  std::vector<Sample> buf_;
  size_t kept_ = 0;
  uint64_t seen_ = 0;
  uint64_t rng_;
};

/// Time slice of a completion time: slice i covers [start_ns + i * slice_ns,
/// start_ns + (i + 1) * slice_ns); times past the last slice (transactions
/// in flight at the deadline) fall in it, times before the first in slice 0.
int SliceOf(uint64_t t_ns, uint64_t start_ns, uint64_t slice_ns, int slices);

/// Groups sample durations by the time slice they completed in.
std::vector<std::vector<double>> SliceByTime(const std::vector<Sample>& samples,
                                             uint64_t start_ns,
                                             uint64_t slice_ns, int slices);

/// Median over slices of each slice's q-percentile, skipping slices with
/// fewer than `min_beyond` samples beyond it; nullopt when none qualifies.
/// Robust to a burst of interference confined to one slice.
std::optional<double> MedianOfSlicePercentiles(
    const std::vector<std::vector<double>>& slices, double q,
    uint64_t min_beyond = 10);

/// num / den, 0 when den is 0 (a layer the workload never exercised).
double Ratio(double num, double den);
/// hits / (hits + misses), 0 when both are 0.
double HitRatio(double hits, double misses);

/// A measurement window over the process-wide metrics registry: counter and
/// histogram deltas between Open() and Close(). Values read before Open()
/// or after Close() never leak in.
class Window {
 public:
  void Open();
  void Close();

  /// Counter delta (0 when absent).
  double Count(const std::string& name) const;
  /// Histogram delta: observation count, and exact mean (sum / count) in the
  /// histogram's own unit; 0 when it saw nothing.
  double HistCount(const std::string& name) const;
  double HistMean(const std::string& name) const;
  double HistSum(const std::string& name) const;

 private:
  bess::Stats before_;
  bess::Stats delta_;
};

/// One complete span of a chrome://tracing dump ("ph":"X").
struct TraceEvent {
  std::string name;
  uint64_t tid = 0;
  double start_us = 0;
  double dur_us = 0;
};

/// Parses the event lines written by bess::obs::Trace::Stop().
std::vector<TraceEvent> ParseTrace(const std::string& text);

/// Self time of every span name: a span's duration minus the time covered
/// by spans nested inside it on the same thread. `on_root_threads` holds
/// the self time of spans on threads that ran a `root` span (the client
/// threads whose transactions are being budgeted); `elsewhere` holds the
/// spans of every other thread (server workers, flushers), which overlap
/// client time and are reported beside the budget, not inside it.
struct SelfTimes {
  std::map<std::string, double> on_root_threads;  ///< name -> total self us
  std::map<std::string, double> elsewhere;        ///< name -> total self us
  double root_total_us = 0;  ///< summed duration of the `root` spans
  uint64_t root_count = 0;
  uint64_t events = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<TraceEvent>& events,
                           const std::string& root);

}  // namespace e2e

#endif  // BESS_E2E_BENCH_STATS_H_
