#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <unordered_map>

namespace e2e {

namespace {

/// 1-based nearest rank of the q-quantile among n > 0 samples. The epsilon
/// keeps q * n from rounding up past an exact product (0.999 * 10000).
uint64_t NearestRank(uint64_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const uint64_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

uint64_t SamplesBeyond(uint64_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double q, uint64_t min_beyond) {
  if (samples.empty() || SamplesBeyond(samples.size(), q) < min_beyond) {
    return std::nullopt;
  }
  return Percentile(samples, q);
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : buf_(std::max<size_t>(capacity, 1)), rng_(seed | 1) {}

void Reservoir::Add(const Sample& s) {
  ++seen_;
  if (kept_ < buf_.size()) {
    buf_[kept_++] = s;
    return;
  }
  // xorshift64: cheap, and independent of the workload's own generators.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const uint64_t j = rng_ % seen_;
  if (j < buf_.size()) buf_[j] = s;
}

std::vector<Sample> Reservoir::kept() const {
  return std::vector<Sample>(buf_.begin(), buf_.begin() + kept_);
}

int SliceOf(uint64_t t_ns, uint64_t start_ns, uint64_t slice_ns, int slices) {
  const uint64_t offset = t_ns > start_ns ? t_ns - start_ns : 0;
  const uint64_t slice = slice_ns == 0 ? 0 : offset / slice_ns;
  return static_cast<int>(
      std::min<uint64_t>(slice, static_cast<uint64_t>(std::max(slices, 1) - 1)));
}

std::vector<std::vector<double>> SliceByTime(const std::vector<Sample>& samples,
                                             uint64_t start_ns,
                                             uint64_t slice_ns, int slices) {
  std::vector<std::vector<double>> out(static_cast<size_t>(std::max(slices, 1)));
  for (const Sample& s : samples) {
    out[static_cast<size_t>(SliceOf(s.end_ns, start_ns, slice_ns, slices))]
        .push_back(s.us);
  }
  return out;
}

std::optional<double> MedianOfSlicePercentiles(
    const std::vector<std::vector<double>>& slices, double q,
    uint64_t min_beyond) {
  std::vector<double> per_slice;
  for (const auto& s : slices) {
    if (auto v = SupportedPercentile(s, q, min_beyond)) per_slice.push_back(*v);
  }
  if (per_slice.empty()) return std::nullopt;
  return Percentile(std::move(per_slice), 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double HitRatio(double hits, double misses) {
  return Ratio(hits, hits + misses);
}

// ---- Window -------------------------------------------------------------------

void Window::Open() {
  before_ = bess::Snapshot();
  delta_ = bess::Stats();
}

void Window::Close() { delta_ = bess::StatsDelta(before_, bess::Snapshot()); }

double Window::Count(const std::string& name) const {
  return static_cast<double>(delta_.counter(name));
}

double Window::HistCount(const std::string& name) const {
  const bess::HistogramSnapshot* h = delta_.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count);
}

double Window::HistSum(const std::string& name) const {
  const bess::HistogramSnapshot* h = delta_.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum);
}

double Window::HistMean(const std::string& name) const {
  return Ratio(HistSum(name), HistCount(name));
}

// ---- trace budget ---------------------------------------------------------------

std::vector<TraceEvent> ParseTrace(const std::string& text) {
  std::vector<TraceEvent> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_at = line.find("{\"name\":\"");
    if (name_at == std::string::npos) continue;
    const size_t name_begin = name_at + 9;
    const size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    TraceEvent e;
    e.name = line.substr(name_begin, name_end - name_begin);
    unsigned long long tid = 0;
    const size_t tid_at = line.find("\"tid\":", name_end);
    const size_t ts_at = line.find("\"ts\":", name_end);
    const size_t dur_at = line.find("\"dur\":", name_end);
    if (tid_at == std::string::npos || ts_at == std::string::npos ||
        dur_at == std::string::npos ||
        std::sscanf(line.c_str() + tid_at, "\"tid\":%llu", &tid) != 1 ||
        std::sscanf(line.c_str() + ts_at, "\"ts\":%lf", &e.start_us) != 1 ||
        std::sscanf(line.c_str() + dur_at, "\"dur\":%lf", &e.dur_us) != 1) {
      continue;
    }
    e.tid = tid;
    out.push_back(std::move(e));
  }
  return out;
}

SelfTimes ComputeSelfTimes(const std::vector<TraceEvent>& events,
                           const std::string& root) {
  // Timestamps carry nanosecond resolution in microsecond units; a child may
  // round past its parent's end by that much.
  constexpr double kSlackUs = 0.002;
  SelfTimes out;
  out.events = events.size();

  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> by_thread;
  std::set<uint64_t> root_threads;
  for (const TraceEvent& e : events) {
    by_thread[e.tid].push_back(&e);
    if (e.name == root) root_threads.insert(e.tid);
  }
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->start_us != b->start_us) return a->start_us < b->start_us;
                return a->dur_us > b->dur_us;  // parents before children
              });
    const bool is_root_thread = root_threads.count(tid) > 0;
    struct Open {
      const TraceEvent* e;
      double child_us;
      bool under_root;
    };
    std::vector<Open> stack;
    auto finish = [&](const Open& o) {
      const double self = std::max(0.0, o.e->dur_us - o.child_us);
      if (!is_root_thread) {
        out.elsewhere[o.e->name] += self;
      } else if (o.under_root) {
        out.on_root_threads[o.e->name] += self;
      }
    };
    for (const TraceEvent* e : list) {
      while (!stack.empty() &&
             stack.back().e->start_us + stack.back().e->dur_us <=
                 e->start_us + kSlackUs) {
        finish(stack.back());
        stack.pop_back();
      }
      bool under_root = e->name == root;
      if (!stack.empty()) {
        stack.back().child_us += e->dur_us;
        under_root = under_root || stack.back().under_root;
      }
      if (e->name == root) {
        out.root_total_us += e->dur_us;
        out.root_count++;
      }
      stack.push_back(Open{e, 0.0, under_root});
    }
    while (!stack.empty()) {
      finish(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

}  // namespace e2e
