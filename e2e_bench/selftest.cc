// Self-test of the benchmark's own statistics code (stats.h): the
// percentile support rule, zero-base ratios, snapshot-delta windowing and
// the trace self-time budget. Exits 0 when every check holds.
//
//   $ ./e2e_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(Near(e2e::Percentile(v, 0.50), 500));
  CHECK(Near(e2e::Percentile(v, 0.99), 990));
  CHECK(Near(e2e::Percentile({}, 0.5), 0));
  CHECK(Near(e2e::Percentile({7}, 0.99), 7));
  // Exactly 10 samples lie beyond rank 990 of 1000: p99 is supported.
  CHECK(e2e::SamplesBeyond(10000, 0.999) == 10);  // no rounding past 9990
  CHECK(e2e::SamplesBeyond(1000, 0.99) == 10);
  CHECK(e2e::SupportedPercentile(v, 0.99).has_value());
  CHECK(Near(*e2e::SupportedPercentile(v, 0.99), 990));
  // 999 samples leave 9 beyond: not supported.
  v.pop_back();
  CHECK(e2e::SamplesBeyond(999, 0.99) == 9);
  CHECK(!e2e::SupportedPercentile(v, 0.99).has_value());
  CHECK(e2e::SupportedPercentile(v, 0.50).has_value());
}

void TestRatios() {
  CHECK(Near(e2e::Ratio(5, 0), 0));
  CHECK(Near(e2e::Ratio(0, 0), 0));
  CHECK(Near(e2e::Ratio(3, 4), 0.75));
  CHECK(Near(e2e::HitRatio(0, 0), 0));
  CHECK(Near(e2e::HitRatio(3, 1), 0.75));
}

void TestSlices() {
  // Completion times 0..9 s in 1 s steps, a 1 s value each, then one
  // straggler finishing after the deadline.
  std::vector<e2e::Sample> samples;
  for (int i = 0; i < 10; ++i) {
    samples.push_back({1000 + static_cast<uint64_t>(i) * 1000000000ull,
                       10.0 + i});
  }
  samples.push_back({1000 + 12 * 1000000000ull, 100});
  const auto slices = e2e::SliceByTime(samples, 1000, 2000000000ull, 5);
  CHECK(slices.size() == 5);
  CHECK(slices[0].size() == 2 && slices[4].size() == 3);
  CHECK(Near(slices[4].back(), 100));  // the straggler joins the last slice
  CHECK(e2e::SliceOf(0, 1000, 2000000000ull, 5) == 0);  // before the start
  // Per-slice medians 10, 12, 14, 16, 19 (nearest rank): their median is 14.
  CHECK(Near(*e2e::MedianOfSlicePercentiles(slices, 0.5, 0), 14));
  CHECK(!e2e::MedianOfSlicePercentiles({{}, {}}, 0.5, 0));
  // With the default support rule these 2-3 sample slices carry no median.
  CHECK(!e2e::MedianOfSlicePercentiles(slices, 0.5));

  // Tails: a slice too small for a supported p99 is skipped, and one slice
  // with a burst of slow samples does not move the median of three.
  std::vector<double> steady, burst, small(999, 1.0);
  for (int i = 1; i <= 1000; ++i) {
    steady.push_back(i);
    burst.push_back(i * 10.0);
  }
  CHECK(Near(*e2e::MedianOfSlicePercentiles({steady, burst, steady}, 0.99),
             990));
  CHECK(Near(*e2e::MedianOfSlicePercentiles({small, steady}, 0.99), 990));
  CHECK(!e2e::MedianOfSlicePercentiles({small, small}, 0.99));
}

void TestReservoir() {
  e2e::Reservoir small(100);
  for (int i = 0; i < 50; ++i) small.Add({static_cast<uint64_t>(i), 1.0 * i});
  CHECK(small.seen() == 50 && small.kept().size() == 50);  // keeps everything
  e2e::Reservoir r(1000, 7);
  double stream_sum = 0;
  for (int i = 0; i < 100000; ++i) {
    r.Add({static_cast<uint64_t>(i), 1.0 * (i % 100)});
    stream_sum += i % 100;
  }
  const auto kept = r.kept();
  CHECK(r.seen() == 100000 && kept.size() == 1000);  // bounded
  double kept_sum = 0;
  for (const auto& s : kept) kept_sum += s.us;
  // A uniform sample has the stream's mean (49.5) within sampling error.
  CHECK(std::fabs(kept_sum / 1000 - stream_sum / 100000) < 4.0);
  // Late samples get in too: the sample is not just the first 1000.
  uint64_t late = 0;
  for (const auto& s : kept) late += s.end_ns >= 50000 ? 1 : 0;
  CHECK(late > 300 && late < 700);
}

void TestWindow() {
  auto& reg = bess::obs::Registry::Default();
  bess::obs::Counter c = reg.counter("e2e_selftest.counter");
  bess::obs::Histogram h = reg.histogram("e2e_selftest.hist");
  c.Inc(100);  // before the window: must not count
  h.Record(1000);
  e2e::Window w;
  w.Open();
  c.Inc(7);
  h.Record(3);
  h.Record(5);
  w.Close();
  c.Inc(50);  // after the window: must not count
  h.Record(999);
  CHECK(Near(w.Count("e2e_selftest.counter"), 7));
  CHECK(Near(w.HistCount("e2e_selftest.hist"), 2));
  CHECK(Near(w.HistSum("e2e_selftest.hist"), 8));
  CHECK(Near(w.HistMean("e2e_selftest.hist"), 4));  // exact, not bucketed
  CHECK(Near(w.Count("e2e_selftest.absent"), 0));
  CHECK(Near(w.HistMean("e2e_selftest.absent"), 0));
}

void TestSelfTimes() {
  const std::string text =
      "{\"traceEvents\":[\n"
      "{\"name\":\"bench.txn\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,"
      "\"dur\":100.000},\n"
      "{\"name\":\"bench.object.commit\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":10.000,\"dur\":80.000},\n"
      "{\"name\":\"rpc.call.latency\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":20.000,\"dur\":50.000},\n"
      "{\"name\":\"srv.request.latency\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
      "\"ts\":25.000,\"dur\":40.000},\n"
      "{\"name\":\"wal.fsync\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
      "\"ts\":30.000,\"dur\":30.000},\n"
      "{\"name\":\"rpc.call.latency\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":200.000,\"dur\":5.000}\n"
      "]}\n";
  const auto events = e2e::ParseTrace(text);
  CHECK(events.size() == 6);
  const e2e::SelfTimes st = e2e::ComputeSelfTimes(events, "bench.txn");
  CHECK(st.root_count == 1);
  CHECK(Near(st.root_total_us, 100));
  CHECK(Near(st.on_root_threads.at("bench.txn"), 20));  // the residual
  CHECK(Near(st.on_root_threads.at("bench.object.commit"), 30));
  // The rpc span after the root ends is not part of any transaction.
  CHECK(Near(st.on_root_threads.at("rpc.call.latency"), 50));
  CHECK(Near(st.elsewhere.at("srv.request.latency"), 10));
  CHECK(Near(st.elsewhere.at("wal.fsync"), 30));
  // Self times under the root add back up to the root's duration.
  double sum = 0;
  for (const auto& [name, us] : st.on_root_threads) sum += us;
  CHECK(Near(sum, st.root_total_us));
}

}  // namespace

int main() {
  TestPercentiles();
  TestRatios();
  TestSlices();
  TestReservoir();
  TestWindow();
  TestSelfTimes();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
