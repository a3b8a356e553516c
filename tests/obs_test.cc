// Tests for the observability subsystem (DESIGN.md §6): lock-free metrics
// registry, shared-memory placement, histograms + quantile bounds, snapshot
// serializations, snapshot deltas under a scripted workload, and the
// compile-time disarm path.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "bess/bess.h"
#include "cache/frame_table.h"
#include "obs/metrics.h"
#include "obs/stats.h"

namespace bess {
namespace {

using obs::Registry;

// ---- Instance scopes --------------------------------------------------------

/// Two frame tables in one process, each with its own scope.
struct TwoTables {
  static FrameTable::Options Opts() {
    FrameTable::Options o;
    o.frame_count = 8;
    return o;
  }

  /// Scripted work: `a` misses 5 times and hits once, `b` misses twice and
  /// hits twice (Fix and Get both count).
  void Run() {
    ASSERT_TRUE(a.Init().ok());
    ASSERT_TRUE(b.Init().ok());
    char page[kPageSize];
    for (uint64_t key = 1; key <= 4; ++key) ASSERT_TRUE(a.Fix(key, false).ok());
    ASSERT_TRUE(a.Fix(1, false).ok());
    EXPECT_FALSE(a.Get(9, page));
    for (uint64_t key = 1; key <= 2; ++key) ASSERT_TRUE(b.Fix(key, false).ok());
    EXPECT_TRUE(b.Get(1, page));
    EXPECT_TRUE(b.Get(2, page));
  }

  HeapPlacement a_place{8};
  HeapPlacement b_place{8};
  FrameTable a{Opts(), &a_place, /*io=*/nullptr};
  FrameTable b{Opts(), &b_place, /*io=*/nullptr};
};

TEST(ObsScope, EachInstanceCountsOnlyItsOwnWork) {
  TwoTables t;
  t.Run();
  const Stats a = t.a.stats();
  const Stats b = t.b.stats();
  EXPECT_EQ(a.counter("cache.fix"), 6u);
  EXPECT_EQ(a.counter("cache.miss"), 5u);
  EXPECT_EQ(a.counter("cache.hit"), 1u);
  EXPECT_EQ(b.counter("cache.fix"), 4u);
  EXPECT_EQ(b.counter("cache.miss"), 2u);
  EXPECT_EQ(b.counter("cache.hit"), 2u);
}

#if BESS_METRICS_ENABLED

// One count per event: every name a scope counts reaches the process
// registry through that same count, so the registry delta is the sum of the
// instance scopes.
TEST(ObsScope, ProcessRegistryIsTheSumOfScopes) {
  const Stats before = Snapshot();
  TwoTables t;
  t.Run();
  const Stats delta = StatsDelta(before, Snapshot());
  const Stats a = t.a.stats();
  const Stats b = t.b.stats();
  std::map<std::string, uint64_t> names = a.counters;
  names.insert(b.counters.begin(), b.counters.end());
  ASSERT_GE(names.size(), 3u);
  for (const auto& [name, unused] : names) {
    EXPECT_EQ(delta.counter(name), a.counter(name) + b.counter(name)) << name;
  }
}

TEST(ObsRegistry, CountersAreExactUnderEightThreads) {
  std::vector<char> mem(Registry::BytesFor(64, 1024));
  auto reg = Registry::Create(mem.data(), mem.size(), 64, 1024);
  ASSERT_TRUE(reg.ok());

  constexpr int kThreads = 8;
  constexpr uint64_t kIncs = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve inside the thread: registration must be thread-safe too.
      obs::Counter c = reg->counter("test.hits");
      obs::Histogram h = reg->histogram("test.lat");
      for (uint64_t i = 0; i < kIncs; ++i) {
        c.Inc();
        h.Record(i % 1000);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(reg->counter("test.hits").value(), kThreads * kIncs);
  EXPECT_EQ(reg->histogram("test.lat").count(), kThreads * kIncs);
}

TEST(ObsRegistry, HandlesStayDistinctAndDeduplicated) {
  std::vector<char> mem(Registry::BytesFor(16, 256));
  auto reg = Registry::Create(mem.data(), mem.size(), 16, 256);
  ASSERT_TRUE(reg.ok());

  obs::Counter a1 = reg->counter("a");
  obs::Counter a2 = reg->counter("a");  // same cell
  obs::Counter b = reg->counter("b");
  a1.Inc(3);
  a2.Inc(4);
  b.Inc(5);
  EXPECT_EQ(reg->counter("a").value(), 7u);
  EXPECT_EQ(reg->counter("b").value(), 5u);

  obs::Gauge g = reg->gauge("g");
  g.Add(10);
  g.Sub(4);
  EXPECT_EQ(g.value(), 6u);
}

TEST(ObsRegistry, FullRegistryDegradesToOverflowCells) {
  std::vector<char> mem(Registry::BytesFor(2, 8));
  auto reg = Registry::Create(mem.data(), mem.size(), 2, 8);
  ASSERT_TRUE(reg.ok());
  reg->counter("one").Inc();
  reg->counter("two").Inc();
  // Third registration exceeds max_metrics; the handle must still be safe
  // to use (it points at a shared overflow cell).
  obs::Counter spill = reg->counter("three");
  spill.Inc(42);  // must not crash or corrupt the block
  EXPECT_EQ(reg->counter("one").value(), 1u);
  EXPECT_EQ(reg->counter("two").value(), 1u);
}

TEST(ObsHistogram, QuantileBoundsArePowerOfTwoExact) {
  std::vector<char> mem(Registry::BytesFor(8, 256));
  auto reg = Registry::Create(mem.data(), mem.size(), 8, 256);
  ASSERT_TRUE(reg.ok());
  obs::Histogram h = reg->histogram("lat");

  // 100 samples at 100, then one outlier at 1e6: p50 must sit in the
  // bucket containing 100 ([64,128)), p99-ish territory for the max.
  for (int i = 0; i < 100; ++i) h.Record(100);
  h.Record(1000000);

  Stats s = SnapshotOf(*reg);
  const HistogramSnapshot* hs = s.histogram("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 101u);
  EXPECT_EQ(hs->sum, 100u * 100 + 1000000);
  // Power-of-two bucketing: the p50 estimate is within the bucket
  // [64, 128) that holds the true median 100.
  EXPECT_GE(hs->p50(), 64.0);
  EXPECT_LE(hs->p50(), 128.0);
  // The outlier is > p99's rank, so p99 stays in the 100s bucket too.
  EXPECT_LE(hs->p99(), 128.0);
  // max_bound covers the outlier: smallest 2^k >= 1e6 is 2^20.
  EXPECT_GE(hs->max_bound(), 1000000u);
  EXPECT_EQ(hs->mean(), (100.0 * 100 + 1000000) / 101);
}

TEST(ObsHistogram, ZeroAndHugeValuesLandSafely) {
  std::vector<char> mem(Registry::BytesFor(8, 256));
  auto reg = Registry::Create(mem.data(), mem.size(), 8, 256);
  ASSERT_TRUE(reg.ok());
  obs::Histogram h = reg->histogram("edge");
  h.Record(0);
  h.Record(~uint64_t{0});  // caps at the last bucket
  Stats s = SnapshotOf(*reg);
  const HistogramSnapshot* hs = s.histogram("edge");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->buckets[0], 1u);
  EXPECT_EQ(hs->buckets[obs::kHistBuckets - 1], 1u);
}

// The shared-memory placement contract (§4.1.2): the same block, mapped by
// two processes, aggregates both sides' counts — verified with a real fork.
TEST(ObsRegistry, SharedMemoryRoundTripAcrossFork) {
  const size_t bytes = Registry::BytesFor(32, 512);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);

  auto reg = Registry::Create(mem, bytes, 32, 512);
  ASSERT_TRUE(reg.ok());
  reg->counter("shm.parent").Inc(10);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: attach to the inherited mapping — the magic must be found, a
    // metric the parent registered must resolve to the same cell, and a
    // new registration must become visible to the parent.
    auto child_reg = Registry::Attach(mem, bytes);
    if (!child_reg.ok()) _exit(2);
    child_reg->counter("shm.parent").Inc(5);
    child_reg->counter("shm.child").Inc(7);
    child_reg->histogram("shm.lat").Record(256);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(reg->counter("shm.parent").value(), 15u);
  EXPECT_EQ(reg->counter("shm.child").value(), 7u);
  EXPECT_EQ(reg->histogram("shm.lat").count(), 1u);
  ASSERT_EQ(::munmap(mem, bytes), 0);
}

TEST(ObsStats, TextJsonAndBinaryRoundTrip) {
  std::vector<char> mem(Registry::BytesFor(16, 256));
  auto reg = Registry::Create(mem.data(), mem.size(), 16, 256);
  ASSERT_TRUE(reg.ok());
  reg->counter("cache.hit").Inc(123);
  reg->gauge("srv.session.active").Add(3);
  obs::Histogram h = reg->histogram("wal.fsync");
  h.Record(1000);
  h.Record(2000);

  Stats s = SnapshotOf(*reg);
  EXPECT_EQ(s.counter("cache.hit"), 123u);
  EXPECT_EQ(s.counter("srv.session.active"), 3u);

  const std::string text = s.ToText();
  EXPECT_NE(text.find("cache.hit 123"), std::string::npos);

  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"cache.hit\":123"), std::string::npos);
  EXPECT_NE(json.find("\"wal.fsync.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"wal.fsync.p99\":"), std::string::npos);

  // Binary round-trip is loss-free including raw buckets.
  std::string wire;
  s.EncodeTo(&wire);
  auto back = Stats::DecodeFrom(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->counters, s.counters);
  EXPECT_EQ(back->gauges, s.gauges);
  ASSERT_NE(back->histogram("wal.fsync"), nullptr);
  EXPECT_EQ(back->histogram("wal.fsync")->count, 2u);
  EXPECT_EQ(back->histogram("wal.fsync")->sum, 3000u);
  EXPECT_EQ(back->histogram("wal.fsync")->buckets,
            s.histogram("wal.fsync")->buckets);
}

TEST(ObsStats, DecodeRejectsGarbage) {
  EXPECT_FALSE(Stats::DecodeFrom("not a stats payload").ok());
  EXPECT_FALSE(Stats::DecodeFrom("").ok());
}

class ObsWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_obs_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    Database::Options o;
    o.dir = dir_.string();
    o.create = true;
    auto db = Database::Open(o);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    TypeDescriptor t;
    t.name = "Obj";
    t.fixed_size = 16;
    auto tp = db_->RegisterType(t);
    ASSERT_TRUE(tp.ok());
    type_ = *tp;
    auto f = db_->CreateFile("objs");
    ASSERT_TRUE(f.ok());
    file_ = *f;
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<Database> db_;
  TypeIdx type_ = 0;
  uint16_t file_ = 0;
};

// A scripted workload between two Snapshot() calls: the delta must show
// exactly the transactions we ran, and gauges must stay levels.
TEST_F(ObsWorkloadTest, SnapshotDeltaAttributesTheWorkload) {
  const Stats before = Snapshot();

  constexpr int kTxns = 5;
  for (int i = 0; i < kTxns; ++i) {
    TxnGuard txn(db_.get());
    ASSERT_TRUE(txn.active());
    auto slot = db_->CreateObject(file_, type_, 16);
    ASSERT_TRUE(slot.ok());
    auto cs = txn.Commit();
    ASSERT_TRUE(cs.ok());
    EXPECT_GT(cs->duration_ns, 0u);
  }

  const Stats after = Snapshot();
  const Stats delta = StatsDelta(before, after);
  EXPECT_EQ(delta.counter("txn.begin"), static_cast<uint64_t>(kTxns));
  EXPECT_EQ(delta.counter("txn.commit"), static_cast<uint64_t>(kTxns));
  EXPECT_EQ(delta.counter("txn.abort"), 0u);
  const HistogramSnapshot* lat = delta.histogram("txn.commit.latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, static_cast<uint64_t>(kTxns));
  EXPECT_GT(lat->p50(), 0.0);
}

TEST_F(ObsWorkloadTest, CommitStatsReportLogBytesAndLocks) {
  TxnGuard txn(db_.get());
  ASSERT_TRUE(txn.active());
  auto slot = db_->CreateObject(file_, type_, 16);
  ASSERT_TRUE(slot.ok());
  auto cs = txn.Commit();
  ASSERT_TRUE(cs.ok());
  // A creating transaction forces at least one page through the log.
  EXPECT_GT(cs->log_bytes, 0u);
  EXPECT_GT(cs->pages_forced, 0u);
  EXPECT_GT(cs->duration_ns, 0u);
}

TEST_F(ObsWorkloadTest, TxnGuardAbortsWhenDropped) {
  const Stats before = Snapshot();
  {
    TxnGuard txn(db_.get());
    ASSERT_TRUE(txn.active());
    // dropped without Commit
  }
  const Stats delta = StatsDelta(before, Snapshot());
  EXPECT_EQ(delta.counter("txn.abort"), 1u);
  EXPECT_EQ(delta.counter("txn.commit"), 0u);
}

#else  // !BESS_METRICS_ENABLED

// Instance scopes are not metrics: they count with the registry compiled
// out, as the per-instance structs they replaced did.
TEST(ObsDisabled, ScopesStillCount) {
  TwoTables t;
  t.Run();
  EXPECT_TRUE(Snapshot().counters.empty());
  EXPECT_EQ(t.a.stats().counter("cache.miss"), 5u);
  EXPECT_EQ(t.b.stats().counter("cache.hit"), 2u);
}

// Disarmed build: handles and macros must compile to no-ops and snapshots
// must be empty — the <1% overhead budget's degenerate case.
TEST(ObsDisabled, EverythingCompilesToNoOps) {
  BESS_COUNT("off.counter");
  BESS_HIST("off.hist", 42);
  obs::Counter c;
  c.Inc();
  EXPECT_EQ(c.value(), 0u);
  Stats s = Snapshot();
  EXPECT_TRUE(s.counters.empty());
  EXPECT_TRUE(s.histograms.empty());
}

#endif  // BESS_METRICS_ENABLED

}  // namespace
}  // namespace bess
