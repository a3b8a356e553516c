// Tests for the frame-lifecycle core (cache/frame_table.h): state-machine
// legality (the PR 4 protected-frame invariant as a structural rule),
// pin/evict races, replacement-policy quality, WAL-before-data ordering,
// bgwriter and scan-staging behaviour, and eviction under injected fault
// schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/async_page_io.h"
#include "cache/frame_table.h"
#include "os/fault_injection.h"
#include "util/random.h"
#include "vm/mem_store.h"

namespace bess {
namespace {

uint64_t Key(uint32_t p) { return PageAddr{1, 0, p}.Pack(); }

std::string PageBytes(uint32_t p) {
  std::string bytes(kPageSize, '\0');
  memcpy(bytes.data(), &p, sizeof(p));
  return bytes;
}

void SeedStore(InMemoryStore* store, uint32_t pages) {
  for (uint32_t p = 0; p < pages; ++p) {
    ASSERT_TRUE(store->WritePages(1, 0, p, 1, PageBytes(p).data()).ok());
  }
}

// A placement that models access protection the way the mmap'd pools do —
// Demote "protects" a frame, PrepareForWriteback must lift that before any
// I/O reads it — and records enough to prove the lifecycle obeys the rule.
class ProtectionRecordingPlacement : public HeapPlacement {
 public:
  explicit ProtectionRecordingPlacement(uint32_t frames)
      : HeapPlacement(frames), protected_(frames) {
    for (auto& p : protected_) p.store(false);
  }

  Status Demote(uint32_t f) override {
    protected_[f].store(true);
    return Status::OK();
  }
  Status OnAccess(uint32_t f, bool) override {
    protected_[f].store(false);
    return Status::OK();
  }
  Status PrepareForWriteback(uint32_t f) override {
    prepare_calls_.fetch_add(1);
    protected_[f].store(false);  // the real pools mprotect back to readable
    return Status::OK();
  }
  Status OnEvict(uint32_t f) override {
    protected_[f].store(false);
    return Status::OK();
  }

  bool IsProtected(uint32_t f) const { return protected_[f].load(); }
  uint64_t prepare_calls() const { return prepare_calls_.load(); }

 private:
  std::vector<std::atomic<bool>> protected_;
  std::atomic<uint64_t> prepare_calls_{0};
};

// A PageIo that fails the test the instant a write-back reads a frame still
// under protection, and records the WAL-gate / write interleaving.
class AuditingIo : public FrameTable::PageIo {
 public:
  AuditingIo(InMemoryStore* store, ProtectionRecordingPlacement* placement,
             FrameTable** table)
      : inner_(store), placement_(placement), table_(table) {}

  Status Fetch(uint64_t key, void* buf) override {
    return inner_.Fetch(key, buf);
  }
  Status Write(uint64_t key, const void* buf) override {
    // The structural invariant: by the time I/O touches the bytes, the
    // placement has been told to make the frame readable.
    for (uint32_t f = 0; f < (*table_)->frame_count(); ++f) {
      if ((*table_)->meta(f)->page_key.load() == key) {
        EXPECT_FALSE(placement_->IsProtected(f))
            << "write-back of a protection-demoted frame (key " << key << ")";
        const uint64_t lsn = (*table_)->meta(f)->page_lsn.load();
        EXPECT_GE(wal_durable_.load(), lsn)
            << "page written before its WAL records were durable";
      }
    }
    writes_.fetch_add(1);
    return inner_.Write(key, buf);
  }
  Status EnsureWalDurable(uint64_t lsn) override {
    uint64_t cur = wal_durable_.load();
    while (lsn > cur && !wal_durable_.compare_exchange_weak(cur, lsn)) {
    }
    return Status::OK();
  }

  uint64_t writes() const { return writes_.load(); }

 private:
  StorePageIo inner_;
  ProtectionRecordingPlacement* placement_;
  FrameTable** table_;
  std::atomic<uint64_t> wal_durable_{0};
  std::atomic<uint64_t> writes_{0};
};

// A PageIo whose writes hold at a gate until the test opens it, recording
// how many writes ever ran concurrently — the probe for write-back
// exclusivity on a re-dirtied frame.
class GatedIo : public StorePageIo {
 public:
  explicit GatedIo(SegmentStore* store) : StorePageIo(store) {}

  Status Write(uint64_t key, const void* buf) override {
    const int now = in_write_.fetch_add(1) + 1;
    int max = max_concurrent_.load();
    while (now > max && !max_concurrent_.compare_exchange_weak(max, now)) {
    }
    {
      std::unique_lock<std::mutex> lk(gate_mu_);
      gate_cv_.wait(lk, [&] { return open_; });
    }
    writes_.fetch_add(1);
    const Status s = StorePageIo::Write(key, buf);
    in_write_.fetch_sub(1);
    return s;
  }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lk(gate_mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  bool InWrite() const { return in_write_.load() > 0; }
  int max_concurrent() const { return max_concurrent_.load(); }
  int writes() const { return writes_.load(); }

 private:
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool open_ = false;
  std::atomic<int> in_write_{0};
  std::atomic<int> max_concurrent_{0};
  std::atomic<int> writes_{0};
};

// A directory that can fail the next N installs (the shared SMT can return
// NoSpace), for the miss-path unwind test.
class FlakyDirectory : public FrameTable::Directory {
 public:
  uint32_t Lookup(uint64_t key) override {
    auto it = map_.find(key);
    return it == map_.end() ? kNoFrame : it->second;
  }
  Status Install(uint64_t key, uint32_t f) override {
    if (fail_installs_ > 0) {
      --fail_installs_;
      return Status::NoSpace("injected install failure");
    }
    map_[key] = f;
    return Status::OK();
  }
  void Erase(uint64_t key, uint32_t f) override {
    auto it = map_.find(key);
    if (it != map_.end() && it->second == f) map_.erase(it);
  }
  void FailNextInstalls(int n) { fail_installs_ = n; }

 private:
  std::unordered_map<uint64_t, uint32_t> map_;
  int fail_installs_ = 0;
};

// ---- state-machine legality -------------------------------------------------

TEST(FrameTableTest, WritebackAlwaysLiftsProtectionFirst) {
  InMemoryStore store;
  SeedStore(&store, 64);
  ProtectionRecordingPlacement placement(4);
  FrameTable* table_ptr = nullptr;
  AuditingIo io(&store, &placement, &table_ptr);
  FrameTable::Options opts;
  opts.frame_count = 4;
  FrameTable table(opts, &placement, &io);
  table_ptr = &table;
  ASSERT_TRUE(table.Init().ok());

  // Dirty every frame with rising LSNs, then churn far past capacity so
  // every eviction pays a sync write-back of a clock-demoted (= protected)
  // frame. AuditingIo fails the test if any write sees protection up.
  for (uint32_t p = 0; p < 32; ++p) {
    auto r = table.Fix(Key(p), /*for_write=*/true);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_TRUE(table.MarkDirty(r->frame, /*lsn=*/100 + p).ok());
  }
  ASSERT_TRUE(table.FlushDirty().ok());
  EXPECT_GT(io.writes(), 0u);
  EXPECT_GT(placement.prepare_calls(), 0u);

  const Stats stats = table.stats();
  EXPECT_EQ(stats.counter("cache.miss"), 32u);
  EXPECT_GE(stats.counter("cache.eviction"), 28u);
  EXPECT_GE(stats.counter("cache.evict.sync_writeback"), 1u);
}

TEST(FrameTableTest, LifecycleStatesStayConsistent) {
  InMemoryStore store;
  SeedStore(&store, 16);
  HeapPlacement placement(4);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 4;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  auto r = table.Fix(Key(1), /*for_write=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(table.meta(r->frame)->State(), FrameState::kClean);

  ASSERT_TRUE(table.MarkDirty(r->frame, 7).ok());
  EXPECT_EQ(table.meta(r->frame)->State(), FrameState::kDirty);
  EXPECT_EQ(table.meta(r->frame)->page_lsn.load(), 7u);

  ASSERT_TRUE(table.FlushDirty().ok());
  EXPECT_EQ(table.meta(r->frame)->State(), FrameState::kClean);

  ASSERT_TRUE(table.Invalidate(Key(1)).ok());
  EXPECT_EQ(table.meta(r->frame)->State(), FrameState::kFree);
  EXPECT_FALSE(table.Contains(Key(1)));

  // MarkDirty on an empty frame is an illegal transition.
  EXPECT_FALSE(table.MarkDirty(r->frame).ok());
}

// ---- pin / evict races ------------------------------------------------------

TEST(FrameTableTest, PinEvictRacesUnderEightThreads) {
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kPagesPerThread = 16;
  constexpr uint32_t kIters = 400;

  InMemoryStore store;
  SeedStore(&store, kThreads * kPagesPerThread);
  HeapPlacement placement(16);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 16;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  std::atomic<uint32_t> corruptions{0};
  std::atomic<uint32_t> busies{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(0xF1F0 + t);
      for (uint32_t i = 0; i < kIters; ++i) {
        const uint32_t page = t * kPagesPerThread +
                              static_cast<uint32_t>(
                                  rng.Uniform(kPagesPerThread));
        auto r = table.Fix(Key(page), /*for_write=*/false, /*pin=*/true);
        if (!r.ok()) {
          // All 16 frames transiently pinned by the other 7 threads is a
          // legal Busy; anything else is a bug.
          if (r.status().IsBusy()) {
            busies.fetch_add(1);
            continue;
          }
          ADD_FAILURE() << r.status().message();
          return;
        }
        // A pinned frame must hold its page while we read it.
        uint32_t got = 0;
        memcpy(&got, r->data, sizeof(got));
        if (got != page) corruptions.fetch_add(1);
        if (table.meta(r->frame)->page_key.load() != Key(page)) {
          corruptions.fetch_add(1);
        }
        EXPECT_TRUE(table.Unpin(r->frame).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(corruptions.load(), 0u);
  // Everything must be unpinned at the end; Clear would skip pinned frames.
  ASSERT_TRUE(table.Clear(/*flush=*/false).ok());
  for (uint32_t f = 0; f < table.frame_count(); ++f) {
    EXPECT_EQ(table.meta(f)->pins.load(), 0u);
    EXPECT_EQ(table.meta(f)->State(), FrameState::kFree);
  }
}

// ---- replacement quality ----------------------------------------------------

// The classic LRU-2 claim: a looping scan floods one-touch pages through
// the cache; CLOCK grants them reference bits, LRU-2 sees prev == never and
// victimizes them first, so the re-accessed hot set survives.
TEST(FrameTableTest, Lru2BeatsClockOnLoopingScanTrace) {
  constexpr uint32_t kFrames = 8;
  constexpr uint32_t kHot = 4;
  constexpr uint32_t kScan = 64;
  constexpr uint32_t kRounds = 40;

  auto run = [&](const std::string& policy) -> uint64_t {
    InMemoryStore store;
    SeedStore(&store, 128);
    HeapPlacement placement(kFrames);
    StorePageIo io(&store);
    FrameTable::Options opts;
    opts.frame_count = kFrames;
    opts.policy = policy;
    FrameTable table(opts, &placement, &io);
    EXPECT_TRUE(table.Init().ok());
    uint32_t scan_cursor = 0;
    for (uint32_t round = 0; round < kRounds; ++round) {
      // Hot pages touched twice per round: LRU-2 gets a real K-distance.
      for (uint32_t rep = 0; rep < 2; ++rep) {
        for (uint32_t h = 0; h < kHot; ++h) {
          EXPECT_TRUE(table.Fix(Key(1 + h), false).ok());
        }
      }
      // Looping scan: four one-touch pages per round from a wrapping range.
      for (uint32_t s = 0; s < 4; ++s) {
        const uint32_t page = 32 + (scan_cursor++ % kScan);
        EXPECT_TRUE(table.Fix(Key(page), false).ok());
      }
    }
    return table.stats().counter("cache.hit");
  };

  const uint64_t lru2_hits = run("lru2");
  const uint64_t clock_hits = run("clock");
  EXPECT_GT(lru2_hits, clock_hits)
      << "LRU-2 should protect the re-accessed hot set from the scan";
}

// ---- fault schedules (reusing the PR 1 injectors) ---------------------------

TEST(FrameTableTest, EvictionSurvivesInjectedWriteError) {
  InMemoryStore store;
  SeedStore(&store, 64);
  HeapPlacement placement(4);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 4;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  for (uint32_t p = 0; p < 4; ++p) {
    auto r = table.Fix(Key(p), /*for_write=*/true);
    ASSERT_TRUE(r.ok());
    memcpy(r->data, PageBytes(100 + p).data(), kPageSize);
  }

  // The next eviction needs a sync write-back; make it fail once.
  store.FailNextWrites(1);
  auto r = table.Fix(Key(10), false);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().message();

  // No data loss: the victim stayed dirty in cache; a retry succeeds and
  // every modified page eventually reaches the store intact.
  r = table.Fix(Key(10), false);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(table.FlushDirty().ok());
  ASSERT_TRUE(table.Clear(/*flush=*/true).ok());
  for (uint32_t p = 0; p < 4; ++p) {
    std::string got(kPageSize, '\0');
    ASSERT_TRUE(store.FetchPages(1, 0, p, 1, got.data()).ok());
    uint32_t tag = 0;
    memcpy(&tag, got.data(), sizeof(tag));
    EXPECT_EQ(tag, 100 + p) << "page " << p << " lost its update";
  }
  fault::FaultRegistry::Instance().DisarmAll();
}

TEST(FrameTableTest, EvictionUnderBitRotScheduleStaysConsistent) {
  // A lying disk: the write-back "succeeds" but flips one bit (the PR 3
  // media-decay schedule). The frame core must not wedge — detection is the
  // checksummed storage layer's job; the lifecycle's job is that states,
  // directory and refetches stay coherent.
  class BitRotIo : public StorePageIo {
   public:
    explicit BitRotIo(SegmentStore* store) : StorePageIo(store) {}
    Status Write(uint64_t key, const void* buf) override {
      fault::FaultOutcome out = fault::FaultRegistry::Instance().EvaluateIo(
          "frametable.write", std::to_string(key), kPageSize);
      BESS_RETURN_IF_ERROR(out.status);
      if (out.bit_rot) {
        std::string rotten(static_cast<const char*>(buf), kPageSize);
        rotten[17] = static_cast<char>(rotten[17] ^ 0x20);
        return StorePageIo::Write(key, rotten.data());
      }
      return StorePageIo::Write(key, buf);
    }
  };

  InMemoryStore store;
  SeedStore(&store, 64);
  HeapPlacement placement(4);
  BitRotIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 4;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  fault::FaultSpec rot;
  rot.action = fault::FaultAction::kBitRot;
  rot.count = 1;
  fault::FaultRegistry::Instance().Arm("frametable.write", rot);

  ASSERT_TRUE(table.Fix(Key(0), /*for_write=*/true).ok());
  // Churn past capacity: page 0's write-back hits the armed bit-rot.
  for (uint32_t p = 1; p < 12; ++p) {
    auto r = table.Fix(Key(p), /*for_write=*/false);
    ASSERT_TRUE(r.ok()) << r.status().message();
  }
  EXPECT_EQ(fault::FaultRegistry::Instance().hits("frametable.write"), 1u);
  EXPECT_FALSE(table.Contains(Key(0)));

  // Refetch returns the store's (rotten) truth — exactly one bit off — and
  // the table keeps serving it as a normal clean frame.
  auto r = table.Fix(Key(0), /*for_write=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(table.meta(r->frame)->State(), FrameState::kClean);
  EXPECT_EQ(static_cast<char*>(r->data)[17], '\0' ^ 0x20);
  fault::FaultRegistry::Instance().DisarmAll();
}

// ---- bgwriter ---------------------------------------------------------------

TEST(FrameTableTest, BgwriterCleansAheadSoEvictionsSkipSyncWriteback) {
  InMemoryStore store;
  SeedStore(&store, 64);
  HeapPlacement placement(8);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 8;
  opts.enable_bgwriter = true;
  opts.bgwriter_interval_ms = 1;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  for (uint32_t p = 0; p < 8; ++p) {
    auto r = table.Fix(Key(p), /*for_write=*/true);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(table.MarkDirty(r->frame, p + 1).ok());
  }
  // Wait for the flush-ahead to clean everything.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (table.stats().counter("cache.bgwriter.flushed") >= 8) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(table.stats().counter("cache.bgwriter.flushed"), 8u)
      << "bgwriter never caught up";

  // With clean victims available, misses must not pay sync write-back.
  for (uint32_t p = 8; p < 16; ++p) {
    ASSERT_TRUE(table.Fix(Key(p), /*for_write=*/false).ok());
  }
  const Stats stats = table.stats();
  EXPECT_EQ(stats.counter("cache.evict.sync_writeback"), 0u);
  EXPECT_GE(stats.counter("cache.bgwriter.round"), 1u);
  EXPECT_EQ(store.pages_fetched(), 16u);
}

// ---- write-back exclusivity -------------------------------------------------

// A frame re-dirtied while its write-back is in flight must not enter a
// second concurrent write-back (the two finalize CASes would alias and the
// frame could go clean — then evicted and reused — mid-I/O), and must not
// be evictable until the in-flight writer lands.
TEST(FrameTableTest, RedirtyDuringWritebackCannotDoubleWrite) {
  InMemoryStore store;
  SeedStore(&store, 8);
  HeapPlacement placement(4);
  GatedIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 4;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  auto r = table.Fix(Key(0), /*for_write=*/true);
  ASSERT_TRUE(r.ok());
  const uint32_t f = r->frame;
  memcpy(r->data, PageBytes(111).data(), kPageSize);
  ASSERT_TRUE(table.MarkDirty(f, /*lsn=*/1).ok());

  // Flusher 1 blocks at the gate with its write-back claimed.
  std::thread flusher1([&] { EXPECT_TRUE(table.FlushDirty().ok()); });
  while (!io.InWrite()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Re-dirty mid-flight (kWriting → kDirty) with fresh bytes, then race a
  // second flusher and an invalidate against the in-flight write.
  memcpy(table.frame_data(f), PageBytes(222).data(), kPageSize);
  ASSERT_TRUE(table.MarkDirty(f, /*lsn=*/2).ok());
  std::thread flusher2([&] { EXPECT_TRUE(table.FlushDirty().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(io.max_concurrent(), 1)
      << "two write-backs of one frame ran concurrently";
  // The frame's bytes are still being read by the in-flight I/O: it must
  // refuse to leave the cache.
  EXPECT_TRUE(table.Invalidate(Key(0)).IsBusy());

  io.OpenGate();
  flusher1.join();
  flusher2.join();

  // Writer 1 carried the stale image, so its finalize left the frame dirty
  // and writer 2 re-wrote it: exactly two writes, never overlapping, and
  // the store ends at the newest version.
  EXPECT_EQ(io.max_concurrent(), 1);
  EXPECT_EQ(io.writes(), 2);
  EXPECT_EQ(table.meta(f)->State(), FrameState::kClean);
  EXPECT_EQ(table.meta(f)->writer.load(), 0u);
  std::string got(kPageSize, '\0');
  ASSERT_TRUE(store.FetchPages(1, 0, 0, 1, got.data()).ok());
  uint32_t tag = 0;
  memcpy(&tag, got.data(), sizeof(tag));
  EXPECT_EQ(tag, 222u) << "stale write-back image won over the re-dirty";
}

// ---- invalidate / miss-path unwind ------------------------------------------

TEST(FrameTableTest, InvalidateWritesBackDirtyFramesFirst) {
  InMemoryStore store;
  SeedStore(&store, 8);
  HeapPlacement placement(4);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 4;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  auto r = table.Fix(Key(3), /*for_write=*/true);
  ASSERT_TRUE(r.ok());
  memcpy(r->data, PageBytes(77).data(), kPageSize);
  ASSERT_TRUE(table.MarkDirty(r->frame, /*lsn=*/5).ok());

  ASSERT_TRUE(table.Invalidate(Key(3)).ok());
  EXPECT_FALSE(table.Contains(Key(3)));
  // The modified page reached the store instead of being dropped.
  std::string got(kPageSize, '\0');
  ASSERT_TRUE(store.FetchPages(1, 0, 3, 1, got.data()).ok());
  uint32_t tag = 0;
  memcpy(&tag, got.data(), sizeof(tag));
  EXPECT_EQ(tag, 77u) << "Invalidate discarded a dirty frame";
}

TEST(FrameTableTest, InstallFailureDoesNotLeakTheFrame) {
  InMemoryStore store;
  SeedStore(&store, 8);
  HeapPlacement placement(1);
  StorePageIo io(&store);
  FlakyDirectory dir;
  FrameTable::Options opts;
  opts.frame_count = 1;
  opts.directory = &dir;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  dir.FailNextInstalls(1);
  auto r = table.Fix(Key(0), /*for_write=*/false);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNoSpace()) << r.status().message();

  // With a single frame, a frame leaked in kLoading would make every later
  // miss return Busy forever; the retry must get the frame back.
  r = table.Fix(Key(0), /*for_write=*/false);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(table.meta(r->frame)->State(), FrameState::kClean);
  uint32_t got = 0;
  memcpy(&got, r->data, sizeof(got));
  EXPECT_EQ(got, 0u);
}

// ---- shared-mode restrictions -----------------------------------------------

// Scan staging claims frames and installs directory entries under only this
// process's table mutex, without the cross-process serialization (SMT
// latch) the shared miss path uses, so an async backend is rejected
// outright for tables with an external directory.
TEST(FrameTableTest, AsyncIoIsRejectedForCrossProcessDirectories) {
  InMemoryStore store;
  HeapPlacement placement(4);
  StorePageIo io(&store);
  AsyncPageIo aio_io(&io, 1);
  FlakyDirectory dir;
  FrameTable::Options opts;
  opts.frame_count = 4;
  opts.directory = &dir;
  opts.async_io = &aio_io;
  FrameTable table(opts, &placement, &io);
  const Status s = table.Init();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// ---- pressure-wait wakeup (missed-wakeup regression) ------------------------

// The urgent-mode pressure wait used to be a bare timed sleep: if the last
// unpinned dirty frame got pinned (or evicted) mid-wait, the waiter slept
// out the full slice even though waiting had become futile. The wait is now
// a predicate wait and both transitions notify cleaned_cv_; this pins the
// wakeup with an enlarged slice so a regression is a visible stall, and
// rides the tsan preset via the `cache` label for the race side.
TEST(FrameTableTest, PressureWaitWakesWhenLastDirtyFrameGetsPinned) {
  InMemoryStore store;
  SeedStore(&store, 16);
  HeapPlacement placement(2);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 2;
  opts.enable_bgwriter = true;
  opts.bgwriter_interval_ms = 60 * 1000;  // only urgent kicks run it
  opts.bgwriter_wait_slice_ms = 2000;     // a missed wakeup = visible stall
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  // Frame A: dirty and pinned. Frame B: dirty, unpinned — the only frame
  // the bgwriter could ever mint a victim from.
  auto a = table.Fix(Key(0), /*for_write=*/true, /*pin=*/true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(table.MarkDirty(a->frame, 1).ok());
  auto b = table.Fix(Key(1), /*for_write=*/true);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(table.MarkDirty(b->frame, 2).ok());

  // Every write-back fails: B stays dirty no matter how hard the urgent
  // flush tries, so only the pin-side wakeup can release the waiter.
  fault::FaultSpec always_fail;
  always_fail.count = -1;
  fault::FaultRegistry::Instance().Arm("memstore.write", always_fail);

  Status t1_status;
  std::chrono::milliseconds t1_elapsed{0};
  std::thread t1([&] {
    const auto t0 = std::chrono::steady_clock::now();
    t1_status = table.Fix(Key(9), false).status();
    t1_elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
  });

  // Once T1 is inside the pressure wait, pin B: now nothing is cleanable
  // and waiting is futile — T1 must return Busy without sleeping the slice.
  while (table.stats().counter("cache.bgwriter.pressure_wait") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto b2 = table.Fix(Key(1), false, /*pin=*/true);
  ASSERT_TRUE(b2.ok());
  t1.join();
  fault::FaultRegistry::Instance().DisarmAll();

  EXPECT_TRUE(t1_status.IsBusy()) << t1_status.message();
  EXPECT_LT(t1_elapsed.count(), 1500)
      << "pressure waiter slept out the enlarged slice: missed wakeup";
  ASSERT_TRUE(table.Unpin(a->frame).ok());
  ASSERT_TRUE(table.Unpin(b2->frame).ok());
  table.Stop();
}

// ---- checkpoint coupling ----------------------------------------------------

// A frame finalized clean stays in CollectDirty's view until its
// on_cleaned callback returns, on both the synchronous and the async
// write-back path. The checkpoint builds its dirty-page table from the two,
// so a page that sat in neither between the finalize and the callback let
// the redo floor pass its unsynced write-back, and restart lost it.
TEST(FrameTableTest, CleanedFrameStaysCollectableUntilReported) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async bgwriter" : "synchronous flush");
    InMemoryStore store;
    SeedStore(&store, 8);
    StorePageIo io(&store);
    std::unique_ptr<AsyncPageIo> aio;
    if (async) aio = std::make_unique<AsyncPageIo>(&io, 4);
    HeapPlacement placement(4);
    FrameTable* table_ptr = nullptr;
    std::mutex mu;
    int reported = 0;
    int collectable = 0;
    FrameTable::Options opts;
    opts.frame_count = 4;
    opts.enable_bgwriter = async;
    opts.bgwriter_interval_ms = 1;
    opts.async_io = aio.get();
    opts.async_queue_depth = 8;
    opts.on_cleaned = [&](uint64_t key, uint64_t rec_lsn) {
      std::vector<std::pair<uint64_t, uint64_t>> dirty;
      table_ptr->CollectDirty(&dirty);
      std::lock_guard<std::mutex> guard(mu);
      reported++;
      for (const auto& entry : dirty) {
        if (entry == std::make_pair(key, rec_lsn)) {
          collectable++;
          break;
        }
      }
    };
    FrameTable table(opts, &placement, &io);
    table_ptr = &table;
    ASSERT_TRUE(table.Init().ok());

    for (uint32_t p = 0; p < 4; ++p) {
      auto r = table.Fix(Key(p), /*for_write=*/true);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(table.MarkDirty(r->frame, 10 + p).ok());
    }
    if (!async) ASSERT_TRUE(table.FlushDirty().ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      {
        std::lock_guard<std::mutex> guard(mu);
        if (reported >= 4) break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "write-backs never reported clean";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    table.Stop();
    std::lock_guard<std::mutex> guard(mu);
    EXPECT_EQ(reported, 4);
    EXPECT_EQ(collectable, 4)
        << "a cleaned page left CollectDirty before on_cleaned recorded it";
    std::vector<std::pair<uint64_t, uint64_t>> after;
    table.CollectDirty(&after);
    EXPECT_TRUE(after.empty()) << "reported pages must leave the view";
  }
}

// ---- async pipeline ---------------------------------------------------------

class WalGateCountingIo : public StorePageIo {
 public:
  explicit WalGateCountingIo(SegmentStore* store) : StorePageIo(store) {}
  Status EnsureWalDurable(uint64_t lsn) override {
    (void)lsn;
    gates_.fetch_add(1);
    return Status::OK();
  }
  uint64_t gates() const { return gates_.load(); }

 private:
  std::atomic<uint64_t> gates_{0};
};

// An async bgwriter batch pays ONE WAL durability gate for the whole batch
// (max LSN), not one per page — the write-amplification win the tentpole is
// after. Foreground evictions must still never pay sync write-back.
TEST(FrameTableTest, AsyncBgwriterBatchesPayOneWalGatePerBatch) {
  InMemoryStore store;
  SeedStore(&store, 64);
  WalGateCountingIo io(&store);
  AsyncPageIo aio_io(&io, 4);

  HeapPlacement placement(8);
  FrameTable::Options opts;
  opts.frame_count = 8;
  opts.enable_bgwriter = true;
  opts.bgwriter_interval_ms = 1;
  opts.async_io = &aio_io;
  opts.async_queue_depth = 16;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  for (uint32_t p = 0; p < 8; ++p) {
    auto r = table.Fix(Key(p), /*for_write=*/true);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(table.MarkDirty(r->frame, p + 1).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (table.stats().counter("cache.bgwriter.flushed") >= 8) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stats stats = table.stats();
  ASSERT_GE(stats.counter("cache.bgwriter.flushed"), 8u)
      << "async bgwriter never caught up";
  EXPECT_GE(stats.counter("cache.bgwriter.async_batch"), 1u);
  EXPECT_EQ(io.gates(), stats.counter("cache.bgwriter.async_batch"))
      << "expected exactly one WAL gate per async flush batch";
  EXPECT_LT(io.gates(), stats.counter("cache.bgwriter.flushed"))
      << "gate per page means batching bought nothing";

  // Clean victims exist; misses must not pay sync write-back.
  for (uint32_t p = 8; p < 16; ++p) {
    ASSERT_TRUE(table.Fix(Key(p), false).ok());
  }
  EXPECT_EQ(table.stats().counter("cache.evict.sync_writeback"), 0u);
  table.Stop();
}

// cache.prefetch.wasted must charge a scan-staged frame exactly once even
// when completions are reordered behind later ones: a consumer that stops
// early leaves staged-but-unconsumed frames behind, and every issued load is
// eventually scored as exactly one of {hit, wasted, still flagged}.
TEST(FrameTableTest, ScanStagedWasteCountedExactlyOnceUnderReorder) {
  InMemoryStore store;
  SeedStore(&store, 256);
  StorePageIo io(&store);
  AsyncPageIo aio_io(&io, 4);

  HeapPlacement placement(8);
  FrameTable::Options opts;
  opts.frame_count = 8;
  opts.async_io = &aio_io;
  opts.async_queue_depth = 4;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  fault::FaultSpec reorder;
  reorder.probability = 0.5;
  reorder.count = -1;
  reorder.seed = 42;
  fault::FaultRegistry::Instance().Arm("aio.reorder", reorder);

  // Stop after a few pages: the reads staged ahead of the consumer land in
  // frames nobody consumes.
  uint32_t consumed = 0;
  const Status st =
      table.ScanRange(Key(0), 64, [&](uint64_t key, const void* page) {
        uint32_t got = 0;
        memcpy(&got, page, sizeof(got));
        EXPECT_EQ(got, static_cast<uint32_t>(key - Key(0)));
        return ++consumed < 5 ? Status::OK() : Status::Aborted("enough");
      });
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(consumed, 5u);
  ASSERT_GE(table.stats().counter("cache.prefetch.issued"), 1u)
      << "scan never staged a read";

  // Churn unrelated pages so the staged frames recycle through the demand
  // path's evictions.
  for (uint32_t p = 100; p < 190; p += 3) {
    ASSERT_TRUE(table.Fix(Key(p), false).ok());
  }
  fault::FaultRegistry::Instance().DisarmAll();
  table.Stop();

  // No frame may be stranded mid-load, and the ledger must balance exactly:
  // a double-counted or leaked waste breaks the identity.
  uint32_t still_flagged = 0;
  for (uint32_t f = 0; f < opts.frame_count; ++f) {
    EXPECT_NE(table.meta(f)->State(), FrameState::kLoading)
        << "frame " << f << " leaked in kLoading after Stop";
    if (table.meta(f)->prefetched.load() != 0) ++still_flagged;
  }
  const Stats stats = table.stats();
  EXPECT_GE(stats.counter("cache.prefetch.wasted"), 1u);
  EXPECT_EQ(stats.counter("cache.prefetch.issued"),
            stats.counter("cache.prefetch.hits") +
                stats.counter("cache.prefetch.wasted") + still_flagged);
}

}  // namespace
}  // namespace bess
