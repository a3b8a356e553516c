// Tests for the batched async page pipeline (os/async_io.h,
// cache/async_page_io.h, FrameTable::ScanRange): the worker-pool
// AsyncPageIo's request coalescing and fault matrix (io_error inside a
// coalesced run, short completions, completion reordering), and the
// push-based scan path over both the in-memory store and real storage-area
// files.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "cache/async_page_io.h"
#include "cache/frame_table.h"
#include "os/async_io.h"
#include "os/fault_injection.h"
#include "os/file.h"
#include "storage/area_store.h"
#include "storage/storage_area.h"
#include "vm/mem_store.h"

namespace bess {
namespace {

class AsyncIoTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Instance().DisarmAll(); }
};

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string PatternPage(uint32_t p) {
  std::string bytes(kPageSize, '\0');
  for (size_t i = 0; i < kPageSize; ++i) {
    bytes[i] = static_cast<char>((p * 131 + i) & 0xFF);
  }
  return bytes;
}

/// Reaps until `want` completions arrive (workers may deliver in dribbles).
std::vector<aio::AioCompletion> ReapAll(AsyncPageIo* io, uint32_t want) {
  std::vector<aio::AioCompletion> got;
  aio::AioCompletion buf[64];
  int idle = 0;
  while (got.size() < want && idle < 100) {
    uint32_t n = io->Reap(buf, 64, 50);
    if (n == 0) {
      ++idle;
      continue;
    }
    idle = 0;
    for (uint32_t i = 0; i < n; ++i) got.push_back(buf[i]);
  }
  return got;
}

void SeedStore(InMemoryStore* store, uint32_t pages) {
  for (uint32_t p = 0; p < pages; ++p) {
    ASSERT_TRUE(store->WritePages(1, 0, p, 1, PatternPage(p).data()).ok());
  }
}

uint64_t Key(uint32_t p) { return PageAddr{1, 0, p}.Pack(); }

// ---- AsyncPageIo fault matrix ----------------------------------------------
//
// One page-level harness over InMemoryStore: a batch of consecutive-key
// requests of one kind goes in as a single Submit (so the pool coalesces it
// into runs), every completion is reaped, and the case checks what came out.

struct BatchResult {
  std::vector<aio::AioCompletion> completions;
  aio::AioStats stats;
};

/// Submits pages [0, pages) of `store` as one batch of reads (into `out`) or
/// writes (of PatternPage) and reaps every completion.
BatchResult RunBatch(InMemoryStore* store, bool write, uint32_t pages,
                     std::vector<std::string>* out) {
  StorePageIo sync_io(store);
  AsyncPageIo io(&sync_io, 4);
  std::vector<std::string> images;
  for (uint32_t p = 0; p < pages; ++p) images.push_back(PatternPage(p));
  out->assign(pages, std::string(kPageSize, 'x'));
  std::vector<AsyncPageIo::Request> reqs(pages);
  for (uint32_t p = 0; p < pages; ++p) {
    reqs[p].write = write;
    reqs[p].key = Key(p);
    reqs[p].buf = write ? images[p].data() : (*out)[p].data();
    reqs[p].user_data = 1000 + p;
  }
  BatchResult r;
  EXPECT_TRUE(io.Submit(reqs.data(), pages).ok());
  r.completions = ReapAll(&io, pages);
  io.Shutdown();
  r.stats = io.stats();
  return r;
}

/// Every token 1000..1000+pages-1 completed exactly once.
void ExpectEachTokenOnce(const std::vector<aio::AioCompletion>& cs,
                         uint32_t pages) {
  ASSERT_EQ(cs.size(), pages) << "a completion was lost";
  std::set<uint64_t> seen;
  for (const auto& c : cs) {
    EXPECT_GE(c.user_data, 1000u);
    EXPECT_LT(c.user_data, 1000u + pages);
    EXPECT_TRUE(seen.insert(c.user_data).second)
        << "duplicate completion for " << c.user_data;
  }
}

TEST_F(AsyncIoTest, ReadWriteBatchRoundTripsInCoalescedRuns) {
  const uint32_t kPages = 16;
  InMemoryStore store;
  std::vector<std::string> out;
  BatchResult w = RunBatch(&store, /*write=*/true, kPages, &out);
  ExpectEachTokenOnce(w.completions, kPages);
  for (const auto& c : w.completions) {
    EXPECT_TRUE(c.status.ok()) << c.status.message();
    EXPECT_EQ(c.bytes, kPageSize);
  }
  EXPECT_EQ(w.stats.writes, kPages);
  EXPECT_EQ(w.stats.reads, 0u);
  EXPECT_EQ(w.stats.errors, 0u);
  EXPECT_LT(w.stats.write_runs, w.stats.writes)
      << "consecutive queued writes must share device ops";

  BatchResult r = RunBatch(&store, /*write=*/false, kPages, &out);
  ExpectEachTokenOnce(r.completions, kPages);
  for (const auto& c : r.completions) {
    EXPECT_TRUE(c.status.ok()) << c.status.message();
  }
  for (uint32_t p = 0; p < kPages; ++p) EXPECT_EQ(out[p], PatternPage(p));
  EXPECT_EQ(r.stats.reads, kPages);
  EXPECT_EQ(r.stats.writes, 0u);
  EXPECT_EQ(r.stats.errors, 0u);
  EXPECT_LT(r.stats.read_runs, r.stats.reads);
}

TEST_F(AsyncIoTest, IoErrorInsideCoalescedRunFailsOnlyThatRequest) {
  const uint32_t kPages = 6;
  InMemoryStore store;
  SeedStore(&store, kPages);
  // Fail exactly one read in the middle of the run.
  fault::FaultRegistry::Instance().Arm("aio.read",
                                       fault::FaultSpec::FailNth(3));
  std::vector<std::string> out;
  BatchResult r = RunBatch(&store, /*write=*/false, kPages, &out);
  ExpectEachTokenOnce(r.completions, kPages);
  uint32_t failed = 0;
  for (const auto& c : r.completions) {
    const uint32_t p = static_cast<uint32_t>(c.user_data - 1000);
    if (c.status.ok()) {
      EXPECT_EQ(c.bytes, kPageSize);
      EXPECT_EQ(out[p], PatternPage(p)) << "neighbour of the fault damaged";
    } else {
      ++failed;
      EXPECT_EQ(c.bytes, 0u);
    }
  }
  EXPECT_EQ(failed, 1u) << "exactly the scheduled request fails";
  EXPECT_EQ(r.stats.reads, kPages);
  EXPECT_EQ(r.stats.errors, 1u);
  // The run is carved around the faulted request, not split per page.
  EXPECT_LT(r.stats.read_runs, kPages - 1);
}

TEST_F(AsyncIoTest, ShortCompletionLoopsToFullLength) {
  const uint32_t kPages = 4;
  InMemoryStore store;
  // Every aio transfer completes short (100 bytes) until disarmed; the pool
  // must finish each one at full length and still report one completion.
  fault::FaultSpec shortio;
  shortio.action = fault::FaultAction::kShortWrite;
  shortio.max_bytes = 100;
  shortio.count = -1;
  fault::FaultRegistry::Instance().Arm("aio.write", shortio);
  fault::FaultRegistry::Instance().Arm("aio.read", shortio);
  std::vector<std::string> out;
  BatchResult w = RunBatch(&store, /*write=*/true, kPages, &out);
  BatchResult r = RunBatch(&store, /*write=*/false, kPages, &out);
  for (const BatchResult* b : {&w, &r}) {
    ExpectEachTokenOnce(b->completions, kPages);
    for (const auto& c : b->completions) {
      EXPECT_TRUE(c.status.ok()) << c.status.message();
      EXPECT_EQ(c.bytes, kPageSize) << "caller never sees a prefix";
    }
    EXPECT_GE(b->stats.short_fixups, 1u);
    EXPECT_EQ(b->stats.errors, 0u);
  }
  for (uint32_t p = 0; p < kPages; ++p) EXPECT_EQ(out[p], PatternPage(p));
}

TEST_F(AsyncIoTest, ReorderedCompletionsDeliveredExactlyOnce) {
  const uint32_t kPages = 12;
  InMemoryStore store;
  SeedStore(&store, kPages);
  // Defer about every third completion: they arrive out of submission order.
  fault::FaultSpec every3;
  every3.probability = 0.34;
  every3.count = -1;
  fault::FaultRegistry::Instance().Arm("aio.reorder", every3);
  std::vector<std::string> out;
  BatchResult r = RunBatch(&store, /*write=*/false, kPages, &out);
  ExpectEachTokenOnce(r.completions, kPages);
  EXPECT_GT(r.stats.reorders, 0u) << "the schedule never deferred anything";
  for (uint32_t p = 0; p < kPages; ++p) EXPECT_EQ(out[p], PatternPage(p));
}

TEST_F(AsyncIoTest, WorkerPoolPageIoReadsThroughSyncStore) {
  InMemoryStore store;
  SeedStore(&store, 8);
  StorePageIo sync_io(&store);
  AsyncPageIo io(&sync_io, 4);

  std::vector<std::string> out(8, std::string(kPageSize, 'x'));
  std::vector<AsyncPageIo::Request> reqs(8);
  for (uint32_t p = 0; p < 8; ++p) {
    reqs[p].write = false;
    reqs[p].key = Key(p);
    reqs[p].buf = out[p].data();
    reqs[p].user_data = p;
  }
  ASSERT_TRUE(io.Submit(reqs.data(), 8).ok());
  auto cs = ReapAll(&io, 8);
  ASSERT_EQ(cs.size(), 8u);
  for (const auto& c : cs) {
    ASSERT_TRUE(c.status.ok()) << c.status.message();
    EXPECT_EQ(out[c.user_data], PatternPage(static_cast<uint32_t>(c.user_data)));
  }
  io.Shutdown();
}

// ---- push-based scan --------------------------------------------------------

TEST_F(AsyncIoTest, ScanRangeDeliversInOrderAndCountsPrefetchHits) {
  InMemoryStore store;
  SeedStore(&store, 64);
  StorePageIo sync_io(&store);
  AsyncPageIo aio_io(&sync_io, 4);

  HeapPlacement placement(16);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 16;
  opts.async_io = &aio_io;
  opts.async_queue_depth = 8;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  std::vector<uint32_t> order;
  Status st = table.ScanRange(Key(0), 48, [&](uint64_t key, const void* page) {
    const PageAddr addr = PageAddr::Unpack(key);
    order.push_back(addr.page);
    EXPECT_EQ(0, memcmp(page, PatternPage(addr.page).data(), kPageSize));
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(order.size(), 48u);
  for (uint32_t i = 0; i < 48; ++i) EXPECT_EQ(order[i], i);

  auto stats = table.stats();
  EXPECT_EQ(stats.counter("cache.scan.pages"), 48u);
  EXPECT_GT(stats.counter("cache.scan.staged"), 0u)
      << "push path never staged a read";
  table.Stop();
}

TEST_F(AsyncIoTest, ScanRangeSurvivesIoErrorAndReorderSchedules) {
  InMemoryStore store;
  SeedStore(&store, 64);
  StorePageIo sync_io(&store);
  AsyncPageIo aio_io(&sync_io, 4);

  HeapPlacement placement(16);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 16;
  opts.async_io = &aio_io;
  opts.async_queue_depth = 8;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());

  // Staged reads fail sporadically and complete out of order; the scan must
  // still deliver every page, in order, falling back to demand fixes for
  // the staged frames that failed.
  fault::FaultSpec flaky;
  flaky.probability = 0.3;
  flaky.count = -1;
  flaky.seed = 0xC0FFEE;
  fault::FaultRegistry::Instance().Arm("aio.read", flaky);
  fault::FaultSpec reorder;
  reorder.probability = 0.3;
  reorder.count = -1;
  reorder.seed = 0xBEEF;
  fault::FaultRegistry::Instance().Arm("aio.reorder", reorder);

  std::vector<uint32_t> order;
  Status st = table.ScanRange(Key(0), 64, [&](uint64_t key, const void* page) {
    const PageAddr addr = PageAddr::Unpack(key);
    order.push_back(addr.page);
    EXPECT_EQ(0, memcmp(page, PatternPage(addr.page).data(), kPageSize));
    return Status::OK();
  });
  fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(order.size(), 64u);
  for (uint32_t i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
  table.Stop();
}

/// Physical byte offset of a logical page (mirrors StorageArea's layout:
/// header page, then per extent one meta page + kPagesPerExtent data pages).
uint64_t PhysicalOffset(PageId page) {
  const uint64_t extent = page / kPagesPerExtent;
  const uint64_t within = page % kPagesPerExtent;
  return (1 + extent * (kPagesPerExtent + 1) + 1 + within) * kPageSize;
}

// The pool over StorePageIo(AreaSegmentStore) is the only async path to real
// area files: its writes must go through StorageArea::WritePages (trailers
// stamped) and its coalesced reads must split at extent seams.
TEST_F(AsyncIoTest, ScanRangePushesOverAreaFiles) {
  const std::string path = TmpPath("aio_scan_area.bess");
  auto area = StorageArea::Create(path, /*area_id=*/0, /*initial_extents=*/2);
  ASSERT_TRUE(area.ok());
  AreaSegmentStore inner;
  inner.AddArea(1, 0, area->get());
  StorePageIo sync_io(&inner);
  AsyncPageIo aio_io(&sync_io, 4);
  const uint32_t kPages = 96;
  const PageId kFirst = kPagesPerExtent - kPages / 2;  // crosses the seam

  // Write every page through the pool, as the async bgwriter does.
  std::vector<std::string> images;
  for (uint32_t i = 0; i < kPages; ++i) images.push_back(PatternPage(kFirst + i));
  std::vector<AsyncPageIo::Request> reqs(kPages);
  for (uint32_t i = 0; i < kPages; ++i) {
    reqs[i].write = true;
    reqs[i].key = Key(kFirst + i);
    reqs[i].buf = images[i].data();
    reqs[i].user_data = i;
  }
  ASSERT_TRUE(aio_io.Submit(reqs.data(), kPages).ok());
  auto ws = ReapAll(&aio_io, kPages);
  ASSERT_EQ(ws.size(), kPages);
  for (const auto& c : ws) ASSERT_TRUE(c.status.ok()) << c.status.message();
  ASSERT_TRUE((*area)->Sync().ok());

  // The synchronous verified read agrees with every async-written page.
  std::string verify(kPageSize, 'x');
  for (uint32_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE((*area)->ReadPages(kFirst + i, 1, verify.data()).ok());
    EXPECT_EQ(verify, images[i]) << "page " << kFirst + i;
  }

  HeapPlacement placement(24);
  StorePageIo io(&inner);
  FrameTable::Options opts;
  opts.frame_count = 24;
  opts.async_io = &aio_io;
  opts.async_queue_depth = 8;
  FrameTable table(opts, &placement, &io);
  ASSERT_TRUE(table.Init().ok());
  const uint64_t runs_before = aio_io.stats().read_runs;
  std::vector<uint32_t> order;
  Status st = table.ScanRange(Key(kFirst), kPages,
                              [&](uint64_t key, const void* page) {
                                const PageAddr addr = PageAddr::Unpack(key);
                                order.push_back(addr.page);
                                EXPECT_EQ(0, memcmp(page,
                                                    PatternPage(addr.page).data(),
                                                    kPageSize));
                                return Status::OK();
                              });
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(order.size(), kPages);
  for (uint32_t i = 0; i < kPages; ++i) EXPECT_EQ(order[i], kFirst + i);
  EXPECT_LT(aio_io.stats().read_runs - runs_before, kPages)
      << "staged reads were not coalesced";
  table.Stop();

  // The async writes stamped trailers: media decay under one of them is
  // detected by the verified read path, not served as good bytes.
  {
    auto f = File::Open(path, /*create=*/false);
    ASSERT_TRUE(f.ok());
    const uint64_t off = PhysicalOffset(kFirst) + 100;
    char b;
    ASSERT_TRUE(f->ReadAt(off, &b, 1).ok());
    b = static_cast<char>(b ^ 0x5A);
    ASSERT_TRUE(f->WriteAt(off, &b, 1).ok());
  }
  st = (*area)->ReadPages(kFirst, 1, verify.data());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  aio_io.Shutdown();
  (void)File::Remove(path);
}

}  // namespace
}  // namespace bess
