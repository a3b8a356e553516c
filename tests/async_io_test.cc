// Tests for the batched async I/O pipeline (os/async_io.h,
// cache/async_page_io.h, FrameTable::ScanRange): backend parity between the
// io_uring engine and the worker-pool fallback, the fault matrix (io_error
// mid-batch, short completions, completion reordering), and the push-based
// scan path over both the in-memory store and real storage-area files.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/async_page_io.h"
#include "cache/cached_store.h"
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

/// Reaps until `want` completions arrive (engines may deliver in dribbles).
template <typename Engine>
std::vector<aio::AioCompletion> ReapAll(Engine* eng, uint32_t want) {
  std::vector<aio::AioCompletion> got;
  aio::AioCompletion buf[64];
  int idle = 0;
  while (got.size() < want && idle < 100) {
    uint32_t n = eng->Reap(buf, 64, 50);
    if (n == 0) {
      ++idle;
      continue;
    }
    idle = 0;
    for (uint32_t i = 0; i < n; ++i) got.push_back(buf[i]);
  }
  return got;
}

void RunEngineReadWriteBatch(const std::string& backend) {
  const std::string path = TmpPath("aio_rw_" + backend);
  auto file = File::Open(path);
  ASSERT_TRUE(file.ok());
  const uint32_t kPages = 16;
  ASSERT_TRUE(file->Truncate(kPages * kPageSize).ok());

  aio::AsyncFileEngine::Options eo;
  eo.backend = backend;
  eo.queue_depth = 8;
  auto eng = aio::AsyncFileEngine::Create(eo);
  ASSERT_TRUE(eng.ok());
  if (backend == "uring") {
    ASSERT_STREQ((*eng)->backend(), "uring") << "kernel lost io_uring?";
  }

  // One batched write of every page.
  std::vector<std::string> images;
  std::vector<aio::AioRequest> reqs;
  for (uint32_t p = 0; p < kPages; ++p) images.push_back(PatternPage(p));
  for (uint32_t p = 0; p < kPages; ++p) {
    aio::AioRequest r;
    r.op = aio::Op::kWrite;
    r.fd = file->fd();
    r.offset = static_cast<uint64_t>(p) * kPageSize;
    r.buf = images[p].data();
    r.len = kPageSize;
    r.user_data = p;
    reqs.push_back(r);
  }
  ASSERT_TRUE((*eng)->Submit(reqs.data(), kPages).ok());
  auto wr = ReapAll(eng->get(), kPages);
  ASSERT_EQ(wr.size(), kPages);
  for (const auto& c : wr) {
    EXPECT_TRUE(c.status.ok()) << c.status.message();
    EXPECT_EQ(c.bytes, kPageSize);
  }

  // One batched read back; every page must match, every token exactly once.
  std::vector<std::string> out(kPages, std::string(kPageSize, 'x'));
  for (uint32_t p = 0; p < kPages; ++p) {
    reqs[p].op = aio::Op::kRead;
    reqs[p].buf = out[p].data();
  }
  ASSERT_TRUE((*eng)->Submit(reqs.data(), kPages).ok());
  auto rd = ReapAll(eng->get(), kPages);
  ASSERT_EQ(rd.size(), kPages);
  std::set<uint64_t> seen;
  for (const auto& c : rd) {
    EXPECT_TRUE(c.status.ok()) << c.status.message();
    EXPECT_TRUE(seen.insert(c.user_data).second)
        << "duplicate completion for " << c.user_data;
  }
  for (uint32_t p = 0; p < kPages; ++p) EXPECT_EQ(out[p], images[p]);

  auto stats = (*eng)->stats();
  EXPECT_EQ(stats.reads, kPages);
  EXPECT_EQ(stats.writes, kPages);
  EXPECT_EQ(stats.errors, 0u);
  (*eng)->Shutdown();
  (void)File::Remove(path);
}

TEST_F(AsyncIoTest, PoolEngineReadWriteBatch) { RunEngineReadWriteBatch("pool"); }

TEST_F(AsyncIoTest, UringEngineReadWriteBatch) {
  if (!aio::AsyncFileEngine::UringSupported()) {
    GTEST_SKIP() << "kernel has no io_uring";
  }
  RunEngineReadWriteBatch("uring");
}

// The same fault schedule must play out identically on both backends: the
// parity contract that lets sanitizer runs pin bugs on the deterministic
// pool while production runs uring.
void RunIoErrorMidBatch(const std::string& backend) {
  const std::string path = TmpPath("aio_err_" + backend);
  auto file = File::Open(path);
  ASSERT_TRUE(file.ok());
  const uint32_t kPages = 6;
  ASSERT_TRUE(file->Truncate(kPages * kPageSize).ok());

  aio::AsyncFileEngine::Options eo;
  eo.backend = backend;
  auto eng = aio::AsyncFileEngine::Create(eo);
  ASSERT_TRUE(eng.ok());

  // Fail exactly one read in the middle of the batch.
  fault::FaultRegistry::Instance().Arm("aio.read",
                                       fault::FaultSpec::FailNth(3));
  std::vector<std::string> out(kPages, std::string(kPageSize, 'x'));
  std::vector<aio::AioRequest> reqs(kPages);
  for (uint32_t p = 0; p < kPages; ++p) {
    reqs[p].op = aio::Op::kRead;
    reqs[p].fd = file->fd();
    reqs[p].offset = static_cast<uint64_t>(p) * kPageSize;
    reqs[p].buf = out[p].data();
    reqs[p].len = kPageSize;
    reqs[p].user_data = p;
  }
  ASSERT_TRUE((*eng)->Submit(reqs.data(), kPages).ok());
  auto cs = ReapAll(eng->get(), kPages);
  ASSERT_EQ(cs.size(), kPages);
  uint32_t failed = 0;
  for (const auto& c : cs) {
    if (!c.status.ok()) ++failed;
  }
  EXPECT_EQ(failed, 1u) << "exactly the scheduled request fails";
  EXPECT_EQ((*eng)->stats().errors, 1u);
  (*eng)->Shutdown();
  (void)File::Remove(path);
}

TEST_F(AsyncIoTest, PoolIoErrorMidBatchFailsOnlyThatRequest) {
  RunIoErrorMidBatch("pool");
}

TEST_F(AsyncIoTest, UringIoErrorMidBatchFailsOnlyThatRequest) {
  if (!aio::AsyncFileEngine::UringSupported()) {
    GTEST_SKIP() << "kernel has no io_uring";
  }
  RunIoErrorMidBatch("uring");
}

void RunShortCompletionLoopsWhole(const std::string& backend) {
  const std::string path = TmpPath("aio_short_" + backend);
  auto file = File::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Truncate(4 * kPageSize).ok());
  const std::string image = PatternPage(7);
  ASSERT_TRUE(file->WriteAt(2 * kPageSize, image.data(), kPageSize).ok());

  aio::AsyncFileEngine::Options eo;
  eo.backend = backend;
  auto eng = aio::AsyncFileEngine::Create(eo);
  ASSERT_TRUE(eng.ok());

  // Every aio read completes short (100 bytes) until disarmed; the engine
  // must loop each one to full length and still report one completion.
  fault::FaultSpec shortread;
  shortread.action = fault::FaultAction::kShortWrite;
  shortread.max_bytes = 100;
  fault::FaultRegistry::Instance().Arm("aio.read", shortread);

  std::string out(kPageSize, 'x');
  aio::AioRequest r;
  r.op = aio::Op::kRead;
  r.fd = file->fd();
  r.offset = 2 * kPageSize;
  r.buf = out.data();
  r.len = kPageSize;
  r.user_data = 42;
  ASSERT_TRUE((*eng)->Submit(&r, 1).ok());
  auto cs = ReapAll(eng->get(), 1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_TRUE(cs[0].status.ok()) << cs[0].status.message();
  EXPECT_EQ(cs[0].bytes, kPageSize) << "caller never sees a prefix";
  EXPECT_EQ(out, image);
  EXPECT_GE((*eng)->stats().short_fixups, 1u);
  (*eng)->Shutdown();
  (void)File::Remove(path);
}

TEST_F(AsyncIoTest, PoolShortCompletionLoopsToFullLength) {
  RunShortCompletionLoopsWhole("pool");
}

TEST_F(AsyncIoTest, UringShortCompletionLoopsToFullLength) {
  if (!aio::AsyncFileEngine::UringSupported()) {
    GTEST_SKIP() << "kernel has no io_uring";
  }
  RunShortCompletionLoopsWhole("uring");
}

TEST_F(AsyncIoTest, ReorderedCompletionsDeliveredExactlyOnce) {
  const std::string path = TmpPath("aio_reorder");
  auto file = File::Open(path);
  ASSERT_TRUE(file.ok());
  const uint32_t kPages = 12;
  ASSERT_TRUE(file->Truncate(kPages * kPageSize).ok());

  aio::AsyncFileEngine::Options eo;
  eo.backend = "pool";
  auto eng = aio::AsyncFileEngine::Create(eo);
  ASSERT_TRUE(eng.ok());

  // Defer every third completion: CQEs arrive out of submission order.
  fault::FaultSpec reorder;
  reorder.probability = 1.0;
  reorder.skip = 0;
  reorder.count = -1;
  fault::FaultSpec every3 = reorder;
  every3.probability = 0.34;
  fault::FaultRegistry::Instance().Arm("aio.reorder", every3);

  std::vector<std::string> out(kPages, std::string(kPageSize, 'x'));
  std::vector<aio::AioRequest> reqs(kPages);
  for (uint32_t p = 0; p < kPages; ++p) {
    reqs[p].op = aio::Op::kRead;
    reqs[p].fd = file->fd();
    reqs[p].offset = static_cast<uint64_t>(p) * kPageSize;
    reqs[p].buf = out[p].data();
    reqs[p].len = kPageSize;
    reqs[p].user_data = 1000 + p;
  }
  ASSERT_TRUE((*eng)->Submit(reqs.data(), kPages).ok());
  auto cs = ReapAll(eng->get(), kPages);
  ASSERT_EQ(cs.size(), kPages) << "a deferred completion must never be lost";
  std::set<uint64_t> seen;
  for (const auto& c : cs) {
    EXPECT_TRUE(seen.insert(c.user_data).second)
        << "duplicate delivery of " << c.user_data;
  }
  (*eng)->Shutdown();
  (void)File::Remove(path);
}

// ---- AsyncPageIo over stores ------------------------------------------------

void SeedStore(InMemoryStore* store, uint32_t pages) {
  for (uint32_t p = 0; p < pages; ++p) {
    ASSERT_TRUE(store->WritePages(1, 0, p, 1, PatternPage(p).data()).ok());
  }
}

uint64_t Key(uint32_t p) { return PageAddr{1, 0, p}.Pack(); }

TEST_F(AsyncIoTest, WorkerPoolPageIoReadsThroughSyncStore) {
  InMemoryStore store;
  SeedStore(&store, 8);
  StorePageIo sync_io(&store);
  AsyncPageIoOptions opts;
  opts.backend = "pool";
  auto io = MakeAsyncPageIo(opts, &sync_io, nullptr);
  ASSERT_TRUE(io.ok());
  EXPECT_STREQ((*io)->backend(), "pool");

  std::vector<std::string> out(8, std::string(kPageSize, 'x'));
  std::vector<AsyncPageIo::Request> reqs(8);
  for (uint32_t p = 0; p < 8; ++p) {
    reqs[p].write = false;
    reqs[p].key = Key(p);
    reqs[p].buf = out[p].data();
    reqs[p].user_data = p;
  }
  ASSERT_TRUE((*io)->Submit(reqs.data(), 8).ok());
  auto cs = ReapAll(io->get(), 8);
  ASSERT_EQ(cs.size(), 8u);
  for (const auto& c : cs) {
    ASSERT_TRUE(c.status.ok()) << c.status.message();
    EXPECT_EQ(out[c.user_data], PatternPage(static_cast<uint32_t>(c.user_data)));
  }
  (*io)->Shutdown();
}

// The uring page path over a real storage area must keep the integrity
// envelope: raw writes stamp trailers at completion, raw reads verify — and
// a quarantined page is not raw-reachable, forcing the sync fallback.
TEST_F(AsyncIoTest, FileEnginePageIoKeepsIntegrityEnvelope) {
  const std::string path = TmpPath("aio_area.bess");
  auto area = StorageArea::Create(path, /*area_id=*/3, /*initial_extents=*/1);
  ASSERT_TRUE(area.ok());
  AreaSegmentStore raw;
  raw.AddArea(1, 3, area->get());
  StorePageIo sync_io(&raw);

  AsyncPageIoOptions opts;
  opts.backend = aio::AsyncFileEngine::UringSupported() ? "auto" : "pool";
  auto io = MakeAsyncPageIo(opts, &sync_io, &raw);
  ASSERT_TRUE(io.ok());

  // Async-write four pages, then async-read them back.
  const uint32_t kPages = 4;
  std::vector<std::string> images;
  for (uint32_t p = 0; p < kPages; ++p) images.push_back(PatternPage(p));
  std::vector<AsyncPageIo::Request> reqs(kPages);
  for (uint32_t p = 0; p < kPages; ++p) {
    reqs[p].write = true;
    reqs[p].key = PageAddr{1, 3, p}.Pack();
    reqs[p].buf = images[p].data();
    reqs[p].lsn = 100 + p;
    reqs[p].user_data = p;
  }
  ASSERT_TRUE((*io)->Submit(reqs.data(), kPages).ok());
  auto ws = ReapAll(io->get(), kPages);
  ASSERT_EQ(ws.size(), kPages);
  for (const auto& c : ws) ASSERT_TRUE(c.status.ok()) << c.status.message();
  ASSERT_TRUE((*area)->Sync().ok());

  std::vector<std::string> out(kPages, std::string(kPageSize, 'x'));
  for (uint32_t p = 0; p < kPages; ++p) {
    reqs[p].write = false;
    reqs[p].buf = out[p].data();
  }
  ASSERT_TRUE((*io)->Submit(reqs.data(), kPages).ok());
  auto rs = ReapAll(io->get(), kPages);
  ASSERT_EQ(rs.size(), kPages);
  for (const auto& c : rs) ASSERT_TRUE(c.status.ok()) << c.status.message();
  for (uint32_t p = 0; p < kPages; ++p) EXPECT_EQ(out[p], images[p]);

  // The trailers really were stamped: the synchronous verified read agrees.
  std::string verify(kPageSize, 'x');
  ASSERT_TRUE((*area)->ReadPages(0, 1, verify.data()).ok());
  EXPECT_EQ(verify, images[0]);

  // Raw-run resolution: a stamped page resolves; a run crossing the extent
  // boundary or addressing an unknown area does not.
  int fd = -1;
  uint64_t off = 0;
  EXPECT_TRUE(raw.RawRun(PageAddr{1, 3, 1}.Pack(), 1, &fd, &off));
  EXPECT_FALSE(raw.RawRun(PageAddr{1, 3, kPagesPerExtent - 1}.Pack(), 2, &fd,
                          &off))
      << "extent-crossing run must fall back to the sync path";
  EXPECT_FALSE(raw.RawRun(PageAddr{9, 9, 0}.Pack(), 1, &fd, &off));
  (*io)->Shutdown();
  (void)File::Remove(path);
}

// ---- push-based scan --------------------------------------------------------

TEST_F(AsyncIoTest, ScanRangeDeliversInOrderAndCountsPrefetchHits) {
  InMemoryStore store;
  SeedStore(&store, 64);
  StorePageIo sync_io(&store);
  AsyncPageIoOptions aopts;
  aopts.backend = "pool";
  auto aio_io = MakeAsyncPageIo(aopts, &sync_io, nullptr);
  ASSERT_TRUE(aio_io.ok());

  HeapPlacement placement(16);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 16;
  opts.async_io = aio_io->get();
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
  AsyncPageIoOptions aopts;
  aopts.backend = "pool";
  auto aio_io = MakeAsyncPageIo(aopts, &sync_io, nullptr);
  ASSERT_TRUE(aio_io.ok());

  HeapPlacement placement(16);
  StorePageIo io(&store);
  FrameTable::Options opts;
  opts.frame_count = 16;
  opts.async_io = aio_io->get();
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

TEST_F(AsyncIoTest, CachedStoreScanPagesPushesOverAreaFiles) {
  const std::string path = TmpPath("aio_scan_area.bess");
  auto area = StorageArea::Create(path, /*area_id=*/0, /*initial_extents=*/2);
  ASSERT_TRUE(area.ok());
  AreaSegmentStore inner;
  inner.AddArea(1, 0, area->get());
  const uint32_t kPages = 96;  // crosses an extent seam
  for (uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(inner.WritePages(1, 0, p, 1, PatternPage(p).data()).ok());
  }

  CachedSegmentStore::Options copts;
  copts.frame_count = 24;
  copts.async_backend = "auto";
  copts.async_queue_depth = 8;
  copts.raw_source = &inner;
  CachedSegmentStore cache(&inner, copts);
  ASSERT_TRUE(cache.Init().ok());
  EXPECT_STRNE(cache.async_backend(), "off");

  std::vector<uint32_t> order;
  Status st = cache.ScanPages(1, 0, 0, kPages,
                              [&](PageId page, const void* bytes) {
                                order.push_back(page);
                                EXPECT_EQ(0, memcmp(bytes,
                                                    PatternPage(page).data(),
                                                    kPageSize));
                                return Status::OK();
                              });
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(order.size(), kPages);
  for (uint32_t i = 0; i < kPages; ++i) EXPECT_EQ(order[i], i);
  cache.Stop();
  (void)File::Remove(path);
}

}  // namespace
}  // namespace bess
