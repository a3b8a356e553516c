// Tests for the copy-on-access private buffer pool and its protection-state
// clock (§4.1.1, §4.2), plus the LRU / classic-clock baselines.
#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/replacement.h"
#include "cache/private_pool.h"
#include "util/random.h"
#include "vm/mem_store.h"

namespace bess {
namespace {

PageAddr Page(uint32_t p) { return PageAddr{1, 0, p}; }

class PrivatePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_pool_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    // Seed the store with 64 distinct pages.
    std::string page(kPageSize, '\0');
    for (uint32_t p = 0; p < 64; ++p) {
      memcpy(page.data(), &p, sizeof(p));
      ASSERT_TRUE(store_.WritePages(1, 0, p, 1, page.data()).ok());
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PoolPath() { return (dir_ / "pool").string(); }

  std::filesystem::path dir_;
  InMemoryStore store_;
};

TEST_F(PrivatePoolTest, HitsAndMisses) {
  auto pool = PrivateBufferPool::Open(PoolPath(), 8, &store_);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  for (uint32_t p = 0; p < 8; ++p) {
    auto addr = (*pool)->Fix(Page(p), false);
    ASSERT_TRUE(addr.ok());
    uint32_t got;
    memcpy(&got, *addr, sizeof(got));
    EXPECT_EQ(got, p);
  }
  EXPECT_EQ((*pool)->stats().counter("cache.miss"), 8u);
  ASSERT_TRUE((*pool)->Fix(Page(3), false).ok());
  EXPECT_EQ((*pool)->stats().counter("cache.hit"), 1u);
}

TEST_F(PrivatePoolTest, WriteDetectionMarksDirtyOnlyOnWrite) {
  auto pool = PrivateBufferPool::Open(PoolPath(), 4, &store_);
  ASSERT_TRUE(pool.ok());
  auto addr = (*pool)->Fix(Page(1), false);
  ASSERT_TRUE(addr.ok());
  // Read does not dirty.
  volatile char c = *static_cast<char*>(*addr);
  (void)c;
  ASSERT_TRUE((*pool)->FlushDirty().ok());
  EXPECT_EQ((*pool)->stats().counter("cache.writeback"), 0u);
  // A raw store faults once and marks dirty.
  static_cast<char*>(*addr)[100] = 'W';
  ASSERT_TRUE((*pool)->FlushDirty().ok());
  EXPECT_EQ((*pool)->stats().counter("cache.writeback"), 1u);
  std::string check(kPageSize, '\0');
  ASSERT_TRUE(store_.FetchPages(1, 0, 1, 1, check.data()).ok());
  EXPECT_EQ(check[100], 'W');
}

TEST_F(PrivatePoolTest, EvictionWritesBackAndDataSurvives) {
  auto pool = PrivateBufferPool::Open(PoolPath(), 4, &store_);
  ASSERT_TRUE(pool.ok());
  for (uint32_t p = 0; p < 16; ++p) {
    auto addr = (*pool)->Fix(Page(p), true);
    ASSERT_TRUE(addr.ok());
    memcpy(static_cast<char*>(*addr) + 8, &p, sizeof(p));
  }
  EXPECT_GT((*pool)->stats().counter("cache.eviction"), 0u);
  ASSERT_TRUE((*pool)->FlushDirty().ok());
  for (uint32_t p = 0; p < 16; ++p) {
    std::string check(kPageSize, '\0');
    ASSERT_TRUE(store_.FetchPages(1, 0, p, 1, check.data()).ok());
    uint32_t got;
    memcpy(&got, check.data() + 8, sizeof(got));
    EXPECT_EQ(got, p);
  }
}

TEST_F(PrivatePoolTest, ProtectedFrameGetsSecondChanceOnRawTouch) {
  auto pool = PrivateBufferPool::Open(PoolPath(), 2, &store_);
  ASSERT_TRUE(pool.ok());
  auto a = (*pool)->Fix(Page(0), false);
  auto b = (*pool)->Fix(Page(1), false);
  ASSERT_TRUE(a.ok() && b.ok());
  // Fixing a third page protects A and B on the sweep, then evicts one.
  ASSERT_TRUE((*pool)->Fix(Page(2), false).ok());
  // One of A/B survives in protected state; find it and touch it raw.
  const bool a_alive = (*pool)->Contains(Page(0));
  char* held = static_cast<char*>(a_alive ? *a : *b);
  uint32_t got;
  memcpy(&got, held, sizeof(got));  // faults; handler grants second chance
  EXPECT_EQ(got, a_alive ? 0u : 1u);
  EXPECT_GT((*pool)->stats().counter("cache.second_chance"), 0u);
}

TEST_F(PrivatePoolTest, RawTouchKeepsFrameAliveThroughNextSweep) {
  auto pool = PrivateBufferPool::Open(PoolPath(), 4, &store_);
  ASSERT_TRUE(pool.ok());
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE((*pool)->Fix(Page(p), false).ok());
  }
  auto held = (*pool)->Fix(Page(1), false);
  ASSERT_TRUE(held.ok());
  // Keep touching page 1 between fixes of fresh pages: the protection-state
  // clock sees those touches (as faults on protected frames) and keeps
  // giving page 1 its second chance, while untouched pages get evicted.
  for (uint32_t p = 4; p < 14; ++p) {
    ASSERT_TRUE((*pool)->Contains(Page(1))) << "evicted before fix of " << p;
    volatile char c = *static_cast<char*>(*held);
    (void)c;
    ASSERT_TRUE((*pool)->Fix(Page(p), false).ok());
  }
  EXPECT_TRUE((*pool)->Contains(Page(1)));
  EXPECT_FALSE((*pool)->Contains(Page(2)));  // untouched: evicted
  EXPECT_GT((*pool)->stats().counter("cache.second_chance"), 0u);
}

TEST_F(PrivatePoolTest, ClearDropsEverything) {
  auto pool = PrivateBufferPool::Open(PoolPath(), 4, &store_);
  ASSERT_TRUE(pool.ok());
  auto addr = (*pool)->Fix(Page(0), true);
  ASSERT_TRUE(addr.ok());
  static_cast<char*>(*addr)[0] = 'x';
  ASSERT_TRUE((*pool)->Clear().ok());
  EXPECT_FALSE((*pool)->Contains(Page(0)));
  // Dirty data was flushed, not lost.
  std::string check(kPageSize, '\0');
  ASSERT_TRUE(store_.FetchPages(1, 0, 0, 1, check.data()).ok());
  EXPECT_EQ(check[0], 'x');
}

// ---- Baseline pools ----------------------------------------------------------

TEST_F(PrivatePoolTest, LruPoolBasics) {
  LruPool pool(2, &store_);
  ASSERT_TRUE(pool.Fix(Page(0), false).ok());
  ASSERT_TRUE(pool.Fix(Page(1), false).ok());
  ASSERT_TRUE(pool.Fix(Page(0), false).ok());  // 0 is now MRU
  ASSERT_TRUE(pool.Fix(Page(2), false).ok());  // evicts 1 (LRU)
  ASSERT_TRUE(pool.Fix(Page(0), false).ok());
  EXPECT_EQ(pool.stats().counter("cache.hit"), 2u);
  EXPECT_EQ(pool.stats().counter("cache.eviction"), 1u);
}

TEST_F(PrivatePoolTest, ClassicClockBasics) {
  ClassicClockPool pool(2, &store_);
  ASSERT_TRUE(pool.Fix(Page(0), false).ok());
  ASSERT_TRUE(pool.Fix(Page(1), false).ok());
  ASSERT_TRUE(pool.Fix(Page(2), false).ok());  // one of 0/1 evicted
  EXPECT_EQ(pool.stats().counter("cache.eviction"), 1u);
  EXPECT_EQ(pool.stats().counter("cache.miss"), 3u);
}

TEST_F(PrivatePoolTest, BaselinesMissRawTouches) {
  // The motivating scenario of §4.2: a page accessed only through a raw
  // pointer looks idle to a function-call cache but not to the
  // protection-state clock. Drive both caches with the identical trace.
  auto bess_pool = PrivateBufferPool::Open(PoolPath(), 4, &store_);
  ASSERT_TRUE(bess_pool.ok());
  ClassicClockPool classic(4, &store_);

  void* classic_p1 = nullptr;
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE((*bess_pool)->Fix(Page(p), false).ok());
    auto ca = classic.Fix(Page(p), false);
    ASSERT_TRUE(ca.ok());
    if (p == 1) classic_p1 = *ca;
  }
  auto held = (*bess_pool)->Fix(Page(1), false);
  ASSERT_TRUE(held.ok());

  for (uint32_t p = 4; p < 14; ++p) {
    // Raw touches of page 1 that no Fix() reports.
    if ((*bess_pool)->Contains(Page(1))) {
      volatile char c1 = *static_cast<char*>(*held);
      (void)c1;
    }
    volatile char c2 = *static_cast<char*>(classic_p1);  // invisible
    (void)c2;
    ASSERT_TRUE((*bess_pool)->Fix(Page(p), false).ok());
    ASSERT_TRUE(classic.Fix(Page(p), false).ok());
  }
  // BeSS kept the touched page; the classic clock threw it out.
  EXPECT_TRUE((*bess_pool)->Contains(Page(1)));
  const uint64_t misses_before = classic.stats().counter("cache.miss");
  ASSERT_TRUE(classic.Fix(Page(1), false).ok());
  EXPECT_EQ(classic.stats().counter("cache.miss"), misses_before + 1)
      << "classic clock unexpectedly kept the raw-touched page";
}

}  // namespace
}  // namespace bess
