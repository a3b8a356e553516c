// Tests for the strict-2PL lock manager: compatibility, upgrades, blocking,
// timeout-as-deadlock-detection, and hierarchical keys.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "segment/layout.h"
#include "txn/lock_manager.h"

namespace bess {
namespace {

TEST(LockModeTest, CompatibilityMatrix) {
  using M = LockMode;
  // S-S compatible, S-X not, IS with everything but X, IX with IS/IX only.
  EXPECT_TRUE(LockCompatible(M::kS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kS, M::kX));
  EXPECT_FALSE(LockCompatible(M::kX, M::kS));
  EXPECT_FALSE(LockCompatible(M::kX, M::kX));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIX));
  EXPECT_TRUE(LockCompatible(M::kIX, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kS));
  EXPECT_TRUE(LockCompatible(M::kSIX, M::kIS));
  EXPECT_FALSE(LockCompatible(M::kSIX, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kSIX, M::kSIX));
  EXPECT_FALSE(LockCompatible(M::kIS, M::kX));
}

TEST(LockModeTest, JoinLattice) {
  using M = LockMode;
  EXPECT_EQ(LockJoin(M::kS, M::kIX), M::kSIX);
  EXPECT_EQ(LockJoin(M::kIX, M::kS), M::kSIX);
  EXPECT_EQ(LockJoin(M::kS, M::kX), M::kX);
  EXPECT_EQ(LockJoin(M::kIS, M::kIX), M::kIX);
  EXPECT_EQ(LockJoin(M::kIS, M::kS), M::kS);
  EXPECT_EQ(LockJoin(M::kSIX, M::kS), M::kSIX);
  EXPECT_EQ(LockJoin(M::kS, M::kS), M::kS);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  const uint64_t key = LockKey::Page(1, 0, 7);
  EXPECT_TRUE(lm.Acquire(1, key, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(2, key, LockMode::kS).ok());
  EXPECT_TRUE(lm.Holds(1, key));
  EXPECT_TRUE(lm.Holds(2, key));
}

TEST(LockManagerTest, ExclusiveConflictTimesOutAsDeadlock) {
  LockManager lm(/*default_timeout_ms=*/50);
  const uint64_t key = LockKey::Page(1, 0, 7);
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kX).ok());
  Status s = lm.Acquire(2, key, LockMode::kX);
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  EXPECT_EQ(lm.stats().counter("txn.lock.timeout"), 1u);
}

TEST(LockManagerTest, ReacquireIsIdempotentUpgradeIsNot) {
  LockManager lm;
  const uint64_t key = LockKey::Page(1, 0, 1);
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kS).ok());
  LockMode m;
  ASSERT_TRUE(lm.Holds(1, key, &m));
  EXPECT_EQ(m, LockMode::kS);
  // Upgrade S -> X succeeds when alone.
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kX).ok());
  ASSERT_TRUE(lm.Holds(1, key, &m));
  EXPECT_EQ(m, LockMode::kX);
  EXPECT_GE(lm.stats().counter("txn.lock.upgrade"), 1u);
  // Downgrade request is a no-op (join keeps X).
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kS).ok());
  ASSERT_TRUE(lm.Holds(1, key, &m));
  EXPECT_EQ(m, LockMode::kX);
}

TEST(LockManagerTest, UpgradeBlocksOnOtherReader) {
  LockManager lm(50);
  const uint64_t key = LockKey::Page(1, 0, 1);
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, key, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(1, key, LockMode::kX).IsDeadlock());
  // After the other reader leaves, the upgrade goes through.
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.Acquire(1, key, LockMode::kX).ok());
}

TEST(LockManagerTest, WaiterWakesOnRelease) {
  LockManager lm(5000);
  const uint64_t key = LockKey::Page(1, 0, 9);
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kX).ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Acquire(2, key, LockMode::kX);
    EXPECT_TRUE(s.ok()) << s.ToString();
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired);
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired);
  EXPECT_GE(lm.stats().counter("txn.lock.wait"), 1u);
}

TEST(LockManagerTest, TryAcquireNeverBlocks) {
  LockManager lm;
  const uint64_t key = LockKey::Page(1, 0, 3);
  ASSERT_TRUE(lm.TryAcquire(1, key, LockMode::kX).ok());
  EXPECT_TRUE(lm.TryAcquire(2, key, LockMode::kS).IsBusy());
}

TEST(LockManagerTest, ReleaseAllDropsEverything) {
  LockManager lm;
  for (uint32_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(lm.Acquire(5, LockKey::Page(1, 0, p), LockMode::kX).ok());
  }
  EXPECT_EQ(lm.HeldKeys(5).size(), 10u);
  lm.ReleaseAll(5);
  EXPECT_TRUE(lm.HeldKeys(5).empty());
  // Another txn can now take them all.
  for (uint32_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(lm.TryAcquire(6, LockKey::Page(1, 0, p), LockMode::kX).ok());
  }
}

TEST(LockManagerTest, ConflictsReflectsOtherHolders) {
  LockManager lm;
  const uint64_t key = LockKey::Page(1, 0, 4);
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kS).ok());
  EXPECT_FALSE(lm.Conflicts(1, key, LockMode::kX));  // own lock ignored
  EXPECT_TRUE(lm.Conflicts(2, key, LockMode::kX));
  EXPECT_FALSE(lm.Conflicts(2, key, LockMode::kS));
}

TEST(LockManagerTest, KeyNamespacesAreDisjoint) {
  LockManager lm;
  // Same numeric ids in different namespaces must not collide.
  ASSERT_TRUE(lm.Acquire(1, LockKey::Page(1, 0, 42), LockMode::kX).ok());
  EXPECT_TRUE(lm.TryAcquire(2, LockKey::File(1, 42), LockMode::kX).ok());
  EXPECT_TRUE(
      lm.TryAcquire(3, LockKey::Segment(SegmentId{1, 0, 42}.Pack()),
                    LockMode::kX)
          .ok());
}

TEST(LockManagerTest, ManyTxnsStressFifo) {
  LockManager lm(5000);
  const uint64_t key = LockKey::Page(1, 0, 0);
  std::atomic<int> in_cs{0};
  std::atomic<int> max_in_cs{0};
  std::vector<std::thread> threads;
  for (int t = 1; t <= 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(lm.Acquire(static_cast<TxnId>(t), key, LockMode::kX).ok());
        int now = ++in_cs;
        int prev = max_in_cs.load();
        while (now > prev && !max_in_cs.compare_exchange_weak(prev, now)) {
        }
        --in_cs;
        lm.ReleaseAll(static_cast<TxnId>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(max_in_cs.load(), 1);  // X is truly exclusive
}

}  // namespace
}  // namespace bess
