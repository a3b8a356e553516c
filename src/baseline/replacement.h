// Baseline page caches for the replacement-policy comparison (§4.2).
//
// BeSS cannot run the textbook clock because "the cache manager does not
// have enough information indicating which slots have been accessed
// recently due to the memory mapping architecture" — applications touch
// pages through raw pointers, invisible to a function-call cache. These
// baselines model that classic world: they only learn about accesses that
// arrive through Fix(). bench_clock feeds all caches the same trace, where
// a fraction of accesses are raw pointer touches, and reports hit rates:
// the protection-state clock (PrivateBufferPool) sees the touches via
// faults, these baselines do not.
//
// Both baselines are heap-placement configurations of the common frame
// core (cache/frame_table.h) — same state machine as the real pools, just
// with no protection hooks and the classic policies ("lru", "clock").
#ifndef BESS_BASELINE_REPLACEMENT_H_
#define BESS_BASELINE_REPLACEMENT_H_

#include "cache/frame_table.h"
#include "storage/storage_area.h"
#include "util/config.h"
#include "util/status.h"
#include "vm/segment_store.h"

namespace bess {

/// Common interface so the bench can drive every cache identically.
class PageCacheBase {
 public:
  virtual ~PageCacheBase() = default;
  /// Explicit page access (the only signal these baselines receive).
  virtual Result<void*> Fix(PageAddr page, bool for_write) = 0;
  virtual Status FlushDirty() = 0;
  Stats stats() const { return scope_.Snapshot(); }

 protected:
  obs::Scope scope_;
};

/// A frame-core configuration with heap frames and a classic policy.
class ClassicPool : public PageCacheBase {
 public:
  ClassicPool(uint32_t frame_count, SegmentStore* store,
              const std::string& policy);
  Result<void*> Fix(PageAddr page, bool for_write) override;
  Status FlushDirty() override;

 private:
  static FrameTable::Options MakeOptions(uint32_t frame_count,
                                         const std::string& policy);

  HeapPlacement placement_;
  StorePageIo io_;
  FrameTable table_;
  Status init_;
};

/// Strict LRU (the frame core's "lru" = LRU-K with K = 1).
class LruPool : public ClassicPool {
 public:
  LruPool(uint32_t frame_count, SegmentStore* store)
      : ClassicPool(frame_count, store, "lru") {}
};

/// Textbook clock: one reference bit per frame, set on Fix.
class ClassicClockPool : public ClassicPool {
 public:
  ClassicClockPool(uint32_t frame_count, SegmentStore* store)
      : ClassicPool(frame_count, store, "clock") {}
};

}  // namespace bess

#endif  // BESS_BASELINE_REPLACEMENT_H_
