// Private buffer pool: the copy-on-access operation mode's cache
// (paper §4.1.1).
//
// "Each process has a private buffer pool ... implemented as a fixed size
// file divided into a number of frames whose size is equal to the BeSS page
// size. The above file is mapped into the process' virtual address space
// using the UNIX mmap system call. Because the file serves as backing store
// for the buffer pool, no physical or swap space is allocated."
//
// This class is a thin *configuration* of the shared frame-lifecycle core
// (cache/frame_table.h): frame states, eviction, write-back ordering and
// the optional bgwriter service all live there. What this file
// contributes is the placement — an mmap'd pool file plus the paper's
// protection-state machinery (§4.2):
//
//   - replacement recency is derived from access protection: the clock
//     demotes a frame by revoking access; touching it faults, and the
//     handler re-enables it (the "used" signal);
//   - write detection maps fetched frames read-only; the first store
//     faults and marks the frame dirty before granting write access.
#ifndef BESS_CACHE_PRIVATE_POOL_H_
#define BESS_CACHE_PRIVATE_POOL_H_

#include <atomic>
#include <memory>
#include <string>

#include "cache/frame_table.h"
#include "os/fault_dispatcher.h"
#include "os/file.h"
#include "storage/storage_area.h"
#include "util/config.h"
#include "util/status.h"
#include "vm/segment_store.h"

namespace bess {

class PrivateBufferPool : public FaultRangeOwner {
 public:
  /// Frame-core knobs exposed to pool users (bench_modes drives the
  /// bgwriter comparison through these).
  struct Options {
    bool enable_bgwriter = false;
    uint32_t bgwriter_interval_ms = 5;
  };

  /// Creates a pool of `frame_count` frames backed by the file at `path`
  /// (created/truncated), fetching misses through `store`.
  static Result<std::unique_ptr<PrivateBufferPool>> Open(
      const std::string& path, uint32_t frame_count, SegmentStore* store);
  static Result<std::unique_ptr<PrivateBufferPool>> Open(
      const std::string& path, uint32_t frame_count, SegmentStore* store,
      const Options& options);
  ~PrivateBufferPool() override;

  /// Returns the frame address holding `page`, fetching on a miss (and
  /// evicting via the clock when full). The pointer is valid until the
  /// frame is replaced; fixing again is cheap on a hit.
  Result<void*> Fix(PageAddr page, bool for_write = false);

  /// True if the page is currently cached (no I/O).
  bool Contains(PageAddr page);

  /// Writes every dirty frame back through the store.
  Status FlushDirty();

  /// Drops every frame (end-of-transaction behaviour for clients without
  /// inter-transaction caching, §3).
  Status Clear();

  bool OnFault(void* addr, bool is_write) override;

  /// The table's cache.* counters plus the pool's cache.second_chance.
  Stats stats() const { return scope_.Snapshot(); }
  uint32_t frame_count() const { return frame_count_; }
  FrameTable* table() { return table_.get(); }

 private:
  /// The protection side of the lifecycle; every hook runs under the
  /// FrameTable mutex except PrepareForWriteback (by core contract).
  class PoolPlacement : public FrameTable::Placement {
   public:
    explicit PoolPlacement(PrivateBufferPool* pool) : pool_(pool) {}
    char* frame_data(uint32_t f) override { return pool_->FrameAddr(f); }
    Status BeginLoad(uint32_t f) override;
    Status FinishLoad(uint32_t f, bool for_write) override;
    Status OnAccess(uint32_t f, bool dirty) override;
    Status OnDirty(uint32_t f) override;
    Status Demote(uint32_t f) override;
    Status PrepareForWriteback(uint32_t f) override;
    Status FinishWriteback(uint32_t f, bool ok) override;
    Status OnEvict(uint32_t f) override;

   private:
    PrivateBufferPool* pool_;
  };

  enum Prot : uint8_t { kOpen = 0, kRevoked = 1 };

  PrivateBufferPool(File file, uint32_t frame_count, SegmentStore* store,
                    const Options& options)
      : file_(std::move(file)),
        frame_count_(frame_count),
        store_io_(store),
        options_(options),
        placement_(this) {}

  Status Init();
  char* FrameAddr(uint32_t f) const {
    return base_ + static_cast<size_t>(f) * kPageSize;
  }

  File file_;
  uint32_t frame_count_;
  StorePageIo store_io_;
  Options options_;
  char* base_ = nullptr;
  int dispatcher_slot_ = -1;
  /// Per-frame protection marker (kRevoked = access-protected by the
  /// clock). Written under the table mutex before the mprotect that makes
  /// it observable; read lock-free on the fault path.
  std::unique_ptr<std::atomic<uint8_t>[]> prot_;
  obs::Scope scope_;  ///< shared with table_
  PoolPlacement placement_;
  std::unique_ptr<FrameTable> table_;
};

}  // namespace bess

#endif  // BESS_CACHE_PRIVATE_POOL_H_
