// The frame-lifecycle core shared by every BeSS cache (paper §4).
//
// Both operation modes — copy-on-access private pools (§4.1.1) and the
// shared-memory cache (§4.1.2) — plus the node server's page cache are
// *configurations* of this one state machine. A frame moves through
//
//            ┌────────────────────────────────────────────┐
//            ▼                                            │
//   free → loading → clean ⇄ dirty → writing → clean → evicting → free
//
// and the FrameTable owns every transition. What differs per mode is
// injected through three seams:
//
//   Placement  — where frame bytes live (private mmap'd file, POSIX shm
//                slots, plain heap) and how access protection tracks the
//                lifecycle. The structural invariant inherited from the
//                PR 4 eviction self-deadlock fix lives here:
//                PrepareForWriteback is ALWAYS called before any I/O reads
//                a frame, so a protection-demoted frame is made readable
//                first and write-back can never fault into the handler
//                while the table mutex is held.
//   PageIo     — how pages are fetched/written (SegmentStore, RPC, none),
//                including the WAL-before-data gate for dirty write-back.
//   Directory  — page-key → frame map (process-private hash map, or the
//                shared mapping table in shm).
//
// Replacement is pluggable (cache/replacement_policy.h). Two I/O services
// run off the demand path:
//
//   bgwriter  — a background thread flushes dirty frames ahead of the
//               eviction hand, batched and LSN-ordered (one WAL gate per
//               batch), so foreground faults find clean victims instead of
//               paying synchronous write-back (`cache.bgwriter.*`,
//               `cache.evict.sync_writeback`).
//   scan      — ScanRange/ScanKeys push reads for upcoming pages into
//               kLoading frames ahead of the consumer through the async
//               backend (`cache.scan.*`); each staged read is counted
//               `cache.prefetch.{issued,hits,wasted}`.
#ifndef BESS_CACHE_FRAME_TABLE_H_
#define BESS_CACHE_FRAME_TABLE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/replacement_policy.h"
#include "obs/scope.h"
#include "os/async_io.h"
#include "os/latch.h"
#include "storage/storage_area.h"
#include "util/config.h"
#include "util/status.h"
#include "vm/segment_store.h"

namespace bess {

class AsyncPageIo;

/// Page-frame lifecycle states. Stored as one byte so the whole FrameMeta
/// is shared-memory safe.
enum class FrameState : uint8_t {
  kFree = 0,      ///< no page
  kLoading = 1,   ///< fetch in flight; bytes not yet valid
  kClean = 2,     ///< matches the store
  kDirty = 3,     ///< modified since fetch/last write-back
  kWriting = 4,   ///< write-back in flight (re-dirty allowed)
  kEvicting = 5,  ///< being detached from the directory (momentary)
};

/// Per-frame control data. POD-layout atomics only: the shared cache
/// places an array of these in POSIX shm, private pools allocate theirs.
struct FrameMeta {
  Latch latch;                          ///< page latch (shared mode)
  std::atomic<uint64_t> page_key{0};    ///< PageAddr::Pack(); 0 = none
  std::atomic<uint64_t> page_lsn{0};    ///< newest WAL LSN covering the page
  /// recLSN: the WAL LSN that first dirtied this frame since it was last
  /// clean — the lower bound for redo of this page (the fuzzy checkpoint's
  /// dirty-page table snapshots it). 0 while clean, or when the dirtying
  /// write carried no LSN (redo then starts conservatively at log start).
  std::atomic<uint64_t> rec_lsn{0};
  std::atomic<uint32_t> pins{0};        ///< pin / cross-process binding count
  std::atomic<uint8_t> state{0};        ///< FrameState
  std::atomic<uint8_t> prefetched{0};   ///< scan-staged, not yet consumed;
                                        ///< always 0 on a kFree frame
  /// Write-back ownership. Claimed (CAS 0 → 1) before any state change by
  /// the one flusher whose I/O is pending — across threads AND processes —
  /// so a frame re-dirtied mid-write (kWriting → kDirty) cannot enter a
  /// second concurrent write-back, and the finalize CAS can only match the
  /// owner's own kWriting. A frame with writer != 0 is never evictable:
  /// its bytes are still being read by the in-flight I/O.
  std::atomic<uint8_t> writer{0};

  FrameState State() const {
    return static_cast<FrameState>(state.load(std::memory_order_acquire));
  }
};

class FrameTable {
 public:
  /// Frame placement: byte storage + the protection side of the lifecycle.
  /// Hooks run with the table mutex held unless noted; they must not call
  /// back into the FrameTable.
  class Placement {
   public:
    virtual ~Placement() = default;
    virtual char* frame_data(uint32_t f) = 0;
    /// Frame is about to be filled: make it writable by this process.
    virtual Status BeginLoad(uint32_t f) { return Status::OK(); }
    /// Fill done; arm write detection when the mode wants it.
    virtual Status FinishLoad(uint32_t f, bool for_write) {
      (void)f;
      (void)for_write;
      return Status::OK();
    }
    /// Frame accessed (fix hit or raw touch): lift a demotion if present.
    virtual Status OnAccess(uint32_t f, bool dirty) {
      (void)f;
      (void)dirty;
      return Status::OK();
    }
    /// Frame turned dirty: grant write access.
    virtual Status OnDirty(uint32_t f) {
      (void)f;
      return Status::OK();
    }
    /// Replacement second chance: revoke access so the next touch faults.
    virtual Status Demote(uint32_t f) {
      (void)f;
      return Status::OK();
    }
    /// Called — without the table mutex — before write-back I/O reads the
    /// frame. Must leave the frame readable by this process (lifting any
    /// access protection) and may block to latch it against writers.
    virtual Status PrepareForWriteback(uint32_t f) {
      (void)f;
      return Status::OK();
    }
    /// Write-back finished (table mutex held again): release what
    /// PrepareForWriteback took and re-arm detection when `ok` and still
    /// clean.
    virtual Status FinishWriteback(uint32_t f, bool ok) {
      (void)f;
      (void)ok;
      return Status::OK();
    }
    virtual Status OnEvict(uint32_t f) {
      (void)f;
      return Status::OK();
    }
    /// Nothing evictable: make progress possible (shared mode runs its
    /// level-1 sweep + dead-process cleanup). Only invoked from Fix.
    virtual Status ReleasePressure() { return Status::OK(); }
  };

  /// Page transfer + durability ordering. Called without the table mutex.
  class PageIo {
   public:
    virtual ~PageIo() = default;
    virtual Status Fetch(uint64_t key, void* buf) = 0;
    virtual Status Write(uint64_t key, const void* buf) = 0;
    /// Sequential run fetch (the async run executor's read path); keys are
    /// PageAddr-packed and dense, so key + i addresses page first + i of
    /// the same area.
    virtual Status FetchRun(uint64_t first_key, uint32_t count, void* buf) {
      for (uint32_t i = 0; i < count; ++i) {
        BESS_RETURN_IF_ERROR(
            Fetch(first_key + i, static_cast<char*>(buf) + i * kPageSize));
      }
      return Status::OK();
    }
    /// Sequential run write for coalesced flush batches: pages for keys
    /// [first_key, first_key + count) laid out contiguously in `buf`.
    /// Default decomposes into single writes; stores that can issue one
    /// device op for the run override it (AioStats::write_runs counts).
    virtual Status WriteRun(uint64_t first_key, uint32_t count,
                            const void* buf) {
      for (uint32_t i = 0; i < count; ++i) {
        BESS_RETURN_IF_ERROR(Write(first_key + i,
                                   static_cast<const char*>(buf) +
                                       static_cast<size_t>(i) * kPageSize));
      }
      return Status::OK();
    }
    /// WAL-before-data: make the log durable up to `lsn` before the frame
    /// bytes it covers reach the store. Default: no WAL in play.
    virtual Status EnsureWalDurable(uint64_t lsn) {
      (void)lsn;
      return Status::OK();
    }
  };

  /// page-key → frame map. Called with the table mutex held.
  class Directory {
   public:
    virtual ~Directory() = default;
    virtual uint32_t Lookup(uint64_t key) = 0;
    virtual Status Install(uint64_t key, uint32_t f) = 0;
    virtual void Erase(uint64_t key, uint32_t f) = 0;
  };

  struct Options {
    uint32_t frame_count = 0;
    std::string policy = "clock";        ///< clock | lru | lru2
    bool clock_ref_bits = true;          ///< see ClockPolicyOptions
    std::atomic<uint32_t>* shared_hand = nullptr;
    /// External FrameMeta array (shared memory); owned array when null.
    FrameMeta* frames = nullptr;
    /// External directory (the SMT); internal hash map when null.
    Directory* directory = nullptr;

    bool enable_bgwriter = false;
    uint32_t bgwriter_interval_ms = 5;

    /// Batched asynchronous I/O backend (non-owning; must outlive the
    /// table — Stop() drains all in-flight operations before returning).
    /// When set: bgwriter rounds go out as one batched submission with a
    /// single WAL gate per batch, and ScanRange/ScanKeys push pages ahead
    /// of their consumer. Null keeps the classic synchronous paths.
    /// Rejected with an external (cross-process) directory.
    AsyncPageIo* async_io = nullptr;
    /// Max async page operations in flight (scan + flush).
    uint32_t async_queue_depth = 16;
    /// One foreground pressure-wait slice (the bounded wait for the
    /// bgwriter to mint a clean victim). Exposed for regression tests.
    uint32_t bgwriter_wait_slice_ms = 50;

    /// Fired after a write-back finalizes a frame clean, with the page key
    /// and the recLSN the frame carried while dirty (0 = unknown). Invoked
    /// WITHOUT the table mutex — the callback may take locks that order
    /// before it (the database's recovery mutex does: checkpoint holds it
    /// across CollectDirty). Used to park the written page in the WAL
    /// dirty-page table until an area fsync verifiably covers the write.
    std::function<void(uint64_t key, uint64_t rec_lsn)> on_cleaned;
  };

  struct FixResult {
    uint32_t frame = kNoFrame;
    void* data = nullptr;
    bool hit = false;
  };

  /// `io` may be null for put/get-style caches that never fetch or write
  /// back (misses zero-fill, dirty frames are dropped on evict). A wrapper
  /// that counts events of its own hands its `scope` (which must outlive
  /// the table) so one snapshot covers both; otherwise the table owns one.
  FrameTable(const Options& opts, Placement* placement, PageIo* io,
             obs::Scope* scope = nullptr);
  ~FrameTable();
  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  /// Validates options, builds the replacement policy, starts the
  /// background thread when the bgwriter is enabled.
  Status Init();
  /// Stops the background thread (idempotent; ~FrameTable calls it).
  void Stop();

  /// Returns the frame holding `key`, loading it on a miss (evicting via
  /// the policy when full). With `pin` the frame is pinned before the
  /// table mutex drops, so it cannot be replaced until Unpin.
  Result<FixResult> Fix(uint64_t key, bool for_write, bool pin = false);
  Status Unpin(uint32_t f);

  /// Software / fault-path write detection: ensure `f` is dirty and
  /// writable. `lsn` (when nonzero) raises the frame's WAL horizon.
  Status MarkDirty(uint32_t f, uint64_t lsn = 0);


  /// Raw-touch signal from a placement fault handler: the frame was
  /// demoted and got touched — re-enable it and tell the policy.
  Status NoteAccess(uint32_t f);

  /// Per-page scan delivery. `page` points at frame bytes valid only for
  /// the duration of the call (the frame is pinned); the callback runs
  /// without the table mutex and must not call back into this table.
  using ScanConsumer = std::function<Status(uint64_t key, const void* page)>;

  /// Streams pages [first_key, first_key + count) through `consume` in key
  /// order. With an async backend, reads for upcoming pages are pushed into
  /// kLoading frames up to the queue depth while earlier pages are being
  /// consumed (push-based scan); pages it cannot stage (resident, pinned-
  /// out cache, failed speculative read) are served through the classic
  /// pull-on-fault path. Consumed pages are not promoted by the
  /// replacement policy, so a scan cannot flush the hot set.
  Status ScanRange(uint64_t first_key, uint32_t count,
                   const ScanConsumer& consume);

  /// Streams an explicit, ordered page list through `consume` — the bounded
  /// sub-range scan the index leaf chain needs (satellite of DESIGN.md §14).
  /// Same push pipeline as ScanRange: consecutive keys inside `keys` are
  /// staged as coalescible read runs; non-contiguous steps break the run
  /// but still ride the deep queue. Keys may be arbitrary but must be
  /// distinct and in the order the consumer expects.
  Status ScanKeys(const std::vector<uint64_t>& keys,
                  const ScanConsumer& consume);

  bool Contains(uint64_t key);

  /// Writes every dirty frame back, LSN-ordered, one WAL gate per pass.
  Status FlushDirty();

  /// Snapshots (page key, recLSN) for every frame that may hold bytes the
  /// store does not: the fuzzy checkpoint's dirty-page table. Includes
  /// frames with a write-back in flight (not yet acked durable), and frames
  /// already cleaned whose on_cleaned callback has not returned — until it
  /// has, the page is in no dirty-page table but this one. A recLSN of 0
  /// means unknown — the checkpoint must treat it conservatively.
  void CollectDirty(std::vector<std::pair<uint64_t, uint64_t>>* out) const;

  /// Copy-out / copy-in convenience for put/get caches (node cache).
  bool Get(uint64_t key, void* out);
  Status Put(uint64_t key, const void* bytes);

  /// Drops `key` if present and unpinned. A dirty frame is written back
  /// first (Busy if it is still busy afterwards) — modified data is never
  /// silently discarded. With no PageIo the bytes drop by definition.
  Status Invalidate(uint64_t key);

  /// Evicts every unpinned frame. With `flush`, dirty frames — including
  /// frames re-dirtied during the flush pass — are written back before
  /// eviction and never dropped (a frame that stays busy is skipped).
  /// Without `flush`, dirty data is discarded by design.
  Status Clear(bool flush);

  FrameMeta* meta(uint32_t f) const { return meta_ + f; }
  char* frame_data(uint32_t f) { return placement_->frame_data(f); }
  /// The table's scope (cache.* counters; a wrapper's events included).
  Stats stats() const { return scope_.Snapshot(); }
  uint32_t frame_count() const { return opts_.frame_count; }
  const char* policy_name() const { return policy_->name(); }

 private:
  enum class WritebackMode { kSyncEvict, kFlush, kBackground };

  /// What an in-flight async operation will do to its frame when reaped.
  enum class AioOp : uint8_t { kNone = 0, kScanRead, kFlushWrite };
  struct PendingAio {
    AioOp op = AioOp::kNone;
    uint64_t key = 0;
  };

  FrameState StateOf(uint32_t f) const { return meta_[f].State(); }
  void SetState(uint32_t f, FrameState s) {
    meta_[f].state.store(static_cast<uint8_t>(s), std::memory_order_release);
  }
  bool EvictableLocked(uint32_t f, bool allow_dirty) const;
  Status MarkDirtyLocked(uint32_t f, uint64_t lsn);
  Result<uint32_t> AcquireFrameLocked(std::unique_lock<std::mutex>& lk);
  Status EvictLocked(uint32_t f);
  /// kDirty → kWriting → (kClean | kDirty). Drops and reacquires `lk`
  /// around PrepareForWriteback + I/O.
  Status WriteBackLocked(uint32_t f, std::unique_lock<std::mutex>& lk,
                         WritebackMode mode);
  Status FlushDirtyLocked(std::unique_lock<std::mutex>& lk,
                          WritebackMode mode);
  void BgFlushRoundLocked(std::unique_lock<std::mutex>& lk);
  void BackgroundMain();

  // ---- async pipeline (all guarded by mu_ unless noted) ----
  /// Claims up to `count` idle frames for keys [first, first+count),
  /// stopping at the first resident key or when the policy has no idle
  /// victim; claimed frames are installed in the directory as kLoading.
  void ClaimLoadingRunLocked(uint64_t first, uint32_t count,
                             std::vector<uint32_t>* frames);
  /// Shared body of ScanRange/ScanKeys: streams pages key_at(0..count-1)
  /// through `consume`, staging ahead through the async pipeline when one
  /// is configured.
  Status ScanOrdered(uint32_t count,
                     const std::function<uint64_t(uint32_t)>& key_at,
                     const ScanConsumer& consume);
  /// Submits one bgwriter candidate set as a single async write batch with
  /// one WAL durability gate.
  void AsyncBgFlushBatchLocked(std::unique_lock<std::mutex>& lk,
                               const std::vector<uint32_t>& cand);
  /// Applies reaped completions to their frames' state machines.
  void ProcessAioLocked(const aio::AioCompletion* cs, uint32_t n,
                        std::vector<std::pair<uint64_t, uint64_t>>* cleaned);
  /// Reaps (dropping `lk` around the wait) and processes completions; fires
  /// on_cleaned callbacks without the mutex. Returns completions processed.
  uint32_t ReapAioLocked(std::unique_lock<std::mutex>& lk,
                         uint32_t timeout_ms);
  /// Fires on_cleaned for `cleaned` (already in cleaning_) without the
  /// mutex, then drops them from cleaning_.
  void ReportCleanedLocked(
      std::unique_lock<std::mutex>& lk,
      const std::vector<std::pair<uint64_t, uint64_t>>& cleaned);

  Options opts_;
  Placement* placement_;
  PageIo* io_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unique_ptr<FrameMeta[]> owned_meta_;
  FrameMeta* meta_ = nullptr;
  std::unique_ptr<Directory> owned_dir_;
  Directory* dir_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable bg_cv_;       ///< wakes the background thread
  std::condition_variable cleaned_cv_;  ///< a frame turned clean
  std::condition_variable load_cv_;     ///< a load finished
  bool running_ = false;
  bool urgent_flush_ = false;
  std::thread bg_thread_;

  // Async pipeline state (guarded by mu_). A frame with a PendingAio op is
  // kLoading (reads) or kWriting+writer (flushes): never evictable, never
  // reusable until its completion is processed.
  AsyncPageIo* aio_ = nullptr;
  std::vector<PendingAio> aio_pending_;  ///< indexed by frame
  uint32_t aio_inflight_ = 0;
  uint32_t scan_inflight_ = 0;  ///< subset of aio_inflight_ from ScanRange

  /// (key, recLSN) of frames finalized clean whose on_cleaned has not
  /// returned yet (guarded by mu_); CollectDirty reports them.
  std::vector<std::pair<uint64_t, uint64_t>> cleaning_;

  std::unique_ptr<obs::Scope> own_scope_;  ///< when no wrapper hands one
  obs::Scope& scope_;
};

/// Plain heap placement: no protection, no faults — for caches that only
/// see accesses through explicit calls (node cache, classic baselines).
class HeapPlacement : public FrameTable::Placement {
 public:
  explicit HeapPlacement(uint32_t frame_count)
      : data_(static_cast<size_t>(frame_count) * kPageSize, '\0') {}
  char* frame_data(uint32_t f) override {
    return data_.data() + static_cast<size_t>(f) * kPageSize;
  }

 private:
  std::vector<char> data_;
};

/// PageIo over a SegmentStore: unpacks keys to (db, area, page).
class StorePageIo : public FrameTable::PageIo {
 public:
  explicit StorePageIo(SegmentStore* store) : store_(store) {}
  Status Fetch(uint64_t key, void* buf) override {
    const PageAddr a = PageAddr::Unpack(key);
    return store_->FetchPages(a.db, a.area, a.page, 1, buf);
  }
  Status Write(uint64_t key, const void* buf) override {
    const PageAddr a = PageAddr::Unpack(key);
    return store_->WritePages(a.db, a.area, a.page, 1, buf);
  }
  Status FetchRun(uint64_t first_key, uint32_t count, void* buf) override {
    const PageAddr a = PageAddr::Unpack(first_key);
    return store_->FetchPages(a.db, a.area, a.page, count, buf);
  }
  Status WriteRun(uint64_t first_key, uint32_t count,
                  const void* buf) override {
    const PageAddr a = PageAddr::Unpack(first_key);
    return store_->WritePages(a.db, a.area, a.page, count, buf);
  }

 private:
  SegmentStore* store_;
};

}  // namespace bess

#endif  // BESS_CACHE_FRAME_TABLE_H_
