// BTreeIndex: a WAL-logged paged B+-tree over the frame core
// (DESIGN.md §14; ROADMAP item 1).
//
// The tree lives in its own storage area (page 0 = meta, the rest nodes)
// and runs its page traffic through a private FrameTable — so pin/evict/
// write-back, the background writer, and the WAL-before-data gate all come
// from the one buffer core (cache/frame_table.h), not from bespoke index
// I/O. Policy contrast with object pages (§8): object transactions are
// no-steal/force (pages logged and forced at commit); index pages are
// steal/no-force — dirty index frames are written back lazily by the
// bgwriter (or eviction), commit forces only the log. Recovery therefore
// redoes index records blindly and undoes losers *logically* (re-descend
// and reverse — a split may have moved the key since).
//
// Logging protocol:
//   kIndexPut/kIndexDelete  appended to the owning transaction's chain by
//       the caller-supplied RecordLogger; carry the logical payload (key,
//       value, replaced value) for undo AND the touched leaf's full post-op
//       image for blind redo.
//   kIndexSmo  transaction-less nested top action (txn = kNoTxn): full
//       images of every page a split touched (parent, left, right, meta),
//       appended unthrottled *before* the images are applied to the cache.
//       Redo-only — splits are never reversed; a loser's keys are removed
//       logically, the structure they left behind stays.
//
// Concurrency: one coarse latch serializes structural access per index
// (ordering: latch_ is acquired before any WAL append or frame fix; it
// never nests inside the database's meta/rec mutexes — see §14).
#ifndef BESS_INDEX_INDEX_H_
#define BESS_INDEX_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/async_page_io.h"
#include "cache/frame_table.h"
#include "index/btree_page.h"
#include "storage/storage_area.h"
#include "wal/recovery.h"

namespace bess {

class BTreeIndex {
 public:
  struct Options {
    uint16_t db = 0;                 ///< PageAddr db field for cache keys
    uint32_t cache_frames = 128;
    bool enable_bgwriter = true;
    uint32_t bgwriter_interval_ms = 2;
    /// Pool-backed async I/O behind the frame table: bgwriter batches go
    /// out as one submission (key-sorted, write-coalescible) and leaf
    /// scans ride the push pipeline. Off = fully synchronous (recovery
    /// runtimes, tests).
    bool use_async = true;
    uint32_t async_workers = 2;
    uint32_t async_queue_depth = 16;
    /// Forwarded to FrameTable (→ the database's dirty-page table).
    std::function<void(uint64_t key, uint64_t rec_lsn)> on_cleaned;
    /// WAL-before-data gate for write-back (wal->Flush). Null = no WAL.
    std::function<Status(uint64_t lsn)> ensure_wal_durable;
    /// Appends one kIndexSmo record durably enough for the protocol
    /// (unthrottled; SMOs must go through even on a full log). Null = SMOs
    /// unlogged (standalone benches without a WAL).
    std::function<Result<Lsn>(const LogRecord& rec)> append_smo;
  };

  /// Appends one kIndexPut/kIndexDelete to the calling transaction's
  /// chain, filling txn/prev_lsn, and returns its LSN. Called with the
  /// tree latch held.
  using RecordLogger = std::function<Result<Lsn>(LogRecord&& rec)>;
  using EntryFn = std::function<Status(Slice key, Slice value)>;

  /// Formats a *fresh* area as an empty index: meta at page 0, one node
  /// chunk, an empty root leaf. Direct synchronous writes + Sync — index
  /// creation is made durable by the catalog save, not the WAL.
  static Status Format(StorageArea* area);

  /// Opens a formatted area. The area must outlive the index.
  static Result<std::unique_ptr<BTreeIndex>> Open(StorageArea* area,
                                                  const Options& opts);
  ~BTreeIndex();
  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  /// Upsert. Key ≤ kIndexMaxKeyLen, value ≤ kIndexMaxValLen bytes.
  Status Put(Slice key, Slice value, const RecordLogger& log);
  /// Removes `key`; *existed reports whether it was present (absent is OK).
  Status Delete(Slice key, bool* existed, const RecordLogger& log);
  /// Point lookup: true + *value when present.
  Result<bool> Get(Slice key, std::string* value);
  /// Ordered scan over [lo, hi] (inclusive; empty lo = from the start,
  /// empty hi = to the end). Collects the leaf page list from the internal
  /// levels under the latch, then streams the leaves through the frame
  /// table's push scan (ScanKeys) — deep-queue prefetch instead of
  /// pointer-chasing demand misses. Entries are delivered in key order.
  Status Scan(Slice lo, Slice hi, const EntryFn& fn);

  /// Logical undo of one kIndexPut/kIndexDelete against the live tree
  /// (the IndexUndo step of the one undo walker, wal/recovery.h, at abort
  /// and at restart). Re-descends for the key — a split may have moved it
  /// since — reverses the operation, hands the leaf's post-undo image to
  /// `log_clr` (null = unlogged undo, tests), and applies it at the CLR's
  /// LSN.
  /// Idempotent: undoing an already-reversed record still emits the CLR
  /// (the image is simply unchanged), so restart-undo converges.
  Status UndoLogical(const LogRecord& rec, const ClrLogger& log_clr);

  /// Structural validation for tests: walks the whole tree checking node
  /// magic, key order within and across leaves, separator consistency and
  /// the leaf chain; counts entries.
  Status Validate(uint64_t* entries);

  Status FlushDirty();
  void CollectDirty(std::vector<std::pair<uint64_t, uint64_t>>* out) const {
    table_->CollectDirty(out);
  }

  /// Severs the runtime from its owning database: joins the background
  /// writer, shuts down the async pool, and fails every subsequent
  /// operation. ~Database calls this because Index handles share ownership
  /// of the runtime — a handle outliving the database must degrade into
  /// errors, not leave a bgwriter thread calling back into freed state.
  void Detach();

  FrameTable* table() { return table_.get(); }
  AsyncPageIo* async_io() { return aio_.get(); }
  StorageArea* area() { return area_; }
  uint16_t area_id() const { return area_->area_id(); }

 private:
  class PageIoImpl;
  class LatchedPlacement;
  /// RAII pin over one fixed frame.
  struct Pin {
    FrameTable* t = nullptr;
    uint32_t frame = kNoFrame;
    char* data = nullptr;
    Pin() = default;
    Pin(FrameTable* table, uint32_t f, char* d)
        : t(table), frame(f), data(d) {}
    Pin(Pin&& o) noexcept : t(o.t), frame(o.frame), data(o.data) {
      o.t = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept {
      Release();
      t = o.t;
      frame = o.frame;
      data = o.data;
      o.t = nullptr;
      return *this;
    }
    ~Pin() { Release(); }
    void Release() {
      if (t != nullptr) (void)t->Unpin(frame);
      t = nullptr;
    }
  };

  BTreeIndex(StorageArea* area, const Options& opts);
  Status InitRuntime();

  uint64_t PackPage(PageId page) const {
    return PageAddr{opts_.db, area_->area_id(), page}.Pack();
  }
  Result<Pin> FixPage(PageId page);
  /// Installs `image` over `page` in the cache and dirties it at `lsn`.
  Status ApplyImage(PageId page, const char* image, Lsn lsn);

  /// Allocates the next node page out of the meta's chunk cursor; `meta`
  /// is the scratch meta image the enclosing SMO will log+apply (the
  /// allocator advance rides the SMO record). May call AllocSegment for a
  /// fresh chunk (synchronous buddy update; a crash before the SMO record
  /// lands at worst leaks the chunk).
  Result<PageId> AllocNodePage(MetaView* meta);

  /// Splits full child `child_id` of `parent` (or grows the root when
  /// `parent.data == nullptr`), logging one kIndexSmo and applying its
  /// images. All images are composed in scratch first; the cache is only
  /// touched after the record is appended.
  Status SplitChild(Pin* parent, PageId parent_id, Pin* child,
                    PageId child_id, Pin* meta_pin);

  /// Descends to the leaf for `key`, preemptively splitting any full node
  /// on the way (so parents always have room). Returns the pinned leaf.
  Status DescendForWrite(Slice key, Pin* leaf, PageId* leaf_id);
  Status DescendForRead(Slice key, Pin* leaf, PageId* leaf_id);

  /// Collects, in key order, the page ids of every leaf that may hold
  /// keys in [lo, hi], by walking internal nodes only.
  Status CollectLeaves(Slice lo, Slice hi, std::vector<PageId>* out);

  StorageArea* area_;
  Options opts_;
  std::mutex latch_;  ///< coarse per-index latch (§14 lock order)
  bool detached_ = false;  ///< guarded by latch_; set once by Detach()
  std::unique_ptr<PageIoImpl> io_;
  std::unique_ptr<LatchedPlacement> placement_;
  std::unique_ptr<AsyncPageIo> aio_;
  std::unique_ptr<FrameTable> table_;
  std::vector<char> scratch_;  ///< SMO image composition (guarded by latch_)
};

}  // namespace bess

#endif  // BESS_INDEX_INDEX_H_
