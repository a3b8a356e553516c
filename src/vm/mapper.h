// SegmentMapper: the heart of BeSS's fast object-reference machinery
// (paper §2.1–§2.3).
//
// The mapper gives every slotted segment and every data segment a range of
// reserved (PROT_NONE) virtual addresses inside one arena. Accessing an
// object then unfolds in the paper's "three waves":
//
//   wave 1  a reference is swizzled: the target's *slotted* segment gets a
//           reserved address range (cheap — no fetch, no physical memory);
//   wave 2  touching the slot faults: the slotted segment is fetched, the
//           DP field of every slot is fixed with simple arithmetic to point
//           into a freshly *reserved* data-segment range, and outgoing
//           references are not yet touched;
//   wave 3  touching the object data faults: the data segment is fetched
//           and every reference in it (located via type descriptors) is
//           swizzled to the virtual address of the target slot — which may
//           start the next wave 1.
//
// Reservation is deliberately lazy ("less greedy" than ObjectStore / Texas /
// QuickStore): data-segment address space is reserved only when the owning
// slotted segment is actually fetched. A `greedy` option reproduces the
// eager behaviour as a baseline for bench_reserve.
//
// Update detection (§2.3): fetched data pages are mapped read-only; the
// first store to a page faults, the mapper records the page in the
// transaction's write set (via the AccessObserver, which also acquires the
// lock) and grants write access before the instruction resumes.
//
// Corruption prevention (§2.2): slotted segments are mapped write-protected;
// stray application stores into control structures fault and are *not*
// resolved. BeSS's own mutations run under SlottedWriteGuard, which
// unprotects, mutates, reprotects, and marks the segment dirty.
#ifndef BESS_VM_MAPPER_H_
#define BESS_VM_MAPPER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/scope.h"
#include "os/fault_dispatcher.h"
#include "segment/slotted_view.h"
#include "segment/type_descriptor.h"
#include "vm/arena.h"
#include "vm/segment_store.h"

namespace bess {

/// Receives read/write access notifications; the transaction layer uses
/// them to acquire locks and maintain read/write sets automatically.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// A segment was fetched (first read access). Called with mapper lock held.
  virtual Status OnSegmentRead(SegmentId id) = 0;
  /// A page is about to become writable (first store). `page` is the
  /// absolute page address. Called from the fault path.
  virtual Status OnPageWrite(SegmentId id, PageAddr page) = 0;
};

/// A page image in on-disk form, produced at write-back time.
struct PageImage {
  uint16_t db = 0;
  uint16_t area = 0;
  PageId page = kInvalidPage;
  std::string bytes;  // kPageSize
};

class SegmentMapper : public FaultRangeOwner {
 public:
  struct Options {
    bool protect_slotted = true;      ///< corruption prevention (§2.2)
    bool detect_writes = true;        ///< hardware update detection (§2.3)
    /// Baseline for bench_reserve: fetch referenced slotted segments (and
    /// hence reserve their data ranges) eagerly at swizzle time, like the
    /// greedy schemes of [19, 30, 34].
    bool greedy = false;
  };

  SegmentMapper(SegmentStore* store, TypeTable* types, Options opts);
  SegmentMapper(SegmentStore* store, TypeTable* types);
  ~SegmentMapper() override;
  SegmentMapper(const SegmentMapper&) = delete;
  SegmentMapper& operator=(const SegmentMapper&) = delete;

  // ---- References and object access ----------------------------------------

  /// Address of slot `slot_no` of segment `id`, reserving address space for
  /// the segment if this is its first appearance (wave 1). Touching the
  /// result faults the slotted segment in (wave 2).
  Result<Slot*> SlotAddress(SegmentId id, uint16_t slot_no);

  /// Reverse translation: which segment/slot does a swizzled pointer refer
  /// to? Works for reserved-but-unfetched segments too.
  Status ResolveSlotAddress(const void* slot_addr, SegmentId* id,
                            uint16_t* slot_no);

  /// Forces the slotted segment in (fetch now instead of on first touch).
  Result<SlottedView> FetchSlottedNow(SegmentId id);

  /// Forces the data segment in.
  Status FetchDataNow(SegmentId id);

  // ---- Object lifecycle -----------------------------------------------------

  /// Creates an object of `size` bytes in segment `id` (which must have
  /// room). Returns its slot. The object is zeroed unless `init` is given.
  Result<Slot*> CreateObject(SegmentId id, TypeIdx type, uint32_t size,
                             const void* init = nullptr);

  /// Creates a transparent large object: the slot points at a dedicated
  /// reserved range backed by its own disk segment (`area`/`first_page`).
  Result<Slot*> CreateLargeObject(SegmentId id, TypeIdx type, uint32_t size,
                                  uint16_t lo_area, PageId lo_first_page,
                                  uint16_t lo_pages);

  /// Deletes the object held by `slot` of segment `id`; its data bytes
  /// become a hole until compaction.
  Status DeleteObject(SegmentId id, uint16_t slot_no);

  /// Marks [ptr, ptr+len) dirty without a protection fault — used by the
  /// software update-detection baseline and by internal writers.
  Status MarkDirty(const void* ptr, size_t len);

  // ---- Reorganization (§2.1: references survive all of these) --------------

  /// Moves/resizes the data segment to a new disk location. In-memory
  /// object addresses are preserved when the new size fits the existing
  /// reservation; otherwise DPs are adjusted by the base delta (the paper's
  /// two arithmetic operations). References (which point at slots) are
  /// never affected.
  Status RelocateData(SegmentId id, uint16_t new_area, PageId new_first_page,
                      uint32_t new_page_count);

  /// Squeezes holes out of the data segment; DPs updated, references
  /// untouched.
  Status CompactData(SegmentId id);

  // ---- Transaction support --------------------------------------------------

  /// Predicates selecting which dirty state belongs to the caller's
  /// transaction: `seg_pred` gates slotted images, `page_pred` gates data /
  /// large pages. Null predicates select everything.
  using SegPred = std::function<bool(SegmentId)>;
  using PagePred = std::function<bool(PageAddr)>;

  /// Produces disk-form images of every dirty page (slotted segments with
  /// runtime fields cleared and DPs converted back to disk form; data pages
  /// with references unswizzled).
  Status CollectDirty(std::vector<PageImage>* out);

  /// Filtered variant for multi-transaction use: collects only the caller's
  /// pages. A slotted image is also collected when unswizzling the caller's
  /// data pages extended the outbound table (the two must persist together).
  Status CollectDirtyFor(std::vector<PageImage>* out, const SegPred& seg_pred,
                         const PagePred& page_pred);

  /// After a successful write-back: clears dirty state and re-protects data
  /// pages read-only so future writes are detected again.
  Status MarkClean();

  /// Filtered variant matching CollectDirtyFor.
  Status MarkCleanFor(const SegPred& seg_pred, const PagePred& page_pred);

  /// Abort support: restores the in-memory pre-write image of one page
  /// (captured at its first write fault) and re-protects it. Falls back to
  /// evicting the whole segment when no undo image exists.
  Status RevertPage(PageAddr page);

  /// CollectDirty + SegmentStore::WritePages + MarkClean.
  Status WriteBackAll();

  /// Abort support: drops segments that have dirty pages (they will refault
  /// with on-disk state); clean cached segments stay mapped.
  Status DiscardDirty();

  /// Decommits one segment's memory but keeps its address ranges reserved,
  /// so swizzled pointers into it stay valid and simply refault ("protected"
  /// frame state of §4.2). Dirty state must have been written back or be
  /// intentionally dropped (`drop_dirty`).
  Status Evict(SegmentId id, bool drop_dirty = false);

  /// Decommits every segment but keeps all address ranges reserved:
  /// references stay valid and refault from the store on next touch (the
  /// node-less client's end-of-transaction cache drop, §3).
  Status EvictAll(bool drop_dirty = false);

  /// Drops every mapping and reservation (end of process / cache clear).
  Status Reset();

  /// Installs a freshly formatted segment (no store fetch): used by object
  /// creation when a new object segment is allocated.
  Result<SlottedView> InstallNewSegment(SegmentId id, uint16_t file_id,
                                        uint32_t slotted_page_count,
                                        uint32_t slot_capacity,
                                        uint16_t outbound_capacity,
                                        uint16_t data_area,
                                        PageId data_first_page,
                                        uint32_t data_page_count);

  /// View over a mapped slotted segment (fetches it if needed).
  Result<SlottedView> View(SegmentId id);

  /// Runs `fn` with the slotted segment temporarily write-enabled and marks
  /// it dirty — the §2.2 unprotect/mutate/reprotect discipline.
  Status WithSlottedWritable(SegmentId id,
                             const std::function<Status(SlottedView&)>& fn);

  /// True when the segment is fetched (not merely reserved).
  bool IsMapped(SegmentId id);
  /// True if any address range is assigned to this segment.
  bool IsKnown(SegmentId id);

  void set_observer(AccessObserver* obs) { observer_ = obs; }

  bool OnFault(void* addr, bool is_write) override;

  /// vm.* fault/swizzle counters, vm.fetch.bytes, the vm.reserved.bytes and
  /// vm.committed.bytes gauges, and cache.hit/cache.miss per segment.
  Stats stats() const { return scope_.Snapshot(); }
  SegmentStore* store() const { return store_; }
  TypeTable* types() const { return types_; }

 private:
  enum class Kind : uint8_t { kSlotted, kData, kLarge };
  enum PageState : uint8_t { kUnmapped = 0, kMappedRead = 1, kMappedDirty = 2 };

  struct LargeRange {
    uint16_t slot_no = 0;
    void* base = nullptr;
    size_t reserved = 0;
    bool mapped = false;
    uint16_t area = 0;
    PageId first_page = kInvalidPage;
    uint16_t page_count = 0;
    std::vector<uint8_t> page_state;
    std::unordered_map<uint32_t, std::string> page_undo;
  };

  // The paper's "segment handle": run-time control info for one segment.
  struct MappedSegment {
    SegmentId id;
    bool slotted_mapped = false;
    void* slotted_base = nullptr;
    size_t slotted_reserved = 0;
    uint32_t slotted_pages = 0;  // actual, once fetched
    bool slotted_dirty = false;

    void* data_base = nullptr;
    size_t data_reserved = 0;
    bool data_mapped = false;
    bool data_on_store = true;  // false for brand-new segments never written
    std::vector<uint8_t> data_page_state;
    std::unordered_map<uint32_t, std::string> data_page_undo;

    std::unordered_map<uint16_t, LargeRange> large;  // by slot_no
  };

  struct Range {
    uintptr_t begin;
    uintptr_t end;
    MappedSegment* seg;
    Kind kind;
    uint16_t slot_no;  // for kLarge
  };

  // All Locked methods require mu_ held. Public entry points lock exactly
  // once and delegate here; internal code never calls a public entry point
  // (mu_ is a plain mutex — no hidden re-entrancy).
  Result<MappedSegment*> EnsureReservedLocked(SegmentId id);
  Status WithSlottedWritableLocked(MappedSegment* seg,
                                   const std::function<Status(SlottedView&)>&
                                       fn);
  Status MarkDirtyLocked(const void* ptr, size_t len);
  Status ResolveSlotAddressLocked(const void* slot_addr, SegmentId* id,
                                  uint16_t* slot_no);
  Status EvictLocked(SegmentId id, bool drop_dirty);
  Status CollectDirtyForLocked(std::vector<PageImage>* out,
                               const SegPred& seg_pred,
                               const PagePred& page_pred);
  Status MarkCleanForLocked(const SegPred& seg_pred, const PagePred& page_pred);
  Status FaultSlottedLocked(MappedSegment* seg);
  Status FaultDataLocked(MappedSegment* seg);
  Status FaultLargeLocked(MappedSegment* seg, LargeRange* lr);
  Status WriteFaultLocked(MappedSegment* seg, Kind kind, LargeRange* lr,
                          void* addr);
  Status EnsureSlottedMappedLocked(MappedSegment* seg);
  Status EnsureDataMappedLocked(MappedSegment* seg);
  Status SwizzleDataLocked(MappedSegment* seg);
  Status ReserveDataRangeLocked(MappedSegment* seg, uint32_t data_pages);
  Status SetupAfterSlottedFetchLocked(MappedSegment* seg);
  Result<LargeRange*> ReserveLargeLocked(MappedSegment* seg, uint16_t slot_no,
                                         uint16_t area, PageId first_page,
                                         uint16_t pages, uint32_t size);
  Status CollectDirtyLocked(MappedSegment* seg, std::vector<PageImage>* out,
                            const SegPred& seg_pred,
                            const PagePred& page_pred);
  Status UnswizzleImageLocked(MappedSegment* seg, std::string* data_copy,
                              bool* outbound_changed);
  Status BuildDiskSlottedLocked(MappedSegment* seg, std::string* out);
  void AddRangeLocked(void* base, size_t len, MappedSegment* seg, Kind kind,
                      uint16_t slot_no = 0);
  void DropRangeLocked(void* base);
  Range* FindRangeLocked(const void* addr);
  Status DecommitSegmentLocked(MappedSegment* seg);
  Status ReleaseSegmentLocked(MappedSegment* seg);
  PageAddr DataPageAddr(MappedSegment* seg, uint32_t page_idx);
  SlottedView MappedView(MappedSegment* seg) {
    return SlottedView(seg->slotted_base,
                       static_cast<size_t>(seg->slotted_pages) * kPageSize);
  }

  SegmentStore* store_;
  TypeTable* types_;
  Options opts_;
  AddressArena arena_;
  int dispatcher_slot_ = -1;
  AccessObserver* observer_ = nullptr;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<MappedSegment>> segments_;
  std::map<uintptr_t, Range> ranges_;  // by begin address
  obs::Scope scope_;
};

}  // namespace bess

#endif  // BESS_VM_MAPPER_H_
