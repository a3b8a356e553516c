// The node cache and shared-memory operation mode (paper §4, Figures 3-4).
//
// The cache is one POSIX shared-memory object: control data (latches, the
// shared mapping table SMT, per-slot metadata, a process table for crash
// cleanup) followed by the page frames. Every process maps the whole object
// once (control access) and additionally maps individual *cache slots* into
// its private virtual-memory address range (PVMA) with MAP_FIXED.
//
// The SMT assigns each database page a *virtual frame* index, the same for
// every process ("if a process maps a page at some frame, all processes see
// this page at this frame — but possibly at different address"). Offsets
// from the start of this fictitious address space (SVMA) are therefore
// valid shared pointers; shm_ref<T> translates SVMA offsets to process
// addresses by adding the local PVMA base. A pointer needs to be fixed only
// once, by the first process that fetched the page.
//
// Slot lifecycle, replacement and write-back are NOT implemented here: the
// slot array is a shared-memory FrameMeta[] driven by the common
// frame-lifecycle core (cache/frame_table.h) with the SMT as its directory
// and the level-2 clock hand in the header as its shared policy state. What
// this file keeps is the shared-memory *placement*: PVMA binding, the
// per-process level-1 protection clock (§4.2: accessible → protected →
// invalid), and crash cleanup. The slot reference counter of the paper is
// the frame's pin count — a slot with pins == 0 is bound by no process and
// only then can the level-2 clock replace it.
#ifndef BESS_CACHE_SHARED_CACHE_H_
#define BESS_CACHE_SHARED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/frame_table.h"
#include "os/fault_dispatcher.h"
#include "os/latch.h"
#include "os/shm.h"
#include "storage/storage_area.h"
#include "util/config.h"
#include "util/status.h"
#include "vm/segment_store.h"

namespace bess {

inline constexpr uint32_t kMaxCacheProcs = 64;

/// One SMT entry: page -> (virtual frame, current cache slot).
struct SmtEntry {
  std::atomic<uint64_t> page_key{0};  ///< 0 = empty
  std::atomic<uint32_t> vframe{kNoFrame};
  std::atomic<uint32_t> slot{kNoFrame};  ///< kNoFrame when not cached
};

struct ShmHeader {
  static constexpr uint32_t kMagic = 0xBE555CADu;  ///< v2: FrameMeta slots
  uint32_t magic;
  uint32_t frame_count;   ///< cache slots
  uint32_t vframe_count;  ///< PVMA frames (>= frame_count)
  uint32_t smt_capacity;
  Latch smt_latch;
  std::atomic<uint32_t> clock_hand{0};     ///< level-2 hand over slots
  std::atomic<uint32_t> next_vframe{0};
  std::atomic<uint32_t> pids[kMaxCacheProcs];
};

/// The shared cache object itself (creation/attachment + raw accessors).
/// Per-slot control data is the lifecycle core's FrameMeta, placed in the
/// shared segment so every process sees one state machine per slot.
class SharedCache {
 public:
  struct Geometry {
    uint32_t frame_count = 256;
    uint32_t vframe_count = 1024;
    uint32_t smt_capacity = 4096;  ///< power of two, > vframe_count
  };

  static Result<SharedCache> Create(const std::string& name, Geometry geo);
  static Result<SharedCache> Attach(const std::string& name);

  SharedCache() = default;
  SharedCache(SharedCache&&) = default;
  SharedCache& operator=(SharedCache&&) = default;

  ShmHeader* header() const { return header_; }
  FrameMeta* slot(uint32_t i) const { return slots_ + i; }
  SmtEntry* entry(uint32_t i) const { return smt_ + i; }
  /// Per-process slot-binding map (crash cleanup bookkeeping, per [20]).
  uint8_t* proc_bindings(uint32_t proc_idx) const {
    return bindings_ + static_cast<size_t>(proc_idx) * header_->frame_count;
  }
  /// File offset of slot i's page frame (for MAP_FIXED into the PVMA).
  uint64_t frame_offset(uint32_t i) const {
    return frames_offset_ + static_cast<uint64_t>(i) * kPageSize;
  }
  /// Direct pointer to slot i's frame in this process's whole-object map.
  char* frame_data(uint32_t i) const {
    return static_cast<char*>(shm_.base()) + frame_offset(i);
  }
  int fd() const { return shm_.fd(); }

  /// Finds or creates the SMT entry for `page_key`, assigning a virtual
  /// frame on first sight. NoSpace when SMT or vframes are exhausted.
  Result<SmtEntry*> AssignEntry(uint64_t page_key);
  /// Finds the entry for `page_key`; nullptr when absent.
  SmtEntry* FindEntry(uint64_t page_key) const;
  /// Entry whose vframe == `vframe`, or nullptr (linear probe; fault path).
  SmtEntry* EntryByVframe(uint32_t vframe) const;

  /// Registers this process in the process table; returns its index.
  Result<uint32_t> RegisterProcess();
  void UnregisterProcess(uint32_t proc_idx);

  /// Breaks latches and releases slot bindings held by dead processes
  /// ("cleanup of shared structures from process failures", §4.1.2).
  /// Returns the number of dead processes cleaned.
  Result<int> CleanupDeadProcesses();

  Status Unlink() { return shm_.Unlink(); }

 private:
  void InitPointers();

  SharedMemory shm_;
  ShmHeader* header_ = nullptr;
  FrameMeta* slots_ = nullptr;
  SmtEntry* smt_ = nullptr;
  uint8_t* bindings_ = nullptr;
  uint64_t frames_offset_ = 0;
};

/// Per-process window into the shared cache: the PVMA region plus the
/// level-1 clock. This is the "shared memory" operation mode's access path.
/// Slot replacement (the level-2 clock), fetch, and write-back are the
/// frame core's job; this class binds slots into the PVMA and feeds the
/// core's pin counts from its bindings.
class SharedPageSpace : public FaultRangeOwner {
 public:
  /// Frame-core knobs (bench_modes drives the bgwriter comparison).
  struct Options {
    bool enable_bgwriter = false;
    uint32_t bgwriter_interval_ms = 5;
  };

  /// `store` supplies page fetch/write-back (a LocalStore on the node
  /// server, a remote store on pure clients).
  static Result<std::unique_ptr<SharedPageSpace>> Open(SharedCache cache,
                                                       SegmentStore* store);
  static Result<std::unique_ptr<SharedPageSpace>> Open(SharedCache cache,
                                                       SegmentStore* store,
                                                       const Options& options);
  ~SharedPageSpace() override;

  /// Returns the stable per-process address of `page`, fetching and mapping
  /// as needed. The address stays valid for the life of the process: after
  /// replacement it refaults transparently. `for_write` marks the slot
  /// dirty (shared-mode writes synchronize via latches, §4.1.2).
  Result<void*> Fix(PageAddr page, bool for_write);

  /// Latch helpers for atomic object read/write in the shared cache.
  Status LatchPage(PageAddr page);
  Status UnlatchPage(PageAddr page);

  /// SVMA offset of a process address (shared pointer form), and back.
  Result<uint64_t> ToSvma(const void* addr) const;
  void* FromSvma(uint64_t svma) const {
    return pvma_base_ + svma;
  }

  /// Writes back every dirty slot through the store (LSN-ordered by the
  /// frame core).
  Status FlushDirty();

  /// Level-1 clock over this process's frames: accessible -> protected,
  /// protected -> invalid (unbind). Sweeps `frames` frames from the local
  /// hand (0 = full sweep).
  Status RunClockLevel1(uint32_t frames = 0);

  bool OnFault(void* addr, bool is_write) override;

  /// The table's cache.* counters plus this process's level-1 clock:
  /// cache.hit on an accessible frame, cache.second_chance, cache.remap,
  /// cache.clock.sweep.
  Stats stats() const { return scope_.Snapshot(); }
  char* pvma_base() const { return pvma_base_; }
  SharedCache* cache() { return &cache_; }
  FrameTable* table() { return table_.get(); }

 private:
  /// Local (per-process) binding state of a PVMA frame; the shared slot
  /// lifecycle lives in FrameMeta.
  enum PvmaState : uint8_t { kInvalid = 0, kProtected = 1, kAccessible = 2 };

  /// The SMT as the frame core's directory. Entries are created by
  /// AssignEntry before the core ever sees the key, so Install only updates
  /// the entry's slot field.
  class SmtDirectory : public FrameTable::Directory {
   public:
    explicit SmtDirectory(SharedCache* cache) : cache_(cache) {}
    uint32_t Lookup(uint64_t key) override;
    Status Install(uint64_t key, uint32_t f) override;
    void Erase(uint64_t key, uint32_t f) override;

   private:
    SharedCache* cache_;
  };

  /// Shared-memory placement: frames are always mapped read-write in the
  /// whole-object view (protection applies to PVMA views, handled by the
  /// level-1 clock), so most hooks are no-ops. Write-back of a *bound*
  /// slot latches it against cross-process writers.
  class SharedPlacement : public FrameTable::Placement {
   public:
    explicit SharedPlacement(SharedPageSpace* space) : space_(space) {}
    char* frame_data(uint32_t f) override;
    Status PrepareForWriteback(uint32_t f) override;
    Status FinishWriteback(uint32_t f, bool ok) override;
    Status ReleasePressure() override;

   private:
    SharedPageSpace* space_;
  };

  explicit SharedPageSpace(SharedCache cache, SegmentStore* store,
                           const Options& options)
      : cache_(std::move(cache)),
        store_io_(store),
        options_(options),
        smt_dir_(&cache_),
        placement_(this) {}

  Status Init();
  /// Binds `vframe` to `slot`: MAP_FIXED of the slot's frame, read-write.
  /// A new binding pins the slot (the paper's slot reference counter).
  Status BindFrame(uint32_t vframe, uint32_t slot);
  /// Unbinds: decommit + unpin.
  Status UnbindFrame(uint32_t vframe);
  /// Makes `entry`'s page resident via the frame core and binds it, under
  /// the SMT latch (cross-process miss serialization).
  Status MapIn(SmtEntry* entry, uint32_t vframe);
  Status ResolveFrameFault(uint32_t vframe);
  /// Body of RunClockLevel1; caller holds mu_. Also the core's
  /// ReleasePressure hook (reached only from Fix, which holds mu_).
  Status RunClockLevel1Locked(uint32_t frames);

  SharedCache cache_;
  StorePageIo store_io_;
  Options options_;
  SmtDirectory smt_dir_;
  SharedPlacement placement_;
  obs::Scope scope_;  ///< shared with table_
  std::unique_ptr<FrameTable> table_;
  char* pvma_base_ = nullptr;
  size_t pvma_bytes_ = 0;
  int dispatcher_slot_ = -1;
  uint32_t proc_idx_ = kNoFrame;
  std::vector<uint8_t> frame_state_;
  std::vector<uint32_t> frame_slot_;  // bound slot per vframe (local view)
  /// latched_[s] != 0 while this process's write-back of slot s holds its
  /// latch. Only the thread running that write-back touches entry s
  /// (serialized by the kWriting state under the table mutex).
  std::vector<uint8_t> latched_;
  uint32_t local_hand_ = 0;
  std::mutex mu_;
};

}  // namespace bess

#endif  // BESS_CACHE_SHARED_CACHE_H_
