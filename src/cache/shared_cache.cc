#include "cache/shared_cache.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include "obs/scope.h"
#include "os/vmem.h"
#include "util/logging.h"

namespace bess {
namespace {

constexpr size_t Align(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

uint64_t HashKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xFF51AFD7ED558CCDull;
  key ^= key >> 33;
  return key;
}

struct Layout {
  size_t slots_off;
  size_t smt_off;
  size_t bindings_off;
  size_t frames_off;
  size_t total;
};

Layout ComputeLayout(uint32_t frame_count, uint32_t smt_capacity) {
  Layout l;
  l.slots_off = Align(sizeof(ShmHeader), 64);
  l.smt_off = Align(l.slots_off + frame_count * sizeof(FrameMeta), 64);
  l.bindings_off = Align(l.smt_off + smt_capacity * sizeof(SmtEntry), 64);
  l.frames_off = Align(
      l.bindings_off + static_cast<size_t>(kMaxCacheProcs) * frame_count,
      kPageSize);
  l.total = l.frames_off + static_cast<size_t>(frame_count) * kPageSize;
  return l;
}

}  // namespace

// ---- SharedCache ------------------------------------------------------------

void SharedCache::InitPointers() {
  header_ = static_cast<ShmHeader*>(shm_.base());
  const Layout l = ComputeLayout(header_->frame_count, header_->smt_capacity);
  char* base = static_cast<char*>(shm_.base());
  slots_ = reinterpret_cast<FrameMeta*>(base + l.slots_off);
  smt_ = reinterpret_cast<SmtEntry*>(base + l.smt_off);
  bindings_ = reinterpret_cast<uint8_t*>(base + l.bindings_off);
  frames_offset_ = l.frames_off;
}

Result<SharedCache> SharedCache::Create(const std::string& name,
                                        Geometry geo) {
  if (geo.vframe_count < geo.frame_count ||
      (geo.smt_capacity & (geo.smt_capacity - 1)) != 0 ||
      geo.smt_capacity <= geo.vframe_count) {
    return Status::InvalidArgument("bad shared cache geometry");
  }
  const Layout l = ComputeLayout(geo.frame_count, geo.smt_capacity);
  SharedCache cache;
  BESS_ASSIGN_OR_RETURN(cache.shm_, SharedMemory::Create(name, l.total));
  auto* h = static_cast<ShmHeader*>(cache.shm_.base());
  h->magic = ShmHeader::kMagic;
  h->frame_count = geo.frame_count;
  h->vframe_count = geo.vframe_count;
  h->smt_capacity = geo.smt_capacity;
  cache.InitPointers();
  // SMT slots start empty (vframe/slot must read as kNoFrame, not zero).
  for (uint32_t i = 0; i < geo.smt_capacity; ++i) {
    cache.smt_[i].vframe.store(kNoFrame, std::memory_order_relaxed);
    cache.smt_[i].slot.store(kNoFrame, std::memory_order_relaxed);
  }
  return cache;
}

Result<SharedCache> SharedCache::Attach(const std::string& name) {
  SharedCache cache;
  BESS_ASSIGN_OR_RETURN(cache.shm_, SharedMemory::Attach(name));
  auto* h = static_cast<ShmHeader*>(cache.shm_.base());
  if (h->magic != ShmHeader::kMagic) {
    return Status::Corruption("not a BeSS shared cache: " + name);
  }
  cache.InitPointers();
  return cache;
}

Result<SmtEntry*> SharedCache::AssignEntry(uint64_t page_key) {
  if (page_key == 0) return Status::InvalidArgument("null page key");
  const uint32_t mask = header_->smt_capacity - 1;
  uint32_t idx = static_cast<uint32_t>(HashKey(page_key)) & mask;
  for (uint32_t probe = 0; probe < header_->smt_capacity; ++probe) {
    SmtEntry* e = entry(idx);
    const uint64_t cur = e->page_key.load(std::memory_order_acquire);
    if (cur == page_key) return e;
    if (cur == 0) {
      // Claim under the SMT latch (assignments are rare relative to hits).
      LatchGuard guard(header_->smt_latch);
      if (e->page_key.load(std::memory_order_acquire) == 0) {
        const uint32_t vf =
            header_->next_vframe.fetch_add(1, std::memory_order_relaxed);
        if (vf >= header_->vframe_count) {
          header_->next_vframe.fetch_sub(1, std::memory_order_relaxed);
          return Status::NoSpace("virtual frames exhausted");
        }
        e->vframe.store(vf, std::memory_order_relaxed);
        e->slot.store(kNoFrame, std::memory_order_relaxed);
        e->page_key.store(page_key, std::memory_order_release);
        return e;
      }
      // Lost the race; re-inspect this index.
      if (e->page_key.load(std::memory_order_acquire) == page_key) return e;
    }
    idx = (idx + 1) & mask;
  }
  return Status::NoSpace("shared mapping table full");
}

SmtEntry* SharedCache::FindEntry(uint64_t page_key) const {
  const uint32_t mask = header_->smt_capacity - 1;
  uint32_t idx = static_cast<uint32_t>(HashKey(page_key)) & mask;
  for (uint32_t probe = 0; probe < header_->smt_capacity; ++probe) {
    SmtEntry* e = entry(idx);
    const uint64_t cur = e->page_key.load(std::memory_order_acquire);
    if (cur == page_key) return e;
    if (cur == 0) return nullptr;
    idx = (idx + 1) & mask;
  }
  return nullptr;
}

SmtEntry* SharedCache::EntryByVframe(uint32_t vframe) const {
  for (uint32_t i = 0; i < header_->smt_capacity; ++i) {
    SmtEntry* e = entry(i);
    if (e->page_key.load(std::memory_order_acquire) != 0 &&
        e->vframe.load(std::memory_order_relaxed) == vframe) {
      return e;
    }
  }
  return nullptr;
}

Result<uint32_t> SharedCache::RegisterProcess() {
  const uint32_t pid = static_cast<uint32_t>(::getpid());
  for (uint32_t i = 0; i < kMaxCacheProcs; ++i) {
    uint32_t expected = 0;
    if (header_->pids[i].compare_exchange_strong(expected, pid)) {
      memset(proc_bindings(i), 0, header_->frame_count);
      return i;
    }
  }
  return Status::NoSpace("shared cache process table full");
}

void SharedCache::UnregisterProcess(uint32_t proc_idx) {
  if (proc_idx >= kMaxCacheProcs) return;
  uint8_t* bound = proc_bindings(proc_idx);
  for (uint32_t s = 0; s < header_->frame_count; ++s) {
    if (bound[s]) {
      bound[s] = 0;
      slot(s)->pins.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  header_->pids[proc_idx].store(0, std::memory_order_release);
}

Result<int> SharedCache::CleanupDeadProcesses() {
  int cleaned = 0;
  for (uint32_t i = 0; i < kMaxCacheProcs; ++i) {
    const uint32_t pid = header_->pids[i].load(std::memory_order_acquire);
    if (pid == 0) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    // Dead process: release its slot bindings and break its latches.
    UnregisterProcess(i);
    if (header_->smt_latch.holder_pid() == pid) {
      header_->smt_latch.BreakOrphaned();
    }
    for (uint32_t s = 0; s < header_->frame_count; ++s) {
      if (slot(s)->latch.holder_pid() == pid) slot(s)->latch.BreakOrphaned();
    }
    ++cleaned;
  }
  return cleaned;
}

// ---- SharedPageSpace::SmtDirectory ------------------------------------------

uint32_t SharedPageSpace::SmtDirectory::Lookup(uint64_t key) {
  SmtEntry* e = cache_->FindEntry(key);
  if (e == nullptr) return kNoFrame;
  return e->slot.load(std::memory_order_acquire);
}

Status SharedPageSpace::SmtDirectory::Install(uint64_t key, uint32_t f) {
  SmtEntry* e = cache_->FindEntry(key);
  if (e == nullptr) {
    return Status::Internal("page key has no SMT entry");
  }
  e->slot.store(f, std::memory_order_release);
  return Status::OK();
}

void SharedPageSpace::SmtDirectory::Erase(uint64_t key, uint32_t f) {
  SmtEntry* e = cache_->FindEntry(key);
  if (e != nullptr && e->slot.load(std::memory_order_relaxed) == f) {
    e->slot.store(kNoFrame, std::memory_order_release);
  }
}

// ---- SharedPageSpace::SharedPlacement ---------------------------------------

char* SharedPageSpace::SharedPlacement::frame_data(uint32_t f) {
  return space_->cache_.frame_data(f);
}

Status SharedPageSpace::SharedPlacement::PrepareForWriteback(uint32_t f) {
  // Latch unconditionally. A bound slot may be stored to through another
  // process's PVMA at any moment, and a pins == 0 snapshot taken here —
  // the flusher does not hold the SMT latch — can be invalidated the next
  // instant by another process binding the slot; the latch is the only
  // thing that keeps the on-store image untorn for the length of the I/O.
  space_->cache_.slot(f)->latch.Lock();
  space_->latched_[f] = 1;
  return Status::OK();
}

Status SharedPageSpace::SharedPlacement::FinishWriteback(uint32_t f, bool ok) {
  (void)ok;
  if (space_->latched_[f]) {
    space_->latched_[f] = 0;
    space_->cache_.slot(f)->latch.Unlock();
  }
  return Status::OK();
}

Status SharedPageSpace::SharedPlacement::ReleasePressure() {
  // Every slot is bound somewhere; push our own bindings down one level
  // (other processes run their level-1 sweeps themselves) and reclaim the
  // bindings of crashed processes (§4.1.2). Reached only from Fix, so the
  // space mutex is held.
  BESS_RETURN_IF_ERROR(space_->RunClockLevel1Locked(0));
  return space_->cache_.CleanupDeadProcesses().status();
}

// ---- SharedPageSpace --------------------------------------------------------

Result<std::unique_ptr<SharedPageSpace>> SharedPageSpace::Open(
    SharedCache cache, SegmentStore* store) {
  return Open(std::move(cache), store, Options{});
}

Result<std::unique_ptr<SharedPageSpace>> SharedPageSpace::Open(
    SharedCache cache, SegmentStore* store, const Options& options) {
  auto space = std::unique_ptr<SharedPageSpace>(
      new SharedPageSpace(std::move(cache), store, options));
  BESS_RETURN_IF_ERROR(space->Init());
  return space;
}

Status SharedPageSpace::Init() {
  (void)cache_.CleanupDeadProcesses();
  BESS_ASSIGN_OR_RETURN(proc_idx_, cache_.RegisterProcess());
  const uint32_t vframes = cache_.header()->vframe_count;
  pvma_bytes_ = static_cast<size_t>(vframes) * kPageSize;
  BESS_ASSIGN_OR_RETURN(void* base, vmem::Reserve(pvma_bytes_));
  pvma_base_ = static_cast<char*>(base);
  frame_state_.assign(vframes, kInvalid);
  frame_slot_.assign(vframes, kNoFrame);
  latched_.assign(cache_.header()->frame_count, 0);

  FrameTable::Options topts;
  topts.frame_count = cache_.header()->frame_count;
  topts.policy = "clock";
  // The level-2 clock's recency signal is the pin count fed by per-process
  // bindings, not per-fix reference bits; the hand lives in the header so
  // all processes share one sweep position.
  topts.clock_ref_bits = false;
  topts.shared_hand = &cache_.header()->clock_hand;
  topts.frames = cache_.slot(0);
  topts.directory = &smt_dir_;
  topts.enable_bgwriter = options_.enable_bgwriter;
  topts.bgwriter_interval_ms = options_.bgwriter_interval_ms;
  table_.reset(new FrameTable(topts, &placement_, &store_io_, &scope_));
  BESS_RETURN_IF_ERROR(table_->Init());

  dispatcher_slot_ = FaultDispatcher::Instance().RegisterRange(
      pvma_base_, pvma_bytes_, this);
  return Status::OK();
}

SharedPageSpace::~SharedPageSpace() {
  if (table_ != nullptr) table_->Stop();
  if (dispatcher_slot_ >= 0) {
    FaultDispatcher::Instance().UnregisterRange(dispatcher_slot_);
  }
  if (proc_idx_ != kNoFrame) cache_.UnregisterProcess(proc_idx_);
  if (pvma_base_ != nullptr) {
    (void)vmem::Release(pvma_base_, pvma_bytes_);
  }
}

Status SharedPageSpace::BindFrame(uint32_t vframe, uint32_t slot) {
  BESS_RETURN_IF_ERROR(vmem::MapFileFixed(
      pvma_base_ + static_cast<size_t>(vframe) * kPageSize, kPageSize,
      cache_.fd(), cache_.frame_offset(slot), vmem::kReadWrite));
  if (!cache_.proc_bindings(proc_idx_)[slot]) {
    cache_.proc_bindings(proc_idx_)[slot] = 1;
    cache_.slot(slot)->pins.fetch_add(1, std::memory_order_acq_rel);
  }
  frame_state_[vframe] = kAccessible;
  frame_slot_[vframe] = slot;
  return Status::OK();
}

Status SharedPageSpace::UnbindFrame(uint32_t vframe) {
  const uint32_t slot = frame_slot_[vframe];
  BESS_RETURN_IF_ERROR(vmem::CommitAnonymous(
      pvma_base_ + static_cast<size_t>(vframe) * kPageSize, kPageSize,
      vmem::kNone));
  if (slot != kNoFrame && cache_.proc_bindings(proc_idx_)[slot]) {
    cache_.proc_bindings(proc_idx_)[slot] = 0;
    cache_.slot(slot)->pins.fetch_sub(1, std::memory_order_acq_rel);
  }
  frame_state_[vframe] = kInvalid;
  frame_slot_[vframe] = kNoFrame;
  return Status::OK();
}

Status SharedPageSpace::MapIn(SmtEntry* entry, uint32_t vframe) {
  // The SMT latch serializes cross-process miss paths: while we hold it,
  // no other process can bind or replace slots, so an unpinned frame the
  // core picks as victim stays untouchable until we bind it.
  LatchGuard smt(cache_.header()->smt_latch);
  const uint64_t key = entry->page_key.load(std::memory_order_acquire);
  BESS_ASSIGN_OR_RETURN(FrameTable::FixResult r,
                        table_->Fix(key, /*for_write=*/false, /*pin=*/true));
  // The transient fix pin covers the gap until the binding's own pin is in
  // place.
  Status bs = BindFrame(vframe, r.frame);
  Status us = table_->Unpin(r.frame);
  return bs.ok() ? us : bs;
}

Result<void*> SharedPageSpace::Fix(PageAddr page, bool for_write) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(SmtEntry * entry, cache_.AssignEntry(page.Pack()));
  const uint32_t vframe = entry->vframe.load(std::memory_order_relaxed);
  void* addr = pvma_base_ + static_cast<size_t>(vframe) * kPageSize;

  if (frame_state_[vframe] == kAccessible) {
    BESS_COUNT_IN(scope_, "cache.hit");
  } else if (frame_state_[vframe] == kProtected) {
    // Second chance: the binding is intact, only access was revoked.
    BESS_RETURN_IF_ERROR(vmem::Protect(addr, kPageSize, vmem::kReadWrite));
    frame_state_[vframe] = kAccessible;
    BESS_COUNT_IN(scope_, "cache.second_chance");
  } else {
    BESS_RETURN_IF_ERROR(MapIn(entry, vframe));
  }
  if (for_write) {
    // Clean -> dirty is the software flavour of write detection (§2.3);
    // the core counts it.
    BESS_RETURN_IF_ERROR(table_->MarkDirty(frame_slot_[vframe]));
  }
  return addr;
}

Status SharedPageSpace::LatchPage(PageAddr page) {
  SmtEntry* e = cache_.FindEntry(page.Pack());
  if (e == nullptr) return Status::NotFound("page not in shared space");
  const uint32_t s = e->slot.load(std::memory_order_acquire);
  if (s == kNoFrame) return Status::NotFound("page not resident");
  cache_.slot(s)->latch.Lock();
  return Status::OK();
}

Status SharedPageSpace::UnlatchPage(PageAddr page) {
  SmtEntry* e = cache_.FindEntry(page.Pack());
  if (e == nullptr) return Status::NotFound("page not in shared space");
  const uint32_t s = e->slot.load(std::memory_order_acquire);
  if (s == kNoFrame) return Status::NotFound("page not resident");
  cache_.slot(s)->latch.Unlock();
  return Status::OK();
}

Result<uint64_t> SharedPageSpace::ToSvma(const void* addr) const {
  const char* p = static_cast<const char*>(addr);
  if (p < pvma_base_ || p >= pvma_base_ + pvma_bytes_) {
    return Status::InvalidArgument("address outside the PVMA");
  }
  return static_cast<uint64_t>(p - pvma_base_);
}

Status SharedPageSpace::FlushDirty() { return table_->FlushDirty(); }

Status SharedPageSpace::RunClockLevel1(uint32_t frames) {
  std::lock_guard<std::mutex> guard(mu_);
  return RunClockLevel1Locked(frames);
}

Status SharedPageSpace::RunClockLevel1Locked(uint32_t frames) {
  const uint32_t vframes = cache_.header()->vframe_count;
  if (frames == 0 || frames > vframes) frames = vframes;
  BESS_COUNT_IN(scope_, "cache.clock.sweep");
  for (uint32_t i = 0; i < frames; ++i) {
    const uint32_t vf = local_hand_;
    local_hand_ = (local_hand_ + 1) % vframes;
    switch (frame_state_[vf]) {
      case kAccessible: {
        // Revoke access; the frame keeps its slot (second chance).
        void* addr = pvma_base_ + static_cast<size_t>(vf) * kPageSize;
        BESS_RETURN_IF_ERROR(vmem::Protect(addr, kPageSize, vmem::kNone));
        frame_state_[vf] = kProtected;
        break;
      }
      case kProtected:
        BESS_RETURN_IF_ERROR(UnbindFrame(vf));
        break;
      case kInvalid:
        break;
    }
  }
  return Status::OK();
}

bool SharedPageSpace::OnFault(void* addr, bool is_write) {
  (void)is_write;
  std::lock_guard<std::mutex> guard(mu_);
  const size_t off = static_cast<size_t>(static_cast<char*>(addr) -
                                         pvma_base_);
  const uint32_t vframe = static_cast<uint32_t>(off / kPageSize);
  if (vframe >= frame_state_.size()) return false;
  Status s = ResolveFrameFault(vframe);
  if (!s.ok()) {
    BESS_ERROR("shared-space fault failed: " << s.ToString());
    return false;
  }
  return true;
}

Status SharedPageSpace::ResolveFrameFault(uint32_t vframe) {
  void* addr = pvma_base_ + static_cast<size_t>(vframe) * kPageSize;
  if (frame_state_[vframe] == kProtected) {
    BESS_RETURN_IF_ERROR(vmem::Protect(addr, kPageSize, vmem::kReadWrite));
    frame_state_[vframe] = kAccessible;
    BESS_COUNT_IN(scope_, "cache.second_chance");
    return Status::OK();
  }
  if (frame_state_[vframe] == kInvalid) {
    SmtEntry* entry = cache_.EntryByVframe(vframe);
    if (entry == nullptr) {
      return Status::NotFound("fault on unassigned virtual frame");
    }
    BESS_RETURN_IF_ERROR(MapIn(entry, vframe));
    BESS_COUNT_IN(scope_, "cache.remap");
    return Status::OK();
  }
  return Status::Internal("fault on accessible frame");
}

}  // namespace bess
