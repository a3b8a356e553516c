#include "vm/mapper.h"

#include <algorithm>
#include <cstring>

#include "hooks/hooks.h"
#include "obs/scope.h"
#include "os/vmem.h"
#include "util/logging.h"

namespace bess {
namespace {

constexpr size_t kSlottedReserve = kMaxSlottedPages * kPageSize;
/// Reservable address space for all mapped segments (64 GiB).
constexpr size_t kArenaBytes = 1ull << 36;
/// Data-segment reservations get this growth headroom factor so resizes
/// stay in place.
constexpr size_t kDataHeadroom = 4;

size_t PagesFor(size_t bytes) { return (bytes + kPageSize - 1) / kPageSize; }

}  // namespace

SegmentMapper::SegmentMapper(SegmentStore* store, TypeTable* types,
                             Options opts)
    : store_(store), types_(types), opts_(opts) {
  auto arena = AddressArena::Create(kArenaBytes);
  if (!arena.ok()) {
    BESS_ERROR("mapper arena reservation failed: "
               << arena.status().ToString());
    return;
  }
  arena_ = std::move(*arena);
  dispatcher_slot_ = FaultDispatcher::Instance().RegisterRange(
      arena_.base(), arena_.size(), this);
}

SegmentMapper::SegmentMapper(SegmentStore* store, TypeTable* types)
    : SegmentMapper(store, types, Options()) {}

SegmentMapper::~SegmentMapper() {
  if (dispatcher_slot_ >= 0) {
    FaultDispatcher::Instance().UnregisterRange(dispatcher_slot_);
  }
}

// ---- range registry ---------------------------------------------------------

void SegmentMapper::AddRangeLocked(void* base, size_t len, MappedSegment* seg,
                                   Kind kind, uint16_t slot_no) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(base);
  ranges_[begin] = Range{begin, begin + len, seg, kind, slot_no};
}

void SegmentMapper::DropRangeLocked(void* base) {
  ranges_.erase(reinterpret_cast<uintptr_t>(base));
}

SegmentMapper::Range* SegmentMapper::FindRangeLocked(const void* addr) {
  const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
  auto it = ranges_.upper_bound(a);
  if (it == ranges_.begin()) return nullptr;
  --it;
  if (a >= it->second.begin && a < it->second.end) return &it->second;
  return nullptr;
}

// ---- reservation (wave 1) ---------------------------------------------------

Result<SegmentMapper::MappedSegment*> SegmentMapper::EnsureReservedLocked(
    SegmentId id) {
  auto it = segments_.find(id.Pack());
  if (it != segments_.end()) return it->second.get();

  auto seg = std::make_unique<MappedSegment>();
  seg->id = id;
  BESS_ASSIGN_OR_RETURN(seg->slotted_base, arena_.Acquire(kSlottedReserve));
  seg->slotted_reserved = kSlottedReserve;
  BESS_GAUGE_ADD_IN(scope_, "vm.reserved.bytes", kSlottedReserve);
  AddRangeLocked(seg->slotted_base, kSlottedReserve, seg.get(),
                 Kind::kSlotted);
  MappedSegment* raw = seg.get();
  segments_[id.Pack()] = std::move(seg);
  return raw;
}

Status SegmentMapper::ReserveDataRangeLocked(MappedSegment* seg,
                                             uint32_t data_pages) {
  if (data_pages == 0) return Status::OK();
  const size_t want =
      static_cast<size_t>(data_pages) * kPageSize * kDataHeadroom;
  BESS_ASSIGN_OR_RETURN(seg->data_base, arena_.Acquire(want));
  seg->data_reserved = want;
  BESS_GAUGE_ADD_IN(scope_, "vm.reserved.bytes", want);
  AddRangeLocked(seg->data_base, want, seg, Kind::kData);
  return Status::OK();
}

Result<SegmentMapper::LargeRange*> SegmentMapper::ReserveLargeLocked(
    MappedSegment* seg, uint16_t slot_no, uint16_t area, PageId first_page,
    uint16_t pages, uint32_t size) {
  LargeRange lr;
  lr.slot_no = slot_no;
  lr.area = area;
  lr.first_page = first_page;
  lr.page_count = pages;
  const size_t reserve = std::max<size_t>(PagesFor(size), pages) * kPageSize;
  BESS_ASSIGN_OR_RETURN(lr.base, arena_.Acquire(reserve));
  lr.reserved = reserve;
  lr.page_state.assign(pages, kUnmapped);
  BESS_GAUGE_ADD_IN(scope_, "vm.reserved.bytes", reserve);
  auto [it, inserted] = seg->large.insert_or_assign(slot_no, lr);
  (void)inserted;
  AddRangeLocked(it->second.base, reserve, seg, Kind::kLarge, slot_no);
  return &it->second;
}

// ---- slotted fetch (wave 2) -------------------------------------------------

Status SegmentMapper::FaultSlottedLocked(MappedSegment* seg) {
  EventContext ctx;
  ctx.a = seg->id.Pack();
  (void)FireEvent(Event::kSegmentFault, ctx);

  std::string buf(kSlottedReserve, '\0');
  uint32_t page_count = 0;
  BESS_RETURN_IF_ERROR(store_->FetchSlotted(seg->id, buf.data(), &page_count));
  if (page_count == 0 || page_count > kMaxSlottedPages) {
    return Status::Corruption("slotted segment has bad page count");
  }
  const size_t bytes = static_cast<size_t>(page_count) * kPageSize;
  BESS_RETURN_IF_ERROR(
      vmem::CommitAnonymous(seg->slotted_base, bytes, vmem::kReadWrite));
  BESS_GAUGE_ADD_IN(scope_, "vm.committed.bytes", bytes);
  BESS_COUNT_N_IN(scope_, "vm.fetch.bytes", bytes);
  memcpy(seg->slotted_base, buf.data(), bytes);
  seg->slotted_pages = page_count;

  SlottedView view(seg->slotted_base, bytes);
  BESS_RETURN_IF_ERROR(view.Validate());
  if (!(view.header()->self() == seg->id)) {
    return Status::Corruption("slotted segment identity mismatch");
  }
  BESS_RETURN_IF_ERROR(SetupAfterSlottedFetchLocked(seg));

  if (opts_.protect_slotted) {
    BESS_RETURN_IF_ERROR(
        vmem::Protect(seg->slotted_base, bytes, vmem::kRead));
  }
  seg->slotted_mapped = true;
  BESS_COUNT_IN(scope_, "vm.fault.slotted");
  BESS_COUNT_IN(scope_, "cache.miss");

  (void)FireEvent(Event::kSegmentFetch, ctx);
  if (observer_ != nullptr) {
    BESS_RETURN_IF_ERROR(observer_->OnSegmentRead(seg->id));
  }
  return Status::OK();
}

Status SegmentMapper::SetupAfterSlottedFetchLocked(MappedSegment* seg) {
  SlottedView view(seg->slotted_base,
                   static_cast<size_t>(seg->slotted_pages) * kPageSize);
  SlottedHeader* h = view.header();
  h->segment_handle = reinterpret_cast<uint64_t>(seg);

  // Reserve the data-segment address range now — this is the lazy scheme:
  // reservation happens when the slotted segment is actually accessed.
  if (seg->data_base == nullptr && h->data_page_count > 0) {
    BESS_RETURN_IF_ERROR(ReserveDataRangeLocked(seg, h->data_page_count));
  }
  seg->data_page_state.assign(h->data_page_count, kUnmapped);
  h->last_data_base = reinterpret_cast<uint64_t>(seg->data_base);

  // Fix every slot's DP: offset -> virtual address (two arithmetic ops per
  // slot), and give transparent large objects their own reserved ranges.
  for (uint32_t i = 0; i < h->slot_count; ++i) {
    Slot* s = view.slot(static_cast<uint16_t>(i));
    if (!s->in_use()) continue;
    s->lock_ref = 0;
    if (s->flags & kSlotLargeObject) {
      uint16_t area, pages;
      PageId page;
      Slot::UnpackDiskAddr(s->dp, &area, &page, &pages);
      BESS_ASSIGN_OR_RETURN(
          LargeRange * lr,
          ReserveLargeLocked(seg, static_cast<uint16_t>(i), area, page, pages,
                             s->size));
      s->dp = reinterpret_cast<uint64_t>(lr->base);
    } else if (s->flags & (kSlotVeryLarge)) {
      // DP is an overflow-segment offset; the byte-range class interprets
      // it. Not a virtual address.
    } else {
      s->dp = reinterpret_cast<uint64_t>(seg->data_base) + s->dp;
    }
  }
  return Status::OK();
}

// ---- data fetch + swizzle (wave 3) ------------------------------------------

Status SegmentMapper::FaultDataLocked(MappedSegment* seg) {
  if (!seg->slotted_mapped) {
    BESS_RETURN_IF_ERROR(FaultSlottedLocked(seg));
  }
  SlottedView view = MappedView(seg);
  SlottedHeader* h = view.header();
  const size_t bytes = static_cast<size_t>(h->data_page_count) * kPageSize;
  if (bytes == 0) return Status::Corruption("data fault on empty segment");

  EventContext ctx;
  ctx.a = seg->id.Pack();
  (void)FireEvent(Event::kSegmentFault, ctx);

  BESS_RETURN_IF_ERROR(
      vmem::CommitAnonymous(seg->data_base, bytes, vmem::kReadWrite));
  BESS_GAUGE_ADD_IN(scope_, "vm.committed.bytes", bytes);
  if (seg->data_on_store) {
    BESS_RETURN_IF_ERROR(store_->FetchPages(seg->id.db, h->data_area,
                                            h->data_first_page,
                                            h->data_page_count,
                                            seg->data_base));
    BESS_COUNT_N_IN(scope_, "vm.fetch.bytes", bytes);
  }
  seg->data_mapped = true;
  seg->data_page_state.assign(h->data_page_count, kMappedRead);

  BESS_RETURN_IF_ERROR(SwizzleDataLocked(seg));

  if (opts_.detect_writes) {
    BESS_RETURN_IF_ERROR(vmem::Protect(seg->data_base, bytes, vmem::kRead));
  }
  BESS_COUNT_IN(scope_, "vm.fault.data");
  if (seg->data_on_store) BESS_COUNT_IN(scope_, "cache.miss");
  (void)FireEvent(Event::kSegmentFetch, ctx);
  return Status::OK();
}

Status SegmentMapper::SwizzleDataLocked(MappedSegment* seg) {
  SlottedView view = MappedView(seg);
  SlottedHeader* h = view.header();
  std::vector<SegmentId> greedy_targets;

  for (uint32_t i = 0; i < h->slot_count; ++i) {
    Slot* s = view.slot(static_cast<uint16_t>(i));
    if (!s->in_use() ||
        (s->flags & (kSlotLargeObject | kSlotVeryLarge))) {
      continue;
    }
    auto type = types_->Get(s->type_idx);
    if (!type.ok()) return type.status();
    const TypeDescriptor* desc = *type;
    if (desc->ref_offsets.empty()) continue;
    char* obj = reinterpret_cast<char*>(s->dp);
    for (uint32_t off : desc->ref_offsets) {
      if (off + 8 > s->size) continue;
      uint64_t* field = reinterpret_cast<uint64_t*>(obj + off);
      const uint64_t v = *field;
      if (v == 0 || !DiskRef::IsUnswizzled(v)) continue;
      BESS_ASSIGN_OR_RETURN(SegmentId target,
                            view.ResolveOutbound(DiskRef::OutboundIdx(v)));
      BESS_ASSIGN_OR_RETURN(MappedSegment * tseg,
                            EnsureReservedLocked(target));
      const uint16_t slot_no = DiskRef::SlotNo(v);
      *field = reinterpret_cast<uint64_t>(
          static_cast<char*>(tseg->slotted_base) + SlotOffset(slot_no));
      BESS_COUNT_IN(scope_, "vm.ref.swizzle");
      if (opts_.greedy && !tseg->slotted_mapped) {
        greedy_targets.push_back(target);
      }
    }
  }

  // Greedy baseline: fetch referenced slotted segments now, reserving their
  // data ranges immediately (ObjectStore/Texas/QuickStore-style eagerness).
  for (SegmentId target : greedy_targets) {
    auto res = EnsureReservedLocked(target);
    if (res.ok() && !(*res)->slotted_mapped) {
      BESS_RETURN_IF_ERROR(FaultSlottedLocked(*res));
    }
  }
  return Status::OK();
}

Status SegmentMapper::FaultLargeLocked(MappedSegment* seg, LargeRange* lr) {
  const size_t bytes = static_cast<size_t>(lr->page_count) * kPageSize;
  BESS_RETURN_IF_ERROR(
      vmem::CommitAnonymous(lr->base, bytes, vmem::kReadWrite));
  BESS_GAUGE_ADD_IN(scope_, "vm.committed.bytes", bytes);
  if (seg->data_on_store) {
    BESS_RETURN_IF_ERROR(store_->FetchPages(seg->id.db, lr->area,
                                            lr->first_page, lr->page_count,
                                            lr->base));
    BESS_COUNT_N_IN(scope_, "vm.fetch.bytes", bytes);
  }
  lr->mapped = true;
  lr->page_state.assign(lr->page_count, kMappedRead);
  if (opts_.detect_writes) {
    BESS_RETURN_IF_ERROR(vmem::Protect(lr->base, bytes, vmem::kRead));
  }
  BESS_COUNT_IN(scope_, "vm.fault.large");
  if (seg->data_on_store) BESS_COUNT_IN(scope_, "cache.miss");
  return Status::OK();
}

// ---- write faults: update detection (§2.3) ----------------------------------

PageAddr SegmentMapper::DataPageAddr(MappedSegment* seg, uint32_t page_idx) {
  SlottedView view = MappedView(seg);
  const SlottedHeader* h = view.header();
  return PageAddr{seg->id.db, h->data_area, h->data_first_page + page_idx};
}

Status SegmentMapper::WriteFaultLocked(MappedSegment* seg, Kind kind,
                                       LargeRange* lr, void* addr) {
  char* page_base;
  uint32_t page_idx;
  PageAddr page_addr;
  std::vector<uint8_t>* states;

  if (kind == Kind::kData) {
    page_idx = static_cast<uint32_t>(
        (static_cast<char*>(addr) - static_cast<char*>(seg->data_base)) /
        kPageSize);
    if (page_idx >= seg->data_page_state.size() ||
        seg->data_page_state[page_idx] == kUnmapped) {
      return Status::Internal("write fault on unmapped data page");
    }
    page_base = static_cast<char*>(seg->data_base) + page_idx * kPageSize;
    page_addr = DataPageAddr(seg, page_idx);
    states = &seg->data_page_state;
  } else if (kind == Kind::kLarge) {
    page_idx = static_cast<uint32_t>(
        (static_cast<char*>(addr) - static_cast<char*>(lr->base)) /
        kPageSize);
    if (page_idx >= lr->page_state.size() ||
        lr->page_state[page_idx] == kUnmapped) {
      return Status::Internal("write fault on unmapped large page");
    }
    page_base = static_cast<char*>(lr->base) + page_idx * kPageSize;
    page_addr = PageAddr{seg->id.db, lr->area, lr->first_page + page_idx};
    states = &lr->page_state;
  } else {
    return Status::Internal("write fault on slotted segment");
  }

  if ((*states)[page_idx] == kMappedDirty) return Status::OK();

  // Record the update and acquire the write lock before the offending
  // instruction resumes (§2.3). A lock failure (deadlock timeout) poisons
  // the transaction via the observer; the write itself proceeds so the
  // faulting instruction can resume — commit will then refuse.
  if (observer_ != nullptr) {
    (void)observer_->OnPageWrite(seg->id, page_addr);
  }
  // Capture the pre-write image so an abort can restore it in memory.
  auto& undo = kind == Kind::kData ? seg->data_page_undo : lr->page_undo;
  undo.emplace(page_idx, std::string(page_base, kPageSize));
  (*states)[page_idx] = kMappedDirty;
  BESS_RETURN_IF_ERROR(vmem::Protect(page_base, kPageSize, vmem::kReadWrite));
  BESS_COUNT_IN(scope_, "vm.fault.detect");
  return Status::OK();
}

// ---- fault entry point ------------------------------------------------------

bool SegmentMapper::OnFault(void* addr, bool is_write) {
  std::lock_guard<std::mutex> guard(mu_);
  Range* range = FindRangeLocked(addr);
  if (range == nullptr) return false;
  MappedSegment* seg = range->seg;

  switch (range->kind) {
    case Kind::kSlotted: {
      if (!seg->slotted_mapped) {
        Status s = FaultSlottedLocked(seg);
        if (!s.ok()) {
          BESS_ERROR("slotted fault failed: " << s.ToString());
          return false;
        }
        return true;
      }
      // The slotted image is mapped readable: a fault inside it can only be
      // a store (`is_write` is just a hint; some kernels do not report it).
      (void)is_write;
      const size_t off = static_cast<size_t>(
          static_cast<char*>(addr) - static_cast<char*>(seg->slotted_base));
      if (off < static_cast<size_t>(seg->slotted_pages) * kPageSize) {
        // An application stray pointer hit a write-protected control
        // structure: this is exactly the corruption BeSS prevents (§2.2).
        EventContext ctx;
        ctx.a = seg->id.Pack();
        ctx.ptr = addr;
        (void)FireEvent(Event::kProtectionViolation, ctx);
      }
      return false;  // deliver the fault: do not let the write happen
    }
    case Kind::kData: {
      if (!seg->data_mapped) {
        Status s = FaultDataLocked(seg);
        if (!s.ok()) {
          BESS_ERROR("data fault failed: " << s.ToString());
          return false;
        }
        return true;
      }
      Status s = WriteFaultLocked(seg, Kind::kData, nullptr, addr);
      if (!s.ok()) {
        BESS_ERROR("write fault failed: " << s.ToString());
        return false;
      }
      return true;
    }
    case Kind::kLarge: {
      auto it = seg->large.find(range->slot_no);
      if (it == seg->large.end()) return false;
      LargeRange* lr = &it->second;
      if (!lr->mapped) {
        Status s = FaultLargeLocked(seg, lr);
        if (!s.ok()) {
          BESS_ERROR("large fault failed: " << s.ToString());
          return false;
        }
        return true;
      }
      Status s = WriteFaultLocked(seg, Kind::kLarge, lr, addr);
      return s.ok();
    }
  }
  return false;
}

// ---- public access ----------------------------------------------------------

Result<Slot*> SegmentMapper::SlotAddress(SegmentId id, uint16_t slot_no) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  if (seg->slotted_mapped) {
    SlottedView view = MappedView(seg);
    if (slot_no >= view.header()->slot_capacity) {
      return Status::InvalidArgument("slot number out of range");
    }
  }
  return reinterpret_cast<Slot*>(static_cast<char*>(seg->slotted_base) +
                                 SlotOffset(slot_no));
}

Status SegmentMapper::ResolveSlotAddress(const void* slot_addr, SegmentId* id,
                                         uint16_t* slot_no) {
  std::lock_guard<std::mutex> guard(mu_);
  return ResolveSlotAddressLocked(slot_addr, id, slot_no);
}

Status SegmentMapper::ResolveSlotAddressLocked(const void* slot_addr,
                                               SegmentId* id,
                                               uint16_t* slot_no) {
  Range* range = FindRangeLocked(slot_addr);
  if (range == nullptr || range->kind != Kind::kSlotted) {
    return Status::InvalidArgument("address is not a slot address");
  }
  const uintptr_t a = reinterpret_cast<uintptr_t>(slot_addr);
  const uintptr_t first = range->begin + SlotOffset(0);
  if (a < first || (a - first) % sizeof(Slot) != 0) {
    return Status::InvalidArgument("address is not slot-aligned");
  }
  *id = range->seg->id;
  *slot_no = static_cast<uint16_t>((a - first) / sizeof(Slot));
  return Status::OK();
}

Result<SlottedView> SegmentMapper::FetchSlottedNow(SegmentId id) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureSlottedMappedLocked(seg));
  return MappedView(seg);
}

Status SegmentMapper::FetchDataNow(SegmentId id) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureDataMappedLocked(seg));
  return Status::OK();
}

Status SegmentMapper::EnsureSlottedMappedLocked(MappedSegment* seg) {
  if (seg->slotted_mapped) {
    // Inter-transaction caching (§3): the segment survived in the mapper.
    BESS_COUNT_IN(scope_, "cache.hit");
    return Status::OK();
  }
  return FaultSlottedLocked(seg);
}

Status SegmentMapper::EnsureDataMappedLocked(MappedSegment* seg) {
  BESS_RETURN_IF_ERROR(EnsureSlottedMappedLocked(seg));
  if (seg->data_mapped) return Status::OK();
  return FaultDataLocked(seg);
}

Result<SlottedView> SegmentMapper::View(SegmentId id) {
  return FetchSlottedNow(id);
}

Status SegmentMapper::WithSlottedWritable(
    SegmentId id, const std::function<Status(SlottedView&)>& fn) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureSlottedMappedLocked(seg));
  return WithSlottedWritableLocked(seg, fn);
}

Status SegmentMapper::WithSlottedWritableLocked(
    MappedSegment* seg, const std::function<Status(SlottedView&)>& fn) {
  const size_t bytes = static_cast<size_t>(seg->slotted_pages) * kPageSize;
  // Unprotect / mutate / reprotect (§2.2): trusted code only.
  if (opts_.protect_slotted) {
    BESS_RETURN_IF_ERROR(
        vmem::Protect(seg->slotted_base, bytes, vmem::kReadWrite));
  }
  SlottedView view = MappedView(seg);
  Status s = fn(view);
  if (opts_.protect_slotted) {
    Status p = vmem::Protect(seg->slotted_base, bytes, vmem::kRead);
    if (s.ok()) s = p;
  }
  if (s.ok()) seg->slotted_dirty = true;
  return s;
}

bool SegmentMapper::IsMapped(SegmentId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = segments_.find(id.Pack());
  return it != segments_.end() && it->second->slotted_mapped;
}

bool SegmentMapper::IsKnown(SegmentId id) {
  std::lock_guard<std::mutex> guard(mu_);
  return segments_.count(id.Pack()) != 0;
}

// ---- object lifecycle -------------------------------------------------------

Result<Slot*> SegmentMapper::CreateObject(SegmentId id, TypeIdx type,
                                          uint32_t size, const void* init) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureDataMappedLocked(seg));

  uint16_t slot_no = kNoSlot;
  uint32_t data_off = 0;
  BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
      seg, [&](SlottedView& view) -> Status {
        BESS_ASSIGN_OR_RETURN(uint32_t off, view.AllocData(size));
        BESS_ASSIGN_OR_RETURN(uint16_t s, view.AllocSlot());
        Slot* slot = view.slot(s);
        slot->type_idx = type;
        slot->size = size;
        slot->dp = reinterpret_cast<uint64_t>(seg->data_base) + off;
        slot_no = s;
        data_off = off;
        return Status::OK();
      }));

  // Populate the object's bytes; make the covered pages writable + dirty.
  char* obj = static_cast<char*>(seg->data_base) + data_off;
  BESS_RETURN_IF_ERROR(MarkDirtyLocked(obj, size == 0 ? 1 : size));
  if (init != nullptr) {
    memcpy(obj, init, size);
  } else {
    memset(obj, 0, size);
  }

  EventContext ctx;
  ctx.a = id.Pack();
  ctx.b = slot_no;
  (void)FireEvent(Event::kObjectCreate, ctx);

  SlottedView view = MappedView(seg);
  return view.slot(slot_no);
}

Result<Slot*> SegmentMapper::CreateLargeObject(SegmentId id, TypeIdx type,
                                               uint32_t size, uint16_t lo_area,
                                               PageId lo_first_page,
                                               uint16_t lo_pages) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureSlottedMappedLocked(seg));

  uint16_t slot_no = kNoSlot;
  BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
      seg, [&](SlottedView& view) -> Status {
        BESS_ASSIGN_OR_RETURN(uint16_t s, view.AllocSlot());
        Slot* slot = view.slot(s);
        slot->flags |= kSlotLargeObject;
        slot->type_idx = type;
        slot->size = size;
        slot_no = s;
        return Status::OK();
      }));

  BESS_ASSIGN_OR_RETURN(
      LargeRange * lr,
      ReserveLargeLocked(seg, slot_no, lo_area, lo_first_page, lo_pages,
                         size));
  // Fresh object: commit zeroed pages as already-mapped and dirty.
  const size_t bytes = static_cast<size_t>(lo_pages) * kPageSize;
  BESS_RETURN_IF_ERROR(
      vmem::CommitAnonymous(lr->base, bytes, vmem::kReadWrite));
  BESS_GAUGE_ADD_IN(scope_, "vm.committed.bytes", bytes);
  lr->mapped = true;
  lr->page_state.assign(lo_pages, kMappedDirty);
  if (observer_ != nullptr) {
    for (uint32_t i = 0; i < lo_pages; ++i) {
      (void)observer_->OnPageWrite(
          id, PageAddr{id.db, lo_area, lo_first_page + i});
    }
  }

  BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
      seg, [&](SlottedView& view) -> Status {
        view.slot(slot_no)->dp = reinterpret_cast<uint64_t>(lr->base);
        return Status::OK();
      }));

  EventContext ctx;
  ctx.a = id.Pack();
  ctx.b = slot_no;
  (void)FireEvent(Event::kObjectCreate, ctx);

  SlottedView view = MappedView(seg);
  return view.slot(slot_no);
}

Status SegmentMapper::DeleteObject(SegmentId id, uint16_t slot_no) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureSlottedMappedLocked(seg));

  EventContext ctx;
  ctx.a = id.Pack();
  ctx.b = slot_no;
  (void)FireEvent(Event::kObjectDelete, ctx);

  return WithSlottedWritableLocked(seg, [&](SlottedView& view) -> Status {
    Slot* slot = view.slot(slot_no);
    if (!slot->in_use()) {
      return Status::InvalidArgument("delete of unused slot");
    }
    if (slot->flags & kSlotLargeObject) {
      auto it = seg->large.find(slot_no);
      if (it != seg->large.end()) {
        DropRangeLocked(it->second.base);
        (void)arena_.Release(it->second.base, it->second.reserved);
        BESS_GAUGE_SUB_IN(scope_, "vm.reserved.bytes",
                          it->second.reserved);
        seg->large.erase(it);
      }
    } else if (!(slot->flags & kSlotVeryLarge)) {
      view.NoteDataDead((slot->size + 7u) & ~7u);
    }
    return view.FreeSlot(slot_no);
  });
}

Status SegmentMapper::MarkDirty(const void* ptr, size_t len) {
  std::lock_guard<std::mutex> guard(mu_);
  return MarkDirtyLocked(ptr, len);
}

Status SegmentMapper::MarkDirtyLocked(const void* ptr, size_t len) {
  Range* range = FindRangeLocked(ptr);
  if (range == nullptr || range->kind == Kind::kSlotted) {
    return Status::InvalidArgument("MarkDirty outside an object range");
  }
  MappedSegment* seg = range->seg;
  LargeRange* lr = nullptr;
  char* base;
  std::vector<uint8_t>* states;
  if (range->kind == Kind::kData) {
    BESS_RETURN_IF_ERROR(EnsureDataMappedLocked(seg));
    base = static_cast<char*>(seg->data_base);
    states = &seg->data_page_state;
  } else {
    auto it = seg->large.find(range->slot_no);
    if (it == seg->large.end()) return Status::Internal("no large range");
    lr = &it->second;
    if (!lr->mapped) BESS_RETURN_IF_ERROR(FaultLargeLocked(seg, lr));
    base = static_cast<char*>(lr->base);
    states = &lr->page_state;
  }
  const uint32_t first =
      static_cast<uint32_t>((static_cast<const char*>(ptr) - base) /
                            kPageSize);
  const uint32_t last = static_cast<uint32_t>(
      (static_cast<const char*>(ptr) + len - 1 - base) / kPageSize);
  for (uint32_t p = first; p <= last && p < states->size(); ++p) {
    if ((*states)[p] == kMappedDirty) continue;
    if (observer_ != nullptr) {
      PageAddr pa = range->kind == Kind::kData
                        ? DataPageAddr(seg, p)
                        : PageAddr{seg->id.db, lr->area, lr->first_page + p};
      (void)observer_->OnPageWrite(seg->id, pa);
    }
    auto& undo =
        range->kind == Kind::kData ? seg->data_page_undo : lr->page_undo;
    undo.emplace(p, std::string(base + p * kPageSize, kPageSize));
    (*states)[p] = kMappedDirty;
    BESS_RETURN_IF_ERROR(
        vmem::Protect(base + p * kPageSize, kPageSize, vmem::kReadWrite));
  }
  return Status::OK();
}

// ---- reorganization ---------------------------------------------------------

Status SegmentMapper::RelocateData(SegmentId id, uint16_t new_area,
                                   PageId new_first_page,
                                   uint32_t new_page_count) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureDataMappedLocked(seg));
  SlottedView view = MappedView(seg);
  SlottedHeader* h = view.header();
  if (static_cast<uint64_t>(new_page_count) * kPageSize <
      h->data_used) {
    return Status::InvalidArgument("new data segment too small for contents");
  }

  const size_t new_bytes = static_cast<size_t>(new_page_count) * kPageSize;
  const size_t old_bytes = static_cast<size_t>(h->data_page_count) * kPageSize;

  if (new_bytes > seg->data_reserved) {
    // Outgrew the reservation: move to a larger range and adjust DPs by the
    // base delta (paper: "two arithmetic operations").
    const size_t new_reserved = new_bytes * kDataHeadroom;
    BESS_ASSIGN_OR_RETURN(void* new_base, arena_.Acquire(new_reserved));
    BESS_RETURN_IF_ERROR(
        vmem::CommitAnonymous(new_base, new_bytes, vmem::kReadWrite));
    memcpy(new_base, seg->data_base, std::min(old_bytes, new_bytes));
    const int64_t delta = static_cast<char*>(new_base) -
                          static_cast<char*>(seg->data_base);
    BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
        seg, [&](SlottedView& v) -> Status {
          SlottedHeader* hh = v.header();
          for (uint32_t i = 0; i < hh->slot_count; ++i) {
            Slot* s = v.slot(static_cast<uint16_t>(i));
            if (s->in_use() &&
                !(s->flags & (kSlotLargeObject | kSlotVeryLarge))) {
              s->dp = static_cast<uint64_t>(
                  static_cast<int64_t>(s->dp) + delta);
            }
          }
          hh->last_data_base = reinterpret_cast<uint64_t>(new_base);
          return Status::OK();
        }));
    DropRangeLocked(seg->data_base);
    (void)arena_.Release(seg->data_base, seg->data_reserved);
    BESS_GAUGE_ADD_IN(scope_, "vm.reserved.bytes", new_reserved);
    BESS_GAUGE_SUB_IN(scope_, "vm.reserved.bytes", seg->data_reserved);
    seg->data_base = new_base;
    seg->data_reserved = new_reserved;
    AddRangeLocked(new_base, new_reserved, seg, Kind::kData);
  } else if (new_bytes > old_bytes) {
    // Growing within the reservation: commit the new tail pages.
    BESS_RETURN_IF_ERROR(vmem::CommitAnonymous(
        static_cast<char*>(seg->data_base) + old_bytes, new_bytes - old_bytes,
        vmem::kReadWrite));
  }

  BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
      seg, [&](SlottedView& v) -> Status {
        SlottedHeader* hh = v.header();
        hh->data_area = new_area;
        hh->data_first_page = new_first_page;
        hh->data_page_count = new_page_count;
        return Status::OK();
      }));

  // Everything must land at the new disk location: all pages dirty.
  seg->data_page_state.assign(new_page_count, kMappedDirty);
  BESS_RETURN_IF_ERROR(
      vmem::Protect(seg->data_base, new_bytes, vmem::kReadWrite));
  if (observer_ != nullptr) {
    for (uint32_t p = 0; p < new_page_count; ++p) {
      (void)observer_->OnPageWrite(id, DataPageAddr(seg, p));
    }
  }
  return Status::OK();
}

Status SegmentMapper::CompactData(SegmentId id) {
  std::lock_guard<std::mutex> guard(mu_);
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  BESS_RETURN_IF_ERROR(EnsureDataMappedLocked(seg));
  SlottedView view = MappedView(seg);
  SlottedHeader* h = view.header();

  // Order live small objects by their current position.
  struct Entry {
    uint16_t slot_no;
    uint64_t dp;
    uint32_t size;
  };
  std::vector<Entry> live;
  for (uint32_t i = 0; i < h->slot_count; ++i) {
    const Slot* s = view.slot(static_cast<uint16_t>(i));
    if (s->in_use() && !(s->flags & (kSlotLargeObject | kSlotVeryLarge))) {
      live.push_back(Entry{static_cast<uint16_t>(i), s->dp, s->size});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const Entry& a, const Entry& b) { return a.dp < b.dp; });

  std::string scratch;
  std::vector<uint32_t> new_off(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    scratch.resize((scratch.size() + 7u) & ~7u);
    new_off[i] = static_cast<uint32_t>(scratch.size());
    scratch.append(reinterpret_cast<const char*>(live[i].dp), live[i].size);
  }
  scratch.resize((scratch.size() + 7u) & ~7u);

  const size_t bytes = static_cast<size_t>(h->data_page_count) * kPageSize;
  BESS_RETURN_IF_ERROR(
      vmem::Protect(seg->data_base, bytes, vmem::kReadWrite));
  memcpy(seg->data_base, scratch.data(), scratch.size());
  memset(static_cast<char*>(seg->data_base) + scratch.size(), 0,
         bytes - scratch.size());

  BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
      seg, [&](SlottedView& v) -> Status {
        for (size_t i = 0; i < live.size(); ++i) {
          v.slot(live[i].slot_no)->dp =
              reinterpret_cast<uint64_t>(seg->data_base) + new_off[i];
        }
        SlottedHeader* hh = v.header();
        hh->data_used = static_cast<uint32_t>(scratch.size());
        hh->data_dead = 0;
        return Status::OK();
      }));

  seg->data_page_state.assign(h->data_page_count, kMappedDirty);
  if (observer_ != nullptr) {
    for (uint32_t p = 0; p < h->data_page_count; ++p) {
      (void)observer_->OnPageWrite(id, DataPageAddr(seg, p));
    }
  }
  return Status::OK();
}

// ---- write-back -------------------------------------------------------------

Status SegmentMapper::UnswizzleImageLocked(MappedSegment* seg,
                                           std::string* data_copy,
                                           bool* outbound_changed) {
  SlottedView view = MappedView(seg);
  SlottedHeader* h = view.header();
  char* copy_base = data_copy->data();
  const uint64_t data_base = reinterpret_cast<uint64_t>(seg->data_base);

  for (uint32_t i = 0; i < h->slot_count; ++i) {
    const Slot* s = view.slot(static_cast<uint16_t>(i));
    if (!s->in_use() ||
        (s->flags & (kSlotLargeObject | kSlotVeryLarge))) {
      continue;
    }
    auto type = types_->Get(s->type_idx);
    if (!type.ok()) return type.status();
    const TypeDescriptor* desc = *type;
    if (desc->ref_offsets.empty()) continue;
    const uint64_t obj_off = s->dp - data_base;
    for (uint32_t off : desc->ref_offsets) {
      if (off + 8 > s->size) continue;
      uint64_t* field =
          reinterpret_cast<uint64_t*>(copy_base + obj_off + off);
      const uint64_t v = *field;
      if (v == 0 || DiskRef::IsUnswizzled(v)) continue;
      SegmentId target;
      uint16_t slot_no;
      BESS_RETURN_IF_ERROR(ResolveSlotAddressLocked(
          reinterpret_cast<const void*>(v), &target, &slot_no));
      uint16_t out_idx = kOutboundSelf;
      if (!(target == seg->id)) {
        // May append to the outbound table (a slotted mutation).
        BESS_RETURN_IF_ERROR(WithSlottedWritableLocked(
            seg, [&](SlottedView& wv) -> Status {
              BESS_ASSIGN_OR_RETURN(out_idx, wv.InternOutbound(target));
              return Status::OK();
            }));
        *outbound_changed = true;
      }
      *field = DiskRef::Pack(out_idx, slot_no);
      BESS_COUNT_IN(scope_, "vm.ref.unswizzle");
    }
  }
  return Status::OK();
}

Status SegmentMapper::BuildDiskSlottedLocked(MappedSegment* seg,
                                             std::string* out) {
  const size_t bytes = static_cast<size_t>(seg->slotted_pages) * kPageSize;
  out->assign(static_cast<const char*>(seg->slotted_base), bytes);
  SlottedView copy(out->data(), bytes);
  SlottedHeader* h = copy.header();
  h->segment_handle = 0;
  h->last_data_base = 0;
  const uint64_t data_base = reinterpret_cast<uint64_t>(seg->data_base);
  for (uint32_t i = 0; i < h->slot_count; ++i) {
    Slot* s = copy.slot(static_cast<uint16_t>(i));
    s->lock_ref = 0;
    if (!s->in_use()) continue;
    if (s->flags & kSlotLargeObject) {
      auto it = seg->large.find(static_cast<uint16_t>(i));
      if (it == seg->large.end()) {
        return Status::Internal("large object without range at write-back");
      }
      s->dp = Slot::PackDiskAddr(it->second.area, it->second.first_page,
                                 it->second.page_count);
    } else if (s->flags & kSlotVeryLarge) {
      // dp already holds the overflow offset.
    } else {
      if (s->dp < data_base ||
          s->dp >= data_base + seg->data_reserved) {
        return Status::Corruption("slot DP outside data segment");
      }
      s->dp -= data_base;
    }
  }
  return Status::OK();
}

Status SegmentMapper::CollectDirtyLocked(MappedSegment* seg,
                                         std::vector<PageImage>* out,
                                         const SegPred& seg_pred,
                                         const PagePred& page_pred) {
  SlottedView view = MappedView(seg);
  SlottedHeader* h = view.header();
  auto page_selected = [&](PageAddr pa) {
    return page_pred == nullptr || page_pred(pa);
  };

  // Data pages first: unswizzling may add outbound entries, dirtying the
  // slotted segment.
  bool any_selected_dirty = false;
  for (uint32_t p = 0; p < seg->data_page_state.size(); ++p) {
    if (seg->data_page_state[p] == kMappedDirty &&
        page_selected(DataPageAddr(seg, p))) {
      any_selected_dirty = true;
      break;
    }
  }
  bool outbound_changed = false;
  if (any_selected_dirty) {
    std::string data_copy(
        static_cast<const char*>(seg->data_base),
        static_cast<size_t>(h->data_page_count) * kPageSize);
    BESS_RETURN_IF_ERROR(
        UnswizzleImageLocked(seg, &data_copy, &outbound_changed));
    for (uint32_t p = 0; p < seg->data_page_state.size(); ++p) {
      if (seg->data_page_state[p] != kMappedDirty ||
          !page_selected(DataPageAddr(seg, p))) {
        continue;
      }
      PageImage img;
      img.db = seg->id.db;
      img.area = h->data_area;
      img.page = h->data_first_page + p;
      img.bytes.assign(data_copy.data() + static_cast<size_t>(p) * kPageSize,
                       kPageSize);
      out->push_back(std::move(img));
    }
  }

  // Transparent large objects.
  for (auto& [slot_no, lr] : seg->large) {
    (void)slot_no;
    if (!lr.mapped) continue;
    for (uint32_t p = 0; p < lr.page_state.size(); ++p) {
      if (lr.page_state[p] != kMappedDirty ||
          !page_selected(PageAddr{seg->id.db, lr.area, lr.first_page + p})) {
        continue;
      }
      PageImage img;
      img.db = seg->id.db;
      img.area = lr.area;
      img.page = lr.first_page + p;
      img.bytes.assign(
          static_cast<const char*>(lr.base) + static_cast<size_t>(p) *
              kPageSize,
          kPageSize);
      out->push_back(std::move(img));
    }
  }

  // Slotted segment last (whole image when dirty — it is small). Included
  // when the caller owns the segment, or when its outbound table grew while
  // unswizzling the caller's pages (the two must persist together).
  const bool seg_selected = seg_pred == nullptr || seg_pred(seg->id);
  if (seg->slotted_dirty && (seg_selected || outbound_changed)) {
    std::string disk_image;
    BESS_RETURN_IF_ERROR(BuildDiskSlottedLocked(seg, &disk_image));
    for (uint32_t p = 0; p < seg->slotted_pages; ++p) {
      PageImage img;
      img.db = seg->id.db;
      img.area = seg->id.area;
      img.page = seg->id.first_page + p;
      img.bytes.assign(disk_image.data() + static_cast<size_t>(p) * kPageSize,
                       kPageSize);
      out->push_back(std::move(img));
    }
  }
  return Status::OK();
}

Status SegmentMapper::CollectDirty(std::vector<PageImage>* out) {
  return CollectDirtyFor(out, nullptr, nullptr);
}

Status SegmentMapper::CollectDirtyFor(std::vector<PageImage>* out,
                                      const SegPred& seg_pred,
                                      const PagePred& page_pred) {
  std::lock_guard<std::mutex> guard(mu_);
  return CollectDirtyForLocked(out, seg_pred, page_pred);
}

Status SegmentMapper::CollectDirtyForLocked(std::vector<PageImage>* out,
                                            const SegPred& seg_pred,
                                            const PagePred& page_pred) {
  for (auto& [key, seg] : segments_) {
    (void)key;
    if (!seg->slotted_mapped) continue;
    BESS_RETURN_IF_ERROR(
        CollectDirtyLocked(seg.get(), out, seg_pred, page_pred));
  }
  return Status::OK();
}

Status SegmentMapper::MarkClean() { return MarkCleanFor(nullptr, nullptr); }

Status SegmentMapper::MarkCleanFor(const SegPred& seg_pred,
                                   const PagePred& page_pred) {
  std::lock_guard<std::mutex> guard(mu_);
  return MarkCleanForLocked(seg_pred, page_pred);
}

Status SegmentMapper::MarkCleanForLocked(const SegPred& seg_pred,
                                         const PagePred& page_pred) {
  for (auto& [key, seg] : segments_) {
    (void)key;
    if (!seg->slotted_mapped) continue;
    auto page_selected = [&](PageAddr pa) {
      return page_pred == nullptr || page_pred(pa);
    };
    if (seg_pred == nullptr || seg_pred(seg->id)) {
      seg->slotted_dirty = false;
      seg->data_on_store = true;
    }
    for (uint32_t p = 0; p < seg->data_page_state.size(); ++p) {
      if (seg->data_page_state[p] != kMappedDirty ||
          !page_selected(DataPageAddr(seg.get(), p))) {
        continue;
      }
      seg->data_page_state[p] = kMappedRead;
      seg->data_page_undo.erase(p);
      seg->data_on_store = true;
      if (opts_.detect_writes) {
        BESS_RETURN_IF_ERROR(vmem::Protect(
            static_cast<char*>(seg->data_base) + static_cast<size_t>(p) *
                kPageSize,
            kPageSize, vmem::kRead));
      }
    }
    for (auto& [slot_no, lr] : seg->large) {
      (void)slot_no;
      for (uint32_t p = 0; p < lr.page_state.size(); ++p) {
        if (lr.page_state[p] != kMappedDirty ||
            !page_selected(
                PageAddr{seg->id.db, lr.area, lr.first_page + p})) {
          continue;
        }
        lr.page_state[p] = kMappedRead;
        lr.page_undo.erase(p);
        if (opts_.detect_writes) {
          BESS_RETURN_IF_ERROR(vmem::Protect(
              static_cast<char*>(lr.base) + static_cast<size_t>(p) *
                  kPageSize,
              kPageSize, vmem::kRead));
        }
      }
    }
  }
  return Status::OK();
}

Status SegmentMapper::RevertPage(PageAddr page) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [key, seg] : segments_) {
    (void)key;
    if (!seg->slotted_mapped || seg->id.db != page.db) continue;
    SlottedView view = MappedView(seg.get());
    const SlottedHeader* h = view.header();
    // Data segment page?
    if (seg->data_mapped && h->data_area == page.area &&
        page.page >= h->data_first_page &&
        page.page < h->data_first_page + h->data_page_count) {
      const uint32_t p = page.page - h->data_first_page;
      if (seg->data_page_state[p] != kMappedDirty) return Status::OK();
      auto it = seg->data_page_undo.find(p);
      if (it == seg->data_page_undo.end()) {
        // No in-memory undo image (e.g. fresh segment): refault from disk.
        return EvictLocked(seg->id, /*drop_dirty=*/true);
      }
      char* base = static_cast<char*>(seg->data_base) +
                   static_cast<size_t>(p) * kPageSize;
      memcpy(base, it->second.data(), kPageSize);
      seg->data_page_undo.erase(it);
      seg->data_page_state[p] = kMappedRead;
      if (opts_.detect_writes) {
        BESS_RETURN_IF_ERROR(vmem::Protect(base, kPageSize, vmem::kRead));
      }
      return Status::OK();
    }
    // Large object page?
    for (auto& [slot_no, lr] : seg->large) {
      (void)slot_no;
      if (!lr.mapped || lr.area != page.area ||
          page.page < lr.first_page ||
          page.page >= lr.first_page + lr.page_count) {
        continue;
      }
      const uint32_t p = page.page - lr.first_page;
      if (lr.page_state[p] != kMappedDirty) return Status::OK();
      auto it = lr.page_undo.find(p);
      if (it == lr.page_undo.end()) {
        return EvictLocked(seg->id, /*drop_dirty=*/true);
      }
      char* base =
          static_cast<char*>(lr.base) + static_cast<size_t>(p) * kPageSize;
      memcpy(base, it->second.data(), kPageSize);
      lr.page_undo.erase(it);
      lr.page_state[p] = kMappedRead;
      if (opts_.detect_writes) {
        BESS_RETURN_IF_ERROR(vmem::Protect(base, kPageSize, vmem::kRead));
      }
      return Status::OK();
    }
  }
  return Status::OK();  // page not mapped here: nothing to revert
}

Status SegmentMapper::WriteBackAll() {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<PageImage> pages;
  BESS_RETURN_IF_ERROR(CollectDirtyForLocked(&pages, nullptr, nullptr));
  for (const PageImage& img : pages) {
    BESS_RETURN_IF_ERROR(store_->WritePages(img.db, img.area, img.page, 1,
                                            img.bytes.data()));
  }
  return MarkCleanForLocked(nullptr, nullptr);
}

Status SegmentMapper::DecommitSegmentLocked(MappedSegment* seg) {
  if (seg->slotted_mapped) {
    BESS_RETURN_IF_ERROR(vmem::CommitAnonymous(
        seg->slotted_base, seg->slotted_reserved, vmem::kNone));
    BESS_GAUGE_SUB_IN(scope_, "vm.committed.bytes",
                      static_cast<size_t>(seg->slotted_pages) * kPageSize);
    seg->slotted_mapped = false;
    seg->slotted_pages = 0;
    seg->slotted_dirty = false;
  }
  if (seg->data_mapped) {
    BESS_RETURN_IF_ERROR(
        vmem::CommitAnonymous(seg->data_base, seg->data_reserved, vmem::kNone));
    BESS_GAUGE_SUB_IN(scope_, "vm.committed.bytes",
                      static_cast<size_t>(seg->data_page_state.size()) *
                          kPageSize);
    seg->data_mapped = false;
  }
  seg->data_page_state.clear();
  seg->data_page_undo.clear();
  for (auto& [slot_no, lr] : seg->large) {
    (void)slot_no;
    lr.page_undo.clear();
    if (lr.mapped) {
      BESS_RETURN_IF_ERROR(
          vmem::CommitAnonymous(lr.base, lr.reserved, vmem::kNone));
      BESS_GAUGE_SUB_IN(scope_, "vm.committed.bytes",
                        static_cast<size_t>(lr.page_count) * kPageSize);
      lr.mapped = false;
    }
    lr.page_state.assign(lr.page_count, kUnmapped);
  }
  return Status::OK();
}

Status SegmentMapper::Evict(SegmentId id, bool drop_dirty) {
  std::lock_guard<std::mutex> guard(mu_);
  return EvictLocked(id, drop_dirty);
}

Status SegmentMapper::EvictLocked(SegmentId id, bool drop_dirty) {
  auto it = segments_.find(id.Pack());
  if (it == segments_.end()) return Status::OK();
  MappedSegment* seg = it->second.get();
  if (!drop_dirty) {
    if (seg->slotted_dirty) {
      return Status::Busy("evict of dirty segment");
    }
    for (uint8_t st : seg->data_page_state) {
      if (st == kMappedDirty) return Status::Busy("evict of dirty segment");
    }
    for (auto& [slot_no, lr] : seg->large) {
      (void)slot_no;
      for (uint8_t st : lr.page_state) {
        if (st == kMappedDirty) return Status::Busy("evict of dirty segment");
      }
    }
  }
  EventContext ctx;
  ctx.a = id.Pack();
  (void)FireEvent(Event::kSegmentReplace, ctx);
  // Address ranges stay reserved so swizzled pointers into this segment
  // remain valid and simply refault on next touch.
  return DecommitSegmentLocked(seg);
}

Status SegmentMapper::DiscardDirty() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [key, seg] : segments_) {
    (void)key;
    bool dirty = seg->slotted_dirty;
    for (uint8_t st : seg->data_page_state) dirty |= (st == kMappedDirty);
    for (auto& [slot_no, lr] : seg->large) {
      (void)slot_no;
      for (uint8_t st : lr.page_state) dirty |= (st == kMappedDirty);
    }
    if (!dirty) continue;
    if (!seg->data_on_store) {
      // Brand-new segment that was never written back: nothing on disk to
      // refault from; drop all knowledge of it.
      BESS_RETURN_IF_ERROR(DecommitSegmentLocked(seg.get()));
      continue;
    }
    BESS_RETURN_IF_ERROR(DecommitSegmentLocked(seg.get()));
  }
  return Status::OK();
}

Status SegmentMapper::ReleaseSegmentLocked(MappedSegment* seg) {
  BESS_RETURN_IF_ERROR(DecommitSegmentLocked(seg));
  DropRangeLocked(seg->slotted_base);
  (void)arena_.Release(seg->slotted_base, seg->slotted_reserved);
  BESS_GAUGE_SUB_IN(scope_, "vm.reserved.bytes", seg->slotted_reserved);
  if (seg->data_base != nullptr) {
    DropRangeLocked(seg->data_base);
    (void)arena_.Release(seg->data_base, seg->data_reserved);
    BESS_GAUGE_SUB_IN(scope_, "vm.reserved.bytes", seg->data_reserved);
  }
  for (auto& [slot_no, lr] : seg->large) {
    (void)slot_no;
    DropRangeLocked(lr.base);
    (void)arena_.Release(lr.base, lr.reserved);
    BESS_GAUGE_SUB_IN(scope_, "vm.reserved.bytes", lr.reserved);
  }
  return Status::OK();
}

Status SegmentMapper::EvictAll(bool drop_dirty) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [key, seg] : segments_) {
    (void)key;
    Status s = EvictLocked(seg->id, drop_dirty);
    if (!s.ok() && !s.IsBusy()) return s;
  }
  return Status::OK();
}

Status SegmentMapper::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [key, seg] : segments_) {
    (void)key;
    BESS_RETURN_IF_ERROR(ReleaseSegmentLocked(seg.get()));
  }
  segments_.clear();
  ranges_.clear();
  return Status::OK();
}

Result<SlottedView> SegmentMapper::InstallNewSegment(
    SegmentId id, uint16_t file_id, uint32_t slotted_page_count,
    uint32_t slot_capacity, uint16_t outbound_capacity, uint16_t data_area,
    PageId data_first_page, uint32_t data_page_count) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slotted_page_count == 0 || slotted_page_count > kMaxSlottedPages) {
    return Status::InvalidArgument("bad slotted page count");
  }
  BESS_ASSIGN_OR_RETURN(MappedSegment * seg, EnsureReservedLocked(id));
  if (seg->slotted_mapped) {
    return Status::InvalidArgument("segment already mapped");
  }
  const size_t bytes = static_cast<size_t>(slotted_page_count) * kPageSize;
  BESS_RETURN_IF_ERROR(
      vmem::CommitAnonymous(seg->slotted_base, bytes, vmem::kReadWrite));
  BESS_GAUGE_ADD_IN(scope_, "vm.committed.bytes", bytes);
  BESS_ASSIGN_OR_RETURN(
      SlottedView view,
      SlottedView::Format(seg->slotted_base, bytes, id, file_id,
                          slot_capacity, outbound_capacity));
  SlottedHeader* h = view.header();
  h->data_area = data_area;
  h->data_first_page = data_first_page;
  h->data_page_count = data_page_count;
  h->segment_handle = reinterpret_cast<uint64_t>(seg);

  seg->slotted_pages = slotted_page_count;
  seg->slotted_mapped = true;
  seg->slotted_dirty = true;
  seg->data_on_store = false;

  BESS_RETURN_IF_ERROR(ReserveDataRangeLocked(seg, data_page_count));
  h->last_data_base = reinterpret_cast<uint64_t>(seg->data_base);
  const size_t data_bytes = static_cast<size_t>(data_page_count) * kPageSize;
  if (data_bytes > 0) {
    BESS_RETURN_IF_ERROR(
        vmem::CommitAnonymous(seg->data_base, data_bytes, vmem::kReadWrite));
    BESS_GAUGE_ADD_IN(scope_, "vm.committed.bytes", data_bytes);
  }
  seg->data_mapped = data_page_count > 0;
  seg->data_page_state.assign(data_page_count, kMappedDirty);
  if (observer_ != nullptr) {
    BESS_RETURN_IF_ERROR(observer_->OnSegmentRead(id));
    for (uint32_t p = 0; p < data_page_count; ++p) {
      (void)observer_->OnPageWrite(id, DataPageAddr(seg, p));
    }
  }

  if (opts_.protect_slotted) {
    BESS_RETURN_IF_ERROR(vmem::Protect(seg->slotted_base, bytes, vmem::kRead));
  }
  return MappedView(seg);
}

}  // namespace bess
