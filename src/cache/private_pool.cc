#include "cache/private_pool.h"

#include <cstring>

#include "obs/scope.h"
#include "os/vmem.h"
#include "util/logging.h"

namespace bess {

// ---- PoolPlacement ----------------------------------------------------------
//
// No eviction or write-back loop lives here: the FrameTable drives the
// lifecycle and these hooks only translate it into mprotect state.

Status PrivateBufferPool::PoolPlacement::BeginLoad(uint32_t f) {
  pool_->prot_[f].store(kOpen, std::memory_order_relaxed);
  return vmem::Protect(pool_->FrameAddr(f), kPageSize, vmem::kReadWrite);
}

Status PrivateBufferPool::PoolPlacement::FinishLoad(uint32_t f,
                                                    bool for_write) {
  if (for_write) return Status::OK();
  // Read-only until the first store faults (write detection, §2.3).
  return vmem::Protect(pool_->FrameAddr(f), kPageSize, vmem::kRead);
}

Status PrivateBufferPool::PoolPlacement::OnAccess(uint32_t f, bool dirty) {
  if (pool_->prot_[f].load(std::memory_order_relaxed) != kRevoked) {
    return Status::OK();
  }
  // Second chance: re-enable access, read-only so a later store is still
  // caught. The store before the mprotect keeps the fault path's lock-free
  // read consistent (a fault implies the mprotect completed).
  pool_->prot_[f].store(kOpen, std::memory_order_relaxed);
  BESS_RETURN_IF_ERROR(vmem::Protect(pool_->FrameAddr(f), kPageSize,
                                     dirty ? vmem::kReadWrite : vmem::kRead));
  BESS_COUNT_IN(pool_->scope_, "cache.second_chance");
  return Status::OK();
}

Status PrivateBufferPool::PoolPlacement::OnDirty(uint32_t f) {
  return vmem::Protect(pool_->FrameAddr(f), kPageSize, vmem::kReadWrite);
}

Status PrivateBufferPool::PoolPlacement::Demote(uint32_t f) {
  pool_->prot_[f].store(kRevoked, std::memory_order_relaxed);
  return vmem::Protect(pool_->FrameAddr(f), kPageSize, vmem::kNone);
}

Status PrivateBufferPool::PoolPlacement::PrepareForWriteback(uint32_t f) {
  // Lifecycle invariant: the frame must be readable before write-back I/O
  // touches it — reading an access-protected frame would fault into
  // OnFault on the writing thread. Downgrading an open dirty frame to
  // read-only here also catches stores racing the write: they fault, the
  // frame re-dirties, and the finalize CAS keeps it dirty.
  return vmem::Protect(pool_->FrameAddr(f), kPageSize, vmem::kRead);
}

Status PrivateBufferPool::PoolPlacement::FinishWriteback(uint32_t f,
                                                         bool ok) {
  (void)ok;
  if (pool_->prot_[f].load(std::memory_order_relaxed) == kRevoked) {
    // Restore the clock's revocation.
    return vmem::Protect(pool_->FrameAddr(f), kPageSize, vmem::kNone);
  }
  const bool clean = pool_->table_->meta(f)->State() == FrameState::kClean;
  return vmem::Protect(pool_->FrameAddr(f), kPageSize,
                       clean ? vmem::kRead : vmem::kReadWrite);
}

Status PrivateBufferPool::PoolPlacement::OnEvict(uint32_t f) {
  pool_->prot_[f].store(kOpen, std::memory_order_relaxed);
  return Status::OK();
}

// ---- PrivateBufferPool ------------------------------------------------------

Result<std::unique_ptr<PrivateBufferPool>> PrivateBufferPool::Open(
    const std::string& path, uint32_t frame_count, SegmentStore* store) {
  return Open(path, frame_count, store, Options{});
}

Result<std::unique_ptr<PrivateBufferPool>> PrivateBufferPool::Open(
    const std::string& path, uint32_t frame_count, SegmentStore* store,
    const Options& options) {
  if (frame_count == 0) {
    return Status::InvalidArgument("pool needs at least one frame");
  }
  BESS_ASSIGN_OR_RETURN(File file, File::Open(path));
  BESS_RETURN_IF_ERROR(
      file.Truncate(static_cast<uint64_t>(frame_count) * kPageSize));
  auto pool = std::unique_ptr<PrivateBufferPool>(
      new PrivateBufferPool(std::move(file), frame_count, store, options));
  BESS_RETURN_IF_ERROR(pool->Init());
  return pool;
}

Status PrivateBufferPool::Init() {
  // The pool file itself is the backing store for the frames (§4.1.1).
  BESS_ASSIGN_OR_RETURN(
      void* base,
      vmem::MapFile(static_cast<size_t>(frame_count_) * kPageSize,
                    file_.fd(), 0));
  base_ = static_cast<char*>(base);
  prot_.reset(new std::atomic<uint8_t>[frame_count_]);
  for (uint32_t f = 0; f < frame_count_; ++f) {
    prot_[f].store(kOpen, std::memory_order_relaxed);
  }
  FrameTable::Options topts;
  topts.frame_count = frame_count_;
  topts.enable_bgwriter = options_.enable_bgwriter;
  topts.bgwriter_interval_ms = options_.bgwriter_interval_ms;
  table_.reset(new FrameTable(topts, &placement_, &store_io_, &scope_));
  // Fault routing must be live before the table's background services
  // start touching protection state.
  dispatcher_slot_ = FaultDispatcher::Instance().RegisterRange(
      base_, static_cast<size_t>(frame_count_) * kPageSize, this);
  return table_->Init();
}

PrivateBufferPool::~PrivateBufferPool() {
  if (table_ != nullptr) table_->Stop();
  if (dispatcher_slot_ >= 0) {
    FaultDispatcher::Instance().UnregisterRange(dispatcher_slot_);
  }
  table_.reset();
  if (base_ != nullptr) {
    (void)vmem::Release(base_, static_cast<size_t>(frame_count_) * kPageSize);
  }
}

Result<void*> PrivateBufferPool::Fix(PageAddr page, bool for_write) {
  BESS_ASSIGN_OR_RETURN(FrameTable::FixResult r,
                        table_->Fix(page.Pack(), for_write));
  return r.data;
}

bool PrivateBufferPool::Contains(PageAddr page) {
  return table_->Contains(page.Pack());
}

Status PrivateBufferPool::FlushDirty() { return table_->FlushDirty(); }

Status PrivateBufferPool::Clear() { return table_->Clear(/*flush=*/true); }

bool PrivateBufferPool::OnFault(void* addr, bool is_write) {
  // Note: `is_write` is only a hint and absent on some kernels; decisions
  // derive from tracked state (a fault on a readable frame can only be a
  // store).
  (void)is_write;
  const size_t off = static_cast<size_t>(static_cast<char*>(addr) - base_);
  const uint32_t f = static_cast<uint32_t>(off / kPageSize);
  if (f >= frame_count_) return false;
  if (prot_[f].load(std::memory_order_relaxed) == kRevoked) {
    // Touch of a protected frame: the clock's "used" signal. A store
    // refaults immediately and lands in the branch below.
    return table_->NoteAccess(f).ok();
  }
  // Readable frame faulted: the first store — software update detection.
  return table_->MarkDirty(f).ok();
}

}  // namespace bess
