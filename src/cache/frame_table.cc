#include "cache/frame_table.h"

#include <algorithm>
#include <chrono>

#include "cache/async_page_io.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace bess {
namespace {

/// How long a foreground miss nudges the bgwriter before falling back to a
/// synchronous write-back, and how many whole acquisition rounds run before
/// giving up (each round ends in Placement::ReleasePressure).
constexpr int kBgWaitAttempts = 3;
constexpr int kPressureRounds = 3;
constexpr auto kLoadPoll = std::chrono::milliseconds(1);
/// Bgwriter round shape: at most kBgwriterBatch dirty frames flushed ahead
/// of the eviction hand, picked from the next kBgwriterLookahead frames it
/// will reach.
constexpr uint32_t kBgwriterBatch = 16;
constexpr uint32_t kBgwriterLookahead = 32;

class MapDirectory : public FrameTable::Directory {
 public:
  uint32_t Lookup(uint64_t key) override {
    auto it = map_.find(key);
    return it == map_.end() ? kNoFrame : it->second;
  }
  Status Install(uint64_t key, uint32_t f) override {
    map_[key] = f;
    return Status::OK();
  }
  void Erase(uint64_t key, uint32_t f) override {
    auto it = map_.find(key);
    if (it != map_.end() && it->second == f) map_.erase(it);
  }

 private:
  std::unordered_map<uint64_t, uint32_t> map_;
};

}  // namespace

FrameTable::FrameTable(const Options& opts, Placement* placement, PageIo* io,
                       obs::Scope* scope)
    : opts_(opts),
      placement_(placement),
      io_(io),
      own_scope_(scope == nullptr ? std::make_unique<obs::Scope>() : nullptr),
      scope_(scope != nullptr ? *scope : *own_scope_) {}

FrameTable::~FrameTable() { Stop(); }

Status FrameTable::Init() {
  if (opts_.frame_count == 0) {
    return Status::InvalidArgument("frame table needs at least one frame");
  }
  if (opts_.async_io != nullptr) {
    if (opts_.directory != nullptr) {
      // Async claim/install runs under only this process's table mutex. An
      // external directory (the shared mapping table) is also written by
      // other processes' miss paths, which serialize on the SMT latch this
      // table does not hold — a staged read racing a remote miss could
      // leave one page resident in two slots, breaking the single-copy
      // invariant.
      return Status::InvalidArgument(
          "async I/O is unsupported with an external (cross-process) "
          "directory");
    }
    if (opts_.async_queue_depth == 0) opts_.async_queue_depth = 1;
    aio_ = opts_.async_io;
    aio_pending_.assign(opts_.frame_count, PendingAio{});
  }
  ClockPolicyOptions co;
  co.use_ref_bits = opts_.clock_ref_bits;
  co.shared_hand = opts_.shared_hand;
  BESS_ASSIGN_OR_RETURN(
      policy_, MakeReplacementPolicy(opts_.policy, opts_.frame_count, co));
  if (opts_.frames != nullptr) {
    meta_ = opts_.frames;
  } else {
    owned_meta_.reset(new FrameMeta[opts_.frame_count]);
    meta_ = owned_meta_.get();
  }
  if (opts_.directory != nullptr) {
    dir_ = opts_.directory;
  } else {
    owned_dir_.reset(new MapDirectory());
    dir_ = owned_dir_.get();
  }
  if (opts_.enable_bgwriter) {
    std::lock_guard<std::mutex> guard(mu_);
    running_ = true;
    bg_thread_ = std::thread([this] { BackgroundMain(); });
  }
  return Status::OK();
}

void FrameTable::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    running_ = false;
  }
  bg_cv_.notify_all();
  if (bg_thread_.joinable()) bg_thread_.join();
  if (aio_ != nullptr) {
    // Drain every in-flight async op: a frame left kLoading/kWriting with a
    // pending completion would leak (never evictable). The engine contract
    // guarantees one completion per accepted request, so this terminates;
    // the retry cap only guards against a wedged backend.
    std::unique_lock<std::mutex> lk(mu_);
    for (int spins = 0; aio_inflight_ > 0 && spins < 200; ++spins) {
      (void)ReapAioLocked(lk, 50);
    }
    if (aio_inflight_ > 0) {
      BESS_ERROR("frame table stopped with " << aio_inflight_
                                             << " async page ops unreaped");
    }
  }
}

bool FrameTable::EvictableLocked(uint32_t f, bool allow_dirty) const {
  if (meta_[f].pins.load(std::memory_order_acquire) != 0) return false;
  // A frame whose write-back I/O is still in flight (kWriting, or kDirty
  // after a re-dirty) must keep its bytes until that writer lands.
  if (meta_[f].writer.load(std::memory_order_acquire) != 0) return false;
  switch (meta_[f].State()) {
    case FrameState::kFree:
    case FrameState::kClean:
      return true;
    case FrameState::kDirty:
      return allow_dirty;
    default:
      return false;
  }
}

Status FrameTable::MarkDirtyLocked(uint32_t f, uint64_t lsn) {
  FrameMeta& m = meta_[f];
  switch (m.State()) {
    case FrameState::kClean:
    case FrameState::kWriting:
      // kWriting: the in-flight write-back carries a stale image; leaving
      // the frame dirty makes its finalize CAS fail, so the page is
      // rewritten later. This is how re-dirty-during-write stays lossless.
      // recLSN: set only when the frame was verifiably clean — this LSN is
      // then the page's redo lower bound until it turns clean again. On a
      // kWriting re-dirty the old recLSN stands (the in-flight write may
      // still fail, so the earlier records may still need redo); 0 means
      // dirtied without an LSN and the checkpoint has no bound to snapshot.
      if (m.State() == FrameState::kClean) {
        m.rec_lsn.store(lsn, std::memory_order_relaxed);
      }
      SetState(f, FrameState::kDirty);
      // Software flavour of the write-detection event the fault path
      // counts for hardware detection (§2.3).
      BESS_COUNT_IN(scope_, "vm.fault.detect");
      break;
    case FrameState::kDirty:
      break;
    default:
      return Status::Internal("MarkDirty on a frame with no page");
  }
  if (lsn != 0) {
    uint64_t cur = m.page_lsn.load(std::memory_order_relaxed);
    while (lsn > cur &&
           !m.page_lsn.compare_exchange_weak(cur, lsn,
                                             std::memory_order_relaxed)) {
    }
  }
  return placement_->OnDirty(f);
}

Status FrameTable::MarkDirty(uint32_t f, uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (f >= opts_.frame_count) return Status::InvalidArgument("bad frame");
  return MarkDirtyLocked(f, lsn);
}

Status FrameTable::NoteAccess(uint32_t f) {
  std::unique_lock<std::mutex> lk(mu_);
  if (f >= opts_.frame_count) return Status::InvalidArgument("bad frame");
  const FrameState st = StateOf(f);
  if (st != FrameState::kClean && st != FrameState::kDirty &&
      st != FrameState::kWriting) {
    return Status::Internal("touch of a frame with no page");
  }
  policy_->OnAccess(f);
  return placement_->OnAccess(f, st == FrameState::kDirty);
}

Status FrameTable::EvictLocked(uint32_t f) {
  FrameMeta& m = meta_[f];
  if (m.State() == FrameState::kFree) {
    policy_->OnEvict(f);
    return Status::OK();
  }
  SetState(f, FrameState::kEvicting);
  const uint64_t old_key = m.page_key.load(std::memory_order_acquire);
  if (m.prefetched.exchange(0, std::memory_order_relaxed) != 0) {
    BESS_COUNT_IN(scope_, "cache.prefetch.wasted");
  }
  if (old_key != 0) dir_->Erase(old_key, f);
  Status es = placement_->OnEvict(f);
  m.page_key.store(0, std::memory_order_release);
  m.page_lsn.store(0, std::memory_order_relaxed);
  m.rec_lsn.store(0, std::memory_order_relaxed);
  SetState(f, FrameState::kFree);
  policy_->OnEvict(f);
  if (old_key != 0) {
    BESS_COUNT_IN(scope_, "cache.eviction");
  }
  // A frame just became free: a foreground pressure-waiter blocked on
  // cleaned_cv_ may now have a victim — or, if this was the last unpinned
  // dirty frame (evicted after a write-back), waiting no longer helps.
  // Without this notify that waiter sleeps out its whole slice.
  cleaned_cv_.notify_all();
  return es;
}

Status FrameTable::WriteBackLocked(uint32_t f,
                                   std::unique_lock<std::mutex>& lk,
                                   WritebackMode mode) {
  FrameMeta& m = meta_[f];
  if (io_ == nullptr) {
    // Put/get caches have no backing store: dirty frames simply drop.
    SetState(f, FrameState::kClean);
    return Status::OK();
  }
  // One write-back per frame at a time, across threads and processes: the
  // writer flag is claimed before any state change, so a frame re-dirtied
  // while its write is in flight (kWriting → kDirty via MarkDirty) cannot
  // enter a second concurrent write-back, and the finalize CAS below can
  // only ever match this writer's own kWriting.
  for (uint8_t unclaimed = 0;
       !m.writer.compare_exchange_strong(unclaimed, 1,
                                         std::memory_order_acq_rel);
       unclaimed = 0) {
    // Background and evict callers just skip: the frame is retried next
    // round or re-validated by the caller. Flush waits out the in-flight
    // write (possibly another process's, hence the timed poll) so
    // FlushDirty's everything-durable contract holds.
    if (mode != WritebackMode::kFlush) return Status::OK();
    cleaned_cv_.wait_for(lk, kLoadPoll);
  }
  if (m.State() != FrameState::kDirty) {
    // Cleaned — or evicted and reloaded — while we waited for the flag.
    m.writer.store(0, std::memory_order_release);
    return Status::OK();
  }
  SetState(f, FrameState::kWriting);
  const uint64_t key = m.page_key.load(std::memory_order_acquire);
  lk.unlock();
  // Structural invariant (the PR 4 self-deadlock fix, now a lifecycle
  // rule): the placement makes the frame readable — lifting any access
  // protection and latching against writers — before I/O touches it.
  Status ws = placement_->PrepareForWriteback(f);
  // The covering LSN is read only after the placement latched the frame:
  // a mutator may have rewritten the bytes between the claim above and
  // the latch, and the WAL gate must cover whatever image the I/O reads.
  const uint64_t lsn = m.page_lsn.load(std::memory_order_acquire);
  if (ws.ok()) ws = io_->EnsureWalDurable(lsn);
  if (ws.ok()) ws = io_->Write(key, placement_->frame_data(f));
  lk.lock();
  if (!ws.ok()) {
    SetState(f, FrameState::kDirty);
    (void)placement_->FinishWriteback(f, false);
    m.writer.store(0, std::memory_order_release);
    cleaned_cv_.notify_all();
    return ws;
  }
  // Fails when the frame was re-dirtied during the write; it then stays
  // kDirty and is written again later. FinishWriteback runs after, so the
  // placement re-arms protection from the true post-write state.
  uint8_t expected = static_cast<uint8_t>(FrameState::kWriting);
  bool cleaned = false;
  uint64_t cleaned_rec_lsn = 0;
  if (m.state.compare_exchange_strong(expected,
                                      static_cast<uint8_t>(FrameState::kClean),
                                      std::memory_order_acq_rel)) {
    cleaned = true;
    cleaned_rec_lsn = m.rec_lsn.exchange(0, std::memory_order_relaxed);
  }
  (void)placement_->FinishWriteback(f, true);
  m.writer.store(0, std::memory_order_release);
  BESS_COUNT_IN(scope_, "cache.writeback");
  if (mode == WritebackMode::kSyncEvict) {
    BESS_COUNT_IN(scope_, "cache.evict.sync_writeback");
  } else if (mode == WritebackMode::kBackground) {
    BESS_COUNT_IN(scope_, "cache.bgwriter.flushed");
  }
  cleaned_cv_.notify_all();
  load_cv_.notify_all();
  if (cleaned && opts_.on_cleaned) {
    cleaning_.emplace_back(key, cleaned_rec_lsn);
    ReportCleanedLocked(lk, {{key, cleaned_rec_lsn}});
  }
  return Status::OK();
}

Result<uint32_t> FrameTable::AcquireFrameLocked(
    std::unique_lock<std::mutex>& lk) {
  Status demote_status;
  auto demote = [&](uint32_t f) {
    Status s = placement_->Demote(f);
    if (!s.ok() && demote_status.ok()) demote_status = s;
  };
  auto clean = [&](uint32_t f) { return EvictableLocked(f, false); };
  auto any = [&](uint32_t f) { return EvictableLocked(f, true); };

  for (int round = 0; round < kPressureRounds; ++round) {
    if (opts_.enable_bgwriter && io_ != nullptr) {
      // Prefer clean victims; when only dirty frames remain, kick the
      // bgwriter and wait briefly instead of stalling on write I/O.
      for (int attempt = 0;; ++attempt) {
        const uint32_t f = policy_->PickVictim(clean, demote);
        BESS_RETURN_IF_ERROR(demote_status);
        if (f != kNoFrame) {
          BESS_RETURN_IF_ERROR(EvictLocked(f));
          return f;
        }
        if (attempt >= kBgWaitAttempts) break;
        // Waiting only helps if the bgwriter can actually mint a victim:
        // an unpinned dirty frame (or one whose write-back is already in
        // flight). When every frame is pinned (shared mode with all slots
        // bound), fall through to ReleasePressure instead.
        auto any_cleanable = [&] {
          for (uint32_t i = 0; i < opts_.frame_count; ++i) {
            const FrameState st = StateOf(i);
            if (meta_[i].pins.load(std::memory_order_acquire) == 0 &&
                (st == FrameState::kDirty || st == FrameState::kWriting)) {
              return true;
            }
          }
          return false;
        };
        auto any_clean_victim = [&] {
          for (uint32_t i = 0; i < opts_.frame_count; ++i) {
            if (EvictableLocked(i, false)) return true;
          }
          return false;
        };
        if (!any_cleanable()) break;
        urgent_flush_ = true;
        bg_cv_.notify_all();
        BESS_COUNT_IN(scope_, "cache.bgwriter.pressure_wait");
        // Predicate wait, not a bare timed sleep: the state this waiter
        // cares about can change without a write-back completing — the
        // last unpinned dirty frame can get pinned (waiting is then
        // futile) or evicted (a victim exists). Both paths notify
        // cleaned_cv_; the predicate makes the wakeup effective instead of
        // sleeping out the full slice (missed-wakeup fix).
        cleaned_cv_.wait_for(
            lk, std::chrono::milliseconds(opts_.bgwriter_wait_slice_ms),
            [&] { return any_clean_victim() || !any_cleanable(); });
      }
    }
    const uint32_t f = policy_->PickVictim(any, demote);
    BESS_RETURN_IF_ERROR(demote_status);
    if (f != kNoFrame) {
      if (StateOf(f) == FrameState::kDirty && io_ != nullptr) {
        BESS_RETURN_IF_ERROR(
            WriteBackLocked(f, lk, WritebackMode::kSyncEvict));
        // The lock dropped during the write; re-validate before evicting.
        if (!EvictableLocked(f, false)) continue;
      }
      BESS_RETURN_IF_ERROR(EvictLocked(f));
      return f;
    }
    BESS_RETURN_IF_ERROR(placement_->ReleasePressure());
  }
  return Status::Busy("cache exhausted: all frames pinned or bound");
}

Result<FrameTable::FixResult> FrameTable::Fix(uint64_t key, bool for_write,
                                              bool pin) {
  if (key == 0) return Status::InvalidArgument("null page key");
  std::unique_lock<std::mutex> lk(mu_);
  BESS_COUNT_IN(scope_, "cache.fix");
  for (;;) {
    const uint32_t f = dir_->Lookup(key);
    if (f == kNoFrame) break;
    FrameMeta& m = meta_[f];
    if (m.page_key.load(std::memory_order_acquire) != key) break;
    const FrameState st = m.State();
    if (st == FrameState::kLoading) {
      // Another thread (or, in shared mode, another process) is filling
      // this frame; wait with a poll so cross-process loads finish too.
      // With an async backend the fill may be a completion nobody has
      // reaped yet — reap instead of sleeping so a lone foreground thread
      // makes progress without depending on the background thread.
      if (aio_ != nullptr && aio_inflight_ > 0) {
        (void)ReapAioLocked(lk, 1);
      } else {
        load_cv_.wait_for(lk, kLoadPoll);
      }
      continue;
    }
    if (st == FrameState::kFree || st == FrameState::kEvicting) break;
    // Hit.
    if (m.prefetched.exchange(0, std::memory_order_relaxed) != 0) {
      BESS_COUNT_IN(scope_, "cache.prefetch.hits");
    }
    policy_->OnAccess(f);
    BESS_RETURN_IF_ERROR(placement_->OnAccess(f, st == FrameState::kDirty));
    if (for_write) BESS_RETURN_IF_ERROR(MarkDirtyLocked(f, 0));
    if (pin) {
      m.pins.fetch_add(1, std::memory_order_acq_rel);
      if (m.State() == FrameState::kDirty) {
        // Pinning a dirty frame may have removed the last frame the
        // bgwriter could mint into a victim: wake pressure-waiters so they
        // re-check instead of sleeping out their slice (missed-wakeup fix).
        cleaned_cv_.notify_all();
      }
    }
    BESS_COUNT_IN(scope_, "cache.hit");
    return FixResult{f, placement_->frame_data(f), true};
  }

  // Miss: claim a frame, publish it as loading, fetch outside the lock.
  BESS_ASSIGN_OR_RETURN(const uint32_t f, AcquireFrameLocked(lk));
  FrameMeta& m = meta_[f];
  m.page_key.store(key, std::memory_order_release);
  SetState(f, FrameState::kLoading);
  // Install/BeginLoad/fetch failures all unwind through the cleanup below:
  // a frame left kLoading is never evictable and would leak permanently.
  Status ls = dir_->Install(key, f);
  if (ls.ok()) ls = placement_->BeginLoad(f);
  if (ls.ok()) {
    if (io_ != nullptr) {
      lk.unlock();
      ls = io_->Fetch(key, placement_->frame_data(f));
      lk.lock();
    } else {
      memset(placement_->frame_data(f), 0, kPageSize);
    }
  }
  if (!ls.ok()) {
    dir_->Erase(key, f);
    m.page_key.store(0, std::memory_order_release);
    SetState(f, FrameState::kFree);
    load_cv_.notify_all();
    return ls;
  }
  SetState(f, for_write ? FrameState::kDirty : FrameState::kClean);
  BESS_RETURN_IF_ERROR(placement_->FinishLoad(f, for_write));
  policy_->OnInsert(f);
  if (pin) m.pins.fetch_add(1, std::memory_order_acq_rel);
  BESS_COUNT_IN(scope_, "cache.miss");
  load_cv_.notify_all();
  return FixResult{f, placement_->frame_data(f), false};
}

Status FrameTable::Unpin(uint32_t f) {
  if (f >= opts_.frame_count) return Status::InvalidArgument("bad frame");
  std::lock_guard<std::mutex> guard(mu_);
  if (meta_[f].pins.load(std::memory_order_acquire) == 0) {
    return Status::Internal("unpin of an unpinned frame");
  }
  meta_[f].pins.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

bool FrameTable::Contains(uint64_t key) {
  std::lock_guard<std::mutex> guard(mu_);
  const uint32_t f = dir_->Lookup(key);
  if (f == kNoFrame) return false;
  if (meta_[f].page_key.load(std::memory_order_acquire) != key) return false;
  return meta_[f].State() != FrameState::kFree;
}

Status FrameTable::FlushDirtyLocked(std::unique_lock<std::mutex>& lk,
                                    WritebackMode mode) {
  if (io_ == nullptr) return Status::OK();
  std::vector<uint32_t> dirty;
  uint64_t max_lsn = 0;
  for (uint32_t f = 0; f < opts_.frame_count; ++f) {
    if (StateOf(f) != FrameState::kDirty) continue;
    dirty.push_back(f);
    max_lsn =
        std::max(max_lsn, meta_[f].page_lsn.load(std::memory_order_relaxed));
  }
  if (dirty.empty()) return Status::OK();
  // LSN-ascending order + one up-front WAL gate: WAL-before-data holds for
  // every page, with one log fsync per pass instead of one per page.
  std::sort(dirty.begin(), dirty.end(), [this](uint32_t a, uint32_t b) {
    return meta_[a].page_lsn.load(std::memory_order_relaxed) <
           meta_[b].page_lsn.load(std::memory_order_relaxed);
  });
  if (max_lsn != 0) {
    lk.unlock();
    Status ws = io_->EnsureWalDurable(max_lsn);
    lk.lock();
    BESS_RETURN_IF_ERROR(ws);
  }
  for (uint32_t f : dirty) {
    if (StateOf(f) != FrameState::kDirty) continue;
    BESS_RETURN_IF_ERROR(WriteBackLocked(f, lk, mode));
  }
  return Status::OK();
}

Status FrameTable::FlushDirty() {
  std::unique_lock<std::mutex> lk(mu_);
  return FlushDirtyLocked(lk, WritebackMode::kFlush);
}

void FrameTable::CollectDirty(
    std::vector<std::pair<uint64_t, uint64_t>>* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (uint32_t f = 0; f < opts_.frame_count; ++f) {
    const FrameState st = StateOf(f);
    // kWriting counts: the write-back has not been acked durable yet, so
    // redo must still cover this page from its recLSN.
    if (st != FrameState::kDirty && st != FrameState::kWriting) continue;
    const uint64_t key = meta_[f].page_key.load(std::memory_order_acquire);
    if (key == 0) continue;
    out->emplace_back(key, meta_[f].rec_lsn.load(std::memory_order_relaxed));
  }
  out->insert(out->end(), cleaning_.begin(), cleaning_.end());
}

bool FrameTable::Get(uint64_t key, void* out) {
  if (key == 0) return false;
  std::lock_guard<std::mutex> guard(mu_);
  BESS_COUNT_IN(scope_, "cache.fix");
  const uint32_t f = dir_->Lookup(key);
  if (f == kNoFrame || meta_[f].page_key.load(std::memory_order_acquire) != key) {
    BESS_COUNT_IN(scope_, "cache.miss");
    return false;
  }
  const FrameState st = StateOf(f);
  if (st == FrameState::kFree || st == FrameState::kLoading ||
      st == FrameState::kEvicting) {
    BESS_COUNT_IN(scope_, "cache.miss");
    return false;
  }
  memcpy(out, placement_->frame_data(f), kPageSize);
  policy_->OnAccess(f);
  BESS_COUNT_IN(scope_, "cache.hit");
  return true;
}

Status FrameTable::Put(uint64_t key, const void* bytes) {
  if (key == 0) return Status::InvalidArgument("null page key");
  std::unique_lock<std::mutex> lk(mu_);
  const uint32_t f = dir_->Lookup(key);
  if (f != kNoFrame &&
      meta_[f].page_key.load(std::memory_order_acquire) == key) {
    const FrameState st = StateOf(f);
    if (st == FrameState::kLoading || st == FrameState::kEvicting ||
        st == FrameState::kWriting) {
      return Status::Busy("frame busy");
    }
    if (st != FrameState::kFree) {
      memcpy(placement_->frame_data(f), bytes, kPageSize);
      policy_->OnAccess(f);
      return Status::OK();
    }
  }
  BESS_ASSIGN_OR_RETURN(const uint32_t nf, AcquireFrameLocked(lk));
  FrameMeta& m = meta_[nf];
  m.page_key.store(key, std::memory_order_release);
  BESS_RETURN_IF_ERROR(placement_->BeginLoad(nf));
  memcpy(placement_->frame_data(nf), bytes, kPageSize);
  SetState(nf, FrameState::kClean);
  BESS_RETURN_IF_ERROR(placement_->FinishLoad(nf, false));
  BESS_RETURN_IF_ERROR(dir_->Install(key, nf));
  policy_->OnInsert(nf);
  return Status::OK();
}

Status FrameTable::Invalidate(uint64_t key) {
  std::unique_lock<std::mutex> lk(mu_);
  const uint32_t f = dir_->Lookup(key);
  if (f == kNoFrame ||
      meta_[f].page_key.load(std::memory_order_acquire) != key) {
    return Status::OK();
  }
  if (meta_[f].pins.load(std::memory_order_acquire) != 0) {
    return Status::Busy("frame pinned");
  }
  const FrameState st = StateOf(f);
  if (st == FrameState::kLoading || st == FrameState::kWriting ||
      meta_[f].writer.load(std::memory_order_acquire) != 0) {
    return Status::Busy("frame busy");
  }
  if (st == FrameState::kDirty && io_ != nullptr) {
    // Never silently drop modified data: write it back first. The mutex
    // drops during the I/O, so re-validate the frame before evicting.
    BESS_RETURN_IF_ERROR(WriteBackLocked(f, lk, WritebackMode::kFlush));
    if (meta_[f].page_key.load(std::memory_order_acquire) != key) {
      return Status::OK();
    }
    if (meta_[f].pins.load(std::memory_order_acquire) != 0) {
      return Status::Busy("frame pinned");
    }
    if (StateOf(f) != FrameState::kClean) return Status::Busy("frame busy");
  }
  return EvictLocked(f);
}

Status FrameTable::Clear(bool flush) {
  std::unique_lock<std::mutex> lk(mu_);
  if (flush) {
    BESS_RETURN_IF_ERROR(FlushDirtyLocked(lk, WritebackMode::kFlush));
  }
  for (uint32_t f = 0; f < opts_.frame_count; ++f) {
    if (meta_[f].pins.load(std::memory_order_acquire) != 0) continue;
    FrameState st = StateOf(f);
    if (flush && st == FrameState::kDirty && io_ != nullptr) {
      // Re-dirtied since (or during) the flush pass: write it back rather
      // than dropping the update. The mutex drops during the I/O, so
      // re-validate below before evicting.
      BESS_RETURN_IF_ERROR(WriteBackLocked(f, lk, WritebackMode::kFlush));
      if (meta_[f].pins.load(std::memory_order_acquire) != 0) continue;
      st = StateOf(f);
    }
    if (st == FrameState::kFree || st == FrameState::kLoading ||
        st == FrameState::kWriting ||
        meta_[f].writer.load(std::memory_order_acquire) != 0 ||
        (flush && st == FrameState::kDirty)) {
      continue;
    }
    BESS_RETURN_IF_ERROR(EvictLocked(f));
  }
  return Status::OK();
}

Status FrameTable::ScanRange(uint64_t first_key, uint32_t count,
                             const ScanConsumer& consume) {
  if (first_key == 0) return Status::InvalidArgument("null page key");
  return ScanOrdered(
      count, [first_key](uint32_t i) { return first_key + i; }, consume);
}

Status FrameTable::ScanKeys(const std::vector<uint64_t>& keys,
                            const ScanConsumer& consume) {
  for (uint64_t k : keys) {
    if (k == 0) return Status::InvalidArgument("null page key");
  }
  return ScanOrdered(static_cast<uint32_t>(keys.size()),
                     [&keys](uint32_t i) { return keys[i]; }, consume);
}

Status FrameTable::ScanOrdered(uint32_t count,
                               const std::function<uint64_t(uint32_t)>& key_at,
                               const ScanConsumer& consume) {
  if (count == 0) return Status::OK();

  // Pull fallback: no async backend (or an external directory, where this
  // process must not claim frames off the demand path) — a plain Fix loop.
  if (aio_ == nullptr || opts_.directory != nullptr) {
    for (uint32_t idx = 0; idx < count; ++idx) {
      const uint64_t key = key_at(idx);
      BESS_ASSIGN_OR_RETURN(FixResult r, Fix(key, /*for_write=*/false,
                                             /*pin=*/true));
      Status cs = consume(key, r.data);
      (void)Unpin(r.frame);
      BESS_RETURN_IF_ERROR(cs);
      BESS_COUNT_IN(scope_, "cache.scan.pages");
      BESS_COUNT_IN(scope_, "cache.scan.fallback");
    }
    return Status::OK();
  }

  std::unique_lock<std::mutex> lk(mu_);
  uint32_t next_idx = 0;  // first position not yet staged/considered

  // Pushes reads for upcoming keys into claimed kLoading frames until the
  // queue depth is reached. Resident keys are skipped (consumed from cache
  // below); claim failures stop the wave — later keys retry next call.
  // Consecutive keys in the list stage as one run (coalescible downstream);
  // a discontinuity just ends the run, the next wave picks up after it.
  auto stage = [&]() {
    while (next_idx < count && aio_inflight_ < opts_.async_queue_depth) {
      const uint64_t key0 = key_at(next_idx);
      if (dir_->Lookup(key0) != kNoFrame) {
        ++next_idx;
        continue;
      }
      const uint32_t cap = std::min<uint32_t>(
          count - next_idx, opts_.async_queue_depth - aio_inflight_);
      uint32_t want = 1;
      while (want < cap && key_at(next_idx + want) == key0 + want) ++want;
      std::vector<uint32_t> frames;
      ClaimLoadingRunLocked(key0, want, &frames);
      if (frames.empty()) return;
      const uint32_t n = static_cast<uint32_t>(frames.size());
      std::vector<AsyncPageIo::Request> reqs(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t f = frames[i];
        reqs[i].write = false;
        reqs[i].key = key0 + i;
        reqs[i].buf = placement_->frame_data(f);
        reqs[i].user_data = f;
        aio_pending_[f] = PendingAio{AioOp::kScanRead, key0 + i};
      }
      aio_inflight_ += n;
      scan_inflight_ += n;
      BESS_HIST("cache.scan.depth", scan_inflight_);
      next_idx += n;
      lk.unlock();
      const Status ss = aio_->Submit(reqs.data(), n);
      BESS_COUNT_N_IN(scope_, "cache.scan.staged", n);
      lk.lock();
      if (!ss.ok()) {
        for (uint32_t i = 0; i < n; ++i) {
          const uint32_t f = frames[i];
          aio_pending_[f] = PendingAio{};
          aio_inflight_--;
          scan_inflight_--;
          dir_->Erase(key0 + i, f);
          meta_[f].page_key.store(0, std::memory_order_release);
          SetState(f, FrameState::kFree);
        }
        load_cv_.notify_all();
        return;
      }
    }
  };

  // Drains this scan's outstanding reads before any return: an abandoned
  // kLoading frame would leak, and its buffer must stay valid meanwhile.
  auto drain = [&]() {
    for (int spins = 0; scan_inflight_ > 0 && spins < 200; ++spins) {
      (void)ReapAioLocked(lk, 50);
    }
  };

  stage();
  for (uint32_t idx = 0; idx < count; ++idx) {
    const uint64_t key = key_at(idx);
    for (;;) {
      const uint32_t f = dir_->Lookup(key);
      if (f != kNoFrame &&
          meta_[f].page_key.load(std::memory_order_acquire) == key) {
        const FrameState st = StateOf(f);
        if (st == FrameState::kLoading) {
          if (aio_inflight_ > 0) {
            (void)ReapAioLocked(lk, 1);
          } else {
            load_cv_.wait_for(lk, kLoadPoll);
          }
          continue;
        }
        if (st != FrameState::kFree && st != FrameState::kEvicting) {
          // Consumable. Pin so the frame survives the unlocked callback;
          // no policy promotion — a scan must not flush the hot set.
          meta_[f].pins.fetch_add(1, std::memory_order_acq_rel);
          if (meta_[f].prefetched.exchange(0, std::memory_order_relaxed) !=
              0) {
            BESS_COUNT_IN(scope_, "cache.prefetch.hits");
          }
          BESS_COUNT_IN(scope_, "cache.scan.pages");
          lk.unlock();
          const Status cs = consume(key, placement_->frame_data(f));
          lk.lock();
          meta_[f].pins.fetch_sub(1, std::memory_order_acq_rel);
          if (!cs.ok()) {
            drain();
            return cs;
          }
          // Refill the staging window as the consumer advances — without
          // this the scan degenerates into batch-synchronous waves (stage
          // queue_depth, drain it dry, stage again) and device time stops
          // overlapping consumer compute.
          stage();
          break;
        }
      }
      // Not resident: try to stage it (frames may have freed up); when
      // that fails too, fall back to a demand fix — the pull path.
      stage();
      if (dir_->Lookup(key) != kNoFrame) continue;
      BESS_COUNT_IN(scope_, "cache.scan.fallback");
      lk.unlock();
      auto r = Fix(key, /*for_write=*/false, /*pin=*/true);
      if (!r.ok()) {
        lk.lock();
        drain();
        return r.status();
      }
      const Status cs = consume(key, r->data);
      (void)Unpin(r->frame);
      lk.lock();
      BESS_COUNT_IN(scope_, "cache.scan.pages");
      if (!cs.ok()) {
        drain();
        return cs;
      }
      break;
    }
    stage();  // keep the pipeline deep while the consumer works
  }
  drain();
  return Status::OK();
}

// ---- async pipeline ---------------------------------------------------------

void FrameTable::ClaimLoadingRunLocked(uint64_t first, uint32_t count,
                                       std::vector<uint32_t>* frames) {
  // Never evict a staged-but-unconsumed speculative load to stage another:
  // completed scan-staged pages are clean, unpinned and ranked coldest,
  // which made them prime PickIdle victims — deep queues cannibalized
  // their own window and every cannibalized page came back as a full-
  // latency demand fix (cache.scan.fallback). The demand path can still
  // evict staged frames, so a truly wasted staged read is reclaimed there
  // (and counted cache.prefetch.wasted), not leaked.
  auto clean = [&](uint32_t f) {
    return EvictableLocked(f, false) &&
           meta_[f].prefetched.load(std::memory_order_relaxed) == 0;
  };
  for (uint32_t i = 0; i < count; ++i) {
    if (dir_->Lookup(first + i) != kNoFrame) break;
    // PickIdle: no ref bits cleared, no demotions — speculative loads
    // must not burn a resident page's second chance.
    const uint32_t f = policy_->PickIdle(clean);
    if (f == kNoFrame) break;
    if (!EvictLocked(f).ok()) break;
    meta_[f].page_key.store(first + i, std::memory_order_release);
    SetState(f, FrameState::kLoading);
    if (!dir_->Install(first + i, f).ok() || !placement_->BeginLoad(f).ok()) {
      dir_->Erase(first + i, f);
      meta_[f].page_key.store(0, std::memory_order_release);
      SetState(f, FrameState::kFree);
      break;
    }
    frames->push_back(f);
  }
}

void FrameTable::ProcessAioLocked(
    const aio::AioCompletion* cs, uint32_t n,
    std::vector<std::pair<uint64_t, uint64_t>>* cleaned) {
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t f = static_cast<uint32_t>(cs[i].user_data);
    if (f >= opts_.frame_count) continue;
    const PendingAio p = aio_pending_[f];
    if (p.op == AioOp::kNone) continue;
    aio_pending_[f] = PendingAio{};
    aio_inflight_--;
    if (p.op == AioOp::kScanRead) scan_inflight_--;
    FrameMeta& m = meta_[f];
    const bool ok = cs[i].status.ok();
    if (p.op == AioOp::kScanRead) {
      if (ok) {
        (void)placement_->FinishLoad(f, false);
        SetState(f, FrameState::kClean);
        m.prefetched.store(1, std::memory_order_relaxed);
        // No policy OnInsert: an undemanded page should rank coldest so
        // wasted speculative loads recycle first.
        BESS_COUNT_IN(scope_, "cache.prefetch.issued");
      } else {
        // Unwind exactly like a failed demand load: the next Fix of this
        // key misses and surfaces the store error on its own fetch.
        dir_->Erase(p.key, f);
        m.page_key.store(0, std::memory_order_release);
        SetState(f, FrameState::kFree);
      }
    } else {  // kFlushWrite — the async tail of WriteBackLocked
      if (ok) {
        uint8_t expected = static_cast<uint8_t>(FrameState::kWriting);
        bool now_clean = false;
        uint64_t cleaned_rec_lsn = 0;
        // Fails when the frame was re-dirtied mid-flight: it stays kDirty
        // and is written again later (same losslessness as the sync path).
        if (m.state.compare_exchange_strong(
                expected, static_cast<uint8_t>(FrameState::kClean),
                std::memory_order_acq_rel)) {
          now_clean = true;
          cleaned_rec_lsn = m.rec_lsn.exchange(0, std::memory_order_relaxed);
        }
        (void)placement_->FinishWriteback(f, true);
        m.writer.store(0, std::memory_order_release);
        BESS_COUNT_IN(scope_, "cache.writeback");
        BESS_COUNT_IN(scope_, "cache.bgwriter.flushed");
        if (now_clean && opts_.on_cleaned) {
          cleaned->emplace_back(p.key, cleaned_rec_lsn);
          cleaning_.emplace_back(p.key, cleaned_rec_lsn);
        }
      } else {
        if (m.State() == FrameState::kWriting) SetState(f, FrameState::kDirty);
        (void)placement_->FinishWriteback(f, false);
        m.writer.store(0, std::memory_order_release);
        BESS_COUNT_IN(scope_, "cache.bgwriter.error");
      }
    }
  }
  cleaned_cv_.notify_all();
  load_cv_.notify_all();
}

uint32_t FrameTable::ReapAioLocked(std::unique_lock<std::mutex>& lk,
                                   uint32_t timeout_ms) {
  if (aio_ == nullptr || aio_inflight_ == 0) return 0;
  aio::AioCompletion buf[32];
  lk.unlock();
  const uint32_t n = aio_->Reap(buf, 32, timeout_ms);
  lk.lock();
  if (n == 0) return 0;
  std::vector<std::pair<uint64_t, uint64_t>> cleaned;
  ProcessAioLocked(buf, n, &cleaned);
  if (!cleaned.empty()) ReportCleanedLocked(lk, cleaned);
  return n;
}

void FrameTable::ReportCleanedLocked(
    std::unique_lock<std::mutex>& lk,
    const std::vector<std::pair<uint64_t, uint64_t>>& cleaned) {
  // Without the mutex: the checkpoint thread holds its recovery mutex
  // across CollectDirty (which takes mu_), and the callback takes that
  // same recovery mutex — firing under mu_ would invert the order. The
  // frame may be re-dirtied or evicted by the time the callback runs;
  // that's fine, the callback only parks (key, recLSN) conservatively.
  // Until it returns, cleaning_ keeps the page in CollectDirty's view: a
  // checkpoint snapshot in between would otherwise find it in neither
  // table and set the redo floor past its unsynced write.
  lk.unlock();
  for (const auto& [key, rec] : cleaned) opts_.on_cleaned(key, rec);
  lk.lock();
  for (const auto& entry : cleaned) {
    auto it = std::find(cleaning_.begin(), cleaning_.end(), entry);
    if (it != cleaning_.end()) cleaning_.erase(it);
  }
}

// ---- bgwriter ---------------------------------------------------------------

void FrameTable::BgFlushRoundLocked(std::unique_lock<std::mutex>& lk) {
  if (!opts_.enable_bgwriter || io_ == nullptr) return;
  const bool urgent = urgent_flush_;
  urgent_flush_ = false;
  auto is_dirty = [&](uint32_t f) {
    // Skip frames another flusher already has in flight — WriteBackLocked
    // would skip them anyway; don't burn batch slots on them.
    return StateOf(f) == FrameState::kDirty &&
           meta_[f].writer.load(std::memory_order_acquire) == 0;
  };
  std::vector<uint32_t> cand;
  if (urgent) {
    for (uint32_t f = 0; f < opts_.frame_count; ++f) {
      if (is_dirty(f)) cand.push_back(f);
    }
  } else {
    policy_->FlushHorizon(kBgwriterLookahead, is_dirty, &cand);
    if (cand.size() > kBgwriterBatch) cand.resize(kBgwriterBatch);
  }
  if (cand.empty()) return;
  if (aio_ != nullptr) {
    AsyncBgFlushBatchLocked(lk, cand);
    BESS_COUNT_IN(scope_, "cache.bgwriter.round");
    return;
  }
  uint64_t max_lsn = 0;
  for (uint32_t f : cand) {
    max_lsn =
        std::max(max_lsn, meta_[f].page_lsn.load(std::memory_order_relaxed));
  }
  std::sort(cand.begin(), cand.end(), [this](uint32_t a, uint32_t b) {
    return meta_[a].page_lsn.load(std::memory_order_relaxed) <
           meta_[b].page_lsn.load(std::memory_order_relaxed);
  });
  if (max_lsn != 0) {
    lk.unlock();
    const Status ws = io_->EnsureWalDurable(max_lsn);
    lk.lock();
    if (!ws.ok()) {
      BESS_COUNT_IN(scope_, "cache.bgwriter.error");
      return;
    }
  }
  uint32_t flushed = 0;
  for (uint32_t f : cand) {
    if (StateOf(f) != FrameState::kDirty) continue;
    const Status ws = WriteBackLocked(f, lk, WritebackMode::kBackground);
    if (!ws.ok()) {
      // The frame stays dirty; the store may recover (transient injected
      // faults) — keep the thread alive and retry on a later round.
      BESS_COUNT_IN(scope_, "cache.bgwriter.error");
      break;
    }
    ++flushed;
  }
  BESS_COUNT_IN(scope_, "cache.bgwriter.round");
  if (flushed != 0) BESS_HIST("cache.bgwriter.batch_size", flushed);
}

void FrameTable::AsyncBgFlushBatchLocked(std::unique_lock<std::mutex>& lk,
                                         const std::vector<uint32_t>& cand) {
  // Claim the whole batch under the mutex first: writer flag + kWriting
  // make each frame untouchable, so keys and buffers stay stable across
  // the unlocked stretch below.
  std::vector<uint32_t> batch;
  batch.reserve(cand.size());
  std::vector<AsyncPageIo::Request> reqs;
  reqs.reserve(cand.size());
  uint64_t max_lsn = 0;
  for (uint32_t f : cand) {
    if (aio_inflight_ + batch.size() >= opts_.async_queue_depth) break;
    FrameMeta& m = meta_[f];
    if (StateOf(f) != FrameState::kDirty) continue;
    uint8_t unclaimed = 0;
    if (!m.writer.compare_exchange_strong(unclaimed, 1,
                                          std::memory_order_acq_rel)) {
      continue;  // another flusher owns it
    }
    SetState(f, FrameState::kWriting);
    const uint64_t key = m.page_key.load(std::memory_order_acquire);
    const uint64_t lsn = m.page_lsn.load(std::memory_order_relaxed);
    aio_pending_[f] = PendingAio{AioOp::kFlushWrite, key};
    batch.push_back(f);
    AsyncPageIo::Request r;
    r.write = true;
    r.key = key;
    r.buf = placement_->frame_data(f);
    r.user_data = f;
    reqs.push_back(r);
    max_lsn = std::max(max_lsn, lsn);
  }
  if (batch.empty()) return;
  // Key-ascending submission order: the single WAL gate below covers the
  // whole batch regardless of in-batch order, so sorting costs nothing —
  // and it lets the async worker pool merge consecutive-key pages into one
  // device write (AioStats::write_runs), the write-side mirror of the
  // scan path's read coalescing.
  std::sort(reqs.begin(), reqs.end(),
            [](const AsyncPageIo::Request& a, const AsyncPageIo::Request& b) {
              return a.key < b.key;
            });
  const uint32_t n = static_cast<uint32_t>(batch.size());
  aio_inflight_ += n;
  lk.unlock();
  Status ws;
  for (uint32_t f : batch) {
    // Same structural invariant as WriteBackLocked: the frame is made
    // readable before any I/O can touch it.
    ws = placement_->PrepareForWriteback(f);
    if (!ws.ok()) break;
  }
  if (ws.ok()) {
    // Covering LSNs re-read only now, with every frame latched by its
    // placement: a mutator may have rewritten bytes between the claim and
    // the latch, and the gate must cover whatever images the I/O reads.
    for (uint32_t f : batch) {
      max_lsn = std::max(max_lsn,
                         meta_[f].page_lsn.load(std::memory_order_acquire));
    }
  }
  // ONE durability gate covers the whole batch (WAL-before-data for its
  // highest LSN implies it for every member) — this is the submission-
  // batching win the scan bench measures against per-page gating.
  if (ws.ok() && max_lsn != 0) ws = io_->EnsureWalDurable(max_lsn);
  if (ws.ok()) ws = aio_->Submit(reqs.data(), n);
  lk.lock();
  if (!ws.ok()) {
    // Nothing was queued (Submit is all-or-nothing): release every claim.
    for (uint32_t f : batch) {
      aio_pending_[f] = PendingAio{};
      aio_inflight_--;
      if (StateOf(f) == FrameState::kWriting) SetState(f, FrameState::kDirty);
      (void)placement_->FinishWriteback(f, false);
      meta_[f].writer.store(0, std::memory_order_release);
    }
    BESS_COUNT_IN(scope_, "cache.bgwriter.error");
    cleaned_cv_.notify_all();
    return;
  }
  BESS_COUNT_IN(scope_, "cache.bgwriter.async_batch");
  BESS_HIST("cache.bgwriter.batch_size", n);
}

void FrameTable::BackgroundMain() {
  std::unique_lock<std::mutex> lk(mu_);
  while (running_) {
    // With async ops in flight, tick fast to reap completions promptly;
    // otherwise sleep out the bgwriter interval.
    const bool pipeline_busy = aio_ != nullptr && aio_inflight_ > 0;
    bg_cv_.wait_for(
        lk,
        std::chrono::milliseconds(pipeline_busy ? 1
                                                : opts_.bgwriter_interval_ms),
        [&] { return !running_ || urgent_flush_; });
    if (!running_) break;
    if (aio_ != nullptr) (void)ReapAioLocked(lk, 0);
    BgFlushRoundLocked(lk);
  }
}

}  // namespace bess
