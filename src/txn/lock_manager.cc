#include "txn/lock_manager.h"

#include <chrono>

#include "hooks/hooks.h"
#include "obs/trace.h"

namespace bess {

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIS: return "IS";
    case LockMode::kIX: return "IX";
    case LockMode::kS: return "S";
    case LockMode::kSIX: return "SIX";
    case LockMode::kX: return "X";
  }
  return "?";
}

bool LockCompatible(LockMode held, LockMode want) {
  // Standard hierarchical locking compatibility matrix.
  static constexpr bool kCompat[5][5] = {
      //            IS     IX     S      SIX    X      (want)
      /* IS  */ {true, true, true, true, false},
      /* IX  */ {true, true, false, false, false},
      /* S   */ {true, false, true, false, false},
      /* SIX */ {true, false, false, false, false},
      /* X   */ {false, false, false, false, false},
  };
  return kCompat[static_cast<int>(held)][static_cast<int>(want)];
}

LockMode LockJoin(LockMode a, LockMode b) {
  if (a == b) return a;
  auto is = [](LockMode m, LockMode x) { return m == x; };
  // X absorbs everything.
  if (is(a, LockMode::kX) || is(b, LockMode::kX)) return LockMode::kX;
  // SIX joins.
  if (is(a, LockMode::kSIX) || is(b, LockMode::kSIX)) {
    return LockMode::kSIX;
  }
  if ((is(a, LockMode::kS) && is(b, LockMode::kIX)) ||
      (is(a, LockMode::kIX) && is(b, LockMode::kS))) {
    return LockMode::kSIX;
  }
  if (is(a, LockMode::kS) || is(b, LockMode::kS)) return LockMode::kS;
  if (is(a, LockMode::kIX) || is(b, LockMode::kIX)) return LockMode::kIX;
  return LockMode::kIS;
}

bool LockManager::GrantableLocked(const LockEntry& entry, TxnId txn,
                                  LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) continue;  // upgrades judged against others only
    if (!LockCompatible(h.mode, mode)) return false;
  }
  return true;
}

Status LockManager::Acquire(TxnId txn, uint64_t key, LockMode mode,
                            int timeout_ms) {
  return AcquireInternal(txn, key, mode,
                         timeout_ms < 0 ? default_timeout_ms_ : timeout_ms,
                         /*blocking=*/true);
}

Status LockManager::TryAcquire(TxnId txn, uint64_t key, LockMode mode) {
  return AcquireInternal(txn, key, mode, 0, /*blocking=*/false);
}

Status LockManager::AcquireInternal(TxnId txn, uint64_t key, LockMode mode,
                                    int timeout_ms, bool blocking) {
  Shard& sh = ShardFor(key);
  std::unique_lock<std::mutex> lk(sh.mu);
  BESS_COUNT_IN(scope_, "txn.lock.acquire");

  LockEntry& entry = sh.table[key];
  // Already holding: no-op or upgrade.
  LockMode target = mode;
  Holder* mine = nullptr;
  for (Holder& h : entry.holders) {
    if (h.txn == txn) {
      mine = &h;
      target = LockJoin(h.mode, mode);
      if (target == h.mode) return Status::OK();  // equal or weaker
      break;
    }
  }

  if (GrantableLocked(entry, txn, target)) {
    if (mine != nullptr) {
      mine->mode = target;
      BESS_COUNT_IN(scope_, "txn.lock.upgrade");
    } else {
      entry.holders.push_back(Holder{txn, target});
      sh.by_txn[txn].insert(key);
      BESS_COUNT_IN(scope_, "txn.lock.immediate_grant");
    }
    EventContext ctx;
    ctx.a = key;
    ctx.b = static_cast<uint64_t>(target);
    (void)FireEvent(Event::kLockAcquire, ctx);
    return Status::OK();
  }

  if (!blocking) {
    return Status::Busy("lock " + std::to_string(key) + " held in conflicting mode");
  }

  BESS_COUNT_IN(scope_, "txn.lock.wait");
  entry.waiters++;
  const uint64_t wait_start_ns = obs::Trace::NowNs();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Re-checks grantability for this waiter; grants and clears the wait if
  // possible. Shared by the wakeup and the timeout-victim paths.
  auto try_grant_locked = [&]() -> bool {
    LockEntry& e = sh.table[key];
    // Re-resolve our holder entry (vector may have changed).
    Holder* me = nullptr;
    LockMode tgt = mode;
    for (Holder& h : e.holders) {
      if (h.txn == txn) {
        me = &h;
        tgt = LockJoin(h.mode, mode);
        break;
      }
    }
    if (!GrantableLocked(e, txn, tgt)) return false;
    if (me != nullptr) {
      me->mode = tgt;
      BESS_COUNT_IN(scope_, "txn.lock.upgrade");
    } else {
      e.holders.push_back(Holder{txn, tgt});
      sh.by_txn[txn].insert(key);
    }
    e.waiters--;
    BESS_HIST("txn.lock.wait.latency", obs::Trace::NowNs() - wait_start_ns);
    EventContext ctx;
    ctx.a = key;
    ctx.b = static_cast<uint64_t>(tgt);
    (void)FireEvent(Event::kLockAcquire, ctx);
    return true;
  };
  for (;;) {
    if (sh.cv.wait_until(lk, deadline) == std::cv_status::timeout) {
      // Timeout stands in for deadlock detection (paper §3). Before
      // declaring this waiter the victim, take the global detector mutex
      // (never held together with a shard mutex by anyone else) and give
      // grantability one last look: a release on another shard's resource
      // chain may have unblocked us exactly as the clock ran out, and a
      // grant beats a spurious abort. The detector mutex serializes victim
      // passes so concurrent timeouts across shards pick victims one at a
      // time against a stable table.
      lk.unlock();
      std::lock_guard<std::mutex> victim_pass(detector_mu_);
      lk.lock();
      if (try_grant_locked()) return Status::OK();
      sh.table[key].waiters--;
      BESS_COUNT_IN(scope_, "txn.lock.timeout");
      BESS_HIST("txn.lock.wait.latency", obs::Trace::NowNs() - wait_start_ns);
      EventContext ctx;
      ctx.a = key;
      (void)FireEvent(Event::kDeadlock, ctx);
      return Status::Deadlock("lock wait timeout on key " +
                              std::to_string(key) + " (" +
                              LockModeName(mode) + ")");
    }
    if (try_grant_locked()) return Status::OK();
  }
}

Status LockManager::Release(TxnId txn, uint64_t key) {
  Shard& sh = ShardFor(key);
  std::unique_lock<std::mutex> lk(sh.mu);
  auto it = sh.table.find(key);
  if (it == sh.table.end()) return Status::NotFound("lock not held");
  auto& holders = it->second.holders;
  for (size_t i = 0; i < holders.size(); ++i) {
    if (holders[i].txn == txn) {
      holders.erase(holders.begin() + static_cast<long>(i));
      sh.by_txn[txn].erase(key);
      EventContext ctx;
      ctx.a = key;
      (void)FireEvent(Event::kLockRelease, ctx);
      if (holders.empty() && it->second.waiters == 0) sh.table.erase(it);
      sh.cv.notify_all();
      return Status::OK();
    }
  }
  return Status::NotFound("lock not held by txn");
}

void LockManager::ReleaseAll(TxnId txn) {
  // A transaction's locks spread over all shards; visit each (end of
  // transaction — cold relative to Acquire).
  for (Shard& sh : shards_) {
    std::unique_lock<std::mutex> lk(sh.mu);
    auto it = sh.by_txn.find(txn);
    if (it == sh.by_txn.end()) continue;
    for (uint64_t key : it->second) {
      auto te = sh.table.find(key);
      if (te == sh.table.end()) continue;
      auto& holders = te->second.holders;
      for (size_t i = 0; i < holders.size(); ++i) {
        if (holders[i].txn == txn) {
          holders.erase(holders.begin() + static_cast<long>(i));
          break;
        }
      }
      if (holders.empty() && te->second.waiters == 0) sh.table.erase(te);
    }
    sh.by_txn.erase(it);
    sh.cv.notify_all();
  }
}

bool LockManager::Holds(TxnId txn, uint64_t key, LockMode* mode) const {
  Shard& sh = ShardFor(key);
  std::unique_lock<std::mutex> lk(sh.mu);
  auto it = sh.table.find(key);
  if (it == sh.table.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn == txn) {
      if (mode != nullptr) *mode = h.mode;
      return true;
    }
  }
  return false;
}

bool LockManager::Conflicts(TxnId txn, uint64_t key, LockMode mode) const {
  Shard& sh = ShardFor(key);
  std::unique_lock<std::mutex> lk(sh.mu);
  auto it = sh.table.find(key);
  if (it == sh.table.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn != txn && !LockCompatible(h.mode, mode)) return true;
  }
  return false;
}

std::vector<uint64_t> LockManager::HeldKeys(TxnId txn) const {
  std::vector<uint64_t> out;
  for (const Shard& sh : shards_) {
    std::unique_lock<std::mutex> lk(sh.mu);
    auto it = sh.by_txn.find(txn);
    if (it == sh.by_txn.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<std::pair<TxnId, LockMode>> LockManager::Holders(
    uint64_t key) const {
  Shard& sh = ShardFor(key);
  std::unique_lock<std::mutex> lk(sh.mu);
  std::vector<std::pair<TxnId, LockMode>> out;
  auto it = sh.table.find(key);
  if (it != sh.table.end()) {
    for (const Holder& h : it->second.holders) out.emplace_back(h.txn, h.mode);
  }
  return out;
}

}  // namespace bess
