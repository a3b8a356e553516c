// Lock manager: strict two-phase locking with intention modes and
// timeout-based deadlock detection (paper §3: "The strict two phase locking
// algorithm is used for concurrency control ... timeouts are used for
// distributed deadlock detection").
//
// Resources are 64-bit keys; helpers build keys for pages, segments, and
// whole files so intention locking can layer them hierarchically. Locks are
// held by transaction id and released together at end of transaction
// (strictness). Lock *caching* across transactions (paper §3) is layered on
// top by the client cache: a cached lock is simply not released at commit
// and is given back when a callback arrives.
#ifndef BESS_TXN_LOCK_MANAGER_H_
#define BESS_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/scope.h"
#include "util/config.h"
#include "util/status.h"

namespace bess {

using TxnId = uint64_t;
inline constexpr TxnId kNoTxn = 0;

/// Lock modes, ordered so that higher values are "stronger" only within
/// {S, X}; compatibility is given by the standard matrix.
enum class LockMode : uint8_t { kIS = 0, kIX, kS, kSIX, kX };

const char* LockModeName(LockMode m);

/// True when a holder in `held` allows a requester in `want`.
bool LockCompatible(LockMode held, LockMode want);

/// The least mode at least as strong as both (lattice join); used for
/// upgrades (e.g. S + IX -> SIX).
LockMode LockJoin(LockMode a, LockMode b);

/// Resource key builders (top 4 bits tag the namespace).
struct LockKey {
  static uint64_t Page(uint16_t db, uint16_t area, uint32_t page) {
    return (1ull << 60) | ((static_cast<uint64_t>(db) & 0xFFF) << 48) |
           (static_cast<uint64_t>(area) << 32) | page;
  }
  static uint64_t Segment(uint64_t packed_segment_id) {
    return (2ull << 60) | (packed_segment_id & 0x0FFFFFFFFFFFFFFFull);
  }
  static uint64_t File(uint16_t db, uint16_t file_id) {
    return (3ull << 60) | (static_cast<uint64_t>(db) << 16) | file_id;
  }
  static uint64_t Database(uint16_t db) { return (4ull << 60) | db; }

  static bool IsPage(uint64_t key) { return (key >> 60) == 1; }
  static bool IsSegment(uint64_t key) { return (key >> 60) == 2; }
  /// Inverse of Page(); valid only when IsPage(key).
  static void UnpackPage(uint64_t key, uint16_t* db, uint16_t* area,
                         uint32_t* page) {
    *db = static_cast<uint16_t>((key >> 48) & 0xFFF);
    *area = static_cast<uint16_t>((key >> 32) & 0xFFFF);
    *page = static_cast<uint32_t>(key & 0xFFFFFFFFu);
  }
  /// Inverse of Segment(); valid only when IsSegment(key).
  static uint64_t UnpackSegment(uint64_t key) {
    return key & 0x0FFFFFFFFFFFFFFFull;
  }
};

/// The lock table is hash-partitioned into kLockShards shards, each with its
/// own mutex + condition variable, so sessions locking disjoint resources
/// never serialize on one manager-wide mutex. A shard is picked by a
/// Fibonacci hash of the key; a transaction's locks spread across shards, so
/// ReleaseAll/HeldKeys visit every shard (cold paths). Timeout-based
/// deadlock detection stays correct across shards: a waiter that times out
/// first takes the rarely-contended detector mutex and re-checks
/// grantability once more before declaring itself the victim — a grant that
/// raced with the timeout wins over a spurious abort.
inline constexpr uint32_t kLockShards = 16;

class LockManager {
 public:
  explicit LockManager(int default_timeout_ms = kLockTimeoutMillis)
      : default_timeout_ms_(default_timeout_ms) {}

  /// Acquires (or upgrades to) `mode` on `key` for `txn`. Blocks up to
  /// `timeout_ms` (default: manager default); a timeout returns kDeadlock —
  /// the caller should abort the transaction (paper: timeouts stand in for
  /// deadlock detection). Re-acquiring an equal or weaker mode is a no-op.
  Status Acquire(TxnId txn, uint64_t key, LockMode mode, int timeout_ms = -1);

  /// Non-blocking acquire: kBusy instead of waiting.
  Status TryAcquire(TxnId txn, uint64_t key, LockMode mode);

  /// Releases one lock (used by callback handling / lock de-caching).
  Status Release(TxnId txn, uint64_t key);

  /// Releases everything `txn` holds (end of transaction; strict 2PL).
  void ReleaseAll(TxnId txn);

  /// Mode `txn` holds on `key`, or nullopt-ish: returns false if none.
  bool Holds(TxnId txn, uint64_t key, LockMode* mode = nullptr) const;

  /// True if some other transaction holds a lock on `key` incompatible
  /// with `mode` (used by the server's callback decision).
  bool Conflicts(TxnId txn, uint64_t key, LockMode mode) const;

  /// All keys held by txn (lock caching: the set to retain at commit).
  std::vector<uint64_t> HeldKeys(TxnId txn) const;

  /// All transactions holding `key` and their modes (callback targets).
  std::vector<std::pair<TxnId, LockMode>> Holders(uint64_t key) const;

  /// txn.lock.* counters for benches (messages & waits are the currencies
  /// the paper's related work optimizes).
  Stats stats() const { return scope_.Snapshot(); }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct LockEntry {
    std::vector<Holder> holders;
    uint32_t waiters = 0;
  };
  /// One lock-table partition. Padded to a cache line so shard mutexes do
  /// not false-share under contention.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, LockEntry> table;
    /// Keys of *this shard* held per transaction (ReleaseAll/HeldKeys
    /// gather across all shards).
    std::unordered_map<TxnId, std::unordered_set<uint64_t>> by_txn;
  };

  static uint32_t ShardIndex(uint64_t key) {
    // Fibonacci hash: the key namespaces pack structure into high and low
    // bits; multiply-shift mixes both into the shard index.
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 59) %
           kLockShards;
  }
  Shard& ShardFor(uint64_t key) const { return shards_[ShardIndex(key)]; }

  Status AcquireInternal(TxnId txn, uint64_t key, LockMode mode,
                         int timeout_ms, bool blocking);
  static bool GrantableLocked(const LockEntry& entry, TxnId txn,
                              LockMode mode);

  mutable Shard shards_[kLockShards];
  /// Serializes timed-out waiters' victim passes across shards; taken only
  /// on the timeout path, never while holding a shard mutex.
  std::mutex detector_mu_;
  int default_timeout_ms_;
  obs::Scope scope_;
};

}  // namespace bess

#endif  // BESS_TXN_LOCK_MANAGER_H_
