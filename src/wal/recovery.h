// ARIES-style restart recovery: analysis, redo (repeating history), undo
// with compensation records.
//
// Analysis reads the fuzzy checkpoint (log_record.h kCheckpoint) named by
// the master record, if any, for the redo floor — min over the snapshot's
// dirty-page recLSNs and active transactions' first LSNs. One forward scan
// from that floor (the start of the retained log without a checkpoint) then
// rebuilds the transaction table and blindly reapplies every after-image in
// LSN order. Restart cost is bounded by the dirty set at the last
// checkpoint, not log length, and each retained record is read once.
#ifndef BESS_WAL_RECOVERY_H_
#define BESS_WAL_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "wal/log_manager.h"

namespace bess {

/// Where recovered page images land (the storage areas, or a test double).
/// `lsn` is the LSN of the log record being applied (kNullLsn for undo
/// before-images) so the sink can stamp page trailers (DESIGN.md §7).
class PageSink {
 public:
  virtual ~PageSink() = default;
  virtual Status WritePage(PageAddr addr, const void* bytes, Lsn lsn) = 0;
  virtual Status Sync() = 0;
};

struct RecoveryOptions {
  /// Logical undo hook for index records (DESIGN.md §14). Called during the
  /// undo pass for each loser kIndexPut/kIndexDelete: the callback must
  /// reverse the logical operation against the *recovered* tree (re-descend;
  /// a split may have moved the key) and append a CLR whose prev_lsn is
  /// `chain_tail` and whose undo_next is the record's prev_lsn, returning
  /// the CLR's LSN in *new_tail. When null, index records are skipped (the
  /// caller has no live trees — tests exercising only object pages).
  std::function<Status(const LogRecord& rec, Lsn chain_tail, Lsn* new_tail)>
      index_undo;
};

struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t redo_pages = 0;
  uint64_t undo_records = 0;
  uint64_t clrs_written = 0;
  uint64_t loser_txns = 0;
  uint64_t winner_txns = 0;
  Lsn redo_start_lsn = kNullLsn;  ///< where redo began (the recLSN floor)
  Lsn recovered_tail_lsn = kNullLsn;  ///< log tail after the torn-tail scan
  bool torn_tail = false;  ///< the log ended in a truncated/garbage record
};

/// Runs ARIES restart over `log`, applying page images to `sink`.
/// Safe to re-run after a crash during recovery itself (CLRs make undo
/// idempotent; redo is blind physical reapplication).
class RecoveryManager {
 public:
  RecoveryManager(LogManager* log, PageSink* sink,
                  RecoveryOptions options = RecoveryOptions())
      : log_(log), sink_(sink), opts_(options) {}

  Status Run();

  const RecoveryStats& stats() const { return stats_; }

 private:
  struct TxnState {
    Lsn last_lsn = kNullLsn;
    bool committed = false;
    bool ended = false;
  };

  Result<Lsn> RedoFloor(Lsn checkpoint_lsn);
  Status Redo(Lsn from);
  Status Undo();

  LogManager* log_;
  PageSink* sink_;
  RecoveryOptions opts_;
  std::unordered_map<TxnId, TxnState> txns_;
  RecoveryStats stats_;
};

/// Single-page media repair (DESIGN.md §7): scans `log` for the most recent
/// image of (db, area, page) whose masked trailer CRC equals
/// `expected_masked_crc` and returns it in `image`. Candidate images are
/// full-page-image records and CLRs (always safe: they describe durable
/// states) plus kPageWrite after-images of *committed* transactions.
/// NotFound when no byte-exact image exists — the caller quarantines.
Status RepairPageFromLog(LogManager* log, uint16_t db, uint16_t area,
                         PageId page, uint32_t expected_masked_crc,
                         std::string* image);

}  // namespace bess

#endif  // BESS_WAL_RECOVERY_H_
