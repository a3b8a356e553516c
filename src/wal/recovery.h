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

/// Appends the CLR compensating one logical undo step: takes the touched
/// page and its post-undo image, returns the CLR's LSN.
using ClrLogger =
    std::function<Result<Lsn>(PageAddr page, const std::string& after)>;

/// Logical undo of one kIndexPut/kIndexDelete (DESIGN.md §14): resolve the
/// index's tree and reverse the operation on it — re-descending, since a
/// split may have moved the key — logging the touched leaf through
/// `log_clr` (BTreeIndex::UndoLogical does both).
using IndexUndo =
    std::function<Status(const LogRecord& rec, const ClrLogger& log_clr)>;

/// What one UndoChain call did.
struct UndoCounts {
  uint64_t records = 0;  ///< page and index records undone
  uint64_t clrs = 0;     ///< compensation records appended
};

/// The one undo walker, shared by runtime abort and restart undo: rolls
/// back transaction `txn` whose newest chain record is `last_lsn`, then
/// closes the chain with kEnd and flushes it.
///
/// Walks prev_lsn backwards. CLRs are skipped via undo_next, so undo never
/// undoes its own compensation and a crash mid-undo resumes where it
/// stopped; kIndexSmo is a redo-only nested top action and is never
/// reversed. Each kPageWrite gets a CLR carrying its before-image, and each
/// index record is handed to `index_undo` with a logger that appends its
/// CLR (null `index_undo`: index records are skipped). `sink`, when
/// non-null, receives the before-images: restart needs them because redo
/// has just repeated history on disk; a runtime abort passes null because
/// the transaction's object pages were never forced.
///
/// Why CLRs and not a bare kAbort+kEnd: restart redo blindly repeats
/// history, so the chain's after-images land on disk again, and kEnd
/// suppresses loser undo. The CLRs (re)apply the before-images on redo, so
/// the closed chain nets out to the untouched state, and restart never
/// needs records below whatever suffix of the chain is retained.
///
/// Appends bypass log-full backpressure: undo must complete on a full log,
/// and its records are what let the log shrink again. `counts` is updated
/// as records are written, so it is accurate on error too.
Status UndoChain(LogManager* log, TxnId txn, Lsn last_lsn, PageSink* sink,
                 const IndexUndo& index_undo, UndoCounts* counts);

struct RecoveryOptions {
  /// Logical undo of loser index records against the *recovered* trees.
  /// When null, index records are skipped (the caller has no live trees —
  /// tests exercising only object pages).
  IndexUndo index_undo;
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
