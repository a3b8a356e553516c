// Write-ahead log records (paper §3: "recovery is based on an ARIES-like
// write-ahead log (WAL) protocol").
//
// Page-write records carry full before/after page images (physical logging):
// redo is a blind, idempotent reapplication of after-images in LSN order
// ("repeating history"); undo writes before-images backwards along each
// loser's prev_lsn chain, emitting compensation records (CLRs) so that undo
// itself is restartable.
#ifndef BESS_WAL_LOG_RECORD_H_
#define BESS_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/storage_area.h"
#include "txn/lock_manager.h"
#include "util/slice.h"
#include "util/status.h"

namespace bess {

/// Log sequence number: the byte offset of the record in the log file.
using Lsn = uint64_t;
inline constexpr Lsn kNullLsn = 0;  // offset 0 holds the log header

enum class LogRecordType : uint8_t {
  kBegin = 1,
  kCommit,
  kAbort,       ///< no longer written (an abort is its CLRs + kEnd); older
                ///< logs may carry it, and restart ignores it
  kEnd,         ///< transaction fully finished (undo complete if any)
  kPageWrite,   ///< physical before/after images of one page
  kClr,         ///< compensation: before-image applied during undo
  kCheckpoint,  ///< fuzzy checkpoint: dirty page table + redo floor
  kPrepare,     ///< 2PC phase 1: transaction is in doubt (presumed abort)
  kFullPageImage,  ///< full page image for media repair (DESIGN.md §7);
                   ///< redo applies it like kPageWrite, undo never sees it
                   ///< (prev_lsn is always kNullLsn)

  // B+-tree index records (DESIGN.md §14). Physiological: redo is a blind
  // after-image apply of the touched leaf (the record carries the full
  // post-op leaf image), undo is *logical* — re-descend the live tree and
  // delete/re-insert the key, because a split may have moved it to a
  // different page since.
  kIndexPut,     ///< ikey/ival inserted (iold = replaced value, if any);
                 ///< page + after = the leaf's post-op image
  kIndexDelete,  ///< ikey removed (iold = the value it had);
                 ///< page + after = the leaf's post-op image
  kIndexSmo,     ///< structure modification (split / root grow): redo-only
                 ///< nested top action carrying full images of every page
                 ///< it touched; undo skips it (splits are never reversed)
};

struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  TxnId txn = kNoTxn;
  Lsn prev_lsn = kNullLsn;  ///< previous record of the same txn

  // kPageWrite / kClr:
  PageAddr page;
  std::string before;  ///< empty for kClr
  std::string after;
  Lsn undo_next = kNullLsn;  ///< kClr: next record to undo

  // kCheckpoint (restart rebuilds the transaction table by scanning from
  // the redo floor, so the record carries no transaction table):
  struct DirtyPage {
    PageAddr page;
    Lsn rec_lsn;
  };
  std::vector<DirtyPage> dirty_pages;
  /// kCheckpoint: lower bound for redo — min over the dirty pages' recLSNs,
  /// the active transactions' first LSNs, and the snapshot-start LSN. No
  /// page image needing redo can live below it.
  Lsn redo_floor = kNullLsn;

  // kIndexPut / kIndexDelete: the logical payload for undo. `page`/`after`
  // above double as the physical redo image of the touched leaf.
  uint16_t index_area = 0;  ///< storage area holding the index
  std::string ikey;
  std::string ival;          ///< kIndexPut: value inserted
  std::string iold;          ///< replaced (put) or removed (delete) value
  bool iold_present = false; ///< distinguishes "replaced empty" from "fresh"

  // kIndexSmo: full images of every page the SMO touched (parent, left,
  // right, meta), applied atomically by redo.
  struct SmoPage {
    PageAddr page;
    std::string image;
  };
  std::vector<SmoPage> smo_pages;

  void EncodeTo(std::string* out) const;
  static Result<LogRecord> DecodeFrom(Slice payload);
};

}  // namespace bess

#endif  // BESS_WAL_LOG_RECORD_H_
