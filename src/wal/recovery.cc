#include "wal/recovery.h"

#include <unordered_set>

#include "obs/trace.h"
#include "storage/page_io.h"
#include "util/crc32c.h"

namespace bess {

Status RecoveryManager::Run() {
  BESS_SPAN("wal.recovery");
  BESS_COUNT("wal.recovery.runs");
  BESS_ASSIGN_OR_RETURN(Lsn checkpoint, log_->GetCheckpointLsn());
  Lsn redo_start;
  {
    BESS_SPAN("wal.recovery.analysis");
    BESS_ASSIGN_OR_RETURN(redo_start, RedoFloor(checkpoint));
  }
  stats_.redo_start_lsn = redo_start;
  {
    BESS_SPAN("wal.recovery.redo");
    BESS_RETURN_IF_ERROR(Redo(redo_start));
  }
  // The run's result counts each event once; the registry gets its totals.
  BESS_COUNT_N("wal.recovery.redo.pages", stats_.redo_pages);
  {
    BESS_SPAN("wal.recovery.undo");
    BESS_RETURN_IF_ERROR(Undo());
  }
  BESS_COUNT_N("wal.recovery.undo.records", stats_.undo_records);
  stats_.recovered_tail_lsn = log_->tail_lsn();
  stats_.torn_tail = log_->tail_was_torn();
  return sink_->Sync();
}

Result<Lsn> RecoveryManager::RedoFloor(Lsn checkpoint_lsn) {
  // Without a checkpoint, redo must repeat history from the start of the
  // retained log.
  if (checkpoint_lsn == kNullLsn) return kNullLsn;
  BESS_ASSIGN_OR_RETURN(LogRecord cp, log_->ReadRecord(checkpoint_lsn));
  if (cp.type != LogRecordType::kCheckpoint) {
    return Status::Corruption("master record does not point at checkpoint");
  }
  // The checkpoint's redo floor already folds in the snapshot's dirty-page
  // recLSNs and active transactions' first LSNs; re-min against the dirty
  // pages defensively (it can only lower the floor, never lose redo work).
  Lsn floor = cp.redo_floor;
  for (const LogRecord::DirtyPage& d : cp.dirty_pages) {
    if (d.rec_lsn != kNullLsn && (floor == kNullLsn || d.rec_lsn < floor)) {
      floor = d.rec_lsn;
    }
  }
  // The transaction table is rebuilt from the floor too; the checkpoint
  // carries none. It is fuzzy: records appended between its snapshot and
  // the append of the record itself — commit records included — would be
  // invisible to a snapshotted table, so seeding from one could resurrect
  // an already-committed transaction as a loser and roll back an
  // acknowledged commit. The floor lower-bounds every registered
  // transaction's first record (it folds in their first LSNs), so scanning
  // from it sees each one's begin, writes and commit.
  return floor;
}

Status RecoveryManager::Redo(Lsn from) {
  // One forward scan rolls the transaction table forward and repeats
  // history: every after-image is reapplied blindly, in LSN order. Full-page
  // physical images make replay idempotent without page LSNs, and replay
  // never consults the table, so both can run off the same records.
  auto apply = [&](PageAddr page, const std::string& image, Lsn lsn) {
    BESS_RETURN_IF_ERROR(sink_->WritePage(page, image.data(), lsn));
    stats_.redo_pages++;
    return Status::OK();
  };
  return log_->Scan(from, [&](Lsn lsn, const LogRecord& rec) {
    stats_.records_scanned++;
    switch (rec.type) {
      case LogRecordType::kBegin:
        txns_[rec.txn];  // materialize
        break;
      case LogRecordType::kCommit:
        txns_[rec.txn].committed = true;
        break;
      case LogRecordType::kEnd:
        txns_[rec.txn].ended = true;
        break;
      case LogRecordType::kAbort:
      case LogRecordType::kPrepare:
        // Presumed abort: a prepared transaction with no commit record is
        // a loser after restart.
        break;
      case LogRecordType::kCheckpoint:
        break;
      case LogRecordType::kPageWrite:
      case LogRecordType::kClr:
      case LogRecordType::kIndexPut:
      case LogRecordType::kIndexDelete:
        txns_[rec.txn].last_lsn = lsn;
        [[fallthrough]];
      case LogRecordType::kFullPageImage:
        // Media-repair images never join a transaction's undo chain.
        if (!rec.after.empty()) return apply(rec.page, rec.after, lsn);
        break;
      case LogRecordType::kIndexSmo:
        // Transaction-less nested top action (txn = kNoTxn): structurally
        // valid whether or not any enclosing transaction commits, so it
        // never joins an undo chain — redo-only.
        for (const LogRecord::SmoPage& p : rec.smo_pages) {
          BESS_RETURN_IF_ERROR(apply(p.page, p.image, lsn));
        }
        break;
    }
    return Status::OK();
  });
}

Status RecoveryManager::Undo() {
  for (auto& [txn, state] : txns_) {
    if (state.committed || state.ended) {
      stats_.winner_txns++;
      continue;
    }
    stats_.loser_txns++;
    UndoCounts counts;
    Status st = UndoChain(log_, txn, state.last_lsn, sink_, opts_.index_undo,
                          &counts);
    stats_.undo_records += counts.records;
    stats_.clrs_written += counts.clrs;
    BESS_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Status UndoChain(LogManager* log, TxnId txn, Lsn last_lsn, PageSink* sink,
                 const IndexUndo& index_undo, UndoCounts* counts) {
  Lsn tail = last_lsn;  // newest record of the chain, CLRs included
  Lsn undo_next = kNullLsn;
  auto log_clr = [&](PageAddr page, const std::string& after) -> Result<Lsn> {
    LogRecord clr;
    clr.type = LogRecordType::kClr;
    clr.txn = txn;
    clr.prev_lsn = tail;
    clr.page = page;
    clr.after = after;  // the image the CLR (re)applies on redo
    clr.undo_next = undo_next;
    BESS_ASSIGN_OR_RETURN(tail, log->AppendUnthrottled(clr));
    counts->clrs++;
    return tail;
  };
  Lsn cur = last_lsn;
  while (cur != kNullLsn) {
    BESS_ASSIGN_OR_RETURN(LogRecord rec, log->ReadRecord(cur));
    cur = rec.type == LogRecordType::kClr ? rec.undo_next : rec.prev_lsn;
    undo_next = cur;
    if (rec.type == LogRecordType::kPageWrite) {
      counts->records++;
      if (sink != nullptr && !rec.before.empty()) {
        BESS_RETURN_IF_ERROR(
            sink->WritePage(rec.page, rec.before.data(), kNullLsn));
      }
      BESS_RETURN_IF_ERROR(log_clr(rec.page, rec.before).status());
    } else if (rec.type == LogRecordType::kIndexPut ||
               rec.type == LogRecordType::kIndexDelete) {
      counts->records++;
      if (index_undo) BESS_RETURN_IF_ERROR(index_undo(rec, log_clr));
    }
    // Everything else (kBegin, kPrepare, kCommit, kIndexSmo, a skipped
    // CLR) has nothing to undo.
  }
  LogRecord end;
  end.type = LogRecordType::kEnd;
  end.txn = txn;
  end.prev_lsn = tail;
  BESS_ASSIGN_OR_RETURN(Lsn end_lsn, log->AppendUnthrottled(end));
  return log->Flush(end_lsn);
}

Status RepairPageFromLog(LogManager* log, uint16_t db, uint16_t area,
                         PageId page, uint32_t expected_masked_crc,
                         std::string* image) {
  BESS_SPAN("wal.page_repair");
  const PageAddr target{db, area, page};
  // Pass 1: which transactions committed? Only their after-images describe
  // states that were ever made durable on purpose.
  std::unordered_set<TxnId> committed;
  BESS_RETURN_IF_ERROR(log->Scan(kNullLsn, [&](Lsn, const LogRecord& rec) {
    if (rec.type == LogRecordType::kCommit) committed.insert(rec.txn);
    return Status::OK();
  }));
  // Pass 2: the *last* byte-exact candidate wins (highest LSN = the image
  // the trailer was stamped from, or an identical rewrite of it).
  bool found = false;
  auto try_image = [&](const std::string& bytes) {
    if (bytes.size() != kPageSize) return;
    if (crc32c::Mask(PageCrc(area, page, bytes.data())) !=
        expected_masked_crc) {
      return;
    }
    *image = bytes;
    found = true;
  };
  BESS_RETURN_IF_ERROR(log->Scan(kNullLsn, [&](Lsn, const LogRecord& rec) {
    if (rec.type == LogRecordType::kIndexSmo) {
      // Index pages are steal/no-force: any logged image can be the one the
      // trailer was stamped from, committed or not — the CRC match is the
      // byte-exactness proof.
      for (const LogRecord::SmoPage& p : rec.smo_pages) {
        if (p.page == target) try_image(p.image);
      }
      return Status::OK();
    }
    const bool candidate =
        rec.type == LogRecordType::kFullPageImage ||
        rec.type == LogRecordType::kClr ||
        rec.type == LogRecordType::kIndexPut ||
        rec.type == LogRecordType::kIndexDelete ||
        (rec.type == LogRecordType::kPageWrite && committed.count(rec.txn));
    if (!candidate || !(rec.page == target)) return Status::OK();
    try_image(rec.after);
    return Status::OK();
  }));
  if (!found) {
    return Status::NotFound("no byte-exact WAL image for page " +
                            std::to_string(page));
  }
  return Status::OK();
}

}  // namespace bess
