#include "wal/log_record.h"

namespace bess {

void LogRecord::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutFixed64(out, txn);
  PutFixed64(out, prev_lsn);
  switch (type) {
    case LogRecordType::kPageWrite:
      PutFixed64(out, page.Pack());
      PutLengthPrefixed(out, before);
      PutLengthPrefixed(out, after);
      break;
    case LogRecordType::kClr:
      PutFixed64(out, page.Pack());
      PutFixed64(out, undo_next);
      PutLengthPrefixed(out, after);
      break;
    case LogRecordType::kFullPageImage:
      PutFixed64(out, page.Pack());
      PutLengthPrefixed(out, after);
      break;
    case LogRecordType::kIndexPut:
    case LogRecordType::kIndexDelete:
      PutFixed64(out, page.Pack());
      PutFixed32(out, index_area);
      PutLengthPrefixed(out, ikey);
      PutLengthPrefixed(out, ival);
      PutLengthPrefixed(out, iold);
      out->push_back(iold_present ? 1 : 0);
      PutLengthPrefixed(out, after);
      break;
    case LogRecordType::kIndexSmo:
      PutFixed32(out, index_area);
      PutFixed32(out, static_cast<uint32_t>(smo_pages.size()));
      for (const SmoPage& p : smo_pages) {
        PutFixed64(out, p.page.Pack());
        PutLengthPrefixed(out, p.image);
      }
      break;
    case LogRecordType::kCheckpoint:
      // Former active-transaction table, kept in the layout as an empty
      // count so logs written either way decode the same.
      PutFixed32(out, 0);
      PutFixed32(out, static_cast<uint32_t>(dirty_pages.size()));
      for (const DirtyPage& d : dirty_pages) {
        PutFixed64(out, d.page.Pack());
        PutFixed64(out, d.rec_lsn);
      }
      PutFixed64(out, redo_floor);
      break;
    default:
      break;
  }
}

Result<LogRecord> LogRecord::DecodeFrom(Slice payload) {
  if (payload.empty()) return Status::Corruption("empty log record");
  LogRecord rec;
  rec.type = static_cast<LogRecordType>(payload[0]);
  payload.remove_prefix(1);
  Decoder dec(payload);
  rec.txn = dec.GetFixed64();
  rec.prev_lsn = dec.GetFixed64();
  switch (rec.type) {
    case LogRecordType::kBegin:
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kEnd:
    case LogRecordType::kPrepare:
      break;
    case LogRecordType::kPageWrite:
      rec.page = PageAddr::Unpack(dec.GetFixed64());
      rec.before = dec.GetLengthPrefixed().ToString();
      rec.after = dec.GetLengthPrefixed().ToString();
      break;
    case LogRecordType::kClr:
      rec.page = PageAddr::Unpack(dec.GetFixed64());
      rec.undo_next = dec.GetFixed64();
      rec.after = dec.GetLengthPrefixed().ToString();
      break;
    case LogRecordType::kFullPageImage:
      rec.page = PageAddr::Unpack(dec.GetFixed64());
      rec.after = dec.GetLengthPrefixed().ToString();
      break;
    case LogRecordType::kIndexPut:
    case LogRecordType::kIndexDelete: {
      rec.page = PageAddr::Unpack(dec.GetFixed64());
      rec.index_area = static_cast<uint16_t>(dec.GetFixed32());
      rec.ikey = dec.GetLengthPrefixed().ToString();
      rec.ival = dec.GetLengthPrefixed().ToString();
      rec.iold = dec.GetLengthPrefixed().ToString();
      Slice flag = dec.GetBytes(1);
      rec.iold_present = dec.ok() && flag[0] != 0;
      rec.after = dec.GetLengthPrefixed().ToString();
      break;
    }
    case LogRecordType::kIndexSmo: {
      rec.index_area = static_cast<uint16_t>(dec.GetFixed32());
      uint32_t np = dec.GetFixed32();
      if (!dec.ok() || np > 64) {
        return Status::Corruption("bad index SMO record");
      }
      for (uint32_t i = 0; i < np; ++i) {
        SmoPage p;
        p.page = PageAddr::Unpack(dec.GetFixed64());
        p.image = dec.GetLengthPrefixed().ToString();
        rec.smo_pages.push_back(std::move(p));
      }
      break;
    }
    case LogRecordType::kCheckpoint: {
      // Legacy active-transaction entries (txn, last LSN): nothing reads
      // them, so they are skipped.
      uint32_t nt = dec.GetFixed32();
      if (!dec.ok() || nt > 1u << 20) {
        return Status::Corruption("bad checkpoint record");
      }
      (void)dec.GetBytes(size_t{nt} * 16);
      uint32_t nd = dec.GetFixed32();
      if (!dec.ok() || nd > 1u << 20) {
        return Status::Corruption("bad checkpoint record");
      }
      for (uint32_t i = 0; i < nd; ++i) {
        DirtyPage d;
        d.page = PageAddr::Unpack(dec.GetFixed64());
        d.rec_lsn = dec.GetFixed64();
        rec.dirty_pages.push_back(d);
      }
      rec.redo_floor = dec.GetFixed64();
      break;
    }
    default:
      return Status::Corruption("unknown log record type " +
                                std::to_string(static_cast<int>(rec.type)));
  }
  if (!dec.ok()) return Status::Corruption("truncated log record");
  return rec;
}

}  // namespace bess
