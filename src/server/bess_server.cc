#include "server/bess_server.h"

#include "obs/stats.h"
#include "obs/trace.h"

namespace bess {
namespace {

// How many applied commit ids the duplicate-suppression window remembers.
// A client retries a commit within a few backoff rounds, so even a small
// window is generous; bounding it keeps a long-lived server at O(1) memory.
constexpr size_t kAppliedCommitWindow = 1024;

}  // namespace

BessServer::BessServer(Options options)
    : core_(std::move(options), this, &scope_) {}

BessServer::~BessServer() { Stop(); }

Status BessServer::AddDatabase(Database* db) {
  // The database registry is lock-free on the read side: registration is
  // only legal before Start() (whose thread creation publishes the map).
  if (core_.running()) {
    return Status::Busy("AddDatabase after Start()");
  }
  databases_[db->db_id()] = db;
  return Status::OK();
}

Status BessServer::Start() { return core_.Start(); }

void BessServer::Stop() { core_.Stop(); }

Result<Database*> BessServer::DbFor(uint16_t db_id) {
  auto it = databases_.find(db_id);
  if (it == databases_.end()) {
    return Status::NotFound("server does not own database " +
                            std::to_string(db_id));
  }
  return it->second;
}

Status BessServer::AdmitLogWork(Database* db) {
  // WAL backpressure: while the retained log is over its soft limit, refuse
  // *new* commit work outright rather than parking a worker in a throttled
  // append. The client retries after backing off — by then the forced
  // checkpoint has usually reclaimed space. A replay of an applied commit
  // never gets here (dedup window answered OK).
  if (!db->LogBackpressured()) return Status::OK();
  BESS_COUNT_IN(scope_, "server.overload.shed.log_full");
  return Status::RetryLater("log full; retry after backoff");
}

Status BessServer::ApplyPageSet(
    const Message& msg,
    const std::function<Status(Database*, const std::vector<PageImage>&)>&
        apply) {
  if (msg.payload.size() < 8) return Status::Protocol("bad page-set request");
  BESS_ASSIGN_OR_RETURN(
      std::vector<PageImage> pages,
      DecodePageSet(Slice(msg.payload.data() + 8, msg.payload.size() - 8)));
  // Split by owning database (one server may own several).
  std::unordered_map<uint16_t, std::vector<PageImage>> by_db;
  for (PageImage& img : pages) by_db[img.db].push_back(std::move(img));
  for (auto& [db_id, set] : by_db) {
    BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
    BESS_RETURN_IF_ERROR(AdmitLogWork(db));
    BESS_RETURN_IF_ERROR(apply(db, set));
  }
  return Status::OK();
}

void BessServer::OnSessionClosed(Session& session) {
  // Presumed abort — the coordinator kept its decision in volatile memory,
  // and this channel can no longer deliver one.
  for (uint64_t gtid : session.prepared_gtids) {
    for (auto& [id, db] : databases_) (void)db->AbortPrepared(gtid);
  }
}

Status BessServer::FinishLock(Session&, const SessionCore::LockWait&,
                              Status waited) {
  BESS_COUNT_IN(scope_, "srv.request");
  BESS_COUNT_IN(scope_, "srv.lock.request");
  return waited;
}

Status BessServer::Handle(Session& session, const Message& msg,
                          std::string* reply, uint16_t*) {
  BESS_COUNT_IN(scope_, "srv.request");
  BESS_SPAN("srv.request.latency");
  Decoder dec(msg.payload);

  switch (msg.type) {
    case kMsgPing: {
      // Echo, for latency probes and pipelining-exactness tests.
      reply->assign(msg.payload);
      return Status::OK();
    }

    case kMsgFetchSlotted: {
      const SegmentId id = SegmentId::Unpack(dec.GetFixed64());
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(id.db));
      std::string buf(kMaxSlottedPages * kPageSize, '\0');
      // Serve from the canonical on-disk state via the database's store
      // path (the server's own mapped cache is a separate client).
      uint32_t pages = 0;
      BESS_RETURN_IF_ERROR(db->ReadRawPages(id.area, id.first_page, 1,
                                            buf.data()));
      const auto* header = reinterpret_cast<const SlottedHeader*>(buf.data());
      if (header->magic != SlottedHeader::kMagic || header->page_count == 0 ||
          header->page_count > kMaxSlottedPages) {
        return Status::Corruption("not a slotted segment head");
      }
      pages = header->page_count;
      if (pages > 1) {
        BESS_RETURN_IF_ERROR(db->ReadRawPages(id.area, id.first_page + 1,
                                              pages - 1,
                                              buf.data() + kPageSize));
      }
      PutFixed32(reply, pages);
      reply->append(buf.data(), static_cast<size_t>(pages) * kPageSize);
      BESS_COUNT_IN(scope_, "srv.fetch");
      return Status::OK();
    }

    case kMsgFetchPages: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t area = dec.GetFixed16();
      const PageId first = dec.GetFixed32();
      const uint32_t count = dec.GetFixed32();
      if (!dec.ok() || count == 0 || count > kPagesPerExtent) {
        return Status::Protocol("bad fetch request");
      }
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      reply->resize(static_cast<size_t>(count) * kPageSize);
      BESS_RETURN_IF_ERROR(
          db->ReadRawPages(area, first, count, reply->data()));
      BESS_COUNT_IN(scope_, "srv.fetch");
      return Status::OK();
    }

    case kMsgAllocSegment: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t area = dec.GetFixed16();
      const uint32_t pages = dec.GetFixed32();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(DiskSegment seg, db->AllocDiskSegment(area, pages));
      PutFixed32(reply, seg.first_page);
      PutFixed32(reply, seg.page_count);
      return Status::OK();
    }

    case kMsgFreeSegment: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t area = dec.GetFixed16();
      const PageId first = dec.GetFixed32();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->FreeDiskSegment(area, first);
    }

    case kMsgReleaseLock: {
      const uint64_t key = dec.GetFixed64();
      return core_.locks().Release(session.id, key);
    }

    case kMsgReleaseAll: {
      core_.locks().ReleaseAll(session.id);
      return Status::OK();
    }

    case kMsgCommit: {
      const uint64_t ctid = dec.GetFixed64();
      if (!dec.ok()) return Status::Protocol("bad commit request");
      if (ctid != 0) {
        CommitShard& shard = CommitShardFor(ctid);
        std::lock_guard<std::mutex> guard(shard.mu);
        if (shard.applied.count(ctid)) {
          // A replay of a commit we already applied (its reply was lost):
          // report the original outcome instead of applying twice.
          BESS_COUNT_IN(scope_, "srv.commit.dedupe");
          return Status::OK();
        }
      }
      BESS_RETURN_IF_ERROR(ApplyPageSet(
          msg, [](Database* db, const std::vector<PageImage>& set) {
            return db->CommitPageSet(set);
          }));
      if (ctid != 0) {
        CommitShard& shard = CommitShardFor(ctid);
        std::lock_guard<std::mutex> guard(shard.mu);
        shard.applied.insert(ctid);
        shard.order.push_back(ctid);
        if (shard.order.size() > kAppliedCommitWindow / kCommitShards) {
          shard.applied.erase(shard.order.front());
          shard.order.pop_front();
        }
      }
      BESS_COUNT_IN(scope_, "srv.commit");
      return Status::OK();
    }

    case kMsgPrepare: {
      const uint64_t gtid = dec.GetFixed64();
      // Prepares open *new* in-doubt state, which is exactly what a full
      // log cannot afford: the same backpressure refusal as commits.
      BESS_RETURN_IF_ERROR(ApplyPageSet(
          msg, [gtid](Database* db, const std::vector<PageImage>& set) {
            return db->PreparePageSet(gtid, set);
          }));
      session.prepared_gtids.insert(gtid);
      return Status::OK();
    }

    case kMsgCommitPrepared: {
      const uint64_t gtid = dec.GetFixed64();
      bool any = false;
      for (auto& [id, db] : databases_) {
        Status s = db->CommitPrepared(gtid);
        if (s.ok()) any = true;
        else if (!s.IsNotFound()) return s;
      }
      session.prepared_gtids.erase(gtid);
      return any ? Status::OK()
                 : Status::NotFound("gtid unknown (presumed abort)");
    }

    case kMsgAbortPrepared: {
      const uint64_t gtid = dec.GetFixed64();
      for (auto& [id, db] : databases_) (void)db->AbortPrepared(gtid);
      session.prepared_gtids.erase(gtid);
      return Status::OK();
    }

    case kMsgCreateFile: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      const uint8_t multi = static_cast<uint8_t>(dec.GetBytes(1).data()[0]);
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(uint16_t id,
                            db->CreateFile(name.ToString(), multi != 0));
      PutFixed16(reply, id);
      return Status::OK();
    }

    case kMsgFindFile: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(uint16_t id, db->FindFile(name.ToString()));
      PutFixed16(reply, id);
      return Status::OK();
    }

    case kMsgRegisterType: {
      const uint16_t db_id = dec.GetFixed16();
      Slice rest(msg.payload.data() + 2, msg.payload.size() - 2);
      Decoder tdec(rest);
      BESS_ASSIGN_OR_RETURN(TypeDescriptor desc,
                            TypeDescriptor::DecodeFrom(&tdec));
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(TypeIdx idx, db->RegisterType(desc));
      PutFixed32(reply, idx);
      return Status::OK();
    }

    case kMsgFetchTypes: {
      const uint16_t db_id = dec.GetFixed16();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      db->types()->EncodeTo(reply);
      return Status::OK();
    }

    case kMsgNewObjectSegment: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t file_id = dec.GetFixed16();
      const uint32_t min_bytes = dec.GetFixed32();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(auto grant,
                            db->GrantObjectSegment(file_id, min_bytes));
      NewSegmentReply r;
      r.id = grant.id;
      r.slotted_pages = grant.slotted_pages;
      r.slot_capacity = grant.slot_capacity;
      r.outbound_capacity = grant.outbound_capacity;
      r.data_area = grant.data_area;
      r.data_first_page = grant.data_first_page;
      r.data_page_count = grant.data_page_count;
      r.EncodeTo(reply);
      return Status::OK();
    }

    case kMsgGetRoot: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(Oid oid, db->GetRootOid(name.ToString()));
      char buf[12];
      oid.EncodeTo(buf);
      reply->append(buf, 12);
      return Status::OK();
    }

    case kMsgSetRoot: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice oid_bytes = dec.GetBytes(12);
      if (!dec.ok()) return Status::Protocol("bad SetRoot");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->SetRootOid(name.ToString(), Oid::DecodeFrom(oid_bytes.data()));
    }

    case kMsgRemoveRoot: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->RemoveRoot(name.ToString());
    }

    case kMsgGetStats: {
      // Everything the server process has counted so far, over the wire.
      Snapshot().EncodeTo(reply);
      return Status::OK();
    }

    case kMsgScrub: {
      const uint16_t db_id = dec.GetFixed16();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(ScrubReport report, db->Scrub());
      PutFixed64(reply, report.pages_scanned);
      PutFixed64(reply, report.verify_failures);
      PutFixed64(reply, report.repaired);
      PutFixed64(reply, report.quarantined);
      return Status::OK();
    }

    case kMsgIndexCreate: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexCreate");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->CreateIndex(name.ToString()).status();
    }

    case kMsgIndexDrop: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexDrop");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->DropIndex(name.ToString());
    }

    case kMsgIndexPut: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice key = dec.GetLengthPrefixed();
      Slice value = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexPut");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      // An index put is a new micro-commit (kBegin is its throttled
      // admission point).
      BESS_RETURN_IF_ERROR(AdmitLogWork(db));
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      return index.Put(nullptr, key, value);
    }

    case kMsgIndexDel: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice key = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexDel");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_RETURN_IF_ERROR(AdmitLogWork(db));
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      bool existed = false;
      BESS_RETURN_IF_ERROR(index.Delete(nullptr, key, &existed));
      reply->push_back(existed ? 1 : 0);
      return Status::OK();
    }

    case kMsgIndexGet: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice key = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexGet");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      std::string value;
      BESS_ASSIGN_OR_RETURN(bool found, index.Get(key, &value));
      reply->push_back(found ? 1 : 0);
      if (found) PutLengthPrefixed(reply, value);
      return Status::OK();
    }

    case kMsgIndexScan: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      std::string lo = dec.GetLengthPrefixed().ToString();
      std::string hi = dec.GetLengthPrefixed().ToString();
      uint32_t limit = dec.GetFixed32();
      if (!dec.ok()) return Status::Protocol("bad IndexScan");
      if (limit == 0 || limit > kIndexScanMaxEntries) {
        limit = kIndexScanMaxEntries;  // bound the reply frame
      }
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      std::string entries;
      uint32_t n = 0;
      bool truncated = false;
      Status s = index.Scan(lo, hi, [&](Slice k, Slice v) {
        if (n >= limit) {
          truncated = true;
          return Status::Aborted("scan limit");  // stop the scan, not an error
        }
        PutLengthPrefixed(&entries, k);
        PutLengthPrefixed(&entries, v);
        ++n;
        return Status::OK();
      });
      if (!s.ok() && !truncated) return s;
      PutFixed32(reply, n);
      reply->append(entries);
      reply->push_back(truncated ? 1 : 0);
      return Status::OK();
    }

    default:
      return Status::Protocol("unknown request type " +
                              std::to_string(msg.type));
  }
}

}  // namespace bess
