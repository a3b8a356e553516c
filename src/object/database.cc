#include "object/database.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "hooks/hooks.h"
#include "index/index.h"
#include "obs/trace.h"
#include "os/fault_injection.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "vm/mem_store.h"
#include "wal/recovery.h"

namespace bess {
namespace {

constexpr uint32_t kCatalogMagic = 0xBE55CA7Au;
constexpr uint32_t kCatalogPages = 16;
// By construction the catalog is the very first allocation in area 0.
constexpr PageId kCatalogFirstPage = 0;
/// Objects at least this big (bytes) become transparent large objects with
/// their own disk segment (§2.1); at most kMaxTransparentObjectSize.
constexpr uint32_t kLargeObjectThreshold = kPageSize;

thread_local Txn* tl_txn = nullptr;

std::mutex g_registry_mutex;
std::unordered_map<uint8_t, Database*> g_databases_by_id;

LogManager::Options WalOptions(const Database::Options& options) {
  LogManager::Options wopts;
  wopts.segment_bytes = options.wal_segment_bytes;
  wopts.soft_limit_bytes = options.wal_soft_limit_bytes;
  wopts.throttle_timeout_ms = options.wal_throttle_timeout_ms;
  return wopts;
}

}  // namespace

// ---- LocalStore -------------------------------------------------------------

// Direct access to the storage areas: the store used by applications linked
// with the server (or single-process deployments).
class Database::LocalStore : public SegmentStore {
 public:
  explicit LocalStore(Database* db) : db_(db) {}

  Status FetchSlotted(SegmentId id, void* buf, uint32_t* page_count) override {
    return GenericFetchSlotted(this, id, buf, page_count);
  }

  Status FetchPages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, void* buf) override {
    if (db != db_->db_id()) {
      return Status::InvalidArgument("fetch for foreign database");
    }
    StorageArea* a = db_->AreaOrNull(area);
    if (a == nullptr) return Status::NotFound("no storage area " +
                                              std::to_string(area));
    return a->ReadPages(first, page_count, buf);
  }

  Status WritePages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, const void* buf) override {
    if (db != db_->db_id()) {
      return Status::InvalidArgument("write for foreign database");
    }
    StorageArea* a = db_->AreaOrNull(area);
    if (a == nullptr) return Status::NotFound("no storage area " +
                                              std::to_string(area));
    return a->WritePages(first, page_count, buf, kNullLsn);
  }

 private:
  Database* db_;
};

// ---- Observer ---------------------------------------------------------------

// Feeds the fault path into the lock manager: automatic read/write set
// maintenance (paper §2.3). Lock failures poison the transaction rather than
// failing the fault — the offending instruction must resume; commit refuses.
class Database::Observer : public AccessObserver {
 public:
  explicit Observer(Database* db) : db_(db) {}

  Status OnSegmentRead(SegmentId id) override {
    Txn* txn = Database::Current();
    if (txn == nullptr || txn->db != db_) return Status::OK();
    Status s = db_->locks_.Acquire(txn->id, LockKey::Segment(id.Pack()),
                                   LockMode::kS,
                                   db_->options_.lock_timeout_ms);
    if (!s.ok() && !txn->poisoned) {
      txn->poisoned = true;
      txn->poison_status = s;
    }
    return Status::OK();
  }

  Status OnPageWrite(SegmentId id, PageAddr page) override {
    Txn* txn = Database::Current();
    if (txn == nullptr || txn->db != db_) return Status::OK();
    // Hierarchical locking: intention-exclusive on the segment, exclusive
    // on the page. Structural operations (create/delete/reorganize) take
    // the segment in X and therefore conflict with page writers.
    Status s = db_->locks_.Acquire(txn->id, LockKey::Segment(id.Pack()),
                                   LockMode::kIX,
                                   db_->options_.lock_timeout_ms);
    if (s.ok()) {
      s = db_->locks_.Acquire(
          txn->id, LockKey::Page(page.db, page.area, page.page), LockMode::kX,
          db_->options_.lock_timeout_ms);
    }
    if (!s.ok() && !txn->poisoned) {
      txn->poisoned = true;
      txn->poison_status = s;
    }
    return Status::OK();
  }

 private:
  Database* db_;
};

// ---- construction -----------------------------------------------------------

Database::Database(Options options)
    : options_(std::move(options)), locks_(options_.lock_timeout_ms) {}

Database::~Database() {
  StopCheckpointThread();
  {
    // Best-effort flush of index dirt (steal/no-force: a clean close that
    // skipped it would just replay from the WAL on the next open).
    std::vector<std::shared_ptr<BTreeIndex>> rts;
    {
      std::lock_guard<std::mutex> guard(indexes_mutex_);
      for (auto& [id, rt] : index_runtimes_) rts.push_back(rt);
      index_runtimes_.clear();
    }
    for (auto& rt : rts) (void)rt->FlushDirty();
    // Index handles share ownership of these runtimes and may outlive us.
    // Detach severs each runtime now — joins its bgwriter and gates every
    // entry point — so a surviving handle degrades into errors instead of
    // a background thread calling into a freed database (or its areas).
    for (auto& rt : rts) rt->Detach();
  }
  {
    std::lock_guard<std::mutex> guard(g_registry_mutex);
    g_databases_by_id.erase(static_cast<uint8_t>(options_.db_id));
  }
  EventContext ctx;
  ctx.a = options_.db_id;
  (void)FireEvent(Event::kDatabaseClose, ctx);
}

Result<std::unique_ptr<Database>> Database::Open(const Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("database directory required");
  }
  if (options.db_id == 0 || options.db_id > 255) {
    return Status::InvalidArgument("db_id must be in [1, 255] (OIDs carry "
                                   "8-bit database numbers)");
  }
  auto db = std::unique_ptr<Database>(new Database(options));
  db->observer_ = std::make_unique<Observer>(db.get());
  db->store_ = std::make_unique<LocalStore>(db.get());
  db->mapper_ = std::make_unique<SegmentMapper>(db->store_.get(), &db->types_,
                                                options.mapper);
  db->mapper_->set_observer(db->observer_.get());

  if (options.create) {
    BESS_RETURN_IF_ERROR(db->CreateNew());
  } else {
    BESS_RETURN_IF_ERROR(db->OpenExisting());
  }
  db->StartCheckpointThread();

  {
    std::lock_guard<std::mutex> guard(g_registry_mutex);
    g_databases_by_id[static_cast<uint8_t>(options.db_id)] = db.get();
  }
  EventContext ctx;
  ctx.a = options.db_id;
  (void)FireEvent(Event::kDatabaseOpen, ctx);
  return db;
}

std::string Database::AreaPath(uint16_t area_id) const {
  return options_.dir + "/area_" + std::to_string(area_id) + ".bess";
}

StorageArea* Database::AreaOrNull(uint16_t area_id) const {
  // Leaf lock only: this is the mapper fetch path's re-entry point into the
  // database and must stay reachable while meta_mutex_ is held.
  std::lock_guard<std::mutex> guard(areas_mutex_);
  if (area_id >= areas_.size()) return nullptr;
  return areas_[area_id].get();
}

Status Database::CreateNew() {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  BESS_ASSIGN_OR_RETURN(auto area0, StorageArea::Create(AreaPath(0), 0));
  // Reserve the catalog segment: first allocation => logical page 0.
  BESS_ASSIGN_OR_RETURN(DiskSegment cat, area0->AllocSegment(kCatalogPages));
  if (cat.first_page != kCatalogFirstPage) {
    return Status::Internal("catalog segment not at page 0");
  }
  catalog_segment_ = SegmentId{options_.db_id, 0, cat.first_page};
  StorageArea* a0 = area0.get();
  {
    std::lock_guard<std::mutex> guard(areas_mutex_);
    areas_.push_back(std::move(area0));
  }

  BESS_ASSIGN_OR_RETURN(
      wal_, LogManager::Open(options_.dir + "/wal", WalOptions(options_)));
  InstallRepairHandlers();
  std::lock_guard<std::mutex> guard(meta_mutex_);
  catalog_dirty_ = true;
  BESS_RETURN_IF_ERROR(SaveCatalogLocked());
  return a0->Sync();
}

Status Database::OpenExisting() {
  // Areas are discovered from the directory (contiguous ids from 0).
  for (uint16_t i = 0;; ++i) {
    if (!File::Exists(AreaPath(i))) break;
    BESS_ASSIGN_OR_RETURN(auto area, StorageArea::Open(AreaPath(i)));
    std::lock_guard<std::mutex> guard(areas_mutex_);
    areas_.push_back(std::move(area));
  }
  if (area_count() == 0) {
    return Status::NotFound("no storage areas in " + options_.dir);
  }
  catalog_segment_ = SegmentId{options_.db_id, 0, kCatalogFirstPage};
  // The WAL moved from a single file to the <dir>/wal directory. A leftover
  // wal.log may hold logged-but-unforced commits from a crash of the old
  // version; silently starting an empty segmented log would drop them.
  // Refuse instead of guessing.
  if (File::Exists(options_.dir + "/wal.log")) {
    return Status::NotSupported(
        "legacy single-file WAL found at " + options_.dir +
        "/wal.log; this version uses a segmented log directory. Reopen "
        "with the previous version to recover and checkpoint (clean "
        "shutdown), then delete wal.log — or delete it directly only if "
        "it is known to hold no unrecovered commits");
  }
  BESS_ASSIGN_OR_RETURN(
      wal_, LogManager::Open(options_.dir + "/wal", WalOptions(options_)));
  // Repair handlers must be live before recovery: redo's before-image reads
  // may themselves hit rotted pages.
  InstallRepairHandlers();
  BESS_RETURN_IF_ERROR(RunRecovery());
  return LoadCatalog();
}

namespace {
class AreaSink : public PageSink {
 public:
  explicit AreaSink(std::vector<std::unique_ptr<StorageArea>>* areas)
      : areas_(areas) {}
  Status WritePage(PageAddr addr, const void* bytes, Lsn lsn) override {
    if (addr.area >= areas_->size()) {
      return Status::Corruption("recovery references unknown area " +
                                std::to_string(addr.area));
    }
    return (*areas_)[addr.area]->WritePages(addr.page, 1, bytes, lsn);
  }
  Status Sync() override {
    for (auto& a : *areas_) BESS_RETURN_IF_ERROR(a->Sync());
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<StorageArea>>* areas_;
};
}  // namespace

Status Database::RunRecovery() {
  AreaSink sink(&areas_);
  RecoveryOptions ropts;
  // Logical undo of loser index records runs against temporary tree
  // runtimes (synchronous I/O, no bgwriter) opened lazily per index area —
  // the catalog is not loaded yet, but the meta page is page 0 of the
  // area by construction. The runtimes are flushed and torn down before
  // the areas are synced and the log is reset below.
  std::unordered_map<uint16_t, std::unique_ptr<BTreeIndex>> undo_trees;
  ropts.index_undo = [this, &undo_trees](const LogRecord& rec,
                                         const ClrLogger& log_clr) -> Status {
    auto it = undo_trees.find(rec.index_area);
    if (it == undo_trees.end()) {
      StorageArea* area = AreaOrNull(rec.index_area);
      if (area == nullptr) {
        return Status::Corruption("index record references unknown area " +
                                  std::to_string(rec.index_area));
      }
      BTreeIndex::Options iopts;
      iopts.db = options_.db_id;
      iopts.cache_frames = 64;
      iopts.enable_bgwriter = false;
      iopts.use_async = false;
      iopts.ensure_wal_durable = [this](uint64_t lsn) {
        return wal_->Flush(lsn);
      };
      iopts.append_smo = [this](const LogRecord& smo) {
        return wal_->AppendUnthrottled(smo);
      };
      BESS_ASSIGN_OR_RETURN(auto tree, BTreeIndex::Open(area, iopts));
      it = undo_trees.emplace(rec.index_area, std::move(tree)).first;
    }
    return it->second->UndoLogical(rec, log_clr);
  };
  RecoveryManager recovery(wal_.get(), &sink, ropts);
  BESS_RETURN_IF_ERROR(recovery.Run());
  for (auto& [area_id, tree] : undo_trees) {
    BESS_RETURN_IF_ERROR(tree->FlushDirty());
  }
  undo_trees.clear();
  last_recovery_stats_ = recovery.stats();
  if (recovery.stats().records_scanned > 0) {
    BESS_INFO("recovery: " << recovery.stats().redo_pages << " pages redone, "
                           << recovery.stats().loser_txns << " losers undone");
  }
  if (recovery.stats().torn_tail) {
    BESS_INFO("recovery: torn log tail, recovered up to LSN "
              << recovery.stats().recovered_tail_lsn);
  }
  // Scrub while the log still exists: this is the last moment the old
  // epoch's images are available for single-page repair (DESIGN.md §7).
  ScrubReport report;
  for (auto& area : areas_) {
    Status s = area->Scrub(&report);
    if (!s.ok() && !s.IsCorruption()) return s;
  }
  if (report.verify_failures > 0) {
    BESS_INFO("recovery scrub: " << report.verify_failures << " bad pages, "
                                 << report.repaired << " repaired, "
                                 << report.quarantined << " quarantined");
  }
  {
    std::lock_guard<std::mutex> guard(fpi_mutex_);
    fpi_logged_.clear();
  }
  // Sync the redone pages before truncating the log that could redo them
  // again: commits defer their data sync to exactly this moment (and to
  // Checkpoint), so the reset must not outrun the data.
  for (auto& area : areas_) BESS_RETURN_IF_ERROR(area->Sync());
  return wal_->Reset();
}

// ---- catalog ----------------------------------------------------------------

void Database::EncodeCatalogLocked(std::string* out) const {
  PutFixed32(out, static_cast<uint32_t>(areas_.size()));
  PutFixed16(out, next_file_id_);
  types_.EncodeTo(out);
  PutFixed32(out, static_cast<uint32_t>(files_.size()));
  for (const auto& [id, f] : files_) {
    PutFixed16(out, id);
    PutLengthPrefixed(out, f.name);
    out->push_back(f.multifile ? 1 : 0);
    PutFixed32(out, static_cast<uint32_t>(f.areas.size()));
    for (uint16_t a : f.areas) PutFixed16(out, a);
    PutFixed32(out, static_cast<uint32_t>(f.segments.size()));
    for (uint64_t s : f.segments) PutFixed64(out, s);
    PutFixed64(out, f.active_segment);
    PutFixed32(out, f.next_area);
  }
  PutFixed32(out, static_cast<uint32_t>(roots_by_name_.size()));
  for (const auto& [name, oid] : roots_by_name_) {
    PutLengthPrefixed(out, name);
    char buf[12];
    oid.EncodeTo(buf);
    out->append(buf, 12);
  }
  // Index catalog, appended last so catalogs written before indexes existed
  // (no section at all) still decode.
  PutFixed32(out, static_cast<uint32_t>(index_catalog_.size()));
  for (const auto& [name, area] : index_catalog_) {
    PutLengthPrefixed(out, name);
    PutFixed16(out, area);
  }
}

Status Database::LoadCatalog() {
  StorageArea* a0 = AreaOrNull(0);
  if (a0 == nullptr) return Status::NotFound("no storage area 0");
  std::string blob(static_cast<size_t>(kCatalogPages) * kPageSize, '\0');
  BESS_RETURN_IF_ERROR(
      a0->ReadPages(kCatalogFirstPage, kCatalogPages, blob.data()));
  Decoder head(blob);
  if (head.GetFixed32() != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  const uint32_t len = head.GetFixed32();
  const uint32_t crc = head.GetFixed32();
  if (len + 12 > blob.size()) return Status::Corruption("catalog too long");
  Slice payload(blob.data() + 12, len);
  if (crc32c::Unmask(crc) != crc32c::Value(payload.data(), payload.size())) {
    return Status::Corruption("catalog checksum mismatch");
  }

  std::lock_guard<std::mutex> guard(meta_mutex_);
  Decoder dec(payload);
  const uint32_t cataloged_areas = dec.GetFixed32();
  next_file_id_ = dec.GetFixed16();
  if (cataloged_areas != area_count()) {
    return Status::Corruption("catalog/directory area count mismatch");
  }
  BESS_RETURN_IF_ERROR(types_.DecodeFrom(&dec));
  const uint32_t nfiles = dec.GetFixed32();
  files_.clear();
  files_by_name_.clear();
  for (uint32_t i = 0; i < nfiles; ++i) {
    FileInfo f;
    f.file_id = dec.GetFixed16();
    f.name = dec.GetLengthPrefixed().ToString();
    f.multifile = dec.GetBytes(1).data()[0] != 0;
    const uint32_t nareas = dec.GetFixed32();
    for (uint32_t a = 0; a < nareas; ++a) f.areas.push_back(dec.GetFixed16());
    const uint32_t nsegs = dec.GetFixed32();
    for (uint32_t s = 0; s < nsegs; ++s) f.segments.push_back(dec.GetFixed64());
    f.active_segment = dec.GetFixed64();
    f.next_area = dec.GetFixed32();
    if (!dec.ok()) return Status::Corruption("truncated catalog (files)");
    files_by_name_[f.name] = f.file_id;
    files_[f.file_id] = std::move(f);
  }
  const uint32_t nroots = dec.GetFixed32();
  roots_by_name_.clear();
  roots_by_oid_.clear();
  for (uint32_t i = 0; i < nroots; ++i) {
    std::string name = dec.GetLengthPrefixed().ToString();
    Slice oid_bytes = dec.GetBytes(12);
    if (!dec.ok()) return Status::Corruption("truncated catalog (roots)");
    Oid oid = Oid::DecodeFrom(oid_bytes.data());
    roots_by_name_[name] = oid;
    roots_by_oid_[oid] = name;
  }
  index_catalog_.clear();
  if (dec.remaining() >= 4) {  // pre-index catalogs end at the roots
    const uint32_t nindexes = dec.GetFixed32();
    for (uint32_t i = 0; i < nindexes; ++i) {
      std::string name = dec.GetLengthPrefixed().ToString();
      const uint16_t area = dec.GetFixed16();
      if (!dec.ok()) return Status::Corruption("truncated catalog (indexes)");
      index_catalog_[name] = area;
    }
  }
  catalog_dirty_ = false;
  return Status::OK();
}

Status Database::SaveCatalogLocked() {
  if (!catalog_dirty_) return Status::OK();
  std::string payload;
  EncodeCatalogLocked(&payload);
  std::string blob(static_cast<size_t>(kCatalogPages) * kPageSize, '\0');
  if (payload.size() + 12 > blob.size()) {
    return Status::NoSpace("catalog exceeds its segment (" +
                           std::to_string(payload.size()) + " bytes)");
  }
  EncodeFixed32(blob.data(), kCatalogMagic);
  EncodeFixed32(blob.data() + 4, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(blob.data() + 8,
                crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  memcpy(blob.data() + 12, payload.data(), payload.size());
  StorageArea* a0 = AreaOrNull(0);
  if (a0 == nullptr) return Status::NotFound("no storage area 0");
  BESS_RETURN_IF_ERROR(
      a0->WritePages(kCatalogFirstPage, kCatalogPages, blob.data()));
  catalog_dirty_ = false;
  return Status::OK();
}

// ---- types / areas / files ---------------------------------------------------

Result<TypeIdx> Database::RegisterType(const TypeDescriptor& desc) {
  BESS_ASSIGN_OR_RETURN(TypeIdx idx, types_.Register(desc));
  std::lock_guard<std::mutex> guard(meta_mutex_);
  catalog_dirty_ = true;
  return idx;
}

Result<uint16_t> Database::AddStorageArea() {
  // meta_mutex_ serializes concurrent adds; areas_mutex_ (leaf) covers the
  // vector mutation itself against lock-free-path readers via AreaOrNull.
  std::lock_guard<std::mutex> guard(meta_mutex_);
  const uint16_t id = static_cast<uint16_t>(area_count());
  if (id > 255) return Status::NoSpace("OIDs carry 8-bit area numbers");
  BESS_ASSIGN_OR_RETURN(auto area, StorageArea::Create(AreaPath(id), id));
  BESS_RETURN_IF_ERROR(area->Sync());
  InstallRepairHandler(area.get());
  {
    std::lock_guard<std::mutex> areas_guard(areas_mutex_);
    areas_.push_back(std::move(area));
  }
  catalog_dirty_ = true;
  BESS_RETURN_IF_ERROR(SaveCatalogLocked());
  return id;
}

uint32_t Database::area_count() const {
  std::lock_guard<std::mutex> guard(areas_mutex_);
  return static_cast<uint32_t>(areas_.size());
}

Result<uint16_t> Database::CreateFile(const std::string& name,
                                      bool multifile) {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  if (files_by_name_.count(name)) {
    return Status::InvalidArgument("file exists: " + name);
  }
  FileInfo f;
  f.file_id = next_file_id_++;
  f.name = name;
  f.multifile = multifile;
  f.areas.push_back(0);
  const uint16_t id = f.file_id;
  files_by_name_[name] = id;
  files_[id] = std::move(f);
  catalog_dirty_ = true;
  return id;
}

Result<uint16_t> Database::FindFile(const std::string& name) const {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = files_by_name_.find(name);
  if (it == files_by_name_.end()) return Status::NotFound("file " + name);
  return it->second;
}

Status Database::AddFileArea(uint16_t file_id, uint16_t area_id) {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return Status::NotFound("no such file");
  if (!it->second.multifile) {
    return Status::InvalidArgument(
        "plain BeSS files live in a single storage area (use a multifile)");
  }
  if (area_id >= areas_.size()) return Status::NotFound("no such area");
  for (uint16_t a : it->second.areas) {
    if (a == area_id) return Status::OK();
  }
  it->second.areas.push_back(area_id);
  catalog_dirty_ = true;
  return Status::OK();
}

// ---- transactions -------------------------------------------------------------

Txn* Database::Current() { return tl_txn; }

TxnId Database::NextTxnId() {
  return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
}

Result<Txn*> Database::Begin() {
  if (tl_txn != nullptr) {
    return Status::InvalidArgument("thread already has an active transaction");
  }
  Txn* txn = new Txn();
  txn->id = NextTxnId();
  txn->db = this;
  tl_txn = txn;
  BESS_COUNT("txn.begin");
  EventContext ctx;
  ctx.a = txn->id;
  (void)FireEvent(Event::kTransactionBegin, ctx);
  return txn;
}

Result<Lsn> Database::OpenChain(TxnId txn_id) {
  {
    std::lock_guard<std::mutex> guard(rec_mutex_);
    LoggingTxn& lt = logging_txns_[txn_id];
    if (lt.last_lsn != kNullLsn) return lt.last_lsn;
    // Register before the first append: the fuzzy checkpoint's redo floor
    // folds in active transactions' first LSNs, which covers the window
    // where a page is logged but not yet forced (the DPT only learns of it
    // at force time). Reading the tail *before* kBegin keeps the bound
    // conservative against appends that slip in between.
    lt.first_lsn = wal_->tail_lsn();
  }
  // Admission control: the kBegin append is the only one subject to
  // log-full backpressure. Once a transaction is admitted, its remaining
  // records go through unthrottled — a registered transaction pins the
  // redo floor, so throttling it mid-flight would wait on a checkpoint that
  // can never free space below its own records (self-deadlock until
  // timeout).
  LogRecord begin;
  begin.type = LogRecordType::kBegin;
  begin.txn = txn_id;
  auto begin_r = wal_->Append(begin);
  if (!begin_r.ok()) {
    UnregisterLoggingTxn(txn_id);
    return begin_r.status();
  }
  std::lock_guard<std::mutex> guard(rec_mutex_);
  logging_txns_[txn_id].last_lsn = *begin_r;
  return *begin_r;
}

Result<Lsn> Database::AppendToChain(TxnId txn_id, LogRecord&& rec) {
  BESS_ASSIGN_OR_RETURN(rec.prev_lsn, OpenChain(txn_id));
  rec.txn = txn_id;
  BESS_ASSIGN_OR_RETURN(const Lsn lsn, wal_->AppendUnthrottled(rec));
  // The undo chain head, where an abort's undo walk starts.
  std::lock_guard<std::mutex> guard(rec_mutex_);
  logging_txns_[txn_id].last_lsn = lsn;
  return lsn;
}

Result<Lsn> Database::LogPageSet(TxnId txn_id,
                                 const std::vector<PageImage>& pages,
                                 LogRecordType final_record,
                                 std::vector<Lsn>* page_lsns) {
  // Admitted before any record of the set (FPIs included) is appended. A
  // transaction that already logged index records continues its chain.
  BESS_RETURN_IF_ERROR(OpenChain(txn_id).status());
  auto fail = [&](Status st) -> Result<Lsn> {
    // Nothing was forced, but the appended records cannot be left orphaned:
    // once the txn is unregistered it no longer pins the retention floor,
    // and a later checkpoint could recycle the segment holding the chain's
    // early records while newer ones survive — restart undo would then walk
    // prev_lsn into recycled log and fail forever. Roll the chain back now
    // (best-effort: appends only fail here when the log is wedged, and a
    // wedged log blocks checkpoints — and thus recycling — too, so the
    // fully-retained chain stays undoable).
    (void)AbortLoggedChain(txn_id);
    return st;
  };
  std::string before(kPageSize, '\0');
  for (const PageImage& img : pages) {
    const PageAddr addr{img.db, img.area, img.page};
    StorageArea* a = AreaOrNull(img.area);
    if (a == nullptr) return fail(Status::Internal("dirty page in unknown area"));
    Status rs = a->ReadPages(img.page, 1, before.data());
    if (!rs.ok()) return fail(rs);
    bool need_fpi = false;
    Lsn fpi_lsn = kNullLsn;
    {
      std::lock_guard<std::mutex> guard(fpi_mutex_);
      auto it = fpi_logged_.find(addr.Pack());
      if (it == fpi_logged_.end() || it->second < wal_->oldest_lsn()) {
        need_fpi = true;
      } else {
        fpi_lsn = it->second;
      }
    }
    if (!need_fpi) {
      // Pin the FPI this transaction now relies on, then re-validate.
      // Mark-then-verify pairs with the checkpoint's publish-then-fold:
      // a checkpoint publishes its tentative release floor (fpi_floor_)
      // *before* folding relied FPIs into the final floor under rec_mutex_.
      // Either our mark lands before the fold (the checkpoint retains the
      // FPI's segment), or the fold ran first — then rec_mutex_ ordering
      // guarantees we see the published floor here and relog instead of
      // relying on an image the checkpoint may already be recycling.
      {
        std::lock_guard<std::mutex> guard(rec_mutex_);
        auto& lt = logging_txns_[txn_id];
        if (lt.relied_fpi == kNullLsn || fpi_lsn < lt.relied_fpi) {
          lt.relied_fpi = fpi_lsn;
        }
      }
      if (fpi_lsn < fpi_floor_.load(std::memory_order_acquire) ||
          fpi_lsn < wal_->oldest_lsn()) {
        need_fpi = true;
      }
    }
    if (need_fpi) {
      // No FPI for this page in the retained log (never logged, or its
      // segment was recycled): log its current durable image so a media
      // failure later can be repaired to a byte-exact state. Costs no
      // extra I/O — the image is the before-image we just read. It stays
      // off the chain (prev_lsn kNullLsn) so undo never walks into it.
      LogRecord fpi;
      fpi.type = LogRecordType::kFullPageImage;
      fpi.txn = txn_id;
      fpi.page = addr;
      fpi.after = before;
      auto fpi_r = wal_->AppendUnthrottled(fpi);
      if (!fpi_r.ok()) return fail(fpi_r.status());
      {
        std::lock_guard<std::mutex> guard(fpi_mutex_);
        fpi_logged_[addr.Pack()] = *fpi_r;
      }
      BESS_COUNT("wal.fpi.records");
    }
    LogRecord rec;
    rec.type = LogRecordType::kPageWrite;
    rec.page = addr;
    rec.before = before;
    rec.after = img.bytes;
    auto rec_r = AppendToChain(txn_id, std::move(rec));
    if (!rec_r.ok()) return fail(rec_r.status());
    if (page_lsns != nullptr) page_lsns->push_back(*rec_r);
  }
  LogRecord fin;
  fin.type = final_record;
  auto lsn_r = AppendToChain(txn_id, std::move(fin));
  if (!lsn_r.ok()) return fail(lsn_r.status());
  Status fs = wal_->Flush(*lsn_r);  // WAL rule; flushes coalesce
  if (!fs.ok()) return fail(fs);
  return *lsn_r;
}

Status Database::ForcePages(const std::vector<PageImage>& pages, Lsn lsn,
                            const std::vector<Lsn>& page_lsns) {
  // No area sync here: the flushed commit record + after-images carry
  // durability and Checkpoint syncs before truncating the log, so the
  // commit path waits on one fsync chain (the WAL's), not two.
  for (size_t i = 0; i < pages.size(); ++i) {
    const PageImage& img = pages[i];
    StorageArea* a = AreaOrNull(img.area);
    if (a == nullptr) return Status::Internal("dirty page in unknown area");
    BESS_RETURN_IF_ERROR(a->WritePages(img.page, 1, img.bytes.data(), lsn));
    // DPT entry strictly after the write: every entry a checkpoint trim
    // swaps out describes a completed write its area sync then covers.
    // The recLSN is the page's own kPageWrite record (never the commit
    // LSN — redo from the commit record would skip the page's images).
    const Lsn rec_lsn = i < page_lsns.size() ? page_lsns[i] : lsn;
    if (rec_lsn != kNullLsn) {
      TouchDpt(PageAddr{img.db, img.area, img.page}.Pack(), rec_lsn);
    }
  }
  return Status::OK();
}

Status Database::CloseCommit(TxnId txn_id,
                             const std::vector<PageImage>& pages,
                             Lsn commit_lsn,
                             const std::vector<Lsn>& page_lsns) {
  // no-steal / force policy; trailers carry the commit LSN as page LSN
  Status fs = ForcePages(pages, commit_lsn, page_lsns);
  if (!fs.ok()) {
    // Partially forced commit: the txn stays registered so the retention
    // floor keeps its records (restart undo must be able to revert the
    // pages that did land) until this process restarts.
    return fs;
  }
  LogRecord end;
  end.type = LogRecordType::kEnd;
  Status es = AppendToChain(txn_id, std::move(end)).status();
  // Forced pages are in the DPT now; the DPT carries retention from here
  // even if the End append failed.
  UnregisterLoggingTxn(txn_id);
  return es;
}

Status Database::LogAndForce(TxnId txn_id,
                             const std::vector<PageImage>& pages) {
  // Nothing to force and nothing logged: nothing to commit. A transaction
  // that logged only index records still closes its chain (steal/no-force:
  // durability is the flushed commit record alone).
  if (pages.empty() && TxnChainHead(txn_id) == kNullLsn) return Status::OK();
  std::vector<Lsn> page_lsns;
  // LogPageSet rolls the chain back and unregisters on failure (nothing
  // forced).
  BESS_ASSIGN_OR_RETURN(
      const Lsn commit_lsn,
      LogPageSet(txn_id, pages, LogRecordType::kCommit, &page_lsns));
  return CloseCommit(txn_id, pages, commit_lsn, page_lsns);
}

void Database::UnregisterLoggingTxn(TxnId txn_id) {
  std::lock_guard<std::mutex> guard(rec_mutex_);
  logging_txns_.erase(txn_id);
}

Status Database::AbortLoggedChain(TxnId txn_id) {
  const Lsn head = TxnChainHead(txn_id);
  Status st;
  if (head != kNullLsn) {
    // The transaction's object pages were never forced, so the walker gets
    // no page sink. Its index records are live in the trees (steal): each
    // is undone logically against the live runtime.
    UndoCounts counts;
    st = UndoChain(
        wal_.get(), txn_id, head, /*sink=*/nullptr,
        [this](const LogRecord& rec, const ClrLogger& log_clr) -> Status {
          BESS_ASSIGN_OR_RETURN(std::shared_ptr<BTreeIndex> rt,
                                IndexRuntime(rec.index_area));
          return rt->UndoLogical(rec, log_clr);
        },
        &counts);
    BESS_COUNT_N("wal.abort.clrs", counts.clrs);
  }
  UnregisterLoggingTxn(txn_id);
  return st;
}

void Database::TouchDpt(uint64_t page_key, Lsn rec_lsn) {
  std::lock_guard<std::mutex> guard(rec_mutex_);
  auto [it, inserted] = dpt_.try_emplace(page_key, rec_lsn);
  if (!inserted && rec_lsn < it->second) it->second = rec_lsn;
}

void Database::InstallRepairHandler(StorageArea* area) {
  const uint16_t area_id = area->area_id();
  area->set_repair_handler(
      [this, area_id](PageId page, uint32_t expected_crc,
                      std::string* image) -> Status {
        Status s = RepairPageFromLog(wal_.get(), options_.db_id, area_id,
                                     page, expected_crc, image);
        if (!s.ok()) BESS_COUNT("page.repair.miss");
        return s;
      });
}

void Database::InstallRepairHandlers() {
  std::lock_guard<std::mutex> guard(areas_mutex_);
  for (auto& area : areas_) InstallRepairHandler(area.get());
}

Status Database::Commit(Txn* txn, CommitStats* out) {
  const uint64_t start_ns = obs::Trace::NowNs();
  if (txn == nullptr || txn != tl_txn) {
    return Status::InvalidArgument("commit of foreign transaction");
  }
  if (txn->poisoned) {
    Status poison = txn->poison_status;
    BESS_RETURN_IF_ERROR(Abort(txn));
    return poison.ok() ? Status::Aborted("transaction was poisoned") : poison;
  }

  auto seg_pred = [this, txn](SegmentId id) {
    LockMode m;
    return locks_.Holds(txn->id, LockKey::Segment(id.Pack()), &m) &&
           m == LockMode::kX;
  };
  auto page_pred = [this, txn](PageAddr pa) {
    LockMode m;
    return locks_.Holds(txn->id, LockKey::Page(pa.db, pa.area, pa.page), &m) &&
           m == LockMode::kX;
  };

  std::vector<PageImage> pages;
  BESS_RETURN_IF_ERROR(mapper_->CollectDirtyFor(&pages, seg_pred, page_pred));
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    if (catalog_dirty_) {
      // The catalog rides along in the same atomic commit.
      std::string payload;
      EncodeCatalogLocked(&payload);
      std::string blob(static_cast<size_t>(kCatalogPages) * kPageSize, '\0');
      if (payload.size() + 12 > blob.size()) {
        return Status::NoSpace("catalog exceeds its segment");
      }
      EncodeFixed32(blob.data(), kCatalogMagic);
      EncodeFixed32(blob.data() + 4, static_cast<uint32_t>(payload.size()));
      EncodeFixed32(
          blob.data() + 8,
          crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
      memcpy(blob.data() + 12, payload.data(), payload.size());
      for (uint32_t p = 0; p < kCatalogPages; ++p) {
        PageImage img;
        img.db = options_.db_id;
        img.area = 0;
        img.page = kCatalogFirstPage + p;
        img.bytes.assign(blob.data() + static_cast<size_t>(p) * kPageSize,
                         kPageSize);
        pages.push_back(std::move(img));
      }
      catalog_dirty_ = false;
    }
  }

  const Lsn wal_before = wal_->tail_lsn();
  Status s = LogAndForce(txn->id, pages);
  if (!s.ok()) {
    // Commit failed before any page hit the areas (WAL write/flush error) —
    // roll the transaction back.
    txn->poisoned = true;
    txn->poison_status = s;
    (void)Abort(txn);
    return s;
  }
  BESS_RETURN_IF_ERROR(mapper_->MarkCleanFor(seg_pred, page_pred));
  const size_t locks_held = locks_.HeldKeys(txn->id).size();
  locks_.ReleaseAll(txn->id);
  EventContext ctx;
  ctx.a = txn->id;
  (void)FireEvent(Event::kTransactionCommit, ctx);
  tl_txn = nullptr;
  delete txn;
  const uint64_t dur_ns = obs::Trace::NowNs() - start_ns;
  BESS_COUNT("txn.commit");
  BESS_HIST("txn.commit.latency", dur_ns);
  if (out != nullptr) {
    out->log_bytes = static_cast<uint64_t>(wal_->tail_lsn() - wal_before);
    out->pages_forced = static_cast<uint32_t>(pages.size());
    out->locks_held = static_cast<uint32_t>(locks_held);
    out->duration_ns = dur_ns;
  }
  return Status::OK();
}

Status Database::Abort(Txn* txn) {
  if (txn == nullptr || txn != tl_txn) {
    return Status::InvalidArgument("abort of foreign transaction");
  }
  // Index records are steal/no-force: unlike object pages their effects are
  // live in the trees (and possibly on disk) right now, so an abort must
  // close the WAL chain with logical undo + CLRs. Object-page records in
  // the same chain get before-image CLRs — redundant with the in-memory
  // revert below, but required for restart redo to net out. No-op for
  // transactions that never logged (the common abort: nothing committed).
  (void)AbortLoggedChain(txn->id);
  // Roll back in-memory state: segments this txn created/mutated
  // structurally are evicted (refault from disk); pages it dirtied are
  // restored from their undo images.
  std::vector<uint64_t> keys = locks_.HeldKeys(txn->id);
  for (uint64_t key : keys) {
    LockMode m;
    if (!locks_.Holds(txn->id, key, &m) || m != LockMode::kX) continue;
    if (LockKey::IsSegment(key)) {
      (void)mapper_->Evict(SegmentId::Unpack(LockKey::UnpackSegment(key)),
                           /*drop_dirty=*/true);
    }
  }
  for (uint64_t key : keys) {
    LockMode m;
    if (!locks_.Holds(txn->id, key, &m) || m != LockMode::kX) continue;
    if (LockKey::IsPage(key)) {
      uint16_t db, area;
      uint32_t page;
      LockKey::UnpackPage(key, &db, &area, &page);
      (void)mapper_->RevertPage(PageAddr{db, area, page});
    }
  }
  locks_.ReleaseAll(txn->id);
  EventContext ctx;
  ctx.a = txn->id;
  (void)FireEvent(Event::kTransactionAbort, ctx);
  tl_txn = nullptr;
  delete txn;
  BESS_COUNT("txn.abort");
  return Status::OK();
}

// ---- secondary indexes (DESIGN.md §14) --------------------------------------

Lsn Database::TxnChainHead(TxnId txn_id) {
  std::lock_guard<std::mutex> guard(rec_mutex_);
  auto it = logging_txns_.find(txn_id);
  return it == logging_txns_.end() ? kNullLsn : it->second.last_lsn;
}

Result<std::shared_ptr<BTreeIndex>> Database::IndexRuntime(uint16_t area_id) {
  {
    std::lock_guard<std::mutex> guard(indexes_mutex_);
    auto it = index_runtimes_.find(area_id);
    if (it != index_runtimes_.end()) return it->second;
  }
  StorageArea* area = AreaOrNull(area_id);
  if (area == nullptr) {
    return Status::NotFound("no storage area " + std::to_string(area_id));
  }
  BTreeIndex::Options iopts;
  iopts.db = options_.db_id;
  // Write-back coupling: a cleaned frame parks in the DPT until a
  // checkpoint sync verifiably covers the write, and the WAL-before-data
  // gate holds the write back until its LSN is durable.
  iopts.on_cleaned = [this](uint64_t key, uint64_t rec_lsn) {
    TouchDpt(key, rec_lsn != 0 ? rec_lsn : wal_->oldest_lsn());
  };
  iopts.ensure_wal_durable = [this](uint64_t lsn) {
    return wal_->Flush(lsn);
  };
  iopts.append_smo = [this](const LogRecord& smo) {
    return wal_->AppendUnthrottled(smo);
  };
  BESS_ASSIGN_OR_RETURN(auto tree, BTreeIndex::Open(area, iopts));
  std::shared_ptr<BTreeIndex> shared(std::move(tree));
  std::lock_guard<std::mutex> guard(indexes_mutex_);
  auto [it, inserted] = index_runtimes_.emplace(area_id, std::move(shared));
  return it->second;  // a racing opener may have won; use whoever did
}

Result<Index> Database::CreateIndex(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("index name required");
  uint16_t area_id = 0;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    if (index_catalog_.count(name) != 0) {
      return Status::InvalidArgument("index exists: " + name);
    }
    const uint16_t id = static_cast<uint16_t>(area_count());
    if (id > 255) return Status::NoSpace("OIDs carry 8-bit area numbers");
    BESS_ASSIGN_OR_RETURN(auto area, StorageArea::Create(AreaPath(id), id));
    BESS_RETURN_IF_ERROR(BTreeIndex::Format(area.get()));
    BESS_RETURN_IF_ERROR(area->Sync());
    InstallRepairHandler(area.get());
    {
      std::lock_guard<std::mutex> areas_guard(areas_mutex_);
      areas_.push_back(std::move(area));
    }
    index_catalog_[name] = id;
    catalog_dirty_ = true;
    // Creation is made durable by the catalog save, not the WAL — which
    // means the save must be synced here: the direct catalog write has no
    // WAL image to redo from, and its trailer stamp only reaches the file
    // on Sync (a commit-riding catalog save is logged by LogAndForce, so
    // redo covers it until a checkpoint syncs the area).
    BESS_RETURN_IF_ERROR(SaveCatalogLocked());
    StorageArea* a0 = AreaOrNull(0);
    if (a0 == nullptr) return Status::NotFound("no storage area 0");
    BESS_RETURN_IF_ERROR(a0->Sync());
    area_id = id;
  }
  BESS_COUNT("index.create");
  return OpenHandle(name, area_id);
}

Result<Index> Database::OpenIndex(const std::string& name) {
  uint16_t area_id = 0;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = index_catalog_.find(name);
    if (it == index_catalog_.end()) {
      return Status::NotFound("no index named " + name);
    }
    area_id = it->second;
  }
  return OpenHandle(name, area_id);
}

Result<Index> Database::OpenHandle(const std::string& name, uint16_t area_id) {
  BESS_ASSIGN_OR_RETURN(std::shared_ptr<BTreeIndex> rt, IndexRuntime(area_id));
  Index handle;
  handle.db_ = this;
  handle.impl_ = std::move(rt);
  handle.name_ = name;
  return handle;
}

Status Database::DropIndex(const std::string& name) {
  uint16_t area_id = 0;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = index_catalog_.find(name);
    if (it == index_catalog_.end()) {
      return Status::NotFound("no index named " + name);
    }
    area_id = it->second;
    index_catalog_.erase(it);
    catalog_dirty_ = true;
    BESS_RETURN_IF_ERROR(SaveCatalogLocked());
    // Same durability rule as CreateIndex: the direct save needs its sync.
    StorageArea* a0 = AreaOrNull(0);
    if (a0 == nullptr) return Status::NotFound("no storage area 0");
    BESS_RETURN_IF_ERROR(a0->Sync());
  }
  std::shared_ptr<BTreeIndex> victim;
  {
    std::lock_guard<std::mutex> guard(indexes_mutex_);
    auto it = index_runtimes_.find(area_id);
    if (it != index_runtimes_.end()) {
      victim = std::move(it->second);
      index_runtimes_.erase(it);
    }
  }
  victim.reset();  // outstanding handles keep the runtime alive until dropped
  BESS_COUNT("index.drop");
  return Status::OK();
}

std::vector<std::string> Database::ListIndexes() const {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  std::vector<std::string> names;
  names.reserve(index_catalog_.size());
  for (const auto& [name, area] : index_catalog_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

// ---- Index handle -----------------------------------------------------------

// Shared prologue of Index::Put/Delete: resolve the acting transaction id
// (autocommit mints a fresh one) and refuse poisoned transactions.
Status Database::IndexTxnPrologue(Txn* txn, bool* autocommit, TxnId* id) {
  if (txn != nullptr) {
    if (txn->db != this) {
      return Status::InvalidArgument("index write under foreign transaction");
    }
    if (txn->poisoned) {
      return txn->poison_status.ok()
                 ? Status::Aborted("transaction was poisoned")
                 : txn->poison_status;
    }
    *autocommit = false;
    *id = txn->id;
  } else {
    *autocommit = true;
    *id = NextTxnId();
  }
  return Status::OK();
}

Status Index::Put(Txn* txn, Slice key, Slice value) {
  if (!valid()) return Status::InvalidArgument("invalid index handle");
  bool autocommit = false;
  TxnId id = kNoTxn;
  BESS_RETURN_IF_ERROR(db_->IndexTxnPrologue(txn, &autocommit, &id));
  BTreeIndex::RecordLogger logger = [this, id](LogRecord&& rec) {
    return db_->AppendToChain(id, std::move(rec));
  };
  Status s = impl_->Put(key, value, logger);
  return db_->FinishIndexWrite(txn, id, autocommit, s);
}

Status Index::Delete(Txn* txn, Slice key, bool* existed) {
  if (!valid()) return Status::InvalidArgument("invalid index handle");
  bool autocommit = false;
  TxnId id = kNoTxn;
  BESS_RETURN_IF_ERROR(db_->IndexTxnPrologue(txn, &autocommit, &id));
  BTreeIndex::RecordLogger logger = [this, id](LogRecord&& rec) {
    return db_->AppendToChain(id, std::move(rec));
  };
  bool was_there = false;
  Status s = impl_->Delete(key, &was_there, logger);
  if (existed != nullptr) *existed = was_there;
  return db_->FinishIndexWrite(txn, id, autocommit, s);
}

Status Database::FinishIndexWrite(Txn* txn, TxnId id, bool autocommit,
                                  Status op) {
  if (!op.ok()) {
    if (autocommit) {
      // Close whatever chain the failed op left behind (possibly none).
      (void)AbortLoggedChain(id);
    } else if (!txn->poisoned) {
      // The tree and the txn's chain may disagree now; only Abort's
      // logical undo reconciles them. Poison so commit refuses.
      txn->poisoned = true;
      txn->poison_status = op;
    }
    return op;
  }
  if (autocommit) {
    // Micro-commit: kCommit + flush + kEnd on the chain (index pages are
    // steal/no-force — nothing to force, the flushed record is the commit).
    return LogAndForce(id, {});
  }
  return Status::OK();
}

Result<bool> Index::Get(Slice key, std::string* value) const {
  if (!valid()) return Status::InvalidArgument("invalid index handle");
  return impl_->Get(key, value);
}

Status Index::Scan(
    Slice lo, Slice hi,
    const std::function<Status(Slice key, Slice value)>& fn) const {
  if (!valid()) return Status::InvalidArgument("invalid index handle");
  return impl_->Scan(lo, hi, fn);
}

// ---- object lifecycle ---------------------------------------------------------

Result<SegmentId> Database::NewObjectSegmentLocked(FileInfo* file,
                                                   uint32_t min_data_bytes) {
  // Pick the placement area: plain files always use their single area,
  // multifiles round-robin across their placement set (parallel I/O, §2).
  uint16_t area_id = file->areas[0];
  if (file->multifile && !file->areas.empty()) {
    area_id = file->areas[file->next_area % file->areas.size()];
    file->next_area++;
  }
  StorageArea* area = AreaOrNull(area_id);
  if (area == nullptr) return Status::NotFound("no storage area");

  const size_t slotted_bytes = SlottedImageSize(options_.slot_capacity,
                                                options_.outbound_capacity);
  const uint32_t slotted_pages =
      static_cast<uint32_t>((slotted_bytes + kPageSize - 1) / kPageSize);
  uint32_t data_pages = kDataSegmentPages;
  const uint32_t need = static_cast<uint32_t>(
      (min_data_bytes + kPageSize - 1) / kPageSize);
  if (need > data_pages) data_pages = need;

  BESS_ASSIGN_OR_RETURN(DiskSegment slotted, area->AllocSegment(slotted_pages));
  BESS_ASSIGN_OR_RETURN(DiskSegment data, area->AllocSegment(data_pages));

  const SegmentId id{options_.db_id, area_id, slotted.first_page};
  // Persist an empty, formatted image immediately: if the creating
  // transaction aborts, the catalog still points at a valid (empty)
  // segment, so scans and fetches keep working.
  {
    std::string image(static_cast<size_t>(slotted.page_count) * kPageSize,
                      '\0');
    BESS_ASSIGN_OR_RETURN(
        SlottedView view,
        SlottedView::Format(image.data(), image.size(), id, file->file_id,
                            options_.slot_capacity,
                            options_.outbound_capacity));
    SlottedHeader* h = view.header();
    h->data_area = area_id;
    h->data_first_page = data.first_page;
    h->data_page_count = data.page_count;
    BESS_RETURN_IF_ERROR(
        area->WritePages(slotted.first_page, slotted.page_count,
                         image.data()));
    std::string zeros(static_cast<size_t>(data.page_count) * kPageSize, '\0');
    BESS_RETURN_IF_ERROR(
        area->WritePages(data.first_page, data.page_count, zeros.data()));
  }
  // Creation owns the segment exclusively for this transaction.
  Txn* txn = Current();
  if (txn != nullptr && txn->db == this) {
    BESS_RETURN_IF_ERROR(locks_.Acquire(txn->id, LockKey::Segment(id.Pack()),
                                        LockMode::kX,
                                        options_.lock_timeout_ms));
  }
  BESS_ASSIGN_OR_RETURN(
      SlottedView view,
      mapper_->InstallNewSegment(id, file->file_id, slotted.page_count,
                                 options_.slot_capacity,
                                 options_.outbound_capacity, area_id,
                                 data.first_page, data.page_count));
  (void)view;
  file->segments.push_back(id.Pack());
  file->active_segment = id.Pack();
  catalog_dirty_ = true;
  return id;
}

Result<Slot*> Database::CreateObject(uint16_t file_id, TypeIdx type,
                                     uint32_t size, const void* init) {
  Txn* txn = Current();
  if (txn != nullptr && txn->poisoned) return txn->poison_status;

  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return Status::NotFound("no such file");
  FileInfo* file = &it->second;

  // Big objects get their own disk segment but a slot in a normal segment
  // (transparent large objects, §2.1; up to 64 KB).
  if (size > kMaxTransparentObjectSize) {
    return Status::InvalidArgument(
        "objects above 64 KB must use the byte-range large-object class "
        "(bess::LargeObject)");
  }
  const bool large = size >= kLargeObjectThreshold;

  // Find a home segment with room (slot + data space for small objects).
  for (int attempt = 0; attempt < 2; ++attempt) {
    SegmentId home = SegmentId::Unpack(file->active_segment);
    if (file->active_segment == 0 || !home.valid()) {
      BESS_ASSIGN_OR_RETURN(home, NewObjectSegmentLocked(file, large ? 0 : size));
    }
    // Take the segment X lock (creation mutates control structures).
    if (txn != nullptr && txn->db == this) {
      Status s = locks_.Acquire(txn->id, LockKey::Segment(home.Pack()),
                                LockMode::kX, options_.lock_timeout_ms);
      if (!s.ok()) return s;
    }
    Result<Slot*> slot = Status::Internal("");
    if (large) {
      const uint32_t pages =
          static_cast<uint32_t>((size + kPageSize - 1) / kPageSize);
      StorageArea* area = AreaOrNull(home.area);
      if (area == nullptr) return Status::NotFound("no storage area");
      BESS_ASSIGN_OR_RETURN(DiskSegment lo, area->AllocSegment(pages));
      slot = mapper_->CreateLargeObject(home, type, size, home.area,
                                        lo.first_page,
                                        static_cast<uint16_t>(lo.page_count));
      if (slot.ok() && init != nullptr) {
        memcpy(reinterpret_cast<void*>((*slot)->dp), init, size);
      } else if (!slot.ok()) {
        (void)area->FreeSegment(lo.first_page);
      }
    } else {
      slot = mapper_->CreateObject(home, type, size, init);
    }
    if (slot.ok()) return slot;
    if (!slot.status().IsNoSpace()) return slot;
    // Active segment full: open a fresh one and retry once.
    BESS_ASSIGN_OR_RETURN(home, NewObjectSegmentLocked(file, large ? 0 : size));
  }
  return Status::Internal("object placement failed twice");
}

Status Database::DeleteObject(Slot* slot) {
  SegmentId id;
  uint16_t slot_no;
  BESS_RETURN_IF_ERROR(mapper_->ResolveSlotAddress(slot, &id, &slot_no));
  Txn* txn = Current();
  if (txn != nullptr && txn->db == this) {
    BESS_RETURN_IF_ERROR(locks_.Acquire(txn->id, LockKey::Segment(id.Pack()),
                                        LockMode::kX,
                                        options_.lock_timeout_ms));
  }
  // Referential integrity: a deleted root loses its name (§2.5).
  auto oid = OidOf(slot);
  if (oid.ok()) {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = roots_by_oid_.find(*oid);
    if (it != roots_by_oid_.end()) {
      roots_by_name_.erase(it->second);
      roots_by_oid_.erase(it);
      catalog_dirty_ = true;
    }
  }
  return mapper_->DeleteObject(id, slot_no);
}

Result<Oid> Database::OidOf(Slot* slot) {
  SegmentId id;
  uint16_t slot_no;
  BESS_RETURN_IF_ERROR(mapper_->ResolveSlotAddress(slot, &id, &slot_no));
  if (id.area > 255) return Status::Internal("area id exceeds OID range");
  Oid oid;
  oid.host = options_.host_id;
  oid.db = static_cast<uint8_t>(id.db);
  oid.area = static_cast<uint8_t>(id.area);
  oid.page = id.first_page;
  oid.slot = slot_no;
  oid.uniq = static_cast<uint16_t>(slot->uniquifier);  // approximate (§2.1)
  return oid;
}

Result<Slot*> Database::Deref(const Oid& oid) {
  if (oid.db != static_cast<uint8_t>(options_.db_id)) {
    Database* other = FindById(oid.db);
    if (other == nullptr) {
      return Status::NotFound("database " + std::to_string(oid.db) +
                              " is not open");
    }
    return other->Deref(oid);
  }
  BESS_ASSIGN_OR_RETURN(SlottedView view,
                        mapper_->FetchSlottedNow(oid.segment()));
  if (oid.slot >= view.header()->slot_count) {
    return Status::NotFound("stale OID (slot beyond segment): " +
                            oid.ToString());
  }
  Slot* slot = view.slot(oid.slot);
  if (!slot->in_use() ||
      static_cast<uint16_t>(slot->uniquifier) != oid.uniq) {
    return Status::NotFound("stale OID (object deleted): " + oid.ToString());
  }
  return ResolveForward(slot);
}

Result<Slot*> Database::CreateForward(uint16_t file_id, const Oid& target) {
  char buf[12];
  target.EncodeTo(buf);
  BESS_ASSIGN_OR_RETURN(Slot * slot,
                        CreateObject(file_id, kRawBytesType, 12, buf));
  SegmentId id;
  uint16_t slot_no;
  BESS_RETURN_IF_ERROR(mapper_->ResolveSlotAddress(slot, &id, &slot_no));
  BESS_RETURN_IF_ERROR(mapper_->WithSlottedWritable(
      id, [&](SlottedView& view) -> Status {
        view.slot(slot_no)->flags |= kSlotForward;
        return Status::OK();
      }));
  return slot;
}

Result<Slot*> Database::ResolveForward(Slot* slot) {
  if (!(slot->flags & kSlotForward)) return slot;
  const char* data = reinterpret_cast<const char*>(slot->dp);
  Oid target = Oid::DecodeFrom(data);
  if (target.db == static_cast<uint8_t>(options_.db_id)) return Deref(target);
  Database* other = FindById(target.db);
  if (other == nullptr) {
    return Status::NotFound("forward object target database " +
                            std::to_string(target.db) + " is not open");
  }
  return other->Deref(target);
}

// ---- roots ------------------------------------------------------------------

Status Database::SetRoot(const std::string& name, Slot* slot) {
  BESS_ASSIGN_OR_RETURN(Oid oid, OidOf(slot));
  std::lock_guard<std::mutex> guard(meta_mutex_);
  // One name per object and one object per name: replace both directions.
  auto by_name = roots_by_name_.find(name);
  if (by_name != roots_by_name_.end()) roots_by_oid_.erase(by_name->second);
  auto by_oid = roots_by_oid_.find(oid);
  if (by_oid != roots_by_oid_.end()) roots_by_name_.erase(by_oid->second);
  roots_by_name_[name] = oid;
  roots_by_oid_[oid] = name;
  catalog_dirty_ = true;
  return Status::OK();
}

Result<Slot*> Database::GetRoot(const std::string& name) {
  Oid oid;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = roots_by_name_.find(name);
    if (it == roots_by_name_.end()) {
      return Status::NotFound("no root named " + name);
    }
    oid = it->second;
  }
  return Deref(oid);
}

Status Database::RemoveRoot(const std::string& name) {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = roots_by_name_.find(name);
  if (it == roots_by_name_.end()) return Status::NotFound("no root " + name);
  roots_by_oid_.erase(it->second);
  roots_by_name_.erase(it);
  catalog_dirty_ = true;
  return Status::OK();
}

std::string Database::NameOf(const Oid& oid) const {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = roots_by_oid_.find(oid);
  return it == roots_by_oid_.end() ? "" : it->second;
}

// ---- scans ------------------------------------------------------------------

Status Database::Scan(uint16_t file_id,
                      const std::function<Status(Slot*)>& fn) {
  std::vector<uint64_t> segments;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = files_.find(file_id);
    if (it == files_.end()) return Status::NotFound("no such file");
    segments = it->second.segments;
  }
  for (uint64_t packed : segments) {
    BESS_ASSIGN_OR_RETURN(SlottedView view,
                          mapper_->FetchSlottedNow(SegmentId::Unpack(packed)));
    const uint32_t n = view.header()->slot_count;
    for (uint32_t i = 0; i < n; ++i) {
      Slot* s = view.slot(static_cast<uint16_t>(i));
      if (!s->in_use()) continue;
      BESS_RETURN_IF_ERROR(fn(s));
    }
  }
  return Status::OK();
}

Status Database::ParallelScan(
    uint16_t file_id, int threads,
    const std::function<Status(const Slot&, const void* data)>& fn) {
  std::vector<uint64_t> segments;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = files_.find(file_id);
    if (it == files_.end()) return Status::NotFound("no such file");
    segments = it->second.segments;
  }
  if (threads < 1) threads = 1;
  std::atomic<size_t> next{0};
  std::vector<Status> results(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Direct I/O path: each worker reads segments on its own, bypassing
      // the shared mapper — this is what makes the scan truly parallel.
      std::string slotted(kMaxSlottedPages * kPageSize, '\0');
      std::string data;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= segments.size()) break;
        const SegmentId id = SegmentId::Unpack(segments[i]);
        uint32_t pages = 0;
        Status s = store_->FetchSlotted(id, slotted.data(), &pages);
        if (!s.ok()) {
          results[static_cast<size_t>(t)] = s;
          return;
        }
        SlottedView view(slotted.data(), pages * kPageSize);
        const SlottedHeader* h = view.header();
        data.resize(static_cast<size_t>(h->data_page_count) * kPageSize);
        if (h->data_page_count > 0) {
          s = store_->FetchPages(id.db, h->data_area, h->data_first_page,
                                 h->data_page_count, data.data());
          if (!s.ok()) {
            results[static_cast<size_t>(t)] = s;
            return;
          }
        }
        for (uint32_t j = 0; j < h->slot_count; ++j) {
          const Slot* slot = view.slot(static_cast<uint16_t>(j));
          if (!slot->in_use()) continue;
          const void* obj = nullptr;
          std::string large;
          if (slot->flags & kSlotLargeObject) {
            uint16_t area, lo_pages;
            PageId page;
            Slot::UnpackDiskAddr(slot->dp, &area, &page, &lo_pages);
            large.resize(static_cast<size_t>(lo_pages) * kPageSize);
            s = store_->FetchPages(id.db, area, page, lo_pages, large.data());
            if (!s.ok()) {
              results[static_cast<size_t>(t)] = s;
              return;
            }
            obj = large.data();
          } else if (!(slot->flags & (kSlotVeryLarge | kSlotForward))) {
            obj = data.data() + slot->dp;  // dp is an offset on disk
          } else {
            continue;
          }
          s = fn(*slot, obj);
          if (!s.ok()) {
            results[static_cast<size_t>(t)] = s;
            return;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<uint64_t> Database::CountObjects(uint16_t file_id) {
  uint64_t count = 0;
  BESS_RETURN_IF_ERROR(Scan(file_id, [&](Slot*) {
    ++count;
    return Status::OK();
  }));
  return count;
}

// ---- reorganization -----------------------------------------------------------

Status Database::MoveFileData(uint16_t file_id, uint16_t to_area) {
  std::vector<uint64_t> segments;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = files_.find(file_id);
    if (it == files_.end()) return Status::NotFound("no such file");
    if (AreaOrNull(to_area) == nullptr) return Status::NotFound("no such area");
    segments = it->second.segments;
  }
  Txn* txn = Current();
  for (uint64_t packed : segments) {
    const SegmentId id = SegmentId::Unpack(packed);
    if (txn != nullptr && txn->db == this) {
      BESS_RETURN_IF_ERROR(locks_.Acquire(txn->id,
                                          LockKey::Segment(id.Pack()),
                                          LockMode::kX,
                                          options_.lock_timeout_ms));
    }
    BESS_ASSIGN_OR_RETURN(SlottedView view, mapper_->FetchSlottedNow(id));
    const SlottedHeader* h = view.header();
    const uint16_t old_area = h->data_area;
    const PageId old_first = h->data_first_page;
    const uint32_t pages = h->data_page_count;
    if (old_area == to_area) continue;
    StorageArea* dst = AreaOrNull(to_area);
    StorageArea* src = AreaOrNull(old_area);
    if (dst == nullptr || src == nullptr) {
      return Status::NotFound("no such area");
    }
    BESS_ASSIGN_OR_RETURN(DiskSegment fresh, dst->AllocSegment(pages));
    BESS_RETURN_IF_ERROR(
        mapper_->RelocateData(id, to_area, fresh.first_page,
                              fresh.page_count));
    BESS_RETURN_IF_ERROR(src->FreeSegment(old_first));
  }
  return Status::OK();
}

Status Database::CompactFile(uint16_t file_id) {
  std::vector<uint64_t> segments;
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    auto it = files_.find(file_id);
    if (it == files_.end()) return Status::NotFound("no such file");
    segments = it->second.segments;
  }
  Txn* txn = Current();
  for (uint64_t packed : segments) {
    const SegmentId id = SegmentId::Unpack(packed);
    if (txn != nullptr && txn->db == this) {
      BESS_RETURN_IF_ERROR(locks_.Acquire(txn->id,
                                          LockKey::Segment(id.Pack()),
                                          LockMode::kX,
                                          options_.lock_timeout_ms));
    }
    BESS_RETURN_IF_ERROR(mapper_->CompactData(id));
  }
  return Status::OK();
}

// ---- server-side services -------------------------------------------------------

Status Database::ReadRawPages(uint16_t area, PageId first, uint32_t count,
                              void* buf) {
  StorageArea* a = AreaOrNull(area);
  if (a == nullptr) return Status::NotFound("no storage area");
  return a->ReadPages(first, count, buf);
}

Status Database::WriteRawPages(uint16_t area, PageId first, uint32_t count,
                               const void* buf) {
  StorageArea* a = AreaOrNull(area);
  if (a == nullptr) return Status::NotFound("no storage area");
  return a->WritePages(first, count, buf);
}

Status Database::CommitPageSet(const std::vector<PageImage>& pages) {
  if (pages.empty()) return Status::OK();
  const TxnId id = NextTxnId();
  return LogAndForce(id, pages);
}

Status Database::PreparePageSet(uint64_t gtid,
                                const std::vector<PageImage>& pages) {
  // Phase 1: make the page set durable in the log together with a prepare
  // record. Nothing is forced yet; presumed abort on restart. The txn stays
  // in the logging-txn table until phase 2 — an in-doubt txn pins the log's
  // retention floor at its first record (its page set lives only there).
  PreparedSet set;
  set.pages = pages;
  BESS_RETURN_IF_ERROR(
      LogPageSet(gtid, pages, LogRecordType::kPrepare, &set.page_lsns)
          .status());
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  prepared_[gtid] = std::move(set);
  return Status::OK();
}

Status Database::CommitPrepared(uint64_t gtid) {
  PreparedSet set;
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    auto it = prepared_.find(gtid);
    if (it == prepared_.end()) {
      return Status::NotFound("no prepared transaction " +
                              std::to_string(gtid) + " (presumed abort)");
    }
    set = std::move(it->second);
    prepared_.erase(it);
  }
  // Phase 2 continues the prepared chain, already admitted: its records
  // bypass backpressure, since resolving an in-doubt txn is what lets the
  // retention floor (and the log) shrink again.
  BESS_ASSIGN_OR_RETURN(const Lsn lsn,
                        LogPageSet(gtid, {}, LogRecordType::kCommit));
  return CloseCommit(gtid, set.pages, lsn, set.page_lsns);
}

Status Database::AbortPrepared(uint64_t gtid) {
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    // A gtid with nothing in the log (presumed abort of an unknown txn)
    // needs no record: restart ignores kAbort, and a lone kEnd changes no
    // outcome.
    if (prepared_.erase(gtid) == 0) return Status::OK();
  }
  // The prepared page set is in the log but was never forced.
  return AbortLoggedChain(gtid);
}

Result<Database::RemoteSegmentGrant> Database::GrantObjectSegment(
    uint16_t file_id, uint32_t min_data_bytes) {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return Status::NotFound("no such file");
  FileInfo* file = &it->second;

  uint16_t area_id = file->areas[0];
  if (file->multifile && !file->areas.empty()) {
    area_id = file->areas[file->next_area % file->areas.size()];
    file->next_area++;
  }
  StorageArea* area = AreaOrNull(area_id);
  if (area == nullptr) return Status::NotFound("no storage area");
  const size_t slotted_bytes = SlottedImageSize(options_.slot_capacity,
                                                options_.outbound_capacity);
  const uint32_t slotted_pages =
      static_cast<uint32_t>((slotted_bytes + kPageSize - 1) / kPageSize);
  uint32_t data_pages = kDataSegmentPages;
  const uint32_t need = static_cast<uint32_t>(
      (min_data_bytes + kPageSize - 1) / kPageSize);
  if (need > data_pages) data_pages = need;

  BESS_ASSIGN_OR_RETURN(DiskSegment slotted, area->AllocSegment(slotted_pages));
  BESS_ASSIGN_OR_RETURN(DiskSegment data, area->AllocSegment(data_pages));

  {
    const SegmentId id{options_.db_id, area_id, slotted.first_page};
    std::string image(static_cast<size_t>(slotted.page_count) * kPageSize,
                      '\0');
    BESS_ASSIGN_OR_RETURN(
        SlottedView view,
        SlottedView::Format(image.data(), image.size(), id, file_id,
                            options_.slot_capacity,
                            options_.outbound_capacity));
    SlottedHeader* h = view.header();
    h->data_area = area_id;
    h->data_first_page = data.first_page;
    h->data_page_count = data.page_count;
    BESS_RETURN_IF_ERROR(
        area->WritePages(slotted.first_page, slotted.page_count,
                         image.data()));
    std::string zeros(static_cast<size_t>(data.page_count) * kPageSize, '\0');
    BESS_RETURN_IF_ERROR(
        area->WritePages(data.first_page, data.page_count, zeros.data()));
  }

  RemoteSegmentGrant grant;
  grant.id = SegmentId{options_.db_id, area_id, slotted.first_page};
  grant.slotted_pages = slotted.page_count;
  grant.slot_capacity = options_.slot_capacity;
  grant.outbound_capacity = options_.outbound_capacity;
  grant.data_area = area_id;
  grant.data_first_page = data.first_page;
  grant.data_page_count = data.page_count;

  file->segments.push_back(grant.id.Pack());
  file->active_segment = grant.id.Pack();
  catalog_dirty_ = true;
  BESS_RETURN_IF_ERROR(SaveCatalogLocked());
  return grant;
}

Result<DiskSegment> Database::AllocDiskSegment(uint16_t area, uint32_t pages) {
  StorageArea* a = AreaOrNull(area);
  if (a == nullptr) return Status::NotFound("no storage area");
  return a->AllocSegment(pages);
}

Status Database::FreeDiskSegment(uint16_t area, PageId first_page) {
  StorageArea* a = AreaOrNull(area);
  if (a == nullptr) return Status::NotFound("no storage area");
  return a->FreeSegment(first_page);
}

Status Database::SetRootOid(const std::string& name, const Oid& oid) {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto by_name = roots_by_name_.find(name);
  if (by_name != roots_by_name_.end()) roots_by_oid_.erase(by_name->second);
  auto by_oid = roots_by_oid_.find(oid);
  if (by_oid != roots_by_oid_.end()) roots_by_name_.erase(by_oid->second);
  roots_by_name_[name] = oid;
  roots_by_oid_[oid] = name;
  catalog_dirty_ = true;
  return SaveCatalogLocked();
}

Result<Oid> Database::GetRootOid(const std::string& name) {
  std::lock_guard<std::mutex> guard(meta_mutex_);
  auto it = roots_by_name_.find(name);
  if (it == roots_by_name_.end()) {
    return Status::NotFound("no root named " + name);
  }
  return it->second;
}

// ---- maintenance --------------------------------------------------------------

Status Database::Checkpoint() {
  // Fuzzy checkpoint (paper §3 / ARIES): commits never quiesce. One at a
  // time; the log stays fully appendable throughout.
  std::lock_guard<std::mutex> cp_guard(checkpoint_mutex_);
  BESS_SPAN("db.checkpoint");
  {
    std::lock_guard<std::mutex> guard(meta_mutex_);
    BESS_RETURN_IF_ERROR(SaveCatalogLocked());
  }
  // (1) Trim the dirty-page table: swap it out, fsync every area, discard.
  // Every swapped entry describes a write that completed before the entry
  // was made — ForcePages inserts after WritePages, and the frame core's
  // cleaned hook inserts after the write-back I/O returned — so the sync
  // covers it. Entries added concurrently land in the fresh table and stay
  // for the snapshot. This insert-after-write rule is also why a background
  // write-back finishing between the Sync below and the CollectDirty
  // snapshot cannot lose its page: the frame leaves CollectDirty's view
  // only once its on_cleaned hook has returned, and the DPT entry that hook
  // made post-swap keeps the redo floor at its recLSN until a later
  // checkpoint's sync verifiably covers the write. On a sync failure the
  // entries are merged back — nothing is verifiably durable.
  std::unordered_map<uint64_t, Lsn> trimmed;
  {
    std::lock_guard<std::mutex> guard(rec_mutex_);
    trimmed.swap(dpt_);
  }
  Status sync_st = Sync();
  if (!sync_st.ok()) {
    std::lock_guard<std::mutex> guard(rec_mutex_);
    for (const auto& [key, lsn] : trimmed) {
      auto [it, inserted] = dpt_.try_emplace(key, lsn);
      if (!inserted && lsn < it->second) it->second = lsn;
    }
    return sync_st;
  }
  // (2) Snapshot: remaining dirty pages (+ any write-cache dirt), active
  // transactions, and the redo floor = min(snapshot start, recLSNs, active
  // txns' first LSNs). Taken atomically under rec_mutex_ so no page or txn
  // can slip between the floor and the tables.
  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  Lsn snapshot_start;
  // Index runtimes snapshotted outside rec_mutex_ (indexes_mutex_ is a
  // leaf); their dirty frames fold into the DPT exactly like the page
  // cache's below — still-dirty frames re-enter at every checkpoint, and
  // frames cleaned in between entered via on_cleaned → TouchDpt.
  std::vector<std::shared_ptr<BTreeIndex>> index_rts;
  {
    std::lock_guard<std::mutex> guard(indexes_mutex_);
    for (const auto& [id, rt] : index_runtimes_) index_rts.push_back(rt);
  }
  {
    std::lock_guard<std::mutex> guard(rec_mutex_);
    snapshot_start = wal_->tail_lsn();
    cp.redo_floor = snapshot_start;
    for (const auto& rt : index_rts) {
      std::vector<std::pair<uint64_t, uint64_t>> frames;
      rt->CollectDirty(&frames);
      for (const auto& [key, rec_lsn] : frames) {
        const Lsn bound = rec_lsn != 0 ? rec_lsn : wal_->oldest_lsn();
        auto [it, inserted] = dpt_.try_emplace(key, bound);
        if (!inserted && bound < it->second) it->second = bound;
      }
    }
    for (const auto& [key, rec_lsn] : dpt_) {
      cp.dirty_pages.push_back({PageAddr::Unpack(key), rec_lsn});
      if (rec_lsn != kNullLsn && rec_lsn < cp.redo_floor) {
        cp.redo_floor = rec_lsn;
      }
    }
    for (const auto& [txn, state] : logging_txns_) {
      if (state.first_lsn != kNullLsn && state.first_lsn < cp.redo_floor) {
        cp.redo_floor = state.first_lsn;
      }
    }
  }
  // Publish-then-fold (pairs with LogPageSet's mark-then-verify): announce
  // the tentative release floor first, then fold in the FPIs that admitted
  // transactions already decided to rely on. A transaction whose reliance
  // mark misses the fold is guaranteed — by rec_mutex_ ordering — to see
  // the published floor on its re-validation and relog the image instead.
  // The retained log thus always holds a base image for media repair of
  // every page an in-flight transaction is overwriting.
  fpi_floor_.store(cp.redo_floor, std::memory_order_release);
  Lsn release_floor = cp.redo_floor;
  {
    std::lock_guard<std::mutex> guard(rec_mutex_);
    for (const auto& [txn, state] : logging_txns_) {
      if (state.relied_fpi != kNullLsn && state.relied_fpi < release_floor) {
        release_floor = state.relied_fpi;
      }
    }
  }
  // (3) Log the checkpoint record (exempt from backpressure: checkpoints
  // are how a full log shrinks) and swing the master record to it.
  BESS_RETURN_IF_ERROR(fault::Check("wal.checkpoint.record", options_.dir));
  BESS_ASSIGN_OR_RETURN(Lsn cp_lsn, wal_->AppendUnthrottled(cp));
  BESS_RETURN_IF_ERROR(wal_->Flush(cp_lsn));
  BESS_RETURN_IF_ERROR(fault::Check("wal.checkpoint.master", options_.dir));
  BESS_RETURN_IF_ERROR(wal_->SetCheckpointLsn(cp_lsn));
  // (4) Retire FPI entries that fall below the release floor *before* any
  // segment is recycled: the next write of such a page then logs a fresh
  // full-page image, so media repair always has a base image in the
  // retained log. The release floor (not the redo floor) gates both the
  // pruning and the recycle, so an FPI a registered transaction relies on
  // stays readable until that transaction ends.
  {
    std::lock_guard<std::mutex> guard(fpi_mutex_);
    for (auto it = fpi_logged_.begin(); it != fpi_logged_.end();) {
      if (it->second < release_floor) {
        it = fpi_logged_.erase(it);
      } else {
        ++it;
      }
    }
  }
  BESS_RETURN_IF_ERROR(wal_->ReleaseSegments(release_floor));
  last_cp_tail_.store(snapshot_start, std::memory_order_relaxed);
  BESS_COUNT("wal.checkpoint.records");
  return Status::OK();
}

void Database::StartCheckpointThread() {
  if (options_.checkpoint_log_bytes == 0 &&
      options_.wal_soft_limit_bytes == 0) {
    return;
  }
  // Log-full backpressure kicks the thread for an urgent run; the periodic
  // trigger fires on log bytes appended since the last checkpoint.
  wal_->SetLogFullCallback([this] {
    std::lock_guard<std::mutex> guard(cp_mutex_);
    cp_kick_ = true;
    cp_cv_.notify_all();
  });
  cp_stop_ = false;
  checkpoint_thread_ = std::thread([this] { CheckpointMain(); });
}

void Database::StopCheckpointThread() {
  {
    std::lock_guard<std::mutex> guard(cp_mutex_);
    cp_stop_ = true;
    cp_cv_.notify_all();
  }
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  if (wal_ != nullptr) wal_->SetLogFullCallback(nullptr);
}

void Database::CheckpointMain() {
  std::unique_lock<std::mutex> lk(cp_mutex_);
  while (!cp_stop_) {
    cp_cv_.wait_for(lk, std::chrono::milliseconds(200),
                    [this] { return cp_stop_ || cp_kick_; });
    if (cp_stop_) return;
    const bool kicked = cp_kick_;
    cp_kick_ = false;
    lk.unlock();
    const bool due =
        options_.checkpoint_log_bytes > 0 &&
        wal_->tail_lsn() - last_cp_tail_.load(std::memory_order_relaxed) >=
            options_.checkpoint_log_bytes;
    if (kicked || due) {
      Status st = Checkpoint();
      if (!st.ok()) BESS_COUNT("db.checkpoint.errors");
    }
    lk.lock();
  }
}

Status Database::Sync() {
  std::vector<StorageArea*> areas;
  {
    std::lock_guard<std::mutex> guard(areas_mutex_);
    for (auto& a : areas_) areas.push_back(a.get());
  }
  for (StorageArea* a : areas) BESS_RETURN_IF_ERROR(a->Sync());
  return Status::OK();
}

Result<ScrubReport> Database::Scrub() {
  BESS_SPAN("db.scrub");
  ScrubReport report;
  // Snapshot the area list; Scrub itself runs without any lock so long
  // scrubs don't stall allocation (areas are never removed once added).
  std::vector<StorageArea*> areas;
  {
    std::lock_guard<std::mutex> guard(areas_mutex_);
    for (auto& a : areas_) areas.push_back(a.get());
  }
  for (StorageArea* a : areas) {
    Status s = a->Scrub(&report);
    if (!s.ok() && !s.IsCorruption()) return s;
  }
  return report;
}

// ---- registry -----------------------------------------------------------------

Database* Database::FindById(uint8_t db_id) {
  std::lock_guard<std::mutex> guard(g_registry_mutex);
  auto it = g_databases_by_id.find(db_id);
  return it == g_databases_by_id.end() ? nullptr : it->second;
}

Database* Database::FindByAddress(const void* addr) {
  FaultRangeOwner* owner = FaultDispatcher::Instance().FindOwner(addr);
  if (owner == nullptr) return nullptr;
  std::lock_guard<std::mutex> guard(g_registry_mutex);
  for (auto& [id, db] : g_databases_by_id) {
    (void)id;
    if (db->mapper_.get() == owner) return db;
  }
  return nullptr;
}

}  // namespace bess
