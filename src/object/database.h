// Database: the local BeSS engine — storage areas, the segment mapper,
// locking, write-ahead logging, BeSS files and multifiles, named roots and
// the catalog (paper §2).
//
// A database is a collection of BeSS files; files group objects for
// retrieval via scans, but any object is directly accessible through its
// reference or OID without touching its file (§2). All objects of a plain
// file live in one storage area; a *multifile* spans several areas, lifting
// the per-file size limit and enabling parallel I/O such as parallel file
// scans (§2, as used by Prospector/MoonBase).
//
// Transaction policy: strict 2PL (locks from the AccessObserver fault path),
// no-steal / force-at-commit buffering, and a physical WAL for atomicity of
// multi-page commits. Undo machinery exists (see wal/recovery) but in the
// default policy losers never reach disk.
#ifndef BESS_OBJECT_DATABASE_H_
#define BESS_OBJECT_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "object/oid.h"
#include "txn/lock_manager.h"
#include "vm/mapper.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace bess {

class BTreeIndex;

/// A transaction handle. Obtain with Database::Begin (one active transaction
/// per thread); pass to Commit/Abort.
struct Txn {
  TxnId id = kNoTxn;
  Lsn last_lsn = kNullLsn;
  bool poisoned = false;
  Status poison_status;
  class Database* db = nullptr;
};

/// What a commit cost. Filled by Database::Commit / RemoteClient::Commit and
/// returned by TxnGuard::Commit as Result<CommitStats>.
struct CommitStats {
  uint64_t log_bytes = 0;    ///< WAL bytes appended by this commit
  uint32_t pages_forced = 0; ///< dirty pages forced at commit (no-steal/force)
  uint32_t locks_held = 0;   ///< locks released by this commit
  uint64_t duration_ns = 0;  ///< wall time inside Commit
};

/// Handle to a named secondary index (DESIGN.md §14): a WAL-logged B+-tree
/// over byte-string keys, living in its own storage area. Obtained from
/// Database::CreateIndex/OpenIndex; cheap to copy (shared runtime).
///
/// Mutations may run inside a transaction (the index records join the
/// transaction's WAL chain; commit makes them durable, abort reverses them
/// logically) or standalone (`txn == nullptr`: each call is its own
/// committed micro-transaction). Index pages are steal/no-force — unlike
/// object pages they reach disk lazily via the background writer, and
/// restart recovery redoes/undoes them from the log.
class Index {
 public:
  Index() = default;
  bool valid() const { return impl_ != nullptr; }
  const std::string& name() const { return name_; }

  /// Upsert (key 1..256 bytes, value 0..256 bytes).
  Status Put(Txn* txn, Slice key, Slice value);
  /// Removes `key`; *existed (optional) reports whether it was present.
  Status Delete(Txn* txn, Slice key, bool* existed = nullptr);
  /// Point lookup: true + *value when present. Reads see the latest
  /// latched state (including uncommitted writes — see DESIGN.md §14).
  Result<bool> Get(Slice key, std::string* value) const;
  /// Ordered scan over [lo, hi] inclusive; empty lo = from the first key,
  /// empty hi = to the last. Leaves stream through the frame table's push
  /// pipeline. `fn` gets (key, value) views valid only during the call and
  /// must not call back into this index.
  Status Scan(Slice lo, Slice hi,
              const std::function<Status(Slice key, Slice value)>& fn) const;

 private:
  friend class Database;
  Database* db_ = nullptr;
  std::shared_ptr<BTreeIndex> impl_;
  std::string name_;
};

class Database {
 public:
  struct Options {
    std::string dir;            ///< directory holding areas, catalog, wal
    uint16_t db_id = 1;
    uint16_t host_id = 1;
    bool create = false;        ///< create fresh (true) or open existing
    int lock_timeout_ms = kLockTimeoutMillis;
    SegmentMapper::Options mapper;
    // Geometry of newly created object segments.
    uint32_t slot_capacity = 120;
    uint16_t outbound_capacity = 64;
    /// WAL segment size (the log is a ring of recycled segment files).
    uint64_t wal_segment_bytes = 4ull << 20;
    /// Retained-log soft limit: beyond it commit appends throttle (and kick
    /// a forced checkpoint) instead of growing the log unboundedly. 0 = off.
    uint64_t wal_soft_limit_bytes = 0;
    /// How long a throttled commit append waits for a checkpoint to free
    /// log space before failing with NoSpace.
    uint32_t wal_throttle_timeout_ms = 1000;
    /// Fuzzy-checkpoint trigger: checkpoint when this many log bytes have
    /// been appended since the last one (checked by a background thread).
    /// 0 disables the periodic trigger; explicit Checkpoint() still works.
    uint64_t checkpoint_log_bytes = 16ull << 20;
  };

  /// Opens or creates a database. Runs ARIES restart recovery when an
  /// existing database has a non-empty log.
  static Result<std::unique_ptr<Database>> Open(const Options& options);
  ~Database();

  uint16_t db_id() const { return options_.db_id; }

  // ---- Types ---------------------------------------------------------------

  /// Registers an object type; persisted in the catalog.
  Result<TypeIdx> RegisterType(const TypeDescriptor& desc);
  TypeTable* types() { return &types_; }

  // ---- Storage areas -------------------------------------------------------

  /// Adds a storage area (a new UNIX file under dir). Returns its area id.
  Result<uint16_t> AddStorageArea();
  uint32_t area_count() const;

  // ---- BeSS files ----------------------------------------------------------

  /// Creates a BeSS file. Plain files place all object segments in one
  /// area; multifiles may span all areas (AddFileArea to widen).
  Result<uint16_t> CreateFile(const std::string& name,
                              bool multifile = false);
  Result<uint16_t> FindFile(const std::string& name) const;
  /// Adds an area to a multifile's round-robin placement set.
  Status AddFileArea(uint16_t file_id, uint16_t area_id);

  // ---- Transactions ----------------------------------------------------------

  /// Begins a transaction on this thread (at most one per thread).
  Result<Txn*> Begin();
  /// Commits: WAL (before/after images + commit record, group-committed),
  /// force dirty pages, release locks. Cached segments stay mapped for the
  /// next transaction (inter-transaction caching, §3). `out`, when non-null,
  /// receives what the commit cost.
  Status Commit(Txn* txn, CommitStats* out = nullptr);
  /// Aborts: dirty segments dropped (no-steal: disk untouched), locks freed.
  Status Abort(Txn* txn);
  /// The thread's active transaction, or nullptr.
  static Txn* Current();

  // ---- Objects ---------------------------------------------------------------

  /// Creates an object in `file_id` (placement: current active segment, a
  /// new segment, or — for big objects — a dedicated transparent-large-
  /// object segment). Returns the object header (slot).
  Result<Slot*> CreateObject(uint16_t file_id, TypeIdx type, uint32_t size,
                             const void* init = nullptr);

  /// Deletes an object; removes its root name if it has one (referential
  /// integrity, §2.5).
  Status DeleteObject(Slot* slot);

  /// OID of a live object (paper: explicit identity for global_ref).
  Result<Oid> OidOf(Slot* slot);

  /// Dereferences an OID, validating the uniquifier. Follows forward
  /// objects and inter-database OIDs transparently (via the registry of
  /// open databases).
  Result<Slot*> Deref(const Oid& oid);

  /// Creates a forward object in this database referring to `target` (an
  /// object usually in another database); dereference follows it
  /// transparently (§2.1 inter-database references).
  Result<Slot*> CreateForward(uint16_t file_id, const Oid& target);

  /// If `slot` is a forward object, resolves to the real object; otherwise
  /// returns `slot` itself.
  Result<Slot*> ResolveForward(Slot* slot);

  // ---- Named roots (§2.5: a pair of hash tables) ----------------------------

  Status SetRoot(const std::string& name, Slot* slot);
  Result<Slot*> GetRoot(const std::string& name);
  Status RemoveRoot(const std::string& name);
  /// The name of an object, if it is a root ("" when not named).
  std::string NameOf(const Oid& oid) const;

  // ---- Scans -----------------------------------------------------------------

  /// Iterates every live object of a file (cursor-style). The callback gets
  /// the slot; object data faults in on access as usual.
  Status Scan(uint16_t file_id,
              const std::function<Status(Slot*)>& fn);

  /// Parallel scan for multifiles: segments are read with direct I/O on
  /// `threads` workers, bypassing the mapper cache (the content-analysis
  /// pattern of Prospector/MoonBase, §2). The callback receives raw object
  /// bytes (unswizzled) and runs concurrently.
  Status ParallelScan(
      uint16_t file_id, int threads,
      const std::function<Status(const Slot&, const void* data)>& fn);

  /// Live object count of a file (scans slotted segments only).
  Result<uint64_t> CountObjects(uint16_t file_id);

  // ---- Reorganization --------------------------------------------------------

  /// Moves every data segment of `file_id` into `to_area` — the paper's
  /// on-the-fly reorganization; references keep working throughout.
  Status MoveFileData(uint16_t file_id, uint16_t to_area);

  /// Compacts every data segment of the file.
  Status CompactFile(uint16_t file_id);

  // ---- Server-side services (used by BessServer, §3) -------------------------

  /// Raw page service for remote clients and node servers.
  Status ReadRawPages(uint16_t area, PageId first, uint32_t count, void* buf);
  Status WriteRawPages(uint16_t area, PageId first, uint32_t count,
                       const void* buf);

  /// Applies a remote client's commit atomically: WAL (before/after images
  /// + commit record, group-committed) then force.
  Status CommitPageSet(const std::vector<PageImage>& pages);

  /// Two-phase commit participant (paper §3): phase 1 logs the page set and
  /// a prepare record durably; phase 2 commits (forces) or aborts.
  Status PreparePageSet(uint64_t gtid, const std::vector<PageImage>& pages);
  Status CommitPrepared(uint64_t gtid);
  Status AbortPrepared(uint64_t gtid);

  /// Allocates and registers a fresh object segment for `file_id` without
  /// mapping it locally — a remote client formats and writes it. Returns
  /// the geometry the client needs.
  struct RemoteSegmentGrant {
    SegmentId id;
    uint32_t slotted_pages;
    uint32_t slot_capacity;
    uint16_t outbound_capacity;
    uint16_t data_area;
    PageId data_first_page;
    uint32_t data_page_count;
  };
  Result<RemoteSegmentGrant> GrantObjectSegment(uint16_t file_id,
                                                uint32_t min_data_bytes);

  /// Disk-segment service (large objects created remotely).
  Result<DiskSegment> AllocDiskSegment(uint16_t area, uint32_t pages);
  Status FreeDiskSegment(uint16_t area, PageId first_page);

  /// OID-based root directory access (remote clients hold OIDs, not slots).
  Status SetRootOid(const std::string& name, const Oid& oid);
  Result<Oid> GetRootOid(const std::string& name);

  // ---- Secondary indexes (DESIGN.md §14) -------------------------------------

  /// Creates a named B+-tree index in a fresh storage area and persists it
  /// in the catalog. The returned handle is immediately usable.
  Result<Index> CreateIndex(const std::string& name);
  /// Opens an existing index by name (the runtime is shared and cached).
  Result<Index> OpenIndex(const std::string& name);
  /// Removes the index from the catalog and drops its runtime. The area
  /// file itself is retained (area ids are append-only); its pages become
  /// unreachable.
  Status DropIndex(const std::string& name);
  std::vector<std::string> ListIndexes() const;

  // ---- Maintenance -----------------------------------------------------------

  /// Fuzzy checkpoint (non-blocking for committers): syncs the areas for
  /// the pages forced so far, logs a kCheckpoint record carrying the
  /// dirty-page table (page + recLSN) and active-transaction snapshot,
  /// swings the master record to it, and recycles log segments below the
  /// snapshot's redo floor. Commits keep running throughout. Also triggered
  /// periodically (Options::checkpoint_log_bytes) and on log-full
  /// backpressure.
  Status Checkpoint();
  Status Sync();

  /// Stats of the restart recovery run by Open (zeroed when none ran).
  const RecoveryStats& last_recovery_stats() const {
    return last_recovery_stats_;
  }

  /// Sweeps every stamped page of every area, verifying checksums and
  /// repairing (from the WAL) or quarantining what fails (DESIGN.md §7).
  /// Also exposed as a server opcode (kMsgScrub).
  Result<ScrubReport> Scrub();

  SegmentMapper* mapper() { return mapper_.get(); }
  LockManager* locks() { return &locks_; }
  LogManager* wal() { return wal_.get(); }
  const Options& options() const { return options_; }

  /// True while the retained WAL is over its soft limit. The server sheds
  /// new commit/prepare work with RetryLater while this holds, so clients
  /// back off instead of piling onto a throttled append (DESIGN.md §12).
  bool LogBackpressured() const {
    return wal_ != nullptr && wal_->IsBackpressured();
  }

  /// Finds the open Database that owns a mapped object address (used by
  /// typed references to route inter-database operations).
  static Database* FindByAddress(const void* addr);
  /// Finds an open database by id on this host (inter-db OID resolution).
  static Database* FindById(uint8_t db_id);

 private:
  friend class Index;
  class LocalStore;
  class Observer;
  struct FileInfo {
    uint16_t file_id = 0;
    std::string name;
    bool multifile = false;
    std::vector<uint16_t> areas;          // placement set
    std::vector<uint64_t> segments;       // packed SegmentIds, scan order
    uint64_t active_segment = 0;          // packed; 0 = none
    uint32_t next_area = 0;               // round-robin cursor
  };

  explicit Database(Options options);

  Status CreateNew();
  Status OpenExisting();
  Status RunRecovery();
  Status LoadCatalog();
  Status SaveCatalogLocked();
  void EncodeCatalogLocked(std::string* out) const;
  Result<SegmentId> NewObjectSegmentLocked(FileInfo* file, uint32_t min_data_bytes);
  Result<Slot*> CreateSmallObject(FileInfo* file, TypeIdx type, uint32_t size,
                                  const void* init, uint16_t extra_flags);
  StorageArea* AreaOrNull(uint16_t area_id) const;
  std::string AreaPath(uint16_t area_id) const;
  TxnId NextTxnId();
  /// Commits a page set (and whatever the txn already logged): LogPageSet
  /// with kCommit, then CloseCommit. No records for a txn with neither.
  Status LogAndForce(TxnId txn_id, const std::vector<PageImage>& pages);
  /// Opens `txn_id`'s log chain unless it is open: registers the txn in the
  /// logging-txn table, then appends the throttled kBegin — the only
  /// admission point; every later record of the chain is unthrottled.
  /// Returns the chain head (the newest record of the chain).
  Result<Lsn> OpenChain(TxnId txn_id);
  /// Appends `rec` to `txn_id`'s chain (opening it first if needed): links
  /// prev_lsn to the chain head and makes the record the new head. The one
  /// way a transaction's records enter the log, FPIs aside (they stay off
  /// the chain). Index writes call it with the index latch held; it takes
  /// rec_mutex_ (leaf) only.
  Result<Lsn> AppendToChain(TxnId txn_id, LogRecord&& rec);
  /// Logs the page set on the txn's chain, then the final record
  /// (kCommit/kPrepare), flushed; returns the final record's LSN so forced
  /// pages can be trailer-stamped with it. On error the chain is rolled
  /// back and the txn unregistered (nothing was forced). `page_lsns`, when
  /// non-null, receives the kPageWrite record LSN of each page: the page's
  /// recLSN when forced.
  Result<Lsn> LogPageSet(TxnId txn_id, const std::vector<PageImage>& pages,
                         LogRecordType final_record,
                         std::vector<Lsn>* page_lsns = nullptr);
  /// Forces pages to their areas, stamping `lsn` as their page LSN. Each
  /// forced page enters the dirty-page table under its kPageWrite LSN
  /// (from `page_lsns`) — "dirty" here means forced but not yet fsynced;
  /// the next checkpoint's area sync retires the entries.
  Status ForcePages(const std::vector<PageImage>& pages, Lsn lsn,
                    const std::vector<Lsn>& page_lsns);
  /// The commit close, after the flushed kCommit at `commit_lsn`: force the
  /// page set, append kEnd, unregister. A failed force leaves the txn
  /// registered, pinning its records for restart undo.
  Status CloseCommit(TxnId txn_id, const std::vector<PageImage>& pages,
                     Lsn commit_lsn, const std::vector<Lsn>& page_lsns);
  void UnregisterLoggingTxn(TxnId txn_id);
  /// Runtime abort of the txn's log chain, if it has one: the undo walker
  /// (wal/recovery.h UndoChain) appends CLRs and a flushed kEnd, undoing
  /// index records logically against the live trees; then the txn is
  /// unregistered. Used by Abort, a failed commit/prepare, a failed
  /// autocommit index write and AbortPrepared.
  Status AbortLoggedChain(TxnId txn_id);
  /// Insert-or-lower a dirty-page-table entry (recLSN = min).
  void TouchDpt(uint64_t page_key, Lsn rec_lsn);
  void StartCheckpointThread();
  void StopCheckpointThread();
  void CheckpointMain();
  /// Opens (or returns the cached) index runtime for an index area.
  Result<std::shared_ptr<BTreeIndex>> IndexRuntime(uint16_t area_id);
  /// Builds a public handle over the (cached) runtime for `area_id`.
  Result<Index> OpenHandle(const std::string& name, uint16_t area_id);
  /// Index-write prologue: acting txn id (autocommit mints one), poison gate.
  Status IndexTxnPrologue(Txn* txn, bool* autocommit, TxnId* id);
  /// Index-write epilogue: micro-commit (autocommit), or poison/abort the
  /// chain on failure.
  Status FinishIndexWrite(Txn* txn, TxnId id, bool autocommit, Status op);
  /// The txn's current undo-chain head, or kNullLsn when it never logged.
  Lsn TxnChainHead(TxnId txn_id);
  /// Hooks every area's read path up to WAL-based single-page repair.
  void InstallRepairHandlers();
  void InstallRepairHandler(StorageArea* area);

  Options options_;
  TypeTable types_;
  LockManager locks_;
  std::unique_ptr<LogManager> wal_;
  std::unique_ptr<LocalStore> store_;
  std::unique_ptr<Observer> observer_;
  std::unique_ptr<SegmentMapper> mapper_;

  // Catalog guard (files, roots, catalog dirtiness). Plain mutex: nothing
  // that runs under it re-enters a meta_mutex_-taking entry point.
  mutable std::mutex meta_mutex_;
  // Leaf lock for the append-only area vector. The mapper's fetch path
  // re-enters the database while meta_mutex_ is held (CreateObject ->
  // mapper fault -> LocalStore -> AreaOrNull); area lookup goes through
  // this separate leaf so that path never touches meta_mutex_.
  // Lock order: meta_mutex_ -> areas_mutex_; never the reverse.
  mutable std::mutex areas_mutex_;
  std::vector<std::unique_ptr<StorageArea>> areas_;
  std::unordered_map<uint16_t, FileInfo> files_;
  std::unordered_map<std::string, uint16_t> files_by_name_;
  uint16_t next_file_id_ = 1;
  /// Index catalog: name → area id (guarded by meta_mutex_ like files_;
  /// persisted in the catalog blob).
  std::unordered_map<std::string, uint16_t> index_catalog_;
  /// Open index runtimes by area id. Leaf mutex: never held while calling
  /// into a runtime (shared_ptrs are copied out first).
  mutable std::mutex indexes_mutex_;
  std::unordered_map<uint16_t, std::shared_ptr<BTreeIndex>> index_runtimes_;
  // The paper's root directory: a pair of hash tables with enforced
  // referential integrity between objects and their names.
  std::unordered_map<std::string, Oid> roots_by_name_;
  std::unordered_map<Oid, std::string, OidHash> roots_by_oid_;
  bool catalog_dirty_ = false;
  SegmentId catalog_segment_;

  std::atomic<TxnId> next_txn_id_{1};

  // In-doubt distributed transactions (prepared, awaiting phase 2). The
  // page LSNs ride along so phase 2 can force with true recLSNs.
  struct PreparedSet {
    std::vector<PageImage> pages;
    std::vector<Lsn> page_lsns;
  };
  std::mutex prepared_mutex_;
  std::unordered_map<uint64_t, PreparedSet> prepared_;

  // Pages whose most recent full-page-image record is at the stored LSN.
  // A page needs a fresh FPI when it has none, or when its FPI fell below
  // the log's oldest retained LSN (the segment holding it was recycled) —
  // media repair must always find a base image in the retained log.
  // Checkpoint prunes entries below the new retention floor *before*
  // releasing segments, so the check can never pass on a recycled FPI.
  std::mutex fpi_mutex_;
  std::unordered_map<uint64_t, Lsn> fpi_logged_;
  /// Floor below which checkpoint may prune fpi_logged_ entries, published
  /// (release) before the prune happens. Writers use mark-then-verify: mark
  /// relied_fpi under rec_mutex_, then re-check the FPI against this floor
  /// and oldest_lsn(); checkpoint publishes the floor, then folds relied
  /// FPIs (under rec_mutex_) into its release floor — so either the writer
  /// sees the new floor and relogs, or the checkpoint sees the mark and
  /// retains.
  std::atomic<Lsn> fpi_floor_{0};

  // Recovery bookkeeping for fuzzy checkpoints (guarded by rec_mutex_; a
  // leaf below the WAL's internal mutex is never held when taking this —
  // order: rec_mutex_ -> LogManager internals).
  struct LoggingTxn {
    Lsn first_lsn = kNullLsn;  ///< at/below the txn's first record
    Lsn last_lsn = kNullLsn;   ///< newest chain record (undo chain head)
    /// Oldest retained-log FPI this txn decided to rely on instead of
    /// relogging one (kNullLsn = none). Checkpoint folds these into its
    /// segment-release floor so the relied-on base image can't be recycled
    /// between the txn's FPI check and its records landing.
    Lsn relied_fpi = kNullLsn;
  };
  std::mutex rec_mutex_;
  /// Dirty-page table: pages forced to an area but not yet covered by an
  /// area fsync, with the LSN of the record that wrote them (recLSN).
  std::unordered_map<uint64_t, Lsn> dpt_;
  /// Transactions between their first log append and End (or phase 2).
  std::unordered_map<TxnId, LoggingTxn> logging_txns_;

  // Checkpoint machinery: one checkpoint at a time; a background thread
  // triggers on log growth and on log-full backpressure.
  std::mutex checkpoint_mutex_;
  std::mutex cp_mutex_;
  std::condition_variable cp_cv_;
  bool cp_stop_ = false;
  bool cp_kick_ = false;  ///< log-full callback requests an urgent run
  std::thread checkpoint_thread_;
  std::atomic<Lsn> last_cp_tail_{0};  ///< log tail at the last checkpoint

  RecoveryStats last_recovery_stats_;
};

}  // namespace bess

#endif  // BESS_OBJECT_DATABASE_H_
