// Tests for the always-on recovery subsystem (DESIGN.md §10): fuzzy
// checkpoints bounding restart by the dirty set, the bounded segmented log
// (roll, recycle, retention floor), ENOSPC backpressure as graceful
// degradation, the one-scan restart, and survivability of injected
// enospc/io_error during checkpoint append and segment recycle.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "object/database.h"
#include "obs/stats.h"
#include "os/fault_injection.h"
#include "os/file.h"
#include "wal/recovery.h"

namespace bess {
namespace {

using fault::FaultRegistry;
using fault::FaultSpec;

constexpr uint32_t kBodySize = 6000;  // spans two data pages

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultRegistry::Instance().DisarmAll();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Small segments and no background checkpointing: every trigger in these
  // tests is explicit, so assertions are deterministic.
  Database::Options Opts(bool create, const std::filesystem::path& dir) {
    Database::Options o;
    o.dir = dir.string();
    o.create = create;
    o.wal_segment_bytes = 64 << 10;
    o.checkpoint_log_bytes = 0;
    return o;
  }

  void Create() { Open(true, dir_); }
  void Reopen() { Open(false, dir_); }

  void Open(bool create, const std::filesystem::path& dir) {
    db_.reset();
    auto db = Database::Open(Opts(create, dir));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    if (create) {
      auto file = db_->CreateFile("f");
      ASSERT_TRUE(file.ok());
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      std::string body(kBodySize, 'A');
      auto slot = db_->CreateObject(*file, kRawBytesType, kBodySize,
                                    body.data());
      ASSERT_TRUE(slot.ok());
      ASSERT_TRUE(db_->SetRoot("x", *slot).ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
  }

  // One commit: stamp `value` into the object (counter word + fill).
  Status CommitValue(uint64_t value) {
    auto txn = db_->Begin();
    if (!txn.ok()) return txn.status();
    auto slot = db_->GetRoot("x");
    if (!slot.ok()) return slot.status();
    std::string body(kBodySize, static_cast<char>('A' + value % 26));
    memcpy(body.data(), &value, sizeof(value));
    memcpy(reinterpret_cast<void*>((*slot)->dp), body.data(), body.size());
    return db_->Commit(*txn);
  }

  uint64_t ReadValue() {
    auto slot = db_->GetRoot("x");
    EXPECT_TRUE(slot.ok());
    if (!slot.ok()) return ~0ull;
    return *reinterpret_cast<const uint64_t*>((*slot)->dp);
  }

  std::filesystem::path dir_;
  std::unique_ptr<Database> db_;
};

// ---- fuzzy checkpoints bound restart ----------------------------------------

// The same workload run twice: with a checkpoint before close, restart
// analysis scans a small suffix; without one, it re-reads the whole retained
// log. This is the paper's restart bound: dirty set + checkpoint distance,
// not log length.
TEST_F(RecoveryTest, CheckpointBoundsRestartScanByDirtySet) {
  const auto dir_cp = dir_ / "with_cp";
  const auto dir_no = dir_ / "without_cp";
  uint64_t scanned_cp = 0, scanned_no = 0;
  for (int variant = 0; variant < 2; ++variant) {
    const auto& d = variant == 0 ? dir_cp : dir_no;
    std::filesystem::create_directories(d);
    Open(true, d);
    for (uint64_t v = 1; v <= 40; ++v) ASSERT_TRUE(CommitValue(v).ok());
    if (variant == 0) ASSERT_TRUE(db_->Checkpoint().ok());
    for (uint64_t v = 41; v <= 43; ++v) ASSERT_TRUE(CommitValue(v).ok());
    Open(false, d);
    EXPECT_EQ(ReadValue(), 43u);
    if (variant == 0) {
      scanned_cp = db_->last_recovery_stats().records_scanned;
    } else {
      scanned_no = db_->last_recovery_stats().records_scanned;
    }
  }
  EXPECT_GT(scanned_no, 0u);
  EXPECT_LT(scanned_cp, scanned_no / 4)
      << "checkpointed restart scanned " << scanned_cp << " records vs "
      << scanned_no << " for the full-log baseline";
}

// The checkpoint advances the retention floor so whole segments recycle: the
// log is a bounded ring, not an ever-growing file.
TEST_F(RecoveryTest, CheckpointRecyclesSegments) {
  Create();
  for (uint64_t v = 1; v <= 40; ++v) ASSERT_TRUE(CommitValue(v).ok());
  const size_t before = db_->wal()->segment_count();
  const Stats stats_before = Snapshot();
  ASSERT_TRUE(db_->Checkpoint().ok());
  const size_t after = db_->wal()->segment_count();
  EXPECT_GT(before, 2u) << "workload never rolled a segment";
  EXPECT_LT(after, before);
  EXPECT_GT(db_->wal()->oldest_lsn(), 0u);
#if BESS_METRICS_ENABLED
  EXPECT_GT(StatsDelta(stats_before, Snapshot())
                .counter("wal.segment.recycled"),
            0u);
#endif
  // LSNs survive recycling: the tail is monotone and the retained suffix is
  // still scannable from the new floor.
  int count = 0;
  ASSERT_TRUE(db_->wal()
                  ->Scan(kNullLsn,
                         [&](Lsn, const LogRecord&) {
                           ++count;
                           return Status::OK();
                         })
                  .ok());
  EXPECT_GT(count, 0);
}

// ---- injected enospc / io_error on the checkpoint paths ---------------------

// ENOSPC while appending the checkpoint record itself: the checkpoint fails,
// nothing is lost, commits continue, and the next checkpoint succeeds.
TEST_F(RecoveryTest, EnospcDuringCheckpointAppendIsSurvivable) {
  Create();
  for (uint64_t v = 1; v <= 10; ++v) ASSERT_TRUE(CommitValue(v).ok());
  // The record's own segment write fails with ENOSPC (the flush path).
  FaultRegistry::Instance().Arm("file.writeat",
                                [] {
                                  FaultSpec s = FaultSpec::NoSpaceAtNth(1, 1);
                                  s.detail_filter = "wal-";
                                  return s;
                                }());
  EXPECT_FALSE(db_->Checkpoint().ok());
  FaultRegistry::Instance().DisarmAll();
  EXPECT_TRUE(db_->wal()->wedged().ok()) << "ENOSPC must not wedge the log";
  ASSERT_TRUE(CommitValue(11).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  Reopen();
  EXPECT_EQ(ReadValue(), 11u);
}

// io_error on the master-record swing: the master keeps pointing at the
// previous checkpoint, which still bounds a correct (if longer) restart.
TEST_F(RecoveryTest, IoErrorDuringMasterSwingIsSurvivable) {
  Create();
  for (uint64_t v = 1; v <= 10; ++v) ASSERT_TRUE(CommitValue(v).ok());
  FaultRegistry::Instance().Arm("wal.checkpoint.master", FaultSpec::FailNth(1));
  EXPECT_FALSE(db_->Checkpoint().ok());
  FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(CommitValue(11).ok());
  Reopen();
  EXPECT_EQ(ReadValue(), 11u);
}

// io_error while recycling a segment: the master's oldest floor is already
// durable, so the unlink is retried by the next checkpoint and the stragglers
// are pruned by the next open; no records below the floor are ever needed.
TEST_F(RecoveryTest, IoErrorDuringSegmentRecycleIsSurvivable) {
  Create();
  for (uint64_t v = 1; v <= 40; ++v) ASSERT_TRUE(CommitValue(v).ok());
  ASSERT_GT(db_->wal()->segment_count(), 2u);
  FaultRegistry::Instance().Arm("wal.recycle.unlink", FaultSpec::FailNth(1));
  EXPECT_FALSE(db_->Checkpoint().ok());
  FaultRegistry::Instance().DisarmAll();
  EXPECT_EQ(FaultRegistry::Instance().hits("wal.recycle.unlink"), 1u);
  ASSERT_TRUE(CommitValue(41).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());  // retries the unlink
  Reopen();
  EXPECT_EQ(ReadValue(), 41u);
}

// ---- ENOSPC backpressure (log-full is degradation, not a wedge) -------------

TEST_F(RecoveryTest, LogFullThrottlesAndRecoversWithoutWedging) {
  LogManager::Options o;
  o.segment_bytes = 16 << 10;
  o.soft_limit_bytes = 48 << 10;
  o.throttle_timeout_ms = 50;
  auto log = LogManager::Open((dir_ / "wal").string(), o);
  ASSERT_TRUE(log.ok());

  int kicks = 0;
  (*log)->SetLogFullCallback([&] { ++kicks; });

  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.txn = 1;
  rec.page = PageAddr{1, 0, 1};
  rec.after = std::string(kPageSize, 'z');

  // Fill past the soft limit: appends start failing with NoSpace after the
  // throttle timeout — the log itself stays healthy and unwedged.
  Status st;
  Lsn last_ok = kNullLsn;
  for (int i = 0; i < 64; ++i) {
    auto lsn = (*log)->Append(rec);
    if (!lsn.ok()) {
      st = lsn.status();
      break;
    }
    last_ok = *lsn;
    ASSERT_TRUE((*log)->Flush(last_ok).ok());
  }
  ASSERT_TRUE(st.IsNoSpace()) << st.ToString();
  EXPECT_GT(kicks, 0) << "log-full callback never fired";
  EXPECT_TRUE((*log)->wedged().ok());
#if BESS_METRICS_ENABLED
  const Stats s = Snapshot();
  EXPECT_GT(s.counter("wal.throttle.waits"), 0u);
  EXPECT_GT(s.counter("wal.throttle.timeouts"), 0u);
#endif

  // Unthrottled appends (checkpoints, recovery records) still go through on
  // the full log — they are how it shrinks.
  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  cp.redo_floor = last_ok;
  auto cp_lsn = (*log)->AppendUnthrottled(cp);
  ASSERT_TRUE(cp_lsn.ok());
  ASSERT_TRUE((*log)->Flush(*cp_lsn).ok());
  ASSERT_TRUE((*log)->SetCheckpointLsn(*cp_lsn).ok());
  ASSERT_TRUE((*log)->ReleaseSegments(last_ok).ok());

  // Space freed: throttled appends flow again, and nothing acked was lost.
  auto lsn = (*log)->Append(rec);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  ASSERT_TRUE((*log)->Flush(*lsn).ok());
  bool saw_checkpoint = false;
  ASSERT_TRUE((*log)
                  ->Scan(kNullLsn,
                         [&](Lsn, const LogRecord& r) {
                           if (r.type == LogRecordType::kCheckpoint) {
                             saw_checkpoint = true;
                           }
                           return Status::OK();
                         })
                  .ok());
  EXPECT_TRUE(saw_checkpoint);
}

// Real ENOSPC from the disk during a flush: the batch is restored, the log
// is not wedged, and a retry after space returns persists every record.
TEST_F(RecoveryTest, EnospcDuringFlushRestoresBatch) {
  auto log = LogManager::Open((dir_ / "wal").string());
  ASSERT_TRUE(log.ok());
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn = 7;
  auto lsn = (*log)->Append(rec);
  ASSERT_TRUE(lsn.ok());

  FaultSpec s = FaultSpec::NoSpaceAtNth(1, 1);
  s.detail_filter = "wal-";
  FaultRegistry::Instance().Arm("file.writeat", s);
  Status flushed = (*log)->Flush(*lsn);
  FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(flushed.IsNoSpace()) << flushed.ToString();
  EXPECT_TRUE((*log)->wedged().ok()) << "ENOSPC is transient, not a wedge";
#if BESS_METRICS_ENABLED
  EXPECT_GT(Snapshot().counter("wal.flush.write_failed"), 0u);
#endif

  ASSERT_TRUE((*log)->Flush(*lsn).ok());  // space is back: same batch lands
  int count = 0;
  ASSERT_TRUE((*log)
                  ->Scan(kNullLsn,
                         [&](Lsn, const LogRecord&) {
                           ++count;
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(count, 1);
}

// With backpressure wired to a live checkpoint thread, a commit storm over a
// tiny soft limit degrades gracefully: every commit succeeds (throttled at
// worst) and the log stays bounded by recycling behind the floor.
TEST_F(RecoveryTest, BackpressureForcesCheckpointsUnderCommitStorm) {
  Database::Options o;
  o.dir = (dir_ / "db").string();
  o.create = true;
  o.wal_segment_bytes = 32 << 10;
  o.wal_soft_limit_bytes = 192 << 10;
  o.wal_throttle_timeout_ms = 5000;
  o.checkpoint_log_bytes = 96 << 10;
  auto dbr = Database::Open(o);
  ASSERT_TRUE(dbr.ok()) << dbr.status().ToString();
  db_ = std::move(*dbr);
  auto file = db_->CreateFile("f");
  ASSERT_TRUE(file.ok());
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    std::string body(kBodySize, 'A');
    auto slot = db_->CreateObject(*file, kRawBytesType, kBodySize,
                                  body.data());
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(db_->SetRoot("x", *slot).ok());
    Status seed = db_->Commit(*txn);
    ASSERT_TRUE(seed.ok()) << seed.ToString();
  }
  for (uint64_t v = 1; v <= 120; ++v) {
    ASSERT_TRUE(CommitValue(v).ok()) << "commit " << v << " failed under "
                                     << "backpressure";
  }
  // The log was recycled behind the commits — bounded, not 120 commits long.
  EXPECT_GT(db_->wal()->oldest_lsn(), 0u);
  EXPECT_LT(db_->wal()->retained_bytes(), 2 * o.wal_soft_limit_bytes);
  db_.reset();
  o.create = false;
  dbr = Database::Open(o);
  ASSERT_TRUE(dbr.ok());
  db_ = std::move(*dbr);
  EXPECT_EQ(ReadValue(), 120u);
}

// ---- the restart scan -------------------------------------------------------

class MemSink : public PageSink {
 public:
  Status WritePage(PageAddr addr, const void* bytes, Lsn lsn) override {
    (void)lsn;
    pages_[addr.Pack()] =
        std::string(static_cast<const char*>(bytes), kPageSize);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  std::map<uint64_t, std::string> pages_;
};

// Appends `rounds` committed transactions, each overwriting pages
// first..first+pages-1 with a round-specific fill and a page-distinct stamp
// at byte 7, so a stale image or a cross-page mixup can't go unnoticed.
// Stores the LSN of the first record in *first_lsn when given.
void AppendCommittedRounds(LogManager* log, int pages, int rounds,
                           PageId first, Lsn* first_lsn = nullptr) {
  for (int r = 0; r < rounds; ++r) {
    const TxnId txn = static_cast<TxnId>(r + 1);
    LogRecord b;
    b.type = LogRecordType::kBegin;
    b.txn = txn;
    auto prev = log->Append(b);
    ASSERT_TRUE(prev.ok());
    if (r == 0 && first_lsn != nullptr) *first_lsn = *prev;
    Lsn p = *prev;
    for (int i = 0; i < pages; ++i) {
      LogRecord w;
      w.type = LogRecordType::kPageWrite;
      w.txn = txn;
      w.prev_lsn = p;
      w.page = PageAddr{1, 0, static_cast<PageId>(first + i)};
      w.before = std::string(kPageSize, static_cast<char>('a' + r));
      w.after = std::string(kPageSize, static_cast<char>('a' + r + 1));
      w.after[7] = static_cast<char>(i);
      auto lsn = log->Append(w);
      ASSERT_TRUE(lsn.ok());
      p = *lsn;
    }
    LogRecord c;
    c.type = LogRecordType::kCommit;
    c.txn = txn;
    c.prev_lsn = p;
    ASSERT_TRUE(log->AppendAndFlush(c).ok());
  }
}

// Redo replays every round's image in LSN order: the last round's image
// wins on every page, and each page keeps its own stamp.
TEST_F(RecoveryTest, RedoReplaysLastImagePerPage) {
  auto log = LogManager::Open((dir_ / "wal").string());
  ASSERT_TRUE(log.ok());
  constexpr int kPages = 37;
  constexpr int kRounds = 3;
  ASSERT_NO_FATAL_FAILURE(
      AppendCommittedRounds(log->get(), kPages, kRounds, 100));

  MemSink sink;
  RecoveryManager rec(log->get(), &sink);
  ASSERT_TRUE(rec.Run().ok());
  EXPECT_EQ(rec.stats().redo_pages, uint64_t{kPages * kRounds});
  EXPECT_EQ(rec.stats().loser_txns, 0u);
  ASSERT_EQ(sink.pages_.size(), size_t{kPages});
  for (int i = 0; i < kPages; ++i) {
    const auto it =
        sink.pages_.find(PageAddr{1, 0, static_cast<PageId>(100 + i)}.Pack());
    ASSERT_NE(it, sink.pages_.end());
    EXPECT_EQ(it->second[0], 'a' + kRounds);  // last round's image won
    EXPECT_EQ(it->second[7], static_cast<char>(i));
  }
}

// Restart reads the log once: one forward scan both rebuilds the
// transaction table and repeats history. Each record costs a header and a
// payload pread, so anything above 2 reads per record (plus the checkpoint
// record behind the master) means a second pass crept back in.
TEST_F(RecoveryTest, RestartReadsTheLogOnce) {
  const std::string wal_dir = (dir_ / "wal").string();
  auto log = LogManager::Open(wal_dir);
  ASSERT_TRUE(log.ok());
  Lsn first = kNullLsn;
  ASSERT_NO_FATAL_FAILURE(
      AppendCommittedRounds(log->get(), 37, 3, 100, &first));
  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  cp.redo_floor = first;
  auto cp_lsn = (*log)->AppendAndFlush(cp);
  ASSERT_TRUE(cp_lsn.ok());
  ASSERT_TRUE((*log)->SetCheckpointLsn(*cp_lsn).ok());

  // A zero-latency schedule fires on every WAL read without changing it,
  // so hits() counts the preads.
  FaultSpec count_reads;
  count_reads.action = fault::FaultAction::kLatency;
  count_reads.latency_us = 0;
  count_reads.detail_filter = wal_dir;
  FaultRegistry::Instance().ResetCounters();
  FaultRegistry::Instance().Arm("file.readat", count_reads);
  MemSink sink;
  RecoveryManager rec(log->get(), &sink);
  ASSERT_TRUE(rec.Run().ok());
  const uint64_t reads = FaultRegistry::Instance().hits("file.readat");
  FaultRegistry::Instance().DisarmAll();

  EXPECT_EQ(rec.stats().redo_start_lsn, first);
  EXPECT_EQ(rec.stats().loser_txns, 0u);
  const uint64_t records = rec.stats().records_scanned;
  EXPECT_EQ(records, uint64_t{3 * (37 + 2) + 1});  // + the checkpoint
  EXPECT_LE(reads, 2 * records + 4) << reads << " WAL reads for " << records
                                    << " records";
}

// A failing PageSink surfaces as the recovery error.
TEST_F(RecoveryTest, RedoPropagatesSinkFailure) {
  auto log = LogManager::Open((dir_ / "wal").string());
  ASSERT_TRUE(log.ok());
  ASSERT_NO_FATAL_FAILURE(AppendCommittedRounds(log->get(), 16, 1, 200));

  class FailingSink : public PageSink {
   public:
    Status WritePage(PageAddr, const void*, Lsn) override {
      return Status::IOError("sink full");
    }
    Status Sync() override { return Status::OK(); }
  } sink;
  RecoveryManager rec(log->get(), &sink);
  Status st = rec.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

// ---- failed commits must not orphan their log chains ------------------------

// A commit that fails after appending records (here: an area read error while
// collecting a before-image) closes its chain with CLRs + End. If it merely
// unregistered, the orphaned records would stop pinning the retention floor;
// a later checkpoint could recycle the chain's early segments while a suffix
// survives, and restart undo walking prev_lsn below the oldest retained LSN
// would fail on every subsequent open — a bricked database.
TEST_F(RecoveryTest, FailedCommitClosesItsLogChain) {
  Create();
  ASSERT_TRUE(CommitValue(1).ok());

  const Stats before = Snapshot();
  // Second before-image read of the commit's page loop fails: the chain
  // already holds kBegin + the first kPageWrite when the commit dies.
  FaultRegistry::Instance().Arm("file.readat",
                                [] {
                                  FaultSpec s = FaultSpec::FailNth(2);
                                  s.detail_filter = "area_";
                                  return s;
                                }());
  EXPECT_FALSE(CommitValue(2).ok());
  FaultRegistry::Instance().DisarmAll();
#if BESS_METRICS_ENABLED
  EXPECT_GT(StatsDelta(before, Snapshot()).counter("wal.abort.clrs"), 0u)
      << "failed commit did not compensate its appended records";
#endif

  // Commit far enough to roll segments, then checkpoint: if the dead chain
  // were still open it would either pin the floor forever or (unregistered)
  // be partially recycled.
  for (uint64_t v = 3; v <= 40; ++v) ASSERT_TRUE(CommitValue(v).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());

  Reopen();
  EXPECT_EQ(ReadValue(), 40u);
  EXPECT_EQ(db_->last_recovery_stats().loser_txns, 0u)
      << "the closed chain must restart as a winner (ended), not a loser";
  // And the database keeps working after restart.
  ASSERT_TRUE(CommitValue(41).ok());
  Reopen();
  EXPECT_EQ(ReadValue(), 41u);
}

// ---- one undo walker: runtime abort and restart undo agree ------------------

// Every data page of `area`, read through the database, up to the end of
// the area file.
std::vector<std::string> AreaPages(Database* db, uint16_t area) {
  std::vector<std::string> pages;
  std::string page(kPageSize, '\0');
  for (PageId p = 0; p < 4096; ++p) {
    if (!db->ReadRawPages(area, p, 1, page.data()).ok()) break;
    pages.push_back(page);
  }
  return pages;
}

std::map<std::string, std::string> IndexContents(Database* db) {
  std::map<std::string, std::string> out;
  auto ix = db->OpenIndex("ix");
  EXPECT_TRUE(ix.ok()) << ix.status().ToString();
  if (!ix.ok()) return out;
  EXPECT_TRUE(ix->Scan("", "", [&](Slice k, Slice v) {
                  out[k.ToString()] = v.ToString();
                  return Status::OK();
                }).ok());
  return out;
}

// One chain — an index put, an index delete and a two-page object write —
// rolled back twice: by Database::Abort on the live database, and by
// restart undo of a crash image taken just before that abort. Both run the
// same undo walker, so both must leave the same bytes in every area page,
// the same index contents and the same number of CLRs.
TEST_F(RecoveryTest, AbortAndRestartUndoAgree) {
  Create();
  auto ixr = db_->CreateIndex("ix");
  ASSERT_TRUE(ixr.ok()) << ixr.status().ToString();
  Index ix = *ixr;
  // CreateIndex saves the catalog directly, unlogged; without a checkpoint,
  // restart redo would replay the older catalog image that Create()'s
  // commit logged, and the crash image would not open.
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(ix.Put(nullptr, "keep", "old").ok());
  ASSERT_TRUE(ix.Put(nullptr, "victim", "doomed").ok());
  const std::map<std::string, std::string> committed = {{"keep", "old"},
                                                        {"victim", "doomed"}};

  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(ix.Put(*txn, "fresh", "uncommitted").ok());
  ASSERT_TRUE(ix.Delete(*txn, "victim").ok());
  auto slot = db_->GetRoot("x");
  ASSERT_TRUE(slot.ok());
  memset(reinterpret_cast<void*>((*slot)->dp), 'Z', kBodySize);
  // PreparePageSet logs the dirty object pages onto the transaction's own
  // chain (gtid = txn id), flushed but never forced: the chain now holds
  // kBegin, the index put and delete, the page writes and kPrepare.
  std::vector<PageImage> pages;
  ASSERT_TRUE(db_->mapper()->CollectDirty(&pages).ok());
  ASSERT_GE(pages.size(), 2u);
  ASSERT_TRUE(db_->PreparePageSet((*txn)->id, pages).ok());
  const uint64_t expected_clrs = pages.size() + 2;

  // The crash image. The index's background writer may still be writing
  // back dirty leaves; let it settle so the copy sees whole pages.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::filesystem::path crash_dir = dir_.string() + "_crash";
  std::filesystem::remove_all(crash_dir);
  std::filesystem::copy(dir_, crash_dir,
                        std::filesystem::copy_options::recursive);

  // Runtime abort.
  const Stats before = Snapshot();
  ASSERT_TRUE(db_->Abort(*txn).ok());
#if BESS_METRICS_ENABLED
  EXPECT_EQ(StatsDelta(before, Snapshot()).counter("wal.abort.clrs"),
            expected_clrs);
#endif
  EXPECT_EQ(IndexContents(db_.get()), committed);
  Reopen();
  EXPECT_EQ(db_->last_recovery_stats().loser_txns, 0u);
  const uint32_t areas = db_->area_count();
  std::vector<std::vector<std::string>> runtime_pages;
  for (uint16_t a = 0; a < areas; ++a) {
    runtime_pages.push_back(AreaPages(db_.get(), a));
  }
  EXPECT_EQ(IndexContents(db_.get()), committed);
  EXPECT_EQ(ReadValue() & 0xff, uint64_t{'A'});

  // Restart undo of the same chain.
  Open(false, crash_dir);
  const RecoveryStats& rs = db_->last_recovery_stats();
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_EQ(rs.clrs_written, expected_clrs);
  ASSERT_EQ(db_->area_count(), areas);
  for (uint16_t a = 0; a < areas; ++a) {
    const std::vector<std::string> restart_pages = AreaPages(db_.get(), a);
    ASSERT_EQ(restart_pages.size(), runtime_pages[a].size()) << "area " << a;
    for (size_t p = 0; p < restart_pages.size(); ++p) {
      EXPECT_TRUE(restart_pages[p] == runtime_pages[a][p])
          << "area " << a << " page " << p << " differs";
    }
  }
  EXPECT_EQ(IndexContents(db_.get()), committed);
  db_.reset();
  std::filesystem::remove_all(crash_dir);
}

// ---- legacy single-file WAL is refused, never silently ignored --------------

// Databases from before the segmented log kept their WAL at <dir>/wal.log. A
// leftover one may hold unrecovered commits; opening must refuse with a
// migration error instead of starting an empty segmented log over it.
TEST_F(RecoveryTest, LegacySingleFileWalRefusesOpen) {
  Create();
  ASSERT_TRUE(CommitValue(7).ok());
  db_.reset();

  const std::string legacy = (dir_ / "wal.log").string();
  {
    auto f = File::Open(legacy, /*create=*/true);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
  }
  auto refused = Database::Open(Opts(false, dir_));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kNotSupported)
      << refused.status().ToString();

  ASSERT_TRUE(File::Remove(legacy).ok());
  Reopen();
  EXPECT_EQ(ReadValue(), 7u);
}

}  // namespace
}  // namespace bess
