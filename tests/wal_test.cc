// Tests for the write-ahead log and ARIES-style recovery, including torn
// tails, checkpoints, CLR idempotence, and crash-during-undo restarts.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "obs/stats.h"
#include "os/fault_injection.h"
#include "util/random.h"
#include "wal/recovery.h"

namespace bess {
namespace {

class MemPageSink : public PageSink {
 public:
  Status WritePage(PageAddr addr, const void* bytes, Lsn lsn) override {
    (void)lsn;
    pages_[addr.Pack()] = std::string(static_cast<const char*>(bytes),
                                      kPageSize);
    return Status::OK();
  }
  Status Sync() override {
    ++syncs_;
    return Status::OK();
  }
  std::string Get(PageAddr addr) const {
    auto it = pages_.find(addr.Pack());
    return it == pages_.end() ? std::string() : it->second;
  }
  std::map<uint64_t, std::string> pages_;
  int syncs_ = 0;
};

std::string PageOf(char fill) { return std::string(kPageSize, fill); }

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "wal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Lsn LogWrite(LogManager* log, TxnId txn, PageAddr page,
               const std::string& before, const std::string& after,
               Lsn prev) {
    LogRecord rec;
    rec.type = LogRecordType::kPageWrite;
    rec.txn = txn;
    rec.prev_lsn = prev;
    rec.page = page;
    rec.before = before;
    rec.after = after;
    auto lsn = log->Append(rec);
    EXPECT_TRUE(lsn.ok());
    return *lsn;
  }

  Lsn LogSimple(LogManager* log, LogRecordType type, TxnId txn, Lsn prev) {
    LogRecord rec;
    rec.type = type;
    rec.txn = txn;
    rec.prev_lsn = prev;
    auto lsn = log->Append(rec);
    EXPECT_TRUE(lsn.ok());
    return *lsn;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(WalTest, AppendScanRoundTrip) {
  auto log = LogManager::Open(path_);
  ASSERT_TRUE(log.ok());
  Lsn b = LogSimple(log->get(), LogRecordType::kBegin, 1, kNullLsn);
  Lsn w = LogWrite(log->get(), 1, PageAddr{1, 0, 5}, PageOf('a'), PageOf('b'),
                   b);
  LogSimple(log->get(), LogRecordType::kCommit, 1, w);
  ASSERT_TRUE((*log)->Flush((*log)->tail_lsn() - 1).ok());

  int count = 0;
  ASSERT_TRUE((*log)
                  ->Scan(kNullLsn,
                         [&](Lsn lsn, const LogRecord& rec) {
                           (void)lsn;
                           ++count;
                           if (rec.type == LogRecordType::kPageWrite) {
                             EXPECT_EQ(rec.page.page, 5u);
                             EXPECT_EQ(rec.after, PageOf('b'));
                             EXPECT_EQ(rec.before, PageOf('a'));
                           }
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(count, 3);
}

TEST_F(WalTest, SurvivesReopenAndFindsTail) {
  Lsn tail;
  {
    auto log = LogManager::Open(path_);
    ASSERT_TRUE(log.ok());
    LogSimple(log->get(), LogRecordType::kBegin, 1, kNullLsn);
    ASSERT_TRUE((*log)->Flush((*log)->tail_lsn() - 1).ok());
    tail = (*log)->tail_lsn();
  }
  auto log = LogManager::Open(path_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->tail_lsn(), tail);
}

TEST_F(WalTest, TornTailIsIgnored) {
  Lsn good_tail;
  {
    auto log = LogManager::Open(path_);
    ASSERT_TRUE(log.ok());
    LogSimple(log->get(), LogRecordType::kBegin, 1, kNullLsn);
    ASSERT_TRUE((*log)->Flush((*log)->tail_lsn() - 1).ok());
    good_tail = (*log)->tail_lsn();
  }
  // Simulate a crash mid-append: garbage bytes after the last good record.
  // In the segmented layout the record at LSN L lives in its segment at file
  // offset header + (L - base); this test's log is one segment with base 0.
  {
    std::string seg;
    for (const auto& e : std::filesystem::directory_iterator(path_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("wal-", 0) == 0) seg = e.path().string();
    }
    ASSERT_FALSE(seg.empty());
    auto f = File::Open(seg);
    ASSERT_TRUE(f.ok());
    std::string garbage = "\x40\x00\x00\x00garbage-without-valid-crc";
    ASSERT_TRUE(
        f->WriteAt(kPageSize + good_tail, garbage.data(), garbage.size()).ok());
  }
  auto log = LogManager::Open(path_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->tail_lsn(), good_tail);
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

TEST_F(WalTest, TornTailFromInjectedShortWriteIsReported) {
  const PageAddr p{1, 0, 8};
  Lsn good_tail;
  {
    auto log = LogManager::Open(path_);
    ASSERT_TRUE(log.ok());
    // A fully committed, fully flushed transaction: the recoverable prefix.
    Lsn b = LogSimple(log->get(), LogRecordType::kBegin, 1, kNullLsn);
    Lsn w = LogWrite(log->get(), 1, p, PageOf('0'), PageOf('C'), b);
    LogSimple(log->get(), LogRecordType::kCommit, 1, w);
    ASSERT_TRUE((*log)->Flush((*log)->tail_lsn() - 1).ok());
    good_tail = (*log)->tail_lsn();

    // The flush of the next record is torn by the fault layer: only 4 bytes
    // of it reach the file before the (simulated) power loss.
    LogSimple(log->get(), LogRecordType::kBegin, 2, kNullLsn);
    fault::FaultSpec spec;
    spec.action = fault::FaultAction::kShortWrite;
    spec.max_bytes = 4;
    spec.count = 1;
    spec.detail_filter = path_;
    fault::FaultRegistry::Instance().Arm("file.writeat", spec);
    EXPECT_FALSE((*log)->Flush((*log)->tail_lsn() - 1).ok());
    fault::FaultRegistry::Instance().DisarmAll();
  }

  const uint64_t torn_before = Snapshot().counter("wal.torn_tail");
  auto log = LogManager::Open(path_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->tail_lsn(), good_tail);
  EXPECT_TRUE((*log)->tail_was_torn());
#if BESS_METRICS_ENABLED
  EXPECT_EQ(Snapshot().counter("wal.torn_tail"), torn_before + 1);
#endif

  // Recovery redoes the committed prefix and reports the torn tail.
  MemPageSink sink;
  RecoveryManager rec(log->get(), &sink);
  ASSERT_TRUE(rec.Run().ok());
  EXPECT_EQ(sink.Get(p), PageOf('C'));
  EXPECT_TRUE(rec.stats().torn_tail);
  EXPECT_EQ(rec.stats().recovered_tail_lsn, good_tail);
}

TEST_F(WalTest, InterruptedFsyncWedgesLogUntilReopen) {
  const PageAddr p{1, 0, 9};
  {
    auto log = LogManager::Open(path_);
    ASSERT_TRUE(log.ok());
    Lsn b = LogSimple(log->get(), LogRecordType::kBegin, 1, kNullLsn);
    Lsn w = LogWrite(log->get(), 1, p, PageOf('0'), PageOf('D'), b);
    Lsn c = LogSimple(log->get(), LogRecordType::kCommit, 1, w);

    // An fdatasync that returns after an interruption leaves the durability
    // of the pending dirty range unknown (the kernel may already have
    // cleared dirty flags — fsyncgate). File::Sync deliberately does NOT
    // retry; the log must treat the interrupted sync as a hard failure and
    // wedge permanently.
    fault::FaultSpec spec = fault::FaultSpec::FailNth(1);
    spec.detail_filter = path_;
    fault::FaultRegistry::Instance().Arm("file.sync", spec);
    Status flushed = (*log)->Flush(c);
    fault::FaultRegistry::Instance().DisarmAll();
    ASSERT_FALSE(flushed.ok());

    // Wedged: every durability-relevant call fails from now on, with no
    // further injected faults — the failure is sticky.
    EXPECT_FALSE((*log)->Flush(c).ok());
    LogRecord rec;
    rec.type = LogRecordType::kBegin;
    rec.txn = 2;
    EXPECT_FALSE((*log)->Append(rec).ok());
  }

  // Reopen re-scans the true on-disk tail: that is the only way out of the
  // wedge. The unsynced batch never reported success, so losing it is
  // correct; the log must be consistent and writable again.
  auto log = LogManager::Open(path_);
  ASSERT_TRUE(log.ok());
  Lsn b = LogSimple(log->get(), LogRecordType::kBegin, 3, kNullLsn);
  EXPECT_NE(b, kNullLsn);
  EXPECT_TRUE((*log)->Flush(b).ok());
}

TEST_F(WalTest, RecoveryRedoesCommittedUndoesLosers) {
  auto logr = LogManager::Open(path_);
  ASSERT_TRUE(logr.ok());
  LogManager* log = logr->get();
  const PageAddr p1{1, 0, 10}, p2{1, 0, 11};

  // Txn 1 commits a write to p1. Txn 2 writes p2 but never commits.
  Lsn b1 = LogSimple(log, LogRecordType::kBegin, 1, kNullLsn);
  Lsn w1 = LogWrite(log, 1, p1, PageOf('0'), PageOf('A'), b1);
  LogSimple(log, LogRecordType::kCommit, 1, w1);
  Lsn b2 = LogSimple(log, LogRecordType::kBegin, 2, kNullLsn);
  LogWrite(log, 2, p2, PageOf('0'), PageOf('B'), b2);
  ASSERT_TRUE(log->Flush(log->tail_lsn() - 1).ok());

  MemPageSink sink;
  RecoveryManager rec(log, &sink);
  ASSERT_TRUE(rec.Run().ok());

  EXPECT_EQ(sink.Get(p1), PageOf('A'));  // winner redone
  EXPECT_EQ(sink.Get(p2), PageOf('0'));  // loser undone to before-image
  EXPECT_EQ(rec.stats().winner_txns, 1u);
  EXPECT_EQ(rec.stats().loser_txns, 1u);
  EXPECT_EQ(rec.stats().clrs_written, 1u);
}

TEST_F(WalTest, RecoveryIsIdempotent) {
  auto logr = LogManager::Open(path_);
  ASSERT_TRUE(logr.ok());
  LogManager* log = logr->get();
  const PageAddr p{1, 0, 20};
  Lsn b = LogSimple(log, LogRecordType::kBegin, 7, kNullLsn);
  LogWrite(log, 7, p, PageOf('x'), PageOf('y'), b);
  ASSERT_TRUE(log->Flush(log->tail_lsn() - 1).ok());

  // First recovery: txn 7 is a loser, gets undone with a CLR + End.
  MemPageSink sink1;
  {
    RecoveryManager rec(log, &sink1);
    ASSERT_TRUE(rec.Run().ok());
    EXPECT_EQ(sink1.Get(p), PageOf('x'));
  }
  // Second recovery (crash immediately after the first): the End record
  // makes txn 7 a non-loser and the CLR redo re-applies the before-image.
  MemPageSink sink2;
  {
    RecoveryManager rec(log, &sink2);
    ASSERT_TRUE(rec.Run().ok());
    EXPECT_EQ(sink2.Get(p), PageOf('x'));
    EXPECT_EQ(rec.stats().loser_txns, 0u);
  }
}

TEST_F(WalTest, MultiUpdateLoserUnwindsInReverse) {
  auto logr = LogManager::Open(path_);
  ASSERT_TRUE(logr.ok());
  LogManager* log = logr->get();
  const PageAddr p{1, 0, 30};
  Lsn prev = LogSimple(log, LogRecordType::kBegin, 3, kNullLsn);
  prev = LogWrite(log, 3, p, PageOf('0'), PageOf('1'), prev);
  prev = LogWrite(log, 3, p, PageOf('1'), PageOf('2'), prev);
  prev = LogWrite(log, 3, p, PageOf('2'), PageOf('3'), prev);
  ASSERT_TRUE(log->Flush(log->tail_lsn() - 1).ok());

  MemPageSink sink;
  RecoveryManager rec(log, &sink);
  ASSERT_TRUE(rec.Run().ok());
  EXPECT_EQ(sink.Get(p), PageOf('0'));  // fully unwound
  EXPECT_EQ(rec.stats().undo_records, 3u);
}

TEST_F(WalTest, CheckpointBoundsAnalysis) {
  auto logr = LogManager::Open(path_);
  ASSERT_TRUE(logr.ok());
  LogManager* log = logr->get();
  const PageAddr p{1, 0, 40};

  // Old committed work before the checkpoint.
  Lsn b1 = LogSimple(log, LogRecordType::kBegin, 1, kNullLsn);
  Lsn w1 = LogWrite(log, 1, p, PageOf('0'), PageOf('A'), b1);
  LogSimple(log, LogRecordType::kCommit, 1, w1);

  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  auto cp_lsn = log->Append(cp);
  ASSERT_TRUE(cp_lsn.ok());
  ASSERT_TRUE(log->SetCheckpointLsn(*cp_lsn).ok());

  // Post-checkpoint loser.
  Lsn b2 = LogSimple(log, LogRecordType::kBegin, 2, kNullLsn);
  LogWrite(log, 2, p, PageOf('A'), PageOf('Z'), b2);
  ASSERT_TRUE(log->Flush(log->tail_lsn() - 1).ok());

  MemPageSink sink;
  RecoveryManager rec(log, &sink);
  ASSERT_TRUE(rec.Run().ok());
  EXPECT_EQ(sink.Get(p), PageOf('A'));
  EXPECT_EQ(rec.stats().loser_txns, 1u);
}

// Checkpoints used to carry an active-transaction table (count, then
// txn + last LSN per entry). They now write an empty count; a record from
// an older log, entries and all, must still decode to the same dirty-page
// table and redo floor.
TEST(LogRecordTest, LegacyCheckpointTxnTableIsSkipped) {
  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  cp.dirty_pages.push_back({PageAddr{1, 2, 3}, 77});
  cp.redo_floor = 55;
  std::string now;
  cp.EncodeTo(&now);
  constexpr size_t kCountAt = 1 + 8 + 8;  // type, txn, prev_lsn
  ASSERT_EQ(now.substr(kCountAt, 4), std::string(4, '\0'));

  std::string legacy = now.substr(0, kCountAt);
  PutFixed32(&legacy, 2);
  for (uint64_t v : {9, 100, 10, 200}) PutFixed64(&legacy, v);
  legacy += now.substr(kCountAt + 4);

  for (const std::string& payload : {now, legacy}) {
    auto back = LogRecord::DecodeFrom(payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->dirty_pages.size(), 1u);
    EXPECT_EQ(back->dirty_pages[0].page.Pack(), (PageAddr{1, 2, 3}.Pack()));
    EXPECT_EQ(back->dirty_pages[0].rec_lsn, 77u);
    EXPECT_EQ(back->redo_floor, 55u);
  }
  // A count promising more entries than the record holds is corruption.
  std::string truncated = now.substr(0, kCountAt);
  PutFixed32(&truncated, 3);
  EXPECT_FALSE(LogRecord::DecodeFrom(truncated).ok());
}

TEST_F(WalTest, GroupCommitCoalescesSyncs) {
  auto logr = LogManager::Open(path_);
  ASSERT_TRUE(logr.ok());
  LogManager* log = logr->get();
  Lsn l1 = LogSimple(log, LogRecordType::kBegin, 1, kNullLsn);
  Lsn l2 = LogSimple(log, LogRecordType::kBegin, 2, kNullLsn);
  Lsn l3 = LogSimple(log, LogRecordType::kBegin, 3, kNullLsn);
  const uint64_t syncs_before = log->sync_count();
  ASSERT_TRUE(log->Flush(l3).ok());
  // These two are already durable: no further fdatasync.
  ASSERT_TRUE(log->Flush(l1).ok());
  ASSERT_TRUE(log->Flush(l2).ok());
  EXPECT_EQ(log->sync_count(), syncs_before + 1);
}

TEST_F(WalTest, ResetStartsFresh) {
  auto logr = LogManager::Open(path_);
  ASSERT_TRUE(logr.ok());
  LogManager* log = logr->get();
  LogSimple(log, LogRecordType::kBegin, 1, kNullLsn);
  ASSERT_TRUE(log->Reset().ok());
  int count = 0;
  ASSERT_TRUE(log->Scan(kNullLsn, [&](Lsn, const LogRecord&) {
    ++count;
    return Status::OK();
  }).ok());
  EXPECT_EQ(count, 0);
  auto cp = log->GetCheckpointLsn();
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(*cp, kNullLsn);
}

}  // namespace
}  // namespace bess
