// Concurrency suite (ctest label "concurrency"; run under the tsan preset).
//
// Three angles on the unserialized commit path:
//
//   1. A multi-threaded commit storm killed with SIGKILL mid-flight: group
//      commit must not weaken durability — every acknowledged commit
//      survives recovery, and no thread's counter exceeds what it attempted.
//   2. The sharded lock table: disjoint keys never wait on each other, and
//      a contention storm on one key starves nobody (timeout-free under a
//      generous bound).
//   3. The grant/reap race: while the callback-timeout reaper tears down an
//      unresponsive holder, two concurrent waiters on *different* locks of
//      that holder must both be granted — the reap frees the whole lock set
//      and wakes every parked waiter, not just the one whose callback timed
//      out.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "object/database.h"
#include "os/fault_injection.h"
#include "server/bess_server.h"
#include "server/remote_client.h"
#include "txn/lock_manager.h"

namespace bess {
namespace {

// ---------------------------------------------------------------------------
// 1. Commit storm + SIGKILL durability.
// ---------------------------------------------------------------------------

constexpr int kStormThreads = 4;
constexpr uint32_t kStormObjectSize = 512;
constexpr int kStormTxnsPerThread = 400;  // bound if the parent is slow

struct StormRecord {
  uint64_t tag;    // thread*2 + (0 = attempting, 1 = acknowledged)
  uint64_t value;  // the counter value in question
};

std::string StormRoot(int i) { return "storm_" + std::to_string(i); }

// Child workload: kStormThreads threads, each committing increments of its
// own object (own file -> own segment -> disjoint pages), reporting each
// attempt and each acknowledged commit through the pipe. Records are 16
// bytes (< PIPE_BUF), so concurrent writes never interleave.
[[noreturn]] void RunStormChild(const std::string& dir, int report_fd) {
  Database::Options o;
  o.dir = dir;
  o.create = false;
  auto dbr = Database::Open(o);
  if (!dbr.ok()) ::_exit(2);
  Database* db = dbr->get();

  std::vector<std::thread> threads;
  for (int t = 0; t < kStormThreads; ++t) {
    threads.emplace_back([db, t, report_fd] {
      for (uint64_t next = 1;
           next <= static_cast<uint64_t>(kStormTxnsPerThread); ++next) {
        auto txn = db->Begin();
        if (!txn.ok()) ::_exit(3);
        auto slot = db->GetRoot(StormRoot(t));
        if (!slot.ok()) ::_exit(3);
        StormRecord attempt{static_cast<uint64_t>(t) * 2, next};
        if (::write(report_fd, &attempt, sizeof(attempt)) !=
            sizeof(attempt)) {
          ::_exit(3);
        }
        char* body = reinterpret_cast<char*>((*slot)->dp);
        memset(body, static_cast<char>('A' + next % 26), kStormObjectSize);
        memcpy(body, &next, sizeof(next));
        if (!db->Commit(*txn).ok()) ::_exit(3);
        StormRecord acked{static_cast<uint64_t>(t) * 2 + 1, next};
        if (::write(report_fd, &acked, sizeof(acked)) != sizeof(acked)) {
          ::_exit(3);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ::_exit(0);  // the parent never got around to killing us: still verified
}

class CommitStormTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_storm_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CommitStormTest, AckedCommitsSurviveSigkill) {
  {  // Seed: one object per storm thread, each in its own file.
    Database::Options o;
    o.dir = dir_.string();
    o.create = true;
    auto dbr = Database::Open(o);
    ASSERT_TRUE(dbr.ok()) << dbr.status().ToString();
    auto db = std::move(*dbr);
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    std::string body(kStormObjectSize, 'A');
    uint64_t zero = 0;
    memcpy(body.data(), &zero, sizeof(zero));
    for (int t = 0; t < kStormThreads; ++t) {
      auto file = db->CreateFile("storm_f" + std::to_string(t));
      ASSERT_TRUE(file.ok());
      auto slot =
          db->CreateObject(*file, kRawBytesType, kStormObjectSize, body.data());
      ASSERT_TRUE(slot.ok());
      ASSERT_TRUE(db->SetRoot(StormRoot(t), *slot).ok());
    }
    ASSERT_TRUE(db->Commit(*txn).ok());
  }

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();  // parent is single-threaded here (tsan-safe)
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    RunStormChild(dir_.string(), pipefd[1]);
  }
  ::close(pipefd[1]);

  // Let the storm get going, then kill it mid-commit with no unwind. Keep
  // draining the pipe afterwards: anything buffered was still acknowledged.
  uint64_t attempted[kStormThreads] = {0};
  uint64_t acked[kStormThreads] = {0};
  uint64_t total_acks = 0;
  bool killed = false;
  StormRecord rec;
  for (;;) {
    const ssize_t n = ::read(pipefd[0], &rec, sizeof(rec));
    if (n != sizeof(rec)) break;  // EOF: child is gone
    const int t = static_cast<int>(rec.tag / 2);
    ASSERT_LT(t, kStormThreads);
    if (rec.tag % 2 == 0) {
      attempted[t] = std::max(attempted[t], rec.value);
    } else {
      acked[t] = std::max(acked[t], rec.value);
      ++total_acks;
    }
    if (!killed && total_acks >= 40) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
  }
  ::close(pipefd[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  const bool died = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  ASSERT_TRUE(died || clean) << "storm child failed, status=" << status;
  EXPECT_GT(total_acks, 0u) << "storm never committed anything";

  // Reopen (recovery runs) and hold group commit to its durability
  // contract, per thread: acked <= recovered <= attempted.
  Database::Options o;
  o.dir = dir_.string();
  o.create = false;
  auto dbr = Database::Open(o);
  ASSERT_TRUE(dbr.ok()) << "recovery failed: " << dbr.status().ToString();
  auto db = std::move(*dbr);
  for (int t = 0; t < kStormThreads; ++t) {
    auto slot = db->GetRoot(StormRoot(t));
    ASSERT_TRUE(slot.ok()) << "root lost for thread " << t;
    const char* body = reinterpret_cast<const char*>((*slot)->dp);
    uint64_t v = 0;
    memcpy(&v, body, sizeof(v));
    EXPECT_GE(v, acked[t]) << "durability hole: thread " << t << " acked "
                           << acked[t] << " but recovered " << v;
    EXPECT_LE(v, attempted[t]) << "phantom commit at thread " << t;
    if (v > 0) {
      // The fill must match the counter: no torn page survived recovery.
      const char want = static_cast<char>('A' + v % 26);
      EXPECT_EQ(body[sizeof(uint64_t)], want) << "torn page, thread " << t;
      EXPECT_EQ(body[kStormObjectSize - 1], want) << "torn tail, thread " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Sharded lock table.
// ---------------------------------------------------------------------------

// Threads locking disjoint keys must never wait: the shard partitioning
// (not one table-wide mutex) is what makes every grant immediate.
TEST(LockShardTest, DisjointKeysNeverWait) {
  LockManager lm;
  constexpr int kThreads = 16;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lm, &failures, t] {
      const TxnId txn = static_cast<TxnId>(t) + 1;
      for (int r = 0; r < kRounds; ++r) {
        const uint64_t key =
            LockKey::Page(1, 0, static_cast<uint32_t>(t * kRounds + r));
        if (!lm.Acquire(txn, key, LockMode::kX, 1000).ok()) {
          failures.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const Stats stats = lm.stats();
  EXPECT_EQ(stats.counter("txn.lock.acquire"),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(stats.counter("txn.lock.immediate_grant"),
            stats.counter("txn.lock.acquire"))
      << "disjoint keys serialized on each other";
  EXPECT_EQ(stats.counter("txn.lock.wait"), 0u);
  EXPECT_EQ(stats.counter("txn.lock.timeout"), 0u);
}

// Fairness under contention: everyone hammering one hot key gets through
// within a generous timeout — a starved waiter would surface as a timeout.
TEST(LockShardTest, HotKeyStormStarvesNobody) {
  LockManager lm;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  const uint64_t hot = LockKey::Page(1, 0, 7);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lm, &failures, hot, t] {
      const TxnId txn = static_cast<TxnId>(t) + 1;
      for (int r = 0; r < kRounds; ++r) {
        const Status s = lm.Acquire(txn, hot, LockMode::kX, 10000);
        if (!s.ok()) {
          failures.fetch_add(1);
          continue;
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << "a waiter starved on the hot key";
  EXPECT_EQ(lm.stats().counter("txn.lock.timeout"), 0u);
}

// ---------------------------------------------------------------------------
// 3. Grant/reap race regression.
// ---------------------------------------------------------------------------

class GrantReapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("bess_reap_" + std::to_string(::getpid()));
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().DisarmAll();
    fault::FaultRegistry::Instance().ResetCounters();
    clients_.clear();
    server_.reset();
    db_.reset();
    std::filesystem::remove_all(base_);
  }

  RemoteClient* Connect() {
    RemoteClient::Options o;
    o.server_path = socket_path_;
    o.db_id = 1;
    o.lock_timeout_ms = 3000;
    auto c = RemoteClient::Connect(o);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    clients_.push_back(std::move(*c));
    return clients_.back().get();
  }

  std::filesystem::path base_;
  std::string socket_path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<BessServer> server_;
  std::vector<std::unique_ptr<RemoteClient>> clients_;
};

// Regression: an unresponsive holder caches X locks on TWO objects; two
// clients wait on different ones. The first waiter's callback round trip
// times out and reaps the holder. The reap must free the holder's entire
// lock set immediately (not wait for its serving thread to unwind) and the
// release must wake waiters parked on *any* shard — previously the second
// waiter missed its wakeup and rode out the full lock timeout against a
// ghost, or timed out entirely.
TEST_F(GrantReapTest, ReapFreesWholeLockSetForConcurrentWaiters) {
  Database::Options o;
  o.dir = (base_ / "db").string();
  o.db_id = 1;
  o.create = true;
  auto dbr = Database::Open(o);
  ASSERT_TRUE(dbr.ok()) << dbr.status().ToString();
  db_ = std::move(*dbr);

  BessServer::Options so;
  so.socket_path = (base_ / "server.sock").string();
  so.lock_timeout_ms = 3000;
  so.callback_timeout_ms = 25;  // the injected-timeout knob under test
  socket_path_ = so.socket_path;
  server_ = std::make_unique<BessServer>(so);
  ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
  ASSERT_TRUE(server_->Start().ok());

  // Holder A commits two objects in two files and keeps the X locks cached.
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  for (int i = 0; i < 2; ++i) {
    auto file = a->CreateFile("f" + std::to_string(i));
    ASSERT_TRUE(file.ok());
    uint64_t v = 1;
    auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(a->SetRoot("obj" + std::to_string(i), *slot).ok());
  }
  ASSERT_TRUE(a->Commit().ok());

  RemoteClient* b = Connect();
  RemoteClient* c = Connect();

  // Stall every client->server send (including A's callback answers) well
  // past the 25 ms callback window: A becomes an unresponsive ghost.
  fault::FaultSpec slow;
  slow.action = fault::FaultAction::kLatency;
  slow.latency_us = 80000;
  slow.detail_filter = socket_path_;
  fault::FaultRegistry::Instance().Arm("sock.send", slow);

  Status commit_b = Status::Internal("b never committed");
  Status commit_c = Status::Internal("c never committed");
  std::thread tb([&] {
    if (!b->Begin().ok()) return;
    auto theirs = b->GetRoot("obj0");
    if (!theirs.ok()) {
      commit_b = theirs.status();
      return;
    }
    *reinterpret_cast<uint64_t*>((*theirs)->dp) = 2;
    commit_b = b->Commit();
  });
  std::thread tc([&] {
    if (!c->Begin().ok()) return;
    auto theirs = c->GetRoot("obj1");
    if (!theirs.ok()) {
      commit_c = theirs.status();
      return;
    }
    *reinterpret_cast<uint64_t*>((*theirs)->dp) = 2;
    commit_c = c->Commit();
  });
  tb.join();
  tc.join();
  fault::FaultRegistry::Instance().DisarmAll();

  EXPECT_TRUE(commit_b.ok()) << commit_b.ToString();
  EXPECT_TRUE(commit_c.ok()) << commit_c.ToString();

  const auto stats = server_->stats();
  EXPECT_GT(stats.counter("srv.callback.timeout"), 0u);
  EXPECT_GT(stats.counter("srv.session.close"), 0u);
}

}  // namespace
}  // namespace bess
