// WAL crash-recovery torture harness.
//
// Each iteration forks a child that runs commit workloads against the
// database while a seeded crashpoint (SIGKILL — no unwind, no flush) is
// armed on a random file I/O point. The parent then reopens the database,
// which runs ARIES restart recovery, and asserts the invariants that define
// crash consistency:
//
//   1. Durability: every commit the child acknowledged is present.
//   2. Atomicity: all objects of the multi-page commit group carry the same
//      value — a crash never exposes half a transaction.
//   3. No phantoms: the recovered value never exceeds the last attempt.
//   4. Recovery is idempotent: killing the process *during recovery* and
//      recovering again yields the same consistent state.
//
// Everything is driven by one base seed (env BESS_TORTURE_SEED), and each
// iteration derives its own; failures print the iteration seed so any run
// reproduces exactly. Iteration count: env BESS_TORTURE_ITERS (default 200,
// a few seconds — the CI "torture" label budget).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "object/database.h"
#include "obs/stats.h"
#include "os/fault_injection.h"
#include "os/socket.h"
#include "server/bess_server.h"
#include "storage/storage_area.h"
#include "util/random.h"

namespace bess {
namespace {

constexpr int kObjects = 6;          // one commit touches all of these
constexpr uint32_t kObjectSize = 1200;  // ~2 data pages per commit group
constexpr int kMaxTxnsPerChild = 500;   // bound if the crashpoint never fires

struct PipeRecord {
  uint64_t tag;  // 0 = attempting value, 1 = value acknowledged committed
  uint64_t value;
};

std::string RootName(int i) { return "o" + std::to_string(i); }

// The child workload: open (recovery may run — and may be the thing that
// crashes), then repeatedly bump the shared counter in every object inside
// one transaction, reporting attempts and acks through the pipe.
[[noreturn]] void RunCrashChild(const std::string& dir, uint64_t seed,
                                int report_fd, bool recovery_only) {
  Random rng(seed);
  static const char* kPoints[] = {"file.writeat", "file.sync", "file.append",
                                  "file.readat"};
  // Recovery-crash children die fast (low nth, reads included); workload
  // children let the open finish more often (reads excluded).
  const char* point = recovery_only
                          ? kPoints[rng.Uniform(4)]
                          : kPoints[rng.Uniform(3)];
  const int nth = static_cast<int>(
      recovery_only ? rng.Range(1, 25) : rng.Range(1, 60));
  fault::FaultRegistry::Instance().Arm(point,
                                       fault::FaultSpec::CrashAtNth(nth));

  Database::Options o;
  o.dir = dir;
  o.create = false;
  auto dbr = Database::Open(o);
  if (!dbr.ok()) ::_exit(3);
  if (recovery_only) ::_exit(0);  // crashpoint never fired during recovery
  auto db = std::move(*dbr);
  auto fid = db->FindFile("f");
  if (!fid.ok()) ::_exit(3);

  std::string body(kObjectSize, '\0');
  for (int t = 0; t < kMaxTxnsPerChild; ++t) {
    auto txn = db->Begin();
    if (!txn.ok()) ::_exit(3);
    Slot* slots[kObjects];
    uint64_t cur = 0;
    for (int i = 0; i < kObjects; ++i) {
      auto s = db->GetRoot(RootName(i));
      if (!s.ok()) ::_exit(3);
      slots[i] = *s;
      cur = *reinterpret_cast<const uint64_t*>(slots[i]->dp);
    }
    const uint64_t next = cur + 1;
    PipeRecord attempt{0, next};
    if (::write(report_fd, &attempt, sizeof(attempt)) != sizeof(attempt)) {
      ::_exit(3);
    }
    // Same value into every object, plus a value-derived fill so a torn
    // page would corrupt more than just the counter word.
    memset(body.data(), static_cast<char>('A' + next % 26), body.size());
    memcpy(body.data(), &next, sizeof(next));
    for (int i = 0; i < kObjects; ++i) {
      memcpy(reinterpret_cast<void*>(slots[i]->dp), body.data(), body.size());
    }
    if (!db->Commit(*txn).ok()) ::_exit(3);
    PipeRecord acked{1, next};
    if (::write(report_fd, &acked, sizeof(acked)) != sizeof(acked)) {
      ::_exit(3);
    }
  }
  ::_exit(0);  // the crashpoint never fired: clean exit, still verified
}

using ChildFn = void (*)(const std::string&, uint64_t, int, bool);

class TortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_torture_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Creates the database with kObjects root objects all holding value 0.
  void SeedDatabase() {
    Database::Options o;
    o.dir = dir_.string();
    o.create = true;
    auto dbr = Database::Open(o);
    ASSERT_TRUE(dbr.ok()) << dbr.status().ToString();
    auto db = std::move(*dbr);
    auto file = db->CreateFile("f");
    ASSERT_TRUE(file.ok());
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    std::string body(kObjectSize, 'A');
    uint64_t zero = 0;
    memcpy(body.data(), &zero, sizeof(zero));
    for (int i = 0; i < kObjects; ++i) {
      auto slot = db->CreateObject(*file, kRawBytesType, kObjectSize,
                                   body.data());
      ASSERT_TRUE(slot.ok());
      ASSERT_TRUE(db->SetRoot(RootName(i), *slot).ok());
    }
    ASSERT_TRUE(db->Commit(*txn).ok());
  }

  // Forks a crash child and collects what it reported before dying.
  // Returns false only on harness failure (child hit an unexpected error).
  bool RunChild(uint64_t seed, bool recovery_only, uint64_t* max_attempt,
                uint64_t* max_acked, ChildFn child = RunCrashChild) {
    int pipefd[2];
    EXPECT_EQ(::pipe(pipefd), 0);
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipefd[0]);
      child(dir_.string(), seed, pipefd[1], recovery_only);
      ::_exit(0);  // unreachable: every child function exits itself
    }
    ::close(pipefd[1]);
    PipeRecord rec;
    for (;;) {
      const ssize_t n = ::read(pipefd[0], &rec, sizeof(rec));
      if (n != sizeof(rec)) break;  // EOF: the child died (or finished)
      if (rec.tag == 0) {
        *max_attempt = std::max(*max_attempt, rec.value);
      } else {
        *max_acked = std::max(*max_acked, rec.value);
      }
    }
    ::close(pipefd[0]);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    EXPECT_TRUE(killed || clean)
        << "child failed unexpectedly, status=" << status << " seed=" << seed;
    return killed || clean;
  }

  // Reopens the database (running recovery) and asserts the ARIES
  // invariants; returns the recovered counter value.
  uint64_t VerifyConsistent(uint64_t max_attempt, uint64_t max_acked,
                            uint64_t seed) {
    Database::Options o;
    o.dir = dir_.string();
    o.create = false;
    auto dbr = Database::Open(o);
    EXPECT_TRUE(dbr.ok()) << "recovery failed: " << dbr.status().ToString()
                          << " seed=" << seed;
    if (!dbr.ok()) return 0;
    auto db = std::move(*dbr);
    uint64_t value = 0;
    for (int i = 0; i < kObjects; ++i) {
      auto s = db->GetRoot(RootName(i));
      EXPECT_TRUE(s.ok()) << "root lost, seed=" << seed;
      if (!s.ok()) return 0;
      const uint64_t v = *reinterpret_cast<const uint64_t*>((*s)->dp);
      const char* body = reinterpret_cast<const char*>((*s)->dp);
      if (i == 0) {
        value = v;
      } else {
        // Atomicity: one commit updates all objects or none.
        EXPECT_EQ(v, value) << "torn commit visible at object " << i
                            << ", seed=" << seed;
      }
      // The fill bytes must match the counter (no partial page survived).
      const char want = static_cast<char>('A' + v % 26);
      EXPECT_EQ(body[sizeof(uint64_t)], want)
          << "page fill torn at object " << i << ", seed=" << seed;
      EXPECT_EQ(body[kObjectSize - 1], want)
          << "page tail torn at object " << i << ", seed=" << seed;
    }
    // Durability: acked commits survived. No phantoms: nothing beyond the
    // last attempt materialized.
    EXPECT_GE(value, max_acked) << "acked commit lost, seed=" << seed;
    EXPECT_LE(value, max_attempt) << "phantom commit, seed=" << seed;
    return value;
  }

  std::filesystem::path dir_;
};

TEST_F(TortureTest, RandomizedCrashpoints) {
  uint64_t base_seed = 0xBE55BE55ull;
  if (const char* env = std::getenv("BESS_TORTURE_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  int iters = 200;
  if (const char* env = std::getenv("BESS_TORTURE_ITERS")) {
    iters = std::atoi(env);
  }
  SCOPED_TRACE("base seed " + std::to_string(base_seed) +
               " (set BESS_TORTURE_SEED to reproduce)");
  SeedDatabase();

  Random seeder(base_seed);
  uint64_t floor_value = 0;   // recovered value is monotone across crashes
  uint64_t max_attempt = 0;
  uint64_t max_acked = 0;
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = seeder.Next();
    ASSERT_TRUE(RunChild(seed, /*recovery_only=*/false, &max_attempt,
                         &max_acked))
        << "iter=" << iter << " seed=" << seed;

    // Every third iteration, also kill a process *while it recovers* —
    // recovery must be restartable (repeating history is idempotent).
    if (iter % 3 == 2) {
      const uint64_t rseed = seeder.Next();
      uint64_t ignored_a = 0, ignored_b = 0;
      ASSERT_TRUE(RunChild(rseed, /*recovery_only=*/true, &ignored_a,
                           &ignored_b))
          << "iter=" << iter << " recovery seed=" << rseed;
    }

    const uint64_t value = VerifyConsistent(max_attempt, max_acked, seed);
    ASSERT_GE(value, floor_value)
        << "recovered state went backwards, iter=" << iter
        << " seed=" << seed;
    floor_value = value;
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping after first failing iteration " << iter
             << ", seed=" << seed << " (base " << base_seed << ")";
    }
  }
}

// Checkpoint/segment-recycle crash torture. Children run the same counter
// workload, but against a log of tiny segments with aggressive background
// checkpointing, and the armed crashpoint is drawn from the always-on
// recovery machinery itself: the checkpoint record append, the master-record
// swing, segment recycling, and segment roll — plus the raw file points.
// SIGKILL at any of these instants must leave a log the next open recovers
// to a consistent, durable state.
[[noreturn]] void RunCheckpointCrashChild(const std::string& dir,
                                          uint64_t seed, int report_fd,
                                          bool recovery_only) {
  Random rng(seed);
  static const char* kPoints[] = {
      "wal.checkpoint.record", "wal.checkpoint.master", "wal.master.swing",
      "wal.recycle.unlink",    "wal.segment.roll",      "file.writeat",
      "file.sync",             "file.readat"};
  // The wal.* points fire once per checkpoint/roll, not once per I/O, so
  // they get a low nth; the file points keep the workload-tuned range.
  const int idx = recovery_only ? static_cast<int>(rng.Uniform(8))
                                : static_cast<int>(rng.Uniform(7));
  const char* point = kPoints[idx];
  const bool wal_point = idx < 5;
  const int nth = static_cast<int>(
      wal_point ? rng.Range(1, 6)
                : (recovery_only ? rng.Range(1, 25) : rng.Range(1, 60)));
  fault::FaultRegistry::Instance().Arm(point,
                                       fault::FaultSpec::CrashAtNth(nth));

  Database::Options o;
  o.dir = dir;
  o.create = false;
  o.wal_segment_bytes = 32 << 10;   // many rolls and recycles per child
  o.checkpoint_log_bytes = 48 << 10;  // background checkpoints fire often
  auto dbr = Database::Open(o);
  if (!dbr.ok()) ::_exit(3);
  if (recovery_only) ::_exit(0);
  auto db = std::move(*dbr);
  auto fid = db->FindFile("f");
  if (!fid.ok()) ::_exit(3);

  std::string body(kObjectSize, '\0');
  for (int t = 0; t < kMaxTxnsPerChild; ++t) {
    auto txn = db->Begin();
    if (!txn.ok()) ::_exit(3);
    Slot* slots[kObjects];
    uint64_t cur = 0;
    for (int i = 0; i < kObjects; ++i) {
      auto s = db->GetRoot(RootName(i));
      if (!s.ok()) ::_exit(3);
      slots[i] = *s;
      cur = *reinterpret_cast<const uint64_t*>(slots[i]->dp);
    }
    const uint64_t next = cur + 1;
    PipeRecord attempt{0, next};
    if (::write(report_fd, &attempt, sizeof(attempt)) != sizeof(attempt)) {
      ::_exit(3);
    }
    memset(body.data(), static_cast<char>('A' + next % 26), body.size());
    memcpy(body.data(), &next, sizeof(next));
    for (int i = 0; i < kObjects; ++i) {
      memcpy(reinterpret_cast<void*>(slots[i]->dp), body.data(), body.size());
    }
    if (!db->Commit(*txn).ok()) ::_exit(3);
    PipeRecord acked{1, next};
    if (::write(report_fd, &acked, sizeof(acked)) != sizeof(acked)) {
      ::_exit(3);
    }
    // Every few commits, a foreground fuzzy checkpoint on top of the
    // background ones: both crashpoint consumers and both entry paths get
    // exercised. A failed checkpoint is survivable by design; only the
    // consistency of the recovered state is asserted (by the parent).
    if (t % 7 == 6) (void)db->Checkpoint();
  }
  ::_exit(0);
}

// The acceptance bar for the always-on recovery machinery: ≥ 50 iterations
// of SIGKILL landing inside checkpoint, segment-recycle and master-record
// paths, with the same four ARIES invariants as RandomizedCrashpoints
// asserted after every recovery. Iterations: env BESS_TORTURE_CP_ITERS
// (default 60, floor 50).
TEST_F(TortureTest, CheckpointAndRecycleCrashpoints) {
  uint64_t base_seed = 0xC4EC9017ull;
  if (const char* env = std::getenv("BESS_TORTURE_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  int iters = 60;
  if (const char* env = std::getenv("BESS_TORTURE_CP_ITERS")) {
    iters = std::max(50, std::atoi(env));
  }
  SCOPED_TRACE("base seed " + std::to_string(base_seed) +
               " (set BESS_TORTURE_SEED to reproduce)");
  SeedDatabase();

  Random seeder(base_seed);
  uint64_t floor_value = 0;
  uint64_t max_attempt = 0;
  uint64_t max_acked = 0;
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = seeder.Next();
    ASSERT_TRUE(RunChild(seed, /*recovery_only=*/false, &max_attempt,
                         &max_acked, RunCheckpointCrashChild))
        << "iter=" << iter << " seed=" << seed;

    // Every third iteration, kill a process while it recovers (recovery
    // itself checkpoints and recycles at the end of restart).
    if (iter % 3 == 2) {
      const uint64_t rseed = seeder.Next();
      uint64_t ignored_a = 0, ignored_b = 0;
      ASSERT_TRUE(RunChild(rseed, /*recovery_only=*/true, &ignored_a,
                           &ignored_b, RunCheckpointCrashChild))
          << "iter=" << iter << " recovery seed=" << rseed;
    }

    const uint64_t value = VerifyConsistent(max_attempt, max_acked, seed);
    ASSERT_GE(value, floor_value)
        << "recovered state went backwards, iter=" << iter
        << " seed=" << seed;
    floor_value = value;
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping after first failing iteration " << iter
             << ", seed=" << seed << " (base " << base_seed << ")";
    }
  }
}

// Bit-rot torture: every iteration commits through a lying disk that
// randomly flips one bit per written page, then scrubs while the WAL still
// holds the commit's page images. The integrity invariant under test:
//
//   every injected flip is either repaired byte-exact from the WAL or ends
//   in a clean quarantine — never a silent corruption, never a crash —
//
// and at the end the observability counters must reconcile exactly with the
// injector's own hit log. Iterations: env BESS_TORTURE_BITROT_ITERS
// (default 60, floor 50 per the acceptance bar).
TEST_F(TortureTest, BitRotRepairOrCleanQuarantine) {
  uint64_t base_seed = 0xB17B075Eull;
  if (const char* env = std::getenv("BESS_TORTURE_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  int iters = 60;
  if (const char* env = std::getenv("BESS_TORTURE_BITROT_ITERS")) {
    iters = std::max(50, std::atoi(env));
  }
  SCOPED_TRACE("base seed " + std::to_string(base_seed) +
               " (set BESS_TORTURE_SEED to reproduce)");
  SeedDatabase();

  auto& faults = fault::FaultRegistry::Instance();
  const uint64_t hits_before = faults.hits("page.bitrot");
  const Stats before = Snapshot();

  // Scratch area for the no-image branch: it has no repair handler, so a
  // flip there must land in quarantine (and heal on the next full rewrite).
  auto scratch =
      StorageArea::Create((dir_ / "rot_scratch").string(), 99);
  ASSERT_TRUE(scratch.ok());
  auto scratch_seg = (*scratch)->AllocSegment(1);
  ASSERT_TRUE(scratch_seg.ok());
  uint64_t quarantine_rounds = 0;

  Random seeder(base_seed);
  std::string body(kObjectSize, '\0');
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = seeder.Next();
    Database::Options o;
    o.dir = dir_.string();
    o.create = false;
    auto dbr = Database::Open(o);
    ASSERT_TRUE(dbr.ok()) << "iter=" << iter << " seed=" << seed << ": "
                          << dbr.status().ToString();
    auto db = std::move(*dbr);

    // Silent-corruption check: every object must read back the value of the
    // last acknowledged commit (= iter, since nothing here crashes), with an
    // intact fill — a flip the integrity layer missed would surface here.
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    Slot* slots[kObjects];
    for (int i = 0; i < kObjects; ++i) {
      auto s = db->GetRoot(RootName(i));
      ASSERT_TRUE(s.ok()) << "iter=" << iter << " seed=" << seed
                          << " object " << i << ": " << s.status().ToString();
      slots[i] = *s;
      const uint64_t v = *reinterpret_cast<const uint64_t*>(slots[i]->dp);
      ASSERT_EQ(v, static_cast<uint64_t>(iter))
          << "silent corruption or lost commit at object " << i
          << ", iter=" << iter << " seed=" << seed;
      const char* raw = reinterpret_cast<const char*>(slots[i]->dp);
      ASSERT_EQ(raw[kObjectSize - 1], static_cast<char>('A' + v % 26))
          << "fill corrupted at object " << i << ", iter=" << iter;
    }

    // Commit through the lying disk: each page write flips one bit with
    // probability 0.25 but reports success and stamps the intended CRC.
    const uint64_t next = static_cast<uint64_t>(iter) + 1;
    memset(body.data(), static_cast<char>('A' + next % 26), body.size());
    memcpy(body.data(), &next, sizeof(next));
    for (int i = 0; i < kObjects; ++i) {
      memcpy(reinterpret_cast<void*>(slots[i]->dp), body.data(), body.size());
    }
    fault::FaultSpec rot;
    rot.action = fault::FaultAction::kBitRot;
    rot.probability = 0.25;
    rot.seed = seed;
    faults.Arm("page.bitrot", rot);
    ASSERT_TRUE(db->Commit(*txn).ok()) << "iter=" << iter << " seed=" << seed;
    faults.DisarmAll();

    // Scrub while the WAL still holds this commit's exact page images:
    // every flip must be found and repaired byte-exact; none may quarantine.
    auto report = db->Scrub();
    ASSERT_TRUE(report.ok()) << "iter=" << iter << " seed=" << seed << ": "
                             << report.status().ToString();
    EXPECT_EQ(report->repaired, report->verify_failures)
        << "unrepaired flip despite a live WAL image, iter=" << iter
        << " seed=" << seed;
    EXPECT_EQ(report->quarantined, 0u) << "iter=" << iter << " seed=" << seed;

    // Every 4th iteration, the no-image branch: a guaranteed flip on the
    // handler-less scratch area must end in a clean quarantine — the area
    // stays usable and the page heals on the next full rewrite.
    if (iter % 4 == 3) {
      const std::string page = std::string(kPageSize, 'r');
      fault::FaultSpec certain;
      certain.action = fault::FaultAction::kBitRot;
      certain.count = 1;
      faults.Arm("page.bitrot", certain);
      ASSERT_TRUE((*scratch)
                      ->WritePages(scratch_seg->first_page, 1, page.data(), 1)
                      .ok());
      faults.DisarmAll();
      ScrubReport sr;
      ASSERT_TRUE((*scratch)->Scrub(&sr).ok());
      EXPECT_EQ(sr.verify_failures, 1u) << "iter=" << iter;
      EXPECT_EQ(sr.quarantined, 1u) << "iter=" << iter;
      EXPECT_TRUE((*scratch)->IsQuarantined(scratch_seg->first_page));
      ASSERT_TRUE((*scratch)
                      ->WritePages(scratch_seg->first_page, 1, page.data(), 2)
                      .ok());
      std::string back(kPageSize, '\0');
      ASSERT_TRUE(
          (*scratch)->ReadPages(scratch_seg->first_page, 1, back.data()).ok());
      EXPECT_EQ(back, page);
      quarantine_rounds++;
    }

    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping after first failing iteration " << iter
             << ", seed=" << seed << " (base " << base_seed << ")";
    }
  }

  // Reconcile the observability counters against the injector's log: every
  // hit was detected exactly once, split between repairs (WAL image present)
  // and the scratch area's quarantines; nothing slipped through and nothing
  // was double-counted.
  const uint64_t hits = faults.hits("page.bitrot") - hits_before;
  const Stats delta = StatsDelta(before, Snapshot());
  EXPECT_GT(hits, 0u) << "injector never fired: bit-rot path untested";
#if BESS_METRICS_ENABLED
  EXPECT_EQ(delta.counter("page.verify.fail"), hits);
  EXPECT_EQ(delta.counter("page.repair.ok"), hits - quarantine_rounds);
  EXPECT_EQ(delta.counter("page.quarantined"), quarantine_rounds);
  EXPECT_EQ(delta.counter("page.reread.ok"), 0u);
#endif
}

// ---- reactor-path chaos (DESIGN.md §12) -------------------------------------
//
// Seeded fault schedules against a live server: EAGAIN/short-write storms on
// the reactor's non-blocking send/recv paths, clients that vanish abruptly
// mid-pipeline, clients holding locks when they die, slow consumers that
// stop reading, and a forked client SIGSTOP'd mid-flight (a frozen peer the
// idle prober must reap). The invariant is graceful degradation: whatever
// the schedule does, afterwards the server holds zero sessions, every lock
// the dead clients held is grantable again immediately, and the process's
// fd count returns to baseline.

// Forked pipeline client for the SIGSTOP schedule: hammers pings until the
// parent freezes and then kills it. Runs in a child process, so gtest
// machinery and the parent's fault registry are out of the picture.
[[noreturn]] void RunPipelineChild(const std::string& sock_path) {
  auto s = MsgSocket::Connect(sock_path);
  if (!s.ok()) ::_exit(3);
  if (!s->Send(kMsgHello, "").ok()) ::_exit(3);
  if (!s->Recv().ok()) ::_exit(3);
  uint64_t id = 1;
  for (;;) {
    if (!s->Send(kMsgPing, "chaos", id++).ok()) ::_exit(0);
    (void)s->RecvTimeout(5);
  }
}

TEST_F(TortureTest, ReactorChaosLeaksNoSessionsFdsOrLocks) {
  uint64_t base_seed = 0xC4405EEDull;
  if (const char* env = std::getenv("BESS_TORTURE_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  int iters = 60;  // the overload gate wants >= 50 schedules
  if (const char* env = std::getenv("BESS_CHAOS_ITERS")) {
    iters = std::max(50, std::atoi(env));
  }

  const std::string sock_path = (dir_ / "chaos.sock").string();
  BessServer::Options o;
  o.socket_path = sock_path;
  o.worker_threads = 2;
  o.lock_timeout_ms = 300;
  o.max_inflight_global = 64;
  o.send_soft_cap_bytes = 32 << 10;
  o.send_hard_cap_bytes = 128 << 10;
  o.idle_timeout_ms = 50;
  o.watchdog_ms = 200;
  BessServer server(o);
  ASSERT_TRUE(server.Start().ok());

  auto connect_raw = [&]() -> Result<MsgSocket> {
    auto s = MsgSocket::Connect(sock_path);
    if (!s.ok()) return s.status();
    BESS_RETURN_IF_ERROR(s->Send(kMsgHello, ""));
    auto h = s->Recv();
    if (!h.ok()) return h.status();
    if (h->type != kMsgOk) return Status::Protocol("bad hello");
    return std::move(*s);
  };
  auto lock_payload = [](uint64_t key, uint32_t timeout_ms) {
    std::string p;
    PutFixed64(&p, key);
    p.push_back(static_cast<char>(LockMode::kX));
    PutFixed32(&p, timeout_ms);
    return p;
  };

  // Steady-state fd baseline: listener + reactor plumbing are up once
  // Start() returns. It is taken before any connection exists, so it never
  // depends on whether the server has closed a finished connection yet.
  size_t fd_baseline = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd");
       it != std::filesystem::directory_iterator(); ++it) {
    ++fd_baseline;
  }
  {
    auto warm = connect_raw();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    (void)warm->Send(kMsgGoodbye, "");
  }

  auto& faults = fault::FaultRegistry::Instance();
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed * 6364136223846793005ull + iter;
    Random rng(seed);

    // A fault storm on the reactor's non-blocking paths. kFail/kWouldBlock
    // is an EAGAIN storm; kShortWrite fragments reply frames. Blocking
    // client sockets don't pass these points, so the schedule stresses
    // exactly the server's continuation/flush machinery.
    if (rng.Uniform(4) != 0) {
      fault::FaultSpec storm;
      if (rng.Uniform(2) == 0) {
        storm.action = fault::FaultAction::kFail;
        storm.code = StatusCode::kWouldBlock;
      } else {
        storm.action = fault::FaultAction::kShortWrite;
        storm.max_bytes = rng.Range(0, 40);
      }
      storm.probability = 0.2 + 0.1 * rng.Uniform(4);
      storm.seed = seed;
      faults.Arm("sock.trysend", storm);
    }
    if (rng.Uniform(3) == 0) {
      fault::FaultSpec storm;
      storm.action = fault::FaultAction::kFail;
      storm.code = StatusCode::kWouldBlock;
      storm.probability = 0.2;
      storm.seed = seed ^ 0xFEED;
      faults.Arm("sock.tryrecv", storm);
    }

    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      const uint64_t cseed = seed + 1000 + c;
      clients.emplace_back([&, cseed] {
        Random crng(cseed);
        auto s = connect_raw();
        if (!s.ok()) return;  // rejected/raced: fine, nothing to leak
        const int mode = static_cast<int>(crng.Uniform(4));
        const uint64_t key = 1000 + crng.Uniform(4);
        switch (mode) {
          case 0: {  // clean pipeline, deadline on some requests, goodbye
            for (uint64_t i = 1; i <= 10; ++i) {
              const uint32_t dl = crng.Uniform(2) == 0 ? 0 : 20;
              if (!s->Send(kMsgPing, "p", i, dl).ok()) return;
            }
            for (int i = 0; i < 10; ++i) {
              if (!s->RecvTimeout(500).ok()) break;  // storm delays are fine
            }
            (void)s->Send(kMsgGoodbye, "");
            break;
          }
          case 1: {  // vanish abruptly mid-pipeline
            for (uint64_t i = 1; i <= 10; ++i) {
              if (!s->Send(kMsgPing, "p", i).ok()) return;
            }
            s->Close();
            break;
          }
          case 2: {  // die holding a lock: on_close must release it
            (void)s->Send(kMsgLock, lock_payload(key, 200), 1);
            (void)s->RecvTimeout(400);
            (void)s->Send(kMsgPing, "p", 2);
            s->Close();
            break;
          }
          default: {  // slow consumer: pipeline bulk, never read, vanish
            const std::string big(4 << 10, 'c');
            for (uint64_t i = 1; i <= 8; ++i) {
              if (!s->Send(kMsgPing, big, i).ok()) break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            s->Close();
            break;
          }
        }
      });
    }

    // Every fifth schedule adds a frozen peer: a forked pipelining client
    // SIGSTOP'd mid-flight. The server must probe it, get silence, and
    // reap — then the corpse is killed for real.
    pid_t frozen = -1;
    if (iter % 5 == 0) {
      frozen = ::fork();
      ASSERT_GE(frozen, 0);
      if (frozen == 0) RunPipelineChild(sock_path);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      ASSERT_EQ(::kill(frozen, SIGSTOP), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      (void)::kill(frozen, SIGCONT);
      (void)::kill(frozen, SIGKILL);
      int st = 0;
      ASSERT_EQ(::waitpid(frozen, &st, 0), frozen);
    }

    for (auto& t : clients) t.join();
    faults.DisarmAll();

    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping after failing chaos iteration " << iter
             << ", seed=" << seed << " (base " << base_seed << ")";
    }
  }

  // Graceful degradation: every session unwound, no fd leaked, and every
  // lock a dead client held is grantable immediately by a fresh session.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (server.live_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.live_sessions(), 0u) << "sessions leaked after chaos";
  EXPECT_EQ(server.stuck_workers(), 0);

  auto probe = connect_raw();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  for (uint64_t key = 1000; key < 1004; ++key) {
    ASSERT_TRUE(probe->Send(kMsgLock, lock_payload(key, 100), key).ok());
    auto granted = probe->Recv();
    ASSERT_TRUE(granted.ok()) << granted.status().ToString();
    EXPECT_EQ(granted->type, kMsgOk)
        << "lock " << key << " leaked by a dead session";
  }
  (void)probe->Send(kMsgGoodbye, "");
  probe->Close();  // the probe's own fd is not the server's to return

  size_t fds = 0;
  const auto fd_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    fds = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd");
         it != std::filesystem::directory_iterator(); ++it) {
      ++fds;
    }
    if (fds <= fd_baseline || std::chrono::steady_clock::now() > fd_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(fds, fd_baseline) << "fds leaked after chaos";
}

}  // namespace
}  // namespace bess
