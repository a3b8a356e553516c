// Tests for the shared-memory operation mode (§4.1.2, Figure 4): SMT frame
// agreement across processes, SVMA pointer translation, the two-level clock,
// reference-count pinning, and crash cleanup.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include "cache/shared_cache.h"
#include "os/file.h"

namespace bess {
namespace {

// A file-backed page store usable from several processes at once.
class FilePageStore : public SegmentStore {
 public:
  explicit FilePageStore(const std::string& path) {
    auto f = File::Open(path);
    file_ = std::move(*f);
  }
  Status FetchSlotted(SegmentId, void*, uint32_t*) override {
    return Status::NotSupported("raw page store");
  }
  Status FetchPages(uint16_t, uint16_t, PageId first, uint32_t count,
                    void* buf) override {
    return file_.ReadAt(static_cast<uint64_t>(first) * kPageSize, buf,
                        static_cast<size_t>(count) * kPageSize);
  }
  Status WritePages(uint16_t, uint16_t, PageId first, uint32_t count,
                    const void* buf) override {
    return file_.WriteAt(static_cast<uint64_t>(first) * kPageSize, buf,
                         static_cast<size_t>(count) * kPageSize);
  }

 private:
  File file_;
};

class SharedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    shm_name_ = "/bess_test_" + std::to_string(::getpid()) + "_" +
                info->name();
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_shc_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::create_directories(dir_);
    store_path_ = (dir_ / "pages").string();
    // 64 pages of recognizable data.
    auto f = File::Open(store_path_);
    ASSERT_TRUE(f.ok());
    for (uint32_t p = 0; p < 64; ++p) {
      std::string page(kPageSize, static_cast<char>('A' + (p % 26)));
      memcpy(page.data(), &p, sizeof(p));
      ASSERT_TRUE(
          f->WriteAt(static_cast<uint64_t>(p) * kPageSize, page.data(),
                     kPageSize)
              .ok());
    }
  }
  void TearDown() override {
    ::shm_unlink(shm_name_.c_str());
    std::filesystem::remove_all(dir_);
  }

  SharedCache::Geometry SmallGeo() {
    SharedCache::Geometry geo;
    geo.frame_count = 4;
    geo.vframe_count = 32;
    geo.smt_capacity = 64;
    return geo;
  }

  static PageAddr Page(uint32_t p) { return PageAddr{1, 0, p}; }

  std::string shm_name_;
  std::filesystem::path dir_;
  std::string store_path_;
};

TEST_F(SharedCacheTest, FixReadsCorrectPages) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  FilePageStore store(store_path_);
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());

  for (uint32_t p = 0; p < 4; ++p) {
    auto addr = (*space)->Fix(Page(p), false);
    ASSERT_TRUE(addr.ok()) << addr.status().ToString();
    uint32_t got;
    memcpy(&got, *addr, sizeof(got));
    EXPECT_EQ(got, p);
  }
  EXPECT_EQ((*space)->stats().counter("cache.miss"), 4u);
  // Re-fix: all hits, same addresses.
  auto again = (*space)->Fix(Page(2), false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*space)->stats().counter("cache.hit"), 1u);
}

TEST_F(SharedCacheTest, WritesFlushThroughStore) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok());
  FilePageStore store(store_path_);
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());

  auto addr = (*space)->Fix(Page(5), /*for_write=*/true);
  ASSERT_TRUE(addr.ok());
  memcpy(*addr, "SHAREDWRITE", 11);
  ASSERT_TRUE((*space)->FlushDirty().ok());

  std::string check(kPageSize, '\0');
  FilePageStore verify(store_path_);
  ASSERT_TRUE(verify.FetchPages(1, 0, 5, 1, check.data()).ok());
  EXPECT_EQ(check.substr(0, 11), "SHAREDWRITE");
}

TEST_F(SharedCacheTest, ReplacementEvictsAndDataSurvives) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok());
  FilePageStore store(store_path_);
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());

  // 12 pages through a 4-slot cache: the clock must evict.
  for (uint32_t p = 0; p < 12; ++p) {
    auto addr = (*space)->Fix(Page(p), true);
    ASSERT_TRUE(addr.ok()) << "page " << p << ": "
                           << addr.status().ToString();
    memcpy(static_cast<char*>(*addr) + 64, &p, sizeof(p));
  }
  EXPECT_GT((*space)->stats().counter("cache.eviction"), 0u);
  ASSERT_TRUE((*space)->FlushDirty().ok());
  // Everything is durable despite the churn.
  for (uint32_t p = 0; p < 12; ++p) {
    auto addr = (*space)->Fix(Page(p), false);
    ASSERT_TRUE(addr.ok());
    uint32_t got;
    memcpy(&got, static_cast<char*>(*addr) + 64, sizeof(got));
    EXPECT_EQ(got, p) << "page " << p;
  }
}

TEST_F(SharedCacheTest, PointerSurvivesReplacementViaRefault) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok());
  FilePageStore store(store_path_);
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());

  auto addr = (*space)->Fix(Page(0), false);
  ASSERT_TRUE(addr.ok());
  char* held = static_cast<char*>(*addr);
  // Push page 0 out (cache churn + our own clock sweeps).
  for (uint32_t p = 1; p < 12; ++p) {
    ASSERT_TRUE((*space)->Fix(Page(p), false).ok());
  }
  // The held pointer may be invalid/protected now; touching it refaults and
  // transparently rebinds (Figure 4's P1-accesses-C scenario).
  uint32_t got;
  memcpy(&got, held, sizeof(got));
  EXPECT_EQ(got, 0u);
  const Stats s = (*space)->stats();
  EXPECT_GT(s.counter("cache.second_chance") + s.counter("cache.remap"), 0u);
}

TEST_F(SharedCacheTest, SvmaOffsetsAgreeAcrossProcesses) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok());

  int sync_pipe[2], result_pipe[2];
  ASSERT_EQ(pipe(sync_pipe), 0);
  ASSERT_EQ(pipe(result_pipe), 0);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: attach, fix page 7, report its SVMA offset and write a marker
    // through shared memory.
    FilePageStore store(store_path_);
    auto attached = SharedCache::Attach(shm_name_);
    if (!attached.ok()) _exit(2);
    auto space = SharedPageSpace::Open(std::move(*attached), &store);
    if (!space.ok()) _exit(2);
    auto addr = (*space)->Fix(Page(7), true);
    if (!addr.ok()) _exit(2);
    auto svma = (*space)->ToSvma(*addr);
    if (!svma.ok()) _exit(2);
    uint64_t off = *svma;
    memcpy(static_cast<char*>(*addr) + 128, "FROMCHILD", 9);
    if (write(result_pipe[1], &off, sizeof(off)) != sizeof(off)) _exit(2);
    char go;
    (void)!read(sync_pipe[0], &go, 1);  // hold the process alive until told
    _exit(0);
  }

  FilePageStore store(store_path_);
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());
  uint64_t child_svma = 0;
  ASSERT_EQ(read(result_pipe[0], &child_svma, sizeof(child_svma)),
            (ssize_t)sizeof(child_svma));

  // Parent maps the same page: same SVMA offset (same virtual frame), and
  // the child's write is visible through the shared slot.
  auto addr = (*space)->Fix(Page(7), false);
  ASSERT_TRUE(addr.ok());
  auto svma = (*space)->ToSvma(*addr);
  ASSERT_TRUE(svma.ok());
  EXPECT_EQ(*svma, child_svma) << "SMT frame assignment differs";
  EXPECT_EQ(memcmp(static_cast<char*>(*addr) + 128, "FROMCHILD", 9), 0);
  // And FromSvma round-trips.
  EXPECT_EQ((*space)->FromSvma(*svma), *addr);

  ASSERT_EQ(write(sync_pipe[1], "x", 1), 1);
  int wstatus;
  waitpid(pid, &wstatus, 0);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
}

TEST_F(SharedCacheTest, BoundSlotsCannotBeUnilaterallyReplaced) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok());

  int hold_pipe[2], ready_pipe[2];
  ASSERT_EQ(pipe(hold_pipe), 0);
  ASSERT_EQ(pipe(ready_pipe), 0);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: bind all four slots and hold them accessible.
    FilePageStore store(store_path_);
    auto attached = SharedCache::Attach(shm_name_);
    if (!attached.ok()) _exit(2);
    auto space = SharedPageSpace::Open(std::move(*attached), &store);
    if (!space.ok()) _exit(2);
    for (uint32_t p = 0; p < 4; ++p) {
      if (!(*space)->Fix(Page(p), false).ok()) _exit(2);
    }
    if (write(ready_pipe[1], "r", 1) != 1) _exit(2);
    char go;
    (void)!read(hold_pipe[0], &go, 1);
    _exit(0);
  }

  char r;
  ASSERT_EQ(read(ready_pipe[0], &r, 1), 1);

  // Parent: every slot is bound by the child; we may not steal any.
  FilePageStore store(store_path_);
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());
  auto addr = (*space)->Fix(Page(20), false);
  EXPECT_TRUE(addr.status().IsBusy()) << addr.status().ToString();

  // Release the child; its exit unbinds, and the fix succeeds.
  ASSERT_EQ(write(hold_pipe[1], "x", 1), 1);
  int wstatus;
  waitpid(pid, &wstatus, 0);
  addr = (*space)->Fix(Page(20), false);
  EXPECT_TRUE(addr.ok()) << addr.status().ToString();
}

TEST_F(SharedCacheTest, CrashCleanupReleasesDeadProcessState) {
  auto cache = SharedCache::Create(shm_name_, SmallGeo());
  ASSERT_TRUE(cache.ok());

  int ready_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FilePageStore store(store_path_);
    auto attached = SharedCache::Attach(shm_name_);
    if (!attached.ok()) _exit(2);
    auto space = SharedPageSpace::Open(std::move(*attached), &store);
    if (!space.ok()) _exit(2);
    auto addr = (*space)->Fix(Page(3), false);
    if (!addr.ok()) _exit(2);
    if (!(*space)->LatchPage(Page(3)).ok()) _exit(2);
    if (write(ready_pipe[1], "r", 1) != 1) _exit(2);
    // Die without releasing anything (simulated crash; no destructors).
    _exit(0);
  }
  char r;
  ASSERT_EQ(read(ready_pipe[0], &r, 1), 1);
  int wstatus;
  waitpid(pid, &wstatus, 0);

  FilePageStore store(store_path_);
  // Attaching runs cleanup: the dead process's binding and latch go away.
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  ASSERT_TRUE(space.ok());
  SharedCache* c = (*space)->cache();
  SmtEntry* entry = c->FindEntry(Page(3).Pack());
  ASSERT_NE(entry, nullptr);
  const uint32_t slot = entry->slot.load();
  ASSERT_NE(slot, kNoFrame);
  EXPECT_EQ(c->slot(slot)->pins.load(), 0u);
  EXPECT_FALSE(c->slot(slot)->latch.is_locked());
}

}  // namespace
}  // namespace bess
