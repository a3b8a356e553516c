// E9 (paper §4.1.2, Figure 4): the shared virtual address space machinery.
//
// Measures the building blocks that make pointers valid across processes in
// shared-memory mode: SMT assignment (fix-once), hit-path Fix cost,
// shm_ref translation vs a raw pointer, and the second-chance transition.
#include <sys/mman.h>

#include "bess/bess.h"
#include "bess/bess_internal.h"
#include "workload.h"

using namespace bessbench;

namespace {

class ZeroStore : public SegmentStore {
 public:
  Status FetchSlotted(SegmentId, void*, uint32_t*) override {
    return Status::NotSupported("");
  }
  Status FetchPages(uint16_t, uint16_t, PageId, uint32_t count,
                    void* buf) override {
    memset(buf, 0, static_cast<size_t>(count) * kPageSize);
    return Status::OK();
  }
  Status WritePages(uint16_t, uint16_t, PageId, uint32_t,
                    const void*) override {
    return Status::OK();
  }
};

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const std::string shm_name = "/bess_svma_" + std::to_string(::getpid());
  SharedCache::Geometry geo;
  geo.frame_count = 512;
  geo.vframe_count = 2048;
  geo.smt_capacity = 4096;
  auto cache = SharedCache::Create(shm_name, geo);
  if (!cache.ok()) return 1;
  ZeroStore store;
  auto space = SharedPageSpace::Open(std::move(*cache), &store);
  if (!space.ok()) return 1;

  PrintHeader("E9: shared virtual address space machinery (§4.1.2)",
              "operation                              ns/op");

  // First-fix: SMT assignment + fetch + MAP_FIXED bind (fix-once).
  const int kPages = 400;
  double first = TimeIt([&] {
    for (uint32_t p = 0; p < kPages; ++p) {
      auto addr = (*space)->Fix(PageAddr{1, 0, p}, false);
      if (!addr.ok()) exit(1);
    }
  });
  printf("first fix (SMT assign + fetch + bind)  %8.0f\n",
         first / kPages * 1e9);

  // Hit-path fix: already accessible.
  const int kHits = 200000;
  double hits = TimeIt([&] {
    Random rng(1);
    for (int i = 0; i < kHits; ++i) {
      auto addr = (*space)->Fix(
          PageAddr{1, 0, static_cast<PageId>(rng.Uniform(kPages))}, false);
      if (!addr.ok()) exit(1);
    }
  });
  printf("fix, page accessible (hit)             %8.1f\n",
         hits / kHits * 1e9);

  // shm_ref translation vs raw pointer chase.
  auto a0 = (*space)->Fix(PageAddr{1, 0, 0}, true);
  if (!a0.ok()) return 1;
  SharedPageSpace* sp = space->get();
  auto sref = shm_ref<uint64_t>::FromPointer(sp, static_cast<uint64_t*>(*a0));
  if (!sref.ok()) return 1;
  const int kDerefs = 5000000;
  volatile uint64_t sink = 0;
  double translated = TimeIt([&] {
    for (int i = 0; i < kDerefs; ++i) {
      sink += *sref->get(sp);
    }
  });
  uint64_t* raw = static_cast<uint64_t*>(*a0);
  double raw_time = TimeIt([&] {
    for (int i = 0; i < kDerefs; ++i) {
      sink += *raw;
    }
  });
  printf("shm_ref translate + deref              %8.2f\n",
         translated / kDerefs * 1e9);
  printf("raw pointer deref                      %8.2f\n",
         raw_time / kDerefs * 1e9);

  // Second chance: protected frame re-enabled via a single mprotect.
  if (!(*space)->RunClockLevel1().ok()) return 1;  // all accessible->protected
  const auto before = (*space)->stats().counter("cache.second_chance");
  double second = TimeIt([&] {
    for (uint32_t p = 0; p < kPages; ++p) {
      auto addr = (*space)->Fix(PageAddr{1, 0, p}, false);
      if (!addr.ok()) exit(1);
    }
  });
  const auto taken = (*space)->stats().counter("cache.second_chance") - before;
  printf("second chance (protected -> accessible) %7.0f   (%llu taken)\n",
         second / kPages * 1e9, (unsigned long long)taken);

  printf("\nExpectation: after the one-time fix, shared-mode access costs\n"
         "one addition over a raw pointer (the PVMA base); the clock's\n"
         "second chance is a single mprotect, far cheaper than a refetch.\n");
  ::shm_unlink(shm_name.c_str());
  (void)sink;
  WriteMetricsSidecar("bench_svma");
  return 0;
}
