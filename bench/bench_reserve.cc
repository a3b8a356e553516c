// E2 (paper §2.1): address-space reservation — lazy (BeSS) vs greedy
// (ObjectStore/Texas/QuickStore-style, refs [19, 30, 34]).
//
// "Memory address space is reserved in a less greedy fashion ... virtual
// address space for data segments is reserved only when the corresponding
// slotted segments are actually accessed."
//
// We build a wide graph, then touch only a fraction of it and report how
// much address space each policy reserved, how much memory was committed,
// and how many segments were fetched.
#include "workload.h"

using namespace bessbench;

namespace {

struct RunResult {
  uint64_t reserved_mb;
  uint64_t committed_mb;
  uint64_t slotted_faults;
  double seconds;
};

RunResult Run(bool greedy, const std::string& dir, int touch_hops) {
  Database::Options o;
  o.dir = dir;
  o.create = false;
  o.mapper.greedy = greedy;
  auto db = Database::Open(o);
  if (!db.ok()) {
    fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    exit(1);
  }
  auto root = (*db)->GetRoot("bench_root");
  if (!root.ok()) exit(1);
  volatile uint64_t sink = 0;
  const double secs = TimeIt([&] { sink += Traverse(*root, touch_hops); });
  (void)sink;
  auto stats = (*db)->mapper()->stats();
  return RunResult{stats.counter("vm.reserved.bytes") >> 20,
                   stats.counter("vm.committed.bytes") >> 20,
                   stats.counter("vm.fault.slotted"), secs};
}

}  // namespace

int main() {
  TempDir dir("reserve");
  // Build once: a large, low-locality graph (many segments).
  {
    Database::Options o;
    o.dir = dir.path();
    o.create = true;
    o.outbound_capacity = 480;
    auto db = Database::Open(o);
    if (!db.ok()) return 1;
    auto part_type = (*db)->RegisterType(PartType());
    auto file = (*db)->CreateFile("parts");
    GraphOptions gopt;
    gopt.parts = 60000;
    gopt.locality = 0.3;  // traversals that touch everything reach far
    auto txn = (*db)->Begin();
    auto parts = BuildGraph(db->get(), *file, *part_type, gopt);
    if (!parts.ok()) {
      fprintf(stderr, "graph: %s\n", parts.status().ToString().c_str());
      return 1;
    }
    Status s = (*db)->Commit(*txn);
    if (!s.ok()) {
      fprintf(stderr, "commit: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  PrintHeader(
      "E2: address reservation, lazy (BeSS) vs greedy [19,30,34]",
      "policy   touched-hops   reservedMB   committedMB   slotted-fetches   "
      "ms");
  for (int hops : {100, 1000, 10000, 100000}) {
    RunResult lazy = Run(false, dir.path(), hops);
    RunResult greedy = Run(true, dir.path(), hops);
    printf("lazy     %12d   %10llu   %11llu   %15llu   %6.1f\n", hops,
           (unsigned long long)lazy.reserved_mb,
           (unsigned long long)lazy.committed_mb,
           (unsigned long long)lazy.slotted_faults, lazy.seconds * 1e3);
    printf("greedy   %12d   %10llu   %11llu   %15llu   %6.1f\n", hops,
           (unsigned long long)greedy.reserved_mb,
           (unsigned long long)greedy.committed_mb,
           (unsigned long long)greedy.slotted_faults, greedy.seconds * 1e3);
  }
  printf("\nExpectation: for sparse access (few hops) the greedy policy\n"
         "reserves and fetches far more than it uses; the gap closes only\n"
         "when the traversal really touches the whole database.\n");
  WriteMetricsSidecar("bench_reserve");
  return 0;
}
