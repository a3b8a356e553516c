// E5 (paper §2.3): update detection — hardware (page protection) vs the
// software approach (explicit dirty calls) vs the conservative-compiler
// model.
//
// Hardware detection costs one fault per page per transaction, regardless
// of how many stores land on the page; the software approach costs one
// function call per *update site* and loses updates when a call is
// forgotten; the conservative model (a compiler that cannot see whether a
// callee writes) over-locks: every object passed by pointer is X-locked.
#include "workload.h"

using namespace bessbench;

int main() {
  TempDir dir("detect");
  Database::Options o;
  o.dir = dir.path();
  o.create = true;
  o.outbound_capacity = 480;
  auto dbr = Database::Open(o);
  if (!dbr.ok()) return 1;
  auto db = std::move(*dbr);
  auto part_type = db->RegisterType(PartType());
  auto file = db->CreateFile("parts");

  GraphOptions gopt;
  gopt.parts = 20000;
  auto txn0 = db->Begin();
  auto parts = BuildGraph(db.get(), *file, *part_type, gopt);
  if (!parts.ok()) return 1;
  if (!db->Commit(*txn0).ok()) return 1;

  PrintHeader("E5: update detection (§2.3)",
              "mode                        writes   faults   locks   ms");

  // Sweep write fractions: touch N parts, update a fraction of them.
  for (double write_frac : {0.01, 0.1, 0.5, 1.0}) {
    const int kTouch = 5000;
    Random rng(9);

    // --- Hardware: stores fault once per page; read-only touches free. ------
    {
      auto txn = db->Begin();
      auto f0 = db->mapper()->stats().counter("vm.fault.detect");
      auto l0 = db->locks()->stats().counter("txn.lock.acquire");
      int writes = 0;
      double secs = TimeIt([&] {
        for (int i = 0; i < kTouch; ++i) {
          Part* p = reinterpret_cast<Part*>(
              (*parts)[rng.Uniform(parts->size())]->dp);
          if (rng.Bernoulli(write_frac)) {
            p->payload[0]++;
            ++writes;
          } else {
            volatile uint64_t v = p->payload[0];
            (void)v;
          }
        }
      });
      auto f1 = db->mapper()->stats().counter("vm.fault.detect");
      auto l1 = db->locks()->stats().counter("txn.lock.acquire");
      (void)db->Commit(*txn);
      printf("hardware   (frac=%4.2f)     %6d   %6llu  %6llu  %6.1f\n",
             write_frac, writes, (unsigned long long)(f1 - f0),
             (unsigned long long)(l1 - l0), secs * 1e3);
    }

    // --- Software: explicit MarkDirty per update site. -----------------------
    {
      Database::Options o2 = o;
      o2.dir = dir.Sub("sw");
      o2.create = !File::Exists(o2.dir + "/area_0.bess");
      o2.mapper.detect_writes = false;
      static std::unique_ptr<Database> sw_db;
      static std::vector<Slot*> sw_parts;
      if (sw_db == nullptr) {
        auto r = Database::Open(o2);
        if (!r.ok()) return 1;
        sw_db = std::move(*r);
        auto tp = sw_db->RegisterType(PartType());
        auto f = sw_db->CreateFile("parts");
        auto t = sw_db->Begin();
        auto ps = BuildGraph(sw_db.get(), *f, *tp, gopt);
        if (!ps.ok()) return 1;
        sw_parts = *ps;
        if (!sw_db->Commit(*t).ok()) return 1;
      }
      auto txn = sw_db->Begin();
      Random rng2(9);
      int writes = 0;
      auto l0 = sw_db->locks()->stats().counter("txn.lock.acquire");
      double secs = TimeIt([&] {
        for (int i = 0; i < kTouch; ++i) {
          Slot* s = sw_parts[rng2.Uniform(sw_parts.size())];
          Part* p = reinterpret_cast<Part*>(s->dp);
          if (rng2.Bernoulli(write_frac)) {
            // The programmer must remember this call before every update —
            // "cumbersome and error prone" (§2.3).
            (void)sw_db->mapper()->MarkDirty(p, sizeof(Part));
            p->payload[0]++;
            ++writes;
          } else {
            volatile uint64_t v = p->payload[0];
            (void)v;
          }
        }
      });
      auto l1 = sw_db->locks()->stats().counter("txn.lock.acquire");
      (void)sw_db->Commit(*txn);
      printf("software   (frac=%4.2f)     %6d        0  %6llu  %6.1f\n",
             write_frac, writes, (unsigned long long)(l1 - l0), secs * 1e3);

      // --- Conservative compiler: every touched object X-locked. ------------
      auto txn2 = sw_db->Begin();
      Random rng3(9);
      auto c0 = sw_db->locks()->stats().counter("txn.lock.acquire");
      double csecs = TimeIt([&] {
        for (int i = 0; i < kTouch; ++i) {
          Slot* s = sw_parts[rng3.Uniform(sw_parts.size())];
          Part* p = reinterpret_cast<Part*>(s->dp);
          // The compiler cannot tell whether the callee writes: it must
          // conservatively request exclusive access for every access.
          (void)sw_db->mapper()->MarkDirty(p, sizeof(Part));
          if (rng3.Bernoulli(write_frac)) p->payload[0]++;
          else {
            volatile uint64_t v = p->payload[0];
            (void)v;
          }
        }
      });
      auto c1 = sw_db->locks()->stats().counter("txn.lock.acquire");
      (void)sw_db->Commit(*txn2);
      printf("conservative (frac=%4.2f)   %6d        0  %6llu  %6.1f\n",
             write_frac, kTouch, (unsigned long long)(c1 - c0), csecs * 1e3);
    }
  }
  printf("\nExpectation: hardware detection's fault count tracks touched\n"
         "pages (not stores) and read-mostly work costs nothing; the\n"
         "conservative software model locks an order of magnitude more.\n");
  WriteMetricsSidecar("bench_detect");
  return 0;
}
