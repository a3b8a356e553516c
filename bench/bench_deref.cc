// E1 (paper §2.1, §5): pointer dereference cost.
//
// BeSS: references are swizzled virtual-memory pointers to object headers —
// a dereference is two pointer chases (slot, then DP). EOS baseline: every
// dereference is an OID hash-table lookup. Software swizzling baseline:
// an eager conversion pass, then raw pointer chases.
//
// Expectation (paper): BeSS ~ software-swizzled speed on hot traversals
// without paying the eager conversion on everything fetched; OID lookup is
// several times slower per hop.
#include "baseline/oid_store.h"
#include "workload.h"

using namespace bessbench;

int main() {
  TempDir dir("deref");
  Database::Options o;
  o.dir = dir.path();
  o.create = true;
  o.outbound_capacity = 480;  // dense random graph references many segments
  auto dbr = Database::Open(o);
  if (!dbr.ok()) {
    fprintf(stderr, "open: %s\n", dbr.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*dbr);
  auto part_type = db->RegisterType(PartType());
  auto file = db->CreateFile("parts");
  if (!part_type.ok() || !file.ok()) return 1;

  const int kParts = 20000;
  const int kHops = 2000000;
  GraphOptions gopt;
  gopt.parts = kParts;

  auto txn = db->Begin();
  auto parts = BuildGraph(db.get(), *file, *part_type, gopt);
  if (!parts.ok()) {
    fprintf(stderr, "graph: %s\n", parts.status().ToString().c_str());
    return 1;
  }
  Status commit = db->Commit(*txn);
  if (!commit.ok()) {
    fprintf(stderr, "commit: %s\n", commit.ToString().c_str());
    return 1;
  }

  PrintHeader("E1: dereference cost (hot traversal)",
              "scheme                     ns/hop   relative");

  // --- BeSS: swizzled header pointers (graph already mapped). -----------------
  volatile uint64_t sink = 0;
  double bess_s = TimeIt([&] { sink += Traverse((*parts)[0], kHops); });
  const double bess_ns = bess_s / kHops * 1e9;

  // --- EOS baseline: OID hash lookup per hop. ---------------------------------
  OidStore oid_store;
  std::vector<OidStore::ObjectId> ids(kParts);
  for (int i = 0; i < kParts; ++i) ids[i] = oid_store.Create(sizeof(Part));
  {
    Random rng(gopt.seed);
    for (int i = 0; i < kParts; ++i) {
      Part* p = static_cast<Part*>(oid_store.Deref(ids[i]));
      p->id = static_cast<uint64_t>(i);
      for (int e = 0; e < 3; ++e) {
        int target;
        if (i > 0 && rng.Bernoulli(gopt.locality)) {
          target = static_cast<int>(rng.Uniform(std::min(i, 200))) +
                   std::max(0, i - 200);
        } else {
          target = static_cast<int>(rng.Uniform(kParts));
        }
        p->to[e] = ids[static_cast<size_t>(target)];
      }
    }
  }
  double oid_s = TimeIt([&] {
    Random rng(7);
    uint64_t sum = 0;
    OidStore::ObjectId cur = ids[0];
    for (int i = 0; i < kHops; ++i) {
      const Part* p = static_cast<const Part*>(oid_store.Deref(cur));
      sum += p->id;
      cur = p->to[rng.Next() % 3];  // deref does the hash lookup
      if (cur == 0) cur = ids[0];
    }
    sink += sum;
  });
  const double oid_ns = oid_s / kHops * 1e9;

  // --- Software swizzling: eager conversion, then raw chase. ------------------
  SwizzlingStore sw;
  std::vector<SwizzlingStore::ObjectId> sids(kParts);
  for (int i = 0; i < kParts; ++i) sids[i] = sw.Create(sizeof(Part));
  {
    Random rng(gopt.seed);
    for (int i = 0; i < kParts; ++i) {
      Part* p = static_cast<Part*>(sw.Raw(sids[i]));
      p->id = static_cast<uint64_t>(i);
      for (int e = 0; e < 3; ++e) {
        int target;
        if (i > 0 && rng.Bernoulli(gopt.locality)) {
          target = static_cast<int>(rng.Uniform(std::min(i, 200))) +
                   std::max(0, i - 200);
        } else {
          target = static_cast<int>(rng.Uniform(kParts));
        }
        p->to[e] = SwizzlingStore::PackRef(sids[static_cast<size_t>(target)]);
      }
    }
  }
  double convert_s =
      TimeIt([&] { sink += sw.SwizzleAll({0, 8, 16}); });
  double sw_s = TimeIt([&] {
    Random rng(7);
    uint64_t sum = 0;
    const Part* p = static_cast<const Part*>(sw.Raw(sids[0]));
    for (int i = 0; i < kHops; ++i) {
      sum += p->id;
      uint64_t next = p->to[rng.Next() % 3];
      if (next == 0) next = reinterpret_cast<uint64_t>(sw.Raw(sids[0]));
      p = reinterpret_cast<const Part*>(next);
    }
    sink += sum;
  });
  const double sw_ns = sw_s / kHops * 1e9;

  printf("bess (header pointers)    %7.2f   %5.2fx\n", bess_ns, 1.0);
  printf("oid hash lookup (EOS)     %7.2f   %5.2fx\n", oid_ns,
         oid_ns / bess_ns);
  printf("software swizzled chase   %7.2f   %5.2fx  (+%.1f ms one-time "
         "conversion of %d objects)\n",
         sw_ns, sw_ns / bess_ns, convert_s * 1e3, kParts);

  // --- Cold traversal: faults included (three-wave cost). ---------------------
  PrintHeader("E1b: cold traversal (fault-in included)",
              "scheme                     total ms   slotted/data faults");
  (void)db->mapper()->Reset();
  auto s0 = db->mapper()->stats();
  auto root = db->GetRoot("bench_root");
  if (!root.ok()) return 1;
  double cold_s = TimeIt([&] { sink += Traverse(*root, kHops / 10); });
  auto s1 = db->mapper()->stats();
  printf("bess cold                 %8.2f   %llu / %llu\n", cold_s * 1e3,
         static_cast<unsigned long long>(s1.counter("vm.fault.slotted") -
                                         s0.counter("vm.fault.slotted")),
         static_cast<unsigned long long>(s1.counter("vm.fault.data") -
                                         s0.counter("vm.fault.data")));
  double warm_again = TimeIt([&] { sink += Traverse(*root, kHops / 10); });
  printf("bess warm (same hops)     %8.2f   0 / 0\n", warm_again * 1e3);

  // A short update transaction: pages are clean after the earlier commit,
  // so the first store per page goes through hardware write detection
  // (§2.3) — the sidecar's vm.fault.detect series comes from here.
  auto utxn = db->Begin();
  if (utxn.ok()) {
    Slot* cur = *root;
    for (int i = 0; i < 200 && cur != nullptr; ++i) {
      Part* p = reinterpret_cast<Part*>(cur->dp);
      p->payload[0]++;
      cur = reinterpret_cast<Slot*>(p->to[0]);
    }
    (void)db->Commit(*utxn);
  }

  (void)sink;
  WriteMetricsSidecar("bench_deref");
  return 0;
}
