// OCB/OO7-style workload generator of the end-to-end benchmark.
//
// The generator owns a *shadow* of every part graph it loads: the edges and
// ids as plain arrays, never read back from the store. Traversals run twice
// — once over the shadow (the reference checksum and the path) and once
// over the real mapped objects through the system under test — and must
// agree. Only the generated objects and operations reach the program.
//
// Knobs follow He & Darmont's generator (fan-out, reference locality,
// hot-set skew, traversal depth, read/write mix); the part layout is the
// repository's OO7-flavoured `Part` (bench/workload.h): three references,
// an id and a 32-byte payload whose first word the update transactions
// count up.
#ifndef BESS_E2E_BENCH_GRAPH_H_
#define BESS_E2E_BENCH_GRAPH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "bess/bess.h"
#include "util/random.h"
#include "workload.h"

namespace e2e {

using bessbench::Part;

struct GraphSpec {
  uint32_t parts = 10000;
  uint64_t first_id = 0;  ///< ids are first_id + index, unique per process
  uint64_t seed = 1;
};

/// The generator's private copy of one part graph.
struct ShadowGraph {
  uint64_t first_id = 0;
  std::vector<std::array<uint32_t, 3>> to;  ///< edges by part index
  uint32_t size() const { return static_cast<uint32_t>(to.size()); }
};

/// Each part gets three references; 70% point at one of the 200 parts
/// created just before it (clustering, as in OO7's assemblies), the rest
/// anywhere in the graph.
ShadowGraph Generate(const GraphSpec& spec);

/// Start-point chooser with a hot set: with probability `hot_prob` a start
/// is drawn from `hot` (a seeded sample of `hot_fraction` of the parts),
/// otherwise uniformly from all parts.
class StartPicker {
 public:
  StartPicker(uint32_t parts, double hot_fraction, double hot_prob,
              uint64_t seed);
  uint32_t Pick(bess::Random& rng) const;
  const std::vector<uint32_t>& hot() const { return hot_; }

 private:
  uint32_t parts_;
  double hot_prob_;
  std::vector<uint32_t> hot_;
};

/// Order-sensitive checksum step over visited part ids.
inline uint64_t Mix(uint64_t sum, uint64_t id) {
  return (sum ^ id) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

/// Walks `hops` references from `start` over the shadow, choosing each edge
/// with `rng`; appends the visited indices (start included) to `path`.
uint64_t ShadowTraverse(const ShadowGraph& g, uint32_t start, int hops,
                        uint64_t walk_seed, std::vector<uint32_t>* path);

/// The same walk over mapped objects through typed references: each hop
/// dereferences a swizzled `ref<Part>`, faulting, fetching and locking on
/// demand; appends the visited parts to `path`.
uint64_t Traverse(bess::ref<Part> start, int hops, uint64_t walk_seed,
                  std::vector<Part*>* path);

/// Creates the graph's parts in `file` (inside the caller's transaction),
/// wires their references and returns their slots by index.
bess::Result<std::vector<bess::Slot*>> Load(bess::Database* db, uint16_t file,
                                            bess::TypeIdx type,
                                            const ShadowGraph& g);

inline Part* AsPart(bess::Slot* s) { return bess::ref<Part>(s).get(); }

}  // namespace e2e

#endif  // BESS_E2E_BENCH_GRAPH_H_
