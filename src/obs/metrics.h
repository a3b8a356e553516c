// Observability: a lock-free metrics registry (paper-evaluation substrate).
//
// The paper argues its design choices win "by rough factors" but prints no
// numbers; every bench in this repo regenerates one of those claims, and the
// counters here are the currency those regenerated claims are paid in.
//
// Design constraints, in order:
//   1. Shared-memory compatible. All mutable state lives in one flat block
//      of plain `std::atomic<uint64_t>` cells behind a POD header, so the
//      same code runs over private memory, a MAP_SHARED|MAP_ANONYMOUS
//      mapping (the process-default registry — forked workers inherit the
//      mapping and their counts aggregate into the parent's block), or a
//      POSIX shm object shared by the node-cache processes of §4.1.2.
//   2. Lock-free hot path. Increment/record is a relaxed fetch_add on a
//      pre-resolved cell pointer; name resolution happens once per call
//      site (static-local handle in the BESS_COUNT/BESS_HIST macros) and is
//      the only place a (shared-memory) spinlock is taken.
//   3. Disarmable. With BESS_METRICS_ENABLED=0 (CMake -DBESS_METRICS=OFF)
//      every handle operation and every macro compiles to nothing.
//
// Metric naming follows `module.noun.verb` (see DESIGN.md §6), e.g.
// `cache.hit`, `vm.fault.detect`, `wal.fsync` (a latency histogram whose
// snapshot expands to wal.fsync.count / .p50 / .p95 / .p99).
//
// Histograms are power-of-two bucketed: bucket 0 counts zeros, bucket i
// (i >= 1) counts values in [2^(i-1), 2^i). Quantiles are extracted from
// the bucket counts with linear interpolation inside the winning bucket —
// a p99 is therefore exact to within a factor of 2, which is enough to
// compare operation modes that differ "by rough factors".
#ifndef BESS_OBS_METRICS_H_
#define BESS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>

#include "util/status.h"

// CMake option BESS_METRICS=OFF defines BESS_METRICS_ENABLED=0.
#ifndef BESS_METRICS_ENABLED
#define BESS_METRICS_ENABLED 1
#endif

namespace bess {
namespace obs {

using Cell = std::atomic<uint64_t>;
static_assert(sizeof(Cell) == 8, "cells must be plain 64-bit words");

enum class MetricKind : uint8_t { kCounter = 1, kGauge = 2, kHistogram = 3 };

inline constexpr uint32_t kHistBuckets = 64;
/// Cells of one histogram: [0] count, [1] sum, [2..2+kHistBuckets) buckets.
inline constexpr uint32_t kHistCells = 2 + kHistBuckets;

/// Bucket index of a value: 0 for 0, else 1 + floor(log2(v)), capped.
inline uint32_t HistBucketOf(uint64_t v) {
  if (v == 0) return 0;
  uint32_t b = 64 - static_cast<uint32_t>(__builtin_clzll(v));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// One registered metric, resident in the shared block. POD + atomics only.
struct MetricDef {
  static constexpr uint32_t kNameCap = 52;
  char name[kNameCap];
  std::atomic<uint32_t> state;  ///< 0 free, 1 claiming, 2 live
  uint8_t kind;
  uint8_t pad[3];
  uint32_t first_cell;
};
static_assert(sizeof(MetricDef) == 64, "one cache line per definition");

struct RegistryHeader {
  static constexpr uint32_t kMagic = 0xBE550B5Eu;
  uint32_t magic;
  uint32_t max_metrics;
  uint32_t max_cells;
  std::atomic<uint32_t> reg_lock;  ///< registration spinlock (cold path only)
  std::atomic<uint32_t> used_cells;
  std::atomic<uint32_t> live_metrics;
  uint32_t pad[2];
};
static_assert(sizeof(RegistryHeader) == 32);

// ---- Handles ----------------------------------------------------------------
// A handle is a resolved cell pointer; operations are relaxed atomics.
// Handles stay valid for the life of the registry block (cells are never
// freed or moved). A handle from a full registry points at a shared
// overflow cell: increments are safe but meaningless.

class Counter {
 public:
  Counter() = default;
  explicit Counter(Cell* c) : c_(c) {}
#if BESS_METRICS_ENABLED
  void Inc(uint64_t n = 1) { c_->fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return c_->load(std::memory_order_relaxed); }
#else
  void Inc(uint64_t = 1) {}
  uint64_t value() const { return 0; }
#endif

 private:
  Cell* c_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(Cell* c) : c_(c) {}
#if BESS_METRICS_ENABLED
  void Set(uint64_t v) { c_->store(v, std::memory_order_relaxed); }
  void Add(uint64_t n = 1) { c_->fetch_add(n, std::memory_order_relaxed); }
  void Sub(uint64_t n = 1) { c_->fetch_sub(n, std::memory_order_relaxed); }
  uint64_t value() const { return c_->load(std::memory_order_relaxed); }
#else
  void Set(uint64_t) {}
  void Add(uint64_t = 1) {}
  void Sub(uint64_t = 1) {}
  uint64_t value() const { return 0; }
#endif

 private:
  Cell* c_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(Cell* cells) : cells_(cells) {}
#if BESS_METRICS_ENABLED
  void Record(uint64_t v) {
    cells_[0].fetch_add(1, std::memory_order_relaxed);
    cells_[1].fetch_add(v, std::memory_order_relaxed);
    cells_[2 + HistBucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const { return cells_[0].load(std::memory_order_relaxed); }
  uint64_t sum() const { return cells_[1].load(std::memory_order_relaxed); }
#else
  void Record(uint64_t) {}
  uint64_t count() const { return 0; }
  uint64_t sum() const { return 0; }
#endif

 private:
  Cell* cells_ = nullptr;
};

// ---- Registry ---------------------------------------------------------------

/// A view over one metrics block: [RegistryHeader][MetricDef...][Cell...].
/// The view itself is a value (three pointers); the block is what's shared.
class Registry {
 public:
  static constexpr uint32_t kDefaultMaxMetrics = 512;
  static constexpr uint32_t kDefaultMaxCells = 16384;

  Registry() = default;

  /// Bytes a block with this geometry occupies.
  static size_t BytesFor(uint32_t max_metrics, uint32_t max_cells);

  /// Formats a registry over `mem` (which must hold BytesFor(...) bytes and
  /// should be zeroed). If `mem` already carries a live registry (magic
  /// matches), attaches to it instead — create-or-attach is what the
  /// shared-memory mode wants.
  static Result<Registry> Create(void* mem, size_t bytes, uint32_t max_metrics,
                                 uint32_t max_cells);

  /// Attaches to an existing block (InvalidArgument when the magic is absent).
  static Result<Registry> Attach(void* mem, size_t bytes);

  /// The process-default registry. Backed by a MAP_SHARED|MAP_ANONYMOUS
  /// mapping, so worker processes forked after first use share the block and
  /// their counts aggregate here (bench_modes relies on this).
  static Registry& Default();

  bool valid() const { return header_ != nullptr; }

  /// Finds or registers a metric and returns its handle. O(live metrics)
  /// on first resolution; call sites cache the handle (see macros below).
  Counter counter(std::string_view name) {
    return Counter(CellsFor(name, MetricKind::kCounter, 1));
  }
  Gauge gauge(std::string_view name) {
    return Gauge(CellsFor(name, MetricKind::kGauge, 1));
  }
  Histogram histogram(std::string_view name) {
    return Histogram(CellsFor(name, MetricKind::kHistogram, kHistCells));
  }
  /// The raw cell of a counter or gauge (what an instance scope mirrors
  /// into; see obs/scope.h).
  Cell* cell(std::string_view name, MetricKind kind) {
    return CellsFor(name, kind, 1);
  }

  /// Visits every live metric. `cells` has 1 cell for counters/gauges and
  /// kHistCells for histograms. Reads are relaxed; a snapshot taken during
  /// concurrent updates is per-cell consistent, not cross-cell.
  void ForEach(const std::function<void(std::string_view name, MetricKind kind,
                                        const Cell* cells)>& fn) const;

  /// Zeroes every cell (tests and bench warm-up). Names stay registered.
  void ResetCells();

  const RegistryHeader* header() const { return header_; }

 private:
  Registry(RegistryHeader* h, MetricDef* d, Cell* c)
      : header_(h), defs_(d), cells_(c) {}

  Cell* CellsFor(std::string_view name, MetricKind kind, uint32_t cell_count);

  RegistryHeader* header_ = nullptr;
  MetricDef* defs_ = nullptr;
  Cell* cells_ = nullptr;
};

}  // namespace obs
}  // namespace bess

// ---- Call-site macros -------------------------------------------------------
// Resolve the metric once (thread-safe static local), then hit the cell.
// Usable from the fault path: after first resolution the cost is one
// relaxed fetch_add and no locks.

#define BESS_OBS_CONCAT_IMPL_(a, b) a##b
#define BESS_OBS_CONCAT_(a, b) BESS_OBS_CONCAT_IMPL_(a, b)

#if BESS_METRICS_ENABLED
#define BESS_COUNT_N(name, n)                                   \
  do {                                                          \
    static ::bess::obs::Counter BESS_OBS_CONCAT_(_bess_c_,      \
                                                 __LINE__) =    \
        ::bess::obs::Registry::Default().counter(name);         \
    BESS_OBS_CONCAT_(_bess_c_, __LINE__).Inc(n);                \
  } while (0)
#define BESS_COUNT(name) BESS_COUNT_N(name, 1)

#define BESS_GAUGE_ADD(name, n)                                 \
  do {                                                          \
    static ::bess::obs::Gauge BESS_OBS_CONCAT_(_bess_g_,        \
                                               __LINE__) =      \
        ::bess::obs::Registry::Default().gauge(name);           \
    BESS_OBS_CONCAT_(_bess_g_, __LINE__).Add(n);                \
  } while (0)
#define BESS_GAUGE_SUB(name, n)                                 \
  do {                                                          \
    static ::bess::obs::Gauge BESS_OBS_CONCAT_(_bess_g_,        \
                                               __LINE__) =      \
        ::bess::obs::Registry::Default().gauge(name);           \
    BESS_OBS_CONCAT_(_bess_g_, __LINE__).Sub(n);                \
  } while (0)

#define BESS_HIST(name, v)                                      \
  do {                                                          \
    static ::bess::obs::Histogram BESS_OBS_CONCAT_(_bess_h_,    \
                                                   __LINE__) =  \
        ::bess::obs::Registry::Default().histogram(name);       \
    BESS_OBS_CONCAT_(_bess_h_, __LINE__).Record(v);             \
  } while (0)
#else
#define BESS_COUNT_N(name, n) \
  do {                        \
  } while (0)
#define BESS_COUNT(name) \
  do {                   \
  } while (0)
#define BESS_GAUGE_ADD(name, n) \
  do {                          \
  } while (0)
#define BESS_GAUGE_SUB(name, n) \
  do {                          \
  } while (0)
#define BESS_HIST(name, v) \
  do {                     \
  } while (0)
#endif

#endif  // BESS_OBS_METRICS_H_
