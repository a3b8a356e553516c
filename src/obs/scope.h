// Per-instance metric scopes: one count per event.
//
// A Scope is a small block of counter and gauge cells owned by one object
// (a frame table, a mapper, a client, a server, a lock manager). A counting
// site names its event once:
//
//   BESS_COUNT_IN(scope_, "cache.hit");
//
// which bumps the instance's cell *and* the process registry cell of the
// same name. Every site of a scoped name counts through a scope, so the
// process registry is by construction the sum of the instance scopes
// (scripts/check_metrics_contract.sh rejects a scoped name that is also
// counted process-only). An object's stats() accessor is its scope's
// Snapshot(), read by registry name: `stats().counter("cache.hit")`.
//
// Cost: the name resolves once per call site into a static ScopeName (a
// dense process-wide id plus the registry cell); an increment is a relaxed
// fetch_add on the instance cell and one on the registry cell — no lookup,
// no lock.
// Memory: a scope holds one cell per name the program counts through
// scopes (kMaxScopeNames, 1 KB) — never a registry block.
// Metrics-off: instance cells count in every build; with
// BESS_METRICS_ENABLED=0 only the registry mirror compiles out.
#ifndef BESS_OBS_SCOPE_H_
#define BESS_OBS_SCOPE_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/stats.h"

namespace bess {
namespace obs {

/// Distinct names counted through scopes, process-wide. The last id is an
/// overflow cell that snapshots skip.
inline constexpr uint32_t kMaxScopeNames = 128;

/// One interned scope name. Construct it once per call site (the macros
/// below keep it in a static local); interning is thread-safe and maps the
/// same name from every site to the same id.
class ScopeName {
 public:
  ScopeName(std::string_view name, MetricKind kind);

 private:
  friend class Scope;
  uint32_t id_;
#if BESS_METRICS_ENABLED
  Cell* process_;
#endif
};

class Scope {
 public:
  Scope() = default;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Add(const ScopeName& n, uint64_t v) {
    cells_[n.id_].fetch_add(v, std::memory_order_relaxed);
#if BESS_METRICS_ENABLED
    n.process_->fetch_add(v, std::memory_order_relaxed);
#endif
  }
  /// Gauges only: a level that goes down as well as up.
  void Sub(const ScopeName& n, uint64_t v) {
    cells_[n.id_].fetch_sub(v, std::memory_order_relaxed);
#if BESS_METRICS_ENABLED
    n.process_->fetch_sub(v, std::memory_order_relaxed);
#endif
  }

  /// This instance's nonzero counters and gauges by registry name (an
  /// absent name reads as 0 through Stats::counter).
  Stats Snapshot() const;

 private:
  std::array<Cell, kMaxScopeNames> cells_{};
};

}  // namespace obs
}  // namespace bess

// ---- Call-site macros -------------------------------------------------------
// `scope` is an obs::Scope lvalue. Live with metrics compiled out.

#define BESS_SCOPE_OP_(scope, name, kind, op, n)                         \
  do {                                                                   \
    static const ::bess::obs::ScopeName BESS_OBS_CONCAT_(_bess_sn_,      \
                                                         __LINE__)(      \
        name, ::bess::obs::MetricKind::kind);                            \
    (scope).op(BESS_OBS_CONCAT_(_bess_sn_, __LINE__), n);                \
  } while (0)

#define BESS_COUNT_N_IN(scope, name, n) \
  BESS_SCOPE_OP_(scope, name, kCounter, Add, n)
#define BESS_COUNT_IN(scope, name) BESS_COUNT_N_IN(scope, name, 1)
#define BESS_GAUGE_ADD_IN(scope, name, n) \
  BESS_SCOPE_OP_(scope, name, kGauge, Add, n)
#define BESS_GAUGE_SUB_IN(scope, name, n) \
  BESS_SCOPE_OP_(scope, name, kGauge, Sub, n)

#endif  // BESS_OBS_SCOPE_H_
