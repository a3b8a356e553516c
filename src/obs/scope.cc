#include "obs/scope.h"

#include <mutex>
#include <string>

namespace bess {
namespace obs {
namespace {

/// The interned names. Entries below `count` are immutable once published
/// (release store of count), so snapshots read them without the mutex.
struct NameTable {
  std::mutex mu;
  std::atomic<uint32_t> count{0};
  std::array<std::string, kMaxScopeNames - 1> names;
  std::array<MetricKind, kMaxScopeNames - 1> kinds{};
};

NameTable& Names() {
  static NameTable table;
  return table;
}

uint32_t Intern(std::string_view name, MetricKind kind) {
  NameTable& t = Names();
  std::lock_guard<std::mutex> guard(t.mu);
  const uint32_t n = t.count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < n; ++i) {
    if (t.names[i] == name) return i;
  }
  if (n == t.names.size()) return kMaxScopeNames - 1;  // overflow cell
  t.names[n] = std::string(name);
  t.kinds[n] = kind;
  t.count.store(n + 1, std::memory_order_release);
  return n;
}

}  // namespace

ScopeName::ScopeName(std::string_view name, MetricKind kind)
    : id_(Intern(name, kind))
#if BESS_METRICS_ENABLED
      ,
      process_(Registry::Default().cell(name, kind))
#endif
{
}

Stats Scope::Snapshot() const {
  const NameTable& t = Names();
  const uint32_t n = t.count.load(std::memory_order_acquire);
  Stats out;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t v = cells_[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    (t.kinds[i] == MetricKind::kGauge ? out.gauges : out.counters)[t.names[i]] =
        v;
  }
  return out;
}

}  // namespace obs
}  // namespace bess
