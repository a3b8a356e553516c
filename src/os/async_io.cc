#include "os/async_io.h"

#include <chrono>

namespace bess {
namespace aio {

bool AioFaultFails(const fault::FaultOutcome& out, size_t len, Status* error,
                   size_t* first_cap) {
  *first_cap = len;
  if (out.bytes_allowed < len && !out.status.IsNoSpace()) {
    // kShortWrite/kTornPage at an aio point = short completion, recoverable.
    *first_cap = out.bytes_allowed;
    return false;
  }
  if (!out.status.ok()) {
    *error = out.status;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CompletionMailbox

void CompletionMailbox::Deliver(AioCompletion c, bool last_inflight) {
  std::lock_guard<std::mutex> lk(mu_);
  // "aio.reorder": hold this completion back until a later one passes it.
  // The engine's final in-flight completion is never deferred, and Reap
  // flushes stragglers on timeout — reordering can delay, never lose.
  if (fault::Armed() && !last_inflight) {
    Status s = fault::FaultRegistry::Instance().Evaluate("aio.reorder", "");
    if (!s.ok()) {
      deferred_.push_back(c);
      reorders_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ready_.push_back(c);
  while (!deferred_.empty()) {
    ready_.push_back(deferred_.front());
    deferred_.pop_front();
  }
  cv_.notify_all();
}

uint32_t CompletionMailbox::Reap(AioCompletion* out, uint32_t max,
                                 uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (ready_.empty() && timeout_ms > 0) {
    cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                 [&] { return !ready_.empty(); });
  }
  if (ready_.empty() && !deferred_.empty()) {
    // Nothing arrived to pass the deferred completions: deliver them now.
    while (!deferred_.empty()) {
      ready_.push_back(deferred_.front());
      deferred_.pop_front();
    }
  }
  uint32_t n = 0;
  while (n < max && !ready_.empty()) {
    out[n++] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

}  // namespace aio
}  // namespace bess
