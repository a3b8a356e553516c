// Shared pieces of the batched async page pipeline (DESIGN.md §13): the
// completion record, the stats block, the "aio.*" fault classification and
// the completion mailbox that cache/async_page_io.h's worker pool delivers
// through.
//
// The pool is driven through the fault-injection layer via three points,
// applied per request at service time:
//
//   "aio.read" / "aio.write"  EvaluateIo per request. kFail => the request
//       completes with that error. kShortWrite/kTornPage (bytes_allowed < n)
//       => the backend behaves as if the device returned a short count: it
//       loops to complete (counted in stats().short_fixups) and the caller
//       sees a full-length success. kNoSpace fails the request outright.
//   "aio.reorder"  plain Check per completion. A fired schedule defers that
//       completion until after the next one is delivered (or until the queue
//       drains), simulating out-of-order completions deterministically.
//
// Completion delivery is pull-based: callers Reap() into a small array.
// Every accepted request produces exactly one completion, including after
// Shutdown() (which drains). user_data is the caller's correlation token and
// is returned verbatim.
#ifndef BESS_OS_ASYNC_IO_H_
#define BESS_OS_ASYNC_IO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "os/fault_injection.h"
#include "util/status.h"

namespace bess {
namespace aio {

struct AioCompletion {
  uint64_t user_data = 0;
  Status status;
  size_t bytes = 0;  ///< bytes moved (== len on success)
};

/// Classifies an armed "aio.read"/"aio.write" EvaluateIo outcome for a
/// request of `len` bytes. Returns true when the request must fail outright
/// with *error. Otherwise *first_cap is the byte count the emulated device
/// moves first — < len means an injected short completion the backend must
/// loop whole (kShortWrite/kTornPage schedules; kNoSpace always fails).
bool AioFaultFails(const fault::FaultOutcome& out, size_t len, Status* error,
                   size_t* first_cap);

struct AioStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  uint64_t short_fixups = 0;  ///< injected short counts looped whole
  uint64_t reorders = 0;      ///< completions deferred by "aio.reorder"
  uint64_t max_inflight = 0;
  uint64_t io_busy_ns = 0;  ///< wall time workers spend in transfers — the
                            ///< overlap numerator for bench_scan
  uint64_t read_runs = 0;   ///< device read ops after request coalescing
                            ///< (queued reads for consecutive keys ride one
                            ///< FetchRun)
  uint64_t write_runs = 0;  ///< device write ops after request coalescing
                            ///< (queued writes for consecutive keys ride one
                            ///< WriteRun — bgwriter batches sort by key to
                            ///< line these up)
};

/// Completion mailbox. Applies the "aio.reorder" schedule on delivery; Reap
/// flushes deferred completions on timeout or when the backend reports the
/// queue drained, so a reordered completion can be late but never lost.
class CompletionMailbox {
 public:
  void Deliver(AioCompletion c, bool last_inflight);
  uint32_t Reap(AioCompletion* out, uint32_t max, uint32_t timeout_ms);
  uint64_t reorders() const {
    return reorders_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<AioCompletion> ready_;
  std::deque<AioCompletion> deferred_;
  std::atomic<uint64_t> reorders_{0};
};

}  // namespace aio
}  // namespace bess

#endif  // BESS_OS_ASYNC_IO_H_
