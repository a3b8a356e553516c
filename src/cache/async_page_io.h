// AsyncPageIo: the batched page-granular side of the push pipeline
// (DESIGN.md §13), sitting between the FrameTable and a synchronous
// FrameTable::PageIo (SegmentStore, RPC, in-memory test store).
//
// Callers submit vectors of whole-page reads/writes keyed by packed
// PageAddr and reap completions; `user_data` is the caller's correlation
// token (the frame table uses the frame index). A pool of worker threads
// services the queue. Queued requests of the same kind for consecutive keys
// ride one FetchRun / WriteRun (block-layer style request merging, counted
// in AioStats::read_runs / write_runs), so the integrity envelope the
// synchronous backend applies — CRC/LSN trailer verification on reads,
// trailer stamping on writes over StorageArea — is the one the async path
// gets too. The pool inherits that backend's fault points and additionally
// applies the "aio.read"/"aio.write"/"aio.reorder" schedules (os/async_io.h)
// so the async fault matrix runs without real files.
//
// Contract: every accepted request produces exactly one completion;
// completions may arrive in any order; a request completes with the page
// fully transferred or with a non-OK status — never a prefix.
#ifndef BESS_CACHE_ASYNC_PAGE_IO_H_
#define BESS_CACHE_ASYNC_PAGE_IO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/frame_table.h"
#include "os/async_io.h"
#include "util/status.h"

namespace bess {

class AsyncPageIo {
 public:
  struct Request {
    bool write = false;
    uint64_t key = 0;    ///< PageAddr::Pack()
    void* buf = nullptr; ///< kPageSize bytes; read dest / write source —
                         ///< must stay valid until the completion is reaped
    uint64_t user_data = 0;
  };
  /// bytes == kPageSize on success, 0 on failure.
  using Completion = aio::AioCompletion;

  /// Starts `workers` threads (at least one) servicing requests through
  /// `sync`, which must outlive this object.
  AsyncPageIo(FrameTable::PageIo* sync, uint32_t workers);
  ~AsyncPageIo();
  AsyncPageIo(const AsyncPageIo&) = delete;
  AsyncPageIo& operator=(const AsyncPageIo&) = delete;

  /// Queues `n` page transfers. On a non-OK return nothing was queued.
  Status Submit(const Request* reqs, uint32_t n);

  /// Pops up to `max` completions, waiting at most `timeout_ms` for the
  /// first (0 = poll).
  uint32_t Reap(Completion* out, uint32_t max, uint32_t timeout_ms);

  /// Stops accepting work and joins the workers once the queue drains;
  /// already-produced completions stay reapable. Idempotent.
  void Shutdown();

  aio::AioStats stats() const;

 private:
  /// Longest run one worker services as a single device op. Bounds the
  /// scratch buffer (64 KiB) and keeps other workers fed at deep queues.
  static constexpr uint32_t kMaxRunPages = 16;

  void WorkerMain();
  void ExecuteRun(const std::vector<Request>& run);
  /// Moves `len` consecutive-key pages of one kind with one device op.
  Status TransferRun(const Request* first, uint32_t len,
                     std::vector<char>* scratch);

  FrameTable::PageIo* sync_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Request> queue_;
  bool stopped_ = false;
  aio::CompletionMailbox mailbox_;
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> short_fixups_{0};
  std::atomic<uint64_t> max_inflight_{0};
  std::atomic<uint64_t> io_busy_ns_{0};
  std::atomic<uint64_t> read_runs_{0};
  std::atomic<uint64_t> write_runs_{0};
  /// Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace bess

#endif  // BESS_CACHE_ASYNC_PAGE_IO_H_
