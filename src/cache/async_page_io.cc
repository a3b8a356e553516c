#include "cache/async_page_io.h"

#include <chrono>
#include <cstring>

#include "os/fault_injection.h"
#include "util/config.h"

namespace bess {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

AsyncPageIo::AsyncPageIo(FrameTable::PageIo* sync, uint32_t workers)
    : sync_(sync) {
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    threads_.emplace_back(&AsyncPageIo::WorkerMain, this);
  }
}

AsyncPageIo::~AsyncPageIo() { Shutdown(); }

Status AsyncPageIo::Submit(const Request* reqs, uint32_t n) {
  if (n == 0) return Status::OK();
  std::lock_guard<std::mutex> lk(mu_);
  if (stopped_) return Status::Aborted("async page io stopped");
  uint64_t now = inflight_.fetch_add(n, std::memory_order_acq_rel) + n;
  uint64_t seen = max_inflight_.load(std::memory_order_relaxed);
  while (now > seen && !max_inflight_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
  for (uint32_t i = 0; i < n; ++i) queue_.push_back(reqs[i]);
  work_cv_.notify_all();
  return Status::OK();
}

uint32_t AsyncPageIo::Reap(Completion* out, uint32_t max,
                           uint32_t timeout_ms) {
  return mailbox_.Reap(out, max, timeout_ms);
}

void AsyncPageIo::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

aio::AioStats AsyncPageIo::stats() const {
  aio::AioStats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.short_fixups = short_fixups_.load(std::memory_order_relaxed);
  s.reorders = mailbox_.reorders();
  s.max_inflight = max_inflight_.load(std::memory_order_relaxed);
  s.io_busy_ns = io_busy_ns_.load(std::memory_order_relaxed);
  s.read_runs = read_runs_.load(std::memory_order_relaxed);
  s.write_runs = write_runs_.load(std::memory_order_relaxed);
  return s;
}

void AsyncPageIo::WorkerMain() {
  std::vector<Request> run;
  for (;;) {
    run.clear();
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stopped_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      run.push_back(queue_.front());
      queue_.pop_front();
      // Batched transfers: queued requests of the same kind for
      // consecutive keys ride one device op (FetchRun / WriteRun) —
      // block-layer style request merging. Scan staging and bgwriter
      // flush batches both submit in ascending key order, so the
      // natural runs sit adjacent at the queue head; a gap, a kind
      // switch, or a key whose page field would carry into the area bits
      // ends the run.
      while (run.size() < kMaxRunPages && !queue_.empty() &&
             queue_.front().write == run.front().write &&
             (run.back().key & 0xFFFFFFFFull) != 0xFFFFFFFFull &&
             queue_.front().key == run.back().key + 1) {
        run.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    ExecuteRun(run);
  }
}

/// Services a run of same-kind requests for consecutive keys; a single
/// request is a run of one. Fault evaluation stays per request — an
/// injected error fails only its own request and the run is carved around
/// it, an injected short count still completes at full length — and each
/// request gets its own completion.
void AsyncPageIo::ExecuteRun(const std::vector<Request>& run) {
  const bool write = run.front().write;
  const uint32_t n = static_cast<uint32_t>(run.size());
  const uint64_t t0 = NowNs();
  (write ? writes_ : reads_).fetch_add(n, std::memory_order_relaxed);
  std::atomic<uint64_t>& runs = write ? write_runs_ : read_runs_;
  std::vector<Status> st(n, Status::OK());
  std::vector<bool> faulted(n, false);
  if (fault::Armed()) {
    for (uint32_t i = 0; i < n; ++i) {
      fault::FaultOutcome out = fault::FaultRegistry::Instance().EvaluateIo(
          write ? "aio.write" : "aio.read", "", kPageSize);
      if (out.crash) fault::FaultRegistry::CrashNow();
      size_t first_cap = kPageSize;
      if (aio::AioFaultFails(out, kPageSize, &st[i], &first_cap)) {
        faulted[i] = true;
      } else if (first_cap < kPageSize) {
        // Injected short count: the synchronous backend has no partial
        // transfer to resume, and the transfer below moves whole pages
        // anyway (the loop-to-complete contract); record the fixup.
        short_fixups_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  std::vector<char> scratch;
  uint32_t i = 0;
  while (i < n) {
    if (faulted[i]) {
      ++i;
      continue;
    }
    uint32_t j = i + 1;
    while (j < n && !faulted[j]) ++j;
    const Status rs = TransferRun(&run[i], j - i, &scratch);
    runs.fetch_add(1, std::memory_order_relaxed);
    if (j - i == 1) {
      st[i] = rs;
    } else if (!rs.ok()) {
      // The run transfer fails as a unit; retry each page alone so one bad
      // page cannot fail its neighbours' requests.
      for (uint32_t k = i; k < j; ++k) {
        st[k] = TransferRun(&run[k], 1, &scratch);
        runs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    i = j;
  }
  io_busy_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  for (uint32_t k = 0; k < n; ++k) {
    if (!st[k].ok()) errors_.fetch_add(1, std::memory_order_relaxed);
    Completion c;
    c.user_data = run[k].user_data;
    c.status = st[k];
    c.bytes = st[k].ok() ? kPageSize : 0;
    const bool last = inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    mailbox_.Deliver(c, last);
  }
}

Status AsyncPageIo::TransferRun(const Request* first, uint32_t len,
                                std::vector<char>* scratch) {
  if (len == 1) {
    return first->write ? sync_->Write(first->key, first->buf)
                        : sync_->Fetch(first->key, first->buf);
  }
  scratch->resize(static_cast<size_t>(len) * kPageSize);
  char* bytes = scratch->data();
  if (first->write) {
    for (uint32_t k = 0; k < len; ++k) {
      memcpy(bytes + static_cast<size_t>(k) * kPageSize, first[k].buf,
             kPageSize);
    }
    return sync_->WriteRun(first->key, len, bytes);
  }
  BESS_RETURN_IF_ERROR(sync_->FetchRun(first->key, len, bytes));
  for (uint32_t k = 0; k < len; ++k) {
    memcpy(first[k].buf, bytes + static_cast<size_t>(k) * kPageSize,
           kPageSize);
  }
  return Status::OK();
}

}  // namespace bess
