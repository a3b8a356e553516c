#include "server/reactor.h"

#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace bess {
namespace {

// epoll user-data tags. Connection ids start at 1 and listeners are tagged
// with the high bit so one epoll instance serves both.
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kListenerBit = 1ull << 63;

// A read-paused connection whose outbound queue drains not one byte for
// this long is presumed dead: its peer stopped reading while below the
// hard cap, so neither the resume watermark nor the hard cap would ever
// fire. Independent of idle reaping, which may be off.
constexpr uint64_t kStalledConsumerMs = 2000;

uint64_t MonotonicNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

Reactor::Reactor(Options options)
    : opts_(options), num_workers_(opts_.workers < 1 ? 1 : opts_.workers) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epfd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
  if (opts_.idle_timeout_ms > 0) {
    // Coarse wheel: a quarter of the idle period, floored so a tiny timeout
    // cannot turn the event loop into a busy spin.
    wheel_granularity_ns_ =
        std::max<uint64_t>(10, opts_.idle_timeout_ms / 4) * 1000000ull;
  }
  worker_busy_since_ns_ =
      std::make_unique<std::atomic<uint64_t>[]>(num_workers_);
  for (int i = 0; i < num_workers_; ++i) worker_busy_since_ns_[i] = 0;
  worker_reported_stamp_.assign(num_workers_, 0);
}

Reactor::~Reactor() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epfd_ >= 0) ::close(epfd_);
}

Status Reactor::Start() {
  if (epfd_ < 0 || wake_fd_ < 0) {
    return Status::Internal("reactor: epoll/eventfd setup failed");
  }
  if (running_.exchange(true)) return Status::OK();
  {
    std::lock_guard<std::mutex> guard(ops_mu_);
    ops_accepting_ = true;
  }
  {
    std::lock_guard<std::mutex> guard(work_mu_);
    work_accepting_ = true;
  }
  event_thread_ = std::thread(&Reactor::EventLoop, this);
  workers_.reserve(num_workers_);
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back(&Reactor::WorkerLoop, this, i);
  }
  return Status::OK();
}

void Reactor::Stop() {
  if (!running_.exchange(false)) return;
  // Refuse new cross-thread ops, then kick the event thread so it observes
  // the stop flag, tears down every connection (on_close may Submit final
  // cleanup work), and exits.
  {
    std::lock_guard<std::mutex> guard(ops_mu_);
    ops_accepting_ = false;
  }
  Wake();
  if (event_thread_.joinable()) event_thread_.join();
  // Workers drain whatever the teardown queued, then exit.
  {
    std::lock_guard<std::mutex> guard(work_mu_);
    work_accepting_ = false;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> guard(ops_mu_);
    ops_.clear();
  }
}

Status Reactor::AddListener(MsgListener* listener,
                            std::function<void(MsgSocket)> on_accept) {
  BESS_RETURN_IF_ERROR(listener->SetNonBlocking(true));
  auto l = std::make_unique<Listener>();
  l->listener = listener;
  l->on_accept = std::move(on_accept);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenerBit | listeners_.size();
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, listener->fd(), &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(listener): ") +
                            strerror(errno));
  }
  listeners_.push_back(std::move(l));
  return Status::OK();
}

Reactor::ConnId Reactor::AddConnection(MsgSocket sock, ConnHandler handler) {
  const ConnId id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  (void)sock.SetNonBlocking(true);
  auto conn = std::make_unique<Conn>();
  conn->sock = std::move(sock);
  conn->handler = std::move(handler);
  conn->last_activity_ns = MonotonicNs();
  epoll_event ev{};
  // One registration, edge-triggered, for the connection's whole life:
  // EPOLLOUT edges arrive only after a send hit WouldBlock, EPOLLIN edges
  // whenever new bytes land. No epoll_ctl churn per message.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = id;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
    BESS_ERROR("reactor: epoll_ctl(add conn): " << strerror(errno));
    return 0;
  }
  const uint64_t activity = conn->last_activity_ns;
  conns_.emplace(id, std::move(conn));
  if (wheel_granularity_ns_ > 0) {
    ScheduleIdleCheck(id, activity + opts_.idle_timeout_ms * 1000000ull);
  }
  return id;
}

void Reactor::Send(ConnId id, uint16_t type, uint64_t req_id,
                   std::string payload) {
  Post([this, id, type, req_id, payload = std::move(payload)]() {
    Conn* c = FindConn(id);
    if (c == nullptr) return;
    MsgSocket::QueueFrame(type, req_id, payload, &c->out);
    FlushConn(id);
  });
}

void Reactor::CloseConn(ConnId id) {
  Post([this, id]() { DestroyConn(id, /*invoke_on_close=*/true); });
}

void Reactor::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard(ops_mu_);
    if (!ops_accepting_) return;
    ops_.push_back(std::move(fn));
  }
  // Always wake, even from the event thread: a Post issued after this
  // iteration's DrainOps would otherwise sit until the next epoll timeout.
  // The eventfd write is cheap and immediately re-readies epoll_wait.
  Wake();
}

void Reactor::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard(work_mu_);
    if (!work_accepting_) return;
    work_.push_back(std::move(fn));
    BESS_GAUGE_ADD("server.reactor.queue_depth", 1);
  }
  work_cv_.notify_one();
}

void Reactor::Wake() {
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void Reactor::DrainOps() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> guard(ops_mu_);
    batch.swap(ops_);
  }
  if (batch.empty()) return;
  // The batch-size histogram is the proof of coalescing: under load many
  // replies ride one wakeup instead of one syscall round trip each.
  BESS_HIST("server.reactor.batch_size", batch.size());
  for (auto& fn : batch) fn();
}

void Reactor::EventLoop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  // With timers or a watchdog armed the loop must tick even when sockets
  // are silent; otherwise the 500ms heartbeat only bounds Stop() latency.
  int timeout_ms = 500;
  if (wheel_granularity_ns_ > 0) {
    timeout_ms = std::min<int>(
        timeout_ms, static_cast<int>(wheel_granularity_ns_ / 1000000ull));
  }
  if (opts_.watchdog_ms > 0) {
    timeout_ms = std::min<int>(
        timeout_ms, std::max<int>(10, static_cast<int>(opts_.watchdog_ms / 2)));
  }
  wheel_cursor_ns_ = MonotonicNs();
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      BESS_ERROR("reactor: epoll_wait: " << strerror(errno));
      break;
    }
    BESS_COUNT("server.reactor.wakeup");
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag & kListenerBit) {
        const size_t idx = tag & ~kListenerBit;
        if (idx < listeners_.size()) AcceptPending(listeners_[idx].get());
        continue;
      }
      const ConnId id = tag;
      if (events[i].events & EPOLLOUT) FlushConn(id);
      if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        HandleReadable(id);
      }
    }
    // Cross-thread ops (queued replies, closes, posts) drain as one batch
    // per wakeup, after readiness handling so a reply to a just-read
    // request can still make this batch via on_message → Send.
    DrainOps();
    const uint64_t now = MonotonicNs();
    if (!paused_.empty()) ReapStalledConsumers(now);
    if (wheel_granularity_ns_ > 0) RunTimers(now);
    if (opts_.watchdog_ms > 0) CheckWorkers(now);
  }
  // Teardown: every surviving connection closes on this thread, so
  // on_close ordering guarantees hold to the very end.
  std::vector<ConnId> ids;
  ids.reserve(conns_.size());
  for (auto& kv : conns_) ids.push_back(kv.first);
  for (ConnId id : ids) DestroyConn(id, /*invoke_on_close=*/true);
  DrainOps();
}

void Reactor::AcceptPending(Listener* l) {
  for (;;) {
    auto sock = l->listener->TryAccept();
    if (!sock.ok()) {
      if (!sock.status().IsWouldBlock()) {
        BESS_DEBUG("reactor: accept: " << sock.status().ToString());
      }
      return;
    }
    l->on_accept(std::move(sock).value());
  }
}

void Reactor::MarkActivity(Conn* c, uint64_t now_ns) {
  // Only *inbound* traffic counts as liveness: outbound progress (including
  // our own idle probes) proves nothing about the peer.
  c->last_activity_ns = now_ns;
  c->probe_sent = false;
}

void Reactor::HandleReadable(ConnId id) {
  // Edge-triggered: drain until WouldBlock. The conn is re-looked-up every
  // iteration because on_message may close it.
  for (;;) {
    Conn* c = FindConn(id);
    if (c == nullptr) return;
    if (c->read_paused) return;  // slow consumer: kernel buffer backpressure
    Message msg;
    Status s = c->sock.TryRecv(&msg, &c->in);
    if (s.ok()) {
      MarkActivity(c, MonotonicNs());
      c->handler.on_message(id, std::move(msg));
      continue;
    }
    if (s.IsWouldBlock()) return;
    // Peer close or transport error: tear the connection down.
    DestroyConn(id, /*invoke_on_close=*/true);
    return;
  }
}

void Reactor::FlushConn(ConnId id) {
  Conn* c = FindConn(id);
  if (c == nullptr) return;
  if (!c->out.empty()) {
    const size_t pending = c->out.pending_bytes();
    Status s = c->sock.TrySend(&c->out);
    if (!s.ok() && !s.IsWouldBlock()) {
      DestroyConn(id, /*invoke_on_close=*/true);
      return;
    }
    if (c->read_paused && c->out.pending_bytes() < pending) {
      c->last_drain_ns = MonotonicNs();
    }
  }
  (void)EnforceSendCaps(id, c);
}

bool Reactor::EnforceSendCaps(ConnId id, Conn* c) {
  const size_t pending = c->out.pending_bytes();
  if (opts_.send_hard_cap_bytes > 0 && pending > opts_.send_hard_cap_bytes) {
    // Slow consumer past the hard cap: presumed dead or hostile. on_close
    // runs the session's presumed-abort cleanup.
    BESS_COUNT("server.overload.slow_consumer.disconnect");
    BESS_ERROR("reactor: conn " << id << " disconnected, " << pending
                                << " outbound bytes undrained");
    DestroyConn(id, /*invoke_on_close=*/true);
    return false;
  }
  if (opts_.send_soft_cap_bytes > 0) {
    if (!c->read_paused && pending > opts_.send_soft_cap_bytes) {
      // Throttle: stop reading its requests. The peer keeps its socket
      // buffers; our kernel recv queue fills; the peer's sends block.
      c->read_paused = true;
      c->last_drain_ns = MonotonicNs();
      paused_.insert(id);
      BESS_COUNT("server.overload.slow_consumer.throttle");
    } else if (c->read_paused && pending < opts_.send_soft_cap_bytes / 2) {
      // Drained below the low watermark: resume. The paused stretch may
      // have consumed EPOLLIN edges, so drain the kernel buffer now.
      c->read_paused = false;
      HandleReadable(id);
    }
  }
  return true;
}

void Reactor::ReapStalledConsumers(uint64_t now_ns) {
  std::vector<ConnId> stalled;
  for (auto it = paused_.begin(); it != paused_.end();) {
    Conn* c = FindConn(*it);
    if (c == nullptr || !c->read_paused) {
      it = paused_.erase(it);
      continue;
    }
    if (now_ns - c->last_drain_ns >= kStalledConsumerMs * 1000000ull) {
      stalled.push_back(*it);
      it = paused_.erase(it);
      continue;
    }
    ++it;
  }
  for (ConnId id : stalled) {
    // Same policy and count as the hard cap: on_close runs the session's
    // presumed-abort cleanup.
    BESS_COUNT("server.overload.slow_consumer.disconnect");
    BESS_ERROR("reactor: conn " << id << " disconnected, outbound queue "
                                << "stalled " << kStalledConsumerMs
                                << " ms while reads were paused");
    DestroyConn(id, /*invoke_on_close=*/true);
  }
}

void Reactor::ScheduleIdleCheck(ConnId id, uint64_t fire_at_ns) {
  // Entries below the cursor would never be visited; file them into the
  // next tick instead.
  if (fire_at_ns <= wheel_cursor_ns_) fire_at_ns = wheel_cursor_ns_ + 1;
  const size_t bucket =
      (fire_at_ns / wheel_granularity_ns_) % kWheelBuckets;
  wheel_[bucket].push_back(id);
}

void Reactor::RunTimers(uint64_t now_ns) {
  const uint64_t idle_ns = opts_.idle_timeout_ms * 1000000ull;
  // Visit every bucket the cursor passes; cap the walk at one full rotation
  // (a long stall visits each bucket once, not once per missed tick).
  uint64_t from = wheel_cursor_ns_ / wheel_granularity_ns_;
  const uint64_t to = now_ns / wheel_granularity_ns_;
  if (to <= from) return;
  if (to - from > kWheelBuckets) from = to - kWheelBuckets;
  std::vector<ConnId> due;
  for (uint64_t t = from + 1; t <= to; ++t) {
    auto& bucket = wheel_[t % kWheelBuckets];
    due.insert(due.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  wheel_cursor_ns_ = now_ns;
  for (ConnId id : due) {
    Conn* c = FindConn(id);
    if (c == nullptr) continue;  // stale entry: conn already gone
    const uint64_t deadline = c->last_activity_ns + idle_ns;
    if (now_ns < deadline) {
      // Traffic since this entry was filed: lazy re-arm at the real
      // deadline. Activity never touches the wheel.
      ScheduleIdleCheck(id, deadline);
      continue;
    }
    if (opts_.probe_type != 0 && !c->probe_sent) {
      // One probe per silent period: a live-but-quiet peer answers (the
      // client echoes unsolicited pings) and the answer re-arms the timer.
      c->probe_sent = true;
      BESS_COUNT("server.overload.idle_probe");
      MsgSocket::QueueFrame(opts_.probe_type, 0, "", &c->out);
      FlushConn(id);
      if (FindConn(id) != nullptr) {
        ScheduleIdleCheck(id, now_ns + idle_ns);
      }
      continue;
    }
    // Probed and still silent (or probing disabled): half-open or dead.
    BESS_COUNT("server.overload.idle_reaped");
    BESS_DEBUG("reactor: reaping idle conn " << id);
    DestroyConn(id, /*invoke_on_close=*/true);
  }
}

void Reactor::CheckWorkers(uint64_t now_ns) {
  const uint64_t limit_ns = opts_.watchdog_ms * 1000000ull;
  int stuck = 0;
  for (int i = 0; i < num_workers_; ++i) {
    const uint64_t since =
        worker_busy_since_ns_[i].load(std::memory_order_relaxed);
    if (since == 0 || now_ns - since <= limit_ns) continue;
    ++stuck;
    if (worker_reported_stamp_[i] != since) {
      // New incident (same task still running on a later pass is not
      // re-counted): surface it once per stuck task.
      worker_reported_stamp_[i] = since;
      BESS_COUNT("server.overload.worker_stuck");
      BESS_ERROR("reactor: worker " << i << " stuck for "
                                    << (now_ns - since) / 1000000ull << " ms");
    }
  }
  stuck_workers_.store(stuck, std::memory_order_relaxed);
}

void Reactor::DestroyConn(ConnId id, bool invoke_on_close) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // Move the conn out before the callback so a re-entrant CloseConn for the
  // same id is a no-op.
  std::unique_ptr<Conn> conn = std::move(it->second);
  conns_.erase(it);
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
  if (invoke_on_close && conn->handler.on_close) {
    conn->handler.on_close(id);
  }
  conn->sock.Close();
}

Reactor::Conn* Reactor::FindConn(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void Reactor::WorkerLoop(int index) {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return !work_.empty() || !work_accepting_; });
      if (work_.empty()) return;  // accepting == false and drained
      fn = std::move(work_.front());
      work_.pop_front();
      BESS_GAUGE_SUB("server.reactor.queue_depth", 1);
    }
    worker_busy_since_ns_[index].store(MonotonicNs(),
                                       std::memory_order_relaxed);
    fn();
    worker_busy_since_ns_[index].store(0, std::memory_order_relaxed);
  }
}

}  // namespace bess
