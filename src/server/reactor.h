// Reactor: the server's epoll event loop plus a small worker pool
// (DESIGN.md §11). One event thread multiplexes every session socket with
// edge-triggered readiness — the server runs O(workers) threads regardless
// of how many connections are live, instead of the old thread-per-session
// model that fell over past a few hundred clients.
//
// Threading rules (the whole contract — see DESIGN.md §11 for rationale):
//   - The event thread exclusively owns connection state (epoll membership,
//     continuations, callbacks). AddConnection may only be called on it
//     (i.e. from inside a reactor callback). Every connection stays in the
//     loop until it closes; nothing reads a connection outside it.
//   - on_message / on_close / on_accept run on the event thread and must
//     never block: hand real work to Submit() and return.
//   - Send / CloseConn / Post are safe from any thread; they enqueue an
//     operation the event thread drains on its next wakeup (one eventfd
//     kick per batch — replies queued while the loop is busy coalesce).
//   - Submit() runs a closure on the worker pool; blocking work (fsync,
//     page I/O, bounded lock-wait rounds) belongs there. A server-initiated
//     exchange such as a lock callback is a Send whose answer arrives later
//     through on_message; no worker waits for it.
//
// Overload protection (DESIGN.md §12): each connection's outbound queue is
// byte-capped — a slow consumer is first throttled (the reactor stops
// reading its requests, letting kernel-buffer backpressure reach the peer)
// and disconnected when the hard cap is crossed, or when its queue makes
// no drain progress for kStalledConsumerMs while paused. A coarse lazy
// timer wheel reaps idle and half-open connections: after idle_timeout_ms
// of silence the reactor sends one probe frame (the server wires kMsgPing)
// and closes the connection if the next period passes without traffic. A
// watchdog flags workers stuck on one task longer than watchdog_ms.
#ifndef BESS_SERVER_REACTOR_H_
#define BESS_SERVER_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <condition_variable>

#include "os/socket.h"
#include "util/status.h"

namespace bess {

class Reactor {
 public:
  /// Identifies one reactor-owned connection. Never reused within a run.
  using ConnId = uint64_t;

  struct Options {
    /// Size of the blocking-work pool (>= 1).
    int workers = 1;
    /// Outbound byte caps per connection (0 = uncapped). Above the soft cap
    /// the reactor stops reading from the connection — a pipelining peer
    /// that won't drain replies is throttled by its own socket buffers.
    /// Above the hard cap it is disconnected (slow-consumer policy).
    size_t send_soft_cap_bytes = 1u << 20;
    size_t send_hard_cap_bytes = 8u << 20;
    /// Idle/half-open reaping: after this long without any inbound or
    /// outbound progress the connection is probed (once) and then closed if
    /// another period passes silent. 0 disables reaping.
    uint32_t idle_timeout_ms = 0;
    /// Frame type of the idle probe (the server passes kMsgPing); 0 sends
    /// no probe — idle connections are closed after one period.
    uint16_t probe_type = 0;
    /// A worker running one task longer than this is counted stuck
    /// (server.overload.worker_stuck) and logged. 0 disables the watchdog.
    uint32_t watchdog_ms = 0;
  };

  /// Per-connection callbacks, invoked on the event thread.
  struct ConnHandler {
    /// One complete message arrived. May call CloseConn for its own
    /// connection. Must not block.
    std::function<void(ConnId, Message)> on_message;
    /// The connection died (peer close, transport error, slow-consumer or
    /// idle reaping, or reactor Stop). Fires at most once.
    std::function<void(ConnId)> on_close;
  };

  explicit Reactor(Options options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the event thread and workers. Listeners may be registered
  /// before or after Start.
  Status Start();

  /// Stops everything, in order: the event thread closes all connections
  /// (each on_close fires there), then the worker queue drains, then all
  /// threads join. Send/Post/Submit after Stop are dropped silently.
  void Stop();

  /// Registers a listening socket; `on_accept` receives each accepted
  /// (already non-blocking) socket on the event thread. The listener must
  /// outlive the reactor's run. Call before Start or from the event thread.
  Status AddListener(MsgListener* listener,
                     std::function<void(MsgSocket)> on_accept);

  /// Takes ownership of `sock` (switched to non-blocking) and watches it.
  /// Event thread only.
  ConnId AddConnection(MsgSocket sock, ConnHandler handler);

  /// Queues one framed message for `id` and flushes opportunistically.
  /// Any thread. Messages from one thread keep their order; the frame goes
  /// out after any bytes already pending.
  void Send(ConnId id, uint16_t type, uint64_t req_id, std::string payload);

  /// Closes `id` from any thread (on_close fires on the event thread).
  /// Pending outbound bytes are NOT flushed first — this is teardown.
  void CloseConn(ConnId id);

  /// Runs `fn` on the event thread at its next wakeup. Any thread.
  void Post(std::function<void()> fn);

  /// Runs `fn` on the worker pool. Any thread.
  void Submit(std::function<void()> fn);

  /// Live connection count. Event thread only (admission checks in
  /// on_accept).
  size_t ConnCountOnEventThread() const { return conns_.size(); }

  /// Workers currently stuck past watchdog_ms on one task (informational;
  /// the counter server.overload.worker_stuck records incidents).
  int stuck_workers() const {
    return stuck_workers_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    MsgSocket sock;
    SendContinuation out;
    RecvContinuation in;
    ConnHandler handler;
    /// Monotonic ns of the last inbound or outbound progress.
    uint64_t last_activity_ns = 0;
    /// Slow-consumer throttle: reads are paused until the out queue drains
    /// below the low watermark (half the soft cap).
    bool read_paused = false;
    /// While paused: monotonic ns of the pause or of the last outbound
    /// drain progress since, whichever is later.
    uint64_t last_drain_ns = 0;
    /// One idle probe per silent period; any activity re-arms it.
    bool probe_sent = false;
  };
  struct Listener {
    MsgListener* listener;
    std::function<void(MsgSocket)> on_accept;
  };

  void EventLoop();
  void WorkerLoop(int index);
  void Wake();
  void DrainOps();
  void HandleReadable(ConnId id);
  void FlushConn(ConnId id);
  void DestroyConn(ConnId id, bool invoke_on_close);
  void AcceptPending(Listener* l);
  Conn* FindConn(ConnId id);
  /// Applies the outbound byte-cap policy after bytes were queued/flushed.
  /// Returns false if the connection was destroyed (hard cap).
  bool EnforceSendCaps(ConnId id, Conn* c);
  /// Disconnects paused connections whose outbound queue made no drain
  /// progress for kStalledConsumerMs: a peer that stopped reading can sit
  /// between the low watermark and the hard cap forever otherwise.
  void ReapStalledConsumers(uint64_t now_ns);
  void MarkActivity(Conn* c, uint64_t now_ns);
  /// Lazy timer wheel: entries are (re)filed by expiry bucket; a due entry
  /// whose connection saw traffic since is simply refiled at its real
  /// deadline, so activity never touches the wheel.
  void ScheduleIdleCheck(ConnId id, uint64_t fire_at_ns);
  void RunTimers(uint64_t now_ns);
  void CheckWorkers(uint64_t now_ns);

  Options opts_;
  int epfd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: cross-thread kick out of epoll_wait
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::thread event_thread_;

  // Event-thread-owned (no lock): live connections and listeners.
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  /// Connections whose reads are paused (entries go stale lazily when a
  /// connection resumes or closes).
  std::unordered_set<ConnId> paused_;
  std::vector<std::unique_ptr<Listener>> listeners_;

  // Event-thread-owned timer wheel (coarse hashed buckets of ConnIds).
  static constexpr size_t kWheelBuckets = 64;
  std::vector<std::vector<ConnId>> wheel_{kWheelBuckets};
  uint64_t wheel_granularity_ns_ = 0;
  uint64_t wheel_cursor_ns_ = 0;  ///< timers below this already ran

  // Cross-thread operation queue, drained once per event-loop wakeup.
  std::mutex ops_mu_;
  std::vector<std::function<void()>> ops_;
  bool ops_accepting_ = true;

  // Worker pool.
  std::vector<std::thread> workers_;
  int num_workers_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> work_;
  bool work_accepting_ = true;

  // Watchdog: per-worker start-of-task stamps (0 = idle), written by the
  // workers, read by the event thread; `reported_` is event-thread-only.
  std::unique_ptr<std::atomic<uint64_t>[]> worker_busy_since_ns_;
  std::vector<uint64_t> worker_reported_stamp_;
  std::atomic<int> stuck_workers_{0};
};

}  // namespace bess

#endif  // BESS_SERVER_REACTOR_H_
