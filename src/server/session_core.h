// SessionCore: the serving machinery every BeSS server runs (DESIGN.md §11).
//
// One epoll Reactor owns the session sockets and a fixed worker pool runs the
// requests. Sessions are not threads: each is a FIFO drained by at most one
// worker at a time, so a connection may pipeline (replies matched by req_id)
// while the server executes its requests serially. The core also owns the
// Hello, admission and deadline shedding (§12), Goodbye, the cooperative
// callback-locking wait (no worker waits for a callback's answer) and
// cleanup. A server plugs in a Handler: BessServer over its databases,
// NodeServer over a page cache and an upstream RemoteClient.
#ifndef BESS_SERVER_SESSION_CORE_H_
#define BESS_SERVER_SESSION_CORE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "obs/scope.h"
#include "os/socket.h"
#include "server/protocol.h"
#include "server/reactor.h"
#include "txn/lock_manager.h"

namespace bess {

class SessionCore {
 public:
  struct Options {
    std::string socket_path;
    int lock_timeout_ms = kLockTimeoutMillis;
    /// Max unanswered age of a callback; plumbed from bess::OpenOptions.
    int callback_timeout_ms = kCallbackTimeoutMillis;
    uint32_t simulated_latency_us = 0;  ///< per message (LAN simulation)
    /// Blocking-work pool size (fsync/group commit, page I/O, lock waits).
    /// 0 picks a small default; the count never scales with connections.
    int worker_threads = 0;

    // ---- overload protection (DESIGN.md §12); 0 always means "off" ------

    /// Accept-time admission: connections beyond this are closed without a
    /// session (the client's connect succeeds, then the socket drops —
    /// a retryable transport failure on its side).
    size_t max_connections = 0;
    /// Per-session pipelining depth: requests queued beyond this are shed
    /// with kRetryLater instead of buffered without bound.
    uint32_t max_inflight_per_session = 0;
    /// Global enqueued-but-unfinished request cap. Commit-carrying work
    /// (kMsgCommit/kMsgPrepare) gets 2x this budget so under overload the
    /// server finishes transactions rather than starting new reads;
    /// phase-two 2PC decisions are never shed.
    uint32_t max_inflight_global = 0;
    /// Outbound byte caps per connection (reactor slow-consumer policy):
    /// throttle reads above soft, disconnect above hard.
    size_t send_soft_cap_bytes = 1u << 20;
    size_t send_hard_cap_bytes = 8u << 20;
    /// Idle/half-open reaping: a connection silent this long is pinged
    /// (kMsgPing) and closed if the next period also passes silent.
    uint32_t idle_timeout_ms = 0;
    /// Workers stuck on one task longer than this are flagged.
    uint32_t watchdog_ms = 0;
  };

  /// An in-progress cooperative lock wait. A lock request that cannot be
  /// granted immediately does NOT park a worker for its whole timeout: each
  /// drain slot runs one bounded round (callbacks + a short capped wait),
  /// then re-queues the session so other sessions' work — including the
  /// release that will eventually grant us — gets worker time.
  struct LockWait {
    bool active = false;
    uint64_t key = 0;
    LockMode mode = LockMode::kS;
    Message request;  ///< the kMsgLock request being served
    std::chrono::steady_clock::time_point deadline;
  };

  struct Session {
    uint64_t id = 0;
    Reactor::ConnId conn = 0;  ///< reactor-owned connection
    bool callable = false;  ///< its Hello's flag: it answers kMsgCallback
    /// Unanswered callbacks sent to this session: lock key -> send time,
    /// one per key. An answer with no entry is ignored (DESIGN.md §11).
    std::mutex callbacks_mu;
    std::unordered_map<uint64_t, std::chrono::steady_clock::time_point>
        callbacks_out;
    /// Set when the session is being torn down (callback timeout, Stop,
    /// CloseAllSessions). Its drain stops waiting for locks and drops
    /// queued work instead of riding out a doomed request.
    std::atomic<bool> defunct{false};

    /// One queued request plus its deadline, fixed at arrival: a relative
    /// wire budget (Message::deadline_ms) becomes an absolute expiry here,
    /// so queueing delay counts against it and an expired request is shed
    /// before dispatch instead of executed late (DESIGN.md §12).
    struct Queued {
      Message msg;
      std::chrono::steady_clock::time_point expiry;
    };

    /// Pipelining queue: the event thread appends, one worker at a time
    /// drains. `draining` is the single-drainer token; `closed` is set by
    /// the reactor's on_close; `cleaned` makes teardown run exactly once.
    std::mutex q_mu;
    std::deque<Queued> queue;
    bool draining = false;
    bool closed = false;
    bool cleaned = false;

    /// Drainer-owned (serial per session): cooperative lock-wait state.
    LockWait lock_wait;
    /// Handler-owned, drainer-serial: 2PC transactions this session
    /// prepared but has not resolved (BessServer presumed-aborts them).
    std::set<uint64_t> prepared_gtids;
  };

  /// What a server plugs into the core. Every hook runs on a worker, inside
  /// the session's serial drain, and may block.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Executes one request. The core keeps kMsgGoodbye and kMsgLock to
    /// itself; everything else arrives here. Fill `reply` (and `reply_type`,
    /// preset to kMsgOk); a non-OK return is sent as the error reply.
    virtual Status Handle(Session& session, const Message& msg,
                          std::string* reply, uint16_t* reply_type) = 0;
    /// A kMsgLock request finished waiting in the core's lock table with
    /// `waited` (OK = granted, else the wait's or the decode's error).
    /// Returns the reply status; a non-OK return undoes a grant.
    virtual Status FinishLock(Session& session, const LockWait& w,
                              Status waited) = 0;
    /// The session is being torn down; runs once, before the core releases
    /// its locks and forgets it.
    virtual void OnSessionClosed(Session&) {}
  };

  /// `handler` and `scope` must outlive the core. The core counts its
  /// session-level events (srv.session.*, srv.callback.*, the
  /// server.overload.* sheds) into the server's `scope`. Every shed is a
  /// reply, never a silent drop, so they reconcile against client counts.
  SessionCore(Options options, Handler* handler, obs::Scope* scope);
  ~SessionCore();
  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  /// Starts listening and serving (returns immediately).
  Status Start();
  /// Closes every session, drains the workers and joins. Idempotent.
  void Stop();
  bool running() const { return running_.load(); }

  /// Tears every live session down as if its client had disconnected.
  void CloseAllSessions();

  const Options& options() const { return options_; }
  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }
  /// Sessions currently registered (leak checks: must return to baseline
  /// after clients disconnect).
  size_t live_sessions() const;
  /// Workers currently stuck past watchdog_ms (0 when healthy).
  int stuck_workers() const {
    return reactor_ != nullptr ? reactor_->stuck_workers() : 0;
  }

 private:
  // There is deliberately no core-wide mutex. Per-session state is owned by
  // its serial drain; the session registry hashes over small per-shard
  // mutexes and counters are relaxed atomics.
  static constexpr uint32_t kSessionShards = 16;
  struct SessionShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<Session>> map;
  };

  SessionShard& SessionShardFor(uint64_t id) {
    return session_shards_[id % kSessionShards];
  }
  std::shared_ptr<Session> FindSession(uint64_t id);

  // Reactor callbacks (event thread; must not block).
  void OnAccept(MsgSocket sock);
  void OnConnMessage(
      const std::shared_ptr<std::shared_ptr<Session>>& bound,
      Reactor::ConnId conn, Message msg);
  void OnConnClose(const std::shared_ptr<std::shared_ptr<Session>>& bound);
  /// A callback answer: settled inline, never through the session's FIFO.
  void OnCallbackAnswer(Session& session, const Message& msg);

  // Worker-side request execution (serial per session).
  void DrainSession(std::shared_ptr<Session> session);
  void CleanupSession(const std::shared_ptr<Session>& session);
  void SendReply(Session& session, uint16_t type, uint64_t req_id,
                 std::string payload);
  /// Replies `s` to a request being refused without execution. Bypasses the
  /// simulated LAN latency: a shed must be cheaper than the work it sheds.
  void ShedRequest(Reactor::ConnId conn, uint64_t req_id, const Status& s);
  /// Decodes a kMsgLock request into the session's lock wait.
  Status BeginLockWait(Session& session, Session::Queued q);
  /// Ends the lock wait through Handler::FinishLock and replies.
  void FinishLockWait(Session& session, Status waited);
  /// One bounded round of the callback-locking acquire; kBusy means
  /// "undecided, yield the worker and try again next slot".
  Status LockWaitRound(Session& session);
  /// Tears down an unresponsive session so its drain unwinds into the
  /// cleanup, and releases its locks right away so waiters are granted
  /// promptly instead of riding out their own timeouts against a ghost
  /// holder.
  void MarkSessionDefunct(Session* session);

  Options options_;
  Handler* handler_;
  LockManager locks_;
  MsgListener listener_;
  std::unique_ptr<Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_session_{1};
  /// Requests enqueued but not yet finished, across all sessions — the
  /// quantity max_inflight_global caps. Incremented at enqueue (event
  /// thread), decremented once per request when its drain completes it.
  std::atomic<uint64_t> inflight_{0};
  SessionShard session_shards_[kSessionShards];
  obs::Scope& scope_;
};

}  // namespace bess

#endif  // BESS_SERVER_SESSION_CORE_H_
