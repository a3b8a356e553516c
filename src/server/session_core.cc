#include "server/session_core.h"

#include <unistd.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace bess {
namespace {

LockMode ModeFromByte(uint8_t b) {
  if (b > static_cast<uint8_t>(LockMode::kX)) return LockMode::kX;
  return static_cast<LockMode>(b);
}

int DefaultWorkerCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(8u, std::max(2u, hw)));
}

}  // namespace

SessionCore::SessionCore(Options options, Handler* handler, obs::Scope* scope)
    : options_(std::move(options)),
      handler_(handler),
      locks_(options_.lock_timeout_ms),
      scope_(*scope) {}

SessionCore::~SessionCore() { Stop(); }

Status SessionCore::Start() {
  BESS_ASSIGN_OR_RETURN(listener_, MsgListener::Listen(options_.socket_path));
  Reactor::Options ropts;
  ropts.workers = options_.worker_threads > 0 ? options_.worker_threads
                                              : DefaultWorkerCount();
  ropts.send_soft_cap_bytes = options_.send_soft_cap_bytes;
  ropts.send_hard_cap_bytes = options_.send_hard_cap_bytes;
  ropts.idle_timeout_ms = options_.idle_timeout_ms;
  ropts.probe_type = kMsgPing;
  ropts.watchdog_ms = options_.watchdog_ms;
  reactor_ = std::make_unique<Reactor>(ropts);
  BESS_RETURN_IF_ERROR(reactor_->AddListener(
      &listener_, [this](MsgSocket sock) { OnAccept(std::move(sock)); }));
  running_.store(true);
  return reactor_->Start();
}

void SessionCore::Stop() {
  if (!running_.exchange(false)) return;
  CloseAllSessions();
  // The reactor closes every connection on its event thread (running each
  // session's on_close cleanup), drains the worker queue, then joins.
  if (reactor_ != nullptr) reactor_->Stop();
  listener_.Close();
}

void SessionCore::CloseAllSessions() {
  // Snapshot first: the event thread takes the shard mutexes too.
  std::vector<std::shared_ptr<Session>> sessions;
  for (SessionShard& shard : session_shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (auto& [id, session] : shard.map) sessions.push_back(session);
  }
  // Mark every session defunct first: workers parked in lock-wait rounds
  // abort within one capped round instead of riding out their timeouts.
  for (const std::shared_ptr<Session>& session : sessions) {
    session->defunct.store(true);
    reactor_->CloseConn(session->conn);
  }
}

std::shared_ptr<SessionCore::Session> SessionCore::FindSession(uint64_t id) {
  SessionShard& shard = SessionShardFor(id);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : it->second;
}

void SessionCore::OnAccept(MsgSocket sock) {
  // Accept-time admission: past the connection cap there is no session to
  // reply through, so the socket is simply closed — the cheapest possible
  // refusal, and on the client a clean retryable transport failure.
  if (options_.max_connections > 0 &&
      reactor_->ConnCountOnEventThread() >= options_.max_connections) {
    BESS_COUNT_IN(scope_, "server.overload.conn_rejected");
    sock.Close();
    return;
  }
  // The session is created by the connection's first message, so the
  // handler carries a slot that Hello fills in.
  auto bound = std::make_shared<std::shared_ptr<Session>>();
  Reactor::ConnHandler handler;
  handler.on_message = [this, bound](Reactor::ConnId conn, Message msg) {
    OnConnMessage(bound, conn, std::move(msg));
  };
  handler.on_close = [this, bound](Reactor::ConnId) { OnConnClose(bound); };
  reactor_->AddConnection(std::move(sock), std::move(handler));
}

void SessionCore::OnConnMessage(
    const std::shared_ptr<std::shared_ptr<Session>>& bound,
    Reactor::ConnId conn, Message msg) {
  std::shared_ptr<Session> session = *bound;
  if (session == nullptr) {
    // First message on a fresh connection.
    if (msg.type == kMsgHello) {
      session = std::make_shared<Session>();
      session->id = next_session_.fetch_add(1);
      session->conn = conn;
      // One flag byte: the client answers callbacks (DESIGN.md §11).
      session->callable = !msg.payload.empty() && msg.payload[0] != 0;
      {
        SessionShard& shard = SessionShardFor(session->id);
        std::lock_guard<std::mutex> guard(shard.mu);
        shard.map[session->id] = session;
      }
      *bound = session;
      BESS_COUNT_IN(scope_, "srv.session.open");
      BESS_GAUGE_ADD_IN(scope_, "srv.session.active", 1);
      std::string reply;
      PutFixed64(&reply, session->id);
      reactor_->Send(conn, kMsgOk, msg.req_id, std::move(reply));
    } else {
      BESS_DEBUG("conn " << conn << " bad first message type " << msg.type);
      reactor_->CloseConn(conn);
    }
    return;
  }
  // An unsolicited kMsgOk/kMsgError inbound is a client's answer to our
  // idle probe (or a stray reply): pure liveness, already credited by the
  // reactor's activity tracking. Never a request — drop it here.
  if (msg.type == kMsgOk || msg.type == kMsgError) return;
  // Queued, a callback answer could wait behind this session's own kMsgLock,
  // itself waiting on the waiter the answer would grant (DESIGN.md §11).
  if (msg.type == kMsgCallbackReleased || msg.type == kMsgCallbackDenied) {
    OnCallbackAnswer(*session, msg);
    return;
  }

  // Enqueue admission (DESIGN.md §12). Shedding order under overload:
  // phase-two 2PC decisions and Goodbye always pass (refusing them only
  // delays resolving an already-decided transaction); commit-carrying work
  // gets double the global budget; everything else sheds first. Every shed
  // is an explicit kRetryLater reply, never a silent drop.
  const bool exempt = msg.type == kMsgCommitPrepared ||
                      msg.type == kMsgAbortPrepared || msg.type == kMsgGoodbye;
  if (!exempt && options_.max_inflight_global > 0) {
    const uint64_t budget =
        (msg.type == kMsgCommit || msg.type == kMsgPrepare)
            ? uint64_t{options_.max_inflight_global} * 2
            : uint64_t{options_.max_inflight_global};
    if (inflight_.load(std::memory_order_relaxed) >= budget) {
      BESS_COUNT_IN(scope_, "server.overload.shed.admission");
      ShedRequest(conn, msg.req_id,
                  Status::RetryLater("server at capacity; back off"));
      return;
    }
  }

  // The wire deadline is a relative budget; pin it to an absolute expiry at
  // arrival so time spent queued counts against it.
  Session::Queued q;
  q.expiry = msg.deadline_ms > 0
                 ? std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(msg.deadline_ms)
                 : std::chrono::steady_clock::time_point::max();
  q.msg = std::move(msg);

  // Pipelining: append to the session's FIFO and claim the single-drainer
  // token if no worker currently owns this session.
  bool claim = false;
  {
    std::lock_guard<std::mutex> guard(session->q_mu);
    if (!exempt && options_.max_inflight_per_session > 0 &&
        session->queue.size() >= options_.max_inflight_per_session) {
      BESS_COUNT_IN(scope_, "server.overload.shed.admission");
      ShedRequest(conn, q.msg.req_id,
                  Status::RetryLater("session pipeline full; back off"));
      return;
    }
    session->queue.push_back(std::move(q));
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (!session->draining) {
      session->draining = true;
      claim = true;
    }
  }
  if (claim) {
    reactor_->Submit([this, session] { DrainSession(std::move(session)); });
  }
}

void SessionCore::OnConnClose(
    const std::shared_ptr<std::shared_ptr<Session>>& bound) {
  std::shared_ptr<Session> session = *bound;
  if (session == nullptr) return;  // never said Hello
  bool claim = false;
  {
    std::lock_guard<std::mutex> guard(session->q_mu);
    session->closed = true;
    if (!session->draining) {
      session->draining = true;
      claim = true;
    }
  }
  // If a drain is in flight it will observe `closed` once the queue empties;
  // otherwise claim the token so cleanup runs exactly once, on a worker.
  if (claim) {
    reactor_->Submit([this, session] { DrainSession(std::move(session)); });
  }
}

void SessionCore::DrainSession(std::shared_ptr<Session> session) {
  for (;;) {
    // An in-progress lock wait is the head-of-line request: run one bounded
    // round; if still undecided, requeue ourselves at the back of the worker
    // FIFO so other sessions — including whoever will release this lock —
    // get worker time. A waiter never parks a worker for its full timeout.
    if (session->lock_wait.active) {
      Status s = LockWaitRound(*session);
      if (s.IsBusy()) {
        reactor_->Submit([this, session] { DrainSession(std::move(session)); });
        return;  // the drain token stays held; no one else may enter
      }
      FinishLockWait(*session, s);
    }
    Session::Queued q;
    bool got = false;
    bool cleanup = false;
    {
      std::lock_guard<std::mutex> guard(session->q_mu);
      if (session->queue.empty()) {
        session->draining = false;
        if (session->closed && !session->cleaned) {
          session->cleaned = true;
          cleanup = true;
        }
      } else {
        q = std::move(session->queue.front());
        session->queue.pop_front();
        got = true;
      }
    }
    if (cleanup) {
      CleanupSession(session);
      return;
    }
    if (!got) return;
    const Message& msg = q.msg;
    if (session->defunct.load()) {  // torn down: drop queued work
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (msg.type == kMsgGoodbye) {
      // Close via the event loop; its on_close re-enters the drain path for
      // the final cleanup once the token is released.
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      reactor_->CloseConn(session->conn);
      continue;
    }
    // Deadline shed: the client's budget ran out while the request sat in
    // the pipeline. Executing it would burn worker time on an answer no one
    // is waiting for — refuse instead, before dispatch. Phase-two 2PC
    // decisions execute regardless: they only shrink in-doubt state.
    if (q.expiry <= std::chrono::steady_clock::now() &&
        msg.type != kMsgCommitPrepared && msg.type != kMsgAbortPrepared) {
      BESS_COUNT_IN(scope_, "server.overload.shed.deadline");
      ShedRequest(session->conn, msg.req_id,
                  Status::DeadlineExceeded("deadline passed before dispatch"));
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (msg.type == kMsgLock) {
      Status s = BeginLockWait(*session, std::move(q));
      if (!s.ok()) FinishLockWait(*session, s);
      continue;  // the top of the loop runs the first round
    }
    uint16_t reply_type = kMsgOk;
    std::string reply;
    Status s = handler_->Handle(*session, msg, &reply, &reply_type);
    if (!s.ok()) EncodeStatus(s, &reply_type, &reply);
    SendReply(*session, reply_type, msg.req_id, std::move(reply));
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Status SessionCore::BeginLockWait(Session& session, Session::Queued q) {
  LockWait& w = session.lock_wait;
  w = LockWait{};
  w.request = std::move(q.msg);
  Decoder dec(w.request.payload);
  w.key = dec.GetFixed64();
  Slice mode_byte = dec.GetBytes(1);
  const int timeout = static_cast<int>(dec.GetFixed32());
  if (!dec.ok()) return Status::Protocol("bad lock request");
  w.mode = ModeFromByte(static_cast<uint8_t>(mode_byte.data()[0]));
  w.deadline = std::min(
      q.expiry, std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(
                        timeout > 0 ? timeout : options_.lock_timeout_ms));
  w.active = true;
  return Status::OK();
}

void SessionCore::FinishLockWait(Session& session, Status waited) {
  LockWait& w = session.lock_wait;
  w.active = false;
  Status s = handler_->FinishLock(session, w, waited);
  if (waited.ok() && !s.ok()) (void)locks_.Release(session.id, w.key);
  uint16_t type;
  std::string reply;
  EncodeStatus(s, &type, &reply);
  SendReply(session, type, w.request.req_id, std::move(reply));
  // The kMsgLock request that started this wait completes here.
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void SessionCore::CleanupSession(const std::shared_ptr<Session>& session) {
  handler_->OnSessionClosed(*session);
  // Then release its locks (cached and held) and forget it.
  locks_.ReleaseAll(session->id);
  {
    SessionShard& shard = SessionShardFor(session->id);
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.map.erase(session->id);
  }
  BESS_COUNT_IN(scope_, "srv.session.close");
  BESS_GAUGE_SUB_IN(scope_, "srv.session.active", 1);
}

void SessionCore::ShedRequest(Reactor::ConnId conn, uint64_t req_id,
                              const Status& s) {
  // No simulated LAN latency here: a shed exists to be cheaper than the
  // work it refuses, and under overload the worker (or event thread) must
  // not sleep per refusal.
  uint16_t type;
  std::string reply;
  EncodeStatus(s, &type, &reply);
  reactor_->Send(conn, type, req_id, std::move(reply));
}

void SessionCore::SendReply(Session& session, uint16_t type, uint64_t req_id,
                            std::string payload) {
  // The simulated LAN latency burns worker time, never event-loop time.
  if (options_.simulated_latency_us > 0) {
    ::usleep(options_.simulated_latency_us);
  }
  reactor_->Send(session.conn, type, req_id, std::move(payload));
}

void SessionCore::MarkSessionDefunct(Session* session) {
  if (session->defunct.exchange(true)) return;  // another waiter got here
  BESS_COUNT_IN(scope_, "srv.callback.timeout");
  // The defunct flag stops the session's drain from continuing to *wait*
  // for locks — without it, a lock-wait round in flight rides out its cap
  // on a request whose session is already dead. Closing the connection
  // (via the reactor, so it is safe from any thread) triggers the session's
  // on_close → cleanup path.
  reactor_->CloseConn(session->conn);
  // Release the ghost's locks now rather than when its cleanup eventually
  // runs: every waiter blocked on these locks would otherwise miss its
  // grant wakeup and time out against a holder that can never answer. The
  // cleanup path's ReleaseAll then finds nothing left — release is
  // idempotent — and sweeps up anything granted in between.
  locks_.ReleaseAll(session->id);
}

Status SessionCore::LockWaitRound(Session& session) {
  const LockWait& w = session.lock_wait;
  if (session.defunct.load()) {
    // Torn down while we were waiting: our grant (if any) is moot and our
    // locks are already being released.
    return Status::Aborted("session torn down during lock wait");
  }
  Status s = locks_.TryAcquire(session.id, w.key, w.mode);
  if (!s.IsBusy()) return s;  // granted or hard error

  // Conflict: call back the caching holders (callback locking, §3) on their
  // own connections; OnCallbackAnswer settles the answers.
  const auto now = std::chrono::steady_clock::now();
  const std::chrono::milliseconds window(
      std::max(1, options_.callback_timeout_ms));
  for (const auto& [holder_id, held_mode] : locks_.Holders(w.key)) {
    if (holder_id == session.id || LockCompatible(held_mode, w.mode)) {
      continue;
    }
    std::shared_ptr<Session> holder = FindSession(holder_id);
    if (holder == nullptr || !holder->callable || holder->defunct.load()) {
      continue;  // nobody can answer: wait for the holder's own release
    }
    bool send = false;
    bool expired = false;
    {
      std::lock_guard<std::mutex> guard(holder->callbacks_mu);
      auto [it, inserted] = holder->callbacks_out.try_emplace(w.key, now);
      send = inserted;
      expired = !inserted && now - it->second >= window;
    }
    if (expired) {
      // No answer inside the window: the holder is unresponsive. Tearing
      // down its session (not just counting a denial) frees its locks so
      // the requester stops waiting on a ghost.
      MarkSessionDefunct(holder.get());
    } else if (send) {
      std::string payload;
      PutFixed64(&payload, w.key);
      payload.push_back(static_cast<char>(w.mode));
      BESS_COUNT_IN(scope_, "srv.callback.sent");
      SendReply(*holder, kMsgCallback, 0, std::move(payload));
    }
  }

  if (now >= w.deadline) {
    return Status::Deadlock("lock wait timeout (callbacks exhausted) on " +
                            std::to_string(w.key));
  }
  // Wait for a grant on the lock manager's shard condition instead of
  // polling: a release (callback answer, commit, or a reaped holder's
  // ReleaseAll) wakes us immediately. The wait is capped per round, also at
  // the callback window, so the worker is handed back between rounds and
  // the loop above finds an unanswered callback expired on the next one.
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(w.deadline - now);
  const int round_ms = static_cast<int>(std::min<int64_t>(
      {remaining.count() + 1, int64_t{50}, int64_t{window.count()}}));
  s = locks_.Acquire(session.id, w.key, w.mode, round_ms);
  if (!s.IsDeadlock()) return s;  // granted or hard error
  return Status::Busy("lock wait round expired");
}

void SessionCore::OnCallbackAnswer(Session& session, const Message& msg) {
  Decoder dec(msg.payload);
  const uint64_t key = dec.GetFixed64();
  if (!dec.ok() || session.defunct.load()) return;
  {
    std::lock_guard<std::mutex> guard(session.callbacks_mu);
    if (session.callbacks_out.erase(key) == 0) return;  // nobody asked
  }
  if (msg.type == kMsgCallbackReleased) {
    BESS_COUNT_IN(scope_, "srv.callback.released");
    (void)locks_.Release(session.id, key);
  } else {
    BESS_COUNT_IN(scope_, "srv.callback.denied");
  }
}

size_t SessionCore::live_sessions() const {
  size_t n = 0;
  for (const SessionShard& shard : session_shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    n += shard.map.size();
  }
  return n;
}

}  // namespace bess
