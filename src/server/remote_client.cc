#include "server/remote_client.h"

#include <unistd.h>

#include <algorithm>

#include "object/database.h"
#include "obs/trace.h"
#include "os/fault_injection.h"
#include "util/logging.h"

namespace bess {
namespace {

/// Initial backoff (ms) before a transport retry; doubled each attempt.
constexpr useconds_t kRpcBackoffMs = 5;

/// Per-opcode RPC counters for the handful of opcodes that dominate the
/// paper's traffic; the rest pool under rpc.other.
void CountRpcOp(obs::Scope& scope, uint16_t type) {
  BESS_COUNT_IN(scope, "rpc.call");
  switch (type) {
    case kMsgFetchSlotted: BESS_COUNT_IN(scope, "rpc.fetch_slotted"); break;
    case kMsgFetchPages: BESS_COUNT_IN(scope, "rpc.fetch_pages"); break;
    case kMsgLock: BESS_COUNT_IN(scope, "rpc.lock"); break;
    case kMsgCommit: BESS_COUNT_IN(scope, "rpc.commit"); break;
    case kMsgPrepare:
    case kMsgCommitPrepared:
    case kMsgAbortPrepared: BESS_COUNT_IN(scope, "rpc.2pc"); break;
    default: BESS_COUNT_IN(scope, "rpc.other"); break;
  }
}

/// Transport failures (vs. an error *reply* from the server): the request
/// may not have reached the server — the only errors worth a retry.
bool IsTransportFailure(const Status& s) {
  return s.IsIOError() || s.code() == StatusCode::kProtocol;
}

/// Safe to replay after a transport failure: reads, lock traffic (re-granting
/// a held lock is a no-op; after a reconnect the new session needs the grant
/// anyway), and commit (deduplicated server-side by the ctid prefix, so a
/// replayed commit whose first attempt applied reports OK without applying
/// twice). Everything else — catalog mutation, segment allocation, 2PC
/// prepare/decision — could apply twice and must surface "outcome unknown".
bool IsIdempotentRpc(uint16_t type) {
  switch (type) {
    case kMsgFetchSlotted:
    case kMsgFetchPages:
    case kMsgFetchTypes:
    case kMsgFindFile:
    case kMsgGetRoot:
    case kMsgLock:
    case kMsgReleaseLock:
    case kMsgReleaseAll:
    case kMsgCommit:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---- RemoteStore --------------------------------------------------------------

// Fetches segments from the server into the client cache (copy on access).
// Write-back never goes through here: commits ship the whole page set in
// one atomic kMsgCommit.
class RemoteClient::RemoteStore : public SegmentStore {
 public:
  explicit RemoteStore(RemoteClient* client) : client_(client) {}

  Status FetchSlotted(SegmentId id, void* buf, uint32_t* page_count) override {
    std::string payload;
    PutFixed64(&payload, id.Pack());
    Message reply;
    BESS_RETURN_IF_ERROR(client_->Call(client_->PeerFor(id.db),
                                       kMsgFetchSlotted, payload, &reply));
    Decoder dec(reply.payload);
    const uint32_t pages = dec.GetFixed32();
    Slice bytes = dec.GetBytes(static_cast<size_t>(pages) * kPageSize);
    if (!dec.ok() || pages == 0 || pages > kMaxSlottedPages) {
      return Status::Protocol("bad FetchSlotted reply");
    }
    memcpy(buf, bytes.data(), bytes.size());
    *page_count = pages;
    return Status::OK();
  }

  Status FetchPages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, void* buf) override {
    std::string payload;
    PutFixed16(&payload, db);
    PutFixed16(&payload, area);
    PutFixed32(&payload, first);
    PutFixed32(&payload, page_count);
    Message reply;
    BESS_RETURN_IF_ERROR(
        client_->Call(client_->PeerFor(db), kMsgFetchPages, payload, &reply));
    if (reply.payload.size() != static_cast<size_t>(page_count) * kPageSize) {
      return Status::Protocol("short FetchPages reply");
    }
    memcpy(buf, reply.payload.data(), reply.payload.size());
    return Status::OK();
  }

  Status WritePages(uint16_t, uint16_t, PageId, uint32_t,
                    const void*) override {
    return Status::NotSupported(
        "remote clients write back through Commit() only");
  }

 private:
  RemoteClient* client_;
};

// ---- connection ---------------------------------------------------------------

Result<std::unique_ptr<RemoteClient>> RemoteClient::Connect(
    Options options, LockCallbackPolicy* callbacks) {
  auto client = std::unique_ptr<RemoteClient>(new RemoteClient());
  client->options_ = options;
  client->callbacks_ = callbacks;

  client->primary_.path = options.server_path;
  client->primary_.db_ids.push_back(options.db_id);
  BESS_ASSIGN_OR_RETURN(const uint64_t session,
                        client->OpenSession(client->primary_));
  client->session_id_ = session;
  client->StartReader(&client->primary_);

  // The object layer serves this client's own application; a client that
  // answers callbacks through a policy caches nothing itself.
  if (callbacks == nullptr) {
    client->store_ = std::make_unique<RemoteStore>(client.get());
    client->mapper_ = std::make_unique<SegmentMapper>(
        client->store_.get(), &client->types_, options.mapper);
    client->mapper_->set_observer(client.get());
    BESS_RETURN_IF_ERROR(client->SyncTypes());
  }

  client->callback_thread_ = std::thread([c = client.get()] {
    c->CallbackLoop();
  });
  return client;
}

RemoteClient::~RemoteClient() {
  {
    std::lock_guard<std::mutex> guard(cb_mu_);
    cb_stop_ = true;
  }
  cb_cv_.notify_all();
  if (callback_thread_.joinable()) callback_thread_.join();
  (void)primary_.main.Send(kMsgGoodbye, "");
  StopReader(&primary_);
  for (auto& peer : extra_peers_) StopReader(peer.get());
  mapper_.reset();
}

Result<uint64_t> RemoteClient::OpenSession(Peer& peer) {
  BESS_ASSIGN_OR_RETURN(peer.main, MsgSocket::Connect(peer.path));
  peer.main.set_simulated_latency_us(options_.simulated_latency_us);
  // The hello handshake is the one blocking round trip on the main socket;
  // once the reader thread starts, all receives go through it. Only the
  // primary answers callbacks; a 2PC peer's session is never called back.
  BESS_RETURN_IF_ERROR(
      peer.main.Send(kMsgHello, &peer == &primary_ ? "\x01" : ""));
  BESS_ASSIGN_OR_RETURN(Message hello, peer.main.Recv());
  if (hello.type != kMsgOk || hello.payload.size() != 8) {
    return Status::Protocol("bad hello reply");
  }
  return DecodeFixed64(hello.payload.data());
}

// ---- pipelined RPC core -------------------------------------------------------

Result<Message> ReplyFuture::Get() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("Get() on an empty ReplyFuture");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (!state_->status.ok()) return state_->status;
  return state_->reply;
}

void RemoteClient::StartReader(Peer* peer) {
  std::lock_guard<std::mutex> guard(peer->p_mu);
  const uint64_t gen = peer->generation;
  peer->reader = std::thread([this, peer, gen] { ReaderLoop(peer, gen); });
}

void RemoteClient::StopReader(Peer* peer) {
  peer->main.Shutdown();  // wakes the reader's poll
  std::thread reader;
  {
    std::lock_guard<std::mutex> guard(peer->p_mu);
    reader = std::move(peer->reader);
  }
  if (reader.joinable()) reader.join();
}

void RemoteClient::FailAllPending(Peer* peer, const Status& s) {
  std::vector<std::shared_ptr<ReplyFuture::State>> victims;
  {
    std::lock_guard<std::mutex> guard(peer->p_mu);
    victims.reserve(peer->pending.size());
    for (auto& [id, st] : peer->pending) {
      (void)id;
      victims.push_back(st);
    }
    peer->pending.clear();
    peer->drained_cv.notify_all();
  }
  for (auto& st : victims) st->Finish(s, Message{});
}

void RemoteClient::ReaderLoop(Peer* peer, uint64_t generation) {
  for (;;) {
    // Poll-first receive: the socket's fault point is only consulted once
    // data (or a close) is actually pending, so a parked reader does not
    // consume injection triggers aimed at in-flight replies.
    auto r = peer->main.RecvTimeout(-1);
    {
      std::lock_guard<std::mutex> guard(peer->p_mu);
      if (peer->generation != generation) return;  // superseded by Reconnect
    }
    if (!r.ok()) {
      // Transport death takes every in-flight RPC with it; the sync Call
      // layer decides per-opcode whether a replay is safe.
      FailAllPending(peer, r.status());
      return;
    }
    if (r->type == kMsgCallback) {
      // Answered on the callback thread, so this reader keeps delivering
      // replies meanwhile — including the one a faulting thread that holds
      // the mapper waits for.
      if (peer == &primary_ && r->payload.size() >= 9) {
        std::lock_guard<std::mutex> guard(cb_mu_);
        cb_queue_.push_back(
            {generation, DecodeFixed64(r->payload.data()),
             static_cast<LockMode>(r->payload[8])});
        cb_cv_.notify_one();
      }
      continue;
    }
    std::shared_ptr<ReplyFuture::State> st;
    {
      std::lock_guard<std::mutex> guard(peer->p_mu);
      auto it = peer->pending.find(r->req_id);
      if (it != peer->pending.end()) {
        st = it->second;
        peer->pending.erase(it);
      }
      if (peer->pending.empty()) peer->drained_cv.notify_all();
    }
    if (st != nullptr) {
      st->Finish(Status::OK(), std::move(*r));
    } else if (r->type == kMsgPing) {
      // The server's idle probe (DESIGN.md §12): an unsolicited ping with
      // no pending entry. Answer it so a live-but-quiet client is not
      // reaped as half-open; the echo's req_id lets the server drop it.
      std::lock_guard<std::mutex> guard(peer->send_mu);
      (void)peer->main.Send(kMsgOk, "", r->req_id);
    }
    // Any other reply with no pending entry is dropped: its Call already
    // failed the send locally, or this is a stray from a dying connection.
  }
}

bool RemoteClient::Withdraw(Peer& peer, uint64_t req_id) {
  std::lock_guard<std::mutex> guard(peer.p_mu);
  const bool own = peer.pending.erase(req_id) > 0;
  if (peer.pending.empty()) peer.drained_cv.notify_all();
  return own;
}

ReplyFuture RemoteClient::CallAsyncOn(Peer& peer, uint16_t type,
                                      const std::string& payload,
                                      uint64_t* req_id_out) {
  ReplyFuture fut;
  fut.state_ = std::make_shared<ReplyFuture::State>();
  const uint64_t req_id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  if (req_id_out != nullptr) *req_id_out = req_id;
  // Register before sending so the reader can never race the reply.
  {
    std::lock_guard<std::mutex> guard(peer.p_mu);
    peer.pending.emplace(req_id, fut.state_);
  }
  Status s;
  {
    std::lock_guard<std::mutex> guard(peer.send_mu);
    // The deadline rides the frame header: the server turns the relative
    // budget into an absolute expiry at arrival and sheds the request if
    // it is still queued when the budget runs out (DESIGN.md §12).
    s = peer.main.Send(type, payload, req_id, options_.rpc_deadline_ms);
  }
  if (!s.ok()) {
    // Whoever erases the pending entry owns completion (the reader's
    // fail-all may be racing us).
    if (Withdraw(peer, req_id)) fut.state_->Finish(s, Message{});
  }
  return fut;
}

ReplyFuture RemoteClient::CallAsync(uint16_t type, const std::string& payload) {
  CountRpcOp(scope_, type);
  return CallAsyncOn(primary_, type, payload);
}

Status RemoteClient::Call(uint16_t type, const std::string& payload,
                          Message* reply) {
  return Call(primary_, type, payload, reply);
}

Status RemoteClient::Flush() {
  auto wait_drained = [](Peer& peer) {
    std::unique_lock<std::mutex> lock(peer.p_mu);
    peer.drained_cv.wait(lock, [&peer] { return peer.pending.empty(); });
  };
  wait_drained(primary_);
  for (auto& peer : extra_peers_) wait_drained(*peer);
  return Status::OK();
}

Result<Message> RemoteClient::AwaitReply(Peer& peer, ReplyFuture& fut,
                                         uint64_t req_id, int timeout_ms) {
  auto st = fut.state_;
  if (st == nullptr) return Status::InvalidArgument("empty future");
  std::unique_lock<std::mutex> lock(st->mu);
  if (timeout_ms <= 0) {
    st->cv.wait(lock, [&] { return st->done; });
  } else if (!st->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [&] { return st->done; })) {
    // Timed out waiting locally. Withdraw the pending entry; whoever
    // erases it owns completion (the reader may be racing us with the
    // real reply, in which case we take that instead).
    lock.unlock();
    const bool own = Withdraw(peer, req_id);
    lock.lock();
    if (own) {
      st->done = true;
      st->status = Status::DeadlineExceeded("no reply within deadline");
      st->cv.notify_all();
    } else {
      st->cv.wait(lock, [&] { return st->done; });  // reader is finishing
    }
  }
  if (!st->status.ok()) return st->status;
  return st->reply;
}

Status RemoteClient::BreakerAdmit(Peer& peer) {
  if (options_.breaker_failure_threshold <= 0) return Status::OK();
  {
    std::lock_guard<std::mutex> guard(peer.b_mu);
    if (!peer.breaker_open) return Status::OK();
    const auto now = std::chrono::steady_clock::now();
    if (now < peer.breaker_until || peer.probe_inflight) {
      BESS_COUNT_IN(scope_, "client.breaker.short_circuit");
      return Status::RetryLater("circuit open to " + peer.path);
    }
    peer.probe_inflight = true;  // half-open: this caller owns the probe
  }
  BESS_COUNT_IN(scope_, "client.breaker.probe");
  const int probe_wait = std::max(options_.breaker_cooldown_ms, 50);
  uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> guard(peer.p_mu);
    gen = peer.generation;
  }
  uint64_t req_id = 0;
  ReplyFuture fut = CallAsyncOn(peer, kMsgPing, "", &req_id);
  Result<Message> r = AwaitReply(peer, fut, req_id, probe_wait);
  if (!r.ok() && IsTransportFailure(r.status())) {
    // The old socket is dead but the server may be back by now: probe once
    // more on a fresh connection. (This is how an opened breaker heals
    // across a server restart — the regular reconnect path never runs
    // while every call short-circuits.)
    if (Reconnect(peer, gen).ok()) {
      fut = CallAsyncOn(peer, kMsgPing, "", &req_id);
      r = AwaitReply(peer, fut, req_id, probe_wait);
    }
  }
  std::lock_guard<std::mutex> guard(peer.b_mu);
  peer.probe_inflight = false;
  if (r.ok()) {
    // Any reply at all — even an error status — proves the peer serves
    // traffic again.
    peer.breaker_open = false;
    peer.consecutive_failures = 0;
    BESS_COUNT_IN(scope_, "client.breaker.close");
    return Status::OK();
  }
  peer.breaker_until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.breaker_cooldown_ms);
  return Status::RetryLater("half-open probe failed; circuit stays open");
}

void RemoteClient::BreakerRecord(Peer& peer, bool failed) {
  if (options_.breaker_failure_threshold <= 0) return;
  bool opened = false;
  {
    std::lock_guard<std::mutex> guard(peer.b_mu);
    if (!failed) {
      peer.consecutive_failures = 0;
      return;
    }
    peer.consecutive_failures++;
    if (!peer.breaker_open &&
        peer.consecutive_failures >= options_.breaker_failure_threshold) {
      peer.breaker_open = true;
      opened = true;
    }
    if (peer.breaker_open) {
      peer.breaker_until =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.breaker_cooldown_ms);
    }
  }
  if (opened) {
    BESS_COUNT_IN(scope_, "client.breaker.open");
    BESS_DEBUG("breaker opened to " << peer.path);
  }
}

Status RemoteClient::Call(Peer& peer, uint16_t type,
                          const std::string& payload, Message* reply) {
  CountRpcOp(scope_, type);
  BESS_SPAN("rpc.call.latency");
  // Local wait backstop: roughly twice the wire deadline (budget for the
  // queueing the server's shed already accounts for, plus transit), so a
  // wedged server cannot park this caller forever. No deadline = wait
  // forever, as before.
  const int local_wait_ms =
      options_.rpc_deadline_ms > 0
          ? static_cast<int>(options_.rpc_deadline_ms * 2 + 50)
          : -1;
  Status last;
  uint64_t observed_gen = 0;
  int transport_attempts = 0;
  int shed_retries = 0;
  bool need_reconnect = false;
  for (;;) {
    if (need_reconnect) {
      if (++transport_attempts > options_.max_rpc_retries) return last;
      BESS_COUNT_IN(scope_, "rpc.retry");
      ::usleep(kRpcBackoffMs * 1000u << (transport_attempts - 1));
      Status rc = Reconnect(peer, observed_gen);
      if (!rc.ok()) {
        last = rc;
        continue;  // server may still be coming back: back off and retry
      }
      need_reconnect = false;
    }
    // Circuit breaker: while open, fail fast with kRetryLater — no socket
    // traffic, no reconnect storm. The first caller past the cooldown runs
    // the half-open ping probe inside BreakerAdmit.
    BESS_RETURN_IF_ERROR(BreakerAdmit(peer));
    {
      std::lock_guard<std::mutex> guard(peer.p_mu);
      observed_gen = peer.generation;
    }
    BESS_DEBUG("client call send type " << type << " attempt "
               << (transport_attempts + shed_retries));
    uint64_t req_id = 0;
    ReplyFuture fut = CallAsyncOn(peer, type, payload, &req_id);
    Result<Message> r = AwaitReply(peer, fut, req_id, local_wait_ms);
    if (r.ok()) {
      BreakerRecord(peer, /*failed=*/false);
      *reply = std::move(*r);
      BESS_DEBUG("client call got reply " << reply->type);
      if (reply->type == kMsgError) {
        Status e = DecodeStatusReply(*reply);
        // kRetryLater = the server shed us (admission control or WAL
        // backpressure): it is healthy, just full. Back off and resend on
        // the same connection, within its own budget — this never burns a
        // transport retry and never reconnects.
        if (e.IsRetryLater() && shed_retries < options_.retry_later_max) {
          ++shed_retries;
          BESS_COUNT_IN(scope_, "client.retry_later.backoff");
          const uint64_t base =
              static_cast<uint64_t>(options_.retry_later_backoff_ms)
              << std::min(shed_retries - 1, 10);
          uint64_t jittered;
          {
            std::lock_guard<std::mutex> guard(backoff_mutex_);
            jittered = base / 2 + backoff_rng_.Uniform(base / 2 + 1);
          }
          ::usleep(static_cast<useconds_t>(jittered) * 1000u);
          continue;
        }
        // Any other error reply (including kDeadlineExceeded — the server
        // refused unexecuted work whose budget ran out) is the operation's
        // outcome: never retried.
        return e;
      }
      return Status::OK();
    }
    Status s = r.status();
    last = s;
    if (s.IsDeadlineExceeded()) {
      // Gave up waiting locally. The budget is gone — a retry would only
      // expire again — so surface it, but feed the breaker: enough of
      // these in a row and subsequent calls fail fast instead of each
      // burning a full deadline against a wedged server.
      BreakerRecord(peer, /*failed=*/true);
      BESS_COUNT_IN(scope_, "client.deadline.local");
      return s;
    }
    if (!IsTransportFailure(s)) return s;
    BreakerRecord(peer, /*failed=*/true);
    if (!IsIdempotentRpc(type)) {
      // The request may have reached the server even though the send or the
      // reply failed; replaying it could apply the operation twice.
      return Status::Aborted("RPC outcome unknown after transport failure (op " +
                             std::to_string(type) + "): " + s.message());
    }
    need_reconnect = true;
  }
}

Status RemoteClient::Reconnect(Peer& peer, uint64_t observed_generation) {
  {
    std::unique_lock<std::mutex> guard(peer.p_mu);
    if (peer.generation != observed_generation) {
      // Another thread reconnected since our attempt failed: ride its work.
      return Status::OK();
    }
    peer.generation++;
  }
  BESS_COUNT_IN(scope_, "rpc.reconnect");
  // Retire the old reader (it exits on the generation bump; shutdown wakes
  // it if parked) and fail whatever was still in flight.
  StopReader(&peer);
  FailAllPending(&peer, Status::IOError("connection reset by reconnect"));
  if (callbacks_ != nullptr && &peer == &primary_) callbacks_->OnSessionLost();

  // Swap the socket under send_mu so concurrent pipelined sends can never
  // interleave with the handshake.
  {
    std::lock_guard<std::mutex> guard(peer.send_mu);
    peer.main.Close();
    BESS_ASSIGN_OR_RETURN(const uint64_t new_session, OpenSession(peer));

    if (&peer == &primary_) session_id_.store(new_session);
  }
  StartReader(&peer);

  // The server released the dead session's locks, so every cached lock —
  // and the 2PL guarantee of any transaction in flight — is gone.
  std::lock_guard<std::mutex> guard(mutex_);
  cached_locks_.clear();
  key_home_.clear();
  active_segment_.clear();
  evict_after_reconnect_ = true;
  if (in_txn_ && poison_.ok()) {
    poison_ = Status::Aborted(
        "connection lost mid-transaction: server released our locks");
  }
  return Status::OK();
}

RemoteClient::Peer& RemoteClient::PeerFor(uint16_t db_id) {
  for (auto& peer : extra_peers_) {
    for (uint16_t id : peer->db_ids) {
      if (id == db_id) return *peer;
    }
  }
  return primary_;
}

Status RemoteClient::AddServer(const std::string& server_path,
                               const std::vector<uint16_t>& db_ids) {
  auto peer = std::make_unique<Peer>();
  peer->path = server_path;
  peer->db_ids = db_ids;
  BESS_RETURN_IF_ERROR(OpenSession(*peer).status());
  StartReader(peer.get());
  extra_peers_.push_back(std::move(peer));
  return Status::OK();
}

Status RemoteClient::SyncTypes() {
  std::string payload;
  PutFixed16(&payload, options_.db_id);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgFetchTypes, payload, &reply));
  Decoder dec(reply.payload);
  return types_.DecodeFrom(&dec);
}

// ---- locking ------------------------------------------------------------------

Status RemoteClient::EnsureLock(uint64_t key, LockMode mode, SegmentId home) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = cached_locks_.find(key);
    if (it != cached_locks_.end() && LockJoin(it->second, mode) == it->second) {
      // Cached from an earlier transaction: no server round trip (§3).
      in_use_.insert(key);
      BESS_COUNT_IN(scope_, "rpc.lock.cache_hit");
      return Status::OK();
    }
  }
  // RPC outside the client mutex: the callback thread must stay responsive
  // while we wait (the server may be calling *us* back for another lock).
  std::string payload;
  PutFixed64(&payload, key);
  payload.push_back(static_cast<char>(mode));
  PutFixed32(&payload, static_cast<uint32_t>(options_.lock_timeout_ms));
  Message reply;
  // kDeadlock means the server's wait timed out — usually transient
  // contention (the holder's transaction will finish), not a true cycle.
  // Retry with exponential backoff; jitter desynchronizes clients that timed
  // out against each other so they don't collide again in lockstep.
  Status lock_status;
  for (int attempt = 0;; ++attempt) {
    lock_status = Call(PeerFor(home.db), kMsgLock, payload, &reply);
    if (!lock_status.IsDeadlock() || attempt >= options_.lock_retries) break;
    const uint64_t base = static_cast<uint64_t>(options_.lock_backoff_ms)
                          << attempt;
    uint64_t jittered;
    {
      std::lock_guard<std::mutex> guard(backoff_mutex_);
      jittered = base / 2 + backoff_rng_.Uniform(base / 2 + 1);
    }
    BESS_COUNT_IN(scope_, "client.lock.backoff");
    ::usleep(static_cast<useconds_t>(jittered) * 1000u);
  }
  BESS_RETURN_IF_ERROR(lock_status);

  std::lock_guard<std::mutex> guard(mutex_);
  auto it = cached_locks_.find(key);
  cached_locks_[key] =
      it == cached_locks_.end() ? mode : LockJoin(it->second, mode);
  in_use_.insert(key);
  key_home_[key] = home.Pack();
  return Status::OK();
}

Status RemoteClient::OnSegmentRead(SegmentId id) {
  Status s = EnsureLock(LockKey::Segment(id.Pack()), LockMode::kS, id);
  if (!s.ok()) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (poison_.ok()) poison_ = s;
  }
  return Status::OK();
}

Status RemoteClient::OnPageWrite(SegmentId id, PageAddr page) {
  Status s = EnsureLock(LockKey::Segment(id.Pack()), LockMode::kIX, id);
  if (s.ok()) {
    s = EnsureLock(LockKey::Page(page.db, page.area, page.page), LockMode::kX,
                   id);
  }
  if (!s.ok()) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (poison_.ok()) poison_ = s;
  }
  return Status::OK();
}

// ---- callbacks ----------------------------------------------------------------

void RemoteClient::CallbackLoop() {
  // A callback from a session a reconnect replaced is dropped unanswered:
  // the server already released that session's locks, and the new session
  // never asked.
  auto current = [this](uint64_t generation) {
    std::lock_guard<std::mutex> guard(primary_.p_mu);
    return primary_.generation == generation;
  };
  for (;;) {
    QueuedCallback cb;
    {
      std::unique_lock<std::mutex> lock(cb_mu_);
      cb_cv_.wait(lock, [this] { return cb_stop_ || !cb_queue_.empty(); });
      if (cb_stop_) return;
      cb = cb_queue_.front();
      cb_queue_.pop_front();
    }
    if (!current(cb.generation)) continue;
    const Status s = callbacks_ != nullptr
                         ? callbacks_->OnCallback(cb.key, cb.wanted)
                         : HandleCallback(cb.key, cb.wanted);
    std::string answer;
    PutFixed64(&answer, cb.key);
    // Reconnect swaps the socket under send_mu after bumping the generation,
    // so checking under send_mu keeps the answer on the session that asked.
    std::lock_guard<std::mutex> guard(primary_.send_mu);
    if (!current(cb.generation)) continue;
    (void)primary_.main.Send(
        s.ok() ? kMsgCallbackReleased : kMsgCallbackDenied, answer);
  }
}

Status RemoteClient::HandleCallback(uint64_t key, LockMode wanted) {
  (void)wanted;
  BESS_COUNT_IN(scope_, "client.callback.received");
  std::unique_lock<std::mutex> guard(mutex_);
  if (in_use_.count(key)) {
    // The lock protects work of the active transaction: refuse; the
    // requester waits until this transaction ends (§3).
    BESS_COUNT_IN(scope_, "client.callback.denied");
    return Status::Busy("lock in use by active transaction");
  }
  auto home = key_home_.find(key);
  const SegmentId seg = home != key_home_.end()
                            ? SegmentId::Unpack(home->second)
                            : SegmentId{};
  cached_locks_.erase(key);
  key_home_.erase(key);
  guard.unlock();
  if (seg.valid()) {
    // Giving back the lock means our cached copy may go stale: drop it so
    // the next access refetches from the server.
    Status s = mapper_->Evict(seg, /*drop_dirty=*/false);
    if (s.IsBusy()) {
      // Dirty but not in use should not happen (dirty => in_use); be safe.
      BESS_COUNT_IN(scope_, "client.callback.denied");
      return s;
    }
  }
  // Counted once the outcome is final: a release is never taken back.
  BESS_COUNT_IN(scope_, "client.callback.released");
  return Status::OK();
}

// ---- transactions ---------------------------------------------------------------

Status RemoteClient::Begin() {
  bool evict = false;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (in_txn_) return Status::InvalidArgument("transaction already active");
    in_txn_ = true;
    poison_ = Status::OK();
    in_use_.clear();
    evict = evict_after_reconnect_;
    evict_after_reconnect_ = false;
  }
  if (evict) {
    // A reconnect happened since the last boundary: cached pages may be
    // stale copies of data another client modified while we held no locks.
    BESS_RETURN_IF_ERROR(mapper_->EvictAll(/*drop_dirty=*/true));
  }
  return Status::OK();
}

Status RemoteClient::Commit(CommitStats* out) {
  const uint64_t start_ns = obs::Trace::NowNs();
  uint64_t shipped_bytes = 0;
  Status poison;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!in_txn_) return Status::InvalidArgument("no active transaction");
    poison = poison_;
  }
  if (!poison.ok()) {
    (void)Abort();
    return poison;
  }
  std::vector<PageImage> pages;
  BESS_RETURN_IF_ERROR(mapper_->CollectDirty(&pages));
  const size_t pages_shipped = pages.size();

  // Partition pages by the peer that owns their database.
  std::unordered_map<Peer*, std::vector<PageImage>> by_peer;
  for (PageImage& img : pages) {
    by_peer[&PeerFor(img.db)].push_back(std::move(img));
  }

  Status outcome;
  if (by_peer.size() <= 1) {
    // Single server: one-phase commit. The ctid prefix makes the RPC safely
    // retryable — if the commit applied but the reply was lost, the server
    // recognizes the replay and reports OK without applying twice.
    if (!by_peer.empty()) {
      const uint64_t ctid =
          (session_id_.load() << 32) |
          next_gtid_.fetch_add(1, std::memory_order_relaxed);
      std::string payload;
      PutFixed64(&payload, ctid);
      EncodePageSet(by_peer.begin()->second, &payload);
      shipped_bytes += payload.size();
      Message reply;
      outcome = Call(*by_peer.begin()->first, kMsgCommit, payload, &reply);
    }
  } else {
    // Two-phase commit: this client coordinates (paper §3: distributed
    // processing is performed by the first server the application connects
    // to; the coordinator logic lives in its client library).
    const uint64_t gtid =
        (session_id_.load() << 32) |
        next_gtid_.fetch_add(1, std::memory_order_relaxed);
    bool all_prepared = true;
    for (auto& [peer, set] : by_peer) {
      std::string payload;
      PutFixed64(&payload, gtid);
      EncodePageSet(set, &payload);
      shipped_bytes += payload.size();
      Message reply;
      Status s = Call(*peer, kMsgPrepare, payload, &reply);
      if (!s.ok()) {
        all_prepared = false;
        outcome = s;
        break;
      }
    }
    // Coordinator crashpoint: between prepare and decision every participant
    // is in-doubt and must resolve via presumed abort (dead-session cleanup
    // on the server, or restart recovery). kCrash kills us right here; a
    // kFail spec simulates a coordinator that silently forgets its decision.
    if (all_prepared) {
      Status s = fault::Check("client.2pc.decision");
      if (!s.ok()) {
        (void)Abort();
        return s;
      }
    }
    std::string decision;
    PutFixed64(&decision, gtid);
    for (auto& [peer, set] : by_peer) {
      (void)set;
      Message reply;
      Status s = Call(*peer,
                      all_prepared ? kMsgCommitPrepared : kMsgAbortPrepared,
                      decision, &reply);
      if (all_prepared && !s.ok()) outcome = s;
    }
    if (!all_prepared && outcome.ok()) {
      outcome = Status::Aborted("2PC prepare failed");
    }
  }

  if (!outcome.ok()) {
    (void)Abort();
    return outcome;
  }
  BESS_RETURN_IF_ERROR(mapper_->MarkClean());

  const uint64_t dur_ns = obs::Trace::NowNs() - start_ns;
  BESS_COUNT("txn.commit");
  BESS_HIST("txn.commit.latency", dur_ns);

  std::unique_lock<std::mutex> guard(mutex_);
  if (out != nullptr) {
    out->log_bytes = shipped_bytes;
    out->pages_forced = static_cast<uint32_t>(pages_shipped);
    out->locks_held = static_cast<uint32_t>(in_use_.size());
    out->duration_ns = dur_ns;
  }
  in_txn_ = false;
  in_use_.clear();
  if (!options_.cache_inter_txn) {
    // Node-less client behaviour (§3): drop data and locks at txn end.
    cached_locks_.clear();
    key_home_.clear();
    guard.unlock();
    // Drop the cache but keep reservations: held references refault.
    BESS_RETURN_IF_ERROR(mapper_->EvictAll());
    Message reply;
    return Call(primary_, kMsgReleaseAll, "", &reply);
  }
  return Status::OK();
}

Status RemoteClient::Abort() {
  bool evict = false;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    evict = evict_after_reconnect_;
    evict_after_reconnect_ = false;
  }
  if (evict) BESS_RETURN_IF_ERROR(mapper_->EvictAll(/*drop_dirty=*/true));
  BESS_RETURN_IF_ERROR(mapper_->DiscardDirty());
  std::unique_lock<std::mutex> guard(mutex_);
  in_txn_ = false;
  in_use_.clear();
  poison_ = Status::OK();
  if (!options_.cache_inter_txn) {
    cached_locks_.clear();
    key_home_.clear();
    guard.unlock();
    BESS_RETURN_IF_ERROR(mapper_->EvictAll(/*drop_dirty=*/true));
    Message reply;
    return Call(primary_, kMsgReleaseAll, "", &reply);
  }
  return Status::OK();
}

// ---- objects --------------------------------------------------------------------

Result<SegmentId> RemoteClient::ActiveSegment(uint16_t file_id,
                                              uint32_t min_bytes) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = active_segment_.find(file_id);
    if (it != active_segment_.end()) return SegmentId::Unpack(it->second);
  }
  std::string payload;
  PutFixed16(&payload, options_.db_id);
  PutFixed16(&payload, file_id);
  PutFixed32(&payload, min_bytes);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgNewObjectSegment, payload, &reply));
  BESS_ASSIGN_OR_RETURN(NewSegmentReply grant,
                        NewSegmentReply::DecodeFrom(reply.payload));
  BESS_RETURN_IF_ERROR(EnsureLock(LockKey::Segment(grant.id.Pack()),
                                  LockMode::kX, grant.id));
  BESS_RETURN_IF_ERROR(mapper_
                           ->InstallNewSegment(
                               grant.id, file_id, grant.slotted_pages,
                               grant.slot_capacity, grant.outbound_capacity,
                               grant.data_area, grant.data_first_page,
                               grant.data_page_count)
                           .status());
  std::lock_guard<std::mutex> guard(mutex_);
  active_segment_[file_id] = grant.id.Pack();
  return grant.id;
}

Result<Slot*> RemoteClient::CreateObject(uint16_t file_id, TypeIdx type,
                                         uint32_t size, const void* init) {
  if (size > kMaxTransparentObjectSize) {
    return Status::InvalidArgument(
        "objects above 64 KB use the byte-range large-object class");
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    BESS_ASSIGN_OR_RETURN(SegmentId home, ActiveSegment(file_id, size));
    BESS_RETURN_IF_ERROR(
        EnsureLock(LockKey::Segment(home.Pack()), LockMode::kX, home));
    Result<Slot*> slot = mapper_->CreateObject(home, type, size, init);
    if (slot.ok() || !slot.status().IsNoSpace()) return slot;
    // Active segment full: forget it and request a fresh one.
    std::lock_guard<std::mutex> guard(mutex_);
    active_segment_.erase(file_id);
  }
  return Status::Internal("object placement failed twice");
}

std::string RemoteClient::NamedPayload(const std::string& name) const {
  std::string payload;
  PutFixed16(&payload, options_.db_id);
  PutLengthPrefixed(&payload, name);
  return payload;
}

Result<uint16_t> RemoteClient::CreateFile(const std::string& name,
                                          bool multifile) {
  std::string payload = NamedPayload(name);
  payload.push_back(multifile ? 1 : 0);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgCreateFile, payload, &reply));
  if (reply.payload.size() < 2) return Status::Protocol("bad CreateFile reply");
  return DecodeFixed16(reply.payload.data());
}

Result<uint16_t> RemoteClient::FindFile(const std::string& name) {
  std::string payload = NamedPayload(name);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgFindFile, payload, &reply));
  if (reply.payload.size() < 2) return Status::Protocol("bad FindFile reply");
  return DecodeFixed16(reply.payload.data());
}

Result<TypeIdx> RemoteClient::RegisterType(const TypeDescriptor& desc) {
  std::string payload;
  PutFixed16(&payload, options_.db_id);
  desc.EncodeTo(&payload);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgRegisterType, payload, &reply));
  if (reply.payload.size() < 4) {
    return Status::Protocol("bad RegisterType reply");
  }
  // Refresh the local table so indices agree with the server's assignment.
  BESS_RETURN_IF_ERROR(SyncTypes());
  return DecodeFixed32(reply.payload.data());
}

Result<Slot*> RemoteClient::GetRoot(const std::string& name) {
  std::string payload = NamedPayload(name);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgGetRoot, payload, &reply));
  if (reply.payload.size() != 12) return Status::Protocol("bad GetRoot reply");
  return Deref(Oid::DecodeFrom(reply.payload.data()));
}

Status RemoteClient::SetRoot(const std::string& name, Slot* slot) {
  BESS_ASSIGN_OR_RETURN(Oid oid, OidOf(slot));
  std::string payload = NamedPayload(name);
  char buf[12];
  oid.EncodeTo(buf);
  payload.append(buf, 12);
  Message reply;
  return Call(primary_, kMsgSetRoot, payload, &reply);
}

Result<Oid> RemoteClient::OidOf(Slot* slot) {
  SegmentId id;
  uint16_t slot_no;
  BESS_RETURN_IF_ERROR(mapper_->ResolveSlotAddress(slot, &id, &slot_no));
  Oid oid;
  oid.host = 1;
  oid.db = static_cast<uint8_t>(id.db);
  oid.area = static_cast<uint8_t>(id.area);
  oid.page = id.first_page;
  oid.slot = slot_no;
  oid.uniq = static_cast<uint16_t>(slot->uniquifier);
  return oid;
}

Result<Slot*> RemoteClient::Deref(const Oid& oid) {
  BESS_ASSIGN_OR_RETURN(SlottedView view,
                        mapper_->FetchSlottedNow(oid.segment()));
  if (oid.slot >= view.header()->slot_count) {
    return Status::NotFound("stale OID: " + oid.ToString());
  }
  Slot* slot = view.slot(oid.slot);
  if (!slot->in_use() ||
      static_cast<uint16_t>(slot->uniquifier) != oid.uniq) {
    return Status::NotFound("stale OID: " + oid.ToString());
  }
  return slot;
}

Result<::bess::Stats> RemoteClient::ServerStats() {
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgGetStats, "", &reply));
  return ::bess::Stats::DecodeFrom(reply.payload);
}

Result<ScrubReport> RemoteClient::Scrub() {
  std::string payload;
  PutFixed16(&payload, options_.db_id);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgScrub, payload, &reply));
  if (reply.payload.size() != 32) return Status::Protocol("bad Scrub reply");
  Decoder dec(reply.payload);
  ScrubReport report;
  report.pages_scanned = dec.GetFixed64();
  report.verify_failures = dec.GetFixed64();
  report.repaired = dec.GetFixed64();
  report.quarantined = dec.GetFixed64();
  return report;
}

// ---- secondary indexes ------------------------------------------------------

Status RemoteClient::IndexCreate(const std::string& name) {
  std::string payload = NamedPayload(name);
  Message reply;
  return Call(primary_, kMsgIndexCreate, payload, &reply);
}

Status RemoteClient::IndexDrop(const std::string& name) {
  std::string payload = NamedPayload(name);
  Message reply;
  return Call(primary_, kMsgIndexDrop, payload, &reply);
}

Status RemoteClient::IndexPut(const std::string& name, Slice key,
                              Slice value) {
  std::string payload = NamedPayload(name);
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, value);
  Message reply;
  return Call(primary_, kMsgIndexPut, payload, &reply);
}

Status RemoteClient::IndexDelete(const std::string& name, Slice key,
                                 bool* existed) {
  std::string payload = NamedPayload(name);
  PutLengthPrefixed(&payload, key);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgIndexDel, payload, &reply));
  if (reply.payload.empty()) return Status::Protocol("bad IndexDel reply");
  if (existed != nullptr) *existed = reply.payload[0] != 0;
  return Status::OK();
}

Result<bool> RemoteClient::IndexGet(const std::string& name, Slice key,
                                    std::string* value) {
  std::string payload = NamedPayload(name);
  PutLengthPrefixed(&payload, key);
  Message reply;
  BESS_RETURN_IF_ERROR(Call(primary_, kMsgIndexGet, payload, &reply));
  if (reply.payload.empty()) return Status::Protocol("bad IndexGet reply");
  const bool found = reply.payload[0] != 0;
  if (found && value != nullptr) {
    Decoder dec(Slice(reply.payload.data() + 1, reply.payload.size() - 1));
    *value = dec.GetLengthPrefixed().ToString();
    if (!dec.ok()) return Status::Protocol("bad IndexGet reply");
  }
  return found;
}

Status RemoteClient::IndexScan(
    const std::string& name, Slice lo, Slice hi,
    const std::function<Status(Slice key, Slice value)>& fn) {
  std::string cursor = lo.ToString();
  for (;;) {
    std::string payload = NamedPayload(name);
    PutLengthPrefixed(&payload, cursor);
    PutLengthPrefixed(&payload, hi);
    PutFixed32(&payload, kIndexScanMaxEntries);
    Message reply;
    BESS_RETURN_IF_ERROR(Call(primary_, kMsgIndexScan, payload, &reply));
    Decoder dec(reply.payload);
    const uint32_t n = dec.GetFixed32();
    std::string last_key;
    for (uint32_t i = 0; i < n; ++i) {
      Slice k = dec.GetLengthPrefixed();
      Slice v = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexScan reply");
      last_key.assign(k.data(), k.size());
      BESS_RETURN_IF_ERROR(fn(k, v));
    }
    if (dec.remaining() < 1) return Status::Protocol("bad IndexScan reply");
    const bool truncated = dec.GetBytes(1).data()[0] != 0;
    if (!truncated) return Status::OK();
    // Resume just past the last delivered key ('\0' is the smallest
    // one-byte extension in bytewise order).
    cursor = last_key + std::string(1, '\0');
  }
}

}  // namespace bess
