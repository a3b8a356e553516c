// RemoteClient: a BeSS client application's connection to a BeSS server —
// the *copy on access* operation mode over the network (paper §3, §4.1.1).
//
// The client runs the full reference machinery locally: a SegmentMapper over
// a RemoteStore that fetches segments from the server into the private
// cache. Locks are acquired from the server through the fault path and,
// together with the data, stay *cached between transactions*; the server
// reclaims them with callbacks when another client conflicts (§3).
// Constructing the client with `cache_inter_txn = false` reproduces the
// paper's node-less client behaviour: "data and locks are cached only
// during the duration of a transaction".
//
// Distributed commits across several servers use two-phase commit with this
// client acting for its first server as the coordinator (paper §3).
#ifndef BESS_SERVER_REMOTE_CLIENT_H_
#define BESS_SERVER_REMOTE_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "object/oid.h"
#include "obs/scope.h"
#include "server/protocol.h"
#include "storage/page_io.h"
#include "util/random.h"
#include "vm/mapper.h"

namespace bess {

struct CommitStats;  // object/database.h

/// The eventual reply of a pipelined RPC issued with CallAsync. Shareable
/// and cheap to copy; Get() blocks until the reply (or the transport
/// failure that killed it) arrives. See bess/bess.h §"Pipelined RPCs".
class ReplyFuture {
 public:
  ReplyFuture() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the reply is in. A kMsgError reply is returned as a
  /// Message (decode with DecodeStatusReply); a non-OK Result means the
  /// transport died before the reply arrived. Idempotent.
  Result<Message> Get();

 private:
  friend class RemoteClient;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;  ///< transport outcome; OK = `reply` is valid
    Message reply;

    /// Resolves the future and wakes its waiters.
    void Finish(Status s, Message m) {
      std::lock_guard<std::mutex> guard(mu);
      done = true;
      status = std::move(s);
      reply = std::move(m);
      cv.notify_all();
    }
  };
  std::shared_ptr<State> state_;
};

/// How a RemoteClient that caches on behalf of others answers its server's
/// callbacks (paper §3) — a node server answers for its applications
/// (DESIGN.md §11). Without one, a client releases a cached lock unless its
/// active transaction uses it.
class LockCallbackPolicy {
 public:
  virtual ~LockCallbackPolicy() = default;
  /// On the callback thread: OK releases `key` (the policy has dropped what
  /// it covered); an error denies it.
  virtual Status OnCallback(uint64_t key, LockMode wanted) = 0;
  /// The server session was abandoned (a reconnect follows): every lock it
  /// held is gone. Runs on the thread that detected the failure.
  virtual void OnSessionLost() = 0;
};

class RemoteClient : public AccessObserver {
 public:
  struct Options {
    std::string server_path;
    uint16_t db_id = 1;
    bool cache_inter_txn = true;  ///< keep data + locks across transactions
    uint32_t simulated_latency_us = 0;
    int lock_timeout_ms = kLockTimeoutMillis;
    /// Transport-failure resilience: how many times one RPC is retried
    /// (reconnecting first, with a backoff doubling from 5 ms) before the
    /// error surfaces.
    int max_rpc_retries = 3;
    /// Contention resilience: a lock RPC answered with kDeadlock (the server's
    /// wait timed out under the callback algorithm) is retried this many
    /// times with exponential backoff + jitter before the error surfaces.
    int lock_retries = 4;
    int lock_backoff_ms = 10;

    // ---- overload resilience (DESIGN.md §12) ----------------------------

    /// Deadline stamped on every RPC (wire header, relative ms): the server
    /// sheds the request with kDeadlineExceeded if the budget expires while
    /// it is queued, and the client gives up waiting locally at roughly
    /// twice the budget (a wedged server can't park callers forever).
    /// 0 = no deadline.
    uint32_t rpc_deadline_ms = 0;
    /// Retry budget for kRetryLater sheds (admission control / WAL
    /// backpressure): retried this many times with exponential backoff —
    /// no reconnect; the server is healthy, just full.
    int retry_later_max = 5;
    int retry_later_backoff_ms = 5;
    /// Circuit breaker: this many *consecutive* transport failures or
    /// local deadline timeouts on one peer open its breaker; calls then
    /// fail fast with kRetryLater (no socket traffic) until cooldown_ms
    /// passes, after which one caller probes with a ping (half-open) and
    /// any reply closes the breaker. 0 disables the breaker.
    int breaker_failure_threshold = 0;
    int breaker_cooldown_ms = 100;
    SegmentMapper::Options mapper;
  };

  /// With a `callbacks` policy (which must outlive the client) the client
  /// builds no object layer: only Call/CallAsync/Flush/ServerStats work.
  static Result<std::unique_ptr<RemoteClient>> Connect(
      Options options, LockCallbackPolicy* callbacks = nullptr);
  ~RemoteClient() override;

  // ---- transactions ----------------------------------------------------------

  Status Begin();
  /// Commits; `out`, when non-null, receives what the commit cost
  /// (log_bytes here counts the commit RPC payload bytes shipped).
  Status Commit(CommitStats* out = nullptr);
  Status Abort();

  // ---- pipelined RPCs --------------------------------------------------------

  /// Issues one raw RPC to the primary server without waiting for the reply:
  /// many calls may be in flight on the one connection, correlated by
  /// request id, and the server may be executing them while earlier replies
  /// are still in transit. No retry/reconnect machinery — the future
  /// resolves to the reply or to the transport failure. The synchronous
  /// surface (and its retry semantics) is built on top of this.
  ReplyFuture CallAsync(uint16_t type, const std::string& payload);

  /// One synchronous RPC to the primary server with retry/reconnect,
  /// deadline, kRetryLater backoff and breaker; error replies as Status.
  Status Call(uint16_t type, const std::string& payload, Message* reply);

  /// Barrier: blocks until every in-flight RPC on every peer has resolved
  /// (successfully or not). Useful before asserting server-side state.
  Status Flush();

  /// The server's own metrics snapshot (kMsgGetStats over the wire).
  Result<::bess::Stats> ServerStats();

  /// Asks the server to sweep every page of the client's database, verifying
  /// checksums and repairing/quarantining mismatches (kMsgScrub).
  Result<ScrubReport> Scrub();

  // ---- secondary indexes (server-side micro-commits; DESIGN.md §14) ---------

  Status IndexCreate(const std::string& name);
  Status IndexDrop(const std::string& name);
  Status IndexPut(const std::string& name, Slice key, Slice value);
  /// Removes `key`; *existed (optional) reports whether it was present.
  Status IndexDelete(const std::string& name, Slice key,
                     bool* existed = nullptr);
  /// Point lookup: true + *value when present.
  Result<bool> IndexGet(const std::string& name, Slice key,
                        std::string* value);
  /// Ordered scan of [lo, hi] inclusive (empty = open end). Wide ranges are
  /// fetched in server-bounded batches (kIndexScanMaxEntries per RPC) and
  /// stitched back together transparently.
  Status IndexScan(const std::string& name, Slice lo, Slice hi,
                   const std::function<Status(Slice key, Slice value)>& fn);

  // ---- objects (client-side creation in the cache, write-back at commit) ----

  Result<Slot*> CreateObject(uint16_t file_id, TypeIdx type, uint32_t size,
                             const void* init = nullptr);
  Result<uint16_t> CreateFile(const std::string& name, bool multifile = false);
  Result<uint16_t> FindFile(const std::string& name);
  Result<TypeIdx> RegisterType(const TypeDescriptor& desc);
  Result<Slot*> GetRoot(const std::string& name);
  Status SetRoot(const std::string& name, Slot* slot);
  Result<Oid> OidOf(Slot* slot);
  Result<Slot*> Deref(const Oid& oid);

  // ---- 2PC across several servers (this client coordinates) -----------------

  /// Opens an additional connection to another server (for databases it
  /// owns); pages for those databases commit through 2PC.
  Status AddServer(const std::string& server_path,
                   const std::vector<uint16_t>& db_ids);

  SegmentMapper* mapper() { return mapper_.get(); }
  TypeTable* types() { return &types_; }
  /// rpc.* and client.* counters, including client.callback.{received,
  /// released,denied} (received = released + denied).
  Stats stats() const { return scope_.Snapshot(); }

  // AccessObserver: automatic lock acquisition from the fault path.
  Status OnSegmentRead(SegmentId id) override;
  Status OnPageWrite(SegmentId id, PageAddr page) override;

 private:
  class RemoteStore;

  /// One server connection. Requests are framed onto the socket under
  /// `send_mu` (many threads may pipeline concurrently); a per-peer reader
  /// thread demultiplexes replies back to their futures by request id and
  /// hands the server's callbacks to the callback thread.
  struct Peer {
    MsgSocket main;
    std::mutex send_mu;  ///< serializes frame writes onto the socket
    std::string path;    ///< server socket path, for reconnect
    std::vector<uint16_t> db_ids;

    /// Guards everything below: the in-flight map, the reconnect
    /// generation, and reader-thread management.
    std::mutex p_mu;
    std::unordered_map<uint64_t, std::shared_ptr<ReplyFuture::State>> pending;
    std::condition_variable drained_cv;  ///< signalled when pending empties
    /// Bumped by every (successful or not) Reconnect: a reader observing a
    /// newer generation exits, and a Call that observed an older one skips
    /// its own reconnect — someone already did it.
    uint64_t generation = 0;
    std::thread reader;

    /// Circuit breaker (guarded by `b_mu`, separate from p_mu so breaker
    /// checks never contend with reply demultiplexing). Consecutive
    /// transport failures / local timeouts open it; while open, calls fail
    /// fast with kRetryLater; after the cooldown one caller probes with a
    /// ping (half-open) and any reply closes it.
    std::mutex b_mu;
    int consecutive_failures = 0;
    bool breaker_open = false;
    std::chrono::steady_clock::time_point breaker_until{};
    bool probe_inflight = false;
  };

  RemoteClient() = default;

  /// Connects `peer.main` to `peer.path` and says hello, declaring the
  /// primary's session callable; returns the new session id. The reader
  /// thread is not started.
  Result<uint64_t> OpenSession(Peer& peer);
  Status Call(Peer& peer, uint16_t type, const std::string& payload,
              Message* reply);
  ReplyFuture CallAsyncOn(Peer& peer, uint16_t type,
                          const std::string& payload,
                          uint64_t* req_id_out = nullptr);
  /// Blocks for the future like ReplyFuture::Get, but gives up after
  /// `timeout_ms` (> 0), withdrawing the pending entry and failing the
  /// future with kDeadlineExceeded — the local backstop for a wedged
  /// server. timeout_ms <= 0 waits forever.
  Result<Message> AwaitReply(Peer& peer, ReplyFuture& fut, uint64_t req_id,
                             int timeout_ms);
  /// Circuit-breaker admission for one attempt on `peer`. OK = proceed
  /// (possibly after this caller ran the half-open ping probe);
  /// kRetryLater = breaker open, fail fast.
  Status BreakerAdmit(Peer& peer);
  /// Feeds the breaker: `failed` = transport failure or local timeout
  /// (server error replies are *successes* here — the server answered).
  void BreakerRecord(Peer& peer, bool failed);
  void ReaderLoop(Peer* peer, uint64_t generation);
  void StartReader(Peer* peer);
  /// Shuts the peer's socket and joins its reader (used by teardown).
  void StopReader(Peer* peer);
  void FailAllPending(Peer* peer, const Status& s);
  /// Removes `req_id` from the in-flight map; true means the caller now
  /// owns completing its future (the reader did not get there first).
  bool Withdraw(Peer& peer, uint64_t req_id);
  /// Re-establishes a failed peer connection: fresh session (the server has
  /// already — or will — release the dead session's locks), client lock/data
  /// caches invalidated, any active transaction poisoned (its 2PL guarantee
  /// is gone), callbacks still queued from the old session dropped. A no-op if
  /// `observed_generation` is stale (a concurrent caller reconnected first).
  Status Reconnect(Peer& peer, uint64_t observed_generation);
  Peer& PeerFor(uint16_t db_id);
  Status EnsureLock(uint64_t key, LockMode mode, SegmentId home);
  Status SyncTypes();
  /// The callback thread: answers the primary's queued callbacks in order
  /// on the primary socket, dropping those of a replaced session.
  void CallbackLoop();
  Status HandleCallback(uint64_t key, LockMode wanted);
  Result<SegmentId> ActiveSegment(uint16_t file_id, uint32_t min_bytes);
  /// A request payload naming `name` in this client's database.
  std::string NamedPayload(const std::string& name) const;

  Options options_;
  obs::Scope scope_;  ///< declared early: every thread below counts into it
  LockCallbackPolicy* callbacks_ = nullptr;
  Peer primary_;
  std::vector<std::unique_ptr<Peer>> extra_peers_;
  /// A kMsgCallback the primary's reader queued, tagged with the
  /// connection generation (session) it arrived on.
  struct QueuedCallback {
    uint64_t generation;
    uint64_t key;
    LockMode wanted;
  };
  std::mutex cb_mu_;  ///< guards cb_queue_ and cb_stop_
  std::condition_variable cb_cv_;
  std::deque<QueuedCallback> cb_queue_;
  bool cb_stop_ = false;
  std::thread callback_thread_;
  std::atomic<uint64_t> session_id_{0};
  std::atomic<uint64_t> next_req_id_{1};

  TypeTable types_;
  std::unique_ptr<RemoteStore> store_;
  std::unique_ptr<SegmentMapper> mapper_;

  mutable std::mutex mutex_;
  bool in_txn_ = false;
  // Set by Reconnect: cached data may be stale (our locks were released
  // server-side); consumed at the next transaction boundary, where the whole
  // client cache is dropped. Deferred because Reconnect can run inside a
  // mapper fault (EvictAll there would re-enter the mapper).
  bool evict_after_reconnect_ = false;
  Status poison_;  // first lock failure of the active transaction
  std::unordered_map<uint64_t, LockMode> cached_locks_;  // key -> mode
  std::set<uint64_t> in_use_;  // keys the current transaction relies on
  std::unordered_map<uint64_t, uint64_t> key_home_;  // key -> packed SegmentId
  std::unordered_map<uint16_t, uint64_t> active_segment_;  // file -> packed
  std::atomic<uint64_t> next_gtid_{1};
  std::mutex backoff_mutex_;  // protects backoff_rng_ (jitter for retries)
  Random backoff_rng_{reinterpret_cast<uint64_t>(this)};
};

}  // namespace bess

#endif  // BESS_SERVER_REMOTE_CLIENT_H_
