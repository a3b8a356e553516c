// The BeSS server (paper §3, Figure 2).
//
// "Each BeSS server manages a number of storage areas and provides
// distributed transaction management, concurrency control and recovery for
// the databases stored in these areas." Clients connect over two channels
// (request/response + callback); the server grants locks with the callback
// locking algorithm [17, 19]: when a request conflicts with a lock *cached*
// by another client, the server calls that client back; the client releases
// the lock if no active transaction uses it, otherwise the requester waits
// (timeouts standing in for distributed deadlock detection).
//
// Sessions, the reactor and the callback-locking wait are the shared
// SessionCore (DESIGN.md §11); BessServer is the core's request handler over
// the databases it owns.
//
// The server is an *open server*: trusted code can be linked with it — in
// this codebase that simply means constructing BessServer inside your own
// process and registering hooks or using the owned Databases directly
// (§2.4, §5 "value added server").
#ifndef BESS_SERVER_BESS_SERVER_H_
#define BESS_SERVER_BESS_SERVER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "object/database.h"
#include "server/protocol.h"
#include "server/session_core.h"

namespace bess {

class BessServer : private SessionCore::Handler {
 public:
  using Options = SessionCore::Options;

  explicit BessServer(Options options);
  ~BessServer() override;

  /// Registers a database this server owns (not transferred).
  Status AddDatabase(Database* db);

  /// Starts listening and serving (returns immediately).
  Status Start();
  void Stop();

  const std::string& socket_path() const { return core_.options().socket_path; }
  /// srv.* request/commit/session/callback counters and the
  /// server.overload.* sheds of this server (its SessionCore's included).
  Stats stats() const { return scope_.Snapshot(); }
  Stats lock_stats() const { return core_.locks().stats(); }

  /// Sessions currently registered (leak checks: must return to baseline
  /// after clients disconnect).
  size_t live_sessions() const { return core_.live_sessions(); }
  /// Workers currently stuck past watchdog_ms (0 when healthy).
  int stuck_workers() const { return core_.stuck_workers(); }

 private:
  using Session = SessionCore::Session;

  // Sessions live in the core. The ctid dedup window hashes over small
  // per-shard mutexes, counters are scope cells, and the database
  // registry is immutable once Start() has been called.
  static constexpr uint32_t kCommitShards = 8;
  struct CommitShard {
    std::mutex mu;
    /// Recently applied commit ids (kMsgCommit ctid prefix), a bounded
    /// duplicate-suppression window: a client replaying a commit whose
    /// reply was lost gets OK instead of a second application.
    std::unordered_set<uint64_t> applied;
    std::deque<uint64_t> order;
  };

  CommitShard& CommitShardFor(uint64_t ctid) {
    return commit_shards_[(ctid * 0x9E3779B97F4A7C15ull >> 32) %
                          kCommitShards];
  }

  // SessionCore::Handler.
  Status Handle(Session& session, const Message& msg, std::string* reply,
                uint16_t* reply_type) override;
  Status FinishLock(Session& session, const SessionCore::LockWait& w,
                    Status waited) override;
  /// Presumed abort of what the session prepared but never decided.
  void OnSessionClosed(Session& session) override;

  Result<Database*> DbFor(uint16_t db_id);
  /// kRetryLater while `db`'s log is over its soft limit (WAL backpressure).
  Status AdmitLogWork(Database* db);
  /// Applies a kMsgCommit/kMsgPrepare page set to each owning database.
  Status ApplyPageSet(
      const Message& msg,
      const std::function<Status(Database*, const std::vector<PageImage>&)>&
          apply);

  /// Populated by AddDatabase strictly before Start(); read without a lock
  /// afterwards (Start()'s thread creation publishes it).
  std::unordered_map<uint16_t, Database*> databases_;
  CommitShard commit_shards_[kCommitShards];
  obs::Scope scope_;
  SessionCore core_;
};

}  // namespace bess

#endif  // BESS_SERVER_BESS_SERVER_H_
