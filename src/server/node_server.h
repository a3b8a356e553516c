// The BeSS node server (paper §3, Figure 2-3).
//
// "A BeSS node server is a BeSS server that does not own any storage areas.
// Consequently, each node server is a client of the BeSS servers that acts
// as a server for the local applications. The node server establishes a
// cache on the node it is running and is responsible for fetching the data
// requested by the local applications from the BeSS servers that own the
// data. In addition, the node server acquires locks on behalf of the local
// applications and responds to callback requests issued by BeSS servers."
//
// So it is built (DESIGN.md §11): BessServer's SessionCore serves the local
// applications with this class as its handler, and a RemoteClient is the
// upstream. Pages come from the node cache when possible, local locks are
// covered by node-level locks cached from the owner, and every request the
// node does not handle itself is forwarded upstream.
#ifndef BESS_SERVER_NODE_SERVER_H_
#define BESS_SERVER_NODE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/frame_table.h"
#include "server/remote_client.h"
#include "server/session_core.h"

namespace bess {

class NodeServer : private SessionCore::Handler, private LockCallbackPolicy {
 public:
  struct Options {
    std::string socket_path;    ///< where local applications connect
    std::string upstream_path;  ///< the owning BeSS server
    uint32_t cache_pages = 4096;
  };

  /// A view of two of the node's counters (node.cache.hit,
  /// node.upstream.fetch); scope_stats() holds them all.
  struct Stats {
    uint64_t cache_hits = 0;        ///< pages served from the node cache
    uint64_t upstream_fetches = 0;  ///< fetch requests sent upstream
  };

  static Result<std::unique_ptr<NodeServer>> Start(Options options);
  ~NodeServer() override;

  /// Stops serving local applications, then says goodbye upstream.
  void Stop();
  Stats stats() const;
  /// node.*, the node cache's cache.* and its SessionCore's counters.
  ::bess::Stats scope_stats() const { return scope_.Snapshot(); }
  /// Local sessions currently registered.
  size_t live_sessions() const { return core_.live_sessions(); }

 private:
  using Session = SessionCore::Session;

  explicit NodeServer(Options options);

  // SessionCore::Handler: the node's half of the serving core.
  Status Handle(Session& session, const Message& msg, std::string* reply,
                uint16_t* reply_type) override;
  /// Covers a local grant with a node-level lock from the owner server.
  Status FinishLock(Session& session, const SessionCore::LockWait& w,
                    Status waited) override;

  // LockCallbackPolicy: the upstream's callbacks.
  Status OnCallback(uint64_t key, LockMode wanted) override;
  void OnSessionLost() override;

  Status FetchPages(const Message& msg, std::string* reply);
  Status FetchSlotted(const Message& msg, std::string* reply);
  Status Commit(const Message& msg);
  /// Forwards `msg` verbatim and returns the upstream reply's payload.
  Status Forward(const Message& msg, std::string* reply);

  // Node page cache (write-through on local commits): a heap-placement
  // frame-core configuration with LRU-2 replacement and no backing I/O —
  // misses are resolved upstream by the caller, invalidated pages drop.
  /// Copies `count` consecutive pages into `dst` if all are cached.
  bool CacheGet(uint16_t db, uint16_t area, PageId first, uint32_t count,
                char* dst);
  /// Installs pages fetched (or committed) while the epoch was `epoch`;
  /// does nothing if coverage was given up since — they may be stale.
  void CacheFill(uint64_t epoch, uint16_t db, uint16_t area, PageId first,
                 uint32_t count, const char* src);
  /// Gives up coverage: bumps the epoch and empties the page cache.
  void DropPagesLocked();

  Options options_;
  obs::Scope scope_;  ///< shared with page_cache_ and core_
  std::unique_ptr<HeapPlacement> cache_placement_;
  std::unique_ptr<FrameTable> page_cache_;
  SessionCore core_;
  std::unique_ptr<RemoteClient> upstream_;

  /// A callback's "no local holder" check and its release happen under
  /// it, and so does a grant's node-lock lookup: a local session either
  /// sees the node lock before the release, or goes upstream again.
  std::mutex mu_;
  std::unordered_map<uint64_t, LockMode> node_locks_;  // cached upstream locks
  /// Bumped (under mu_) whenever the node gives up upstream coverage: a
  /// released callback or a lost upstream session. Each bump empties the
  /// page cache.
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace bess

#endif  // BESS_SERVER_NODE_SERVER_H_
