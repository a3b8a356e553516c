// Node server tests (paper §3; DESIGN.md §11): the node is the shared
// serving core with a page-cache handler and a RemoteClient upstream. Covers
// pass-through of requests the node does not handle itself, wire-input
// validation, callback atomicity against local lock holders, upstream
// session loss under the fault injector, connection churn, Stop() with live
// connections, wire-deadline shedding, and O(workers) threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "object/database.h"
#include "obs/stats.h"
#include "os/fault_injection.h"
#include "os/socket.h"
#include "segment/layout.h"
#include "server/bess_server.h"
#include "server/node_server.h"
#include "server/protocol.h"
#include "server/remote_client.h"
#include "txn/lock_manager.h"

namespace bess {
namespace {

class NodeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = std::filesystem::temp_directory_path() /
            ("bess_node_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    server_path_ = (base_ / "server.sock").string();
    node_path_ = (base_ / "node.sock").string();
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().DisarmAll();
    fault::FaultRegistry::Instance().ResetCounters();
    clients_.clear();
    node_.reset();
    server_.reset();
    db_.reset();
    std::filesystem::remove_all(base_);
  }

  /// Starts the owning server; with `with_db` it owns database 1.
  void StartServer(BessServer::Options o = {}, bool with_db = true) {
    if (with_db) {
      Database::Options dbo;
      dbo.dir = (base_ / "db").string();
      dbo.db_id = 1;
      dbo.create = true;
      auto db = Database::Open(dbo);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      db_ = std::move(*db);
    }
    o.socket_path = server_path_;
    server_ = std::make_unique<BessServer>(o);
    if (db_ != nullptr) {
      ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
    }
    ASSERT_TRUE(server_->Start().ok());
  }

  void StartNode() {
    NodeServer::Options no;
    no.socket_path = node_path_;
    no.upstream_path = server_path_;
    auto node = NodeServer::Start(no);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = std::move(*node);
  }

  RemoteClient* Connect(const std::string& path, bool cache_inter_txn = false,
                        int lock_timeout_ms = 2000, int lock_retries = 4) {
    RemoteClient::Options o;
    o.server_path = path;
    o.db_id = 1;
    o.cache_inter_txn = cache_inter_txn;
    o.lock_timeout_ms = lock_timeout_ms;
    o.lock_retries = lock_retries;
    auto c = RemoteClient::Connect(o);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    if (!c.ok()) return nullptr;
    clients_.push_back(std::move(*c));
    return clients_.back().get();
  }

  /// A raw session on the node (no client threads of its own).
  MsgSocket ConnectRaw() {
    auto sock = MsgSocket::Connect(node_path_);
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    EXPECT_TRUE(sock->Send(kMsgHello, "").ok());
    auto hello = sock->Recv();
    EXPECT_TRUE(hello.ok()) << hello.status().ToString();
    EXPECT_EQ(hello->type, kMsgOk);
    return std::move(*sock);
  }

  /// Creates root "x" holding `v` through a direct client.
  void Seed(uint64_t v) {
    RemoteClient* seeder = Connect(server_path_);
    ASSERT_NE(seeder, nullptr);
    ASSERT_TRUE(seeder->Begin().ok());
    auto file = seeder->CreateFile("f");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto slot = seeder->CreateObject(*file, kRawBytesType, 8, &v);
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    ASSERT_TRUE(seeder->SetRoot("x", *slot).ok());
    ASSERT_TRUE(seeder->Commit().ok());
  }

  /// Reads root "x" in its own transaction.
  static Result<uint64_t> ReadX(RemoteClient* c) {
    BESS_RETURN_IF_ERROR(c->Begin());
    auto root = c->GetRoot("x");
    if (!root.ok()) {
      (void)c->Abort();
      return root.status();
    }
    const uint64_t v = *reinterpret_cast<uint64_t*>((*root)->dp);
    BESS_RETURN_IF_ERROR(c->Commit());
    return v;
  }

  static bool WaitFor(const std::function<bool()>& cond, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
  }

  static size_t CountEntries(const char* dir) {
    size_t n = 0;
    for (auto it = std::filesystem::directory_iterator(dir);
         it != std::filesystem::directory_iterator(); ++it) {
      ++n;
    }
    return n;
  }

  static uint64_t Counter(const char* name) {
    return Snapshot().counter(name);
  }

  std::filesystem::path base_;
  std::string server_path_;
  std::string node_path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<BessServer> server_;
  std::unique_ptr<NodeServer> node_;
  std::vector<std::unique_ptr<RemoteClient>> clients_;
};

// Requests the node does not handle itself are forwarded upstream: index
// traffic and the server's stats snapshot work through a node.
TEST_F(NodeServerTest, IndexAndServerStatsPassThrough) {
  StartServer();
  StartNode();
  RemoteClient* app = Connect(node_path_);
  ASSERT_NE(app, nullptr);
  ASSERT_TRUE(app->IndexCreate("by_name").ok());
  ASSERT_TRUE(app->IndexPut("by_name", "alice", "1").ok());
  ASSERT_TRUE(app->IndexPut("by_name", "bob", "2").ok());
  std::string value;
  auto found = app->IndexGet("by_name", "bob", &value);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_TRUE(*found);
  EXPECT_EQ(value, "2");

  auto stats = app->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
#if BESS_METRICS_ENABLED
  EXPECT_GT(stats->counter("srv.request"), 0u);
  EXPECT_GT(stats->counter("node.request"), 0u);
#endif
}

// Malformed frames get an error reply each, and the node keeps serving.
TEST_F(NodeServerTest, MalformedFramesAreRejectedAndNodeKeepsServing) {
  StartServer();
  Seed(5);
  StartNode();
  MsgSocket raw = ConnectRaw();
  auto expect_error = [&](uint16_t type, const std::string& payload,
                          uint64_t req_id) {
    ASSERT_TRUE(raw.Send(type, payload, req_id).ok());
    auto reply = raw.Recv();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->req_id, req_id);
    EXPECT_EQ(reply->type, kMsgError) << "request " << req_id;
  };
  auto fetch = [](uint32_t count) {
    std::string p;
    PutFixed16(&p, 1);
    PutFixed16(&p, 0);
    PutFixed32(&p, 0);
    PutFixed32(&p, count);
    return p;
  };
  expect_error(kMsgFetchPages, fetch(0), 1);
  expect_error(kMsgFetchPages, fetch(0xFFFFFFFFu), 2);
  expect_error(kMsgFetchPages, fetch(kPagesPerExtent + 1), 3);
  expect_error(kMsgFetchPages, std::string(5, '\0'), 4);
  expect_error(kMsgFetchSlotted, std::string(3, '\0'), 5);
  std::string short_lock;
  PutFixed64(&short_lock, LockKey::Page(1, 0, 7));  // no mode, no timeout
  expect_error(kMsgLock, short_lock, 6);

  // An out-of-range mode byte is clamped to kX, never used as an index.
  std::string wild_mode;
  PutFixed64(&wild_mode, LockKey::Page(1, 0, 9));
  wild_mode.push_back(static_cast<char>(200));
  PutFixed32(&wild_mode, 200);
  ASSERT_TRUE(raw.Send(kMsgLock, wild_mode, 7).ok());
  auto lock_reply = raw.Recv();
  ASSERT_TRUE(lock_reply.ok()) << lock_reply.status().ToString();
  EXPECT_EQ(lock_reply->req_id, 7u);
  ASSERT_TRUE(raw.Send(kMsgReleaseAll, "", 8).ok());
  ASSERT_TRUE(raw.Recv().ok());

  // Still serving: the same session and a full client through the node.
  ASSERT_TRUE(raw.Send(kMsgPing, "alive", 9).ok());
  auto pong = raw.Recv();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, kMsgOk);
  EXPECT_EQ(pong->payload, "alive");
  RemoteClient* app = Connect(node_path_);
  ASSERT_NE(app, nullptr);
  auto v = ReadX(app);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 5u);
  (void)raw.Send(kMsgGoodbye, "");
}

// Callback atomicity: while an application behind the node holds a lock,
// the owning server's callbacks to the node are denied; once it commits,
// the next callback releases the node lock and drops its pages, so the next
// read through the node refetches the writer's committed value.
TEST_F(NodeServerTest, CallbacksDeniedWhileAppHoldsThenReadSeesWriter) {
  StartServer();
  Seed(5);
  StartNode();
  RemoteClient* app = Connect(node_path_);
  ASSERT_NE(app, nullptr);
  ASSERT_TRUE(app->Begin().ok());
  auto root = app->GetRoot("x");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root)->dp), 5u);

  RemoteClient* writer = Connect(server_path_, /*cache_inter_txn=*/false,
                                 /*lock_timeout_ms=*/10000);
  ASSERT_NE(writer, nullptr);
  const uint64_t denied_before =
      server_->stats().counter("srv.callback.denied");
  std::atomic<bool> writer_done{false};
  Status writer_status;
  std::thread w([&] {
    writer_status = [&]() -> Status {
      BESS_RETURN_IF_ERROR(writer->Begin());
      BESS_ASSIGN_OR_RETURN(Slot * slot, writer->GetRoot("x"));
      *reinterpret_cast<uint64_t*>(slot->dp) = 6;  // X lock: calls back
      return writer->Commit();
    }();
    writer_done.store(true);
  });
  EXPECT_TRUE(WaitFor(
      [&] {
        return server_->stats().counter("srv.callback.denied") > denied_before;
      },
      5000))
      << "the node should deny callbacks while the app holds the lock";
  EXPECT_FALSE(writer_done.load());
  ASSERT_TRUE(app->Commit().ok());  // releases the app's node-local locks
  w.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();

  const uint64_t fetches_before = node_->stats().upstream_fetches;
  const uint64_t misses_before = node_->scope_stats().counter("cache.miss");
  auto v = ReadX(app);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 6u);
  EXPECT_GT(node_->stats().upstream_fetches, fetches_before)
      << "the released callback must have dropped the node's pages";
  // The cold read misses the node cache, and the node's scope counts it.
  EXPECT_GT(node_->scope_stats().counter("cache.miss"), misses_before);
}

// The upstream connection dies mid-RPC (fault injector): the node
// reconnects, ends the local sessions its lost locks covered, and drops its
// lock and page caches — the next read is current, and a new local lock is
// re-acquired upstream rather than served from the stale lock cache.
TEST_F(NodeServerTest, UpstreamLossDropsLockAndPageCaches) {
  StartServer();
  Seed(5);
  StartNode();
  RemoteClient* app = Connect(node_path_);
  ASSERT_NE(app, nullptr);
  auto first = ReadX(app);  // node caches pages and the segment lock
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 5u);

#if BESS_METRICS_ENABLED
  const uint64_t reconnects_before = Counter("rpc.reconnect");
  const uint64_t invalidations_before = Counter("node.cache.invalidate");
#endif
  ASSERT_TRUE(app->Begin().ok());
  // The next reply on a socket to the owning server is torn away: the only
  // traffic there now is the node's forwarded request.
  fault::FaultSpec spec = fault::FaultSpec::FailNth(1);
  spec.detail_filter = "server.sock";
  fault::FaultRegistry::Instance().Arm("sock.recv", spec);
  auto file = app->FindFile("f");  // idempotent: retried on both hops
  fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  // The app's node session ended with the node's upstream session.
  EXPECT_FALSE(app->Commit().ok());
#if BESS_METRICS_ENABLED
  EXPECT_GT(Counter("rpc.reconnect"), reconnects_before);
  EXPECT_GT(Counter("node.cache.invalidate"), invalidations_before);
#endif

  // The lost session's locks are gone upstream, so a writer needs no
  // callback to the node; the node must not serve its old pages.
  RemoteClient* writer = Connect(server_path_);
  ASSERT_NE(writer, nullptr);
  ASSERT_TRUE(writer->Begin().ok());
  auto wroot = writer->GetRoot("x");
  ASSERT_TRUE(wroot.ok()) << wroot.status().ToString();
  *reinterpret_cast<uint64_t*>((*wroot)->dp) = 6;
  ASSERT_TRUE(writer->Commit().ok());
  auto second = ReadX(app);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, 6u);

  // While the app holds the key again, the node holds it upstream again: a
  // conflicting writer is denied and times out.
  ASSERT_TRUE(app->Begin().ok());
  auto held = app->GetRoot("x");
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  RemoteClient* blocked = Connect(server_path_, /*cache_inter_txn=*/false,
                                  /*lock_timeout_ms=*/200,
                                  /*lock_retries=*/0);
  ASSERT_NE(blocked, nullptr);
  ASSERT_TRUE(blocked->Begin().ok());
  auto broot = blocked->GetRoot("x");
  ASSERT_TRUE(broot.ok()) << broot.status().ToString();
  *reinterpret_cast<uint64_t*>((*broot)->dp) = 7;
  EXPECT_FALSE(blocked->Commit().ok())
      << "the node served a lock it no longer held upstream";
  ASSERT_TRUE(app->Commit().ok());
  auto third = ReadX(app);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(*third, 6u);
}

// Connect/disconnect churn against the node leaks neither sessions nor fds.
TEST_F(NodeServerTest, ConnectionChurnLeaksNoSessionsOrFds) {
  StartServer({}, /*with_db=*/false);
  StartNode();
  { MsgSocket warm = ConnectRaw(); (void)warm.Send(kMsgGoodbye, ""); }
  ASSERT_TRUE(WaitFor([&] { return node_->live_sessions() == 0; }, 2000));
  const size_t fd_baseline = CountEntries("/proc/self/fd");
  const size_t upstream_sessions = server_->live_sessions();

  for (int i = 0; i < 300; ++i) {
    MsgSocket c = ConnectRaw();
    if (i % 3 == 0) {
      c.Close();  // abrupt: reaped via on_close teardown
    } else {
      ASSERT_TRUE(c.Send(kMsgPing, "x", 1).ok());
      ASSERT_TRUE(c.Recv().ok());
      (void)c.Send(kMsgGoodbye, "");
    }
  }
  EXPECT_TRUE(WaitFor([&] { return node_->live_sessions() == 0; }, 10000))
      << node_->live_sessions() << " node sessions leaked";
  EXPECT_TRUE(WaitFor(
      [&] { return CountEntries("/proc/self/fd") <= fd_baseline; }, 10000))
      << "fd count " << CountEntries("/proc/self/fd")
      << " never returned to baseline " << fd_baseline;
  EXPECT_EQ(server_->live_sessions(), upstream_sessions)
      << "local churn must not open upstream sessions";
}

// Stop() with live local connections — idle, pipelining, and mid-
// transaction — returns promptly; clients see their connections end.
TEST_F(NodeServerTest, StopWithLiveLocalConnections) {
  StartServer();
  Seed(5);
  const size_t upstream_baseline = server_->live_sessions();
  StartNode();
  std::vector<MsgSocket> idle;
  for (int i = 0; i < 8; ++i) idle.push_back(ConnectRaw());
  MsgSocket busy = ConnectRaw();
  for (uint64_t i = 1; i <= 32; ++i) {
    ASSERT_TRUE(busy.Send(kMsgPing, "p", i).ok());
  }
  RemoteClient* app = Connect(node_path_);
  ASSERT_NE(app, nullptr);
  ASSERT_TRUE(app->Begin().ok());
  ASSERT_TRUE(app->GetRoot("x").ok());  // holds node-local and node locks

  const auto start = std::chrono::steady_clock::now();
  node_->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(node_->live_sessions(), 0u);
  for (MsgSocket& s : idle) {
    EXPECT_FALSE(s.RecvTimeout(2000).ok()) << "connection should have ended";
  }
  EXPECT_TRUE(WaitFor(
      [&] { return server_->live_sessions() == upstream_baseline; }, 5000))
      << "the node's upstream session should have said goodbye";
  EXPECT_FALSE(app->FindFile("f").ok());
  (void)app->Abort();
  node_.reset();  // destruction after Stop() is a no-op
}

// A request whose wire deadline expires while queued at the node is shed
// there with kDeadlineExceeded and never reaches the owning server.
TEST_F(NodeServerTest, ExpiredWireDeadlineIsShedAtTheNode) {
  BessServer::Options so;
  so.simulated_latency_us = 50000;  // 50ms per upstream reply
  StartServer(so, /*with_db=*/false);
  StartNode();
  MsgSocket raw = ConnectRaw();
  const uint64_t upstream_requests = server_->stats().counter("srv.request");
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    // Forwarded (the node does not answer kMsgGetStats itself); a 120ms
    // budget against a 50ms-per-request upstream cannot cover the tail.
    ASSERT_TRUE(raw.Send(kMsgGetStats, "", static_cast<uint64_t>(i) + 1,
                         /*deadline_ms=*/120)
                    .ok());
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = raw.Recv();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->req_id, static_cast<uint64_t>(i) + 1);  // FIFO order
    if (reply->type == kMsgOk) {
      ++ok;
    } else {
      Status s = DecodeStatusReply(*reply);
      EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(server_->stats().counter("srv.request") - upstream_requests,
            static_cast<uint64_t>(ok))
      << "shed requests must not reach the owning server";
  EXPECT_EQ(server_->stats().counter("server.overload.shed.deadline"), 0u);
  (void)raw.Send(kMsgGoodbye, "");
}

// Sessions are not threads: the node runs O(workers) threads whether one
// or 64 applications are connected.
TEST_F(NodeServerTest, ThreadCountFlatFrom1To64LocalConnections) {
  StartServer({}, /*with_db=*/false);
  StartNode();
  std::vector<MsgSocket> conns;
  auto add_and_ping = [&](size_t n) {
    while (conns.size() < n) {
      conns.push_back(ConnectRaw());
      ASSERT_TRUE(conns.back().Send(kMsgPing, "t", 1).ok());
      ASSERT_TRUE(conns.back().Recv().ok());
    }
  };
  add_and_ping(1);
  const size_t threads_at_1 = CountEntries("/proc/self/task");
  add_and_ping(64);
  const size_t threads_at_64 = CountEntries("/proc/self/task");
  EXPECT_EQ(node_->live_sessions(), 64u);
  EXPECT_EQ(threads_at_64, threads_at_1);
  for (MsgSocket& c : conns) (void)c.Send(kMsgGoodbye, "");
}

}  // namespace
}  // namespace bess
