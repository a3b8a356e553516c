// Integration tests for the distributed architecture (paper §3): client/
// server data service, inter-transaction caching, callback locking, the
// node server's shared cache, and two-phase commit across servers.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <thread>

#include "bess/bess_internal.h"
#include "object/database.h"
#include "os/fault_injection.h"
#include "server/bess_server.h"
#include "server/node_server.h"
#include "server/remote_client.h"

namespace bess {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = std::filesystem::temp_directory_path() /
            ("bess_srv_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().DisarmAll();
    fault::FaultRegistry::Instance().ResetCounters();
    clients_.clear();
    node_.reset();
    server_.reset();
    server2_.reset();
    db_.reset();
    db2_.reset();
    std::filesystem::remove_all(base_);
  }

  void StartServer(uint16_t db_id = 1, int lock_timeout_ms = 300) {
    Database::Options o;
    o.dir = (base_ / ("db" + std::to_string(db_id))).string();
    o.db_id = db_id;
    o.create = true;
    auto db = Database::Open(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    BessServer::Options so;
    so.socket_path = (base_ / "server.sock").string();
    so.lock_timeout_ms = lock_timeout_ms;
    server_ = std::make_unique<BessServer>(so);
    ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  RemoteClient* Connect(bool cache_inter_txn = true,
                        const std::string& path = "") {
    RemoteClient::Options o;
    o.server_path = path.empty() ? (base_ / "server.sock").string() : path;
    o.db_id = 1;
    o.cache_inter_txn = cache_inter_txn;
    o.lock_timeout_ms = 300;
    auto c = RemoteClient::Connect(o);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    clients_.push_back(std::move(*c));
    return clients_.back().get();
  }

  /// A bare session on the server socket: Hello with no callable flag.
  MsgSocket ConnectRaw() {
    auto sock = MsgSocket::Connect((base_ / "server.sock").string());
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    EXPECT_TRUE(sock->Send(kMsgHello, "").ok());
    auto hello = sock->Recv();
    EXPECT_TRUE(hello.ok() && hello->type == kMsgOk);
    return std::move(*sock);
  }

  static std::string LockPayload(uint64_t key, LockMode mode,
                                 uint32_t timeout_ms) {
    std::string p;
    PutFixed64(&p, key);
    p.push_back(static_cast<char>(mode));
    PutFixed32(&p, timeout_ms);
    return p;
  }

  std::filesystem::path base_;
  std::unique_ptr<Database> db_, db2_;
  std::unique_ptr<BessServer> server_, server2_;
  std::unique_ptr<NodeServer> node_;
  std::vector<std::unique_ptr<RemoteClient>> clients_;
};

TEST_F(ServerTest, ClientCreatesServerPersists) {
  StartServer();
  RemoteClient* c = Connect();
  ASSERT_TRUE(c->Begin().ok());
  auto file = c->CreateFile("people");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const char payload[] = "remote object";
  auto slot = c->CreateObject(*file, kRawBytesType, sizeof(payload), payload);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  ASSERT_TRUE(c->SetRoot("entry", *slot).ok());
  ASSERT_TRUE(c->Commit().ok());

  // A second client sees it through the server.
  RemoteClient* c2 = Connect();
  ASSERT_TRUE(c2->Begin().ok());
  auto root = c2->GetRoot("entry");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_STREQ(reinterpret_cast<const char*>((*root)->dp), payload);
  ASSERT_TRUE(c2->Commit().ok());

  // And it is durable on the server's disk.
  clients_.clear();
  server_.reset();
  auto count = db_->CountObjects(*file);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

TEST_F(ServerTest, InterTransactionCachingSkipsServer) {
  StartServer();
  RemoteClient* writer = Connect();
  ASSERT_TRUE(writer->Begin().ok());
  auto file = writer->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 9;
  auto slot = writer->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(writer->SetRoot("x", *slot).ok());
  ASSERT_TRUE(writer->Commit().ok());

  RemoteClient* reader = Connect(/*cache_inter_txn=*/true);
  ASSERT_TRUE(reader->Begin().ok());
  auto root = reader->GetRoot("x");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root)->dp), 9u);
  ASSERT_TRUE(reader->Commit().ok());

  const auto stats1 = reader->stats();
  // Second transaction touches the same data: cached pages and cached locks
  // mean no fetch and no lock RPC (paper §3).
  ASSERT_TRUE(reader->Begin().ok());
  Slot* again = *root;  // reference survives across transactions
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(again->dp), 9u);
  ASSERT_TRUE(reader->Commit().ok());
  const auto stats2 = reader->stats();
  EXPECT_EQ(stats2.counter("rpc.lock"), stats1.counter("rpc.lock"));
  auto mstats = reader->mapper()->stats();
  EXPECT_GT(mstats.counter("vm.fault.slotted"), 0u);

  // The no-caching client refetches every transaction (node-less mode).
  RemoteClient* cold = Connect(/*cache_inter_txn=*/false);
  ASSERT_TRUE(cold->Begin().ok());
  auto r1 = cold->GetRoot("x");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*r1)->dp), 9u);
  ASSERT_TRUE(cold->Commit().ok());
  const uint64_t faults_before =
      cold->mapper()->stats().counter("vm.fault.slotted");
  ASSERT_TRUE(cold->Begin().ok());
  auto r2 = cold->GetRoot("x");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*r2)->dp), 9u);
  ASSERT_TRUE(cold->Commit().ok());
  EXPECT_GT(cold->mapper()->stats().counter("vm.fault.slotted"), faults_before)
      << "cache should have been dropped between transactions";
}

TEST_F(ServerTest, CallbackTransfersCachedLock) {
  StartServer();
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot_a = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot_a.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot_a).ok());
  ASSERT_TRUE(a->Commit().ok());
  // A's locks (incl. X on the segment) are now cached, not in use.

  RemoteClient* b = Connect();
  ASSERT_TRUE(b->Begin().ok());
  auto root_b = b->GetRoot("x");  // S lock: conflicts with A's cached X
  ASSERT_TRUE(root_b.ok()) << root_b.status().ToString();
  *reinterpret_cast<uint64_t*>((*root_b)->dp) = 2;
  Status commit = b->Commit();
  ASSERT_TRUE(commit.ok()) << commit.ToString();

  const auto server_stats = server_->stats();
  EXPECT_GT(server_stats.counter("srv.callback.sent"), 0u);
  EXPECT_GT(server_stats.counter("srv.callback.released"), 0u);
  const auto a_stats = a->stats();
  EXPECT_GT(a_stats.counter("client.callback.received"), 0u);
  EXPECT_GT(a_stats.counter("client.callback.released"), 0u);
  // Each callback ends in exactly one outcome, counted once it is final.
  EXPECT_EQ(a_stats.counter("client.callback.received"),
            a_stats.counter("client.callback.released") +
                a_stats.counter("client.callback.denied"));

  // A's cached copy was dropped with the lock: it re-reads B's value.
  ASSERT_TRUE(a->Begin().ok());
  auto root_a = a->GetRoot("x");
  ASSERT_TRUE(root_a.ok());
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root_a)->dp), 2u);
  ASSERT_TRUE(a->Commit().ok());
}

TEST_F(ServerTest, CallbackDeniedWhileLockInUse) {
  StartServer(1, /*lock_timeout_ms=*/250);
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot).ok());
  ASSERT_TRUE(a->Commit().ok());

  // A holds the object in an ACTIVE transaction now.
  ASSERT_TRUE(a->Begin().ok());
  auto mine = a->GetRoot("x");
  ASSERT_TRUE(mine.ok());
  *reinterpret_cast<uint64_t*>((*mine)->dp) = 10;  // X page, in use

  // B's conflicting write times out: the callback is denied (§3).
  RemoteClient* b = Connect();
  ASSERT_TRUE(b->Begin().ok());
  auto theirs = b->GetRoot("x");
  if (theirs.ok()) {
    *reinterpret_cast<uint64_t*>((*theirs)->dp) = 20;
    Status s = b->Commit();
    EXPECT_FALSE(s.ok());
  }  // else: even the read lock was refused — also acceptable
  const auto server_stats = server_->stats();
  EXPECT_GT(server_stats.counter("srv.callback.denied"), 0u);
  // The server saw each answer after A counted it: A's outcomes add up.
  const auto a_stats = a->stats();
  EXPECT_GT(a_stats.counter("client.callback.denied"), 0u);
  EXPECT_EQ(a_stats.counter("client.callback.received"),
            a_stats.counter("client.callback.released") +
                a_stats.counter("client.callback.denied"));

  ASSERT_TRUE(a->Commit().ok());
  // After A's transaction ends, B can get through.
  ASSERT_TRUE(b->Begin().ok());
  auto retry = b->GetRoot("x");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  *reinterpret_cast<uint64_t*>((*retry)->dp) = 20;
  ASSERT_TRUE(b->Commit().ok());
}

TEST_F(ServerTest, NodeServerCachesForLocalClients) {
  StartServer();
  NodeServer::Options no;
  no.socket_path = (base_ / "node.sock").string();
  no.upstream_path = (base_ / "server.sock").string();
  auto node = NodeServer::Start(no);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  node_ = std::move(*node);

  // Seed data through a direct client.
  RemoteClient* seeder = Connect();
  ASSERT_TRUE(seeder->Begin().ok());
  auto file = seeder->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 5;
  auto slot = seeder->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(seeder->SetRoot("x", *slot).ok());
  ASSERT_TRUE(seeder->Commit().ok());

  // Two applications on the node; the second is served from the node cache.
  RemoteClient* app1 = Connect(true, no.socket_path);
  ASSERT_TRUE(app1->Begin().ok());
  auto r1 = app1->GetRoot("x");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*r1)->dp), 5u);
  ASSERT_TRUE(app1->Commit().ok());

  const auto node_stats1 = node_->stats();
  EXPECT_GT(node_stats1.upstream_fetches, 0u);

  RemoteClient* app2 = Connect(true, no.socket_path);
  ASSERT_TRUE(app2->Begin().ok());
  auto r2 = app2->GetRoot("x");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*r2)->dp), 5u);
  ASSERT_TRUE(app2->Commit().ok());

  const auto node_stats2 = node_->stats();
  EXPECT_GT(node_stats2.cache_hits, node_stats1.cache_hits)
      << "second application should hit the node cache";
}

TEST_F(ServerTest, TwoPhaseCommitAcrossServers) {
  StartServer(1);
  // Second server owning database 2.
  Database::Options o2;
  o2.dir = (base_ / "db2").string();
  o2.db_id = 2;
  o2.create = true;
  auto db2 = Database::Open(o2);
  ASSERT_TRUE(db2.ok());
  db2_ = std::move(*db2);
  BessServer::Options so2;
  so2.socket_path = (base_ / "server2.sock").string();
  server2_ = std::make_unique<BessServer>(so2);
  ASSERT_TRUE(server2_->AddDatabase(db2_.get()).ok());
  ASSERT_TRUE(server2_->Start().ok());

  RemoteClient* c = Connect();
  ASSERT_TRUE(c->AddServer(so2.socket_path, {2}).ok());

  // One transaction touching both databases.
  ASSERT_TRUE(c->Begin().ok());
  auto f1 = c->CreateFile("local");
  ASSERT_TRUE(f1.ok());
  uint64_t v1 = 100;
  auto s1 = c->CreateObject(*f1, kRawBytesType, 8, &v1);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(c->SetRoot("one", *s1).ok());
  ASSERT_TRUE(c->Commit().ok());

  // Write pages in db2 through the same client's mapper: create a segment
  // remotely on server 2. (CreateObject helpers target db 1; for the 2PC
  // path we write into db2 via a second client connected primarily to it.)
  RemoteClient::Options oc2;
  oc2.server_path = so2.socket_path;
  oc2.db_id = 2;
  auto c2r = RemoteClient::Connect(oc2);
  ASSERT_TRUE(c2r.ok());
  RemoteClient* c2 = c2r->get() ? c2r->get() : nullptr;
  ASSERT_NE(c2, nullptr);
  ASSERT_TRUE(c2->Begin().ok());
  auto f2 = c2->CreateFile("remote");
  ASSERT_TRUE(f2.ok());
  uint64_t v2 = 200;
  auto s2 = c2->CreateObject(*f2, kRawBytesType, 8, &v2);
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(c2->SetRoot("two", *s2).ok());
  ASSERT_TRUE(c2->Commit().ok());
  clients_.push_back(std::move(*c2r));

  // Both servers have their data durable.
  auto count1 = db_->CountObjects(*f1);
  auto count2 = db2_->CountObjects(*f2);
  ASSERT_TRUE(count1.ok() && count2.ok());
  EXPECT_EQ(*count1, 1u);
  EXPECT_EQ(*count2, 1u);
}

TEST_F(ServerTest, PreparedTransactionsSurviveAsPresumedAbort) {
  StartServer();
  auto file = [&] {
    auto f = db_->CreateFile("f");
    return *f;
  }();
  // Prepare a page set directly (simulating a coordinator that dies before
  // phase 2); after restart the transaction is presumed aborted.
  std::vector<PageImage> pages;
  PageImage img;
  img.db = 1;
  img.area = 0;
  img.page = 100;  // not an allocated object page: content is arbitrary
  img.bytes.assign(kPageSize, 'Z');
  pages.push_back(img);
  ASSERT_TRUE(db_->PreparePageSet(777, pages).ok());
  // The page is NOT visible on disk (nothing forced in phase 1).
  std::string check(kPageSize, '\0');
  ASSERT_TRUE(db_->ReadRawPages(0, 100, 1, check.data()).ok());
  EXPECT_NE(check[0], 'Z');
  // Commit of the prepared txn forces the pages.
  ASSERT_TRUE(db_->CommitPrepared(777).ok());
  ASSERT_TRUE(db_->ReadRawPages(0, 100, 1, check.data()).ok());
  EXPECT_EQ(check[0], 'Z');
  // Unknown gtid: presumed abort.
  EXPECT_TRUE(db_->CommitPrepared(999).IsNotFound());
  (void)file;
}

// Callback locking must stay correct when the network is slow: injected
// latency on every client->server send stretches each RPC, yet the lock
// timeout still fires for the blocked writer and the denied callback is
// reported, while the lock holder's own transaction commits normally.
TEST_F(ServerTest, LockTimeoutAndCallbackDenialUnderSocketLatency) {
  StartServer(1, /*lock_timeout_ms=*/250);
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot).ok());
  ASSERT_TRUE(a->Commit().ok());

  // Every send on a client socket (named after the server path) now stalls
  // 2ms; server-side sockets are unnamed and unaffected.
  fault::FaultSpec lag;
  lag.action = fault::FaultAction::kLatency;
  lag.latency_us = 2000;
  lag.detail_filter = "server.sock";
  fault::FaultRegistry::Instance().Arm("sock.send", lag);

  // A holds the object in an active transaction.
  ASSERT_TRUE(a->Begin().ok());
  auto mine = a->GetRoot("x");
  ASSERT_TRUE(mine.ok());
  *reinterpret_cast<uint64_t*>((*mine)->dp) = 10;

  // B's conflicting access still times out cleanly under latency.
  RemoteClient* b = Connect();
  ASSERT_TRUE(b->Begin().ok());
  auto theirs = b->GetRoot("x");
  if (theirs.ok()) {
    *reinterpret_cast<uint64_t*>((*theirs)->dp) = 20;
    EXPECT_FALSE(b->Commit().ok());
  } else {
    ASSERT_TRUE(b->Abort().ok());
  }
  EXPECT_GT(server_->stats().counter("srv.callback.denied"), 0u);
  EXPECT_GT(fault::FaultRegistry::Instance().hits("sock.send"), 0u)
      << "latency injection never matched a client send";

  // The holder is slowed but not broken.
  ASSERT_TRUE(a->Commit().ok());
  fault::FaultRegistry::Instance().DisarmAll();

  ASSERT_TRUE(b->Begin().ok());
  auto retry = b->GetRoot("x");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_TRUE(b->Commit().ok());
}

// A transport failure in the middle of an idempotent RPC is retried through
// a fresh session; the caller never sees the failure. The active transaction
// is poisoned (its locks died with the old session), so commit refuses — and
// the next transaction runs normally.
TEST_F(ServerTest, RpcRetriesAndReconnectsAfterTransportFailure) {
  StartServer();
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 7;
  auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot).ok());
  ASSERT_TRUE(a->Commit().ok());

  RemoteClient* b = Connect();
  ASSERT_TRUE(b->Begin().ok());
  // The next reply on a client main channel is torn away mid-RPC.
  fault::FaultSpec spec = fault::FaultSpec::FailNth(1);
  spec.detail_filter = "server.sock";
  fault::FaultRegistry::Instance().Arm("sock.recv", spec);

  auto root = b->GetRoot("x");  // idempotent: retried transparently
  fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root)->dp), 7u);
  const auto stats = b->stats();
  EXPECT_GE(stats.counter("rpc.retry"), 1u);
  EXPECT_GE(stats.counter("rpc.reconnect"), 1u);

  // The transaction that lived through the reconnect lost its 2PL guarantee.
  EXPECT_FALSE(b->Commit().ok());

  // The client itself is fully healthy again.
  ASSERT_TRUE(b->Begin().ok());
  auto again = b->GetRoot("x");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*again)->dp), 7u);
  ASSERT_TRUE(b->Commit().ok());
}

// Losing the *reply* to a commit leaves the client unsure whether it
// applied. The ctid makes the retry safe: the server recognizes the replay,
// answers OK without applying twice, and exactly one commit is visible.
TEST_F(ServerTest, CommitReplayedAfterLostReplyAppliesOnce) {
  StartServer();
  RemoteClient* c = Connect();
  ASSERT_TRUE(c->Begin().ok());
  auto file = c->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot = c->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(c->SetRoot("x", *slot).ok());
  ASSERT_TRUE(c->Commit().ok());

  ASSERT_TRUE(c->Begin().ok());
  auto mine = c->GetRoot("x");
  ASSERT_TRUE(mine.ok());
  *reinterpret_cast<uint64_t*>((*mine)->dp) = 2;
  // The commit is applied server-side, but its reply never arrives.
  fault::FaultSpec spec = fault::FaultSpec::FailNth(1);
  spec.detail_filter = "server.sock";
  fault::FaultRegistry::Instance().Arm("sock.recv", spec);
  Status s = c->Commit();
  fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(s.ok()) << s.ToString();
  const auto cstats = c->stats();
  EXPECT_GE(cstats.counter("rpc.retry"), 1u);
  EXPECT_GE(cstats.counter("rpc.reconnect"), 1u);
  EXPECT_GE(server_->stats().counter("srv.commit.dedupe"), 1u)
      << "the replayed commit should have been recognized, not re-applied";

  // Exactly-once: the new value is there, and there is exactly one object.
  RemoteClient* d = Connect();
  ASSERT_TRUE(d->Begin().ok());
  auto root = d->GetRoot("x");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root)->dp), 2u);
  ASSERT_TRUE(d->Commit().ok());
  clients_.clear();
  server_.reset();
  auto count = db_->CountObjects(*file);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

// 2PC coordinator death between prepare and decision: both participants are
// left in doubt. When the coordinator's connections drop, each server's
// dead-session cleanup presumed-aborts the prepared transaction and releases
// its locks — no update becomes visible, and other clients proceed.
TEST_F(ServerTest, CoordinatorDeathAtDecisionPresumedAbort) {
  StartServer(1);
  Database::Options o2;
  o2.dir = (base_ / "db2").string();
  o2.db_id = 2;
  o2.create = true;
  auto db2 = Database::Open(o2);
  ASSERT_TRUE(db2.ok());
  db2_ = std::move(*db2);
  BessServer::Options so2;
  so2.socket_path = (base_ / "server2.sock").string();
  server2_ = std::make_unique<BessServer>(so2);
  ASSERT_TRUE(server2_->AddDatabase(db2_.get()).ok());
  ASSERT_TRUE(server2_->Start().ok());

  // Seed one object per database and capture the db2 object's OID so the
  // coordinator can reach it through an inter-database reference.
  RemoteClient* c1 = Connect();
  ASSERT_TRUE(c1->Begin().ok());
  auto f1 = c1->CreateFile("f1");
  ASSERT_TRUE(f1.ok());
  uint64_t v1 = 100;
  auto s1 = c1->CreateObject(*f1, kRawBytesType, 8, &v1);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(c1->SetRoot("one", *s1).ok());
  ASSERT_TRUE(c1->Commit().ok());

  RemoteClient::Options oc2;
  oc2.server_path = so2.socket_path;
  oc2.db_id = 2;
  auto c2r = RemoteClient::Connect(oc2);
  ASSERT_TRUE(c2r.ok());
  RemoteClient* c2 = c2r->get();
  ASSERT_TRUE(c2->Begin().ok());
  auto f2 = c2->CreateFile("f2");
  ASSERT_TRUE(f2.ok());
  uint64_t v2 = 200;
  auto s2 = c2->CreateObject(*f2, kRawBytesType, 8, &v2);
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(c2->SetRoot("two", *s2).ok());
  ASSERT_TRUE(c2->Commit().ok());
  auto oid2 = c2->OidOf(*s2);
  ASSERT_TRUE(oid2.ok());
  clients_.push_back(std::move(*c2r));

  // The doomed coordinator: writes in both databases, prepares both, then
  // "forgets" its decision (injected failure at the decision point) and its
  // process dies (connections close when the client is destroyed).
  {
    RemoteClient::Options oc;
    oc.server_path = (base_ / "server.sock").string();
    oc.db_id = 1;
    auto coordr = RemoteClient::Connect(oc);
    ASSERT_TRUE(coordr.ok());
    RemoteClient* coord = coordr->get();
    ASSERT_TRUE(coord->AddServer(so2.socket_path, {2}).ok());
    ASSERT_TRUE(coord->Begin().ok());
    auto r1 = coord->GetRoot("one");
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    auto r2 = coord->Deref(*oid2);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    *reinterpret_cast<uint64_t*>((*r1)->dp) = 111;
    *reinterpret_cast<uint64_t*>((*r2)->dp) = 222;
    fault::FaultRegistry::Instance().Arm(
        "client.2pc.decision",
        fault::FaultSpec::FailNth(1, StatusCode::kIOError));
    Status s = coord->Commit();
    fault::FaultRegistry::Instance().DisarmAll();
    EXPECT_FALSE(s.ok());
    EXPECT_GT(fault::FaultRegistry::Instance().hits("client.2pc.decision"), 0u)
        << "the transaction never reached the 2PC decision point";
  }  // coordinator dies here; both sessions drop

  // Each participant reaps the dead session and resolves in doubt ->

  // aborted. Poll: session teardown is asynchronous.
  for (int i = 0; i < 200; ++i) {
    if (server_->stats().counter("srv.session.close") > 0 &&
        server2_->stats().counter("srv.session.close") > 0) {
      break;
    }
    ::usleep(10 * 1000);
  }
  EXPECT_GT(server_->stats().counter("srv.session.close"), 0u);
  EXPECT_GT(server2_->stats().counter("srv.session.close"), 0u);

  // Neither update became visible, and both objects are writable again
  // (locks and prepared state were cleaned up).
  RemoteClient* check1 = Connect();
  ASSERT_TRUE(check1->Begin().ok());
  auto root1 = check1->GetRoot("one");
  ASSERT_TRUE(root1.ok()) << root1.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root1)->dp), 100u);
  *reinterpret_cast<uint64_t*>((*root1)->dp) = 101;
  ASSERT_TRUE(check1->Commit().ok());

  RemoteClient::Options oc3;
  oc3.server_path = so2.socket_path;
  oc3.db_id = 2;
  auto check2r = RemoteClient::Connect(oc3);
  ASSERT_TRUE(check2r.ok());
  RemoteClient* check2 = check2r->get();
  ASSERT_TRUE(check2->Begin().ok());
  auto root2 = check2->GetRoot("two");
  ASSERT_TRUE(root2.ok()) << root2.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*root2)->dp), 200u);
  *reinterpret_cast<uint64_t*>((*root2)->dp) = 201;
  ASSERT_TRUE(check2->Commit().ok());
  clients_.push_back(std::move(*check2r));
}

// The second resolution path for in-doubt transactions: the participant
// itself restarts. Restart recovery presumed-aborts prepared transactions
// (kPrepare with no decision), so nothing of the page set survives.
TEST_F(ServerTest, PreparedStateResolvedByRestartRecovery) {
  Database::Options o;
  o.dir = (base_ / "db1").string();
  o.db_id = 1;
  o.create = true;
  auto dbr = Database::Open(o);
  ASSERT_TRUE(dbr.ok());
  db_ = std::move(*dbr);

  std::vector<PageImage> pages;
  PageImage img;
  img.db = 1;
  img.area = 0;
  img.page = 100;
  img.bytes.assign(kPageSize, 'Q');
  pages.push_back(img);
  ASSERT_TRUE(db_->PreparePageSet(4242, pages).ok());

  // The coordinator never decides; the storage manager restarts.
  db_.reset();
  o.create = false;
  auto reopened = Database::Open(o);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_ = std::move(*reopened);

  // Presumed abort: the transaction is unknown and its pages never forced.
  EXPECT_TRUE(db_->CommitPrepared(4242).IsNotFound());
  std::string check(kPageSize, '\0');
  ASSERT_TRUE(db_->ReadRawPages(0, 100, 1, check.data()).ok());
  EXPECT_NE(check[0], 'Q');
}

// Two clients fight over one object: A holds it in an active transaction,
// so B's lock waits time out server-side (kDeadlock). B's exponential
// backoff with jitter must carry it past A's transaction instead of
// surfacing the first timeout to the application.
TEST_F(ServerTest, LockRetryBackoffOutlastsContention) {
  StartServer(1, /*lock_timeout_ms=*/150);
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot).ok());
  ASSERT_TRUE(a->Commit().ok());

  // A pins the object in an ACTIVE transaction: callbacks get denied.
  ASSERT_TRUE(a->Begin().ok());
  auto mine = a->GetRoot("x");
  ASSERT_TRUE(mine.ok());
  *reinterpret_cast<uint64_t*>((*mine)->dp) = 10;

  // B retries with backoff; A commits ~250 ms in, well inside B's retry
  // budget (~150 ms server wait per attempt + 25..400 ms of backoff).
  RemoteClient::Options bo;
  bo.server_path = (base_ / "server.sock").string();
  bo.db_id = 1;
  bo.lock_timeout_ms = 150;
  bo.lock_retries = 6;
  bo.lock_backoff_ms = 50;
  auto br = RemoteClient::Connect(bo);
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  clients_.push_back(std::move(*br));
  RemoteClient* b = clients_.back().get();

  std::thread release_a([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_TRUE(a->Commit().ok());
  });
  ASSERT_TRUE(b->Begin().ok());
  auto theirs = b->GetRoot("x");
  release_a.join();
  ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
  *reinterpret_cast<uint64_t*>((*theirs)->dp) = 20;
  Status commit = b->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();

  // The win came through the backoff path, not first-try luck.
  EXPECT_GT(b->stats().counter("client.lock.backoff"), 0u);
#if BESS_METRICS_ENABLED
  EXPECT_GT(Snapshot().counter("client.lock.backoff"), 0u);
#endif
}

// bess::OpenOptions carries the callback timeout into the server, and an
// unresponsive lock holder (its callback replies stuck behind injected
// socket latency) is presumed dead: its session is torn down, its locks
// freed, and the waiting client gets through.
TEST_F(ServerTest, CallbackTimeoutTearsDownUnresponsiveHolder) {
  Database::Options o;
  o.dir = (base_ / "db1").string();
  o.db_id = 1;
  o.create = true;
  auto dbr = Database::Open(o);
  ASSERT_TRUE(dbr.ok());
  db_ = std::move(*dbr);

  OpenOptions open;
  open.socket_path = (base_ / "server.sock").string();
  open.lock_timeout_ms = 2000;
  open.callback_timeout_ms = 25;
  const BessServer::Options so = open.server_options();
  EXPECT_EQ(so.lock_timeout_ms, 2000);
  EXPECT_EQ(so.callback_timeout_ms, 25);
  server_ = std::make_unique<BessServer>(so);
  ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
  ASSERT_TRUE(server_->Start().ok());

  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot).ok());
  ASSERT_TRUE(a->Commit().ok());  // A caches X locks, transaction idle

  RemoteClient* b = Connect();

  // Every client->server send (including A's callback replies) now stalls
  // 80 ms — far past the 25 ms callback window. The server must stop
  // waiting on the ghost, reap A's session, and grant B from the freed lock.
  fault::FaultSpec slow;
  slow.action = fault::FaultAction::kLatency;
  slow.latency_us = 80000;
  slow.detail_filter = open.socket_path;
  fault::FaultRegistry::Instance().Arm("sock.send", slow);

  ASSERT_TRUE(b->Begin().ok());
  auto theirs = b->GetRoot("x");
  ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
  *reinterpret_cast<uint64_t*>((*theirs)->dp) = 2;
  Status commit = b->Commit();
  fault::FaultRegistry::Instance().DisarmAll();
  EXPECT_TRUE(commit.ok()) << commit.ToString();

  const auto stats = server_->stats();
  EXPECT_GT(stats.counter("srv.callback.timeout"), 0u);
  EXPECT_GT(stats.counter("srv.session.close"), 0u);
#if BESS_METRICS_ENABLED
  EXPECT_GT(Snapshot().counter("srv.callback.timeout"), 0u);
#endif
}

// Answers callbacks only once the test opens its latch (or 5 s pass, so a
// failing test still tears down).
class LatchPolicy : public LockCallbackPolicy {
 public:
  Status OnCallback(uint64_t, LockMode) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++called_;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(5), [this] { return open_; });
    return Status::OK();
  }
  void OnSessionLost() override {}

  bool WaitCalled(int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return called_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int called_ = 0;
  bool open_ = false;
};

// A callback the holder has not answered yet holds no server worker: with a
// one-worker pool, another session's ping is served while the callback is
// outstanding, and the holder's late Released answer still grants the
// waiter, inside the callback window.
TEST_F(ServerTest, UnansweredCallbackParksNoWorker) {
  BessServer::Options so;
  so.socket_path = (base_ / "server.sock").string();
  so.worker_threads = 1;
  so.lock_timeout_ms = 5000;
  so.callback_timeout_ms = 2000;
  server_ = std::make_unique<BessServer>(so);
  ASSERT_TRUE(server_->Start().ok());

  LatchPolicy policy;
  RemoteClient::Options ho;
  ho.server_path = so.socket_path;
  auto holder = RemoteClient::Connect(ho, &policy);
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  constexpr uint64_t kKey = 4242;
  Message reply;
  ASSERT_TRUE((*holder)
                  ->Call(kMsgLock, LockPayload(kKey, LockMode::kX, 1000),
                         &reply)
                  .ok());

  MsgSocket waiter = ConnectRaw();
  ASSERT_TRUE(
      waiter.Send(kMsgLock, LockPayload(kKey, LockMode::kX, 4000), 1).ok());
  ASSERT_TRUE(policy.WaitCalled(3000)) << "holder never called back";

  MsgSocket other = ConnectRaw();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(other.Send(kMsgPing, "p", 7).ok());
  auto pong = other.RecvTimeout(3000);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->req_id, 7u);
  EXPECT_LT(waited, std::chrono::milliseconds(200))
      << "ping waited behind the unanswered callback";

  policy.Open();
  auto granted = waiter.RecvTimeout(3000);
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_EQ(granted->req_id, 1u);
  EXPECT_EQ(granted->type, kMsgOk) << DecodeStatusReply(*granted).ToString();
  const auto stats = server_->stats();
  EXPECT_EQ(stats.counter("srv.callback.timeout"), 0u);
  EXPECT_EQ(stats.counter("srv.callback.released"), 1u);
  (void)waiter.Send(kMsgGoodbye, "");
  (void)other.Send(kMsgGoodbye, "");
}

// A Released answer counts only against a callback the server sent: a
// session that volunteers one for a lock it holds keeps that lock, and the
// answer gets no reply.
TEST_F(ServerTest, UnaskedCallbackAnswerKeepsLock) {
  StartServer();
  constexpr uint64_t kKey = 77;
  MsgSocket holder = ConnectRaw();
  ASSERT_TRUE(
      holder.Send(kMsgLock, LockPayload(kKey, LockMode::kX, 1000), 1).ok());
  auto granted = holder.Recv();
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->type, kMsgOk);
  std::string key;
  PutFixed64(&key, kKey);
  ASSERT_TRUE(holder.Send(kMsgCallbackReleased, key, 2).ok());

  MsgSocket waiter = ConnectRaw();
  ASSERT_TRUE(
      waiter.Send(kMsgLock, LockPayload(kKey, LockMode::kX, 200), 3).ok());
  auto refused = waiter.RecvTimeout(3000);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->req_id, 3u);
  EXPECT_TRUE(DecodeStatusReply(*refused).IsDeadlock())
      << "waiter granted a lock the holder still holds";

  ASSERT_TRUE(holder.Send(kMsgPing, "", 4).ok());
  auto pong = holder.RecvTimeout(3000);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->req_id, 4u);
  EXPECT_EQ(server_->stats().counter("srv.callback.released"), 0u);
  (void)holder.Send(kMsgGoodbye, "");
  (void)waiter.Send(kMsgGoodbye, "");
}

// After a reconnect the client's new session is the one called back: it
// caches a lock there, and another client's conflicting write is granted
// through its Released answer, with no callback timing out.
TEST_F(ServerTest, CallbackAnsweredOnSessionAfterReconnect) {
  StartServer();
  RemoteClient* a = Connect();
  ASSERT_TRUE(a->Begin().ok());
  auto file = a->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 1;
  auto slot = a->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(a->SetRoot("x", *slot).ok());
  ASSERT_TRUE(a->Commit().ok());

  // A's next reply is torn away mid-RPC; the retry reconnects.
  ASSERT_TRUE(a->Begin().ok());
  fault::FaultSpec spec = fault::FaultSpec::FailNth(1);
  spec.detail_filter = "server.sock";
  fault::FaultRegistry::Instance().Arm("sock.recv", spec);
  auto torn = a->GetRoot("x");
  fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  ASSERT_GE(a->stats().counter("rpc.reconnect"), 1u);
  EXPECT_FALSE(a->Commit().ok());  // its locks died with the old session

  // A caches a read lock on the new session.
  ASSERT_TRUE(a->Begin().ok());
  auto mine = a->GetRoot("x");
  ASSERT_TRUE(mine.ok()) << mine.status().ToString();
  ASSERT_TRUE(a->Commit().ok());
  const uint64_t released = a->stats().counter("client.callback.released");

  RemoteClient* b = Connect();
  ASSERT_TRUE(b->Begin().ok());
  auto theirs = b->GetRoot("x");
  ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
  *reinterpret_cast<uint64_t*>((*theirs)->dp) = 5;
  Status commit = b->Commit();
  ASSERT_TRUE(commit.ok()) << commit.ToString();

  EXPECT_GT(a->stats().counter("client.callback.released"), released);
  const auto stats = server_->stats();
  EXPECT_GT(stats.counter("srv.callback.released"), 0u);
  EXPECT_EQ(stats.counter("srv.callback.timeout"), 0u);

  // A dropped its copy with the lock and reads B's write.
  ASSERT_TRUE(a->Begin().ok());
  auto after = a->GetRoot("x");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*after)->dp), 5u);
  ASSERT_TRUE(a->Commit().ok());
}

// The maintenance opcode end to end: a client asks the server to scrub its
// database and gets the sweep's report back over the wire.
TEST_F(ServerTest, ScrubOverRpc) {
  StartServer();
  RemoteClient* c = Connect();
  ASSERT_TRUE(c->Begin().ok());
  auto file = c->CreateFile("f");
  ASSERT_TRUE(file.ok());
  uint64_t v = 7;
  auto slot = c->CreateObject(*file, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(c->SetRoot("x", *slot).ok());
  ASSERT_TRUE(c->Commit().ok());

  auto report = c->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->pages_scanned, 0u);
  EXPECT_EQ(report->verify_failures, 0u);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_EQ(report->quarantined, 0u);
}

TEST_F(ServerTest, IndexRoundTripOverRpc) {
  StartServer();
  RemoteClient* c = Connect();
  ASSERT_TRUE(c->IndexCreate("remote").ok());
  // Duplicate creation surfaces the server-side catalog error.
  EXPECT_FALSE(c->IndexCreate("remote").ok());

  // Enough entries to split leaves and exercise the scan's batch stitching
  // (> kIndexScanMaxEntries would need 5k+ RPC puts; splits suffice here).
  std::map<std::string, std::string> shadow;
  char kb[16], vb[16];
  for (int k = 0; k < 500; ++k) {
    snprintf(kb, sizeof kb, "key%04d", k);
    snprintf(vb, sizeof vb, "val%04d", k);
    ASSERT_TRUE(c->IndexPut("remote", kb, vb).ok());
    shadow[kb] = vb;
  }
  for (int k = 0; k < 500; k += 3) {
    snprintf(kb, sizeof kb, "key%04d", k);
    bool existed = false;
    ASSERT_TRUE(c->IndexDelete("remote", kb, &existed).ok());
    EXPECT_TRUE(existed);
    shadow.erase(kb);
  }

  std::string v;
  auto found = c->IndexGet("remote", "key0001", &v);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(v, "val0001");
  found = c->IndexGet("remote", "key0000", &v);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found) << "deleted key visible over RPC";

  // A second connection sees the same tree (shared server-side runtime).
  RemoteClient* c2 = Connect();
  std::map<std::string, std::string> got;
  ASSERT_TRUE(c2->IndexScan("remote", "", "",
                            [&](Slice k, Slice val) {
                              got[k.ToString()] = val.ToString();
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(got, shadow);

  // Bounded scan honors the [lo, hi] window.
  got.clear();
  ASSERT_TRUE(c2->IndexScan("remote", "key0100", "key0110",
                            [&](Slice k, Slice val) {
                              got[k.ToString()] = val.ToString();
                              return Status::OK();
                            })
                  .ok());
  for (const auto& [k, val] : got) {
    EXPECT_GE(k, std::string("key0100"));
    EXPECT_LE(k, std::string("key0110"));
  }
  EXPECT_EQ(got.size(), 8u);  // 11 keys in window minus 102/105/108 deleted

  ASSERT_TRUE(c->IndexDrop("remote").ok());
  EXPECT_FALSE(c2->IndexGet("remote", "key0001", &v).ok());
}

}  // namespace
}  // namespace bess
