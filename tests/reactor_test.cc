// Event-driven server core tests (DESIGN.md §11): the non-blocking socket
// surface under injected short writes, request pipelining exactness across
// many connections on the one epoll loop, defunct-session teardown driven
// from the event thread, the listener busy-probe under the reactor, and
// start/stop churn with live connections (the old accept-thread shutdown
// race paths).
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "object/database.h"
#include "os/fault_injection.h"
#include "os/socket.h"
#include "server/bess_server.h"
#include "server/remote_client.h"
#include "util/slice.h"

namespace bess {
namespace {

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = std::filesystem::temp_directory_path() /
            ("bess_reactor_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    sock_path_ = (base_ / "server.sock").string();
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().DisarmAll();
    fault::FaultRegistry::Instance().ResetCounters();
    server_.reset();
    std::filesystem::remove_all(base_);
  }

  // kMsgPing and kMsgLock need no database, so these tests run the server
  // bare: pure transport + session machinery.
  void StartServer(int lock_timeout_ms = 300) {
    BessServer::Options o;
    o.socket_path = sock_path_;
    o.lock_timeout_ms = lock_timeout_ms;
    server_ = std::make_unique<BessServer>(o);
    ASSERT_TRUE(server_->Start().ok());
  }

  MsgSocket ConnectRaw() {
    auto sock = MsgSocket::Connect(sock_path_);
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    EXPECT_TRUE(sock->Send(kMsgHello, "").ok());
    auto hello = sock->Recv();
    EXPECT_TRUE(hello.ok()) << hello.status().ToString();
    EXPECT_EQ(hello->type, kMsgOk);
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
  std::string sock_path_;
  std::unique_ptr<BessServer> server_;
};

// A frame whose send is chopped into injected 3-byte windows must arrive
// intact: TrySend keeps its place in the continuation across WouldBlock
// returns, and TryRecv reassembles the frame across partial reads.
TEST_F(ReactorTest, ShortWriteContinuationDeliversFrameIntact) {
  MsgSocket a, b;
  ASSERT_TRUE(MsgSocket::Pair(&a, &b).ok());
  ASSERT_TRUE(a.SetNonBlocking(true).ok());
  ASSERT_TRUE(b.SetNonBlocking(true).ok());

  std::string payload(1000, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 26));
  }

  fault::FaultSpec short_writes;
  short_writes.action = fault::FaultAction::kShortWrite;
  short_writes.max_bytes = 3;
  short_writes.count = 20;  // then the wire opens up
  fault::FaultRegistry::Instance().Arm("sock.trysend", short_writes);

  SendContinuation send_cont;
  MsgSocket::QueueFrame(kMsgPing, 77, payload, &send_cont);
  RecvContinuation recv_cont;
  Message got;
  bool received = false;
  int would_blocks = 0;
  int mid_frame_reads = 0;
  while (!send_cont.empty() || !received) {
    if (!send_cont.empty()) {
      Status s = a.TrySend(&send_cont);
      ASSERT_TRUE(s.ok() || s.IsWouldBlock()) << s.ToString();
      if (s.IsWouldBlock()) would_blocks++;
    }
    if (!received) {
      Status s = b.TryRecv(&got, &recv_cont);
      ASSERT_TRUE(s.ok() || s.IsWouldBlock()) << s.ToString();
      if (s.ok()) {
        received = true;
      } else if (recv_cont.mid_frame()) {
        mid_frame_reads++;  // a partial frame really was parked
      }
    }
  }
  fault::FaultRegistry::Instance().Disarm("sock.trysend");

  EXPECT_EQ(would_blocks, 20);
  EXPECT_GT(mid_frame_reads, 0);
  EXPECT_EQ(got.type, kMsgPing);
  EXPECT_EQ(got.req_id, 77u);
  EXPECT_EQ(got.payload, payload);
}

// 256 connections each pipeline a burst of pings without reading, then
// collect the replies: every connection must get exactly its own replies,
// in request order (execution is serial per session), each echoing its
// request id and payload.
TEST_F(ReactorTest, PipeliningExactnessAcross256Connections) {
  StartServer();
  constexpr int kConns = 256;
  constexpr int kPingsPerConn = 8;

  std::vector<MsgSocket> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) conns.push_back(ConnectRaw());

  for (int i = 0; i < kConns; ++i) {
    for (int k = 0; k < kPingsPerConn; ++k) {
      std::string payload = "conn" + std::to_string(i) + ":" +
                            std::to_string(k);
      const uint64_t req_id =
          static_cast<uint64_t>(i) * 1000u + static_cast<uint64_t>(k) + 1;
      ASSERT_TRUE(conns[static_cast<size_t>(i)]
                      .Send(kMsgPing, payload, req_id)
                      .ok());
    }
  }
  for (int i = 0; i < kConns; ++i) {
    for (int k = 0; k < kPingsPerConn; ++k) {
      auto reply = conns[static_cast<size_t>(i)].Recv();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->type, kMsgOk);
      EXPECT_EQ(reply->req_id, static_cast<uint64_t>(i) * 1000u +
                                   static_cast<uint64_t>(k) + 1);
      EXPECT_EQ(reply->payload,
                "conn" + std::to_string(i) + ":" + std::to_string(k));
    }
  }
  for (auto& c : conns) (void)c.Send(kMsgGoodbye, "");
}

// A client that vanishes without a goodbye must be torn down from the event
// loop: its session is reaped and its locks released, so a second session
// waiting on one of them is granted instead of timing out.
TEST_F(ReactorTest, AbruptDisconnectReapsSessionAndFreesLocks) {
  StartServer(/*lock_timeout_ms=*/2000);
  MsgSocket holder = ConnectRaw();
  ASSERT_TRUE(
      holder.Send(kMsgLock, LockPayload(42, LockMode::kX, 1000), 1).ok());
  auto granted = holder.Recv();
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->type, kMsgOk);

  MsgSocket waiter = ConnectRaw();
  ASSERT_TRUE(
      waiter.Send(kMsgLock, LockPayload(42, LockMode::kX, 1500), 2).ok());
  // While the waiter's request sits in a cooperative lock wait, the holder
  // disappears mid-session. (The holder's Hello did not declare it
  // callable, so the grant must come from on_close teardown, not a callback
  // release.)
  holder.Close();

  auto reply = waiter.Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, kMsgOk) << "lock not granted after holder vanished";
  EXPECT_EQ(reply->req_id, 2u);
  EXPECT_GE(server_->stats().counter("srv.session.close"), 1u);
  (void)waiter.Send(kMsgGoodbye, "");
}

// The listener's busy-probe still refuses to steal a live server's socket
// under the reactor (no accept thread), and a stopped server's socket file
// is reusable immediately.
TEST_F(ReactorTest, ListenBusyProbeUnderReactor) {
  StartServer();
  BessServer::Options o;
  o.socket_path = sock_path_;
  BessServer second(o);
  Status s = second.Start();
  EXPECT_TRUE(s.IsBusy()) << s.ToString();

  server_->Stop();
  ASSERT_TRUE(second.Start().ok());
  MsgSocket c = ConnectRaw();  // the second server answers now
  ASSERT_TRUE(c.Send(kMsgPing, "still here", 9).ok());
  auto reply = c.Recv();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, "still here");
  second.Stop();
}

// Start/stop churn with live connections: Stop() must tear down the epoll
// loop, every session, and the workers without racing the connections that
// are still talking (the old dedicated accept thread had shutdown races
// here; under tsan this is the regression net).
TEST_F(ReactorTest, StopWithLiveConnectionsShutsDownCleanly) {
  for (int round = 0; round < 5; ++round) {
    StartServer();
    std::vector<MsgSocket> conns;
    for (int i = 0; i < 8; ++i) conns.push_back(ConnectRaw());
    // Half the connections have pings in flight when Stop lands.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(conns[static_cast<size_t>(i)]
                      .Send(kMsgPing, "mid-flight", 1)
                      .ok());
    }
    std::thread stopper([&] { server_->Stop(); });
    // Either a reply arrives (sent before teardown) or the connection
    // closes; both are orderly outcomes — what must not happen is a hang
    // or a race.
    for (auto& c : conns) {
      auto r = c.RecvTimeout(1000);
      if (r.ok()) continue;
      EXPECT_FALSE(r.status().IsBusy()) << "recv hung through server stop";
    }
    stopper.join();
    server_.reset();
  }
}

// The pipelined client surface: a burst of CallAsync pings resolves to
// exact echoes after a Flush barrier, interleaved with synchronous calls on
// the same connection (which ride the same request-id demultiplexer).
TEST_F(ReactorTest, ClientCallAsyncFlushAndSyncInterleave) {
  Database::Options dbo;
  dbo.dir = (base_ / "db").string();
  dbo.db_id = 1;
  dbo.create = true;
  auto db = Database::Open(dbo);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BessServer::Options so;
  so.socket_path = sock_path_;
  server_ = std::make_unique<BessServer>(so);
  ASSERT_TRUE(server_->AddDatabase(db->get()).ok());
  ASSERT_TRUE(server_->Start().ok());

  RemoteClient::Options o;
  o.server_path = sock_path_;
  o.db_id = 1;
  auto client = RemoteClient::Connect(o);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kInFlight = 64;
  std::vector<ReplyFuture> futures;
  futures.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    futures.push_back(
        (*client)->CallAsync(kMsgPing, "async" + std::to_string(i)));
  }
  // A synchronous RPC while 64 pings are in flight: correlation by req_id,
  // not by arrival order.
  auto stats = (*client)->ServerStats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();

  ASSERT_TRUE((*client)->Flush().ok());
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = futures[static_cast<size_t>(i)].Get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, kMsgOk);
    EXPECT_EQ(reply->payload, "async" + std::to_string(i));
    // Get() is idempotent.
    auto again = futures[static_cast<size_t>(i)].Get();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->payload, reply->payload);
  }
  client->reset();
  server_->Stop();
}

}  // namespace
}  // namespace bess
