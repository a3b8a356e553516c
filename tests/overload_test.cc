// Overload-protection tests (DESIGN.md §12): request deadlines shed expired
// queued work before dispatch, admission control refuses work past the
// in-flight caps with kRetryLater, accept-time admission closes connections
// past the cap, the reactor's slow-consumer policy throttles and then
// disconnects a peer that won't drain replies, the lazy timer wheel probes
// and reaps idle/half-open connections, the worker watchdog flags stuck
// tasks, the client's circuit breaker fails fast and heals through the
// half-open ping probe, and 500 connect/disconnect cycles leak neither fds
// nor sessions.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "object/database.h"
#include "obs/stats.h"
#include "os/fault_injection.h"
#include "os/socket.h"
#include "server/bess_server.h"
#include "server/protocol.h"
#include "server/remote_client.h"
#include "util/slice.h"

namespace bess {
namespace {

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = std::filesystem::temp_directory_path() /
            ("bess_ovld_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    sock_path_ = (base_ / "server.sock").string();
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().DisarmAll();
    fault::FaultRegistry::Instance().ResetCounters();
    server_.reset();
    db_.reset();
    std::filesystem::remove_all(base_);
  }

  // Most of these tests exercise pure transport/session machinery with
  // kMsgPing, so the server usually runs bare (no database).
  void StartServer(BessServer::Options o) {
    o.socket_path = sock_path_;
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

  static bool WaitFor(const std::function<bool()>& cond, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
  }

  static size_t OpenFdCount() {
    size_t n = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd");
         it != std::filesystem::directory_iterator(); ++it) {
      ++n;
    }
    return n;
  }

  std::filesystem::path base_;
  std::string sock_path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<BessServer> server_;
};

// A pipeline of slow requests with a tight per-request budget: the first
// request(s) execute, and everything whose budget expires while queued is
// refused with kDeadlineExceeded *before* dispatch — but every single
// request gets a reply (sheds are answers, not drops).
TEST_F(OverloadTest, ExpiredDeadlinesShedBeforeDispatchEveryRequestAnswered) {
  BessServer::Options o;
  o.simulated_latency_us = 50000;  // 50ms per reply: the worker is the choke
  o.worker_threads = 1;
  StartServer(o);

  MsgSocket c = ConnectRaw();
  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) {
    // 120ms budget against a 50ms-per-request pipeline: the tail of the
    // burst cannot make it.
    ASSERT_TRUE(c.Send(kMsgPing, "p", static_cast<uint64_t>(i) + 1,
                       /*deadline_ms=*/120)
                    .ok());
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = c.Recv();
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
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1) << "head of the burst was inside its budget";
  EXPECT_GE(shed, 1) << "tail of the burst should have expired";
  EXPECT_EQ(server_->stats().counter("server.overload.shed.deadline"),
            static_cast<uint64_t>(shed));
  (void)c.Send(kMsgGoodbye, "");
}

// The global in-flight cap: a flood past capacity gets kRetryLater for the
// overflow, OK for the admitted — and again, one reply per request.
TEST_F(OverloadTest, GlobalInflightCapShedsOverflowWithRetryLater) {
  BessServer::Options o;
  o.simulated_latency_us = 10000;
  o.worker_threads = 1;
  o.max_inflight_global = 4;
  StartServer(o);

  MsgSocket c = ConnectRaw();
  constexpr int kBurst = 40;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(c.Send(kMsgPing, "q", static_cast<uint64_t>(i) + 1).ok());
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = c.Recv();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->type == kMsgOk) {
      ++ok;
    } else {
      Status s = DecodeStatusReply(*reply);
      EXPECT_TRUE(s.IsRetryLater()) << s.ToString();
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "burst of 40 against a cap of 4 must shed";
  EXPECT_EQ(server_->stats().counter("server.overload.shed.admission"),
            static_cast<uint64_t>(shed));
  (void)c.Send(kMsgGoodbye, "");
}

// The per-session pipelining cap sheds independently of the global budget.
TEST_F(OverloadTest, PerSessionPipelineCapSheds) {
  BessServer::Options o;
  o.simulated_latency_us = 10000;
  o.worker_threads = 1;
  o.max_inflight_per_session = 2;
  StartServer(o);

  MsgSocket c = ConnectRaw();
  constexpr int kBurst = 20;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(c.Send(kMsgPing, "s", static_cast<uint64_t>(i) + 1).ok());
  }
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = c.Recv();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->type == kMsgError) {
      EXPECT_TRUE(DecodeStatusReply(*reply).IsRetryLater());
      ++shed;
    }
  }
  EXPECT_GE(shed, 1);
  (void)c.Send(kMsgGoodbye, "");
}

// Accept-time admission: connections beyond max_connections are closed
// before any session exists. The refused client sees its connect succeed
// and the socket drop — a clean retryable transport failure.
TEST_F(OverloadTest, MaxConnectionsClosesExcessAtAccept) {
  BessServer::Options o;
  o.max_connections = 3;
  StartServer(o);

  std::vector<MsgSocket> kept;
  for (int i = 0; i < 3; ++i) kept.push_back(ConnectRaw());

  auto extra = MsgSocket::Connect(sock_path_);
  ASSERT_TRUE(extra.ok());  // the kernel accepts; the reactor refuses
  (void)extra->Send(kMsgHello, "");
  auto reply = extra->Recv();
  EXPECT_FALSE(reply.ok()) << "connection past the cap must be closed";
  EXPECT_TRUE(WaitFor(
      [&] {
        return server_->stats().counter("server.overload.conn_rejected") >= 1;
      },
      2000));

  // Room opens up when a connection leaves.
  kept[0].Close();
  EXPECT_TRUE(WaitFor(
      [&] {
        auto probe = MsgSocket::Connect(sock_path_);
        if (!probe.ok()) return false;
        if (!probe->Send(kMsgHello, "").ok()) return false;
        auto h = probe->RecvTimeout(200);
        if (h.ok() && h->type == kMsgOk) {
          (void)probe->Send(kMsgGoodbye, "");
          return true;
        }
        return false;
      },
      3000));
  for (auto& k : kept) (void)k.Send(kMsgGoodbye, "");
}

// A slow consumer that pipelines requests but never drains replies: once
// the connection's outbound queue blows the hard cap the server disconnects
// it and the session unwinds through presumed-abort cleanup — the server
// does not buffer without bound for a peer that won't read.
TEST_F(OverloadTest, SlowConsumerIsThrottledThenDisconnected) {
  BessServer::Options o;
  o.worker_threads = 2;
  o.send_soft_cap_bytes = 16 << 10;
  o.send_hard_cap_bytes = 64 << 10;
  StartServer(o);

#if BESS_METRICS_ENABLED
  const ::bess::Stats before = Snapshot();
#endif
  MsgSocket c = ConnectRaw();
  const std::string big(8 << 10, 'z');  // 8KB echoes, never read back
  std::atomic<int> sent{0};
  // The sender blocks once every buffer in the chain fills; the hard-cap
  // disconnect resets the connection and unblocks it with a send error.
  std::thread sender([&] {
    for (int i = 0; i < 400; ++i) {
      if (!c.Send(kMsgPing, big, static_cast<uint64_t>(i) + 1).ok()) break;
      sent.fetch_add(1);
    }
  });
  sender.join();
  EXPECT_TRUE(WaitFor([&] { return server_->live_sessions() == 0; }, 10000))
      << "slow consumer's session not reaped (sent " << sent.load() << ")";
  EXPECT_GE(server_->stats().counter("srv.session.close"), 1u);
#if BESS_METRICS_ENABLED
  const ::bess::Stats delta = StatsDelta(before, Snapshot());
  EXPECT_GE(delta.counter("server.overload.slow_consumer.throttle"), 1u);
  EXPECT_GE(delta.counter("server.overload.slow_consumer.disconnect"), 1u);
#endif
  c.Close();
}

// A consumer that stops both reading and sending right after its reads are
// paused leaves the outbound queue between the low watermark and the hard
// cap: neither resume nor the hard cap can fire. The reactor disconnects it
// once the queue has drained nothing for a while, with idle reaping off.
TEST_F(OverloadTest, StalledSlowConsumerIsDisconnectedBetweenCaps) {
#if BESS_METRICS_ENABLED
  BessServer::Options o;
  o.worker_threads = 2;
  o.send_soft_cap_bytes = 16 << 10;
  o.send_hard_cap_bytes = 64 << 10;
  StartServer(o);

  const ::bess::Stats before = Snapshot();
  auto throttled = [&] {
    return StatsDelta(before, Snapshot())
               .counter("server.overload.slow_consumer.throttle") >= 1;
  };
  MsgSocket c = ConnectRaw();
  const std::string big(8 << 10, 'z');  // 8KB echoes, never read back
  // One request at a time, each given time to be echoed, so that when the
  // reads pause at most a request or two is in flight: far from the hard
  // cap, which would otherwise end the test for the wrong reason.
  for (int i = 0; i < 400 && !throttled(); ++i) {
    ASSERT_TRUE(c.Send(kMsgPing, big, static_cast<uint64_t>(i) + 1).ok());
    WaitFor(throttled, 20);
  }
  ASSERT_TRUE(throttled());
  EXPECT_TRUE(WaitFor([&] { return server_->live_sessions() == 0; }, 10000))
      << "stalled consumer between the caps was never disconnected";
  EXPECT_GE(StatsDelta(before, Snapshot())
                .counter("server.overload.slow_consumer.disconnect"),
            1u);
  c.Close();
#else
  GTEST_SKIP() << "needs the global slow-consumer counters";
#endif
}

// Idle reaping: a session that answers the server's ping probe survives;
// one that goes silent is probed once and then closed; a connection that
// never even says Hello (half-open) is reaped the same way.
TEST_F(OverloadTest, IdleProbeKeepsResponsiveReapsSilentAndHalfOpen) {
  BessServer::Options o;
  o.idle_timeout_ms = 100;
  StartServer(o);

  // Half-open: connect, say nothing, never read. No session ever exists,
  // and the reactor still reclaims the connection.
  auto half_open = MsgSocket::Connect(sock_path_);
  ASSERT_TRUE(half_open.ok());

  MsgSocket quiet = ConnectRaw();
  // Answer probes for ~4 periods: the session must survive well past the
  // idle timeout because the probe answers count as activity.
  const auto keep_until = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < keep_until) {
    auto probe = quiet.RecvTimeout(50);
    if (probe.ok() && probe->type == kMsgPing) {
      ASSERT_TRUE(quiet.Send(kMsgOk, "", probe->req_id).ok());
    }
  }
  EXPECT_EQ(server_->live_sessions(), 1u)
      << "session reaped despite answering every probe";

  // Now fall silent: one probe, one more silent period, then the reap.
  EXPECT_TRUE(WaitFor([&] { return server_->live_sessions() == 0; }, 3000));
  auto r = quiet.RecvTimeout(1000);
  // Whatever is still buffered (a probe) drains first; the close follows.
  while (r.ok()) r = quiet.RecvTimeout(1000);
  EXPECT_FALSE(r.status().IsBusy()) << "silent session's socket never closed";

  auto ho = half_open->RecvTimeout(2000);
  while (ho.ok()) ho = half_open->RecvTimeout(2000);
  EXPECT_FALSE(ho.status().IsBusy()) << "half-open connection never reaped";
}

// The worker watchdog: a task occupying a worker past watchdog_ms is
// flagged while it runs and cleared once it finishes.
TEST_F(OverloadTest, WatchdogFlagsStuckWorkerAndClears) {
  BessServer::Options o;
  o.worker_threads = 1;
  o.simulated_latency_us = 300000;  // each reply parks the worker 300ms
  o.watchdog_ms = 50;
  StartServer(o);

  MsgSocket c = ConnectRaw();
  ASSERT_TRUE(c.Send(kMsgPing, "slow", 1).ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stuck_workers() >= 1; }, 2000))
      << "watchdog never flagged the stuck worker";
  auto reply = c.Recv();
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stuck_workers() == 0; }, 2000))
      << "watchdog did not clear after the task finished";
  (void)c.Send(kMsgGoodbye, "");
}

// WAL backpressure reaches admission control: while the retained log sits
// over its soft limit, new commits are refused with kRetryLater (and the
// client's shed-retry budget rides through transient backpressure).
TEST_F(OverloadTest, LogFullShedsCommitsWithRetryLater) {
  Database::Options dbo;
  dbo.dir = (base_ / "db").string();
  dbo.db_id = 1;
  dbo.create = true;
  // A soft limit far below one log segment: once the head segment holds
  // more than 16KB, no checkpoint can release it (release is segment-
  // granular), so the backpressure signal is sticky — deterministic sheds.
  dbo.wal_soft_limit_bytes = 16 << 10;
  dbo.wal_throttle_timeout_ms = 50;
  auto db = Database::Open(dbo);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);

  BessServer::Options o;
  o.socket_path = sock_path_;
  server_ = std::make_unique<BessServer>(o);
  ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
  ASSERT_TRUE(server_->Start().ok());

  RemoteClient::Options co;
  co.server_path = sock_path_;
  co.db_id = 1;
  co.retry_later_max = 2;  // surface the shed quickly once saturated
  co.retry_later_backoff_ms = 1;
  auto client = RemoteClient::Connect(co);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto file = [&] {
    (void)(*client)->Begin();
    auto f = (*client)->CreateFile("f");
    EXPECT_TRUE(f.ok());
    (void)(*client)->Commit();
    return *f;
  }();

  // Commit objects until the retained log crosses the soft limit and the
  // server starts refusing; the refusal must surface as kRetryLater.
  Status refused;
  for (int i = 0; i < 64 && refused.ok(); ++i) {
    ASSERT_TRUE((*client)->Begin().ok());
    std::string blob(2048, static_cast<char>('a' + (i % 26)));
    auto slot = (*client)->CreateObject(file, kRawBytesType,
                                        static_cast<uint32_t>(blob.size()),
                                        blob.data());
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    Status s = (*client)->Commit();
    if (!s.ok()) refused = s;
  }
  EXPECT_TRUE(refused.IsRetryLater()) << refused.ToString();
  EXPECT_GE(server_->stats().counter("server.overload.shed.log_full"), 1u);
  EXPECT_GE((*client)->stats().counter("client.retry_later.backoff"), 1u);
}

// The circuit breaker: consecutive transport failures open it, calls then
// fail fast with kRetryLater (no per-call timeout burn), and once the
// server is back the half-open ping probe closes it again — layered under
// the reconnect machinery, which the probe itself drives.
TEST_F(OverloadTest, BreakerOpensFailsFastAndHealsViaProbe) {
  Database::Options dbo;
  dbo.dir = (base_ / "db").string();
  dbo.db_id = 1;
  dbo.create = true;
  auto db = Database::Open(dbo);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);

  BessServer::Options o;
  o.socket_path = sock_path_;
  server_ = std::make_unique<BessServer>(o);
  ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
  ASSERT_TRUE(server_->Start().ok());

  RemoteClient::Options co;
  co.server_path = sock_path_;
  co.db_id = 1;
  co.max_rpc_retries = 0;  // isolate breaker behaviour from retry loops
  co.breaker_failure_threshold = 2;
  co.breaker_cooldown_ms = 500;
  auto client = RemoteClient::Connect(co);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  server_->Stop();
  server_.reset();

  // Two consecutive transport failures open the breaker...
  EXPECT_FALSE((*client)->ServerStats().ok());
  EXPECT_FALSE((*client)->ServerStats().ok());
  auto cs = (*client)->stats();
  EXPECT_EQ(cs.counter("client.breaker.open"), 1u);
  // ...and the next call inside the cooldown short-circuits without
  // touching the socket.
  auto r = (*client)->ServerStats();
  EXPECT_TRUE(r.status().IsRetryLater()) << r.status().ToString();
  EXPECT_GE((*client)->stats().counter("client.breaker.short_circuit"), 1u);

  // Server returns; after the cooldown the next caller runs the half-open
  // ping probe (reconnecting under the hood) and the call goes through.
  BessServer::Options o2;
  o2.socket_path = sock_path_;
  server_ = std::make_unique<BessServer>(o2);
  ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
  ASSERT_TRUE(server_->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(WaitFor([&] { return (*client)->ServerStats().ok(); }, 5000))
      << "breaker never healed after the server came back";
  cs = (*client)->stats();
  EXPECT_GE(cs.counter("client.breaker.probe"), 1u);
  EXPECT_GE(cs.counter("rpc.reconnect"), 1u);
}

// A client with a per-RPC deadline gives up waiting locally when the
// server wedges — here an injected EAGAIN storm on the reactor's receive
// path means the request is never even read — and the caller gets
// kDeadlineExceeded in bounded time instead of hanging.
TEST_F(OverloadTest, ClientLocalDeadlineBoundsWaitOnWedgedServer) {
  Database::Options dbo;
  dbo.dir = (base_ / "db").string();
  dbo.db_id = 1;
  dbo.create = true;
  auto db = Database::Open(dbo);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);

  BessServer::Options o;
  o.socket_path = sock_path_;
  server_ = std::make_unique<BessServer>(o);
  ASSERT_TRUE(server_->AddDatabase(db_.get()).ok());
  ASSERT_TRUE(server_->Start().ok());

  RemoteClient::Options co;
  co.server_path = sock_path_;
  co.db_id = 1;
  co.max_rpc_retries = 0;
  co.rpc_deadline_ms = 100;  // local backstop ≈ 250ms
  auto client = RemoteClient::Connect(co);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Wedge the server's inbound path: every TryRecv reports EAGAIN, so the
  // request sits unread in the socket buffer and no reply ever forms.
  fault::FaultSpec storm;
  storm.action = fault::FaultAction::kFail;
  storm.code = StatusCode::kWouldBlock;
  fault::FaultRegistry::Instance().Arm("sock.tryrecv", storm);

  const auto t0 = std::chrono::steady_clock::now();
  auto r = (*client)->ServerStats();
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  fault::FaultRegistry::Instance().DisarmAll();
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_LT(waited.count(), 1500) << "local deadline did not bound the wait";
  EXPECT_GE((*client)->stats().counter("client.deadline.local"), 1u);
}

// 500 connect/disconnect cycles (mixed clean goodbyes and abrupt closes):
// live-session count and the process's open-fd count both return to
// baseline — no leaked sessions, no leaked descriptors.
TEST_F(OverloadTest, ConnectionChurnLeaksNoFdsOrSessions) {
  BessServer::Options o;
  StartServer(o);

  // Let the listener/reactor reach steady state before baselining fds.
  { MsgSocket warm = ConnectRaw(); (void)warm.Send(kMsgGoodbye, ""); }
  ASSERT_TRUE(WaitFor([&] { return server_->live_sessions() == 0; }, 2000));
  const size_t fd_baseline = OpenFdCount();

  for (int i = 0; i < 500; ++i) {
    MsgSocket c = ConnectRaw();
    if (i % 3 == 0) {
      c.Close();  // abrupt: reaped via on_close teardown
    } else {
      ASSERT_TRUE(c.Send(kMsgPing, "x", 1).ok());
      auto r = c.Recv();
      ASSERT_TRUE(r.ok());
      (void)c.Send(kMsgGoodbye, "");
    }
  }
  EXPECT_TRUE(WaitFor([&] { return server_->live_sessions() == 0; }, 10000))
      << server_->live_sessions() << " sessions leaked";
  EXPECT_TRUE(WaitFor([&] { return OpenFdCount() <= fd_baseline; }, 10000))
      << "fd count " << OpenFdCount() << " never returned to baseline "
      << fd_baseline;
  EXPECT_GE(server_->stats().counter("srv.session.close"), 500u);
}

}  // namespace
}  // namespace bess
