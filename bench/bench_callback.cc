// E6 (paper §3, refs [17,19,32,13]): inter-transaction caching with
// callback locking.
//
// Workloads follow the client-server caching literature: each client has a
// private region plus a shared region with a configurable write
// probability. We compare clients that cache data+locks across
// transactions (with the server reclaiming via callbacks) against clients
// that drop everything at commit (the paper's node-less behaviour), and
// report transactions/second and messages per transaction.
#include "bess/bess_internal.h"
#include "workload.h"

using namespace bessbench;

namespace {

struct WorkloadResult {
  double txn_per_sec;
  double rpcs_per_txn;
  uint64_t callbacks;
};

WorkloadResult RunClients(const std::string& server_path, int nclients,
                          int txns_per_client, bool caching,
                          double shared_prob, double write_prob,
                          BessServer* server) {
  const auto server0 = server->stats();
  std::vector<std::thread> threads;
  std::atomic<uint64_t> total_rpcs{0};
  std::atomic<int> done_txns{0};

  double secs = TimeIt([&] {
    for (int c = 0; c < nclients; ++c) {
      threads.emplace_back([&, c] {
        RemoteClient::Options o;
        o.server_path = server_path;
        o.db_id = 1;
        o.cache_inter_txn = caching;
        o.lock_timeout_ms = 2000;
        auto client = RemoteClient::Connect(o);
        if (!client.ok()) {
          fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
          return;
        }
        auto priv = (*client)->GetRoot("priv_" + std::to_string(c));
        auto shared = (*client)->GetRoot("shared");
        if (!priv.ok() || !shared.ok()) {
          fprintf(stderr, "roots: %s / %s\n",
                  priv.status().ToString().c_str(),
                  shared.status().ToString().c_str());
          return;
        }
        Random rng(static_cast<uint64_t>(c) * 7919 + 13);
        for (int t = 0; t < txns_per_client; ++t) {
          if (!(*client)->Begin().ok()) return;
          // Touch 8 objects: mostly private, sometimes shared.
          for (int i = 0; i < 8; ++i) {
            const bool use_shared = rng.Bernoulli(shared_prob);
            Slot* region = use_shared ? *shared : *priv;
            Part* p = reinterpret_cast<Part*>(region->dp);
            if (rng.Bernoulli(write_prob)) {
              p->payload[i % 4]++;
            } else {
              volatile uint64_t v = p->payload[i % 4];
              (void)v;
            }
          }
          Status s = (*client)->Commit();
          if (s.ok()) done_txns.fetch_add(1);
          else {
            fprintf(stderr, "commit: %s\n", s.ToString().c_str());
            (void)(*client)->Abort();
          }
        }
        total_rpcs.fetch_add((*client)->stats().counter("rpc.call"));
      });
    }
    for (auto& t : threads) t.join();
  });

  const auto server1 = server->stats();
  WorkloadResult r;
  const int txns = done_txns.load();
  r.txn_per_sec = txns / secs;
  r.rpcs_per_txn = txns == 0 ? 0 : static_cast<double>(total_rpcs.load()) / txns;
  r.callbacks = server1.counter("srv.callback.sent") -
                server0.counter("srv.callback.sent");
  return r;
}

}  // namespace

int main() {
  TempDir dir("callback");
  Database::Options o;
  o.dir = dir.Sub("db");
  o.db_id = 1;
  o.create = true;
  auto dbr = Database::Open(o);
  if (!dbr.ok()) return 1;
  auto db = std::move(*dbr);

  BessServer::Options so;
  so.socket_path = dir.Sub("server.sock");
  so.lock_timeout_ms = 3000;
  BessServer server(so);
  (void)server.AddDatabase(db.get());
  if (!server.Start().ok()) return 1;

  // Seed: one private object per client (each in its own segment via a
  // dedicated file) and one shared object.
  const int kClients = std::getenv("CB_CLIENTS") ? atoi(std::getenv("CB_CLIENTS")) : 4;
  {
    auto part_type = db->RegisterType(PartType());
    auto txn = db->Begin();
    for (int c = 0; c < kClients; ++c) {
      auto f = db->CreateFile("priv_" + std::to_string(c));
      auto s = db->CreateObject(*f, *part_type, sizeof(Part));
      if (!s.ok()) return 1;
      (void)db->SetRoot("priv_" + std::to_string(c), *s);
    }
    auto fs = db->CreateFile("sharedf");
    auto s = db->CreateObject(*fs, *part_type, sizeof(Part));
    if (!s.ok()) return 1;
    (void)db->SetRoot("shared", *s);
    if (!db->Commit(*txn).ok()) return 1;
    (void)db->mapper()->Reset();  // the server keeps no mapped copies
  }

  PrintHeader("E6: callback locking vs no inter-transaction caching (§3)",
              "workload              caching   txn/s    rpc/txn   callbacks");
  struct Case {
    const char* name;
    double shared_prob;
    double write_prob;
  };
  const Case cases[] = {
      {"private (0% shared)", 0.0, 0.3},
      {"hot-read (20% sh, r/o)", 0.2, 0.0},
      {"hot-write (20% sh, 30%w)", 0.2, 0.3},
  };
  const int kTxns = std::getenv("CB_TXNS") ? atoi(std::getenv("CB_TXNS")) : 50;
  for (const Case& c : cases) {
    for (bool caching : {true, false}) {
      WorkloadResult r =
          RunClients(so.socket_path, kClients, kTxns, caching, c.shared_prob,
                     c.write_prob, &server);
      printf("%-22s  %-7s  %7.0f   %7.2f   %9llu\n", c.name,
             caching ? "yes" : "no", r.txn_per_sec, r.rpcs_per_txn,
             (unsigned long long)r.callbacks);
      fflush(stdout);
    }
  }
  printf("\nExpectation: with private or read-shared data, caching cuts\n"
         "messages per transaction toward zero and multiplies throughput;\n"
         "write-shared data forces callbacks, narrowing the gap — the\n"
         "classic callback-locking profile [13, 32].\n");
  server.Stop();
  WriteMetricsSidecar("bench_callback");
  return 0;
}
