// node_cluster: the multi-client multi-server configuration of Figure 2.
//
// One BeSS server owns the database; a node server caches for its "node";
// clients connect both directly (copy-on-access over the network, with
// inter-transaction caching and callback locking) and through the node
// server. A second server demonstrates a two-server distributed commit.
//
//   $ ./node_cluster /tmp/bess_cluster
#include <cstdio>
#include <string>

#include "bess/bess.h"
#include "bess/bess_internal.h"

using namespace bess;

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const std::string dir = argc > 1 ? argv[1] : "/tmp/bess_cluster";
  (void)system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());

  // ---- server 1 owns database 1 ----------------------------------------------
  Database::Options dbo;
  dbo.dir = dir + "/db1";
  dbo.db_id = 1;
  dbo.create = true;
  auto db1 = Database::Open(dbo);
  if (!db1.ok()) return 1;
  BessServer::Options so;
  so.socket_path = dir + "/server1.sock";
  BessServer server1(so);
  (void)server1.AddDatabase(db1->get());
  if (!server1.Start().ok()) return 1;
  printf("server1 owns database 1 at %s\n", so.socket_path.c_str());

  // ---- node server: caches on behalf of local applications (§3) -------------
  NodeServer::Options no;
  no.socket_path = dir + "/node.sock";
  no.upstream_path = so.socket_path;
  auto node = NodeServer::Start(no);
  if (!node.ok()) return 1;
  printf("node server caching for local applications\n");

  // ---- client A (direct): creates the shared design --------------------------
  RemoteClient::Options ca;
  ca.server_path = so.socket_path;
  ca.db_id = 1;
  auto a = RemoteClient::Connect(ca);
  if (!a.ok()) return 1;
  if (!(*a)->Begin().ok()) return 1;
  auto file = (*a)->CreateFile("designs");
  if (!file.ok()) return 1;
  uint64_t v = 1;
  auto obj = (*a)->CreateObject(*file, kRawBytesType, 8, &v);
  if (!obj.ok()) return 1;
  if (!(*a)->SetRoot("design", *obj).ok()) return 1;
  if (!(*a)->Commit().ok()) return 1;
  printf("client A created the design (value 1); its locks stay cached\n");

  // ---- applications B and C on the node --------------------------------------
  RemoteClient::Options cb;
  cb.server_path = no.socket_path;  // through the node server
  cb.db_id = 1;
  // Applications behind a node server do not cache locks themselves: the
  // node caches data and locks on their behalf and answers the server's
  // callbacks (§3). They release their (node-local) locks at commit.
  cb.cache_inter_txn = false;
  auto b = RemoteClient::Connect(cb);
  auto c = RemoteClient::Connect(cb);
  if (!b.ok() || !c.ok()) return 1;

  if (!(*b)->Begin().ok()) return 1;
  auto design_b = (*b)->GetRoot("design");
  if (!design_b.ok()) return 1;
  printf("app B (via node) reads value %llu\n",
         (unsigned long long)*reinterpret_cast<uint64_t*>((*design_b)->dp));
  if (!(*b)->Commit().ok()) return 1;

  if (!(*c)->Begin().ok()) return 1;
  auto design_c = (*c)->GetRoot("design");
  if (!design_c.ok()) return 1;
  printf("app C (via node) reads value %llu — served from the node cache "
         "(cache hits so far: %llu)\n",
         (unsigned long long)*reinterpret_cast<uint64_t*>((*design_c)->dp),
         (unsigned long long)(*node)->stats().cache_hits);
  if (!(*c)->Commit().ok()) return 1;

  // ---- a write by A triggers callbacks to reclaim cached locks ---------------
  if (!(*a)->Begin().ok()) return 1;
  auto design_a = (*a)->GetRoot("design");
  if (!design_a.ok()) return 1;
  (*reinterpret_cast<uint64_t*>((*design_a)->dp)) = 42;
  if (!(*a)->Commit().ok()) return 1;
  printf("client A wrote value 42 (server sent %llu callbacks to reclaim "
         "conflicting cached locks)\n",
         (unsigned long long)server1.stats().counter("srv.callback.sent"));

  if (!(*b)->Begin().ok()) return 1;
  auto reread = (*b)->GetRoot("design");
  if (!reread.ok()) return 1;
  printf("app B re-reads value %llu (node cache was invalidated)\n",
         (unsigned long long)*reinterpret_cast<uint64_t*>((*reread)->dp));
  if (!(*b)->Commit().ok()) return 1;

  // ---- second server: a transaction spanning two databases (2PC, §3) ---------
  Database::Options dbo2;
  dbo2.dir = dir + "/db2";
  dbo2.db_id = 2;
  dbo2.create = true;
  auto db2 = Database::Open(dbo2);
  if (!db2.ok()) return 1;
  BessServer::Options so2;
  so2.socket_path = dir + "/server2.sock";
  BessServer server2(so2);
  (void)server2.AddDatabase(db2->get());
  if (!server2.Start().ok()) return 1;

  // Seed an object on server 2 and learn its OID.
  RemoteClient::Options c2o;
  c2o.server_path = so2.socket_path;
  c2o.db_id = 2;
  auto seeder = RemoteClient::Connect(c2o);
  if (!seeder.ok()) return 1;
  if (!(*seeder)->Begin().ok()) return 1;
  auto f2 = (*seeder)->CreateFile("mirror");
  uint64_t zero = 0;
  auto remote_obj = (*seeder)->CreateObject(*f2, kRawBytesType, 8, &zero);
  if (!remote_obj.ok()) return 1;
  auto remote_oid = (*seeder)->OidOf(*remote_obj);
  if (!(*seeder)->Commit().ok()) return 1;

  // Client A attaches server 2 and commits one transaction touching both.
  if (!(*a)->AddServer(so2.socket_path, {2}).ok()) return 1;
  auto mirrored = (*a)->Deref(*remote_oid);
  if (!mirrored.ok()) return 1;
  if (!(*a)->Begin().ok()) return 1;
  (*reinterpret_cast<uint64_t*>((*design_a)->dp)) = 100;   // db 1
  (*reinterpret_cast<uint64_t*>((*mirrored)->dp)) = 100;   // db 2
  if (!(*a)->Commit().ok()) return 1;
  printf("one transaction updated both servers atomically via 2PC\n");

  node->reset();
  server1.Stop();
  server2.Stop();
  printf("ok\n");
  return 0;
}
