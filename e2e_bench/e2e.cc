// End-to-end transaction benchmark of BeSS: real object transactions over
// the public API, timed from Begin to the Commit return, with their cost
// split by layer from outside the program.
//
// Workloads (everything in this one process; servers on Unix sockets,
// closed-loop client threads):
//   cached_mixed  copy-on-access: 2 RemoteClients -> BessServer with
//                 inter-transaction caching and callback locking; 90%
//                 read-only traversals of a shared graph, 10% updates of a
//                 private partition plus, sometimes, one shared part.
//   node_fetch    shared-memory-mode configuration: 3 RemoteClients ->
//                 NodeServer -> BessServer, no inter-transaction caching,
//                 read-only traversals over a graph 4x the node cache.
//   local_update  server-linked embedded Database, one thread: index
//                 lookup + traversal + part updates + index rewrite, half
//                 read-only; then a crash-restart timed separately.
//
//   $ e2e_bench --workload cached_mixed --seed 1 --seconds 25 --trace 0
//
// Run it from a scratch directory: it creates its databases, sockets and
// trace dump there. The last stdout line is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics; --trace 1 splits the time into an untraced and a traced window
// and reports the per-layer metrics (counter deltas of the untraced window,
// span self times of the traced one, and the throughput gap between the two
// as tracing overhead).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bess/bess.h"
#include "bess/bess_internal.h"
#include "graph.h"
#include "stats.h"

namespace e2e {
namespace {

using bess::Database;
using bess::Oid;
using bess::Random;
using bess::Result;
using bess::Slot;
using bess::Status;
using bess::obs::Trace;

constexpr const char* kWorkDir = "e2e_work";  ///< databases and sockets
constexpr int kSetups = 5;   ///< setup_s is the median of this many set-ups
constexpr int kSlices = 10;  ///< time slices of a window (see SlicedTps)
/// Latency samples kept per client thread and transaction kind.
constexpr size_t kReservoir = 1u << 16;

// ---- benchmark-side timing -------------------------------------------------------

/// Times one call into the system; emits a trace span when tracing is armed
/// (span names are string literals, as the trace buffer requires).
class Timed {
 public:
  explicit Timed(const char* name) : name_(name), start_(Trace::NowNs()) {}
  /// Microseconds since construction.
  double Stop() {
    const uint64_t dur = Trace::NowNs() - start_;
    if (Trace::active()) Trace::Emit(name_, start_, dur);
    return static_cast<double>(dur) / 1e3;
  }

 private:
  const char* name_;
  uint64_t start_;
};

/// Running mean of a benchmark-timed call.
struct MeanUs {
  double sum = 0;
  uint64_t n = 0;
  void Add(double us) {
    sum += us;
    ++n;
  }
  void Merge(const MeanUs& o) {
    sum += o.sum;
    n += o.n;
  }
  double mean() const { return Ratio(sum, static_cast<double>(n)); }
};

// ---- per-thread transaction accounting -------------------------------------------

enum Cause { kLockTimeout, kShed, kTransport, kCommitError, kCauses };

Cause Classify(const Status& s) {
  if (s.IsDeadlock()) return kLockTimeout;
  if (s.IsRetryLater() || s.IsDeadlineExceeded()) return kShed;
  if (s.IsIOError() || s.code() == bess::StatusCode::kProtocol) {
    return kTransport;
  }
  return kCommitError;
}

/// Transaction counts and call timings of a window.
struct Tally {
  uint64_t attempted = 0;
  uint64_t read_commits = 0;
  uint64_t update_commits = 0;
  uint64_t failed[kCauses] = {};
  uint64_t wrong_results = 0;  ///< checksum / value mismatches
  std::string first_error;
  uint64_t slice_commits[kSlices] = {};
  MeanUs begin, traverse, commit, index_get, index_put;

  uint64_t failures() const {
    uint64_t n = 0;
    for (uint64_t f : failed) n += f;
    return n;
  }
  void Fail(const Status& s) {
    failed[Classify(s)]++;
    if (first_error.empty()) first_error = s.ToString();
  }
  void Wrong(const std::string& what) {
    wrong_results++;
    if (first_error.empty()) first_error = what;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    read_commits += o.read_commits;
    update_commits += o.update_commits;
    for (int c = 0; c < kCauses; ++c) failed[c] += o.failed[c];
    wrong_results += o.wrong_results;
    if (first_error.empty()) first_error = o.first_error;
    for (int i = 0; i < kSlices; ++i) slice_commits[i] += o.slice_commits[i];
    begin.Merge(o.begin);
    traverse.Merge(o.traverse);
    commit.Merge(o.commit);
    index_get.Merge(o.index_get);
    index_put.Merge(o.index_put);
  }
};

/// What one client thread saw in one window. Memory is fixed up front.
struct TxnRecord : Tally {
  explicit TxnRecord(uint64_t seed)
      : reads(kReservoir, seed * 2 + 1), updates(kReservoir, seed * 2 + 2) {}

  Reservoir reads, updates;
  uint64_t start_ns = 0, slice_ns = 0;

  void Committed(bool update, double us) {
    const uint64_t now = Trace::NowNs();
    (update ? updates : reads).Add(Sample{now, us});
    (update ? update_commits : read_commits)++;
    slice_commits[SliceOf(now, start_ns, slice_ns, kSlices)]++;
  }
};

/// One measured window, merged over its client threads.
struct Phase : Tally {
  std::vector<Sample> reads, updates;
  uint64_t start_ns = 0;
  uint64_t slice_ns = 0;
  double elapsed_s = 0;
  double peak_rss_mb = 0;  ///< at the window's end, before any merging
  Window counters;
  bess::NodeServer::Stats node{};  ///< NodeServer::stats() delta

  double tps() const {
    return Ratio(static_cast<double>(read_commits + update_commits),
                 elapsed_s);
  }
  void Add(const TxnRecord& r) {
    Merge(r);
    for (const Sample& s : r.reads.kept()) reads.push_back(s);
    for (const Sample& s : r.updates.kept()) updates.push_back(s);
  }
};

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Pins closed-loop client `c` to its own CPU when the process may use more
/// CPUs than there are clients, leaving the rest to the servers. For
/// memory-speed readers; without it the scheduler moves them between cores
/// and the spread between runs doubles.
void PinClient(int c, int clients) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) <= clients) {
    return;
  }
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != c) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
    return;
  }
}

/// Runs `body(client, record)` on `clients` closed-loop threads until
/// `seconds` have passed; each thread finishes its transaction in flight.
void RunClosedLoop(int clients, bool pin, double seconds,
                   const std::function<void(int, TxnRecord*)>& body,
                   Phase* phase) {
  std::vector<std::unique_ptr<TxnRecord>> records;
  phase->start_ns = Trace::NowNs();
  phase->slice_ns = static_cast<uint64_t>(seconds * 1e9) / kSlices;
  for (int c = 0; c < clients; ++c) {
    records.push_back(std::make_unique<TxnRecord>(static_cast<uint64_t>(c)));
    records.back()->start_ns = phase->start_ns;
    records.back()->slice_ns = phase->slice_ns;
  }
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      if (pin) PinClient(c, clients);
      while (std::chrono::steady_clock::now() < deadline) {
        body(c, records[static_cast<size_t>(c)].get());
      }
    });
  }
  for (auto& t : threads) t.join();
  phase->elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  phase->peak_rss_mb = PeakRssMb();
  for (const auto& r : records) phase->Add(*r);
}

/// A fixed number of transactions per client (warm-up, restart tails).
Phase RunCount(int clients, int per_client,
               const std::function<void(int, TxnRecord*)>& body) {
  std::vector<std::unique_ptr<TxnRecord>> records;
  for (int c = 0; c < clients; ++c) {
    records.push_back(std::make_unique<TxnRecord>(static_cast<uint64_t>(c)));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        body(c, records[static_cast<size_t>(c)].get());
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase out;
  for (const auto& r : records) out.Add(*r);
  return out;
}

/// Pages of the storage-area files under a database directory.
uint64_t AreaPages(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("area", 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes / bess::kPageSize;
}

Database::Options DbOptions(const std::string& dir, bool create) {
  Database::Options o;
  o.dir = dir;
  o.create = create;
  o.outbound_capacity = 480;  // a random part graph references many segments
  return o;
}

/// The last `n` distinct parts of a walk: the parts an update writes.
std::vector<uint32_t> LastDistinct(const std::vector<uint32_t>& path, int n) {
  std::vector<uint32_t> out;
  for (auto it = path.rbegin();
       it != path.rend() && static_cast<int>(out.size()) < n; ++it) {
    if (std::find(out.begin(), out.end(), *it) == out.end()) {
      out.push_back(*it);
    }
  }
  return out;
}

// ---- copy-on-access / node-server workloads ----------------------------------------

/// One BessServer over an embedded Database holding a shared part graph
/// (plus per-client private partitions), with closed-loop RemoteClients
/// connected either directly or through a NodeServer.
class RemoteWorkload {
 public:
  static constexpr uint32_t kSharedParts = 10000;
  static constexpr int kUpdateHops = 20;
  static constexpr int kUpdateWrites = 4;
  static constexpr double kHotFraction = 0.05;
  /// The node cache holds this share of the database's area pages.
  static constexpr double kNodeCacheShare = 0.25;

  struct Config {
    int clients = 3;
    /// Through a NodeServer, with `cache_inter_txn` off as applications
    /// behind a node server run (paper §3); otherwise straight to the
    /// BessServer with inter-transaction caching, readers pinned to CPUs.
    bool via_node = false;
    uint32_t private_parts = 0;  ///< per client; 0 = no private partitions
    int read_hops = 200;
    double update_share = 0.0;
    /// Share of client 0's updates that also write one shared part.
    double shared_write_share = 0.0;
    double hot_prob = 0.8;
    int warmup_txns = 300;  ///< per client, part of set-up
  };

  RemoteWorkload(std::string dir, Config cfg)
      : dir_(std::move(dir)), cfg_(cfg) {}
  ~RemoteWorkload() { Teardown(); }
  RemoteWorkload(const RemoteWorkload&) = delete;
  RemoteWorkload& operator=(const RemoteWorkload&) = delete;

  Status Setup(uint64_t seed);
  void Run(double seconds, Phase* phase);
  /// Checks every acknowledged update through a fresh uncached client.
  Status Verify(std::string* problem);
  uint64_t db_pages() const { return db_pages_; }
  uint32_t node_cache_pages() const { return node_cache_pages_; }

 private:
  struct Client {
    std::unique_ptr<bess::RemoteClient> rc;
    std::vector<Slot*> shared_slots;
    std::vector<Slot*> private_slots;
    std::vector<uint32_t> writable_shared;  ///< shared parts we may update
    std::vector<uint64_t> private_count;    ///< acknowledged increments
    std::vector<uint64_t> shared_count;
    Random rng{1};
  };

  void Teardown();
  void Txn(int c, TxnRecord* rec);
  void ReadTxn(Client& cl, TxnRecord* rec);
  void UpdateTxn(int c, Client& cl, TxnRecord* rec);
  Result<std::unique_ptr<bess::RemoteClient>> Connect(bool via_node,
                                                      bool cache_inter_txn);

  std::string dir_;
  Config cfg_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<bess::BessServer> server_;
  std::unique_ptr<bess::NodeServer> node_;
  ShadowGraph shared_;
  std::vector<ShadowGraph> private_;
  std::vector<Oid> shared_oids_;
  std::vector<std::vector<Oid>> private_oids_;
  std::unique_ptr<StartPicker> shared_picker_;
  std::unique_ptr<StartPicker> private_picker_;
  std::vector<Client> clients_;
  uint64_t db_pages_ = 0;
  uint32_t node_cache_pages_ = 0;
};

Result<std::unique_ptr<bess::RemoteClient>> RemoteWorkload::Connect(
    bool via_node, bool cache_inter_txn) {
  bess::RemoteClient::Options o;
  o.server_path = dir_ + (via_node ? "/node.sock" : "/srv.sock");
  o.db_id = 1;
  o.cache_inter_txn = cache_inter_txn;
  return bess::RemoteClient::Connect(o);
}

Status RemoteWorkload::Setup(uint64_t seed) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  BESS_ASSIGN_OR_RETURN(db_, Database::Open(DbOptions(dir_ + "/db", true)));
  BESS_ASSIGN_OR_RETURN(bess::TypeIdx type,
                        db_->RegisterType(bessbench::PartType()));

  // Generate and load the graphs in one transaction.
  GraphSpec spec;
  spec.parts = kSharedParts;
  spec.seed = seed * 7919 + 1;
  shared_ = Generate(spec);
  private_.clear();
  if (cfg_.private_parts > 0) {
    for (int c = 0; c < cfg_.clients; ++c) {
      GraphSpec ps;
      ps.parts = cfg_.private_parts;
      ps.first_id = kSharedParts + static_cast<uint64_t>(c) * ps.parts;
      ps.seed = spec.seed + 101 + static_cast<uint64_t>(c);
      private_.push_back(Generate(ps));
    }
  }
  {
    bess::TxnGuard txn(db_.get());
    BESS_RETURN_IF_ERROR(txn.begin_status());
    BESS_ASSIGN_OR_RETURN(uint16_t file, db_->CreateFile("shared"));
    BESS_ASSIGN_OR_RETURN(auto slots, Load(db_.get(), file, type, shared_));
    shared_oids_.clear();
    for (Slot* s : slots) {
      BESS_ASSIGN_OR_RETURN(Oid oid, db_->OidOf(s));
      shared_oids_.push_back(oid);
    }
    private_oids_.assign(private_.size(), {});
    for (size_t c = 0; c < private_.size(); ++c) {
      BESS_ASSIGN_OR_RETURN(
          uint16_t pfile, db_->CreateFile("private" + std::to_string(c)));
      BESS_ASSIGN_OR_RETURN(auto pslots,
                            Load(db_.get(), pfile, type, private_[c]));
      for (Slot* s : pslots) {
        BESS_ASSIGN_OR_RETURN(Oid oid, db_->OidOf(s));
        private_oids_[c].push_back(oid);
      }
    }
    BESS_RETURN_IF_ERROR(txn.Commit().status());
  }
  db_pages_ = AreaPages(dir_ + "/db");

  bess::BessServer::Options so;
  so.socket_path = dir_ + "/srv.sock";
  server_ = std::make_unique<bess::BessServer>(so);
  BESS_RETURN_IF_ERROR(server_->AddDatabase(db_.get()));
  BESS_RETURN_IF_ERROR(server_->Start());
  if (cfg_.via_node) {
    bess::NodeServer::Options no;
    no.socket_path = dir_ + "/node.sock";
    no.upstream_path = so.socket_path;
    node_cache_pages_ = std::max<uint32_t>(
        16, static_cast<uint32_t>(kNodeCacheShare *
                                  static_cast<double>(db_pages_)));
    no.cache_pages = node_cache_pages_;
    BESS_ASSIGN_OR_RETURN(node_, bess::NodeServer::Start(no));
  }

  shared_picker_ = std::make_unique<StartPicker>(
      shared_.size(), kHotFraction, cfg_.hot_prob, seed * 31 + 7);
  if (!private_.empty()) {
    private_picker_ = std::make_unique<StartPicker>(
        cfg_.private_parts, kHotFraction, cfg_.hot_prob, seed * 37 + 11);
  }
  // Shared writes: one writer (client 0) updating parts of one hot shared
  // segment. Every other client caches that segment, so a shared commit
  // calls their locks back and their next read refetches it. A second
  // shared writer is left out on purpose: a client answers callbacks from
  // its own thread, but the mapper lock is held across a fault's lock RPC,
  // so two clients faulting on each other's cached locks stall until the
  // callback timeout tears a session down.
  std::vector<uint32_t> hot_segment_parts;
  const uint32_t hot_page = shared_oids_[shared_picker_->hot()[0]].page;
  for (uint32_t i = 0; i < shared_oids_.size(); ++i) {
    if (shared_oids_[i].page == hot_page) hot_segment_parts.push_back(i);
  }

  clients_.clear();
  clients_.resize(static_cast<size_t>(cfg_.clients));
  for (int c = 0; c < cfg_.clients; ++c) {
    Client& cl = clients_[static_cast<size_t>(c)];
    cl.rng = Random(seed * 1000003 + static_cast<uint64_t>(c) + 1);
    BESS_ASSIGN_OR_RETURN(cl.rc, Connect(cfg_.via_node, !cfg_.via_node));
    // Resolve every part once (cold slotted faults: set-up, not window).
    BESS_RETURN_IF_ERROR(cl.rc->Begin());
    for (const Oid& oid : shared_oids_) {
      BESS_ASSIGN_OR_RETURN(Slot * s, cl.rc->Deref(oid));
      cl.shared_slots.push_back(s);
    }
    if (!private_.empty()) {
      for (const Oid& oid : private_oids_[static_cast<size_t>(c)]) {
        BESS_ASSIGN_OR_RETURN(Slot * s, cl.rc->Deref(oid));
        cl.private_slots.push_back(s);
      }
      cl.private_count.assign(cfg_.private_parts, 0);
    }
    BESS_RETURN_IF_ERROR(cl.rc->Commit());
    cl.shared_count.assign(kSharedParts, 0);
    if (c == 0 && cfg_.shared_write_share > 0) {
      cl.writable_shared = hot_segment_parts;
    }
  }

  // Warm-up: the workload's own mix, a fixed number of transactions.
  const Phase warm = RunCount(cfg_.clients, cfg_.warmup_txns,
                              [this](int c, TxnRecord* r) { Txn(c, r); });
  if (warm.wrong_results > 0) {
    return Status::Corruption("warm-up: " + warm.first_error);
  }
  return Status::OK();
}

void RemoteWorkload::Txn(int c, TxnRecord* rec) {
  Client& cl = clients_[static_cast<size_t>(c)];
  if (cfg_.update_share > 0 && cl.rng.Bernoulli(cfg_.update_share)) {
    UpdateTxn(c, cl, rec);
  } else {
    ReadTxn(cl, rec);
  }
}

void RemoteWorkload::ReadTxn(Client& cl, TxnRecord* rec) {
  const uint32_t start = shared_picker_->Pick(cl.rng);
  const uint64_t walk = cl.rng.Next();
  const uint64_t expected =
      ShadowTraverse(shared_, start, cfg_.read_hops, walk, nullptr);
  rec->attempted++;
  Timed txn("bench.txn");
  Timed begin("bench.object.begin");
  Status s = cl.rc->Begin();
  rec->begin.Add(begin.Stop());
  if (!s.ok()) {
    txn.Stop();
    rec->Fail(s);
    return;
  }
  Timed traverse("bench.object.traverse");
  const uint64_t got = Traverse(bess::ref<Part>(cl.shared_slots[start]),
                                cfg_.read_hops, walk, nullptr);
  rec->traverse.Add(traverse.Stop());
  Timed commit("bench.object.commit");
  s = cl.rc->Commit();
  rec->commit.Add(commit.Stop());
  const double us = txn.Stop();
  if (!s.ok()) {
    rec->Fail(s);
    return;
  }
  rec->Committed(false, us);
  if (got != expected) rec->Wrong("read traversal checksum mismatch");
}

void RemoteWorkload::UpdateTxn(int c, Client& cl, TxnRecord* rec) {
  const ShadowGraph& g = private_[static_cast<size_t>(c)];
  const uint32_t start = private_picker_->Pick(cl.rng);
  const uint64_t walk = cl.rng.Next();
  std::vector<uint32_t> path;
  const uint64_t expected =
      ShadowTraverse(g, start, kUpdateHops, walk, &path);
  const std::vector<uint32_t> writes = LastDistinct(path, kUpdateWrites);
  int64_t shared_target = -1;
  if (!cl.writable_shared.empty() &&
      cl.rng.Bernoulli(cfg_.shared_write_share)) {
    shared_target =
        cl.writable_shared[cl.rng.Uniform(cl.writable_shared.size())];
  }

  rec->attempted++;
  Timed txn("bench.txn");
  Timed begin("bench.object.begin");
  Status s = cl.rc->Begin();
  rec->begin.Add(begin.Stop());
  if (!s.ok()) {
    txn.Stop();
    rec->Fail(s);
    return;
  }
  Timed traverse("bench.object.traverse");
  const uint64_t got = Traverse(bess::ref<Part>(cl.private_slots[start]),
                                kUpdateHops, walk, nullptr);
  for (uint32_t w : writes) AsPart(cl.private_slots[w])->payload[0] += 1;
  // The shared write comes last, so a client waits for at most one
  // contended lock per transaction.
  if (shared_target >= 0) {
    AsPart(cl.shared_slots[static_cast<size_t>(shared_target)])->payload[0] +=
        1;
  }
  rec->traverse.Add(traverse.Stop());
  Timed commit("bench.object.commit");
  s = cl.rc->Commit();
  rec->commit.Add(commit.Stop());
  const double us = txn.Stop();
  if (!s.ok()) {
    rec->Fail(s);
    return;
  }
  rec->Committed(true, us);
  if (got != expected) rec->Wrong("update traversal checksum mismatch");
  for (uint32_t w : writes) cl.private_count[w]++;
  if (shared_target >= 0) {
    cl.shared_count[static_cast<size_t>(shared_target)]++;
  }
}

void RemoteWorkload::Run(double seconds, Phase* phase) {
  const bess::NodeServer::Stats node_before =
      node_ != nullptr ? node_->stats() : bess::NodeServer::Stats{};
  phase->counters.Open();
  RunClosedLoop(cfg_.clients, /*pin=*/!cfg_.via_node, seconds,
                [this](int c, TxnRecord* r) { Txn(c, r); }, phase);
  phase->counters.Close();
  if (node_ != nullptr) {
    const bess::NodeServer::Stats after = node_->stats();
    phase->node.cache_hits = after.cache_hits - node_before.cache_hits;
    phase->node.upstream_fetches =
        after.upstream_fetches - node_before.upstream_fetches;
  }
}

Status RemoteWorkload::Verify(std::string* problem) {
  for (Client& cl : clients_) BESS_RETURN_IF_ERROR(cl.rc->Flush());
  // A fresh, uncached client straight to the server: its shared locks call
  // back whatever the workload clients still cache.
  BESS_ASSIGN_OR_RETURN(auto checker, Connect(/*via_node=*/false,
                                              /*cache_inter_txn=*/false));
  BESS_RETURN_IF_ERROR(checker->Begin());
  auto check = [&](const Oid& oid, uint64_t want,
                   const std::string& what) -> Status {
    BESS_ASSIGN_OR_RETURN(Slot * s, checker->Deref(oid));
    const uint64_t got = AsPart(s)->payload[0];
    if (got != want && problem->empty()) {
      *problem = what + " holds " + std::to_string(got) +
                 ", acknowledged updates say " + std::to_string(want);
    }
    return Status::OK();
  };
  for (size_t c = 0; c < private_oids_.size(); ++c) {
    for (size_t i = 0; i < private_oids_[c].size(); ++i) {
      BESS_RETURN_IF_ERROR(check(private_oids_[c][i],
                                 clients_[c].private_count[i],
                                 "client " + std::to_string(c) +
                                     " private part " + std::to_string(i)));
    }
  }
  for (size_t i = 0; i < shared_oids_.size(); ++i) {
    uint64_t acked = 0;
    for (const Client& cl : clients_) acked += cl.shared_count[i];
    BESS_RETURN_IF_ERROR(
        check(shared_oids_[i], acked, "shared part " + std::to_string(i)));
  }
  return checker->Commit();
}

void RemoteWorkload::Teardown() {
  clients_.clear();  // disconnect before the servers go
  node_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  db_.reset();
}

// ---- server-linked workload ---------------------------------------------------------

/// Embedded Database, one thread: assemblies found through a secondary
/// index, traversed, updated, and their index entry rewritten.
class LocalWorkload {
 public:
  static constexpr uint32_t kParts = 10000;
  static constexpr uint32_t kAssemblies = 200;
  static constexpr int kHops = 20;
  static constexpr int kWrites = 4;
  static constexpr double kUpdateShare = 0.5;
  static constexpr int kWarmupTxns = 200;
  /// Update transactions logged after a checkpoint and before the crash;
  /// fixed so restart work does not depend on the window's throughput.
  static constexpr int kRestartTailTxns = 100;

  explicit LocalWorkload(std::string dir) : dir_(std::move(dir)) {}
  ~LocalWorkload() {
    index_ = bess::Index();  // index handles must not outlive the database
    db_.reset();
  }
  LocalWorkload(const LocalWorkload&) = delete;
  LocalWorkload& operator=(const LocalWorkload&) = delete;

  Status Setup(uint64_t seed);
  void Run(double seconds, Phase* phase);
  /// Checkpoint, a fixed tail of updates, drop without clean shutdown,
  /// time the recovering Open, then check every acknowledged value.
  Status CrashRestart(double* restart_ms, Window* restart_counters,
                      bess::RecoveryStats* recovery, std::string* problem);

 private:
  void Txn(TxnRecord* rec, bool update);
  static std::string Key(uint32_t a) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "asm%05u", a);
    return buf;
  }
  /// Index value: the assembly root's OID and the entry's version.
  static std::string Value(const Oid& oid, uint64_t version) {
    std::string v(20, '\0');
    oid.EncodeTo(v.data());
    std::memcpy(v.data() + 12, &version, 8);
    return v;
  }
  static bool DecodeValue(bess::Slice v, Oid* oid, uint64_t* version) {
    if (v.size() != 20) return false;
    *oid = Oid::DecodeFrom(v.data());
    std::memcpy(version, v.data() + 12, 8);
    return true;
  }
  uint32_t Base(uint32_t a) const { return a * (kParts / kAssemblies); }

  std::string dir_;
  std::unique_ptr<Database> db_;
  bess::Index index_;
  ShadowGraph g_;
  std::vector<Oid> oids_;
  std::vector<uint64_t> count_;    ///< acknowledged increments per part
  std::vector<uint64_t> version_;  ///< acknowledged index version per assembly
  std::unique_ptr<StartPicker> picker_;
  Random rng_{1};
};

Status LocalWorkload::Setup(uint64_t seed) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  BESS_ASSIGN_OR_RETURN(db_, Database::Open(DbOptions(dir_ + "/db", true)));
  BESS_ASSIGN_OR_RETURN(bess::TypeIdx type,
                        db_->RegisterType(bessbench::PartType()));
  GraphSpec spec;
  spec.parts = kParts;
  spec.seed = seed * 7919 + 3;
  g_ = Generate(spec);
  count_.assign(kParts, 0);
  version_.assign(kAssemblies, 0);
  BESS_ASSIGN_OR_RETURN(index_, db_->CreateIndex("assemblies"));
  {
    bess::TxnGuard txn(db_.get());
    BESS_RETURN_IF_ERROR(txn.begin_status());
    BESS_ASSIGN_OR_RETURN(uint16_t file, db_->CreateFile("parts"));
    BESS_ASSIGN_OR_RETURN(auto slots, Load(db_.get(), file, type, g_));
    oids_.clear();
    for (Slot* s : slots) {
      BESS_ASSIGN_OR_RETURN(Oid oid, db_->OidOf(s));
      oids_.push_back(oid);
    }
    for (uint32_t a = 0; a < kAssemblies; ++a) {
      BESS_RETURN_IF_ERROR(
          index_.Put(txn.handle(), Key(a), Value(oids_[Base(a)], 0)));
    }
    BESS_RETURN_IF_ERROR(txn.Commit().status());
  }
  picker_ = std::make_unique<StartPicker>(kAssemblies, 0.1, 0.8, seed * 41 + 5);
  rng_ = Random(seed * 1000003 + 17);
  const Phase warm = RunCount(1, kWarmupTxns, [this](int, TxnRecord* r) {
    Txn(r, rng_.Bernoulli(kUpdateShare));
  });
  if (warm.failures() > 0 || warm.wrong_results > 0) {
    return Status::Corruption("warm-up: " + warm.first_error);
  }
  return Status::OK();
}

void LocalWorkload::Txn(TxnRecord* rec, bool update) {
  const uint32_t a = picker_->Pick(rng_);
  const uint64_t walk = rng_.Next();
  std::vector<uint32_t> path;
  const uint64_t expected = ShadowTraverse(g_, Base(a), kHops, walk, &path);
  const std::vector<uint32_t> writes =
      update ? LastDistinct(path, kWrites) : std::vector<uint32_t>();
  const std::string key = Key(a);

  rec->attempted++;
  Timed txn_span("bench.txn");
  Timed begin("bench.object.begin");
  bess::TxnGuard txn(db_.get());
  rec->begin.Add(begin.Stop());
  auto fail = [&](const Status& s) {
    txn_span.Stop();
    rec->Fail(s);
  };
  if (!txn.active()) return fail(txn.begin_status());

  Timed get("bench.index.get");
  std::string value;
  Result<bool> found = index_.Get(key, &value);
  rec->index_get.Add(get.Stop());
  if (!found.ok()) return fail(found.status());
  Oid oid;
  uint64_t version = 0;
  if (!*found || !DecodeValue(value, &oid, &version) ||
      !(oid == oids_[Base(a)]) || version != version_[a]) {
    txn_span.Stop();
    rec->Wrong("index entry of " + key + " disagrees with the shadow map");
    return;
  }

  Timed traverse("bench.object.traverse");
  Result<Slot*> root = db_->Deref(oid);
  if (!root.ok()) {
    traverse.Stop();
    return fail(root.status());
  }
  std::vector<Part*> real_path;
  const uint64_t got =
      Traverse(bess::ref<Part>(*root), kHops, walk, &real_path);
  for (uint32_t w : writes) {
    // The walk visits the same parts in the same order as the shadow's.
    const auto at = std::find(path.begin(), path.end(), w) - path.begin();
    real_path[static_cast<size_t>(at)]->payload[0] += 1;
  }
  rec->traverse.Add(traverse.Stop());

  if (update) {
    Timed put("bench.index.put");
    Status s = index_.Put(txn.handle(), key, Value(oid, version + 1));
    rec->index_put.Add(put.Stop());
    if (!s.ok()) return fail(s);
  }
  Timed commit("bench.object.commit");
  Result<bess::CommitStats> cs = txn.Commit();
  rec->commit.Add(commit.Stop());
  const double us = txn_span.Stop();
  if (!cs.ok()) {
    rec->Fail(cs.status());
    return;
  }
  rec->Committed(update, us);
  if (got != expected) rec->Wrong("traversal checksum mismatch");
  if (update) {
    for (uint32_t w : writes) count_[w]++;
    version_[a]++;
  }
}

void LocalWorkload::Run(double seconds, Phase* phase) {
  phase->counters.Open();
  RunClosedLoop(
      1, /*pin=*/false, seconds,
      [this](int, TxnRecord* r) { Txn(r, rng_.Bernoulli(kUpdateShare)); },
      phase);
  phase->counters.Close();
}

Status LocalWorkload::CrashRestart(double* restart_ms,
                                   Window* restart_counters,
                                   bess::RecoveryStats* recovery,
                                   std::string* problem) {
  BESS_RETURN_IF_ERROR(db_->Checkpoint());
  const Phase tail = RunCount(1, kRestartTailTxns,
                              [this](int, TxnRecord* r) { Txn(r, true); });
  if (tail.failures() > 0 || tail.wrong_results > 0) {
    *problem = "restart tail: " + tail.first_error;
    return Status::OK();
  }

  // Drop without a clean shutdown: no checkpoint, no sync; the log holds the
  // tail, and Open must run restart recovery.
  index_ = bess::Index();
  db_.reset();
  restart_counters->Open();
  Timed open("bench.db.open");
  Result<std::unique_ptr<Database>> reopened =
      Database::Open(DbOptions(dir_ + "/db", false));
  *restart_ms = open.Stop() / 1e3;
  restart_counters->Close();
  BESS_RETURN_IF_ERROR(reopened.status());
  db_ = std::move(*reopened);
  *recovery = db_->last_recovery_stats();
  BESS_ASSIGN_OR_RETURN(index_, db_->OpenIndex("assemblies"));

  // Every acknowledged update and index entry must be readable.
  bess::TxnGuard txn(db_.get());
  BESS_RETURN_IF_ERROR(txn.begin_status());
  for (uint32_t i = 0; i < kParts && problem->empty(); ++i) {
    BESS_ASSIGN_OR_RETURN(Slot * s, db_->Deref(oids_[i]));
    if (AsPart(s)->payload[0] != count_[i] || AsPart(s)->id != i) {
      *problem = "after restart part " + std::to_string(i) + " holds " +
                 std::to_string(AsPart(s)->payload[0]) + ", shadow says " +
                 std::to_string(count_[i]);
    }
  }
  uint32_t entries = 0;
  BESS_RETURN_IF_ERROR(index_.Scan("", "", [&](bess::Slice k, bess::Slice v) {
    const uint32_t a = entries++;
    Oid oid;
    uint64_t version = 0;
    if (problem->empty() &&
        (a >= kAssemblies || k.ToString() != Key(a) ||
         !DecodeValue(v, &oid, &version) || !(oid == oids_[Base(a)]) ||
         version != version_[a])) {
      *problem = "after restart index entry " + k.ToString() +
                 " disagrees with the shadow map";
    }
    return Status::OK();
  }));
  if (problem->empty() && entries != kAssemblies) {
    *problem = "after restart the index holds " + std::to_string(entries) +
               " entries, shadow says " + std::to_string(kAssemblies);
  }
  return txn.Commit().status();
}

// ---- reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<double> Durations(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.us);
  return out;
}

/// Throughput and median latency are the median over the window's time
/// slices, so one burst of outside interference moves one slice, not the
/// figure.
double SlicedTps(const Phase& p) {
  std::vector<double> rates;
  for (uint64_t n : p.slice_commits) {
    rates.push_back(static_cast<double>(n) /
                    (static_cast<double>(p.slice_ns) / 1e9));
  }
  return Median(rates);
}

/// The median over `slices` time slices of each slice's q-percentile, a
/// slice counting only with at least 10 samples beyond it; falls back to
/// the whole window, then to 0 (unsupported).
double SlicedPercentile(const Phase& p, const std::vector<Sample>& samples,
                        double q, int slices) {
  const uint64_t slice_ns = p.slice_ns * kSlices / slices;
  if (auto v = MedianOfSlicePercentiles(
          SliceByTime(samples, p.start_ns, slice_ns, slices), q)) {
    return *v;
  }
  return SupportedPercentile(Durations(samples), q).value_or(0);
}
double P50(const Phase& p, const std::vector<Sample>& samples) {
  return SlicedPercentile(p, samples, 0.50, kSlices);
}
/// Three slices: enough samples in each for a supported p99.
double P99(const Phase& p, const std::vector<Sample>& samples) {
  return SlicedPercentile(p, samples, 0.99, 3);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// What a finished run hands to the reporter.
struct RunOutcome {
  std::vector<double> setup_s;
  Phase untraced;
  Phase traced;
  bool has_traced = false;
  SelfTimes self;
  double restart_ms = 0;
  Window restart_counters;
  bess::RecoveryStats recovery{};
  double verify_failures = 0;  ///< page.verify.fail over the whole run
  std::string problem;         ///< first correctness violation
};

std::vector<Metric> EndToEnd(const RunOutcome& r) {
  const Phase& p = r.untraced;
  return {
      {"setup_s", "s", Median(r.setup_s)},
      {"txn_per_s", "1/s", SlicedTps(p)},
      {"read_txn_p50_us", "us", P50(p, p.reads)},
      {"peak_rss_mb", "MB", p.peak_rss_mb},
  };
}

std::vector<Metric> PerLayer(const RunOutcome& r) {
  const Phase& p = r.untraced;
  const Window& w = p.counters;
  const double txns = static_cast<double>(p.attempted);
  const double updates = static_cast<double>(p.update_commits);
  constexpr double kNsPerUs = 1e3;
  std::vector<Metric> m = {
      // workload-level figures too noisy on a shared host to bound, or that
      // not every workload has
      {"read_txn_p99_us", "us", P99(p, p.reads)},
      {"update_txn_p50_us", "us", P50(p, p.updates)},
      {"update_txn_p99_us", "us", P99(p, p.updates)},
      {"read_txn_samples", "count", static_cast<double>(p.reads.size())},
      {"update_txn_samples", "count", static_cast<double>(p.updates.size())},
      {"fail_ratio", "ratio", Ratio(static_cast<double>(p.failures()), txns)},
      {"failed.lock_timeout", "count", static_cast<double>(p.failed[kLockTimeout])},
      {"failed.shed", "count", static_cast<double>(p.failed[kShed])},
      {"failed.transport", "count", static_cast<double>(p.failed[kTransport])},
      {"failed.commit", "count", static_cast<double>(p.failed[kCommitError])},
      {"log_bytes_per_commit", "bytes", Ratio(w.Count("wal.append.bytes"), updates)},
      {"restart_ms", "ms", r.restart_ms},
      // object: benchmark-timed public calls
      {"object.begin_us", "us", p.begin.mean()},
      {"object.commit_us", "us", p.commit.mean()},
      {"object.traverse_us", "us", p.traverse.mean()},
      // vm
      {"vm.slotted_faults_per_txn", "1/txn", Ratio(w.Count("vm.fault.slotted"), txns)},
      {"vm.data_faults_per_txn", "1/txn", Ratio(w.Count("vm.fault.data"), txns)},
      {"vm.write_detects_per_txn", "1/txn", Ratio(w.Count("vm.fault.detect"), txns)},
      {"vm.swizzles_per_txn", "1/txn", Ratio(w.Count("vm.ref.swizzle"), txns)},
      // server, client side
      {"server.rpcs_per_txn", "1/txn", Ratio(w.Count("rpc.call"), txns)},
      {"server.fetch_rpcs_per_txn", "1/txn",
       Ratio(w.Count("rpc.fetch_slotted") + w.Count("rpc.fetch_pages"), txns)},
      {"server.lock_rpcs_per_txn", "1/txn", Ratio(w.Count("rpc.lock"), txns)},
      {"server.lock_cache_hit_ratio", "ratio",
       HitRatio(w.Count("rpc.lock.cache_hit"), w.Count("rpc.lock"))},
      {"server.rpc_mean_us", "us", w.HistMean("rpc.call.latency") / kNsPerUs},
      {"server.retries", "count",
       w.Count("rpc.retry") + w.Count("client.lock.backoff") +
           w.Count("client.retry_later.backoff")},
      // server, BessServer + reactor
      {"server.request_mean_us", "us", w.HistMean("srv.request.latency") / kNsPerUs},
      {"server.reactor_batch_mean", "count", w.HistMean("server.reactor.batch_size")},
      {"server.callbacks_per_update", "1/txn", Ratio(w.Count("srv.callback.sent"), updates)},
      {"server.callback_denied_ratio", "ratio",
       Ratio(w.Count("srv.callback.denied"), w.Count("srv.callback.sent"))},
      {"server.callback_timeouts", "count", w.Count("srv.callback.timeout")},
      // server, NodeServer
      {"node.cache_hit_ratio", "ratio",
       HitRatio(static_cast<double>(p.node.cache_hits),
                static_cast<double>(p.node.upstream_fetches))},
      {"node.upstream_fetches_per_txn", "1/txn",
       Ratio(static_cast<double>(p.node.upstream_fetches), txns)},
      // txn: lock manager and commit
      {"txn.lock_acquires_per_txn", "1/txn", Ratio(w.Count("txn.lock.acquire"), txns)},
      {"txn.lock_waits_per_txn", "1/txn", Ratio(w.Count("txn.lock.wait"), txns)},
      {"txn.lock_wait_mean_us", "us", w.HistMean("txn.lock.wait.latency") / kNsPerUs},
      {"txn.lock_timeouts", "count", w.Count("txn.lock.timeout")},
      {"txn.commit_mean_us", "us", w.HistMean("txn.commit.latency") / kNsPerUs},
      // wal
      {"wal.records_per_commit", "1/txn", Ratio(w.Count("wal.append.records"), updates)},
      {"wal.fpi_per_commit", "1/txn", Ratio(w.Count("wal.fpi.records"), updates)},
      {"wal.fsyncs_per_commit", "1/txn", Ratio(w.HistCount("wal.fsync"), updates)},
      {"wal.fsync_mean_us", "us", w.HistMean("wal.fsync") / kNsPerUs},
      {"wal.group_commit_batch_mean", "count", w.HistMean("wal.group_commit.batch_size")},
      {"wal.checkpoints", "count", w.HistCount("db.checkpoint")},
      {"wal.recovery_analysis_ms", "ms",
       r.restart_counters.HistSum("wal.recovery.analysis") / 1e6},
      {"wal.recovery_redo_ms", "ms", r.restart_counters.HistSum("wal.recovery.redo") / 1e6},
      {"wal.recovery_undo_ms", "ms", r.restart_counters.HistSum("wal.recovery.undo") / 1e6},
      {"wal.recovery_records_scanned", "count",
       static_cast<double>(r.recovery.records_scanned)},
      {"wal.recovery_redo_pages", "count", static_cast<double>(r.recovery.redo_pages)},
      // storage
      {"storage.syncs_per_commit", "1/txn", Ratio(w.HistCount("storage.sync"), updates)},
      {"storage.sync_mean_us", "us", w.HistMean("storage.sync") / kNsPerUs},
      {"storage.verify_failures", "count", r.verify_failures},
      // cache: frame tables (the node cache; the index's private frames)
      {"cache.hit_ratio", "ratio", HitRatio(w.Count("cache.hit"), w.Count("cache.miss"))},
      {"cache.evictions_per_txn", "1/txn", Ratio(w.Count("cache.eviction"), txns)},
      {"cache.sync_writebacks", "count", w.Count("cache.evict.sync_writeback")},
      {"cache.prefetch_useful_ratio", "ratio",
       Ratio(w.Count("cache.prefetch.hits"), w.Count("cache.prefetch.issued"))},
      // index: benchmark-timed public calls
      {"index.get_us", "us", p.index_get.mean()},
      {"index.put_us", "us", p.index_put.mean()},
      {"index.smo_per_put", "ratio", Ratio(w.Count("index.smo"), w.Count("index.put"))},
  };

  // Traced window: self times of the spans inside the benchmark's
  // transaction spans (client threads), and of spans on other threads.
  const SelfTimes& st = r.self;
  const double traced = static_cast<double>(st.root_count);
  auto per_txn = [&](const std::map<std::string, double>& self,
                     std::initializer_list<const char*> names) {
    double us = 0;
    for (const char* n : names) {
      auto it = self.find(n);
      if (it != self.end()) us += it->second;
    }
    return Ratio(us, traced);
  };
  const auto& client = st.on_root_threads;
  const double object_us = per_txn(
      client,
      {"bench.object.begin", "bench.object.traverse", "bench.object.commit"});
  const double index_us = per_txn(client, {"bench.index.get", "bench.index.put"});
  const double rpc_us = per_txn(client, {"rpc.call.latency"});
  const double wal_us = per_txn(client, {"wal.fsync", "db.checkpoint"});
  const double storage_us = per_txn(client, {"storage.sync"});
  const double residual_us = per_txn(client, {"bench.txn"});
  const double txn_us = Ratio(st.root_total_us, traced);
  const double other_us =
      std::max(0.0, txn_us - object_us - index_us - rpc_us - wal_us -
                        storage_us - residual_us);
  const double untraced_tps = r.untraced.tps();
  const double traced_tps = r.has_traced ? r.traced.tps() : untraced_tps;
  const std::vector<Metric> trace = {
      {"trace.txn_us", "us", txn_us},
      {"trace.object_self_us", "us", object_us},
      {"trace.index_self_us", "us", index_us},
      {"trace.rpc_wait_self_us", "us", rpc_us},
      {"trace.wal_self_us", "us", wal_us},
      {"trace.storage_self_us", "us", storage_us},
      {"trace.other_self_us", "us", other_us},
      {"trace.unattributed_us", "us", residual_us},
      {"trace.unattributed_ratio", "ratio", Ratio(residual_us, txn_us)},
      {"trace.server_request_self_us", "us",
       per_txn(st.elsewhere, {"srv.request.latency"})},
      {"trace.server_wal_fsync_us", "us", per_txn(st.elsewhere, {"wal.fsync"})},
      {"trace.server_storage_sync_us", "us", per_txn(st.elsewhere, {"storage.sync"})},
      {"trace.overhead_ratio", "ratio", 1.0 - Ratio(traced_tps, untraced_tps)},
      {"trace.events", "count", static_cast<double>(st.events)},
  };
  m.insert(m.end(), trace.begin(), trace.end());
  return m;
}

// ---- main ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a->workload = v;
      else if (k == "--seed") a->seed = std::stoull(v);
      else if (k == "--seconds") a->seconds = std::stod(v);
      else if (k == "--trace") a->trace = v == "1";
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return (a->workload == "cached_mixed" || a->workload == "node_fetch" ||
          a->workload == "local_update") &&
         a->seconds > 0;
}

RemoteWorkload::Config RemoteConfig(const std::string& workload) {
  RemoteWorkload::Config c;
  if (workload == "cached_mixed") {
    // Two clients, not three: with three memory-speed readers spinning on
    // four CPUs beside the server, the run-to-run spread doubled.
    c.clients = 2;
    c.private_parts = 2000;
    c.read_hops = 200;
    c.update_share = 0.10;
    c.shared_write_share = 0.10;
  } else {  // node_fetch
    c.clients = 3;
    c.via_node = true;
    c.read_hops = 20;
    c.hot_prob = 0.0;  // uniform starts: the whole graph is the working set
    c.warmup_txns = 50;
  }
  return c;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Measures `window(seconds, phase)` untraced; with --trace 1, half the time
/// untraced and half with the trace armed, reduced to self times.
template <typename WindowFn, typename AfterFn>
Status Measure(const Args& args, const WindowFn& window, const AfterFn& after,
               RunOutcome* out) {
  if (!args.trace) {
    window(args.seconds, &out->untraced);
    return after();
  }
  const std::string path = "trace.json";
  window(args.seconds / 2, &out->untraced);
  BESS_RETURN_IF_ERROR(Trace::Start(path));
  window(args.seconds / 2, &out->traced);
  BESS_RETURN_IF_ERROR(Trace::Stop());
  out->self = ComputeSelfTimes(ParseTrace(ReadFile(path)), "bench.txn");
  out->has_traced = true;
  std::filesystem::remove(path);
  return after();
}

/// Sets the workload up kSetups times from scratch (keeping the last),
/// timing each.
template <typename W, typename MakeFn>
Status SetUp(const Args& args, const MakeFn& make, std::unique_ptr<W>* w,
             RunOutcome* out) {
  for (int i = 0; i < kSetups; ++i) {
    w->reset();  // the previous set-up's servers and files go first
    *w = make();
    Timed setup("bench.setup");
    Status s = (*w)->Setup(args.seed);
    out->setup_s.push_back(setup.Stop() / 1e6);
    BESS_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload cached_mixed|node_fetch|"
                 "local_update --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  RunOutcome out;
  const bess::Stats run_start = bess::Snapshot();
  Status s;
  if (args.workload == "local_update") {
    std::unique_ptr<LocalWorkload> w;
    s = SetUp(args, [] { return std::make_unique<LocalWorkload>(kWorkDir); },
              &w, &out);
    if (s.ok()) {
      s = Measure(
          args, [&](double secs, Phase* p) { w->Run(secs, p); },
          [&] {
            return w->CrashRestart(&out.restart_ms, &out.restart_counters,
                                   &out.recovery, &out.problem);
          },
          &out);
    }
    // Any failed transaction makes a server-linked run broken, not a point.
    if (out.problem.empty() && out.untraced.failures() > 0) {
      out.problem = "local transaction failed: " + out.untraced.first_error;
    }
  } else {
    std::unique_ptr<RemoteWorkload> w;
    const RemoteWorkload::Config cfg = RemoteConfig(args.workload);
    s = SetUp(args,
              [&] { return std::make_unique<RemoteWorkload>(kWorkDir, cfg); },
              &w, &out);
    if (s.ok()) {
      s = Measure(
          args, [&](double secs, Phase* p) { w->Run(secs, p); },
          [&] { return w->Verify(&out.problem); }, &out);
    }
    if (s.ok()) {
      std::fprintf(stderr, "[%s] db area pages %" PRIu64
                   ", node cache pages %u\n",
                   args.workload.c_str(), w->db_pages(), w->node_cache_pages());
    }
  }
  std::filesystem::remove_all(kWorkDir);
  if (!s.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", s.ToString().c_str());
    return 1;
  }
  out.verify_failures = static_cast<double>(
      bess::StatsDelta(run_start, bess::Snapshot()).counter("page.verify.fail"));

  const Phase& p = out.untraced;
  std::string problem = out.problem;
  if (problem.empty() && p.wrong_results > 0) problem = p.first_error;
  if (problem.empty() && out.traced.wrong_results > 0) {
    problem = out.traced.first_error;
  }
  if (problem.empty() && out.verify_failures > 0) {
    problem = "storage verify failures during the run";
  }
  if (problem.empty() && P50(p, p.reads) == 0) {
    problem = "too few read transactions for a supported median";
  }
  std::fprintf(stderr,
               "[%s] attempted %" PRIu64 " reads %" PRIu64 " updates %" PRIu64
               " failed %" PRIu64 " (lock_timeout %" PRIu64 " shed %" PRIu64
               " transport %" PRIu64 " commit %" PRIu64 ") in %.2fs\n",
               args.workload.c_str(), p.attempted, p.read_commits,
               p.update_commits, p.failures(), p.failed[kLockTimeout],
               p.failed[kShed], p.failed[kTransport], p.failed[kCommitError],
               p.elapsed_s);
  for (const auto* samples : {&p.reads, &p.updates}) {
    const std::vector<double> v = Durations(*samples);
    std::fprintf(stderr,
                 "[%s] %s latency us: p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f "
                 "max %.1f (n=%zu)\n",
                 args.workload.c_str(), samples == &p.reads ? "read" : "update",
                 Percentile(v, 0.5), Percentile(v, 0.9), Percentile(v, 0.99),
                 Percentile(v, 0.999), Percentile(v, 1.0), v.size());
  }
  if (!problem.empty()) {
    std::fprintf(stderr, "e2e_bench: incorrect: %s\n", problem.c_str());
  }
  PrintResult(problem.empty(), p.attempted, p.failures(),
              args.trace ? PerLayer(out) : EndToEnd(out));
  return problem.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
