// E13 (paper §3, ref [21]): ARIES-style recovery over the segmented WAL.
//
// Measures: restart (analysis + redo + undo) time as a function of log
// length, how a fuzzy checkpoint bounds restart by the dirty-set size
// rather than the log length, and group-commit coalescing of log syncs
// under concurrent committers.
//
// Besides the stdout tables, writes BENCH_recovery.json (flat keys, one per
// line — scripts/check_bench_recovery.sh gates on it) into $BESS_METRICS_DIR
// or the current directory.
#include "wal/recovery.h"
#include "workload.h"

using namespace bessbench;

namespace {

// The log is a directory of recycled segments now; "log length" is the sum.
uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(dir + "/wal", ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

struct RestartSample {
  double restart_ms = 0;
  uint64_t log_bytes = 0;
  RecoveryStats stats;
};

// Runs `txns` single-object commits (checkpointing every `cp_every` if > 0),
// dies without a clean shutdown, then times the recovering reopen.
RestartSample RunRestart(int txns, int cp_every) {
  TempDir dir("recovery");
  {
    Database::Options o;
    o.dir = dir.path();
    o.create = true;
    // Background checkpoints off: the sweep measures explicit-checkpoint
    // placement against raw log length, so the builder must be deterministic.
    o.checkpoint_log_bytes = 0;
    auto db = Database::Open(o);
    if (!db.ok()) exit(1);
    auto file = (*db)->CreateFile("f");
    for (int t = 0; t < txns; ++t) {
      auto txn = (*db)->Begin();
      uint64_t v = static_cast<uint64_t>(t);
      if (!(*db)->CreateObject(*file, kRawBytesType, 128, &v).ok()) exit(1);
      if (!(*db)->Commit(*txn).ok()) exit(1);
      if (cp_every > 0 && t % cp_every == cp_every - 1) {
        if (!(*db)->Checkpoint().ok()) exit(1);
      }
    }
    // No clean shutdown: whatever the log retains, restart must replay.
  }
  RestartSample s;
  s.log_bytes = WalBytes(dir.path());
  Database::Options o;
  o.dir = dir.path();
  o.create = false;
  std::unique_ptr<Database> reopened;
  s.restart_ms = TimeIt([&] {
                   auto db = Database::Open(o);
                   if (!db.ok()) exit(1);
                   reopened = std::move(*db);
                 }) *
                 1e3;
  s.stats = reopened->last_recovery_stats();
  return s;
}

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);

  PrintHeader("E13: restart recovery time vs log length (§3, [21])",
              "committed-txns   log-MB   restart-ms   records   redo-pages");
  RestartSample longest;  // the 800-txn log: the restart trend line
  for (int txns : {50, 200, 800}) {
    const RestartSample s = RunRestart(txns, /*cp_every=*/0);
    printf("%14d   %6.1f   %10.1f   %7llu   %10llu\n", txns,
           s.log_bytes / 1048576.0, s.restart_ms,
           (unsigned long long)s.stats.records_scanned,
           (unsigned long long)s.stats.redo_pages);
    longest = s;
  }

  PrintHeader(
      "E13b: fuzzy checkpoint bounds restart by dirty set, not log length",
      "checkpoint    restart-ms   records   redo-pages   log-MB-at-restart");
  const RestartSample baseline = RunRestart(400, /*cp_every=*/0);
  const RestartSample fuzzy = RunRestart(400, /*cp_every=*/100);
  for (const auto* s : {&baseline, &fuzzy}) {
    printf("%10s    %10.1f   %7llu   %10llu   %8.1f\n",
           s == &baseline ? "never" : "every 100", s->restart_ms,
           (unsigned long long)s->stats.records_scanned,
           (unsigned long long)s->stats.redo_pages,
           s->log_bytes / 1048576.0);
  }

  PrintHeader("E13c: group commit coalesces log syncs",
              "committers   txns   log-syncs   syncs/txn");
  for (int threads : {1, 4, 8}) {
    TempDir dir("recovery_gc");
    Database::Options o;
    o.dir = dir.path();
    o.create = true;
    auto dbr = Database::Open(o);
    if (!dbr.ok()) return 1;
    auto db = std::move(*dbr);
    // Pre-create one file per thread (separate segments: no conflicts).
    std::vector<uint16_t> files;
    for (int i = 0; i < threads; ++i) {
      auto f = db->CreateFile("f" + std::to_string(i));
      files.push_back(*f);
    }
    const int kPerThread = 50;
    const uint64_t syncs0 = db->wal()->sync_count();
    std::vector<std::thread> workers;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        for (int t = 0; t < kPerThread; ++t) {
          auto txn = db->Begin();
          if (!txn.ok()) return;
          uint64_t v = static_cast<uint64_t>(t);
          (void)db->CreateObject(files[static_cast<size_t>(i)],
                                 kRawBytesType, 64, &v);
          (void)db->Commit(*txn);
        }
      });
    }
    for (auto& w : workers) w.join();
    const uint64_t syncs = db->wal()->sync_count() - syncs0;
    const int total = threads * kPerThread;
    printf("%10d   %4d   %9llu   %9.2f\n", threads, total,
           (unsigned long long)syncs, static_cast<double>(syncs) / total);
  }

  printf("\nExpectation: restart time scales with the log to replay; a fuzzy\n"
         "checkpoint bounds it by the dirty set at the checkpoint (the log\n"
         "behind min(recLSN) is recycled, restart scans from the redo\n"
         "floor); concurrent committers share fdatasyncs (syncs per\n"
         "transaction falls below the 1-committer line).\n");

  // The persistent gate artifact: flat keys, one per line, awk-parseable.
  {
    std::string out_dir = ".";
    if (const char* env = ::getenv("BESS_METRICS_DIR")) out_dir = env;
    const std::string path = out_dir + "/BENCH_recovery.json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    fprintf(f,
            "{\n"
            "  \"baseline_restart_ms\": %.3f,\n"
            "  \"baseline_records_scanned\": %llu,\n"
            "  \"baseline_redo_pages\": %llu,\n"
            "  \"baseline_log_bytes\": %llu,\n"
            "  \"fuzzy_restart_ms\": %.3f,\n"
            "  \"fuzzy_records_scanned\": %llu,\n"
            "  \"fuzzy_redo_pages\": %llu,\n"
            "  \"fuzzy_log_bytes\": %llu,\n"
            "  \"long_restart_ms\": %.3f,\n"
            "  \"long_redo_pages\": %llu\n"
            "}\n",
            baseline.restart_ms,
            (unsigned long long)baseline.stats.records_scanned,
            (unsigned long long)baseline.stats.redo_pages,
            (unsigned long long)baseline.log_bytes, fuzzy.restart_ms,
            (unsigned long long)fuzzy.stats.records_scanned,
            (unsigned long long)fuzzy.stats.redo_pages,
            (unsigned long long)fuzzy.log_bytes, longest.restart_ms,
            (unsigned long long)longest.stats.redo_pages);
    fclose(f);
    printf("[gate artifact: %s]\n", path.c_str());
  }

  WriteMetricsSidecar("bench_recovery");
  return 0;
}
