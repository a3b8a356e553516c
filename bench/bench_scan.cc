// E17: push-based scan pipeline (DESIGN.md §13).
//
// The paper's storage manager streams multi-page reads at the device instead
// of faulting one page at a time; this bench regenerates that claim on the
// async page pipeline. A scan over real storage-area files runs two ways:
//
//   pull  — the classic demand path: one Fix per page, each miss paying the
//           (injected) device latency synchronously before the consumer may
//           touch the page.
//   push  — FrameTable::ScanRange over the worker-pool AsyncPageIo: reads
//           are staged `queue_depth` ahead of the consumer and consecutive
//           keys coalesce into one device op, so device time overlaps both
//           compute and the other reads in the batch.
//
// Device latency is injected (kLatency on "file.readat") so the ratio is
// deterministic on any build box. A second phase dirties pages and counts
// WAL durability gates per async bgwriter batch.
//
// Writes BENCH_scan.json (flat keys, one per line) for
// scripts/check_bench_scan.sh:
//   push pages/s >= 2x pull at queue depth 8,
//   >= 2 pages per device read op at queue depth 8 (batch_factor_qd8),
//   cache.evict.sync_writeback == 0,
//   one WAL gate per async flush batch,
//   every scanned page verified byte-exact.
#include <unistd.h>

#include <string>
#include <vector>

#include "cache/async_page_io.h"
#include "cache/frame_table.h"
#include "os/async_io.h"
#include "os/fault_injection.h"
#include "storage/area_store.h"
#include "storage/storage_area.h"
#include "workload.h"

using namespace bessbench;

namespace {

constexpr uint32_t kScanPages = 384;   // several extents
constexpr uint32_t kFrames = 48;
constexpr uint32_t kLatencyUs = 120;   // injected per-page device latency

std::string PatternPage(uint32_t p) {
  std::string bytes(kPageSize, '\0');
  for (size_t i = 0; i < kPageSize; ++i) {
    bytes[i] = static_cast<char>((p * 131 + i) & 0xFF);
  }
  return bytes;
}

uint64_t Key(uint32_t p) { return PageAddr{1, 0, p}.Pack(); }

/// Per-page consumer compute: fold the page into a checksum the optimizer
/// cannot drop — the "compute" half of the compute/IO overlap claim.
uint64_t TouchPage(const void* page) {
  const uint64_t* w = static_cast<const uint64_t*>(page);
  uint64_t acc = 0;
  for (size_t i = 0; i < kPageSize / sizeof(uint64_t); ++i) acc ^= w[i];
  return acc;
}

void ArmDeviceLatency() {
  fault::FaultSpec lat;
  lat.action = fault::FaultAction::kLatency;
  lat.latency_us = kLatencyUs;
  lat.count = -1;
  fault::FaultRegistry::Instance().Arm("file.readat", lat);
}

struct ScanResult {
  double pages_per_sec = 0;
  double overlap_ratio = 0;  ///< io-busy time / wall time (>1 = overlapped)
  uint64_t staged = 0;
  uint64_t fallbacks = 0;
  uint64_t read_runs = 0;  ///< device read ops after request coalescing
  uint64_t checksum = 0;
};

ScanResult RunPull(AreaSegmentStore* store) {
  HeapPlacement placement(kFrames);
  StorePageIo io(store);
  FrameTable::Options opts;
  opts.frame_count = kFrames;
  FrameTable table(opts, &placement, &io);
  if (!table.Init().ok()) return {};

  ScanResult r;
  ArmDeviceLatency();
  const double secs = TimeIt([&] {
    for (uint32_t p = 0; p < kScanPages; ++p) {
      auto fix = table.Fix(Key(p), /*for_write=*/false);
      if (!fix.ok()) return;
      r.checksum ^= TouchPage(fix->data);
    }
  });
  fault::FaultRegistry::Instance().DisarmAll();
  r.pages_per_sec = kScanPages / secs;
  // Pull is fully serial: the device is busy exactly while the consumer
  // waits, so the overlap numerator is the injected latency itself.
  r.overlap_ratio = (kScanPages * kLatencyUs * 1e-6) / secs;
  table.Stop();
  return r;
}

ScanResult RunPush(AreaSegmentStore* store, uint32_t depth) {
  StorePageIo sync_io(store);
  AsyncPageIo aio_io(&sync_io, depth);

  HeapPlacement placement(kFrames);
  StorePageIo io(store);
  FrameTable::Options opts;
  opts.frame_count = kFrames;
  opts.async_io = &aio_io;
  opts.async_queue_depth = depth;
  FrameTable table(opts, &placement, &io);
  if (!table.Init().ok()) return {};

  ScanResult r;
  ArmDeviceLatency();
  const double secs = TimeIt([&] {
    (void)table.ScanRange(Key(0), kScanPages,
                          [&](uint64_t, const void* page) {
                            r.checksum ^= TouchPage(page);
                            return Status::OK();
                          });
  });
  fault::FaultRegistry::Instance().DisarmAll();
  r.pages_per_sec = kScanPages / secs;
  const aio::AioStats stats = aio_io.stats();
  r.overlap_ratio = (stats.io_busy_ns * 1e-9) / secs;
  r.read_runs = stats.read_runs;
  const Stats ts = table.stats();
  r.staged = ts.counter("cache.scan.staged");
  r.fallbacks = ts.counter("cache.scan.fallback");
  table.Stop();
  return r;
}

/// WAL-gate-per-batch audit for phase 2.
class GateCountingIo : public StorePageIo {
 public:
  explicit GateCountingIo(SegmentStore* store) : StorePageIo(store) {}
  Status EnsureWalDurable(uint64_t) override {
    ++gates_;
    return Status::OK();
  }
  uint64_t gates() const { return gates_; }

 private:
  uint64_t gates_ = 0;
};

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("E17: push-based scan pipeline (DESIGN.md §13)",
              "path       depth   pages/s    vs-pull   overlap   staged   io-ops");

  TempDir dir("scan");
  auto area = StorageArea::Create(dir.Sub("scan.bess"), /*area_id=*/0,
                                  /*initial_extents=*/1);
  if (!area.ok()) return 1;
  AreaSegmentStore store;
  store.AddArea(1, 0, area->get());
  uint64_t expect_checksum = 0;
  for (uint32_t p = 0; p < kScanPages; ++p) {
    const std::string img = PatternPage(p);
    expect_checksum ^= TouchPage(img.data());
    if (!store.WritePages(1, 0, p, 1, img.data()).ok()) return 1;
  }

  const ScanResult pull = RunPull(&store);
  if (pull.pages_per_sec <= 0) return 1;
  printf("pull           -   %8.0f      1.00x    %5.2f        -   %6u\n",
         pull.pages_per_sec, pull.overlap_ratio, kScanPages);

  double push_qd[3] = {0, 0, 0};
  double overlap_qd8 = 0;
  uint64_t staged_qd8 = 0, fallbacks_qd8 = 0, read_runs_qd8 = 0;
  bool checksums_ok = pull.checksum == expect_checksum;
  const uint32_t depths[3] = {4, 8, 16};
  for (int i = 0; i < 3; ++i) {
    const ScanResult r = RunPush(&store, depths[i]);
    if (r.pages_per_sec <= 0) return 1;
    checksums_ok = checksums_ok && r.checksum == expect_checksum;
    push_qd[i] = r.pages_per_sec;
    if (depths[i] == 8) {
      overlap_qd8 = r.overlap_ratio;
      staged_qd8 = r.staged;
      fallbacks_qd8 = r.fallbacks;
      read_runs_qd8 = r.read_runs;
    }
    printf("push          %2u   %8.0f    %5.2fx    %5.2f   %6llu   %6llu\n",
           depths[i], r.pages_per_sec, r.pages_per_sec / pull.pages_per_sec,
           r.overlap_ratio, static_cast<unsigned long long>(r.staged),
           static_cast<unsigned long long>(r.read_runs));
  }

  // ---- phase 2: async bgwriter batches, one WAL gate per batch -------------
  GateCountingIo gate_io(&store);
  AsyncPageIo aio_io(&gate_io, 4);
  HeapPlacement placement(kFrames);
  FrameTable::Options opts;
  opts.frame_count = kFrames;
  opts.enable_bgwriter = true;
  opts.bgwriter_interval_ms = 1;
  opts.async_io = &aio_io;
  opts.async_queue_depth = 16;
  FrameTable table(opts, &placement, &gate_io);
  if (!table.Init().ok()) return 1;
  // Dirty fewer pages than there are frames, so the audit window holds only
  // bgwriter traffic: every EnsureWalDurable between here and the snapshot
  // below comes from an async flush batch (no eviction pressure, no
  // FlushDirty) — the per-batch gate claim is measured clean.
  constexpr uint32_t kDirtyPages = 32;
  static_assert(kDirtyPages < kFrames, "audit window must fit in the pool");
  for (uint32_t p = 0; p < kDirtyPages; ++p) {
    auto r = table.Fix(Key(p), /*for_write=*/true);
    if (!r.ok()) return 1;
    if (!table.MarkDirty(r->frame, p + 1).ok()) return 1;
  }
  for (int spin = 0; spin < 5000; ++spin) {
    if (table.stats().counter("cache.bgwriter.flushed") >= kDirtyPages) break;
    ::usleep(1000);
  }
  const Stats bg = table.stats();
  const uint64_t gates = gate_io.gates();
  // Churn reads past capacity: evictions must find bgwriter-cleaned frames,
  // never paying a sync write-back on the demand path.
  for (uint32_t p = kDirtyPages; p < kScanPages; ++p) {
    if (!table.Fix(Key(p), false).ok()) return 1;
  }
  const uint64_t sync_wb = table.stats().counter("cache.evict.sync_writeback");
  printf("\nbgwriter: %llu pages flushed in %llu async batches, %llu WAL "
         "gates, %llu sync evict write-backs\n",
         static_cast<unsigned long long>(
             bg.counter("cache.bgwriter.flushed")),
         static_cast<unsigned long long>(
             bg.counter("cache.bgwriter.async_batch")),
         static_cast<unsigned long long>(gates),
         static_cast<unsigned long long>(sync_wb));
  table.Stop();

  printf("\nExpectation: staging reads %u deep overlaps device latency with\n"
         "consumer compute and neighbouring reads — pages/s scales with\n"
         "queue depth until the consumer is the bottleneck; the bgwriter\n"
         "pays one durability gate per batch, not per page.\n",
         8u);

  {
    std::string out_dir = ".";
    if (const char* env = ::getenv("BESS_METRICS_DIR")) out_dir = env;
    const std::string path = out_dir + "/BENCH_scan.json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    fprintf(f,
            "{\n"
            "  \"scan_pages\": %u,\n"
            "  \"latency_us\": %u,\n"
            "  \"pull_pages_per_sec\": %.1f,\n"
            "  \"push_pages_per_sec_qd4\": %.1f,\n"
            "  \"push_pages_per_sec_qd8\": %.1f,\n"
            "  \"push_pages_per_sec_qd16\": %.1f,\n"
            "  \"speedup_qd8\": %.3f,\n"
            "  \"overlap_ratio_qd8\": %.3f,\n"
            "  \"scan_staged_qd8\": %llu,\n"
            "  \"scan_fallbacks_qd8\": %llu,\n"
            "  \"read_runs_qd8\": %llu,\n"
            "  \"batch_factor_qd8\": %.2f,\n"
            "  \"checksums_ok\": %d,\n"
            "  \"bg_flushed\": %llu,\n"
            "  \"bg_batches\": %llu,\n"
            "  \"bg_wal_gates\": %llu,\n"
            "  \"evict_sync_writebacks\": %llu\n"
            "}\n",
            kScanPages, kLatencyUs, pull.pages_per_sec, push_qd[0],
            push_qd[1], push_qd[2], push_qd[1] / pull.pages_per_sec,
            overlap_qd8, static_cast<unsigned long long>(staged_qd8),
            static_cast<unsigned long long>(fallbacks_qd8),
            static_cast<unsigned long long>(read_runs_qd8),
            read_runs_qd8 != 0
                ? static_cast<double>(kScanPages) / read_runs_qd8
                : 0.0,
            checksums_ok ? 1 : 0,
            static_cast<unsigned long long>(
                bg.counter("cache.bgwriter.flushed")),
            static_cast<unsigned long long>(
                bg.counter("cache.bgwriter.async_batch")),
            static_cast<unsigned long long>(gates),
            static_cast<unsigned long long>(sync_wb));
    fclose(f);
    printf("wrote %s\n", path.c_str());
  }
  WriteMetricsSidecar("bench_scan");
  return 0;
}
