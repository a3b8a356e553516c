#!/usr/bin/env sh
# Push-based scan pipeline gate (DESIGN.md §13, EXPERIMENTS.md E17).
#
# Builds and runs bench_scan, then fails unless the BENCH_scan.json artifact
# shows the async pipeline earning its keep:
#   1. push pages/s >= 2x the pull-on-fault baseline at queue depth 8
#      (staged reads coalesce into batched device ops and overlap the
#      injected device latency with consumer compute),
#   2. every page the scan delivered verified byte-exact (checksums_ok),
#   3. the async bgwriter paid exactly one WAL durability gate per flush
#      batch inside the audit window (bg_wal_gates == bg_batches),
#   4. the churn phase evicted through bgwriter-cleaned frames only — no
#      sync write-back on the demand path (evict_sync_writebacks == 0),
#   5. the worker pool coalesced staged reads: at queue depth 8 each device
#      op carried at least 2 pages on average (batch_factor_qd8 >= 2).
#
# Usage: scripts/check_bench_scan.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR" ]; then
  cmake --preset default
fi
cmake --build "$BUILD_DIR" -j --target bench_scan

BESS_METRICS_DIR="$BUILD_DIR" "$BUILD_DIR/bench/bench_scan"
JSON="$BUILD_DIR/BENCH_scan.json"

if [ ! -f "$JSON" ]; then
  echo "check_bench_scan: FAILED — $JSON was not written" >&2
  exit 1
fi

# The artifact is flat (one "key": value per line) precisely so this works.
field() { awk -F'[:,]' -v k="\"$1\"" '$1 ~ k { gsub(/ /, "", $2); print $2; exit }' "$JSON"; }
PULL=$(field pull_pages_per_sec)
PUSH8=$(field push_pages_per_sec_qd8)
SPEEDUP=$(field speedup_qd8)
CHECKSUMS=$(field checksums_ok)
BATCHES=$(field bg_batches)
GATES=$(field bg_wal_gates)
SYNC_WB=$(field evict_sync_writebacks)
RUNS=$(field read_runs_qd8)
BATCH=$(field batch_factor_qd8)

if [ -z "$PULL" ] || [ -z "$PUSH8" ] || [ -z "$SPEEDUP" ] ||
   [ -z "$CHECKSUMS" ] || [ -z "$BATCHES" ] || [ -z "$GATES" ] ||
   [ -z "$SYNC_WB" ] || [ -z "$RUNS" ] || [ -z "$BATCH" ]; then
  echo "check_bench_scan: FAILED to parse $JSON" >&2
  exit 1
fi

echo ""
echo "pull baseline: ${PULL} pages/s; push qd8: ${PUSH8} pages/s (${SPEEDUP}x," \
     "${RUNS} device ops, ${BATCH} pages per op)"
echo "bgwriter: ${GATES} WAL gates for ${BATCHES} async batches," \
     "${SYNC_WB} sync evict write-backs"

awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 2.0) }' || {
  echo "check_bench_scan: FAILED — push scan at queue depth 8 is only" >&2
  echo "${SPEEDUP}x the pull baseline (< 2x): staged reads are not" >&2
  echo "amortizing device latency" >&2
  exit 1
}
[ "$CHECKSUMS" = "1" ] || {
  echo "check_bench_scan: FAILED — a scanned page did not match the written" >&2
  echo "image (checksums_ok=$CHECKSUMS): the push path corrupted or skipped data" >&2
  exit 1
}
[ "$GATES" = "$BATCHES" ] || {
  echo "check_bench_scan: FAILED — $GATES WAL gates for $BATCHES async flush" >&2
  echo "batches: the bgwriter is not paying exactly one durability gate per batch" >&2
  exit 1
}
[ "$SYNC_WB" = "0" ] || {
  echo "check_bench_scan: FAILED — $SYNC_WB sync write-backs on the demand" >&2
  echo "path: eviction outran the async bgwriter" >&2
  exit 1
}
awk -v b="$BATCH" 'BEGIN { exit !(b >= 2.0) }' || {
  echo "check_bench_scan: FAILED — push scan at queue depth 8 moved only" >&2
  echo "${BATCH} pages per device op (< 2): the worker pool is not" >&2
  echo "coalescing consecutive staged reads" >&2
  exit 1
}
# Publish the gate artifact at the repo root so the latest gated run is
# always inspectable without digging through build dirs.
cp "$JSON" ./BENCH_scan.json

echo "check_bench_scan: OK — push scan overlaps device latency with consumer"
echo "compute in coalesced device ops, and the bgwriter batches write-backs"
echo "behind one WAL gate"
