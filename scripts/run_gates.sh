#!/usr/bin/env sh
# The whole release gate in one command: the full test suite across the
# default, asan and tsan presets, then every scripts/check_*.sh regression
# gate (bench scaling + overload degradation, recovery bound, scan
# pipeline, metrics-off build-and-test, mutex discipline).
#
# Suite notes:
#   - the default preset runs everything, torture harnesses included
#     (BESS_TORTURE_ITERS / BESS_CHAOS_ITERS trim those when iterating);
#   - asan/tsan presets exclude torture (the crash children SIGKILL
#     themselves mid-write, which sanitizers reasonably hate); the tsan
#     `concurrency` and asan `integrity` presets cover those paths with
#     reduced iterations — run them separately when touching that code;
#   - the overload-protection slice alone is `ctest -L overload`; it also
#     rides the tsan run via its `concurrency` label;
#   - the async I/O pipeline slice alone is `ctest -L scan` (the one
#     worker-pool AsyncPageIo backend, its fault matrix and the push scan);
#     it rides both sanitizer presets, and `scripts/check_bench_scan.sh`
#     gates the push-vs-pull throughput and read-coalescing claims on
#     BENCH_scan.json.
#
# Usage: scripts/run_gates.sh
set -eu
cd "$(dirname "$0")/.."

rc=0
fail() {
  echo "run_gates: FAILED — $*" >&2
  rc=1
}

for preset in default asan tsan; do
  echo ""
  echo "==== suite: $preset ===="
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j
  ctest --preset "$preset" -j "$(nproc)" || fail "ctest preset $preset"
done

for check in scripts/check_*.sh; do
  echo ""
  echo "==== gate: $check ===="
  sh "$check" || fail "$check"
done

echo ""
if [ "$rc" -ne 0 ]; then
  echo "run_gates: FAILED (see above)"
else
  echo "run_gates: all suites and gates passed"
fi
exit "$rc"
