#!/usr/bin/env sh
# Static metrics-contract gate (DESIGN.md §6): no build, well under a second.
# Fails when
#   1. a name e2e_bench reads (Count( / HistCount( / HistMean( in
#      e2e_bench/*.cc) has no counting site in src/ — the benchmark would
#      report a silent 0 (the window self-test's own e2e_selftest.* fixtures
#      are exempt);
#   2. a registered name breaks `module.noun[.verb]`;
#   3. a `struct *Stats` appears in src/ outside the allowlist of per-run
#      results and snapshot types (RecoveryStats, CommitStats, AioStats,
#      NodeServer::Stats, bess::Stats; HistogramSnapshot) — a hand-kept
#      mirror of registry counters;
#   4. a name counted through an instance scope (BESS_*_IN) is also counted
#      process-only, so the registry would stop being the sum of the scopes;
#   5. src/ counts more distinct names through scopes than a scope has cells.
#
# Usage: scripts/check_metrics_contract.sh
set -eu
cd "$(dirname "$0")/.."

rc=0
fail() {
  echo "check_metrics_contract: $*" >&2
  rc=1
}

# Counting sites outside the obs subsystem itself (whose comments and macro
# bodies name metrics only as examples).
sites() {
  grep -rhoE "$1" src --include='*.cc' --include='*.h' --exclude-dir=obs || true
}
process_names=$(sites 'BESS_(COUNT|COUNT_N|HIST|SPAN|GAUGE_ADD|GAUGE_SUB)\("[^"]*"' |
  sed 's/^[^"]*"//; s/"$//' | sort -u)
scoped_names=$(sites 'BESS_(COUNT|COUNT_N|GAUGE_ADD|GAUGE_SUB)_IN\([^,"]*, *"[^"]*"' |
  sed 's/^[^"]*"//; s/"$//' | sort -u)
all_names=$(printf '%s\n%s\n' "$process_names" "$scoped_names" | sed '/^$/d' | sort -u)

# 1. Every name the benchmark reads is counted somewhere.
bench_names=$(grep -hoE '(Count|HistMean)\("[^"]*"' e2e_bench/*.cc |
  sed 's/^[^"]*"//; s/"$//' | grep -v '^e2e_selftest\.' | sort -u)
for n in $bench_names; do
  printf '%s\n' "$all_names" | grep -qxF "$n" ||
    fail "e2e_bench reads '$n' but no counting site in src/ registers it"
done

# 2. Names follow module.noun[.verb].
for n in $all_names; do
  printf '%s\n' "$n" | grep -qE '^[a-z0-9_]+(\.[a-z0-9_]+)+$' ||
    fail "'$n' breaks the module.noun[.verb] naming rule"
done

# 3. No hand-kept Stats mirrors.
mirrors=$(grep -rnE 'struct [A-Za-z0-9_]*Stats\b' src |
  grep -vE '^src/obs/stats\.h:[0-9]+:struct Stats \{' |
  grep -vE '^src/server/node_server\.h:[0-9]+: *struct Stats \{' |
  grep -vE 'struct (RecoveryStats|CommitStats|AioStats)\b' || true)
[ -z "$mirrors" ] || fail "Stats struct outside the allowlist:
$mirrors"

# 4. One count per event: a scoped name has no process-only site.
both=$(printf '%s\n' "$scoped_names" | grep -xF "$process_names" || true)
[ -z "$both" ] || fail "counted both through a scope and process-only:
$both"

# 5. Scope cells cover every scoped name (one cell is the overflow cell).
cap=$(sed -n 's/.*kMaxScopeNames = \([0-9]*\);.*/\1/p' src/obs/scope.h)
used=$(printf '%s\n' "$scoped_names" | sed '/^$/d' | wc -l)
[ "$used" -lt "$cap" ] ||
  fail "$used scoped names but obs::kMaxScopeNames is $cap (one is overflow)"

if [ "$rc" -eq 0 ]; then
  echo "check_metrics_contract: OK ($(printf '%s\n' "$all_names" | wc -l)" \
    "names, $used scoped, $(printf '%s\n' "$bench_names" | wc -l) read by e2e_bench)"
fi
exit "$rc"
