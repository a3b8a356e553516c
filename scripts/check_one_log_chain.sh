#!/usr/bin/env sh
# Static gate for the one transaction log chain (DESIGN.md §10): no build,
# well under a second. A transaction's records enter the log through one
# append path and leave it through one undo walker, so under src/ a record's
# `type` may be set to
#   - LogRecordType::kBegin in one place (the chain open, the admission
#     point),
#   - LogRecordType::kClr in one place (the undo walker),
#   - LogRecordType::kEnd in two places (the commit close and the undo
#     walker).
# A second copy of any of these steps is a second protocol to keep in step;
# fail on it.
#
# Usage: scripts/check_one_log_chain.sh
set -eu
cd "$(dirname "$0")/.."

rc=0
check() {
  type=$1
  limit=$2
  sites=$(grep -rnE "(\.|->)type *= *LogRecordType::$type\b" src \
    --include='*.cc' --include='*.h' || true)
  n=$(printf '%s' "$sites" | grep -c . || true)
  if [ "$n" -gt "$limit" ]; then
    echo "check_one_log_chain: $type built in $n places (limit $limit):" >&2
    printf '%s\n' "$sites" >&2
    rc=1
  fi
}
check kBegin 1
check kClr 1
check kEnd 2

if [ "$rc" -eq 0 ]; then
  echo "check_one_log_chain: OK (one kBegin, one kClr, at most two kEnd sites)"
fi
exit "$rc"
