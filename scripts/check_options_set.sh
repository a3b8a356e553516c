#!/usr/bin/env sh
# Static "no unset knob" gate: no build, well under a second.
#
# Every field of a `struct *Options` declared in src/ must be assigned
# somewhere in src/, bench/, tests/, examples/ or e2e_bench/. A field that
# no caller ever sets is a configuration nothing selects: its default is the
# only value that runs, so it belongs in a named constant, and any branch it
# guards is dead code with a live-looking switch.
#
# "Assigned" means a member write `x.field = …`, `p->field = …` or a
# designated initializer `.field = …`; comments are ignored. A nested write
# such as `opts.mapper.greedy = …` sets every name on the chain (`mapper`
# and `greedy`). Matching is by field name, so a name assigned for one
# struct also covers a same-named field of another.
#
# Usage: scripts/check_options_set.sh
set -eu
cd "$(dirname "$0")/.."

# Fields that stay settable although no file in the tree sets them, one
# `name  reason` per line.
allowlist='
host_id  deployment identity: every OID the database mints carries it, so a multi-host deployment must be able to set it
'

# Every field of every `struct *Options { … }` in src/ as `file:line name`.
# Tracks brace depth so member-function bodies and nested initializers are
# skipped; a declaration may span lines (it ends at `;` at depth 1).
fields=$(find src -name '*.h' -o -name '*.cc' | sort | xargs awk '
  FNR == 1 { in_struct = 0 }
  !in_struct && /struct [A-Za-z0-9_]*Options[ \t]*\{/ && !/;[ \t]*$/ {
    in_struct = 1; depth = 0; stmt = ""; start = FNR
  }
  in_struct {
    line = $0
    sub(/\/\/.*$/, "", line)
    for (i = 1; i <= length(line); i++) {
      c = substr(line, i, 1)
      if (c == "{") {
        depth++
        continue
      }
      if (c == "}") {
        depth--
        if (depth == 0) { in_struct = 0; break }
        if (depth == 1) stmt = ""  # end of a member-function body
        continue
      }
      if (depth != 1) continue
      if (c == ";") {
        decl = stmt; stmt = ""
        sub(/=.*/, "", decl)                      # default value
        while (gsub(/<[^<>]*>/, "", decl)) {}     # template arguments
        sub(/\[[^]]*\][ \t]*$/, "", decl)         # array extent
        if (decl ~ /\(/) continue                 # member function
        if (decl ~ /^[ \t]*(using|static|friend|enum|typedef)[ \t]/) continue
        if (match(decl, /[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)) {
          name = substr(decl, RSTART, RLENGTH)
          sub(/[ \t]+$/, "", name)
          print FILENAME ":" decl_line " " name
        }
        continue
      }
      if (stmt ~ /^[ \t]*$/ && c !~ /[ \t]/) decl_line = FNR
      stmt = stmt c
    }
    if (depth == 1) stmt = stmt " "
  }
')

# Every member name written anywhere in the tree (each link of a chain).
assigned=$(grep -rhE --include='*.h' --include='*.cc' --include='*.cpp' \
    '(\.|->)[A-Za-z_][A-Za-z0-9_]*' src bench tests examples e2e_bench |
  sed 's://.*$::' |
  grep -oE '(\.|->)[A-Za-z_][A-Za-z0-9_]*((\.|->)[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]*=([^=]|$)' |
  sed 's/[[:space:]]*=.*$//; s/->/./g' | tr '.' '\n' | sed '/^$/d' | sort -u)

rc=0
count=0
while read -r where name; do
  [ -n "$name" ] || continue
  count=$((count + 1))
  printf '%s\n' "$assigned" | grep -qxF "$name" && continue
  printf '%s\n' "$allowlist" | grep -qE "^$name[[:space:]]" && continue
  echo "check_options_set: $where: '$name' is never set by any caller;" \
    "make it a named constant (or allowlist it here with a reason)" >&2
  rc=1
done <<EOF
$fields
EOF

if [ "$count" -eq 0 ]; then
  echo "check_options_set: found no Options fields — the scan is broken" >&2
  exit 1
fi
[ "$rc" -ne 0 ] || echo "every one of $count Options fields is set by some caller: OK"
exit "$rc"
