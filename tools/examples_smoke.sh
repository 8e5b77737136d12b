#!/usr/bin/env bash
# End-to-end smoke of the example programs: run each narrated case
# study and diff its stdout against the checked-in golden transcript.
# The executor is simulated and seeded, so a run's output is the same
# on every machine and at every analysis worker count; any diff means
# an example, or the query it asks, changed its answer.
#
#   examples_smoke.sh <golden_dir> <example_binary>...
#
# Each binary's golden file is <golden_dir>/<binary name>.txt.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <golden_dir> <example_binary>..." >&2
  exit 2
fi

GOLDEN_DIR=$1
shift
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

status=0
for bin in "$@"; do
  name=$(basename "$bin")
  golden="$GOLDEN_DIR/$name.txt"
  rc=0
  "$bin" > "$OUT" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: $name exited with status $rc" >&2
    status=1
  elif ! diff -u "$golden" "$OUT"; then
    echo "FAIL: $name output differs from $golden" >&2
    status=1
  else
    echo "ok: $name"
  fi
done
exit $status
