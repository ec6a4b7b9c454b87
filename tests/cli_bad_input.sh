#!/bin/sh
# Bad command-line values must exit with status 1 and a message naming the
# flag (or the row count) on stderr — never abort on a library precondition,
# die of a signal, or run on a wrapped value.
#
#   tests/cli_bad_input.sh <example_pafeat_tool> <pafeat-serve>
set -u
TOOL=$1
SERVE=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILED=0

# expect_exit_1 <stderr substring> <command...>
expect_exit_1() {
  want=$1
  shift
  "$@" >/dev/null 2>"$WORK/err"
  status=$?
  if [ "$status" -ne 1 ] || ! grep -qF -- "$want" "$WORK/err"; then
    echo "FAIL: exit $status (want 1 with '$want' on stderr): $*"
    cat "$WORK/err"
    FAILED=1
  fi
}

LABELS=demo_seen_0,demo_seen_1,demo_seen_2
train() {
  "$TOOL" train --data "$WORK/demo.csv" --labels "$LABELS" \
    --out "$WORK/bad.ckpt" "$@"
}
serve() {
  "$SERVE" --demo --concurrency 1 --requests_per_client 1 "$@"
}

"$TOOL" demo --data "$WORK/demo.csv" >/dev/null || exit 1
head -n 4 "$WORK/demo.csv" >"$WORK/three_rows.csv"
"$TOOL" train --data "$WORK/demo.csv" --labels "$LABELS" \
  --out "$WORK/agent.ckpt" --iterations 1 >/dev/null || exit 1

expect_exit_1 --max_batch serve --max_batch 0
expect_exit_1 --max_queue serve --max_queue 0
expect_exit_1 --max_wait_us serve --max_wait_us -5
expect_exit_1 --demo_features serve --demo_features 0
expect_exit_1 --demo_features serve --demo_features -3
expect_exit_1 --demo_tasks serve --demo_tasks 0
expect_exit_1 --max_batch serve --max_batch 4294967360

expect_exit_1 --iterations train --iterations 0
expect_exit_1 --iterations train --iterations -4
expect_exit_1 --mfr train --mfr 0
expect_exit_1 --mfr train --mfr -1
expect_exit_1 --mfr train --mfr 1.5
expect_exit_1 --num_threads train --num_threads 4294967297
expect_exit_1 "3 data rows" "$TOOL" train --data "$WORK/three_rows.csv" \
  --labels "$LABELS" --out "$WORK/bad.ckpt"
expect_exit_1 "3 data rows" "$TOOL" select --data "$WORK/three_rows.csv" \
  --label demo_unseen_0 --agent "$WORK/agent.ckpt"

exit "$FAILED"
