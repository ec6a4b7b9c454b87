#!/bin/sh
# Bad command-line values must exit with status 1 and a message naming the
# flag (or the row count, feature count or label) on stderr — never abort on
# a library precondition, die of a signal, or run on a wrapped value.
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

# expect_status <status> <command...>: runs the command under a 1.5 GB
# address-space cap (like pafeat_hostile_input_capped), where a flag value
# that sizes memory up front dies of std::bad_alloc (exit 134).
expect_status() {
  want=$1
  shift
  (ulimit -v 1500000 && "$@") >/dev/null 2>"$WORK/err"
  status=$?
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: exit $status (want $want under ulimit -v 1500000): $*"
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
# The demo data cut to its label: columns, a table with no feature column.
awk -F, 'NR == 1 { for (i = 1; i <= NF; ++i) if ($i ~ /^label:/) keep[++n] = i }
  { line = $keep[1]; for (j = 2; j <= n; ++j) line = line "," $keep[j]
    print line }' "$WORK/demo.csv" >"$WORK/labels_only.csv"
"$TOOL" train --data "$WORK/demo.csv" --labels "$LABELS" \
  --out "$WORK/agent.ckpt" --iterations 1 >/dev/null || exit 1

expect_exit_1 --max_batch serve --max_batch 0
expect_exit_1 --max_queue serve --max_queue 0
expect_exit_1 --demo_features serve --demo_features 0
expect_exit_1 --demo_features serve --demo_features -3
expect_exit_1 --demo_tasks serve --demo_tasks 0
expect_exit_1 --max_batch serve --max_batch 4294967360
# 2m + 3 passes INT_MAX; a net past 2^31 - 1 parameters.
expect_exit_1 --demo_features serve --demo_features 1073741824
expect_exit_1 --demo_features serve --demo_features 100000000
# Every representation token must parse whole as a finite float.
printf '0.1 0.2 0.3abc\n' >"$WORK/trailing.reprs"
printf '0.1 nan 0.3\n' >"$WORK/nan.reprs"
expect_exit_1 '"0.3abc"' serve --demo_features 3 --reprs "$WORK/trailing.reprs"
expect_exit_1 '"nan"' serve --demo_features 3 --reprs "$WORK/nan.reprs"

# A trailing unknown flag is unknown, not missing a value; --quantized is
# gone from both tools.
expect_exit_1 "unknown flag --bogus" serve --bogus
expect_exit_1 "unknown flag --quantized" serve --quantized
expect_exit_1 "unknown flag --quantized" "$TOOL" select --data "$WORK/demo.csv" \
  --label demo_unseen_0 --agent "$WORK/agent.ckpt" --quantized

# Memory follows work done, not flag values: only the representations the
# clients replay are generated, and latency lists grow per completed request.
# Sanitizer runtimes reserve more address space than the cap allows.
if (ulimit -v 1500000 && exec "$SERVE" --demo --concurrency 1 \
    --requests_per_client 1) >/dev/null 2>"$WORK/err" ||
    ! grep -q Sanitizer "$WORK/err"; then
  expect_status 0 serve --demo_tasks 2000000000
  expect_status 124 timeout 2 "$SERVE" --demo --concurrency 1 \
    --requests_per_client 2000000000
  # Client threads past what the cap lets start: the clients already started
  # stop and join, and the run exits 1 naming the flag.
  expect_exit_1 --concurrency sh -c 'ulimit -v 1500000 && exec "$0" "$@"' \
    "$SERVE" --demo --concurrency 200000 --requests_per_client 1
else
  echo "skipping the capped cases: sanitizer runtime"
fi

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
expect_exit_1 "0 feature columns" "$TOOL" train \
  --data "$WORK/labels_only.csv" --labels demo_seen_0 --out "$WORK/bad.ckpt" \
  --iterations 1
expect_exit_1 "0 feature columns" "$TOOL" select \
  --data "$WORK/labels_only.csv" --label demo_unseen_0 \
  --agent "$WORK/agent.ckpt"
expect_exit_1 "'demo_seen_0'" "$TOOL" train --data "$WORK/demo.csv" \
  --labels demo_seen_0,demo_seen_0 --out "$WORK/bad.ckpt" --iterations 1

exit "$FAILED"
