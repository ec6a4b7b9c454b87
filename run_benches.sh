#!/bin/bash
# Runs the nine paper table/figure benches at default scale; their output
# feeds EXPERIMENTS.md. The two timed benches (bench_table2_timing and
# bench_fig7_single_task) head their output with the active SIMD level and
# the CPU count, since timings from different levels or hosts are not
# comparable. Gated performance numbers come from benchmark/ instead
# (BENCHMARK.json, benchmark/README.md).
set -u
cd "$(dirname "$0")"

for b in build/bench/bench_table1_datasets build/bench/bench_fig5_f1_vs_mfr \
         build/bench/bench_fig6_auc_vs_mfr build/bench/bench_table2_timing \
         build/bench/bench_fig7_single_task build/bench/bench_table3_ablation \
         build/bench/bench_fig8_its_difficulty build/bench/bench_fig9_further_training \
         build/bench/bench_ablation_reward_mode; do
  echo "===================================================================="
  echo "== $b"
  echo "===================================================================="
  $b 2>&1
  echo
done
