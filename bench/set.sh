#!/usr/bin/env bash
# One set of runs as the driver makes them: ten seeds on every workload,
# workloads interleaved so a noisy spell on a shared machine lands on all
# of them, every full report appended to the given file for --compare.
#
#   bash bench/set.sh A.jsonl [first-seed]
set -euo pipefail
out="${1:?usage: set.sh OUT.jsonl [first-seed]}"
first="${2:-1}"
here="$(cd "$(dirname "$0")" && pwd)"
for ((seed = first; seed < first + 10; seed++)); do
  for w in pv_noauth_mem pv_rsa_mem pv_rsabatch_udp hj_noauth_udp; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds 28 --trace 0 --out "$out" | tail -1 | cut -c1-120
  done
done
