#!/usr/bin/env bash
# Launch one cross-process machine: N dpg_rankproc processes, one per rank,
# over a shm-ring or TCP wire backend.
#
#   scripts/run_ranks.sh [--backend shm|tcp] [--ranks N] [--algo sssp|bfs|cc]
#                        [--seed X] [--plan NAME] [--session S]
#                        [--base-port P] [--rankproc PATH]
#
# --plan injects a fault plan (scramble|lossy|chaos|control_chaos) above
# the wire in every rank process; the RESULT hash must not change.
#
# Rank 0 prints the canonical RESULT line; the script exits nonzero if any
# rank process fails. The default session id embeds this script's PID so
# concurrent launches never collide on the shm segment / port block.
set -euo pipefail

backend=shm
ranks=4
algo=sssp
seed=1
plan=none
session="run$$"
base_port=29700
rankproc=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --backend)   backend="$2"; shift 2 ;;
    --ranks)     ranks="$2"; shift 2 ;;
    --algo)      algo="$2"; shift 2 ;;
    --seed)      seed="$2"; shift 2 ;;
    --plan)      plan="$2"; shift 2 ;;
    --session)   session="$2"; shift 2 ;;
    --base-port) base_port="$2"; shift 2 ;;
    --rankproc)  rankproc="$2"; shift 2 ;;
    *) echo "run_ranks.sh: unknown flag '$1'" >&2; exit 2 ;;
  esac
done

if [[ -z "$rankproc" ]]; then
  for cand in build/tools/dpg_rankproc build-werror/tools/dpg_rankproc; do
    [[ -x "$cand" ]] && rankproc="$cand" && break
  done
fi
if [[ -z "$rankproc" || ! -x "$rankproc" ]]; then
  echo "run_ranks.sh: dpg_rankproc not found — build it or pass --rankproc PATH" >&2
  exit 2
fi

pids=()
for ((r = 0; r < ranks; ++r)); do
  "$rankproc" --backend "$backend" --ranks "$ranks" --rank "$r" \
      --session "$session" --base-port "$base_port" \
      --algo "$algo" --seed "$seed" --plan "$plan" &
  pids+=($!)
done

status=0
for pid in "${pids[@]}"; do
  wait "$pid" || status=1
done
if [[ $status -ne 0 ]]; then
  echo "run_ranks.sh: a rank process failed (backend=$backend ranks=$ranks algo=$algo seed=$seed plan=$plan)" >&2
fi
exit $status
