#!/usr/bin/env bash
# Two-process (well, 1+N-process) socket smoke of the networked runtime:
# one topk_coord listening on 127.0.0.1 and N topk_node processes connecting
# over real TCP. Exercises the whole distributed stack — listen/accept,
# Hello/Config handshake, per-step lockstep, filter shipping, shutdown —
# outside the in-process harness the tests use.
#
#   scripts/net_smoke.sh [BUILD_DIR] [PORT] [HOSTS]
#
# Each TCP run is paired with an in-process run of the same flags, and the
# two coordinator reports must agree apart from the "listening on" line and
# the tcp/inproc tag in the title: once for the combined protocol (faults +
# windowing on) and once for `--query kselect:k=4`, so the k-select row is
# compared too.
#
# The coordinator exports its telemetry to coord_telemetry.json (validated in
# CI by scripts/check_bench.py --telemetry). Any nonzero exit — coordinator,
# node-host, quiescence failure or report mismatch — fails the script.
set -euo pipefail

build=${1:-build}
port=${2:-7421}
hosts=${3:-2}

reports=$(mktemp -d)
trap 'rm -rf "$reports"' EXIT

flags=(--hosts "$hosts" --stream oscillating --n 24 --k 4 --steps 300 --seed 7
       --faults flaky --window 32)

# tcp_run NAME FLAG...: topk_coord --listen plus $hosts topk_node processes;
# the coordinator's report goes to $reports/NAME.tcp.
tcp_run() {
  local name=$1
  shift
  "$build"/topk_coord --listen "$port" "$@" > "$reports/$name.tcp" &
  local coord_pid=$!

  local node_pids=()
  for ((h = 0; h < hosts; ++h)); do
    "$build"/topk_node --connect 127.0.0.1:"$port" \
      --host-index "$h" --hosts "$hosts" &
    node_pids+=($!)
  done

  local status=0
  wait "$coord_pid" || status=$?
  for pid in "${node_pids[@]}"; do
    wait "$pid" || status=$?
  done
  cat "$reports/$name.tcp"
  if [[ $status -ne 0 ]]; then
    echo "net_smoke: $name FAILED (status $status)" >&2
    exit "$status"
  fi
}

# compare NAME FLAG...: the TCP run against the in-process run of the same flags.
compare() {
  local name=$1
  shift
  "$build"/topk_coord "$@" > "$reports/$name.inproc"
  tcp_run "$name" "$@"
  local mode_free=(-e '/^listening on /d' -e 's/, \(tcp\|inproc\))/, MODE)/')
  if ! diff <(sed "${mode_free[@]}" "$reports/$name.inproc") \
            <(sed "${mode_free[@]}" "$reports/$name.tcp"); then
    echo "net_smoke: $name TCP report differs from the in-process run" >&2
    exit 1
  fi
}

# The in-process run goes first, so coord_telemetry.json ends up the TCP one.
compare combined "${flags[@]}" --telemetry=coord_telemetry.json
compare kselect "${flags[@]}" --query kselect:k=4

[[ -s coord_telemetry.json ]] || { echo "net_smoke: no telemetry written" >&2; exit 1; }
echo "net_smoke: OK ($hosts node-hosts over 127.0.0.1:$port, reports match in-process)"
