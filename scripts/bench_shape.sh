#!/usr/bin/env bash
# The traced pass of one workload, several times over: the shape checks and
# trace counts a speed change can break, which the untraced runs of
# scripts/bench_ab.sh never look at.
#
#   scripts/bench_shape.sh <workload> [runs=5]
#
# Runs `benchmark/run.sh --workload <w> --seed <s> --seconds 18 --trace 1`
# on the working tree at seeds 21, 22, … (clear of bench_ab.sh's 11… and
# the hold-out 0xD15C0) and prints, per run: the engine share of rtt
# (core.shard.query_ns / server.client.rtt_ns — the ratio the workload's
# `engine_share_of_rtt` shape bound checks), both of its terms, how many
# queries the server traced for how many it was sent, and every `shape:` or
# other `!` line of the run; then the minimum and maximum share. Exits 1 if
# any run broke a check.
#
# The build and each run's full output land under $BENCH_SHAPE_DIR
# (default .bench_build/shape, git-ignored).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '6,6p' "$0" >&2
    exit 2
fi
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
workload="$1"
runs="${2:-5}"
dir="${BENCH_SHAPE_DIR:-$root/.bench_build/shape}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

for ((i = 0; i < runs; i++)); do
    seed=$((21 + i))
    out="$dir/$workload.$seed.out"
    (cd "$root" && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$dir/target}" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds 18 --trace 1 \
        --trace-out "$dir/$workload.$seed.spans.jsonl" >"$out" 2>>"$dir/$workload.log") || true
    echo "run $((i + 1))/$runs (seed $seed) done" >&2
done

python3 - "$dir" "$workload" "$runs" <<'EOF'
import re, sys

out_dir, workload, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
metric = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+\S+$")
sample = re.compile(r"traced sample: (\d+) requests")
mismatch = re.compile(r"the server traced (\d+) queries for (\d+) sent")
shares, broken = [], False
print(f"{workload}: traced pass, {runs} runs (share = core.shard.query_ns / server.client.rtt_ns)")
print(f"  {'seed':<6}{'share':>8}{'shard ns':>12}{'rtt ns':>12}{'traced/sent':>14}")
for i in range(runs):
    seed = 21 + i
    lines = open(f"{out_dir}/{workload}.{seed}.out").read().splitlines()
    metrics = {m[1]: float(m[2]) for m in map(metric.match, lines) if m}
    shard, rtt = metrics.get("core.shard.query_ns"), metrics.get("server.client.rtt_ns")
    if shard is None or rtt is None:
        print(f"  {seed:<6}  no traced result (see {out_dir}/{workload}.{seed}.out)")
        broken = True
        continue
    share = shard / max(rtt, 1.0)
    shares.append(share)
    sent = next((int(m[1]) for m in map(sample.search, lines) if m), 0)
    traced = next(((int(m[1]), int(m[2])) for m in map(mismatch.search, lines) if m), (sent, sent))
    print(f"  {seed:<6}{share:>8.3f}{shard:>12.0f}{rtt:>12.0f}{traced[0]:>8}/{traced[1]}")
    for line in lines:
        if line.lstrip().startswith("!"):
            print(f"        {line.strip()}")
            broken = True
if shares:
    print(f"  share min {min(shares):.3f}, max {max(shares):.3f}")
sys.exit(1 if broken else 0)
EOF
