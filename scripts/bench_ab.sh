#!/usr/bin/env bash
# Paired A/B run of the repository's benchmark: a base revision against the
# working tree, on one workload.
#
#   scripts/bench_ab.sh <base-rev> <workload> [pairs=10]
#
# Timing medians on a shared host drift by a third over half an hour; drift
# cancels between two passes taken seconds apart. So this runs `pairs` pairs
# of `benchmark/run.sh --workload <w> --seed <s> --seconds 18 --trace 0`
# (seed 11, 12, … — one seed per pair, the same on both sides; keep the
# hold-out seed 0xD15C0 for one run at the end), alternating which side goes
# first, and prints for every end-to-end metric of BENCHMARK.json both
# sides' median and quartiles, the median of the paired ratios change/base
# and how many pairs the change won. A gain is claimed when the change wins
# at least nine tenths of the pairs and the medians differ by more than the
# base's interquartile range.
#
# The base is checked out with `git archive` (it leaves nothing behind in
# .git, unlike a worktree) and each side builds into its own target
# directory, all under $BENCH_AB_DIR (default .bench_build/ab, git-ignored);
# a base already checked out and built there is reused.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base_sha="$(git -C "$root" rev-parse --short "$1^{commit}")"
workload="$2"
pairs="${3:-10}"
dir="${BENCH_AB_DIR:-$root/.bench_build/ab}"
base="$dir/base-$base_sha"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

if [ ! -d "$base" ]; then
    mkdir -p "$base.tmp"
    git -C "$root" archive "$base_sha" | tar -x -C "$base.tmp"
    mv "$base.tmp" "$base"
fi

# side <name> <seed>: one untraced pass; the result line (the last line of
# stdout) is appended to $dir/<workload>.<name>.jsonl, stderr (build output,
# progress) to $dir/<workload>.<name>.log.
side() {
    local name="$1" seed="$2" src="$root"
    [ "$name" = base ] && src="$base"
    (cd "$src" && CARGO_TARGET_DIR="$dir/target-$name" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds 18 --trace 0 2>>"$dir/$workload.$name.log") |
        tail -n 1 >>"$dir/$workload.$name.jsonl"
}

rm -f "$dir/$workload.base.jsonl" "$dir/$workload.change.jsonl"
for ((i = 0; i < pairs; i++)); do
    seed=$((11 + i))
    if ((i % 2 == 0)); then
        side base "$seed"
        side change "$seed"
    else
        side change "$seed"
        side base "$seed"
    fi
    echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

python3 - "$root/BENCHMARK.json" "$dir/$workload.base.jsonl" "$dir/$workload.change.jsonl" \
    "$base_sha" "$workload" <<'EOF'
import json, statistics, sys

spec, base_path, change_path, base_sha, workload = sys.argv[1:]
load = lambda path: [json.loads(line) for line in open(path)]
base, change = load(base_path), load(change_path)

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q1, q2, q3

print(f"{workload}: base {base_sha} vs working tree, {len(base)} pairs (ratio = change / base)")
for name, runs in (("base", base), ("change", change)):
    failed, attempted = (sum(r[k] for r in runs) for k in ("failed", "attempted"))
    wrong = sum(not r["correct"] for r in runs)
    print(f"  {name}: failed {failed} of {attempted} attempted, {wrong} runs incorrect")
print(f"  {'metric':<18}{'base q1 / median / q3':>36}{'change q1 / median / q3':>36}{'ratio':>8}  won")
for metric in json.load(open(spec))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in base]
    c = [r["metrics"][name]["value"] for r in change]
    won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    ties = sum(x == y for x, y in zip(b, c))
    ratio = statistics.median(y / x if x else float("nan") for x, y in zip(b, c))
    cell = lambda xs: " / ".join(f"{q:.4g}" for q in quartiles(xs))
    print(f"  {name:<18}{cell(b):>36}{cell(c):>36}{ratio:>8.3f}  {won}/{len(b)}"
          + (f" ({ties} ties)" if ties else ""))
EOF
