#!/usr/bin/env bash
# Public functions with no caller outside tests.
#
#   scripts/callerless.sh
#
# Strips every inline test module (each file is cut at its first
# `#[cfg(test)]`) and every comment line (`//`, `///`, `//!`: a name in a
# doc comment is not a call), skips `tests/` directories, and lists each `pub fn` of
# `crates/` and `src/` whose name appears in the remaining code of `crates/`,
# `src/`, `examples/` and `benchmark/src/` only on its own definition line.
# Names in KEEP below are known and kept. Exits 1 if any other name is
# listed, or if a KEEP name is stale (no longer a `pub fn`, or now called
# outside tests), so the list only shrinks as code goes; 0 otherwise.
#
# It matches by name, so a common name (`new`, `len`, `seed`) hides behind an
# unrelated use: a clean run is not proof that nothing is caller-less.
set -euo pipefail

# name: why it stays although only tests call it.
KEEP=(
    "maximal_rect_in: CoordGrid's Lemma 4.6 oracle in tests/proptest_invariants.rs"
    "has_empty_dimension: CoordGrid's Lemma 4.6 oracle in tests/proptest_invariants.rs"
    "is_uniform: the Theorem 3.4 precondition oracle in tests/lowerbound_reductions.rs"
    "with_seed: the one spelling of a seeded PtileBuildParams (tests/build_determinism.rs)"
    "with_shapes: the one spelling of a RequestStreamSpec's shape count (dds-server loopback tests)"
    "with_fault_per_mille: the one spelling of a FaultPlan's fault rate (dds-server fault tests)"
    "seeded: the one spelling of a FaultPlan's seed (dds-server fault tests)"
    "with_retry: the one spelling of DdsClient's retry policy (dds-server fault tests)"
    "slack_for: the per-dataset band oracle of the Ptile indexes (tests/exhaustive_guarantees.rs)"
    "query_expr_with: PtileMultiIndex's one spelling of a DNF query (tests/expressions_and_exact.rs)"
    "render_text: the operator text of a MetricsReport that dds-server's loopback test pins"
)

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$root"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

find crates src examples benchmark/src -name '*.rs' -not -path '*/tests/*' |
    while read -r f; do
        mkdir -p "$out/$(dirname "$f")"
        sed -e '/^#\[cfg(test)\]/,$d' -e '/^\s*\/\//d' "$f" >"$out/$f"
    done

kept() {
    local entry
    for entry in "${KEEP[@]}"; do
        [ "${entry%%:*}" = "$1" ] && return 0
    done
    return 1
}

status=0
listed=" "
while read -r name; do
    hits=$(grep -rwoh "$name" "$out" | wc -l)
    defs=$(grep -rhP "^\s*pub fn $name\b" "$out" | wc -l)
    if [ "$hits" -le "$defs" ]; then
        where=$(grep -rlP "^\s*pub fn $name\b" crates src --include=*.rs | tr '\n' ' ')
        listed+="$name "
        if kept "$name"; then
            echo "kept      $name  $where"
        else
            echo "CALLERLESS $name  $where"
            status=1
        fi
    fi
done < <(grep -rhoP '^\s*pub fn \K\w+' crates src --include=*.rs | sort -u)

for entry in "${KEEP[@]}"; do
    name="${entry%%:*}"
    if [[ "$listed" != *" $name "* ]]; then
        echo "STALE KEEP $name  (no longer a pub fn, or now called outside tests)"
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "callerless.sh: delete each CALLERLESS function, or add it to KEEP with its reason;" \
        "drop each STALE KEEP entry" >&2
fi
exit "$status"
