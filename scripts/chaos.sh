#!/usr/bin/env bash
# Chaos smoke run: generate a corrupted synthetic tree, audit it in
# strict mode, and check the process degrades instead of crashing; then
# audit it cold and warm through one --cache-dir outside the tree and
# check the persisted cache changes nothing.
#
# Env:
#   CHAOSGEN_BIN / REFMINER_BIN  prebuilt binaries; default `cargo run`
#   CHAOS_SEED                   chaos seed (default 0xC4A05 in chaosgen)
set -u

here="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/refminer-chaos.XXXXXX")"
trap 'rm -rf "$work"' EXIT
outdir="$work/tree"

chaosgen() {
    if [ -n "${CHAOSGEN_BIN:-}" ]; then
        "$CHAOSGEN_BIN" "$@"
    else
        cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin chaosgen -- "$@"
    fi
}

refminer() {
    if [ -n "${REFMINER_BIN:-}" ]; then
        "$REFMINER_BIN" "$@"
    else
        cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin refminer -- "$@"
    fi
}

seed_args=()
if [ -n "${CHAOS_SEED:-}" ]; then
    seed_args=(--seed "$CHAOS_SEED")
fi

chaosgen "${seed_args[@]}" --ratio 0.4 "$outdir" || {
    echo "chaos.sh: chaosgen failed" >&2
    exit 1
}

refminer --strict --stats "$outdir"
status=$?

# A corrupted tree must end in a controlled exit: findings (1) or a
# strict-mode diagnostic failure (3). Crashes (codes >= 128) and scan
# errors (2) mean the fault boundary leaked.
case "$status" in
    1|3) ;;
    *)   echo "chaos.sh: FAIL (exit $status)" >&2; exit 1;;
esac

# A warm run decodes every entry the cold run saved, degraded units'
# included, and must print the same bytes and exit the same way.
refminer --json --cache-dir "$work/cache" "$outdir" >"$work/cold.jsonl"
cold=$?
refminer --json --cache-dir "$work/cache" "$outdir" >"$work/warm.jsonl"
warm=$?
if [ ! -f "$work/cache/audit-cache.bin" ]; then
    echo "chaos.sh: FAIL (the cold run saved no cache)" >&2
    exit 1
fi
if [ "$cold" != "$warm" ] || ! cmp -s "$work/cold.jsonl" "$work/warm.jsonl"; then
    echo "chaos.sh: FAIL (cold exit $cold, warm exit $warm; stdout must match)" >&2
    exit 1
fi
echo "chaos.sh: PASS (exit $status)"
