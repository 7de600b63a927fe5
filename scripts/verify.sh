#!/usr/bin/env bash
# One-shot release gate: fmt → clippy → build → test → chaos → trace →
# serve → revisions → bench, fail fast, and end with a single
# "verify.sh: PASS" or "verify.sh: FAIL (<step>)" verdict line.
#
# Env:
#   VERIFY_SKIP     space-separated step names to skip
#                   (any of: fmt clippy build test chaos trace serve
#                   revisions bench bigbench)
#   VERIFY_BIG      1 = add a kernel-scale corpus smoke (benchpipe --big
#                   gates on a ~10k-file / ~1 MLoC tree; minutes, not
#                   seconds, so off by default)
#   CHAOSGEN_BIN / REFMINER_BIN / HISTGEN_BIN / BENCHPIPE_BIN,
#   BENCH_SCALE / BENCH_JOBS
#   / BENCH_OUT / BENCH_REPLICAS — forwarded to the underlying scripts,
#   so a harness can point every step at prebuilt binaries.
set -u

here="$(cd "$(dirname "$0")/.." && pwd)"

skipped() {
    case " ${VERIFY_SKIP:-} " in
        *" $1 "*) return 0 ;;
        *) return 1 ;;
    esac
}

step() {
    name="$1"
    shift
    if skipped "$name"; then
        echo "verify.sh: [$name] skipped"
        return 0
    fi
    echo "verify.sh: [$name] running"
    if "$@"; then
        echo "verify.sh: [$name] ok"
    else
        echo "verify.sh: FAIL ($name)" >&2
        exit 1
    fi
}

step fmt cargo fmt --all --check --manifest-path "$here/Cargo.toml"
step clippy cargo clippy --all-targets --quiet --manifest-path "$here/Cargo.toml" -- -D warnings
step build cargo build --release --quiet --manifest-path "$here/Cargo.toml" --workspace
step test cargo test --quiet --manifest-path "$here/Cargo.toml" --workspace
step chaos bash "$here/scripts/chaos.sh"
step trace bash "$here/scripts/trace_smoke.sh"
step serve bash "$here/scripts/serve_smoke.sh"
step revisions bash "$here/scripts/revision_smoke.sh"
step bench bash "$here/scripts/bench.sh"
if [ "${VERIFY_BIG:-0}" = "1" ]; then
    # The big-corpus smoke: bench.sh with its big mode on, the small
    # smoke/eval trees scaled down so the added cost is the big run
    # itself. The big report goes to a scratch path so the committed
    # BENCH_pipeline.json is only ever updated deliberately.
    big_out="${BENCH_BIG_OUT:-$(mktemp "${TMPDIR:-/tmp}/refminer-bigbench.XXXXXX.json")}"
    step bigbench env BENCH_BIG=1 BENCH_BIG_OUT="$big_out" \
        BENCH_SCALE="${BENCH_SCALE:-0.2}" BENCH_EVAL_SCALE=0.1 \
        BENCH_REPLICAS="${BENCH_REPLICAS:-100}" \
        bash "$here/scripts/bench.sh"
fi

echo "verify.sh: PASS"
