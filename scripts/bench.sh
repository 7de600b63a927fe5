#!/usr/bin/env bash
# Pipeline benchmark smoke run: audit a synthetic tree cold/warm over
# the {1, 2, 4, N} worker ladder, write BENCH_pipeline.json (schema 10),
# and enforce the speedup gates (warm >= 5x always; parallel >= 2x only
# on machines with at least four hardware threads — everywhere else
# benchpipe prints an explicit SKIP and records the gate as "skipped"
# in the report).
#
# A second run in `--eval` mode scores the two-engine audit against an
# FP-trap tree and regresses the corpus F1 against the committed
# baseline below: the run fails unless feasibility pruning still
# improves precision on >= 2 anti-patterns with zero recall loss, the
# combined two-engine F1 is no worse than the template-only run's, and
# the combined F1 stays at or above the baseline.
#
# With BENCH_BIG=1, a third run audits the kernel-scale replicated
# corpus (~10k files / ~1 MLoC with the default replica count) under
# the same gates.
#
# Env:
#   BENCHPIPE_BIN    prebuilt binary; default `cargo run --release`
#   BENCH_SCALE      tree scale factor (default 1.0, ~350 files)
#   BENCH_JOBS       worker count for the parallel runs (default: CPUs)
#   BENCH_OUT        report path (default BENCH_pipeline.json)
#   BENCH_EVAL_SCALE eval-tree scale factor (default 0.2)
#   BENCH_EVAL_OUT   eval report path (default BENCH_eval.json)
#   BENCH_BIG        1 = also run the kernel-scale corpus gates
#   BENCH_REPLICAS   replica count for the big run (default 100)
#   BENCH_BIG_OUT    big-run report path (default BENCH_OUT, i.e. the
#                    big run's numbers replace the smoke run's)
set -u

here="$(cd "$(dirname "$0")/.." && pwd)"
out="${BENCH_OUT:-$here/BENCH_pipeline.json}"
eval_out="${BENCH_EVAL_OUT:-$here/BENCH_eval.json}"

# Committed baseline: total F1 of the template-only feasibility-on
# run on the default eval tree. The combined two-engine run must meet
# it — the delta engine has to pay for its recall without costing
# precision. Update deliberately, never to paper over a regression.
eval_f1_baseline=0.99

benchpipe() {
    if [ -n "${BENCHPIPE_BIN:-}" ]; then
        "$BENCHPIPE_BIN" "$@"
    else
        cargo run --quiet --release --manifest-path "$here/Cargo.toml" \
            -p refminer --bin benchpipe -- "$@"
    fi
}

args=(--check --out "$out" --scale "${BENCH_SCALE:-1.0}")
if [ -n "${BENCH_JOBS:-}" ]; then
    args+=(--jobs "$BENCH_JOBS")
fi

if ! benchpipe "${args[@]}"; then
    echo "bench.sh: FAIL" >&2
    exit 1
fi

# Surface the phase split and cache hit rate from the report; the keys
# appear exactly once at the top level.
top_key() {
    sed -n "s/^ *\"$1\": *\([0-9.eE+-]*\),*$/\1/p" "$out" | head -n 1
}
echo "bench.sh: cold phases $(top_key cold_phase1_secs)s parse + $(top_key cold_phase2_secs)s export+check"
echo "bench.sh: warm summary-cache hit rate $(top_key summary_hit_rate)"

# Precision/recall regression gate against the committed F1 baseline.
eval_args=(--eval --check --baseline "$eval_f1_baseline" \
    --out "$eval_out" --scale "${BENCH_EVAL_SCALE:-0.2}")
if [ -n "${BENCH_JOBS:-}" ]; then
    eval_args+=(--jobs "$BENCH_JOBS")
fi
if ! benchpipe "${eval_args[@]}"; then
    echo "bench.sh: FAIL (eval gate)" >&2
    exit 1
fi
eval_top_key() {
    sed -n "s/^ *\"$1\": *\([0-9.eE+-]*\),*$/\1/p" "$eval_out" | head -n 1
}
echo "bench.sh: eval F1 $(eval_top_key f1_off) -> $(eval_top_key f1_on) with feasibility, $(eval_top_key patterns_improved) pattern(s) improved"
echo "bench.sh: combined two-engine F1 $(eval_top_key f1_combined) vs template-only $(eval_top_key f1_template_only)"

# Kernel-scale corpus gates: the ~10k-file replicated tree. One rep — a
# cold MLoC audit per ladder rung is the expensive part, and the gates
# compare seconds, not microseconds.
if [ "${BENCH_BIG:-0}" = "1" ]; then
    big_out="${BENCH_BIG_OUT:-$out}"
    big_args=(--big --replicas "${BENCH_REPLICAS:-100}" --reps 1 \
        --check --out "$big_out")
    if [ -n "${BENCH_JOBS:-}" ]; then
        big_args+=(--jobs "$BENCH_JOBS")
    fi
    if ! benchpipe "${big_args[@]}"; then
        echo "bench.sh: FAIL (big-corpus gate)" >&2
        exit 1
    fi
    big_key() {
        sed -n "s/^ *\"$1\": *\([0-9.eE+-]*\),*$/\1/p" "$big_out" | head -n 1
    }
    echo "bench.sh: big corpus $(big_key files) files, warm speedup $(big_key speedup_warm)x"
fi

echo "bench.sh: PASS ($out, $eval_out)"
