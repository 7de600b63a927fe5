#!/usr/bin/env bash
# Serve smoke run: start the daemon on a demo tree, drive it with the
# rpc client (status, query, reaudit, audit), inject torn cache saves,
# kill -9 the daemon mid-flight, plant a torn cache file, restart, and
# verify the recovered daemon serves query output byte-identical to a
# one-shot `refminer --json` run.
#
# Env:
#   REFMINER_BIN  prebuilt binary; default `cargo run`
set -u

here="$(cd "$(dirname "$0")/.." && pwd)"
outdir="$(mktemp -d "${TMPDIR:-/tmp}/refminer-serve.XXXXXX")"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -9 "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
    fi
    rm -rf "$outdir"
}
trap cleanup EXIT

if [ -n "${REFMINER_BIN:-}" ]; then
    refminer_cmd=("$REFMINER_BIN")
else
    refminer_cmd=(cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin refminer --)
fi
refminer() {
    "${refminer_cmd[@]}" "$@"
}

fail() {
    echo "serve_smoke.sh: FAIL ($1)" >&2
    exit 1
}

# A tiny tree with two known findings.
tree="$outdir/tree"
mkdir -p "$tree/drivers/demo"
cat > "$tree/drivers/demo/demo.c" <<'EOF'

int demo_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        return 0;
}
void demo_drop(struct sock *sk)
{
        sock_put(sk);
        sk->sk_err = 0;
}
EOF

cache="$outdir/cache"
expected="$outdir/expected.jsonl"
refminer --json "$tree" > "$expected"
[ -s "$expected" ] || fail "one-shot run produced no findings"

# start_daemon <logfile> <fault-spec-or-empty>; sets daemon_pid, addr.
start_daemon() {
    log="$1"
    faults="$2"
    # The daemon is the background job itself, not a shell function
    # wrapping it, so `$!` is its pid and `kill -9` reaches it.
    REFMINER_FAULTS="$faults" "${refminer_cmd[@]}" serve --listen 127.0.0.1:0 \
        --cache-dir "$cache" "$tree" > "$log" 2>"$log.err" &
    daemon_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$log" | head -n 1)"
        [ -n "$addr" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on startup: $(cat "$log.err")"
        sleep 0.1
    done
    [ -n "$addr" ] || fail "daemon never announced its address"
}

# wait_revision <min>: poll status until the snapshot reaches <min>.
wait_revision() {
    min="$1"
    for _ in $(seq 1 300); do
        rev="$(refminer rpc "$addr" status | sed -n 's/.*"revision":\([0-9]*\).*/\1/p')"
        [ -n "$rev" ] && [ "$rev" -ge "$min" ] && return 0
        sleep 0.1
    done
    fail "revision never reached $min"
}

# Round one: torn cache writes injected on a seeded schedule.
start_daemon "$outdir/serve1.log" "seed=7,rate=2,ops=write+rename,torn=500,max=100"
wait_revision 1

refminer rpc "$addr" status > /dev/null || fail "status rpc"
refminer rpc "$addr" query > "$outdir/query1.jsonl" || fail "query rpc"
cmp -s "$expected" "$outdir/query1.jsonl" || fail "query != one-shot (round one)"
refminer rpc "$addr" reaudit drivers/demo/demo.c > /dev/null || fail "reaudit rpc"
refminer rpc "$addr" audit > /dev/null || fail "audit rpc"

# Kill -9 mid-flight: enqueue an audit (its save will be in the
# daemon's near future) and kill without waiting for it.
refminer rpc "$addr" audit > /dev/null 2>&1 &
rpc_bg=$!
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null
wait "$rpc_bg" 2>/dev/null
daemon_pid=""

# Make the crash strictly worse than reality: plant a torn prefix of
# a binary cache — a valid magic, then garbage cut mid-header — where
# the live cache file should be.
mkdir -p "$cache"
printf 'RFMCACHE\004\000\000' > "$cache/audit-cache.bin"

# Round two: clean environment. The daemon must quarantine the torn
# cache, rebuild cold, and serve the exact one-shot bytes.
start_daemon "$outdir/serve2.log" ""
wait_revision 1

[ -f "$cache/audit-cache.bin.corrupt" ] || fail "torn cache not quarantined"
refminer rpc "$addr" status | grep -q '"cache_quarantined":1' \
    || fail "quarantine not reported in status"
refminer rpc "$addr" query > "$outdir/query2.jsonl" || fail "query rpc (round two)"
cmp -s "$expected" "$outdir/query2.jsonl" || fail "query != one-shot after recovery"

refminer rpc "$addr" shutdown > /dev/null || fail "shutdown rpc"
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
    fail "daemon did not exit after shutdown"
fi
daemon_pid=""

echo "serve_smoke.sh: PASS"
