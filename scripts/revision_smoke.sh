#!/usr/bin/env bash
# Revision smoke run: generate two simulated fix histories with histgen
# (seed 11 with 3 clone groups and seed 23 with 2, both at scale 0.05)
# and replay each one commit by commit through both revision
# workflows, against one shared cache dir per history.
#
# `refminer diff` of the two revision roots must give, at every commit:
#
#   1. a delta equal to the set difference of two full `refminer
#      --json` audits of the same revisions (moved findings count on
#      both sides, left_behind lines on neither — they are revision-B
#      findings that survived the commit);
#   2. the same bytes across `--jobs` settings and cache temperature
#      (the warm shared-cache run vs a cold cache-less one);
#   3. left-behind clones on the partial-fix commits, and a clean
#      (empty) delta on the neutral refactor commit.
#
# `refminer fixcheck`, handed the commit's plain GNU `diff -ru` output
# (exactly what a CI bot would capture from a patch) against the
# post-commit tree, must give:
#
#   4. exit 1 on every partial-fix commit, naming at least one
#      left-unfixed sibling from the same clone group;
#   5. exit 0 on the neutral refactor commit, with nothing fixed,
#      nothing introduced, nothing left behind;
#   6. the same JSONL bytes and exit code across `--jobs` settings and
#      cache temperature.
#
# Finally, a malformed diff must exit 2 with a diagnostic, not a panic.
#
# Env:
#   REFMINER_BIN  prebuilt refminer binary; default `cargo run`
#   HISTGEN_BIN   prebuilt histgen binary; default `cargo run`
set -u

here="$(cd "$(dirname "$0")/.." && pwd)"
outdir="$(mktemp -d "${TMPDIR:-/tmp}/refminer-revisions.XXXXXX")"
trap 'rm -rf "$outdir"' EXIT

refminer() {
    if [ -n "${REFMINER_BIN:-}" ]; then
        "$REFMINER_BIN" "$@"
    else
        cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin refminer -- "$@"
    fi
}

histgen() {
    if [ -n "${HISTGEN_BIN:-}" ]; then
        "$HISTGEN_BIN" "$@"
    else
        cargo run --quiet --manifest-path "$here/Cargo.toml" -p refminer --bin histgen -- "$@"
    fi
}

fail() {
    echo "revision_smoke.sh: FAIL ($1)" >&2
    exit 1
}

# replay NAME SEED CLONE-GROUPS
replay() {
    local name="$1" hist="$outdir/$1"
    histgen --seed "$2" --scale 0.05 --clone-groups "$3" "$hist" > /dev/null \
        || fail "$name: histgen"
    [ -f "$hist/history.json" ] || fail "$name: histgen wrote no history.json"

    local revs
    revs=$(cd "$hist" && ls -d rev?? | sort)
    [ -n "$revs" ] || fail "$name: histgen wrote no revisions"

    local cache="$outdir/$name.cache" work="$outdir/$name.work"
    mkdir -p "$work"
    local prev="" rev cur at commit=0 fixed_count left_count groups warm_status cold_status
    local diff_fixes=0 diff_fixes_left_behind=0 fixcheck_fixes=0 neutral_commits=0
    for rev in $revs; do
        cur="$hist/$rev"
        if [ -z "$prev" ]; then
            prev="$cur"
            continue
        fi
        commit=$((commit + 1))
        at="$name commit $commit"

        # --- diff ---------------------------------------------------
        # The two full audits the delta must reduce to.
        refminer --json "$prev" > "$work/full_a.jsonl"
        refminer --json "$cur" > "$work/full_b.jsonl"

        # Warm incremental diff (shared cache, sequential) and a cold
        # parallel one; the delta must not depend on either knob.
        refminer diff --json --jobs 1 --cache-dir "$cache" "$prev" "$cur" \
            > "$work/delta_warm.jsonl"
        refminer diff --json --jobs 4 "$prev" "$cur" > "$work/delta_cold.jsonl"
        cmp -s "$work/delta_warm.jsonl" "$work/delta_cold.jsonl" \
            || fail "$at: delta differs across jobs/cache temperature"

        python3 - "$work/full_a.jsonl" "$work/full_b.jsonl" \
            "$work/delta_warm.jsonl" <<'EOF' || fail "$at: delta != full-audit set difference"
import json, sys

def canon(o):
    return json.dumps(o, sort_keys=True)

def lines(path):
    with open(path) as fh:
        return [json.loads(l) for l in fh if l.strip()]

a = set(canon(o) for o in lines(sys.argv[1]))
b = set(canon(o) for o in lines(sys.argv[2]))
intro, fixed, moved_from, moved_to = set(), set(), set(), set()
for d in lines(sys.argv[3]):
    kind = d["delta"]
    if kind == "introduced":
        intro.add(canon(d["finding"]))
    elif kind == "fixed":
        fixed.add(canon(d["finding"]))
    elif kind == "moved":
        moved_from.add(canon(d["from"]))
        moved_to.add(canon(d["finding"]))
    elif kind == "left_behind":
        assert canon(d["finding"]) in b, "left_behind finding not in revision B"
assert intro | moved_to == b - a, "introduced+moved != B-only findings"
assert fixed | moved_from == a - b, "fixed+moved != A-only findings"
EOF

        fixed_count=$(grep -c '"delta":"fixed"' "$work/delta_warm.jsonl" || true)
        left_count=$(grep -c '"delta":"left_behind"' "$work/delta_warm.jsonl" || true)
        if [ "$fixed_count" -gt 0 ]; then
            diff_fixes=$((diff_fixes + 1))
            [ "$left_count" -gt 0 ] && diff_fixes_left_behind=$((diff_fixes_left_behind + 1))
        else
            # The neutral refactor commit: nothing fixed, nothing introduced.
            [ -s "$work/delta_warm.jsonl" ] && fail "$at: non-fix commit reported a delta"
        fi

        # --- fixcheck -----------------------------------------------
        # The real-world artifact: a recursive GNU diff between
        # snapshots. (Exit 1 just means "files differ".)
        diff -ru "$prev" "$cur" > "$work/fix.patch" || true
        [ -s "$work/fix.patch" ] || fail "$at: empty diff"

        refminer fixcheck --json --jobs 1 --cache-dir "$cache" \
            "$cur" "$work/fix.patch" > "$work/fc_warm.jsonl"
        warm_status=$?
        refminer fixcheck --json --jobs 4 "$cur" "$work/fix.patch" > "$work/fc_cold.jsonl"
        cold_status=$?
        [ "$warm_status" -eq "$cold_status" ] \
            || fail "$at: fixcheck exit codes differ across jobs/cache"
        cmp -s "$work/fc_warm.jsonl" "$work/fc_cold.jsonl" \
            || fail "$at: fixcheck bytes differ across jobs/cache temperature"

        # The groups this commit repaired, per the generator's ground truth.
        groups=$(python3 - "$hist/history.json" "$rev" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for rev in doc["revisions"]:
    if rev["dir"] == sys.argv[2]:
        print(" ".join(sorted({f["group"] for f in rev["fixed"]})))
EOF
)
        if [ -n "$groups" ]; then
            fixcheck_fixes=$((fixcheck_fixes + 1))
            [ "$warm_status" -eq 1 ] \
                || fail "$at: partial fix must exit 1 (got $warm_status)"
            grep -q '"fixcheck":"fixed"' "$work/fc_warm.jsonl" \
                || fail "$at: fixed finding not reported"
            # Every repaired group must have an incomplete report naming
            # a *different* member of the group — a sibling, not the
            # fixed site itself.
            python3 - "$hist/history.json" "$rev" "$work/fc_warm.jsonl" <<'EOF' \
                || fail "$at: no left-unfixed sibling reported"
import json, sys
doc = json.load(open(sys.argv[1]))
rev = next(r for r in doc["revisions"] if r["dir"] == sys.argv[2])
incompletes = [json.loads(l) for l in open(sys.argv[3]) if '"fixcheck":"incomplete"' in l]
for f in rev["fixed"]:
    group, fixed_file = f["group"], f["path"].rsplit("/", 1)[-1]
    siblings = [
        i for i in incompletes
        if group + "_" in i["line"] and fixed_file not in i["line"]
    ]
    assert siblings, f"group {group}: fixed {fixed_file} but no sibling reported"
EOF
        else
            neutral_commits=$((neutral_commits + 1))
            [ "$warm_status" -eq 0 ] \
                || fail "$at: neutral diff must be clean (got $warm_status)"
            grep -q '"fixcheck":"fixed"' "$work/fc_warm.jsonl" \
                && fail "$at: neutral diff reported a fix"
            grep -q '"fixcheck":"incomplete"' "$work/fc_warm.jsonl" \
                && fail "$at: neutral diff reported incompletes"
        fi
        prev="$cur"
    done

    [ "$commit" -ge 2 ] || fail "$name: history too short: $commit commit(s)"
    [ "$diff_fixes" -gt 0 ] || fail "$name: no fix commits replayed through diff"
    [ "$diff_fixes_left_behind" -gt 0 ] \
        || fail "$name: partial-fix commits reported no left-behind clones"
    [ "$fixcheck_fixes" -gt 0 ] || fail "$name: no fix commits replayed through fixcheck"
    [ "$neutral_commits" -gt 0 ] || fail "$name: no neutral commit replayed"
    echo "revision_smoke.sh: $name: $commit commits, $diff_fixes fixes \
($diff_fixes_left_behind with left-behind clones), $fixcheck_fixes partial fixes \
caught by fixcheck, $neutral_commits neutral"
}

replay seed11 11 3
replay seed23 23 2

# Malformed input must be a diagnostic, never a panic.
echo "this is not a diff" > "$outdir/garbage.patch"
refminer fixcheck "$outdir/seed11/rev01" "$outdir/garbage.patch" \
    > /dev/null 2> "$outdir/garbage.err"
[ $? -eq 2 ] || fail "malformed diff must exit 2"
grep -q "refminer fixcheck:" "$outdir/garbage.err" \
    || fail "malformed diff produced no diagnostic"

echo "revision_smoke.sh: PASS"
