#!/usr/bin/env bash
# One-shot release gate: fmt → clippy → doc → build → test → chaos,
# fail fast, and end with a single "verify.sh: PASS" or
# "verify.sh: FAIL (<step>)" verdict line. Timing lives in refbench/
# (the repository's one benchmark harness), not here: the test step
# already enforces the warm-cache speedup bound and the eval F1 floor.
#
# Env:
#   VERIFY_SKIP     space-separated step names to skip
#                   (any of: fmt clippy doc build test chaos)
#   CHAOSGEN_BIN / REFMINER_BIN — forwarded to scripts/chaos.sh, so a
#   harness can point the chaos step at prebuilt binaries.
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
step doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet --manifest-path "$here/Cargo.toml"
step build cargo build --release --quiet --manifest-path "$here/Cargo.toml" --workspace
step test cargo test --quiet --manifest-path "$here/Cargo.toml" --workspace
step chaos bash "$here/scripts/chaos.sh"

echo "verify.sh: PASS"
