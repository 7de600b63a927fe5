//! Runs the `scripts/verify.sh` release gate against prebuilt binaries,
//! so the one-shot fmt → clippy → doc → build → test → chaos chain
//! stays wired into the test suite. The cargo-based
//! steps (fmt, clippy, doc, build, test) are skipped because this test
//! already runs under cargo — re-entering it here would recurse.

use std::path::Path;
use std::process::Command;

fn script() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scripts/verify.sh")
        .canonicalize()
        .expect("scripts/verify.sh exists")
}

#[test]
fn verify_script_chains_chaos_and_bench_to_a_single_pass() {
    let out = Command::new("bash")
        .arg(script())
        .env("VERIFY_SKIP", "fmt clippy doc build test")
        .env("REFMINER_BIN", env!("CARGO_BIN_EXE_refminer"))
        .env("CHAOSGEN_BIN", env!("CARGO_BIN_EXE_chaosgen"))
        .output()
        .expect("run verify.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "verify.sh failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("verify.sh: [fmt] skipped"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("verify.sh: [clippy] skipped"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("verify.sh: [doc] skipped"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("verify.sh: [build] skipped"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("verify.sh: [test] skipped"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("verify.sh: [chaos] ok"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.trim_end().ends_with("verify.sh: PASS"),
        "the verdict must be the last line\nstdout:\n{stdout}"
    );
}

#[test]
fn verify_script_fails_fast_with_the_step_name() {
    let out = Command::new("bash")
        .arg(script())
        .env("VERIFY_SKIP", "fmt clippy doc build test")
        .env("CHAOSGEN_BIN", "/bin/false")
        .output()
        .expect("run verify.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failing step must fail the gate");
    assert!(
        stderr.contains("verify.sh: FAIL (chaos)"),
        "stderr:\n{stderr}"
    );
    assert!(!stdout.contains("verify.sh: PASS"), "stdout:\n{stdout}");
}
