//! Runs the `scripts/bench.sh` smoke runner against the prebuilt
//! binary, so the benchmark script and its speedup gates stay wired
//! into the test suite.

use std::path::Path;
use std::process::Command;

#[test]
fn bench_smoke_script_passes() {
    let script = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scripts/bench.sh")
        .canonicalize()
        .expect("scripts/bench.sh exists");
    let out_file =
        std::env::temp_dir().join(format!("refminer_bench_smoke_{}.json", std::process::id()));
    let eval_file = std::env::temp_dir().join(format!(
        "refminer_bench_smoke_eval_{}.json",
        std::process::id()
    ));
    let out = Command::new("bash")
        .arg(&script)
        .env("BENCHPIPE_BIN", env!("CARGO_BIN_EXE_benchpipe"))
        // A small tree keeps the smoke run fast; the gates scale down
        // with it (warm replay wins by orders of magnitude regardless).
        .env("BENCH_SCALE", "0.2")
        .env("BENCH_OUT", &out_file)
        .env("BENCH_EVAL_OUT", &eval_file)
        .output()
        .expect("run bench.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "bench.sh failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("bench.sh: PASS"), "stdout:\n{stdout}");

    // The report must exist and carry the gate inputs.
    let report = std::fs::read_to_string(&out_file).expect("report written");
    let v = refminer_json::Value::parse(&report).expect("valid JSON report");
    assert!(v.get("speedup_warm").is_some());
    assert!(v.get("speedup_parallel").is_some());
    assert!(v.get("runs").is_some());
    // Schema 10: the scaling curve, the per-engine phase-2 time split
    // and explicit gate states. A skipped gate must be visible, not a
    // silent pass.
    assert_eq!(v.get("schema").and_then(|s| s.as_f64()), Some(10.0));
    let cores = v.get("cores").and_then(|c| c.as_u64()).expect("cores");
    let jobs = v.get("jobs").and_then(|c| c.as_u64()).expect("jobs");
    let gate = v
        .get("parallel_gate")
        .and_then(|g| g.as_str())
        .expect("parallel_gate present");
    assert!(
        gate == "enforced" || gate == "skipped",
        "unexpected parallel_gate {gate:?}"
    );
    assert_eq!(
        gate == "enforced",
        cores >= 4 && jobs >= 4,
        "parallel_gate state must match the host: cores={cores} jobs={jobs}"
    );

    // The worker-count scaling curve: at least the sequential rung,
    // ascending and clamped to the host, cold and warm per rung.
    let scaling = v
        .get("scaling")
        .and_then(|s| s.as_array())
        .expect("scaling curve present");
    assert!(!scaling.is_empty());
    let mut prev = 0;
    for rung in scaling {
        let j = rung
            .get("jobs")
            .and_then(|j| j.as_u64())
            .expect("rung jobs");
        assert!(j > prev && j <= cores, "ladder must ascend within the host");
        prev = j;
        assert!(rung.get("cold_secs").and_then(|s| s.as_f64()).is_some());
        assert!(rung.get("warm_secs").and_then(|s| s.as_f64()).is_some());
    }

    assert!(v.get("summary_hit_rate").is_some());
    assert!(v.get("cold_phase1_secs").is_some());
    assert!(v.get("cold_phase2_secs").is_some());
    assert!(v.get("cold_parse_secs").is_some());
    assert!(v.get("cold_check_secs").is_some());
    let warm = v
        .get("runs")
        .and_then(|r| r.get("warm"))
        .expect("warm run present");
    assert!(warm.get("phase1_secs").is_some());
    assert!(warm.get("phase2_secs").is_some());
    let stages = warm.get("stages").expect("per-run stage breakdown");
    for stage in [
        "parse",
        "export",
        "merge",
        "check",
        "engine_template",
        "engine_delta",
        "report",
    ] {
        assert!(
            stages.get(&format!("{stage}_secs")).is_some(),
            "missing stage {stage}: {stages}"
        );
    }
    assert!(
        stdout.contains("summary-cache hit rate"),
        "stdout:\n{stdout}"
    );

    // The precision/recall eval gate ran and wrote its report.
    let eval = std::fs::read_to_string(&eval_file).expect("eval report written");
    let e = refminer_json::Value::parse(&eval).expect("valid eval report");
    assert!(e.get("feasibility_off").is_some());
    let feas_on = e.get("feasibility_on").expect("feasibility_on present");
    // Schema 2: the feasibility-on run carries the per-engine split
    // and the confidence histogram, and the template-only comparison
    // rides alongside.
    assert!(feas_on
        .get("engines")
        .and_then(|x| x.get("delta"))
        .is_some());
    assert!(feas_on.get("confidence").is_some());
    let f1_combined = e
        .get("f1_combined")
        .and_then(|f| f.as_f64())
        .expect("f1_combined");
    let f1_template = e
        .get("f1_template_only")
        .and_then(|f| f.as_f64())
        .expect("f1_template_only");
    assert!(
        f1_combined >= f1_template,
        "combined F1 {f1_combined} fell below template-only {f1_template}"
    );
    assert_eq!(e.get("recall_lost").and_then(|b| b.as_bool()), Some(false));
    assert!(
        e.get("patterns_improved")
            .and_then(|n| n.as_u64())
            .unwrap_or(0)
            >= 2,
        "eval gate inputs missing:\n{eval}"
    );
    assert!(stdout.contains("bench.sh: eval F1"), "stdout:\n{stdout}");
    std::fs::remove_file(&out_file).ok();
    std::fs::remove_file(&eval_file).ok();
}
