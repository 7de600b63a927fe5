//! End-to-end tests of the `refminer` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn write_demo_tree() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_cli_test_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/demo")).expect("mkdir");
    std::fs::write(
        dir.join("drivers/demo/demo.c"),
        r#"
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
"#,
    )
    .expect("write demo");
    dir
}

fn refminer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_refminer"))
}

#[test]
fn reports_findings_and_exits_one() {
    let dir = write_demo_tree();
    let out = refminer().arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(1), "findings → exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[P4/Leak]"), "stdout: {stdout}");
    assert!(stdout.contains("[P8/UAF]"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pattern_filter_narrows_output() {
    let dir = write_demo_tree();
    let out = refminer()
        .args(["--pattern", "P8"])
        .arg(&dir)
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P8"));
    assert!(!stdout.contains("P4"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_output_parses() {
    let dir = write_demo_tree();
    let out = refminer().arg("--json").arg(&dir).output().expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut count = 0;
    for line in stdout.lines() {
        let v = refminer_json::Value::parse(line).expect("valid JSON line");
        assert!(v.get("pattern").is_some());
        assert!(v.get("file").is_some());
        count += 1;
    }
    assert_eq!(count, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn csv_output_has_header_and_rows() {
    let dir = write_demo_tree();
    let out = refminer().arg("--csv").arg(&dir).output().expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "file,line,pattern,impact,api,function,object");
    assert_eq!(lines.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn impact_filter_and_clean_exit() {
    let dir = write_demo_tree();
    // NPD findings do not exist in the demo: exit 0, empty output.
    let out = refminer()
        .args(["--impact", "npd"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_path_exits_two() {
    let out = refminer()
        .arg("/nonexistent/refminer/path")
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn strict_mode_flags_degraded_units() {
    let dir = write_demo_tree();
    // Add a depth bomb next to the healthy file.
    let bomb = format!(
        "int bomb(void) {{ return {}1{}; }}",
        "(".repeat(3000),
        ")".repeat(3000)
    );
    std::fs::write(dir.join("drivers/demo/bomb.c"), bomb).expect("write bomb");
    let out = refminer().arg("--strict").arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(3), "strict + degraded → exit 3");
    // Without --strict the same tree exits 1 (findings) and the
    // healthy file's findings are intact.
    let out = refminer().arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[P4/Leak]"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A function that takes a reference, then releases it in every arm of
/// an `if` / `else if` chain of `arms` arms and after the chain.
fn else_if_chain(arms: usize) -> String {
    let mut src = String::from(
        "int pick(const char *name)\n{\n\
         \tstruct device_node *np = of_find_node_by_name(NULL, \"x\");\n\
         \tif (!np)\n\t\treturn -ENODEV;\n\t",
    );
    for k in 0..arms {
        if k > 0 {
            src.push_str(" else ");
        }
        src.push_str(&format!(
            "if (!strcmp(name, \"opt{k}\")) {{\n\t\tof_node_put(np);\n\t\treturn {k};\n\t}}"
        ));
    }
    src.push_str("\n\tof_node_put(np);\n\treturn -EINVAL;\n}\n");
    src
}

#[test]
fn long_else_if_chains_are_one_level_of_nesting() {
    // A flat chain is one level of nesting, however long: were each
    // `else if` one level deeper, 125 arms would reach the parse-depth
    // cap (128), degrade the unit and cut the chain into a false leak.
    let dir = scratch_dir("else_if");
    for arms in [124, 125, 200, 5_000] {
        std::fs::write(dir.join(format!("chain{arms}.c")), else_if_chain(arms)).expect("write");
    }
    let out = refminer()
        .args(["--strict", "--json"])
        .arg(&dir)
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.is_empty(), "findings or diagnostics: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_mode_passes_on_clean_tree() {
    let dir = write_demo_tree();
    let out = refminer().arg("--strict").arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(1), "clean tree keeps findings exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_diagnostics_line_appears_only_when_dirty() {
    let dir = write_demo_tree();
    let bomb = format!(
        "int bomb(void) {{ return {}1{}; }}",
        "(".repeat(3000),
        ")".repeat(3000)
    );
    std::fs::write(dir.join("drivers/demo/bomb.c"), bomb).expect("write bomb");
    let out = refminer().arg("--json").arg(&dir).output().expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let last = refminer_json::Value::parse(lines.last().unwrap()).expect("valid JSON");
    let diag = last.get("diagnostics").expect("diagnostics line present");
    let units = diag.get("units").expect("units array");
    let arr = match units {
        refminer_json::Value::Arr(a) => a,
        other => panic!("units not an array: {other:?}"),
    };
    assert!(arr.iter().any(|u| {
        matches!(u.get("path"), Some(refminer_json::Value::Str(p)) if p.ends_with("bomb.c"))
    }));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn max_file_bytes_skips_oversize_files() {
    let dir = write_demo_tree();
    std::fs::write(dir.join("drivers/demo/huge.c"), "int x;\n".repeat(2000)).expect("write huge");
    let out = refminer()
        .args(["--strict", "--max-file-bytes", "4096"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3), "skipped unit trips strict mode");
    let out = refminer()
        .args(["--max-file-bytes", "1048576"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(1),
        "under the cap nothing is skipped"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_reports_unit_outcomes() {
    let dir = write_demo_tree();
    let out = refminer().arg("--stats").arg(&dir).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("units: 1 ok, 0 degraded, 0 skipped"),
        "stderr: {stderr}"
    );
    // The trace's stage table times both phases: a row per stage.
    for stage in ["parse", "merge.kb", "merge.progdb", "check"] {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().next() == Some(stage)),
            "no `{stage}` row in the stage table; stderr: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_flag_output_is_byte_identical() {
    let dir = write_demo_tree();
    let seq = refminer()
        .args(["--json", "--jobs", "1"])
        .arg(&dir)
        .output()
        .expect("run");
    let par = refminer()
        .args(["--json", "--jobs", "8"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(seq.status.code(), par.status.code());
    assert_eq!(seq.stdout, par.stdout, "--jobs 8 changed the JSON bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_jobs_value_exits_two() {
    let dir = write_demo_tree();
    let out = refminer()
        .args(["--jobs", "many"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

fn write_fp_trap_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_eval_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tree = refminer::corpus::generate_tree(&refminer::corpus::TreeConfig {
        scale: 0.1,
        include_tricky: false,
        fp_traps: true,
        ..Default::default()
    });
    tree.write_to(&dir).expect("write tree");
    dir
}

/// Per-pattern (precision, recall) map from an eval report's JSON.
fn metrics(v: &refminer_json::Value) -> Vec<(String, f64, f64)> {
    v.get("per_pattern")
        .and_then(|p| p.as_array())
        .expect("per_pattern array")
        .iter()
        .map(|row| {
            (
                row.get("pattern")
                    .and_then(|p| p.as_str())
                    .unwrap()
                    .to_string(),
                row.get("precision").and_then(|p| p.as_f64()).unwrap(),
                row.get("recall").and_then(|r| r.as_f64()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn eval_feasibility_improves_precision_without_recall_loss() {
    let dir = write_fp_trap_tree("gate");
    let run = |extra: &[&str]| {
        let out = refminer()
            .arg("eval")
            .args(extra)
            .arg("--json")
            .arg(&dir)
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(0), "eval exits 0");
        refminer_json::Value::parse(String::from_utf8_lossy(&out.stdout).trim())
            .expect("eval report is JSON")
    };
    let on = run(&[]);
    let off = run(&["--no-feasibility"]);

    let off_traps = off.get("trap_hits").and_then(|t| t.as_u64()).unwrap();
    let on_traps = on.get("trap_hits").and_then(|t| t.as_u64()).unwrap();
    assert!(
        off_traps >= 2,
        "baseline must hit the FP traps, got {off_traps}"
    );
    assert_eq!(on_traps, 0, "feasibility must suppress every trap hit");

    // Strictly better precision on >= 2 patterns, recall never worse.
    // A pattern absent from the feasibility-on report lost all its
    // (false-positive-only) findings: precision went to 1.0.
    let on_rows = metrics(&on);
    let mut improved = 0;
    for (pattern, off_p, off_r) in metrics(&off) {
        let (on_p, on_r) = on_rows
            .iter()
            .find(|(p, _, _)| *p == pattern)
            .map(|(_, p, r)| (*p, *r))
            .unwrap_or((1.0, 1.0));
        assert!(on_r >= off_r, "{pattern}: recall dropped {off_r} -> {on_r}");
        if on_p > off_p {
            improved += 1;
        }
    }
    assert!(
        improved >= 2,
        "precision improved on {improved} pattern(s), expected >= 2"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_reports_per_engine_and_combined_metrics() {
    let dir = write_fp_trap_tree("engines");
    let out = refminer()
        .arg("eval")
        .arg("--json")
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(0), "eval exits 0");
    let v = refminer_json::Value::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("eval report is JSON");

    // The report is the combined score: per-pattern rows, totals and
    // trap hits, and nothing else.
    let refminer_json::Value::Obj(pairs) = &v else {
        panic!("eval report is not an object: {v}")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["per_pattern", "totals", "trap_hits"], "{v}");
    let f1 = v
        .get("totals")
        .and_then(|t| t.get("f1"))
        .and_then(|f| f.as_f64())
        .expect("totals.f1");
    assert!((0.0..=1.0).contains(&f1));

    // The text table ends in the totals row and the trap-hit count.
    let out = refminer().arg("eval").arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("total"), "table missing the totals:\n{text}");
    assert!(text.ends_with("trap hits: 0\n"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_empty_manifest_and_clean_tree_score_perfect() {
    // The degenerate eval: no bugs injected, no findings reported.
    // Both metric denominators are empty and the conventions say 1.0,
    // asserted through the same JSON the scoreboard scripts consume.
    let dir = std::env::temp_dir().join(format!(
        "refminer_eval_empty_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/clean")).expect("mkdir");
    std::fs::write(
        dir.join("drivers/clean/clean.c"),
        "int add(int a, int b)\n{\n        return a + b;\n}\n",
    )
    .expect("write clean");
    std::fs::write(
        dir.join("manifest.json"),
        r#"{"bugs":[],"tricky":[],"clean_functions":1,"fp_traps":[]}"#,
    )
    .expect("manifest");
    let out = refminer()
        .arg("eval")
        .arg("--json")
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(0), "eval exits 0");
    let v = refminer_json::Value::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("eval report is JSON");
    assert!(
        v.get("per_pattern")
            .and_then(|p| p.as_array())
            .expect("per_pattern array")
            .is_empty(),
        "no activity → no rows"
    );
    let totals = v.get("totals").expect("totals");
    assert_eq!(totals.get("precision").and_then(|p| p.as_f64()), Some(1.0));
    assert_eq!(totals.get("recall").and_then(|r| r.as_f64()), Some(1.0));
    assert_eq!(v.get("trap_hits").and_then(|t| t.as_u64()), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn feasibility_json_is_byte_identical_across_jobs_and_cache() {
    let dir = write_fp_trap_tree("bytes");
    let cache_dir = dir.join(".refminer-cache");
    let run = |jobs: &str, cached: bool| {
        let mut cmd = refminer();
        cmd.args(["--json", "--jobs", jobs]);
        if cached {
            cmd.arg("--cache-dir").arg(&cache_dir);
        }
        cmd.arg(&dir).output().expect("run")
    };
    let seq = run("1", false);
    let par = run("8", false);
    assert_eq!(seq.stdout, par.stdout, "--jobs 8 changed the JSON bytes");
    let cold = run("8", true);
    let warm = run("8", true);
    assert_eq!(seq.stdout, cold.stdout, "cold cache changed the JSON bytes");
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm cache changed the JSON bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn only_pattern_runs_a_checker_subset() {
    let dir = write_demo_tree();
    let out = refminer()
        .args(["--only-pattern", "P8"])
        .arg(&dir)
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P8"), "stdout: {stdout}");
    assert!(
        !stdout.contains("P4"),
        "P4 checker should not have run: {stdout}"
    );
    let out = refminer()
        .args(["--only-pattern", "P0"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bad pattern id is a usage error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subsystem_filter_narrows_the_audit() {
    let dir = write_demo_tree();
    let hit = refminer()
        .args(["--subsystem", "drivers/demo"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(hit.status.code(), Some(1), "prefix matches → findings");
    let miss = refminer()
        .args(["--subsystem", "sound"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(miss.status.code(), Some(0), "prefix misses → clean exit");
    assert!(miss.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_feasibility_restores_infeasible_findings() {
    let dir = std::env::temp_dir().join(format!(
        "refminer_nofeas_test_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/demo")).expect("mkdir");
    // The correlated branch: `ret` is proven zero at the `if`, so the
    // error return cannot execute and the P1 report is a false alarm.
    std::fs::write(
        dir.join("drivers/demo/corr.c"),
        r#"
int corr_probe(struct device *dev)
{
        int ret = pm_runtime_get_sync(dev);
        ret = 0;
        if (ret)
                return ret;
        pm_runtime_put(dev);
        return 0;
}
"#,
    )
    .expect("write corr");
    let on = refminer().arg(&dir).output().expect("run");
    assert_eq!(on.status.code(), Some(0), "infeasible finding suppressed");
    let off = refminer()
        .arg("--no-feasibility")
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(off.status.code(), Some(1), "--no-feasibility restores it");
    let stdout = String::from_utf8_lossy(&off.stdout);
    assert!(stdout.contains("P1"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_dir_warm_run_is_byte_identical_and_hits() {
    let dir = write_demo_tree();
    let cache_dir = dir.join(".refminer-cache");
    let run = || {
        refminer()
            .args(["--json", "--stats", "--cache-dir"])
            .arg(&cache_dir)
            .arg(&dir)
            .output()
            .expect("run")
    };
    let cold = run();
    assert!(
        cache_dir.join(refminer::CACHE_FILE).is_file(),
        "cache file persisted"
    );
    let warm = run();
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm cache changed the JSON bytes"
    );
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        stderr.contains("hit rate 100%"),
        "warm run should be all hits: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_cli_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn histgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_histgen"))
}

/// Renders the unified diff between two on-disk revision trees the way
/// a CI bot would hand it to `fixcheck` — via the library's renderer,
/// so the tests don't depend on an external `diff` binary.
fn diff_between(a: &std::path::Path, b: &std::path::Path) -> String {
    let pa = refminer::Project::scan(a).expect("scan rev a");
    let pb = refminer::Project::scan(b).expect("scan rev b");
    let old: std::collections::HashMap<&str, &str> = pa
        .units()
        .iter()
        .map(|u| (u.path.as_str(), u.text.as_str()))
        .collect();
    let mut out = String::new();
    for u in pb.units() {
        let prev = old.get(u.path.as_str()).copied().unwrap_or("");
        if let Some(d) = refminer::render_file_diff(&u.path, prev, &u.text) {
            out.push_str(&d);
        }
    }
    out
}

#[test]
fn fixcheck_nonexistent_root_exits_two() {
    let dir = scratch_dir("fixcheck_noroot");
    let patch = dir.join("fix.patch");
    std::fs::write(
        &patch,
        "--- a/x.c\n+++ b/x.c\n@@ -1 +1 @@\n-int a;\n+int b;\n",
    )
    .unwrap();
    let out = refminer()
        .arg("fixcheck")
        .arg("/nonexistent/refminer/root")
        .arg(&patch)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refminer fixcheck:"),
        "wanted a diagnostic, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixcheck_missing_diff_file_exits_two() {
    let dir = write_demo_tree();
    let out = refminer()
        .arg("fixcheck")
        .arg(&dir)
        .arg("/nonexistent/refminer/fix.patch")
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixcheck_malformed_diff_exits_two_with_diagnostic() {
    let dir = write_demo_tree();
    let patch = dir.join("garbage.patch");
    std::fs::write(&patch, "this is not a unified diff\n").unwrap();
    let out = refminer()
        .arg("fixcheck")
        .arg(&dir)
        .arg(&patch)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "malformed diff must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refminer fixcheck:"),
        "wanted a parse diagnostic, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixcheck_stale_diff_exits_two_not_panic() {
    // A syntactically fine diff whose context does not match the tree:
    // the reverse-apply must fail with a located diagnostic.
    let dir = write_demo_tree();
    let patch = dir.join("stale.patch");
    std::fs::write(
        &patch,
        "--- a/drivers/demo/demo.c\n+++ b/drivers/demo/demo.c\n\
         @@ -1,2 +1,2 @@\n line that was never there\n-gone\n+also wrong\n",
    )
    .unwrap();
    let out = refminer()
        .arg("fixcheck")
        .arg(&dir)
        .arg(&patch)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("refminer fixcheck:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_nonexistent_root_exits_two() {
    let out = refminer()
        .arg("history")
        .arg("/nonexistent/refminer/releases")
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("refminer history:"));
}

#[test]
fn history_empty_root_exits_two_with_diagnostic() {
    let dir = scratch_dir("history_empty");
    let out = refminer().arg("history").arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(2), "no revisions must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refminer history:"),
        "wanted a diagnostic, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn histgen_zero_releases_exits_two() {
    let dir = scratch_dir("histgen_zero");
    let out = histgen()
        .args(["--releases", "0"])
        .arg(dir.join("out"))
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--releases"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn histgen_unwritable_outdir_exits_two() {
    // The out path runs through an existing *file*, so every write
    // fails; the tool must diagnose, not panic.
    let dir = scratch_dir("histgen_badout");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let out = histgen()
        .args(["--scale", "0.02"])
        .arg(blocker.join("nested"))
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("histgen:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixcheck_cli_reports_the_unfixed_siblings() {
    let dir = scratch_dir("fixcheck_e2e");
    let hist = dir.join("hist");
    let out = histgen()
        .args(["--scale", "0.02", "--clone-groups", "1"])
        .arg(&hist)
        .output()
        .expect("run histgen");
    assert!(out.status.success(), "histgen failed");
    let patch = dir.join("fix.patch");
    std::fs::write(
        &patch,
        diff_between(&hist.join("rev00"), &hist.join("rev01")),
    )
    .unwrap();

    let out = refminer()
        .args(["fixcheck", "--json"])
        .arg(hist.join("rev01"))
        .arg(&patch)
        .output()
        .expect("run fixcheck");
    assert_eq!(out.status.code(), Some(1), "incomplete fix must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .last()
        .and_then(|l| refminer_json::Value::parse(l).ok())
        .expect("summary line");
    assert_eq!(
        summary
            .get("fixcheck")
            .and_then(|v| v.as_str().map(String::from)),
        Some("summary".to_string())
    );
    assert_eq!(
        summary.get("clean").and_then(refminer_json::Value::as_bool),
        Some(false)
    );
    assert!(
        summary
            .get("incomplete")
            .and_then(refminer_json::Value::as_u64)
            .unwrap_or(0)
            >= 1,
        "the partial fix must leave siblings behind: {summary}"
    );
    // The neutral last commit must come back clean with exit 0.
    let revs: Vec<_> = std::fs::read_dir(&hist)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    let mut revs = revs;
    revs.sort();
    let (prev, last) = (&revs[revs.len() - 2], &revs[revs.len() - 1]);
    std::fs::write(&patch, diff_between(prev, last)).unwrap();
    let out = refminer()
        .arg("fixcheck")
        .arg(last)
        .arg(&patch)
        .output()
        .expect("run fixcheck neutral");
    assert_eq!(out.status.code(), Some(0), "neutral diff must be clean");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_fixcheck_has_full_recall_and_zero_spurious() {
    let dir = scratch_dir("fixcheck_eval");
    let hist = dir.join("hist");
    let out = histgen()
        .args(["--scale", "0.02", "--clone-groups", "2"])
        .arg(&hist)
        .output()
        .expect("run histgen");
    assert!(out.status.success(), "histgen failed");
    let out = refminer()
        .args(["eval", "--fixcheck", "--json"])
        .arg(&hist)
        .output()
        .expect("run eval");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = refminer_json::Value::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("eval json");
    let totals = v.get("totals").expect("totals");
    let num = |k: &str| {
        totals
            .get(k)
            .and_then(refminer_json::Value::as_u64)
            .unwrap()
    };
    assert!(num("found") >= 1, "ground truth must be non-empty: {v}");
    assert_eq!(num("missed"), 0, "recall must be total: {v}");
    assert_eq!(num("spurious"), 0, "no spurious incompletes: {v}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_json_is_byte_identical_across_jobs_and_cache() {
    let dir = scratch_dir("history_bytes");
    let rels = dir.join("rels");
    let out = histgen()
        .args(["--releases", "3", "--scale", "0.02"])
        .arg(&rels)
        .output()
        .expect("run histgen");
    assert!(out.status.success(), "histgen failed");
    let cache = dir.join(".cache");
    let run = |extra: &[&str]| {
        let out = refminer()
            .args(["history", "--json"])
            .args(extra)
            .arg(&rels)
            .output()
            .expect("run history");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let base = run(&[]);
    assert_eq!(base, run(&["--jobs", "8"]), "jobs changed history bytes");
    let cold = run(&["--cache-dir", cache.to_str().unwrap()]);
    let warm = run(&["--cache-dir", cache.to_str().unwrap()]);
    assert_eq!(base, cold, "cold cache changed history bytes");
    assert_eq!(base, warm, "warm cache changed history bytes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes the three-clone-group fix history the revision subcommands
/// are driven on; returns the scratch dir and the history root.
fn clone_history(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    let hist = dir.join("hist");
    let out = histgen()
        .args(["--seed", "11", "--scale", "0.05", "--clone-groups", "3"])
        .arg(&hist)
        .output()
        .expect("run histgen");
    assert!(out.status.success(), "histgen failed");
    (dir, hist)
}

fn json_lines(stdout: &[u8]) -> Vec<refminer_json::Value> {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|l| refminer_json::Value::parse(l).expect("JSONL line"))
        .collect()
}

#[test]
fn revision_json_is_byte_identical_across_jobs_and_cache() {
    let (dir, hist) = clone_history("revision_bytes");
    let mut revs: Vec<PathBuf> = std::fs::read_dir(&hist)
        .expect("read history")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir())
        .collect();
    revs.sort();
    assert!(
        revs.len() >= 3,
        "base, a partial fix and the neutral commit"
    );
    let patch = dir.join("fix.patch");
    let mut exits = Vec::new();
    for (i, pair) in revs.windows(2).enumerate() {
        std::fs::write(&patch, diff_between(&pair[0], &pair[1])).expect("write patch");
        for (cmd, inputs) in [
            ("diff", [&pair[0], &pair[1]]),
            ("fixcheck", [&pair[1], &patch]),
        ] {
            let cache = dir.join(format!(".cache-{cmd}-{i}"));
            let run = |extra: &[&str]| {
                let out = refminer()
                    .args([cmd, "--json"])
                    .args(extra)
                    .args(inputs)
                    .output()
                    .expect("run revision command");
                (out.status.code(), out.stdout)
            };
            let base = run(&["--jobs", "4"]);
            let cached = ["--jobs", "1", "--cache-dir", cache.to_str().unwrap()];
            assert_eq!(
                base,
                run(&cached),
                "{cmd} commit {i}: cold cache changed the output"
            );
            assert_eq!(
                base,
                run(&cached),
                "{cmd} commit {i}: warm cache changed the output"
            );
            exits.push(base.0);
        }
    }
    // The partial fixes leave clones behind (exit 1); the neutral
    // commit is clean (exit 0).
    assert!(
        exits.contains(&Some(1)) && exits.contains(&Some(0)),
        "{exits:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_dir_through_successive_revisions_keeps_one_tree() {
    // One `--cache-dir` carried through every revision of a history,
    // one process per revision. Each run prints what an uncached run
    // prints, and the file keeps only what the run's audit read: after
    // the last revision it is at most 1.2x its size after the first.
    let (dir, hist) = clone_history("cache_dir_revisions");
    let cache = dir.join(".cache");
    let mut revs: Vec<PathBuf> = std::fs::read_dir(&hist)
        .expect("read history")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir())
        .collect();
    revs.sort();
    assert!(revs.len() >= 3, "a base and at least two commits");
    let mut sizes = Vec::new();
    for rev in &revs {
        let run = |extra: &[&str]| {
            let out = refminer()
                .arg("--json")
                .args(extra)
                .arg(rev)
                .output()
                .expect("run refminer");
            (out.status.code(), out.stdout)
        };
        let cached = run(&["--cache-dir", cache.to_str().unwrap()]);
        assert_eq!(
            cached,
            run(&[]),
            "{}: the cache changed the output",
            rev.display()
        );
        let file = cache.join(refminer::CACHE_FILE);
        sizes.push(std::fs::metadata(file).expect("cache file").len());
    }
    let (first, last) = (sizes[0], sizes[sizes.len() - 1]);
    assert!(last * 5 <= first * 6, "cache file sizes {sizes:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_at_ranks_the_clone_siblings_of_a_seed_finding() {
    let (dir, hist) = clone_history("sweep_at");
    let out = refminer()
        .args(["sweep", "--at", "drivers/clones/cg0_unit0.c:13", "--json"])
        .arg(hist.join("rev00"))
        .output()
        .expect("run sweep");
    assert_eq!(
        out.status.code(),
        Some(1),
        "clones matched → exit 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = json_lines(&out.stdout);
    let template = lines[0].get("template").expect("template line first");
    let origin = template.get("origin").expect("origin");
    assert_eq!(
        origin
            .get("function")
            .and_then(refminer_json::Value::as_str),
        Some("cg0_site0")
    );
    for sibling in ["cg0_site1", "cg0_site2", "cg0_site3"] {
        let hit = lines[1..].iter().any(|m| {
            m.get("score").and_then(refminer_json::Value::as_u64) == Some(100)
                && m.get("finding")
                    .and_then(|f| f.get("function"))
                    .and_then(refminer_json::Value::as_str)
                    == Some(sibling)
        });
        assert!(hit, "{sibling} must match at score 100");
    }

    let out = refminer()
        .args(["sweep", "--at", "drivers/clones/cg0_unit0.c:1"])
        .arg(hist.join("rev00"))
        .output()
        .expect("run sweep");
    assert_eq!(
        out.status.code(),
        Some(2),
        "no finding at the site → exit 2"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("no finding at"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_no_sweep_reports_the_fix_without_left_behind() {
    let (dir, hist) = clone_history("diff_no_sweep");
    let diff = |extra: &[&str]| {
        refminer()
            .args(["diff", "--json"])
            .args(extra)
            .arg(hist.join("rev00"))
            .arg(hist.join("rev01"))
            .output()
            .expect("run diff")
    };
    let kinds = |stdout: &[u8]| -> Vec<String> {
        json_lines(stdout)
            .iter()
            .map(|l| {
                l.get("delta")
                    .and_then(refminer_json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let out = diff(&["--no-sweep"]);
    assert_eq!(out.status.code(), Some(0), "nothing introduced → exit 0");
    assert_eq!(kinds(&out.stdout), ["fixed"]);
    // The same commit with the sweep on leaves the unfixed clones behind.
    let out = diff(&[]);
    assert_eq!(out.status.code(), Some(1), "clones left behind → exit 1");
    let swept = kinds(&out.stdout);
    assert_eq!(swept[0], "fixed");
    assert!(swept[1..].iter().all(|k| k == "left_behind") && swept.len() > 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_sweep_scores_the_clone_groups() {
    let (dir, hist) = clone_history("eval_sweep");
    let out = refminer()
        .args(["eval", "--sweep", "--json"])
        .arg(hist.join("rev00"))
        .output()
        .expect("run eval --sweep");
    assert_eq!(out.status.code(), Some(0));
    let v = &json_lines(&out.stdout)[0];
    let totals = v.get("totals").expect("totals");
    let recall = totals.get("recall").and_then(refminer_json::Value::as_f64);
    assert!(recall.unwrap() >= 0.9, "{v}");
    assert_eq!(
        totals
            .get("spurious")
            .and_then(refminer_json::Value::as_u64),
        Some(0),
        "{v}"
    );

    // A clone-group pattern naming no anti-pattern makes the manifest
    // malformed: a usage error, never a panic or a silent P1.
    let path = hist.join("rev00/manifest.json");
    let text = std::fs::read_to_string(&path).expect("read manifest");
    let mut manifest = refminer_json::Value::parse(&text).expect("manifest json");
    let refminer_json::Value::Obj(root) = &mut manifest else {
        panic!("manifest is not an object")
    };
    let (_, groups) = root
        .iter_mut()
        .find(|(k, _)| k == "clone_groups")
        .expect("clone_groups");
    let refminer_json::Value::Arr(groups) = groups else {
        panic!("clone_groups is not an array")
    };
    let refminer_json::Value::Obj(group) = &mut groups[0] else {
        panic!("clone group is not an object")
    };
    group
        .iter_mut()
        .find(|(k, _)| k == "pattern")
        .expect("pattern")
        .1 = refminer_json::Value::Num(0.0);
    std::fs::write(&path, manifest.to_string()).expect("write manifest");
    let out = refminer()
        .args(["eval", "--sweep", "--json"])
        .arg(hist.join("rev00"))
        .output()
        .expect("run eval --sweep");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("is not a valid manifest"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_finding_lines_carry_exactly_the_finding_fields() {
    let dir = write_demo_tree();
    let out = refminer().arg("--json").arg(&dir).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    let lines = json_lines(&out.stdout);
    assert_eq!(lines.len(), 2);
    for line in &lines {
        let refminer_json::Value::Obj(pairs) = line else {
            panic!("finding line is not an object: {line}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "pattern",
                "impact",
                "file",
                "function",
                "line",
                "api",
                "object",
                "message",
                "feasibility",
                "checkers"
            ]
        );
    }
    // The audit runs one engine; there is no engine to choose.
    let out = refminer()
        .args(["--engines", "template"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option `--engines`"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_at_matches_the_file_on_a_path_boundary() {
    // Both files have a finding at line 4; `b.c` names only the second,
    // although `drivers/net/ab.c` also ends in `b.c` and sorts first.
    let dir = scratch_dir("sweep_boundary");
    std::fs::create_dir_all(dir.join("drivers/net")).expect("mkdir");
    for (file, function) in [("ab.c", "ab_probe"), ("b.c", "b_probe")] {
        std::fs::write(
            dir.join("drivers/net").join(file),
            format!(
                r#"
int {function}(struct platform_device *pdev)
{{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        return 0;
}}
"#
            ),
        )
        .expect("write unit");
    }
    let out = refminer()
        .args(["sweep", "--at", "b.c:4", "--json"])
        .arg(&dir)
        .output()
        .expect("run sweep");
    let lines = json_lines(&out.stdout);
    let origin = lines
        .first()
        .and_then(|l| l.get("template"))
        .and_then(|t| t.get("origin"))
        .unwrap_or_else(|| panic!("no template: {}", String::from_utf8_lossy(&out.stderr)));
    assert_eq!(
        origin.get("file").and_then(refminer_json::Value::as_str),
        Some("drivers/net/b.c")
    );
    assert_eq!(
        origin
            .get("function")
            .and_then(refminer_json::Value::as_str),
        Some("b_probe")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `cmd` against a 10-s deadline, polling `try_wait` and killing
/// the child past it, so a run that never ends fails its test instead
/// of hanging the suite. Returns the exit code.
fn code_within_deadline(mut cmd: Command, what: &str) -> Option<i32> {
    use std::time::{Duration, Instant};
    let mut child = cmd
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn refminer");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("poll refminer") {
            return status.code();
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Two helpers that call each other with their arguments swapped send
/// the releases back and forth between the two parameters; the effect
/// fixpoint must still end, with and without discovery.
#[test]
fn helpers_calling_each_other_with_swapped_arguments_finish() {
    let dir = scratch_dir("swapped_recursion");
    std::fs::write(
        dir.join("swap.c"),
        r#"static void my_node_put(struct device_node *n)
{
        of_node_put(n);
}
static void g(struct device_node *a, struct device_node *b);
static void f(struct device_node *a, struct device_node *b)
{
        g(a, b);
        my_node_put(b);
}
static void g(struct device_node *a, struct device_node *b)
{
        f(b, a);
}
"#,
    )
    .expect("write unit");
    for args in [&["--jobs", "1", "--json"][..], &["--no-discovery"][..]] {
        let mut cmd = refminer();
        cmd.args(args).arg(&dir);
        let code = code_within_deadline(cmd, &format!("refminer {args:?}"));
        assert!(
            matches!(code, Some(0 | 1)),
            "refminer {args:?} exited {code:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes stdout before the CLI writes a byte: the output
/// ends quietly (no panic, nothing on stderr) and the run exits with the
/// status it has with an open stdout — 1, as both runs find something.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let (dir, hist) = clone_history("closed_stdout");
    let rev = hist.join("rev00");
    let commands: [&[&str]; 2] = [
        &["--json"],
        &["sweep", "--at", "drivers/clones/cg0_unit0.c:13", "--json"],
    ];
    for args in commands {
        let open = refminer().args(args).arg(&rev).output().expect("run");
        assert_eq!(open.status.code(), Some(1), "{args:?} finds something");
        assert!(!open.stdout.is_empty());
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let closed = refminer()
            .args(args)
            .arg(&rev)
            .stdout(writer)
            .output()
            .expect("run with a closed stdout");
        assert_eq!(
            closed.status.code(),
            open.status.code(),
            "{args:?} with a closed stdout"
        );
        assert_eq!(
            String::from_utf8_lossy(&closed.stderr),
            "",
            "{args:?} printed on stderr"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
