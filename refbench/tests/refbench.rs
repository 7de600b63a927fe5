//! Drives every workload through the library at a tiny size, and checks
//! the output format, input determinism, the correctness checks and
//! `compare`.

use refbench::check::{f1_at_least, finding_lines, fix_verdict, metric_set, same_lines};
use refbench::compare::compare;
use refbench::report::{json_line, parse_results, render};
use refbench::{input_digest, run, MetricSpec, Params, Size, Workload, END_TO_END, PER_LAYER};
use refminer::corpus::{generate_fix_history, generate_tree, TreeConfig};
use refminer::{audit, diff_projects, AuditCache, AuditConfig, DiffOptions, Finding, Project};
use refminer_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_declared(json: &Value, key: &str, specs: &[MetricSpec]) {
    let declared = json.get(key).and_then(Value::as_array).expect(key);
    assert_eq!(declared.len(), specs.len(), "{key} count");
    for (d, s) in declared.iter().zip(specs) {
        assert_eq!(d.get("name").and_then(Value::as_str), Some(s.name));
        assert_eq!(
            d.get("unit").and_then(Value::as_str),
            Some(s.unit),
            "{}",
            s.name
        );
        assert_eq!(
            d.get("better").and_then(Value::as_str),
            Some(s.better.name()),
            "{}",
            s.name
        );
        assert_eq!(
            d.get("bound").and_then(Value::as_f64),
            s.bound,
            "{}",
            s.name
        );
        assert!(
            valid_name(s.name),
            "{} has characters outside [A-Za-z0-9_.-]",
            s.name
        );
    }
}

#[test]
fn declared_metrics_and_workloads_match_benchmark_json() {
    let json = benchmark_json();
    assert_declared(&json, "end_to_end", &END_TO_END);
    assert_declared(&json, "per_layer", &PER_LAYER);
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(Workload::name).collect();
    assert_eq!(workloads, ours);
}

/// Runs `workload` at the tiny size and checks the printed output.
fn run_tiny(workload: Workload, trace: bool) {
    let p = Params {
        workload,
        seed: 3,
        seconds: 0.3,
        trace,
        size: Size::tiny(),
    };
    let outcome = run(&p).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
    assert!(outcome.attempted >= 1);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));

    let text = render(&p, &outcome);
    let printed: Vec<String> = parse_results(&text)
        .expect("output reads back")
        .into_iter()
        .map(|l| {
            assert_eq!(l.workload, workload.name());
            assert!(valid_name(&l.name));
            l.name
        })
        .collect();
    let declared: Vec<&str> = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|m| m.name)
    .collect();
    let mut sorted_printed = printed.clone();
    sorted_printed.sort();
    let mut sorted_declared = declared.clone();
    sorted_declared.sort();
    assert_eq!(sorted_printed, sorted_declared);

    let last = text.lines().last().expect("output has lines");
    let json = Value::parse(last).expect("the last line is JSON");
    assert_eq!(json.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(
        json.get("attempted").and_then(Value::as_u64),
        Some(outcome.attempted)
    );
    let metrics = json
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        printed.iter().map(String::as_str).collect::<Vec<_>>()
    );
    assert_eq!(last, json_line(&outcome));
}

#[test]
fn cold_audit_reports_declared_metrics() {
    run_tiny(Workload::ColdAudit, false);
    run_tiny(Workload::ColdAudit, true);
}

#[test]
fn revision_replay_reports_declared_metrics() {
    run_tiny(Workload::RevisionReplay, false);
    run_tiny(Workload::RevisionReplay, true);
}

#[test]
fn same_seed_same_inputs() {
    let size = Size::tiny();
    for w in Workload::ALL {
        assert_eq!(
            input_digest(w, 7, &size),
            input_digest(w, 7, &size),
            "{}",
            w.name()
        );
        assert_ne!(
            input_digest(w, 7, &size),
            input_digest(w, 8, &size),
            "{}",
            w.name()
        );
    }
}

#[test]
fn checks_reject_planted_wrong_answers() {
    let tree = generate_tree(&TreeConfig {
        scale: 0.05,
        ..TreeConfig::default()
    });
    let report = audit(&Project::from_tree(&tree), &AuditConfig::default());
    let lines = finding_lines(&report.findings);
    same_lines("untouched", &lines, &lines).expect("identical findings pass");

    // A moved finding, a dropped finding and a planted one all fail.
    let mut moved = report.findings.clone();
    moved[0].line += 1;
    assert!(same_lines("moved", &lines, &finding_lines(&moved)).is_err());
    assert!(same_lines("dropped", &lines, &lines[1..]).is_err());
    let mut planted = lines.clone();
    planted.push(lines[0].clone());
    assert!(same_lines("planted", &lines, &planted).is_err());

    // Losing most findings sinks F1 below the floor.
    f1_at_least("full", &report.findings, &tree.manifest, 0.9).expect("full findings pass");
    let few: Vec<Finding> = report.findings.iter().step_by(4).cloned().collect();
    assert!(f1_at_least("few", &few, &tree.manifest, 0.9).is_err());

    // A fix commit must name its unfixed siblings as left behind.
    let revs = generate_fix_history(&TreeConfig {
        scale: 0.05,
        bugs_per_file: 1,
        include_tricky: false,
        clone_groups: 1,
        ..TreeConfig::default()
    });
    let d = diff_projects(
        &Project::from_tree(&revs[0].tree),
        &Project::from_tree(&revs[1].tree),
        &AuditConfig::default(),
        &mut AuditCache::new(),
        &DiffOptions::default(),
    );
    let (group, path, function) = &revs[1].fixed[0];
    let group = revs[1]
        .tree
        .manifest
        .clone_groups
        .iter()
        .find(|g| &g.group == group)
        .expect("fixed group");
    let member = Some((group, path.as_str(), function.as_str()));
    let left: Vec<&Finding> = d
        .delta
        .left_behind
        .iter()
        .flat_map(|l| l.matches.iter().map(|m| &m.finding))
        .collect();
    fix_verdict("rev1", member, &d.delta.fixed, &left).expect("true verdict passes");
    let sibling = group
        .members
        .iter()
        .find(|m| !m.fixed)
        .expect("an unfixed sibling");
    let missing: Vec<&Finding> = left
        .iter()
        .copied()
        .filter(|f| f.file != sibling.path)
        .collect();
    assert!(fix_verdict("rev1", member, &d.delta.fixed, &missing).is_err());
    assert!(fix_verdict("rev1", member, &[], &left).is_err());
    assert!(fix_verdict("neutral", None, &d.delta.fixed, &[]).is_err());

    // A run that reports a metric twice, or misses one, is refused.
    let outcome = run(&Params {
        workload: Workload::RevisionReplay,
        seed: 3,
        seconds: 0.1,
        trace: false,
        size: Size::tiny(),
    })
    .expect("tiny replay runs");
    metric_set(&outcome.metrics, &END_TO_END).expect("declared set passes");
    assert!(metric_set(&outcome.metrics[1..], &END_TO_END).is_err());
    let mut doubled = outcome.metrics.clone();
    doubled.push(outcome.metrics[0].clone());
    assert!(metric_set(&doubled, &END_TO_END).is_err());
}

#[test]
fn compare_flags_metrics_out_of_bounds() {
    let base = "# set A\n\
                cold-audit op_p10_ms 1000 ms n=15 q1=980 q3=1020\n\
                cold-audit f1 0.99 ratio\n\
                cold-audit clex.busy_s 0.3 s\n";
    let a = parse_results(base).expect("A parses");
    let close = parse_results(&base.replace("op_p10_ms 1000", "op_p10_ms 1050")).expect("B");
    assert!(compare(&a, &close).iter().all(|r| !r.out_of_bounds()));

    let slow = parse_results(&base.replace("op_p10_ms 1000", "op_p10_ms 1300")).expect("B");
    let rows = compare(&a, &slow);
    let row = rows.iter().find(|r| r.name == "op_p10_ms").expect("row");
    assert!(row.out_of_bounds());
    assert!((row.worse.expect("both sides") - 0.3).abs() < 1e-9);
    assert!((row.spread.0.expect("quartiles printed") - 0.04).abs() < 1e-9);

    // Higher-is-better metrics worsen downwards; per-layer metrics never
    // fail; a missing bounded metric does.
    let worse_f1 = parse_results(&base.replace("f1 0.99", "f1 0.9")).expect("B");
    assert!(compare(&a, &worse_f1).iter().any(|r| r.out_of_bounds()));
    let slow_layer = parse_results(&base.replace("busy_s 0.3", "busy_s 9")).expect("B");
    assert!(compare(&a, &slow_layer).iter().all(|r| !r.out_of_bounds()));
    let missing = parse_results("cold-audit f1 0.99 ratio\n").expect("B");
    assert!(compare(&a, &missing).iter().any(|r| r.out_of_bounds()));

    // A metric that is zero on both sides did not change.
    let zero = parse_results("cold-audit core.cache.parse_hit_ratio 0 ratio\n").expect("zero");
    assert_eq!(compare(&zero, &zero)[0].worse, Some(0.0));
}
