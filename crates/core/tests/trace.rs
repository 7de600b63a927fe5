//! End-to-end tests of `refminer --trace`: the span log must parse as
//! JSON lines, cover every pipeline stage, stay consistent with its
//! meta line, and — above all — never change the findings.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use refminer_json::Value;

fn refminer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_refminer"))
}

fn write_corpus_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_trace_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tree = refminer::corpus::generate_tree(&refminer::corpus::TreeConfig {
        scale: 0.05,
        include_tricky: false,
        fp_traps: true,
        ..Default::default()
    });
    tree.write_to(&dir).expect("write tree");
    dir
}

/// Runs an audit with `--trace` and any `extra` arguments, returning
/// (the process output, parsed log lines).
fn traced_run(
    dir: &Path,
    trace_path: &Path,
    cache_dir: Option<&Path>,
    extra: &[&str],
) -> (Output, Vec<Value>) {
    let mut cmd = refminer();
    cmd.arg("--json").arg("--trace").arg(trace_path).args(extra);
    if let Some(cache) = cache_dir {
        cmd.arg("--cache-dir").arg(cache);
    }
    let out = cmd.arg(dir).output().expect("run");
    let text = std::fs::read_to_string(trace_path).expect("trace file written");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e:?}")))
        .collect();
    (out, lines)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing {key}: {v}"))
}

/// One span line: stage, unit path (empty for stage spans), start and
/// duration in microseconds.
type SpanLine<'a> = (&'a str, &'a str, u64, u64);

fn spans_of(lines: &[Value]) -> Vec<SpanLine<'_>> {
    lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("span"))
        .map(|v| {
            (
                field(v, "stage").as_str().unwrap(),
                v.get("unit").and_then(Value::as_str).unwrap_or(""),
                field(v, "start_us").as_u64().unwrap(),
                field(v, "dur_us").as_u64().unwrap(),
            )
        })
        .collect()
}

fn counter(lines: &[Value], name: &str) -> u64 {
    lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("counter"))
        .find(|v| field(v, "name").as_str() == Some(name))
        .and_then(|v| field(v, "value").as_u64())
        .unwrap_or(0)
}

/// Each unit's one `stage` span, by unit path.
fn unit_spans<'a>(spans: &[SpanLine<'a>], stage: &str) -> BTreeMap<&'a str, (u64, u64)> {
    let mut by_unit = BTreeMap::new();
    for &(s, unit, start, dur) in spans {
        if s == stage {
            assert!(
                by_unit.insert(unit, (start, dur)).is_none(),
                "two {stage} spans for {unit}"
            );
        }
    }
    by_unit
}

/// Whether `inner` lies inside `outer`. Both ends are truncated to
/// whole microseconds, so `inner` may end at most 1µs past `outer`.
fn within(inner: (u64, u64), outer: (u64, u64)) -> bool {
    inner.0 >= outer.0 && inner.0 + inner.1 <= outer.0 + outer.1 + 1
}

#[test]
fn trace_log_parses_and_covers_all_pipeline_stages() {
    let dir = write_corpus_tree("stages");
    let trace_path = dir.join("trace.jsonl");
    let cache_dir = dir.join(".refminer-cache");
    let (out, lines) = traced_run(&dir, &trace_path, Some(&cache_dir), &[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a traced audit of a tree with findings exits 1\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Line 0 is the meta record and its counts match the body.
    let meta = &lines[0];
    assert_eq!(field(meta, "type").as_str(), Some("meta"));
    let span_lines: Vec<&Value> = lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("span"))
        .collect();
    let counter_lines: Vec<&Value> = lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("counter"))
        .collect();
    assert_eq!(
        span_lines.len() + counter_lines.len(),
        lines.len() - 1,
        "every body line is a span or a counter"
    );
    assert_eq!(field(meta, "spans").as_u64(), Some(span_lines.len() as u64));
    assert_eq!(
        field(meta, "counters").as_u64(),
        Some(counter_lines.len() as u64)
    );

    // Every pipeline stage shows up: the CLI-level spans, the audit's
    // sequential top-level stages, and the per-unit fan-out spans.
    let stages: BTreeSet<&str> = span_lines
        .iter()
        .filter_map(|v| field(v, "stage").as_str())
        .collect();
    for required in [
        "scan",
        "cache.load",
        "hash",
        "parse",
        "parse.unit",
        "export.unit",
        "merge.kb",
        "merge.progdb",
        "check",
        "check.unit",
        "graph",
        "feasibility",
        "report",
        "cache.save",
        "free",
    ] {
        assert!(
            stages.contains(required),
            "missing stage {required}: {stages:?}"
        );
    }

    // A cold cached run records misses for every unit, and the limit /
    // unit counters carry the taxonomy.
    let counters: BTreeMap<&str, u64> = counter_lines
        .iter()
        .filter_map(|v| Some((field(v, "name").as_str()?, field(v, "value").as_u64()?)))
        .collect();
    let units = counters.get("units.total").copied().unwrap_or(0);
    assert!(units > 0, "units.total counter present: {counters:?}");
    assert_eq!(counters.get("cache.parse.miss").copied(), Some(units));
    assert!(
        counters.keys().any(|k| k.starts_with("checker.")),
        "per-checker timers present: {counters:?}"
    );

    // Per-unit spans exist for every unit.
    for stage in ["parse.unit", "export.unit"] {
        let count = span_lines
            .iter()
            .filter(|v| field(v, "stage").as_str() == Some(stage))
            .count() as u64;
        assert_eq!(count, units, "one {stage} span per unit");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_level_stage_times_fit_within_the_total() {
    let dir = write_corpus_tree("times");
    let trace_path = dir.join("trace.jsonl");
    // More workers than most hosts have cores: the request must be
    // clamped, never taken literally.
    let (_, lines) = traced_run(&dir, &trace_path, None, &["--jobs", "8"]);
    let spans: Vec<(&str, u64, u64)> = lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("span"))
        .map(|v| {
            (
                field(v, "stage").as_str().unwrap(),
                field(v, "start_us").as_u64().unwrap(),
                field(v, "dur_us").as_u64().unwrap(),
            )
        })
        .collect();
    // The top-level stages run sequentially, so their durations sum to
    // no more than the log's wall-clock extent.
    let top_level = [
        "scan",
        "hash",
        "parse",
        "merge.kb",
        "merge.progdb",
        "check",
        "report",
    ];
    let stage_sum: u64 = spans
        .iter()
        .filter(|(stage, _, _)| top_level.contains(stage))
        .map(|(_, _, dur)| dur)
        .sum();
    let start = spans.iter().map(|(_, s, _)| *s).min().unwrap();
    let end = spans.iter().map(|(_, s, d)| s + d).max().unwrap();
    assert!(
        stage_sum <= end - start,
        "sequential stages ({stage_sum}µs) exceed the wall clock ({}µs)",
        end - start
    );
    // And they are not trivially empty: the audit spends measurable
    // time in at least the parse and check stages.
    for must_run in ["parse", "check"] {
        assert!(
            spans.iter().any(|(s, _, d)| s == &must_run && *d > 0),
            "stage {must_run} recorded no time"
        );
    }

    // Every per-unit span lies inside its stage's span, so the stage
    // totals `--stats` prints book each unit's work where it ran. Both
    // ends are truncated to whole microseconds, so a unit span may end
    // at most 1µs past its stage.
    for stage in ["parse", "check"] {
        let &(_, s_start, s_dur) = spans
            .iter()
            .find(|(s, _, _)| *s == stage)
            .unwrap_or_else(|| panic!("no {stage} span"));
        let unit_stage = format!("{stage}.unit");
        let units: Vec<(u64, u64)> = spans
            .iter()
            .filter(|(s, _, _)| *s == unit_stage)
            .map(|&(_, start, dur)| (start, dur))
            .collect();
        assert!(!units.is_empty(), "no {unit_stage} spans");
        let outside = units
            .iter()
            .filter(|&&(start, dur)| start < s_start || start + dur > s_start + s_dur + 1)
            .count();
        assert_eq!(
            outside,
            0,
            "{outside} of {} {unit_stage} spans fall outside the {stage} span",
            units.len()
        );
    }

    // Each unit's export step lies inside its own parse.unit span, so
    // `--stats` shows how much of phase 1 the exports take.
    let all = spans_of(&lines);
    let parse_units = unit_spans(&all, "parse.unit");
    let exports = unit_spans(&all, "export.unit");
    assert_eq!(exports.len(), parse_units.len(), "one export.unit per unit");
    for (unit, span) in &exports {
        let parse = parse_units[unit];
        assert!(
            within(*span, parse),
            "export.unit {span:?} of {unit} lies outside its parse.unit {parse:?}"
        );
    }

    // The worker count is clamped to the host: no more units are ever
    // in flight at once than there are hardware threads.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let peak = field(&lines[0], "peak_in_flight").as_u64().unwrap();
    assert!(
        peak <= cores,
        "{peak} units in flight at once on {cores} hardware threads"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracing_never_changes_findings() {
    let dir = write_corpus_tree("bytes");
    let trace_path = dir.join("trace.jsonl");

    let plain = refminer().arg("--json").arg(&dir).output().expect("run");
    let (traced, _) = traced_run(&dir, &trace_path, None, &[]);
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace changed the findings bytes"
    );

    // Same under parallelism and a warm cache: the trace observes the
    // run, it never steers it.
    let cache_dir = dir.join(".refminer-cache");
    let (cold, _) = traced_run(&dir, &trace_path, Some(&cache_dir), &[]);
    let (warm, warm_lines) = traced_run(&dir, &trace_path, Some(&cache_dir), &[]);
    assert_eq!(
        plain.stdout, cold.stdout,
        "cold cached trace changed the bytes"
    );
    assert_eq!(
        plain.stdout, warm.stdout,
        "warm cached trace changed the bytes"
    );

    // The warm run's counters flip from misses to hits — proof the
    // trace reflects the work actually performed.
    let hits = warm_lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("counter"))
        .find(|v| field(v, "name").as_str() == Some("cache.check.hit"))
        .and_then(|v| field(v, "value").as_u64())
        .unwrap_or(0);
    assert!(hits > 0, "warm run records cache hits");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_full_graph_build_per_checked_unit() {
    // Phase 1 exports from CFGs and node facts alone; the one full
    // graph build — the one with a feasibility fixpoint — is the check
    // stage's. So a cold audit records exactly one `graph` span per
    // checked unit, inside its check.unit span and never inside its
    // parse.unit span, with the unit's `feasibility` span inside it, and
    // a warm one records neither.
    let dir = write_corpus_tree("builds");
    let trace_path = dir.join("trace.jsonl");
    let cache_dir = dir.join(".refminer-cache");
    let (cold, lines) = traced_run(&dir, &trace_path, Some(&cache_dir), &["--stats"]);
    let spans = spans_of(&lines);
    let checked = counter(&lines, "cache.check.miss");
    assert!(checked > 0, "the cold audit checked no unit");
    let builds = unit_spans(&spans, "feasibility");
    assert_eq!(
        builds.len() as u64,
        checked,
        "feasibility spans per checked unit"
    );
    let graphs = unit_spans(&spans, "graph");
    assert_eq!(graphs.len() as u64, checked, "graph spans per checked unit");
    let parse_units = unit_spans(&spans, "parse.unit");
    let check_units = unit_spans(&spans, "check.unit");
    for (unit, span) in &graphs {
        assert!(
            !within(*span, parse_units[unit]),
            "a graph of {unit} was built in phase 1"
        );
        assert!(
            within(*span, check_units[unit]),
            "the graphs of {unit} were built outside its check"
        );
        assert!(
            within(builds[unit], *span),
            "the feasibility fixpoints of {unit} ran outside its graph build"
        );
    }
    // `--stats` splits phase 1: the export step gets its own row.
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(
        stderr
            .lines()
            .any(|l| l.trim_start().starts_with("export.unit ")),
        "--stats does not list export.unit:\n{stderr}"
    );

    let (_, warm) = traced_run(&dir, &trace_path, Some(&cache_dir), &[]);
    assert_eq!(counter(&warm, "cache.check.miss"), 0);
    let rebuilt = spans_of(&warm)
        .iter()
        .filter(|(stage, ..)| ["graph", "feasibility", "export.unit"].contains(stage))
        .count();
    assert_eq!(rebuilt, 0, "the warm re-audit rebuilt graphs or exports");
    std::fs::remove_dir_all(&dir).ok();
}
