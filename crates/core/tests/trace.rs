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
        "merge.kb",
        "merge.progdb",
        "check",
        "check.unit",
        "feasibility",
        "report",
        "cache.save",
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
    let parse_units = span_lines
        .iter()
        .filter(|v| field(v, "stage").as_str() == Some("parse.unit"))
        .count() as u64;
    assert_eq!(parse_units, units, "one parse.unit span per unit");

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
