//! Structured tracing for the audit pipeline.
//!
//! A [`TraceHandle`] is a cheap, cloneable reference to a shared
//! recorder (or to nothing at all — the disabled handle is a single
//! `None` and every operation on it is a no-op, so the pipeline can
//! thread one through unconditionally). The recorder collects:
//!
//! - **Spans** — named wall-time intervals, optionally tagged with the
//!   unit (file) they cover. Top-level pipeline stages (`scan`,
//!   `hash`, `parse`, `merge.kb`, `merge.progdb`, `check`,
//!   `cache.load`, `cache.save`, `report`, and the CLI's `free` of the
//!   audit cache) run sequentially, so their durations sum to ~the
//!   total wall time; per-unit spans (`parse.unit`, `check.unit`,
//!   `feasibility`, …) nest inside them and overlap freely across
//!   worker threads.
//! - **Counters** — named monotonic totals (`cache.parse.hit`,
//!   `limit.token_cap`, `checker.errorpath.us`, `check.workers`, …).
//! - **Peak in-flight** — the high-water mark of concurrently open
//!   *unit* spans, i.e. how many units the shared-cursor scheduler
//!   actually had in flight at once.
//!
//! Determinism: recording is observation only. Nothing read from the
//! recorder ever feeds back into analysis results or cache keys, so
//! findings are byte-identical with tracing on or off. The serialized
//! span log ([`TraceLog::to_jsonl`]) has deterministic *field* order
//! (refminer-json preserves insertion order) and sorts spans by start
//! time with stable tie-breaks; the timing values themselves naturally
//! vary run to run.
//!
//! No external dependencies, matching the workspace's offline-shim
//! policy: timekeeping is `std::time::Instant`, sharing is
//! `Arc<Mutex<…>>`. Recording cost is one lock per span end — spans
//! cover whole files or stages, so contention is noise.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use refminer_json::{obj, ToJson, Value};

/// Number of log2 duration buckets in a stage histogram. Bucket `i`
/// counts spans with `dur_us` in `[2^i, 2^(i+1))` (bucket 0 holds `0`
/// and `1` µs); the last bucket absorbs everything longer (≥ ~34 s).
pub const HISTOGRAM_BUCKETS: usize = 26;

/// One recorded span: a named interval, microseconds relative to the
/// recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Stage name, e.g. `"parse"` or `"check.unit"`.
    pub stage: String,
    /// The unit (file path) the span covers, for per-unit spans.
    pub unit: Option<String>,
    /// Start offset from the recorder epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// The shared recorder behind enabled handles.
#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    counters: Mutex<BTreeMap<String, u64>>,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
        }
    }

    fn push_span(&self, stage: &str, unit: Option<&str>, start: Instant, end: Instant) {
        let rec = SpanRec {
            stage: stage.to_string(),
            unit: unit.map(str::to_string),
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
        };
        self.spans.lock().unwrap().push(rec);
    }

    fn enter_unit(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_in_flight.fetch_max(now, Ordering::SeqCst);
    }

    fn leave_unit(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A cloneable handle to a trace recorder; the disabled handle makes
/// every operation free, so pipeline code threads one unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Recorder>>,
}

impl TraceHandle {
    /// A handle that records into a fresh shared recorder.
    pub fn recording() -> TraceHandle {
        TraceHandle {
            inner: Some(Arc::new(Recorder::new())),
        }
    }

    /// The no-op handle (same as `TraceHandle::default()`).
    pub fn disabled() -> TraceHandle {
        TraceHandle::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a stage span; it records when dropped (or via
    /// [`Span::done`]).
    pub fn span(&self, stage: &str) -> Span {
        Span::open(self.inner.clone(), stage, None, false)
    }

    /// Opens a per-unit span. Unit spans additionally maintain the
    /// in-flight high-water mark.
    pub fn unit_span(&self, stage: &str, unit: &str) -> Span {
        Span::open(self.inner.clone(), stage, Some(unit), true)
    }

    /// Records a span measured externally: `start` was taken with
    /// `Instant::now()` by the caller, `dur` is the accumulated time.
    /// Used where the measured work is interleaved with other work
    /// (e.g. feasibility fixpoints inside graph construction).
    pub fn record_span(&self, stage: &str, unit: Option<&str>, start: Instant, dur: Duration) {
        if let Some(rec) = &self.inner {
            rec.push_span(stage, unit, start, start + dur);
        }
    }

    /// Adds `n` to a named counter.
    pub fn add(&self, counter: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(rec) = &self.inner {
            *rec.counters
                .lock()
                .unwrap()
                .entry(counter.to_string())
                .or_insert(0) += n;
        }
    }

    /// Raises a named counter to at least `n` — a high-water mark
    /// rather than a running total. Used for gauges sampled over time,
    /// e.g. the audit daemon's request-queue depth.
    pub fn add_max(&self, counter: &str, n: u64) {
        if let Some(rec) = &self.inner {
            let mut counters = rec.counters.lock().unwrap();
            let entry = counters.entry(counter.to_string()).or_insert(0);
            if n > *entry {
                *entry = n;
            }
        }
    }

    /// Snapshots everything recorded so far. Returns `None` on a
    /// disabled handle.
    pub fn finish(&self) -> Option<TraceLog> {
        let rec = self.inner.as_ref()?;
        let mut spans = rec.spans.lock().unwrap().clone();
        spans.sort_by(|a, b| {
            (a.start_us, a.dur_us, &a.stage, &a.unit)
                .cmp(&(b.start_us, b.dur_us, &b.stage, &b.unit))
        });
        Some(TraceLog {
            spans,
            counters: rec.counters.lock().unwrap().clone(),
            peak_in_flight: rec.peak_in_flight.load(Ordering::SeqCst),
        })
    }
}

/// An open span; records its interval into the recorder on drop.
#[derive(Debug)]
pub struct Span {
    rec: Option<Arc<Recorder>>,
    stage: String,
    unit: Option<String>,
    start: Instant,
    is_unit: bool,
}

impl Span {
    fn open(rec: Option<Arc<Recorder>>, stage: &str, unit: Option<&str>, is_unit: bool) -> Span {
        if let (Some(r), true) = (&rec, is_unit) {
            r.enter_unit();
        }
        Span {
            rec,
            stage: stage.to_string(),
            unit: unit.map(str::to_string),
            start: Instant::now(),
            is_unit,
        }
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = &self.rec {
            rec.push_span(
                &self.stage,
                self.unit.as_deref(),
                self.start,
                Instant::now(),
            );
            if self.is_unit {
                rec.leave_unit();
            }
        }
    }
}

/// Everything one run recorded: spans, counters and the in-flight
/// high-water mark.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All spans, sorted by `(start_us, dur_us, stage, unit)`.
    pub spans: Vec<SpanRec>,
    /// All counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water mark of concurrently open unit spans.
    pub peak_in_flight: u64,
}

impl TraceLog {
    /// Serializes the log as JSON lines: one `meta` line, then one line
    /// per span, then one line per counter. Field order is fixed
    /// (refminer-json preserves insertion order); spans are sorted by
    /// start time with stable tie-breaks, counters by name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &obj([
                ("type", "meta".into()),
                ("version", 1u64.to_json()),
                ("spans", self.spans.len().to_json()),
                ("counters", self.counters.len().to_json()),
                ("peak_in_flight", self.peak_in_flight.to_json()),
            ])
            .to_string(),
        );
        out.push('\n');
        for s in &self.spans {
            let mut members = vec![
                ("type".to_string(), Value::from("span")),
                ("stage".to_string(), s.stage.to_json()),
            ];
            if let Some(u) = &s.unit {
                members.push(("unit".to_string(), u.to_json()));
            }
            members.push(("start_us".to_string(), s.start_us.to_json()));
            members.push(("dur_us".to_string(), s.dur_us.to_json()));
            out.push_str(&Value::Obj(members).to_string());
            out.push('\n');
        }
        for (name, value) in &self.counters {
            out.push_str(
                &obj([
                    ("type", "counter".into()),
                    ("name", name.to_json()),
                    ("value", value.to_json()),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        out
    }

    /// Aggregates the log into per-stage statistics and a top-N slowest
    /// unit list.
    pub fn summary(&self, top_n: usize) -> TraceSummary {
        let mut stages: BTreeMap<&str, StageStat> = BTreeMap::new();
        for s in &self.spans {
            let stat = stages.entry(&s.stage).or_insert_with(|| StageStat {
                stage: s.stage.clone(),
                count: 0,
                total_us: 0,
                min_us: u64::MAX,
                max_us: 0,
                buckets: vec![0; HISTOGRAM_BUCKETS],
            });
            stat.count += 1;
            stat.total_us += s.dur_us;
            stat.min_us = stat.min_us.min(s.dur_us);
            stat.max_us = stat.max_us.max(s.dur_us);
            stat.buckets[bucket_of(s.dur_us)] += 1;
        }
        let mut slowest: Vec<SlowUnit> = self
            .spans
            .iter()
            .filter_map(|s| {
                s.unit.as_ref().map(|u| SlowUnit {
                    stage: s.stage.clone(),
                    unit: u.clone(),
                    dur_us: s.dur_us,
                })
            })
            .collect();
        slowest.sort_by(|a, b| {
            b.dur_us
                .cmp(&a.dur_us)
                .then_with(|| (&a.unit, &a.stage).cmp(&(&b.unit, &b.stage)))
        });
        slowest.truncate(top_n);
        let total_us = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0)
            .saturating_sub(self.spans.iter().map(|s| s.start_us).min().unwrap_or(0));
        TraceSummary {
            total_us,
            stages: stages.into_values().collect(),
            slowest,
            counters: self.counters.clone(),
            peak_in_flight: self.peak_in_flight,
        }
    }
}

/// The log2 histogram bucket a duration falls into.
fn bucket_of(dur_us: u64) -> usize {
    ((64 - dur_us.leading_zeros() as usize).saturating_sub(1)).min(HISTOGRAM_BUCKETS - 1)
}

/// Aggregated wall-time statistics for one stage name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Stage name.
    pub stage: String,
    /// Number of spans.
    pub count: u64,
    /// Total microseconds across spans.
    pub total_us: u64,
    /// Shortest span (`u64::MAX` is impossible — count ≥ 1 by
    /// construction).
    pub min_us: u64,
    /// Longest span.
    pub max_us: u64,
    /// Log2 duration histogram; see [`HISTOGRAM_BUCKETS`].
    pub buckets: Vec<u64>,
}

impl ToJson for StageStat {
    fn to_json(&self) -> Value {
        // Trailing empty buckets are elided to keep reports small; the
        // bucket index is still the log2 of the duration.
        let used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        obj([
            ("stage", self.stage.to_json()),
            ("count", self.count.to_json()),
            ("total_us", self.total_us.to_json()),
            ("min_us", self.min_us.to_json()),
            ("max_us", self.max_us.to_json()),
            ("buckets", self.buckets[..used].to_json()),
        ])
    }
}

/// One entry in the slowest-units table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowUnit {
    /// The stage the span belonged to.
    pub stage: String,
    /// The unit path.
    pub unit: String,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// A digest of one run's trace, for `--stats`.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Wall-clock extent of the whole log in microseconds (last span
    /// end minus first span start).
    pub total_us: u64,
    /// Per-stage statistics, sorted by stage name.
    pub stages: Vec<StageStat>,
    /// The slowest per-unit spans, longest first.
    pub slowest: Vec<SlowUnit>,
    /// All counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water mark of concurrently open unit spans.
    pub peak_in_flight: u64,
}

impl TraceSummary {
    /// Renders the human-readable `--stats` block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {:.3}s total, peak {} unit(s) in flight\n",
            self.total_us as f64 / 1e6,
            self.peak_in_flight
        ));
        out.push_str("  stage                      count      total      max\n");
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<24} {:>7} {:>9.3}s {:>7.3}s\n",
                s.stage,
                s.count,
                s.total_us as f64 / 1e6,
                s.max_us as f64 / 1e6,
            ));
        }
        if !self.slowest.is_empty() {
            out.push_str("  slowest units:\n");
            for s in &self.slowest {
                out.push_str(&format!(
                    "    {:>9.3}s  {} ({})\n",
                    s.dur_us as f64 / 1e6,
                    s.unit,
                    s.stage
                ));
            }
        }
        let timers: Vec<(&String, &u64)> = self
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("checker."))
            .collect();
        if !timers.is_empty() {
            out.push_str("  per-checker time:\n");
            for (k, v) in timers {
                let name = k.trim_start_matches("checker.").trim_end_matches(".us");
                out.push_str(&format!("    {:<22} {:>9.3}s\n", name, *v as f64 / 1e6));
            }
        }
        let rest: Vec<(&String, &u64)> = self
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with("checker."))
            .collect();
        if !rest.is_empty() {
            out.push_str("  counters:\n");
            for (k, v) in rest {
                out.push_str(&format!("    {k:<28} {v}\n"));
            }
        }
        out
    }
}

impl ToJson for TraceSummary {
    fn to_json(&self) -> Value {
        obj([
            ("total_us", self.total_us.to_json()),
            ("peak_in_flight", self.peak_in_flight.to_json()),
            ("stages", self.stages.to_json()),
            (
                "slowest",
                Value::Arr(
                    self.slowest
                        .iter()
                        .map(|s| {
                            obj([
                                ("unit", s.unit.to_json()),
                                ("stage", s.stage.to_json()),
                                ("dur_us", s.dur_us.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TraceHandle::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("parse");
            let _u = t.unit_span("parse.unit", "a.c");
            t.add("cache.parse.hit", 3);
        }
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_and_counters_record() {
        let t = TraceHandle::recording();
        {
            let _audit = t.span("audit");
            let _u = t.unit_span("parse.unit", "a.c");
            t.add("cache.parse.hit", 2);
            t.add("cache.parse.hit", 1);
            t.add("zeroes", 0);
        }
        let log = t.finish().unwrap();
        assert_eq!(log.spans.len(), 2);
        assert!(log.spans.iter().any(|s| s.stage == "audit"));
        assert!(log
            .spans
            .iter()
            .any(|s| s.stage == "parse.unit" && s.unit.as_deref() == Some("a.c")));
        assert_eq!(log.counters.get("cache.parse.hit"), Some(&3));
        // Zero adds do not materialize a counter.
        assert!(!log.counters.contains_key("zeroes"));
        assert_eq!(log.peak_in_flight, 1);
    }

    #[test]
    fn add_max_keeps_high_water() {
        let t = TraceHandle::recording();
        t.add_max("queue.depth.peak", 3);
        t.add_max("queue.depth.peak", 1);
        t.add_max("queue.depth.peak", 7);
        t.add_max("queue.depth.peak", 5);
        let log = t.finish().unwrap();
        assert_eq!(log.counters.get("queue.depth.peak"), Some(&7));
        // Inert on a disabled handle, like every other operation.
        TraceHandle::disabled().add_max("x", 9);
    }

    #[test]
    fn peak_in_flight_tracks_concurrency() {
        let t = TraceHandle::recording();
        let a = t.unit_span("check.unit", "a.c");
        let b = t.unit_span("check.unit", "b.c");
        drop(a);
        let c = t.unit_span("check.unit", "c.c");
        drop(b);
        drop(c);
        assert_eq!(t.finish().unwrap().peak_in_flight, 2);
    }

    #[test]
    fn handle_is_shared_across_clones_and_threads() {
        let t = TraceHandle::recording();
        let clones: Vec<TraceHandle> = (0..4).map(|_| t.clone()).collect();
        std::thread::scope(|s| {
            for (i, c) in clones.iter().enumerate() {
                s.spawn(move || {
                    let _u = c.unit_span("parse.unit", &format!("f{i}.c"));
                    c.add("units", 1);
                });
            }
        });
        let log = t.finish().unwrap();
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.counters.get("units"), Some(&4));
        assert!(log.peak_in_flight >= 1);
    }

    #[test]
    fn jsonl_round_trips_and_orders_fields() {
        let t = TraceHandle::recording();
        {
            let _s = t.span("audit");
            let _u = t.unit_span("check.unit", "x.c");
            t.add("limit.token_cap", 1);
        }
        let text = t.finish().unwrap().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // meta + 2 spans + 1 counter
        let meta = Value::parse(lines[0]).unwrap();
        assert_eq!(meta.get("type").and_then(Value::as_str), Some("meta"));
        assert_eq!(meta.get("spans").and_then(Value::as_u64), Some(2));
        for line in &lines[1..] {
            let v = Value::parse(line).unwrap();
            let ty = v.get("type").and_then(Value::as_str).unwrap();
            assert!(ty == "span" || ty == "counter");
        }
        // Field order is fixed: "type" leads every line.
        for line in &lines {
            assert!(line.starts_with("{\"type\":"));
        }
    }

    #[test]
    fn summary_aggregates_per_stage() {
        let log = TraceLog {
            spans: vec![
                SpanRec {
                    stage: "parse.unit".into(),
                    unit: Some("a.c".into()),
                    start_us: 0,
                    dur_us: 100,
                },
                SpanRec {
                    stage: "parse.unit".into(),
                    unit: Some("b.c".into()),
                    start_us: 10,
                    dur_us: 900,
                },
                SpanRec {
                    stage: "audit".into(),
                    unit: None,
                    start_us: 0,
                    dur_us: 1000,
                },
            ],
            counters: BTreeMap::new(),
            peak_in_flight: 2,
        };
        let sum = log.summary(1);
        assert_eq!(sum.total_us, 1000);
        let parse = sum.stages.iter().find(|s| s.stage == "parse.unit").unwrap();
        assert_eq!(parse.count, 2);
        assert_eq!(parse.total_us, 1000);
        assert_eq!(parse.min_us, 100);
        assert_eq!(parse.max_us, 900);
        // 100µs lands in bucket 6 ([64,128)), 900µs in bucket 9.
        assert_eq!(parse.buckets[6], 1);
        assert_eq!(parse.buckets[9], 1);
        assert_eq!(sum.slowest.len(), 1);
        assert_eq!(sum.slowest[0].unit, "b.c");
        let audit = sum.stages.iter().find(|s| s.stage == "audit").unwrap();
        assert_eq!(audit.total_us, 1000);
        let text = sum.render_text();
        assert!(text.contains("parse.unit"));
        assert!(text.contains("slowest units"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_span_uses_caller_timing() {
        let t = TraceHandle::recording();
        let start = Instant::now();
        t.record_span(
            "feasibility",
            Some("a.c"),
            start,
            Duration::from_micros(250),
        );
        let log = t.finish().unwrap();
        assert_eq!(log.spans.len(), 1);
        assert_eq!(log.spans[0].stage, "feasibility");
        assert_eq!(log.spans[0].dur_us, 250);
    }
}
