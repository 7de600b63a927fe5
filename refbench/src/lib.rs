//! # refbench
//!
//! The end-to-end and per-layer benchmark for refminer. Each workload
//! generates its inputs from a seed with `refminer::corpus`, hands the
//! program only the generated trees, diffs and requests, times the
//! program's public entry points, and checks every answer before it
//! reports a number. See `README.md` for the workloads, the metrics and
//! the layer-to-end-to-end map.
//!
//! A run either measures the end-to-end metrics (tracing off) or, with
//! `trace`, the per-layer metrics: one traced audit plus a replay of the
//! workload's inputs through each layer crate's `pub` functions, timed
//! from this crate. Nothing is traced inside the program that the
//! untraced run does not already trace.
//!
//! Timed audits run on one worker ([`TIMED_JOBS`]). On a host of a few
//! shared cores, a second worker makes every operation wait for the
//! slower core, and the run measures its neighbours more than the
//! program; the traced pass reports the speed-up of `nproc` workers.

pub mod check;
mod cold;
pub mod compare;
mod layers;
mod replay;
pub mod report;
pub mod stats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use refminer::{AuditConfig, CacheStats};

use stats::Samples;

/// The seed an unseeded run uses.
pub const DEFAULT_SEED: u64 = 1;

/// The measuring time an unconfigured run uses, in seconds.
pub const DEFAULT_SECONDS: f64 = 50.0;

/// Workers of every timed audit.
pub const TIMED_JOBS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold whole-tree audits of a tree on disk.
    ColdAudit,
    /// Diff and fixcheck every commit of a partial-fix history through
    /// one shared cache.
    RevisionReplay,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 2] = [Workload::ColdAudit, Workload::RevisionReplay];

    /// The workload's name on the command line and in results.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::ColdAudit => "cold-audit",
            Workload::RevisionReplay => "revision-replay",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::full`] is what the command line runs;
/// [`Size::tiny`] lets tests drive every workload in a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Replicas of the Table 5 plan in `cold-audit`'s tree.
    pub replicas: usize,
    /// Scale of the partial-fix history's base tree.
    pub fix_scale: f64,
    /// Clone groups in the partial-fix history (one fix commit each).
    pub clone_groups: usize,
    /// Releases in the history ladder `revision-replay` audits once.
    pub releases: usize,
    /// Per-release scale of the history ladder.
    pub release_scale: f64,
    /// Set-up cycles `cold-audit` makes at least; `setup_s` is the
    /// median of a run's set-ups.
    pub setups: usize,
    /// Timed operations a run makes at least, however short its time.
    pub min_ops: usize,
}

impl Size {
    /// The benchmark's sizes: a 4-replica tree (483 files), a 12-group
    /// fix history (402 files, 14 revisions), a 10-release ladder.
    pub fn full() -> Size {
        Size {
            replicas: 4,
            fix_scale: 1.0,
            clone_groups: 12,
            releases: 10,
            release_scale: 0.25,
            setups: 5,
            min_ops: 3,
        }
    }

    /// Tiny inputs for tests.
    pub fn tiny() -> Size {
        Size {
            replicas: 1,
            fix_scale: 0.1,
            clone_groups: 2,
            releases: 3,
            release_scale: 0.05,
            setups: 2,
            min_ops: 2,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, accuracy).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// For end-to-end metrics, the share of the baseline median by
    /// which it may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every untraced run. Must match
/// `BENCHMARK.json` (a test checks).
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p10_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e2e("f1", "ratio", Better::Higher, 0.01),
];

/// Per-layer metrics, printed by every traced run. Names are the layer
/// crate (or `core` module) followed by what is measured.
pub const PER_LAYER: [MetricSpec; 35] = [
    layer("core.audit.trace_overhead", "ratio", Better::Lower),
    layer("core.parallel.speedup", "ratio", Better::Higher),
    layer("core.parallel.peak_in_flight", "count", Better::Higher),
    layer("cpg.graph_builds_per_unit", "ratio", Better::Lower),
    layer("core.project.scan_s", "s", Better::Lower),
    layer("core.cache.hash_s", "s", Better::Lower),
    layer("core.cache.load_s", "s", Better::Lower),
    layer("core.cache.encode_s", "s", Better::Lower),
    layer("core.cache.save_s", "s", Better::Lower),
    layer("core.cache.bytes", "bytes", Better::Lower),
    layer("core.cache.parse_hit_ratio", "ratio", Better::Higher),
    layer("core.cache.export_hit_ratio", "ratio", Better::Higher),
    layer("core.cache.check_hit_ratio", "ratio", Better::Higher),
    layer("core.cache.parse_misses", "count", Better::Lower),
    layer("clex.busy_s", "s", Better::Lower),
    layer("clex.tokens", "count", Better::Lower),
    layer("cparse.busy_s", "s", Better::Lower),
    layer("cparse.functions", "count", Better::Higher),
    layer("rcapi.discover_busy_s", "s", Better::Lower),
    layer("rcapi.merge_busy_s", "s", Better::Lower),
    layer("cpg.graph_busy_s", "s", Better::Lower),
    layer("cpg.feasibility_busy_s", "s", Better::Lower),
    layer("cpg.nodes", "count", Better::Lower),
    layer("progdb.extract_busy_s", "s", Better::Lower),
    layer("progdb.merge_busy_s", "s", Better::Lower),
    layer("checkers.busy_s", "s", Better::Lower),
    layer("checkers.findings", "count", Better::Higher),
    layer("delta.busy_s", "s", Better::Lower),
    layer("delta.findings", "count", Better::Higher),
    layer("sweep.busy_s", "s", Better::Lower),
    layer("sweep.candidates", "count", Better::Lower),
    layer("sweep.matches", "count", Better::Higher),
    layer("fixcheck.parse_s", "s", Better::Lower),
    layer("fixcheck.reverse_apply_s", "s", Better::Lower),
    layer("core.diff.delta_s", "s", Better::Lower),
];

/// The declared metric called `name`, end-to-end or per-layer.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Quartiles of the samples behind a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name, as declared.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Unit, as declared.
    pub unit: &'static str,
    /// Quartiles of the underlying samples, for timings.
    pub spread: Option<Spread>,
}

impl Measured {
    /// A declared metric with its value; panics on an undeclared name,
    /// which is a bug in this crate.
    pub fn new(name: &'static str, value: f64) -> Measured {
        let spec = spec(name).unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        Measured {
            name,
            value,
            unit: spec.unit,
            spread: None,
        }
    }

    /// A quantile of `samples`, with their quartiles attached.
    pub fn quantile(name: &'static str, samples: &Samples, q: f64) -> Measured {
        Measured {
            spread: Some(Spread {
                n: samples.len(),
                q1: samples.quantile(0.25),
                q3: samples.quantile(0.75),
            }),
            ..Measured::new(name, samples.quantile(q))
        }
    }
}

/// What a run reports once every check passed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed (non-ok response, or an audit with
    /// degraded or skipped units).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Measured>,
    /// Facts printed as comment lines, such as the read generator's
    /// lateness.
    pub notes: Vec<String>,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// Runs one workload. `Err` means a check failed or the program could
/// not run; no metric is reported then.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let work = WorkDir::create(p.workload)?;
    let ctx = Ctx {
        seed: p.seed,
        seconds: p.seconds,
        trace: p.trace,
        size: p.size,
        work: work.path.clone(),
        cfg: AuditConfig {
            jobs: TIMED_JOBS,
            ..AuditConfig::default()
        },
    };
    let outcome = match p.workload {
        Workload::ColdAudit => cold::cold_audit(&ctx),
        Workload::RevisionReplay => replay::revision_replay(&ctx),
    }?;
    let declared: &[MetricSpec] = if p.trace { &PER_LAYER } else { &END_TO_END };
    check::metric_set(&outcome.metrics, declared)?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} is not finite: {} of {} operations failed",
            m.name, outcome.failed, outcome.attempted
        ));
    }
    Ok(outcome)
}

/// Digest of the inputs `workload` generates from `seed` at `size`.
pub fn input_digest(workload: Workload, seed: u64, size: &Size) -> u64 {
    match workload {
        Workload::ColdAudit => cold::tree_digest(&cold::cold_tree(seed, size)),
        Workload::RevisionReplay => replay::inputs_digest(seed, size),
    }
}

/// Shared state of one run.
pub(crate) struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for trees and caches, removed after the run.
    pub work: PathBuf,
    pub cfg: AuditConfig,
}

impl Ctx {
    /// How long the timed loop runs: all of the measuring time, or half
    /// of it in a traced run, which spends the rest on the layer pass.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Whether the timed loop started at `start` should run another
    /// operation after `ops` of them.
    pub fn keep_going(&self, start: Instant, ops: usize) -> bool {
        ops < self.size.min_ops || stats::secs_since(start) < self.loop_seconds()
    }

    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(dir)
    }
}

/// Formats an I/O error with its path.
pub(crate) fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

/// The scratch directory of one run, under `.bench_work/` in the
/// current directory; removed when dropped.
struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            workload.name(),
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| io_err(&path, e))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still has a directory there.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The end-to-end measurements a workload collects.
#[derive(Debug, Default)]
pub(crate) struct EndToEnd {
    /// Set-up times, seconds.
    pub setup: Samples,
    /// Latencies of the workload's operation, milliseconds.
    pub ops: Samples,
    /// Peak resident memory when the timed loop ended, MB; the checks
    /// after it do not count.
    pub peak_rss_mb: f64,
    /// F1 of the workload's findings against the generator's manifest.
    pub f1: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Extra facts for the output's comment lines.
    pub notes: Vec<String>,
}

impl EndToEnd {
    /// The traced run's outcome: the loop's counts with `metrics`.
    pub fn traced_outcome(
        self,
        workload: Workload,
        digest: u64,
        metrics: Vec<Measured>,
    ) -> Outcome {
        Outcome {
            workload,
            digest,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes: self.notes,
        }
    }

    pub fn into_outcome(mut self, workload: Workload, digest: u64) -> Result<Outcome, String> {
        if self.ops.is_empty() || self.peak_rss_mb <= 0.0 {
            return Err("the timed loop ran no operation".to_string());
        }
        // Every operation of a run does the same work, and contention from
        // other tenants of the host only adds time to it, for stretches
        // that can outlast a run. The fast end of the samples tracks the
        // program; the median moved up to three times as much from run to
        // run (see README.md). The other quantiles are printed for
        // reading, not bounded.
        let q = |p: f64| self.ops.quantile(p);
        self.notes.push(format!(
            "op ms p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} n {}",
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            self.ops.len()
        ));
        let metrics = vec![
            Measured::quantile("setup_s", &self.setup, 0.5),
            Measured::quantile("op_p10_ms", &self.ops, 0.1),
            Measured::new("peak_rss_mb", self.peak_rss_mb),
            Measured::new("f1", self.f1),
        ];
        Ok(Outcome {
            workload,
            digest,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes: self.notes,
        })
    }
}

/// Cache hit and miss counts summed over the timed loop's audits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CacheTally {
    pub stats: CacheStats,
    pub audits: usize,
}

impl CacheTally {
    pub fn add(&mut self, s: &CacheStats) {
        let t = &mut self.stats;
        t.parse_hits += s.parse_hits;
        t.parse_misses += s.parse_misses;
        t.export_hits += s.export_hits;
        t.export_misses += s.export_misses;
        t.check_hits += s.check_hits;
        t.check_misses += s.check_misses;
        self.audits += 1;
    }

    pub fn metrics(&self) -> Vec<Measured> {
        let ratio = |hits: usize, misses: usize| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let s = &self.stats;
        vec![
            Measured::new(
                "core.cache.parse_hit_ratio",
                ratio(s.parse_hits, s.parse_misses),
            ),
            Measured::new(
                "core.cache.export_hit_ratio",
                ratio(s.export_hits, s.export_misses),
            ),
            Measured::new(
                "core.cache.check_hit_ratio",
                ratio(s.check_hits, s.check_misses),
            ),
            Measured::new(
                "core.cache.parse_misses",
                s.parse_misses as f64 / self.audits.max(1) as f64,
            ),
        ]
    }
}
