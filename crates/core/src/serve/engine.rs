//! The resident audit engine behind `refminer serve`.
//!
//! One worker thread owns the [`AuditCache`] and runs audits off a
//! *bounded* request queue; everything else — queries, status, the
//! socket threads, the watcher — only touches the engine through a
//! clonable [`EngineHandle`]. The robustness contract:
//!
//! - **Backpressure**: the queue holds at most
//!   [`ServeConfig::queue_capacity`] jobs. A full queue sheds the
//!   request immediately with an `overloaded` error instead of
//!   buffering unbounded work.
//! - **Deadlines**: every audit request runs under a
//!   [`CancelToken`] whose deadline defaults to
//!   [`super::protocol::DEFAULT_DEADLINE_MS`]. The waiter never blocks
//!   past the deadline, and the token cancels the in-flight audit
//!   cooperatively at the next unit boundary.
//! - **Degraded serving**: findings live in an immutable [`Snapshot`]
//!   behind an atomic `Arc` swap. Queries always answer from the last
//!   consistent snapshot — a running, failing or cancelled re-audit is
//!   invisible to readers; a snapshot is replaced only by a complete
//!   newer one.
//! - **Bounded retries**: transient scan errors (which the
//!   fault-injection harness produces on purpose) retry with
//!   exponential backoff a fixed number of times, then fail the job —
//!   never an infinite retry loop.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use refminer_checkers::{AntiPattern, Feasibility, Finding};
use refminer_json::{obj, ToJson, Value};
use refminer_trace::TraceHandle;

use super::protocol::{ErrorKind, Method, QueryFilter, Request, Response, DEFAULT_DEADLINE_MS};
use super::render::{render_diagnostics_line, render_finding_line, render_unit_diagnostic};
use crate::audit::{audit_cancellable, AuditConfig, AuditReport};
use crate::cache::{AuditCache, CacheLoadOutcome};
use crate::cancel::{CancelReason, CancelToken};
use crate::diff::{render_diff_lines, revision_delta, Revision};
use crate::fixcheck::{fixcheck_cancellable, reconstruct_pre_fix, render_fixcheck_lines};
use crate::project::Project;
use crate::{UnitDiagnostic, UnitErrorKind, UnitOutcome};

/// Configuration for a resident engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The source tree the daemon audits.
    pub root: PathBuf,
    /// Audit configuration (jobs, limits, discovery, …).
    pub audit: AuditConfig,
    /// Where the audit cache persists; `None` keeps it in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Bounded queue size; a full queue sheds with `overloaded`.
    pub queue_capacity: usize,
    /// Deadline for audit/reaudit requests that don't set one.
    pub default_deadline_ms: u64,
    /// Fault-harness hook: stall this long (cancellably) before each
    /// audit job, so tests can deterministically fill the queue and
    /// trip deadlines. `0` in production.
    pub inject_audit_delay_ms: u64,
    /// Trace recorder shared by every audit the engine runs.
    pub trace: TraceHandle,
}

impl ServeConfig {
    /// A config with production defaults for `root`.
    pub fn new(root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            root: root.into(),
            audit: AuditConfig::default(),
            cache_dir: None,
            queue_capacity: 8,
            default_deadline_ms: DEFAULT_DEADLINE_MS,
            inject_audit_delay_ms: 0,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Bounded retries for transient scan errors before a job fails.
const SCAN_RETRIES: u32 = 3;
/// Initial backoff between scan retries, in ms; doubles per retry.
const RETRY_BACKOFF_MS: u64 = 25;

/// One consistent, immutable view of the audited tree: the findings
/// plus their prerendered JSON lines — the exact bytes the one-shot
/// CLI's `--json` mode would print for the same tree, so `query`
/// output can be diffed against it.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Monotonic audit generation; 0 until the first audit lands.
    pub revision: u64,
    /// All findings, canonical order.
    pub findings: Vec<Finding>,
    /// `findings[i]` rendered as its JSONL line, index-parallel.
    pub lines: Vec<String>,
    /// The trailing diagnostics line, present exactly when the audit
    /// was not clean (same rule as the CLI).
    pub diagnostics_line: Option<String>,
    /// Files audited.
    pub files: usize,
    /// Functions analyzed.
    pub functions: usize,
}

impl Snapshot {
    fn from_report(revision: u64, report: &AuditReport) -> Snapshot {
        Snapshot {
            revision,
            lines: report.findings.iter().map(render_finding_line).collect(),
            diagnostics_line: render_diagnostics_line(&report.diagnostics),
            findings: report.findings.clone(),
            files: report.files,
            functions: report.functions,
        }
    }
}

/// What an audit job is asked to cover.
#[derive(Debug, Clone)]
enum JobKind {
    /// The whole tree.
    Full,
    /// The whole tree, responding with only the findings delta against
    /// the previous snapshot (plus left-behind clone sweeps).
    Diff,
    /// A targeted re-audit after changes to the named files.
    Files(Vec<String>),
    /// A fixcheck pass: audit the tree, reverse-apply the unified
    /// diff to audit the pre-fix tree too, and report what the fix
    /// left behind.
    Fixcheck(String),
}

/// How a job ended.
#[derive(Debug)]
enum JobOutcome {
    Done {
        revision: u64,
        findings: usize,
        files: usize,
        functions: usize,
        /// Files named by a reaudit that no longer exist: diagnosed,
        /// not retried (deletion is a fact, not a transient fault).
        removed: Vec<UnitDiagnostic>,
    },
    /// An `auditdiff` or `fixcheck` job: its summary counts plus the
    /// prerendered JSONL lines the matching one-shot `--json` mode
    /// (`refminer diff` or `refminer fixcheck`) prints.
    DeltaDone {
        revision: u64,
        counts: Vec<(&'static str, Value)>,
        lines: Vec<String>,
    },
    Cancelled(CancelReason),
    /// The request itself was invalid (e.g. a malformed or
    /// inapplicable fix diff) — a client error, not an engine fault.
    Rejected(String),
    Failed(String),
}

struct Job {
    kind: JobKind,
    cancel: CancelToken,
    done: Mutex<Option<JobOutcome>>,
    cond: Condvar,
}

impl Job {
    fn new(kind: JobKind, cancel: CancelToken) -> Arc<Job> {
        Arc::new(Job {
            kind,
            cancel,
            done: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn deliver(&self, outcome: JobOutcome) {
        *self.done.lock().unwrap() = Some(outcome);
        self.cond.notify_all();
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    queries: AtomicU64,
    sheds: AtomicU64,
    deadline_misses: AtomicU64,
    audits_ok: AtomicU64,
    audits_cancelled: AtomicU64,
    audits_failed: AtomicU64,
    scan_retries: AtomicU64,
    watch_triggers: AtomicU64,
    queue_peak: AtomicU64,
    cache_save_failures: AtomicU64,
    cache_quarantined: AtomicU64,
    files_removed: AtomicU64,
    /// Entries per cache layer after the last job.
    cache_parse_entries: AtomicU64,
    cache_check_entries: AtomicU64,
    cache_discovery_entries: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    snapshot: Mutex<Arc<Snapshot>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cond: Condvar,
    stop: AtomicBool,
    auditing: AtomicBool,
    /// Token of the audit currently running, so shutdown can cancel it.
    current: Mutex<Option<CancelToken>>,
    counters: Counters,
}

/// The resident engine: owns the worker thread. Dropping (or calling
/// [`Engine::shutdown`]) stops the worker and cancels any in-flight
/// audit.
pub struct Engine {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts the worker and enqueues the initial whole-tree audit.
    /// Returns immediately; poll [`EngineHandle::wait_for_revision`]
    /// (or `status`) for readiness.
    pub fn start(cfg: ServeConfig) -> Engine {
        let shared = Arc::new(Shared {
            cfg,
            snapshot: Mutex::new(Arc::new(Snapshot::default())),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            stop: AtomicBool::new(false),
            auditing: AtomicBool::new(false),
            current: Mutex::new(None),
            counters: Counters::default(),
        });
        // The warm-up audit runs under the default deadline like any
        // request: it's nobody's request, but an unbounded warm-up
        // means one hung scan (a stalled NFS mount, an injected stall
        // fault) blocks the worker before it serves a single job. An
        // expired warm-up just leaves revision 0; the next audit or
        // watch trigger retries from a healthy worker.
        let warmup_deadline = Duration::from_millis(shared.cfg.default_deadline_ms);
        shared.queue.lock().unwrap().push_back(Job::new(
            JobKind::Full,
            CancelToken::with_timeout(warmup_deadline),
        ));
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || worker_loop(worker_shared));
        Engine {
            shared,
            worker: Some(worker),
        }
    }

    /// A clonable handle for request dispatch.
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the worker: cancels the in-flight audit, fails queued
    /// jobs, joins the thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.begin_stop();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.current.lock().unwrap().as_ref() {
            t.cancel();
        }
        self.queue_cond.notify_all();
    }
}

/// Clonable dispatch handle; every transport (TCP, Unix socket, tests,
/// the watcher) goes through [`EngineHandle::request`].
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl EngineHandle {
    /// Dispatches one request and blocks until its response is ready —
    /// never longer than the request's deadline.
    pub fn request(&self, req: &Request) -> Response {
        self.shared.counters.requests.fetch_add(1, Ordering::SeqCst);
        match &req.method {
            Method::Query(filter) => self.query(req.id, filter),
            Method::Status => Response::ok(req.id, self.status_value()),
            Method::Shutdown => {
                self.shared.begin_stop();
                Response::ok(req.id, obj([("stopping", true.into())]))
            }
            Method::Audit => self.run_audit_job(req, JobKind::Full),
            Method::AuditDiff => self.run_audit_job(req, JobKind::Diff),
            Method::Reaudit { files } => self.run_audit_job(req, JobKind::Files(files.clone())),
            Method::Fixcheck { diff } => self.run_audit_job(req, JobKind::Fixcheck(diff.clone())),
        }
    }

    /// Whether the engine is stopping/stopped.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// The audited tree root.
    pub fn root(&self) -> PathBuf {
        self.shared.cfg.root.clone()
    }

    /// The current snapshot revision.
    pub fn revision(&self) -> u64 {
        self.shared.snapshot.lock().unwrap().revision
    }

    /// Polls until the snapshot reaches `min` or `timeout` passes.
    pub fn wait_for_revision(&self, min: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.revision() >= min {
                return true;
            }
            if Instant::now() >= deadline || self.is_stopped() {
                return self.revision() >= min;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Watcher entry point: enqueue a whole-tree re-audit without
    /// waiting for it. A full queue is fine — the change is picked up
    /// by the next poll. Returns whether the job was enqueued.
    pub(super) fn enqueue_watch_audit(&self) -> bool {
        self.shared
            .counters
            .watch_triggers
            .fetch_add(1, Ordering::SeqCst);
        self.enqueue(Job::new(JobKind::Full, CancelToken::new()))
            .is_ok()
    }

    /// Watcher bookkeeping for a transient scan failure during polling.
    pub(super) fn note_scan_retry(&self) {
        self.shared
            .counters
            .scan_retries
            .fetch_add(1, Ordering::SeqCst);
    }

    fn enqueue(&self, job: Arc<Job>) -> Result<(), ErrorKind> {
        if self.is_stopped() {
            return Err(ErrorKind::ShuttingDown);
        }
        let mut q = self.shared.queue.lock().unwrap();
        if q.len() >= self.shared.cfg.queue_capacity {
            self.shared.counters.sheds.fetch_add(1, Ordering::SeqCst);
            return Err(ErrorKind::Overloaded);
        }
        q.push_back(job);
        let depth = q.len() as u64;
        self.shared
            .counters
            .queue_peak
            .fetch_max(depth, Ordering::SeqCst);
        self.shared.cfg.trace.add_max("serve.queue.peak", depth);
        self.shared.queue_cond.notify_one();
        Ok(())
    }

    fn run_audit_job(&self, req: &Request, kind: JobKind) -> Response {
        let deadline_ms = req
            .deadline_ms
            .unwrap_or(self.shared.cfg.default_deadline_ms);
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        let cancel = CancelToken::with_deadline(deadline);
        let job = Job::new(kind, cancel);
        if let Err(kind) = self.enqueue(Arc::clone(&job)) {
            let msg = match kind {
                ErrorKind::Overloaded => format!(
                    "request queue full ({} deep); retry later",
                    self.shared.cfg.queue_capacity
                ),
                _ => "daemon is shutting down".to_string(),
            };
            return Response::err(req.id, kind, msg);
        }
        // Wait for the worker, but never past the deadline: a stuck or
        // slow audit turns into a clean deadline error here while the
        // token cancels the work itself at its next unit boundary.
        let mut done = job.done.lock().unwrap();
        loop {
            if let Some(outcome) = done.take() {
                return self.render_outcome(req.id, outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                self.shared
                    .counters
                    .deadline_misses
                    .fetch_add(1, Ordering::SeqCst);
                return Response::err(
                    req.id,
                    ErrorKind::DeadlineExceeded,
                    format!("deadline of {deadline_ms}ms exceeded"),
                );
            }
            let (guard, _) = job
                .cond
                .wait_timeout(done, (deadline - now).min(Duration::from_millis(50)))
                .unwrap();
            done = guard;
        }
    }

    fn render_outcome(&self, id: u64, outcome: JobOutcome) -> Response {
        match outcome {
            JobOutcome::Done {
                revision,
                findings,
                files,
                functions,
                removed,
            } => {
                let mut members = vec![
                    ("revision".to_string(), revision.to_json()),
                    ("findings".to_string(), findings.to_json()),
                    ("files".to_string(), files.to_json()),
                    ("functions".to_string(), functions.to_json()),
                ];
                if !removed.is_empty() {
                    members.push((
                        "removed".to_string(),
                        Value::Arr(removed.iter().map(render_unit_diagnostic).collect()),
                    ));
                }
                Response::ok(id, Value::Obj(members))
            }
            JobOutcome::DeltaDone {
                revision,
                counts,
                lines,
            } => {
                let mut members = vec![("revision".to_string(), revision.to_json())];
                members.extend(counts.into_iter().map(|(k, v)| (k.to_string(), v)));
                members.push((
                    "lines".to_string(),
                    Value::Arr(lines.into_iter().map(Value::Str).collect()),
                ));
                Response::ok(id, Value::Obj(members))
            }
            JobOutcome::Cancelled(reason) => {
                let kind = match reason {
                    CancelReason::DeadlineExceeded => {
                        self.shared
                            .counters
                            .deadline_misses
                            .fetch_add(1, Ordering::SeqCst);
                        ErrorKind::DeadlineExceeded
                    }
                    CancelReason::Explicit => ErrorKind::Cancelled,
                };
                Response::err(id, kind, format!("audit {}", reason.name()))
            }
            JobOutcome::Rejected(msg) => Response::err(id, ErrorKind::BadRequest, msg),
            JobOutcome::Failed(msg) => Response::err(id, ErrorKind::Internal, msg),
        }
    }

    fn query(&self, id: u64, filter: &QueryFilter) -> Response {
        self.shared.counters.queries.fetch_add(1, Ordering::SeqCst);
        let pattern = match &filter.pattern {
            Some(p) => match AntiPattern::from_id(p) {
                Some(ap) => Some(ap),
                None => {
                    return Response::err(
                        id,
                        ErrorKind::BadRequest,
                        format!("unknown pattern `{p}`"),
                    )
                }
            },
            None => None,
        };
        let verdict = match &filter.verdict {
            Some(v) => match Feasibility::from_name(v) {
                Some(f) => Some(f),
                None => {
                    return Response::err(
                        id,
                        ErrorKind::BadRequest,
                        format!("unknown verdict `{v}`"),
                    )
                }
            },
            None => None,
        };
        let subsystem = filter
            .subsystem
            .as_deref()
            .map(|s| s.trim_end_matches('/').to_string());
        // Clone the Arc, drop the lock: the query reads a consistent
        // snapshot even while the worker swaps in a newer one.
        let snap = Arc::clone(&self.shared.snapshot.lock().unwrap());
        let mut lines: Vec<Value> = Vec::new();
        for (f, line) in snap.findings.iter().zip(&snap.lines) {
            if let Some(p) = pattern {
                if f.pattern != p {
                    continue;
                }
            }
            if let Some(v) = verdict {
                if f.feasibility != v {
                    continue;
                }
            }
            if let Some(prefix) = &subsystem {
                if f.file != *prefix && !f.file.starts_with(&format!("{prefix}/")) {
                    continue;
                }
            }
            lines.push(line.as_str().into());
        }
        let total = lines.len();
        let mut members = vec![
            ("revision".to_string(), snap.revision.to_json()),
            ("total".to_string(), total.to_json()),
            ("lines".to_string(), Value::Arr(lines)),
        ];
        // The diagnostics line belongs to the whole-tree view only; a
        // filtered slice would misattribute tree-wide degradation.
        if filter.is_empty() {
            if let Some(d) = &snap.diagnostics_line {
                members.push(("diagnostics".to_string(), d.as_str().into()));
            }
        }
        Response::ok(id, Value::Obj(members))
    }

    fn status_value(&self) -> Value {
        let c = &self.shared.counters;
        let snap = Arc::clone(&self.shared.snapshot.lock().unwrap());
        let queue_depth = self.shared.queue.lock().unwrap().len();
        obj([
            ("revision", snap.revision.to_json()),
            ("findings", snap.findings.len().to_json()),
            ("files", snap.files.to_json()),
            (
                "auditing",
                self.shared.auditing.load(Ordering::SeqCst).into(),
            ),
            ("queue_depth", queue_depth.to_json()),
            ("queue_peak", c.queue_peak.load(Ordering::SeqCst).to_json()),
            ("requests", c.requests.load(Ordering::SeqCst).to_json()),
            ("queries", c.queries.load(Ordering::SeqCst).to_json()),
            ("sheds", c.sheds.load(Ordering::SeqCst).to_json()),
            (
                "deadline_misses",
                c.deadline_misses.load(Ordering::SeqCst).to_json(),
            ),
            ("audits_ok", c.audits_ok.load(Ordering::SeqCst).to_json()),
            (
                "audits_cancelled",
                c.audits_cancelled.load(Ordering::SeqCst).to_json(),
            ),
            (
                "audits_failed",
                c.audits_failed.load(Ordering::SeqCst).to_json(),
            ),
            (
                "scan_retries",
                c.scan_retries.load(Ordering::SeqCst).to_json(),
            ),
            (
                "watch_triggers",
                c.watch_triggers.load(Ordering::SeqCst).to_json(),
            ),
            (
                "cache_save_failures",
                c.cache_save_failures.load(Ordering::SeqCst).to_json(),
            ),
            (
                "cache_quarantined",
                c.cache_quarantined.load(Ordering::SeqCst).to_json(),
            ),
            (
                "files_removed",
                c.files_removed.load(Ordering::SeqCst).to_json(),
            ),
            (
                "cache_parse_entries",
                c.cache_parse_entries.load(Ordering::SeqCst).to_json(),
            ),
            (
                "cache_check_entries",
                c.cache_check_entries.load(Ordering::SeqCst).to_json(),
            ),
            (
                "cache_discovery_entries",
                c.cache_discovery_entries.load(Ordering::SeqCst).to_json(),
            ),
        ])
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut cache = match &shared.cfg.cache_dir {
        Some(dir) => AuditCache::with_dir(dir),
        None => AuditCache::new(),
    };
    // A corrupt persisted cache was quarantined aside and the daemon
    // starts cold; surface that in status rather than on stderr.
    if matches!(cache.load_outcome(), CacheLoadOutcome::Quarantined(_)) {
        shared.counters.cache_quarantined.store(1, Ordering::SeqCst);
    }
    let mut revision: u64 = 0;
    // The last successfully-audited tree and its audit's unit keys,
    // kept so an `auditdiff` job's left-behind clone sweep can read
    // revision A's units from the cache.
    let mut last_project: Option<(Project, Vec<u64>)> = None;
    'outer: loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    break 'outer;
                }
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = shared.queue_cond.wait(q).unwrap();
            }
        };
        *shared.current.lock().unwrap() = Some(job.cancel.clone());
        shared.auditing.store(true, Ordering::SeqCst);
        let outcome = run_job(&shared, &mut cache, &mut revision, &mut last_project, &job);
        let c = &shared.counters;
        let (parse, check, discovery) = cache.len();
        c.cache_parse_entries.store(parse as u64, Ordering::SeqCst);
        c.cache_check_entries.store(check as u64, Ordering::SeqCst);
        c.cache_discovery_entries
            .store(discovery as u64, Ordering::SeqCst);
        shared.auditing.store(false, Ordering::SeqCst);
        *shared.current.lock().unwrap() = None;
        job.deliver(outcome);
    }
    // Fail queued jobs explicitly so their waiters return now rather
    // than at their deadlines.
    let drained: Vec<Arc<Job>> = shared.queue.lock().unwrap().drain(..).collect();
    for job in drained {
        job.deliver(JobOutcome::Cancelled(CancelReason::Explicit));
    }
}

fn run_job(
    shared: &Shared,
    cache: &mut AuditCache,
    revision: &mut u64,
    last_project: &mut Option<(Project, Vec<u64>)>,
    job: &Job,
) -> JobOutcome {
    let cfg = &shared.cfg;
    let counters = &shared.counters;
    if let Err(c) = job.cancel.check() {
        counters.audits_cancelled.fetch_add(1, Ordering::SeqCst);
        return JobOutcome::Cancelled(c.reason);
    }
    // Fault-harness stall, in cancellable slices.
    let mut stall = cfg.inject_audit_delay_ms;
    while stall > 0 {
        if let Err(c) = job.cancel.check() {
            counters.audits_cancelled.fetch_add(1, Ordering::SeqCst);
            return JobOutcome::Cancelled(c.reason);
        }
        let step = stall.min(5);
        std::thread::sleep(Duration::from_millis(step));
        stall -= step;
    }
    // A reaudit naming a file that has vanished is a *fact to report*,
    // not a fault to retry: diagnose it and audit what remains.
    let mut removed: Vec<UnitDiagnostic> = Vec::new();
    if let JobKind::Files(files) = &job.kind {
        for f in files {
            if !cfg.root.join(f).exists() {
                counters.files_removed.fetch_add(1, Ordering::SeqCst);
                removed.push(UnitDiagnostic {
                    path: f.clone(),
                    outcome: UnitOutcome::Skipped,
                    errors: vec![UnitErrorKind::Io],
                    detail: "file removed between change notification and re-audit".to_string(),
                });
            }
        }
    }
    // Transient scan errors retry with bounded exponential backoff.
    let mut backoff = RETRY_BACKOFF_MS;
    let mut attempt: u32 = 0;
    let project = loop {
        if let Err(c) = job.cancel.check() {
            counters.audits_cancelled.fetch_add(1, Ordering::SeqCst);
            return JobOutcome::Cancelled(c.reason);
        }
        match Project::scan(&cfg.root) {
            Ok(p) => break p,
            Err(e) => {
                if attempt >= SCAN_RETRIES {
                    counters.audits_failed.fetch_add(1, Ordering::SeqCst);
                    return JobOutcome::Failed(format!("scan failed after {attempt} retries: {e}"));
                }
                attempt += 1;
                counters.scan_retries.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = (backoff * 2).min(1_000);
            }
        }
    };
    // A fixcheck job audits both sides of the fix (through the same
    // shared cache, so only the diffed units re-parse); every other
    // job audits the tree once. Either way the audits run under the
    // job's token and trace. A diff that does not parse or apply is
    // the client's fault and maps to `bad_request` before any audit.
    let (audited, fixcheck) = match &job.kind {
        JobKind::Fixcheck(diff_text) => {
            let pre = match reconstruct_pre_fix(&project, diff_text) {
                Ok(pre) => pre,
                Err(msg) => return JobOutcome::Rejected(msg),
            };
            match fixcheck_cancellable(&project, pre, &cfg.audit, cache, &cfg.trace, &job.cancel) {
                Ok(fr) => {
                    let counts = vec![
                        ("fixed", fr.fixed.len().to_json()),
                        ("introduced", fr.introduced.len().to_json()),
                        ("incomplete", fr.incomplete_total().to_json()),
                        ("clean", fr.is_clean().into()),
                    ];
                    let lines = render_fixcheck_lines(&fr);
                    (Ok(fr.report), Some((counts, lines)))
                }
                Err(c) => (Err(c), None),
            }
        }
        _ => (
            audit_cancellable(&project, &cfg.audit, cache, &cfg.trace, &job.cancel),
            None,
        ),
    };
    let report = match audited {
        Ok(report) => report,
        Err(c) => {
            counters.audits_cancelled.fetch_add(1, Ordering::SeqCst);
            return JobOutcome::Cancelled(c.reason);
        }
    };
    *revision += 1;
    let snap = Arc::new(Snapshot::from_report(*revision, &report));
    // The swap is the only mutation readers can observe, and it is
    // atomic: a query sees the old complete snapshot or the new
    // complete snapshot, never a mix. For a diff job the displaced
    // snapshot *is* revision A.
    let prev = {
        let mut guard = shared.snapshot.lock().unwrap();
        std::mem::replace(&mut *guard, Arc::clone(&snap))
    };
    if cfg.cache_dir.is_some() {
        // A failed save (disk full, injected fault) degrades
        // persistence, not serving: the snapshot already swapped, and
        // the atomic tmp+rename protocol means a torn save can't
        // corrupt the existing cache file.
        if cache.save().is_err() {
            counters.cache_save_failures.fetch_add(1, Ordering::SeqCst);
        }
    }
    counters.audits_ok.fetch_add(1, Ordering::SeqCst);
    let outcome = match (&job.kind, fixcheck) {
        (_, Some((counts, lines))) => JobOutcome::DeltaDone {
            revision: snap.revision,
            counts,
            lines,
        },
        (JobKind::Diff, None) => {
            let a = last_project
                .as_ref()
                .map(|(p, keys)| Revision::cached(p, keys, cache, &cfg.audit));
            let delta = revision_delta(
                &prev.findings,
                &report.findings,
                a.as_ref(),
                &Revision::cached(&project, &report.unit_keys, cache, &cfg.audit),
                &report.kb,
                true,
            );
            JobOutcome::DeltaDone {
                revision: snap.revision,
                counts: vec![
                    ("introduced", delta.introduced.len().to_json()),
                    ("fixed", delta.fixed.len().to_json()),
                    ("moved", delta.moved.len().to_json()),
                    ("left_behind", delta.left_behind_total().to_json()),
                ],
                lines: render_diff_lines(&delta),
            }
        }
        _ => JobOutcome::Done {
            revision: snap.revision,
            findings: snap.findings.len(),
            files: snap.files,
            functions: snap.functions,
            removed,
        },
    };
    *last_project = Some((project, report.unit_keys));
    outcome
}
