//! The end-to-end two-phase whole-program audit.
//!
//! **Phase 1** is one per-unit pass that computes only what the barrier
//! reads: each unit is lexed once and parsed, its `#define`s are read off
//! that lex, its discovery facts are captured, and each function's CFG
//! and node facts yield its function-effect digest
//! ([`refminer_checkers::UnitExports`]). None of that depends on any
//! other unit, so it all fans out before the barrier. The CFGs and
//! facts die with their digests: no graph, CFG or facts is held across
//! the barrier.
//!
//! **The barrier** merges the discovery facts into the knowledge base
//! and the digests into the [`ProgramDb`] — the function-summary
//! database every checker resolves helper calls through, under linkage
//! rules (`static` helpers stay unit-local; external definitions
//! resolve tree-wide) — and reads every unit's deps key off it. The
//! result is memoized per tree, so an audit of a tree the cache has
//! seen skips both merges.
//!
//! **Phase 2** builds each checked unit's full function graphs — their
//! one build per unit — and checks them against the merged database, so
//! an `of_node_put` wrapper defined in `a.c` pairs an acquisition in
//! `b.c`. The database is built only when some unit misses the check
//! layer.
//!
//! Every translation unit runs inside a *fault boundary*: resource caps
//! (file bytes, token count, recursion depth, graph nodes) bound what a
//! hostile or corrupted file can consume, and `catch_unwind` converts
//! any panic that still escapes a stage into a structured
//! [`UnitDiagnostic`] instead of aborting the audit. One bad file can
//! degrade its own results; it cannot take down the run or perturb the
//! findings of its healthy siblings.
//!
//! Both phases memoize through the three-layer content-hash cache (see
//! [`crate::cache`]) and fan out across worker threads (see
//! [`crate::parallel`]). Both are exact optimizations: the report —
//! findings, counters, diagnostics — is byte-identical at any `jobs`
//! count and any cache temperature, because per-unit results are merged
//! in unit index order and findings get one canonical stable sort at
//! the end. Phase wall times are reported out of band and never enter
//! any cached or serialized result.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use refminer_checkers::{
    checkers_for_patterns, default_checkers, merge_duplicate_findings, run_engines_traced,
    sort_findings_canonical, AnalysisEngine, AntiPattern, Feasibility, Finding, Impact, ProgramDb,
    TemplateEngine, UnitExports,
};
use refminer_clex::{scan_defines, MacroDef};
use refminer_cparse::{parse_str_limited, ParseLimits, TranslationUnit};
use refminer_cpg::FunctionGraph;
use refminer_progdb::{fnv1a, mix};
use refminer_rcapi::{discover_unit, merge_discoveries, ApiKb, DiscoverConfig, UnitDiscovery};
use refminer_trace::TraceHandle;

use crate::cache::{
    barrier_config_fingerprint, check_config_fingerprint, content_hash, deps_keys, kb_fingerprint,
    parse_config_fingerprint, AuditCache, Barrier, CacheStats, CachedError, CheckedUnit,
    ParsedUnit,
};
use crate::cancel::{CancelToken, Cancelled};
use crate::parallel::run_indexed;
use crate::project::{Project, ScanErrorKind, SourceUnit};

/// Resource caps applied to each translation unit.
#[derive(Debug, Clone, Copy)]
pub struct AuditLimits {
    /// Units larger than this many bytes are skipped outright.
    pub max_file_bytes: usize,
    /// Token cap per unit; the stream is truncated past it.
    pub max_tokens: usize,
    /// Recursion-depth cap for the parser.
    pub max_parse_depth: u32,
    /// CFG node cap per function; bigger functions are not analyzed.
    pub max_graph_nodes: usize,
}

impl Default for AuditLimits {
    fn default() -> Self {
        AuditLimits {
            max_file_bytes: 8 * 1024 * 1024,
            max_tokens: 2_000_000,
            max_parse_depth: 128,
            max_graph_nodes: 50_000,
        }
    }
}

/// Audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Run API/smartloop discovery over the project and merge the
    /// results into the knowledge base (§6.1's lexer-parsing stage).
    pub discover_apis: bool,
    /// Per-unit resource caps.
    pub limits: AuditLimits,
    /// Worker threads for the per-unit stages. `0` (the default) means
    /// one per available hardware thread; `1` runs everything inline on
    /// the calling thread. The report is identical either way.
    pub jobs: usize,
    /// Whether the path-feasibility engine's `Infeasible` verdicts
    /// suppress findings in the report (the default). `false` keeps
    /// every finding, tagged — the pre-feasibility behavior.
    ///
    /// Deliberately *not* part of the check-stage cache key: verdicts
    /// are always computed and cached with the findings; suppression is
    /// a post-cache report-layer filter, so both modes share entries.
    pub feasibility: bool,
    /// Restrict the run to a subset of anti-patterns (`--only-pattern`).
    /// `None` runs all nine.
    pub only_patterns: Option<Vec<AntiPattern>>,
    /// Restrict checking to units under this path prefix
    /// (`--subsystem drivers/net`). `None` checks everything. Filtered
    /// units still parse and export — exports are whole-tree — but skip
    /// the check stage. It does not key the check layer: a checked
    /// unit's findings are the same with or without it.
    pub subsystem: Option<String>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            discover_apis: true,
            limits: AuditLimits::default(),
            jobs: 0,
            feasibility: true,
            only_patterns: None,
            subsystem: None,
        }
    }
}

/// What a single unit's trip through the pipeline looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOutcome {
    /// Fully analyzed, nothing lost.
    Ok,
    /// Analyzed, but part of the input was degraded or dropped.
    Degraded,
    /// Not analyzed at all.
    Skipped,
}

impl UnitOutcome {
    /// Stable lower-snake name, used in reports and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            UnitOutcome::Ok => "ok",
            UnitOutcome::Degraded => "degraded",
            UnitOutcome::Skipped => "skipped",
        }
    }
}

/// The failure taxonomy for per-unit diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitErrorKind {
    /// The file could not be read from disk (scan-time).
    Io,
    /// Content was not valid UTF-8 and was decoded lossily (scan-time).
    NonUtf8,
    /// The unit exceeded the byte cap and was skipped.
    Oversize,
    /// Lexing/parsing panicked; the unit was skipped.
    LexPanic,
    /// The lexer recovered from byte-level garbage (stray bytes,
    /// unterminated comments/strings); some input was dropped.
    LexNoise,
    /// The token stream was truncated at the token cap.
    TokenCap,
    /// The recursion-depth cap degraded part of the parse.
    ParseDepth,
    /// One or more functions exceeded the graph node cap.
    GraphBlowup,
    /// Graph construction or checking panicked; the unit's findings
    /// were dropped.
    CheckPanic,
}

impl UnitErrorKind {
    /// Every kind, in taxonomy order.
    pub fn all() -> [UnitErrorKind; 9] {
        use UnitErrorKind::*;
        [
            Io,
            NonUtf8,
            Oversize,
            LexPanic,
            LexNoise,
            TokenCap,
            ParseDepth,
            GraphBlowup,
            CheckPanic,
        ]
    }

    /// Parses the stable name back into the kind (inverse of
    /// [`UnitErrorKind::name`]); used when loading a persisted cache.
    pub fn from_name(name: &str) -> Option<UnitErrorKind> {
        UnitErrorKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Stable lower-snake name, used in reports and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            UnitErrorKind::Io => "io",
            UnitErrorKind::NonUtf8 => "non_utf8",
            UnitErrorKind::Oversize => "oversize",
            UnitErrorKind::LexPanic => "lex_panic",
            UnitErrorKind::LexNoise => "lex_noise",
            UnitErrorKind::TokenCap => "token_cap",
            UnitErrorKind::ParseDepth => "parse_depth",
            UnitErrorKind::GraphBlowup => "graph_blowup",
            UnitErrorKind::CheckPanic => "check_panic",
        }
    }
}

/// The per-file record of a non-clean trip through the pipeline.
#[derive(Debug, Clone)]
pub struct UnitDiagnostic {
    /// Project-relative path of the unit.
    pub path: String,
    /// Overall outcome for the unit.
    pub outcome: UnitOutcome,
    /// Everything that went wrong, deduplicated, in taxonomy order.
    pub errors: Vec<UnitErrorKind>,
    /// Human-readable detail for the most severe problem.
    pub detail: String,
}

/// Aggregated fault-isolation diagnostics for a whole audit.
#[derive(Debug, Clone, Default)]
pub struct AuditDiagnostics {
    /// Per-file records for every unit that was *not* clean. Clean
    /// units are counted in [`AuditDiagnostics::ok`] but get no record.
    pub units: Vec<UnitDiagnostic>,
    /// Units that were fully analyzed.
    pub ok: usize,
    /// Units analyzed with some loss.
    pub degraded: usize,
    /// Units not analyzed at all.
    pub skipped: usize,
}

impl AuditDiagnostics {
    /// `true` when every unit was fully analyzed with nothing lost.
    pub fn is_clean(&self) -> bool {
        self.degraded == 0 && self.skipped == 0
    }

    /// Occurrences of each error kind across all units.
    pub fn by_kind(&self) -> BTreeMap<UnitErrorKind, usize> {
        let mut map = BTreeMap::new();
        for u in &self.units {
            for k in &u.errors {
                *map.entry(*k).or_insert(0) += 1;
            }
        }
        map
    }
}

/// The result of auditing a project.
#[derive(Debug)]
pub struct AuditReport {
    /// All findings, in path/line order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Functions analyzed.
    pub functions: usize,
    /// Source lines scanned.
    pub lines: usize,
    /// The knowledge base the checkers ran with (after discovery),
    /// shared with the cache entry that holds it.
    pub kb: Arc<ApiKb>,
    /// Per-file fault-isolation diagnostics.
    pub diagnostics: AuditDiagnostics,
    /// Cache hit/miss counters for this run. The plain [`audit`] entry
    /// point starts from an empty cache, so it counts every unit as a
    /// parse miss and every checked unit as a check miss.
    pub cache: CacheStats,
    /// Each unit's parse-layer key, in unit order: how a caller holding
    /// the audit's cache finds the ASTs it parsed (the left-behind
    /// sweep) without keeping them alive past the cache.
    pub(crate) unit_keys: Vec<u64>,
}

impl AuditReport {
    /// Findings per anti-pattern.
    pub fn by_pattern(&self) -> BTreeMap<AntiPattern, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.pattern).or_insert(0) += 1;
        }
        map
    }

    /// Findings per impact.
    pub fn by_impact(&self) -> BTreeMap<Impact, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.impact).or_insert(0) += 1;
        }
        map
    }

    /// Findings per (subsystem, module), derived from paths.
    pub fn by_module(&self) -> BTreeMap<(String, String), Vec<&Finding>> {
        let mut map: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
        for f in &self.findings {
            let mut parts = f.file.split('/');
            let subsystem = parts.next().unwrap_or("").to_string();
            let module = parts.next().unwrap_or("").to_string();
            map.entry((subsystem, module)).or_default().push(f);
        }
        map
    }
}

// ----------------------------------------------------------------------
// The fault boundary.
// ----------------------------------------------------------------------

thread_local! {
    static IN_BOUNDARY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once) a panic hook that stays quiet for panics caught by a
/// fault boundary, so a corrupt file does not spray backtraces over the
/// audit output; panics outside a boundary keep the previous behavior.
fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_BOUNDARY.with(|b| b.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// Runs `f` inside the per-unit fault boundary, converting a panic into
/// `Err(message)`.
fn fault_boundary<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    IN_BOUNDARY.with(|b| b.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    IN_BOUNDARY.with(|b| b.set(false));
    result.map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

/// Per-unit bookkeeping folded together when the report is assembled.
struct UnitState {
    path: String,
    /// Whether the unit produced an analyzable AST.
    analyzed: bool,
    errors: Vec<UnitErrorKind>,
    detail: String,
}

impl UnitState {
    fn push(&mut self, kind: UnitErrorKind, detail: impl Into<String>) {
        if !self.errors.contains(&kind) {
            self.errors.push(kind);
        }
        if self.detail.is_empty() {
            self.detail = detail.into();
        }
    }

    fn outcome(&self) -> UnitOutcome {
        if !self.analyzed {
            UnitOutcome::Skipped
        } else if self.errors.is_empty() {
            UnitOutcome::Ok
        } else {
            UnitOutcome::Degraded
        }
    }
}

/// The phase-1 pass for one unit, computing only what the barrier
/// reads. The byte-cap check, the limited parse and the discovery facts
/// (classified against the builtin `seed` KB) run inside the unit's
/// fault boundary; the parse's one lex also yields the unit's
/// `#define`s, and only a unit truncated at the token cap is lexed a
/// second time ([`scan_defines`]) for the directives past the cap. The
/// function-effect digest runs in a second boundary once the first has
/// closed, from each function's CFG and node facts alone — no full
/// graph, whose one build per unit is `check_one`'s — and is timed as
/// an `export.unit` span. Units that did not parse — and units whose
/// extraction faults — get an empty digest under their own path (and no
/// extra diagnostic), so unit indexing in the merged database never
/// shifts.
fn parse_unit(
    unit: &SourceUnit,
    seed: &ApiKb,
    limits: &AuditLimits,
    parse_limits: &ParseLimits,
    trace: &TraceHandle,
) -> ParsedUnit {
    let no_exports = || UnitExports {
        path: unit.path.clone(),
        ..UnitExports::default()
    };
    if unit.text.len() > limits.max_file_bytes {
        return ParsedUnit {
            tu: None,
            parsed_ok: false,
            defines: Vec::new(),
            errors: vec![CachedError {
                kind: UnitErrorKind::Oversize,
                detail: format!(
                    "{} bytes exceeds the {}-byte cap",
                    unit.text.len(),
                    limits.max_file_bytes
                ),
            }],
            // Skipped outright: contributes no lines to the totals.
            lines: 0,
            discovery: UnitDiscovery::default(),
            exports: no_exports(),
            exports_faulted: false,
        };
    }
    let lines = unit.text.lines().count();
    let parsed = fault_boundary(|| {
        let mut out = parse_str_limited(&unit.path, &unit.text, parse_limits);
        let defs = if out.truncated {
            scan_defines(&unit.text)
        } else {
            std::mem::take(&mut out.defines)
        };
        let discovery = discover_unit(&out.unit, seed);
        (defs, out, discovery)
    });
    match parsed {
        Ok((defines, out, discovery)) => {
            let mut errors = Vec::new();
            if let Some(first) = out.lex_errors.first() {
                errors.push(CachedError {
                    kind: UnitErrorKind::LexNoise,
                    detail: format!("{} lex error(s), first: {first}", out.lex_errors.len()),
                });
            }
            if out.truncated {
                errors.push(CachedError {
                    kind: UnitErrorKind::TokenCap,
                    detail: format!("token stream truncated at {}", parse_limits.max_tokens),
                });
            }
            if out.depth_capped {
                errors.push(CachedError {
                    kind: UnitErrorKind::ParseDepth,
                    detail: format!("nesting exceeded depth {}", parse_limits.max_depth),
                });
            }
            let tu = out.unit;
            let start = Instant::now();
            let exported =
                fault_boundary(|| UnitExports::of_unit(&unit.path, &tu, limits.max_graph_nodes));
            trace.record_span("export.unit", Some(&unit.path), start, start.elapsed());
            let exports_faulted = exported.is_err();
            let exports = exported.unwrap_or_else(|_| no_exports());
            ParsedUnit {
                tu: Some(Arc::new(tu)),
                parsed_ok: true,
                defines,
                errors,
                lines,
                discovery,
                exports,
                exports_faulted,
            }
        }
        Err(msg) => ParsedUnit {
            tu: None,
            parsed_ok: false,
            defines: Vec::new(),
            errors: vec![CachedError {
                kind: UnitErrorKind::LexPanic,
                detail: format!("parse panicked: {msg}"),
            }],
            lines,
            discovery: UnitDiscovery::default(),
            exports: no_exports(),
            exports_faulted: false,
        },
    }
}

/// The phase-2 check stage for one unit: the unit's one full graph
/// build (CFG, facts, origins, error blocks, feasibility — timed as a
/// `feasibility` span) and the template engine against the merged
/// program database, inside the unit's fault boundary. When the parse-layer
/// entry came from disk (no retained AST), the unit is re-parsed here
/// first — parsing is deterministic, so the rehydrated AST is the one
/// the entry describes.
#[allow(clippy::too_many_arguments)]
fn check_one(
    unit: &SourceUnit,
    parsed: &ParsedUnit,
    kb: &ApiKb,
    program: &ProgramDb,
    limits: &AuditLimits,
    parse_limits: &ParseLimits,
    only_patterns: Option<&[AntiPattern]>,
    trace: &TraceHandle,
) -> CheckedUnit {
    let rehydrated;
    let tu: &TranslationUnit = match parsed.tu.as_deref() {
        Some(tu) => tu,
        None => {
            match fault_boundary(|| parse_str_limited(&unit.path, &unit.text, parse_limits).unit) {
                Ok(tu) => {
                    rehydrated = tu;
                    &rehydrated
                }
                Err(msg) => {
                    return CheckedUnit {
                        findings: Vec::new(),
                        functions: 0,
                        errors: vec![CachedError {
                            kind: UnitErrorKind::CheckPanic,
                            detail: format!("check panicked: {msg}"),
                        }],
                    }
                }
            }
        }
    };
    let start = Instant::now();
    let checked = fault_boundary(|| {
        let (graphs, capped, feas) =
            FunctionGraph::build_all_limited_timed(tu, limits.max_graph_nodes);
        let checkers = match only_patterns {
            Some(ps) => checkers_for_patterns(ps),
            None => default_checkers(),
        };
        let engines: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(TemplateEngine::new(checkers))];
        let fs = run_engines_traced(tu, kb, &graphs, &engines, program, trace);
        (graphs.len(), capped, fs, feas)
    });
    match checked {
        Ok((functions, capped, findings, feas)) => {
            trace.record_span("feasibility", Some(&unit.path), start, feas);
            let mut errors = Vec::new();
            if let Some(first) = capped.first() {
                errors.push(CachedError {
                    kind: UnitErrorKind::GraphBlowup,
                    detail: first.to_string(),
                });
            }
            CheckedUnit {
                findings,
                functions,
                errors,
            }
        }
        Err(msg) => CheckedUnit {
            findings: Vec::new(),
            functions: 0,
            errors: vec![CachedError {
                kind: UnitErrorKind::CheckPanic,
                detail: format!("check panicked: {msg}"),
            }],
        },
    }
}

/// Runs the full audit over a project.
///
/// # Examples
///
/// ```
/// use refminer::{audit, AuditConfig, Project};
///
/// let p = Project::from_sources(vec![(
///     "drivers/x/x.c".to_string(),
///     r#"
///     int probe(void)
///     {
///             struct device_node *np = of_find_node_by_name(NULL, "x");
///             if (!np)
///                     return -ENODEV;
///             return 0;
///     }
///     "#
///     .to_string(),
/// )]);
/// let report = audit(&p, &AuditConfig::default());
/// assert_eq!(report.findings.len(), 1);
/// assert!(report.diagnostics.is_clean());
/// ```
pub fn audit(project: &Project, config: &AuditConfig) -> AuditReport {
    audit_with_cache(project, config, &mut AuditCache::new())
}

/// Runs the full audit through an explicit [`AuditCache`].
///
/// The first run over a tree populates the cache; later runs through
/// the *same* cache skip every stage whose inputs are unchanged. The
/// report is byte-identical to [`audit`]'s — caching only changes which
/// work executes, never its result — and [`AuditReport::cache`] records
/// this run's hits and misses. Once the run completes, the cache keeps
/// only what it and the previous run read (see [`AuditCache`]).
pub fn audit_with_cache(
    project: &Project,
    config: &AuditConfig,
    cache: &mut AuditCache,
) -> AuditReport {
    audit_traced(project, config, cache, &TraceHandle::disabled())
}

/// Runs the full audit, recording structured spans and counters into a
/// [`TraceHandle`] — the `refminer audit --trace` entry point.
///
/// Tracing is strictly observational: the report (findings, counters,
/// diagnostics) is byte-identical whether the handle records or is
/// disabled, at any `jobs` count and any cache temperature. Every
/// pipeline stage opens a span (`hash`, `parse`, `check`, `report`,
/// and `merge.kb` and `merge.progdb` when the memoized barrier misses
/// or a check miss needs the database), per-unit work opens
/// `{stage}.unit` spans, each unit's export step lands in an
/// `export.unit` span inside its `parse.unit`, the feasibility
/// fixpoint's share of graph construction lands in `feasibility` spans,
/// and cache traffic, scheduler worker counts, per-checker time and
/// limit trips land in counters.
pub fn audit_traced(
    project: &Project,
    config: &AuditConfig,
    cache: &mut AuditCache,
    trace: &TraceHandle,
) -> AuditReport {
    audit_cancellable(project, config, cache, trace, &CancelToken::never())
        .expect("a never-cancelled audit cannot be cancelled")
}

/// Runs the full audit under a [`CancelToken`] — the daemon entry
/// point, where every request carries a deadline.
///
/// The token is polled cooperatively at *unit boundaries*: once per
/// unit inside each fan-out stage and once between stages. A tripped
/// token makes in-flight workers return cheap placeholders, and the
/// pipeline bails at the next boundary — crucially **before** the
/// stage's cache-put loop, so placeholders never pollute any cache
/// layer. A cancelled audit therefore costs at most one unit's worth
/// of residual work per worker, leaves the cache exactly as consistent
/// as it found it, and drops no entry: only a completed audit retires
/// what neither it nor the previous one read.
pub fn audit_cancellable(
    project: &Project,
    config: &AuditConfig,
    cache: &mut AuditCache,
    trace: &TraceHandle,
    cancel: &CancelToken,
) -> Result<AuditReport, Cancelled> {
    cache.reset_stats();
    cancel.check()?;
    let limits = &config.limits;
    let parse_limits = ParseLimits {
        max_tokens: limits.max_tokens,
        max_depth: limits.max_parse_depth,
    };
    let units = project.units();
    let n = units.len();

    // Scan-time problems (unreadable/oversize files never became
    // units; non-UTF-8 units are in the project, decoded lossily).
    let mut scan_skipped: Vec<UnitDiagnostic> = Vec::new();
    for d in project.scan_diagnostics() {
        match d.kind {
            ScanErrorKind::UnreadableFile => scan_skipped.push(UnitDiagnostic {
                path: d.path.clone(),
                outcome: UnitOutcome::Skipped,
                errors: vec![UnitErrorKind::Io],
                detail: d.detail.clone(),
            }),
            ScanErrorKind::Oversize => scan_skipped.push(UnitDiagnostic {
                path: d.path.clone(),
                outcome: UnitOutcome::Skipped,
                errors: vec![UnitErrorKind::Oversize],
                detail: d.detail.clone(),
            }),
            // NonUtf8 attaches to a live unit below; directory-level
            // problems have no unit to attach to.
            _ => {}
        }
    }
    let non_utf8: std::collections::BTreeSet<&str> = project
        .scan_diagnostics()
        .iter()
        .filter(|d| d.kind == ScanErrorKind::NonUtf8)
        .map(|d| d.path.as_str())
        .collect();

    // Per-unit cache keys: path and content hash mixed with the
    // phase-1 configuration. The path is part of the key because it
    // is part of every cached *value* — diagnostics, export linkage
    // scoping, and finding locations all embed it — so two files with
    // identical bytes at different paths must not share an entry (at
    // kernel scale the synthetic corpus really does produce such
    // twins). Hashing is pure per-unit work, so it fans out too. The
    // builtin seed KB keys the parse and discovery layers, classifies
    // every unit's discovery facts and seeds the KB merge.
    let (seed, seed_fp) = seed_kb();
    let parse_cfg = parse_config_fingerprint(config, *seed_fp);
    let hash_span = trace.span("hash");
    let unit_keys: Vec<u64> = run_indexed(units, config.jobs, trace, "hash", |_, u| {
        if cancel.is_cancelled() {
            return 0;
        }
        mix(
            mix(fnv1a(u.path.as_bytes()), content_hash(&u.text)),
            parse_cfg,
        )
    });
    drop(hash_span);
    cancel.check()?;

    // Tree fingerprint: every unit's path and key, plus the barrier
    // configuration; keys the memoized barrier.
    let mut tree_fp = barrier_config_fingerprint(config, *seed_fp);
    for (u, k) in units.iter().zip(&unit_keys) {
        tree_fp = mix(tree_fp, fnv1a(u.path.as_bytes()));
        tree_fp = mix(tree_fp, *k);
    }

    // ------------------------------------------------------------------
    // Phase 1: the per-unit pass (lex+parse, defines, discovery facts,
    // exports).
    // ------------------------------------------------------------------
    // Fanned out across workers, each unit inside its own fault
    // boundaries. Disk-loaded entries (no retained AST) are full hits —
    // they carry their exports, and the check stage rehydrates its own
    // unit on demand.
    let parse_span = trace.span("parse");
    let mut parsed: Vec<Option<Arc<ParsedUnit>>> = (0..n).map(|_| None).collect();
    let mut parse_todo: Vec<usize> = Vec::new();
    for i in 0..n {
        match cache.parse_get(unit_keys[i]) {
            Some(p) => parsed[i] = Some(p),
            None => parse_todo.push(i),
        }
    }
    let parsed_new = run_indexed(&parse_todo, config.jobs, trace, "parse", |_, &i| {
        if cancel.is_cancelled() {
            return cancelled_parse_placeholder();
        }
        let _unit_span = trace.unit_span("parse.unit", &units[i].path);
        parse_unit(&units[i], seed, limits, &parse_limits, trace)
    });
    // Bail *before* the put loop: a tripped token means some results
    // are placeholders, and none of them may enter the cache.
    cancel.check()?;
    for (&i, p) in parse_todo.iter().zip(parsed_new) {
        parsed[i] = Some(cache.parse_put(unit_keys[i], p));
    }
    drop(parse_span);
    let parsed: Vec<Arc<ParsedUnit>> = parsed
        .into_iter()
        .map(|p| p.expect("every unit has a parse entry after the put loop"))
        .collect();

    // ------------------------------------------------------------------
    // The barrier, memoized per tree: the knowledge-base merge, the
    // program-database merge and every unit's deps key.
    // ------------------------------------------------------------------
    cancel.check()?;
    let mut program: Option<ProgramDb> = None;
    let barrier = match cache.discovery_get(tree_fp) {
        Some(b) => b,
        None => {
            let kb = merge_kb(&parsed, config.discover_apis, trace);
            let db = build_program(&parsed, &kb, trace);
            let deps = deps_keys(&parsed, &kb, &db);
            program = Some(db);
            cache.discovery_put(tree_fp, Barrier { kb, deps })
        }
    };
    let kb = &barrier.kb;

    // ------------------------------------------------------------------
    // Phase 2: the check fan-out.
    // ------------------------------------------------------------------
    // Check keys fold the check configuration with the unit's deps key,
    // which folds the knowledge-base entry (or its absence) of every
    // name the unit calls or opens a macro loop with, and the
    // resolution and summary of every helper it calls. A newly
    // discovered API therefore re-checks only the units that name it,
    // and editing a helper's defining file re-checks exactly that file
    // and the units whose calls resolve into it.
    let check_cfg = check_config_fingerprint(config);
    let subsystem = config.subsystem.as_deref().map(|s| s.trim_end_matches('/'));
    let only_patterns = config.only_patterns.as_deref();

    // Probe the check layer for every unit that parsed and lies inside
    // the subsystem filter.
    let mut checked: Vec<Option<Arc<CheckedUnit>>> = (0..n).map(|_| None).collect();
    let mut check_todo: Vec<(usize, u64)> = Vec::new();
    for i in 0..n {
        if !parsed[i].parsed_ok {
            continue;
        }
        if let Some(prefix) = subsystem {
            let path = units[i].path.as_str();
            if path != prefix && !path.starts_with(&format!("{prefix}/")) {
                continue;
            }
        }
        let deps_fp = mix(check_cfg, barrier.deps[i]);
        match cache.check_get(unit_keys[i], deps_fp) {
            Some(c) => checked[i] = Some(c),
            None => check_todo.push((i, deps_fp)),
        }
    }
    // A memoized barrier built no database; the misses need one.
    let program = match program {
        Some(db) => db,
        None if check_todo.is_empty() => ProgramDb::empty(),
        None => build_program(&parsed, kb, trace),
    };
    let check_span = trace.span("check");
    let checked_new = run_indexed(&check_todo, config.jobs, trace, "check", |_, &(i, _)| {
        if cancel.is_cancelled() {
            return CheckedUnit::default();
        }
        let _unit_span = trace.unit_span("check.unit", &units[i].path);
        check_one(
            &units[i],
            &parsed[i],
            kb,
            &program,
            limits,
            &parse_limits,
            only_patterns,
            trace,
        )
    });
    cancel.check()?;
    for (&(i, deps_fp), c) in check_todo.iter().zip(checked_new) {
        checked[i] = Some(cache.check_put(unit_keys[i], deps_fp, c));
    }
    drop(check_span);

    // Merge, in unit index order, exactly as the sequential pipeline
    // would have: findings concatenated then canonically sorted, error
    // details taking the first-recorded value per unit.
    cancel.check()?;
    let report_span = trace.span("report");
    let mut findings: Vec<Finding> = Vec::new();
    let mut functions = 0usize;
    let mut lines = 0usize;
    let mut diagnostics = AuditDiagnostics::default();
    for d in scan_skipped {
        diagnostics.skipped += 1;
        diagnostics.units.push(d);
    }
    for i in 0..n {
        let p = &parsed[i];
        lines += p.lines;
        let mut st = UnitState {
            path: units[i].path.clone(),
            analyzed: p.parsed_ok,
            errors: Vec::new(),
            detail: String::new(),
        };
        if non_utf8.contains(units[i].path.as_str()) {
            st.push(UnitErrorKind::NonUtf8, "decoded lossily");
        }
        for e in &p.errors {
            st.push(e.kind, e.detail.clone());
        }
        if let Some(c) = &checked[i] {
            functions += c.functions;
            findings.extend(c.findings.iter().cloned());
            for e in &c.errors {
                st.push(e.kind, e.detail.clone());
            }
        }
        let outcome = st.outcome();
        match outcome {
            UnitOutcome::Ok => diagnostics.ok += 1,
            UnitOutcome::Degraded => diagnostics.degraded += 1,
            UnitOutcome::Skipped => diagnostics.skipped += 1,
        }
        if outcome != UnitOutcome::Ok {
            let mut errors = st.errors;
            errors.sort();
            diagnostics.units.push(UnitDiagnostic {
                path: st.path,
                outcome,
                errors,
                detail: st.detail,
            });
        }
    }
    sort_findings_canonical(&mut findings);
    // Report-layer filters, after the canonical sort so the result is
    // deterministic at any worker count: suppress paths the feasibility
    // engine proved unreachable, then collapse same-site findings of
    // one root-cause family into a single record.
    if config.feasibility {
        findings.retain(|f| f.feasibility != Feasibility::Infeasible);
    }
    merge_duplicate_findings(&mut findings);
    diagnostics.units.sort_by(|a, b| a.path.cmp(&b.path));
    drop(report_span);

    // The audit completed: the cache keeps what it and the previous
    // audit read, and counts as stale what it held but this audit did
    // not read.
    let (parse_stale, check_stale, discovery_stale) = cache.end_audit();
    if trace.is_enabled() {
        trace.add("units.total", n as u64);
        let s = &cache.stats;
        for (name, value) in [
            ("cache.parse.hit", s.parse_hits),
            ("cache.parse.miss", s.parse_misses),
            ("cache.parse.stale", parse_stale),
            ("cache.check.hit", s.check_hits),
            ("cache.check.miss", s.check_misses),
            ("cache.check.stale", check_stale),
            ("cache.discovery.hit", s.discovery_hits),
            ("cache.discovery.miss", s.discovery_misses),
            ("cache.discovery.stale", discovery_stale),
        ] {
            trace.add(name, value as u64);
        }
        // Limit trips, keyed by the diagnostic taxonomy.
        for (kind, count) in diagnostics.by_kind() {
            trace.add(&format!("limit.{}", kind.name()), count as u64);
        }
    }

    Ok(AuditReport {
        findings,
        files: n,
        functions,
        lines,
        kb: Arc::clone(kb),
        diagnostics,
        cache: cache.stats,
        unit_keys,
    })
}

/// The builtin seed KB and its fingerprint, built once per process.
fn seed_kb() -> &'static (Arc<ApiKb>, u64) {
    static SEED: OnceLock<(Arc<ApiKb>, u64)> = OnceLock::new();
    SEED.get_or_init(|| {
        let kb = ApiKb::builtin();
        let fp = kb_fingerprint(&kb);
        (Arc::new(kb), fp)
    })
}

/// The knowledge-base merge: the seed plus every unit's discovery
/// facts, or the seed alone when discovery is off. The merge folds
/// cached digests — no AST is touched — and runs in its own fault
/// boundary: if a degraded unit trips it, fall back to the builtin KB
/// rather than losing the audit.
fn merge_kb(parsed: &[Arc<ParsedUnit>], discover: bool, trace: &TraceHandle) -> Arc<ApiKb> {
    let _span = trace.span("merge.kb");
    let seed = &seed_kb().0;
    if !discover {
        return Arc::clone(seed);
    }
    let discs: Vec<&UnitDiscovery> = parsed.iter().map(|p| &p.discovery).collect();
    let defines: Vec<MacroDef> = parsed
        .iter()
        .flat_map(|p| p.defines.iter().cloned())
        .collect();
    fault_boundary(|| {
        let d = merge_discoveries(&discs, &defines, seed, &DiscoverConfig::default());
        Arc::new(d.into_kb((**seed).clone()))
    })
    .unwrap_or_else(|_| Arc::clone(seed))
}

/// The program-database merge: every unit's exports, in unit index
/// order, under linkage rules.
fn build_program(parsed: &[Arc<ParsedUnit>], kb: &ApiKb, trace: &TraceHandle) -> ProgramDb {
    let _span = trace.span("merge.progdb");
    let exports: Vec<&UnitExports> = parsed.iter().map(|p| &p.exports).collect();
    ProgramDb::build(&exports, kb, true)
}

/// The cheap stand-in a parse worker returns after observing a tripped
/// token mid-fan-out. Never cached, never reported — the pipeline bails
/// at the next boundary before either could happen.
fn cancelled_parse_placeholder() -> ParsedUnit {
    ParsedUnit {
        tu: None,
        parsed_ok: false,
        defines: Vec::new(),
        errors: Vec::new(),
        lines: 0,
        discovery: UnitDiscovery::default(),
        exports: UnitExports::default(),
        exports_faulted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_corpus::{generate_tree, TreeConfig};
    use std::collections::HashSet;

    #[test]
    fn audits_synthetic_tree_slice() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.05,
            include_tricky: false,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let report = audit(&project, &AuditConfig::default());
        assert!(report.functions > 50);
        assert!(report.diagnostics.is_clean());
        assert_eq!(report.diagnostics.ok, report.files);
        // Every injected bug should be found (recall ≈ 1 on the
        // generated shapes).
        let found = tree
            .manifest
            .bugs
            .iter()
            .filter(|b| {
                report
                    .findings
                    .iter()
                    .any(|f| f.file == b.path && f.function == b.function)
            })
            .count();
        assert_eq!(found, tree.manifest.bugs.len(), "missed bugs");
    }

    #[test]
    fn cancelled_audit_leaves_cache_unpolluted() {
        use crate::cancel::{CancelReason, CancelToken};

        let tree = generate_tree(&TreeConfig {
            scale: 0.03,
            include_tricky: false,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let cfg = AuditConfig::default();
        let trace = TraceHandle::disabled();

        // Pre-cancelled: the audit must bail without persisting any of
        // the placeholder results its workers produce.
        let mut cache = AuditCache::new();
        let token = CancelToken::new();
        token.cancel();
        let err = audit_cancellable(&project, &cfg, &mut cache, &trace, &token).unwrap_err();
        assert_eq!(err.reason, CancelReason::Explicit);
        assert!(cache.is_empty(), "cancelled audit polluted the cache");

        // Same for a deadline that has already passed.
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = audit_cancellable(&project, &cfg, &mut cache, &trace, &token).unwrap_err();
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);
        assert!(cache.is_empty());

        // The untouched cache then behaves exactly like a fresh one:
        // the follow-up audit runs fully cold and matches a clean run.
        let after = audit_with_cache(&project, &cfg, &mut cache);
        let clean = audit_with_cache(&project, &cfg, &mut AuditCache::new());
        assert_eq!(after.findings, clean.findings);
        assert_eq!(after.cache.parse_hits, 0, "cache was not cold");
    }

    #[test]
    fn cancelled_audit_through_a_warm_cache_drops_nothing() {
        use crate::cancel::CancelToken;

        // A cache holding two trees. Neither a pre-cancelled audit nor
        // one past its deadline may drop an entry, and neither counts as
        // one of the two audits whose entries the cache keeps: the next
        // completed audit, of the first tree, keeps the second.
        let tree = |seed| {
            Project::from_tree(&generate_tree(&TreeConfig {
                seed,
                scale: 0.03,
                include_tricky: false,
                ..Default::default()
            }))
        };
        let (a, b) = (tree(1), tree(2));
        let cfg = AuditConfig::default();
        let trace = TraceHandle::disabled();
        let mut cache = AuditCache::new();
        audit_with_cache(&a, &cfg, &mut cache);
        audit_with_cache(&b, &cfg, &mut cache);
        let warm = cache.len();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for token in [
            cancelled,
            CancelToken::with_timeout(std::time::Duration::ZERO),
        ] {
            for project in [&a, &b] {
                assert!(audit_cancellable(project, &cfg, &mut cache, &trace, &token).is_err());
                assert_eq!(cache.len(), warm, "a cancelled audit dropped entries");
            }
        }
        let again = audit_with_cache(&a, &cfg, &mut cache);
        assert_eq!((again.cache.parse_misses, again.cache.check_misses), (0, 0));
        assert_eq!(cache.len(), warm, "a cancelled audit counted as one kept");
    }

    #[test]
    fn dropping_asts_changes_nothing_but_memory() {
        // The cache file persists no ASTs, so a reopened cache serves
        // parse hits without one. A check-layer-only change (an
        // explicit list of all nine patterns, which finds the same but
        // keys the check layer differently) misses every check entry
        // while keeping the parse layer
        // warm: the check stage must re-parse each unit from its text
        // and reproduce what a fresh in-memory audit finds. The
        // cross-unit tree makes findings depend on the disk-loaded
        // exports too.
        let tree = generate_tree(&TreeConfig {
            scale: 0.04,
            cross_unit: true,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let dir = std::env::temp_dir().join(format!("refminer_rehydrate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AuditConfig {
            jobs: 4,
            ..Default::default()
        };
        let mut cache = AuditCache::with_dir(&dir);
        audit_with_cache(&project, &cfg, &mut cache);
        cache.save().expect("save the cache");

        let recheck_cfg = AuditConfig {
            only_patterns: Some(AntiPattern::all().to_vec()),
            ..cfg
        };
        let mut reopened = AuditCache::with_dir(&dir);
        let rehydrated = audit_with_cache(&project, &recheck_cfg, &mut reopened);
        let fresh = audit(&project, &recheck_cfg);
        std::fs::remove_dir_all(&dir).ok();

        let files = tree.files.len();
        assert_eq!(rehydrated.cache.parse_misses, 0, "parse layer went cold");
        assert_eq!(rehydrated.cache.check_misses, files);
        assert_eq!(rehydrated.findings, fresh.findings);
        assert_eq!(rehydrated.functions, fresh.functions);
    }

    #[test]
    fn warm_audit_of_a_seen_tree_builds_no_program_db() {
        // The barrier is memoized per tree: a second audit of the same
        // tree merges nothing, and with every check entry a hit it
        // builds no `ProgramDb` (no `merge.progdb` span). A check-layer
        // miss (here: a new check key) builds it again.
        let tree = generate_tree(&TreeConfig {
            scale: 0.03,
            cross_unit: true,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let cfg = AuditConfig::default();
        let mut cache = AuditCache::new();
        let stages = |cfg: &AuditConfig, cache: &mut AuditCache| {
            let trace = TraceHandle::recording();
            let report = audit_traced(&project, cfg, cache, &trace);
            let log = trace.finish().expect("a recording handle yields a log");
            let stages: HashSet<String> = log.spans.into_iter().map(|s| s.stage).collect();
            (report, stages)
        };
        let (cold, cold_stages) = stages(&cfg, &mut cache);
        assert!(cold_stages.contains("merge.kb") && cold_stages.contains("merge.progdb"));
        let (warm, warm_stages) = stages(&cfg, &mut cache);
        assert_eq!(warm.cache.discovery_hits, 1);
        assert_eq!(warm.cache.check_misses, 0);
        assert!(!warm_stages.contains("merge.kb"), "{warm_stages:?}");
        assert!(!warm_stages.contains("merge.progdb"), "{warm_stages:?}");
        assert_eq!(warm.findings, cold.findings);
        let all_patterns = AuditConfig {
            only_patterns: Some(AntiPattern::all().to_vec()),
            ..AuditConfig::default()
        };
        let (rechecked, stages) = stages(&all_patterns, &mut cache);
        assert_eq!(rechecked.cache.discovery_hits, 1);
        assert_eq!(rechecked.cache.check_misses, tree.files.len());
        assert!(stages.contains("merge.progdb"), "{stages:?}");
        assert_eq!(
            rechecked.findings,
            audit(&project, &all_patterns).findings,
            "a database built after a memoized barrier is the one it memoized"
        );
    }

    #[test]
    fn discovery_adds_apis() {
        let p = Project::from_sources(vec![(
            "drivers/w/w.c".to_string(),
            r#"
struct widget { struct kref refs; };
void widget_put(struct widget *w) { kref_put(&w->refs, widget_free); }
"#
            .to_string(),
        )]);
        let report = audit(&p, &AuditConfig::default());
        assert!(report.kb.is_dec("widget_put"));
    }

    #[test]
    fn groupings_consistent() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.03,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let report = audit(&project, &AuditConfig::default());
        let per_pattern: usize = report.by_pattern().values().sum();
        let per_impact: usize = report.by_impact().values().sum();
        assert_eq!(per_pattern, report.findings.len());
        assert_eq!(per_impact, report.findings.len());
    }

    #[test]
    fn oversize_unit_is_skipped_with_diagnostic() {
        let big = "int x;\n".repeat(400);
        let p = Project::from_sources(vec![
            ("a.c".to_string(), "int f(void) { return 0; }".to_string()),
            ("big.c".to_string(), big),
        ]);
        let config = AuditConfig {
            limits: AuditLimits {
                max_file_bytes: 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = audit(&p, &config);
        assert_eq!(report.diagnostics.ok, 1);
        assert_eq!(report.diagnostics.skipped, 1);
        let d = &report.diagnostics.units[0];
        assert_eq!(d.path, "big.c");
        assert_eq!(d.outcome, UnitOutcome::Skipped);
        assert_eq!(d.errors, vec![UnitErrorKind::Oversize]);
    }

    #[test]
    fn smartloop_defined_past_the_token_cap_still_reaches_the_kb() {
        // The parse's lexer stops at the token cap, so it never sees
        // this define; the truncated unit is scanned once more for it.
        let mut text = String::from("int busy(void)\n{\n");
        for i in 0..40 {
            text.push_str(&format!("        step({i});\n"));
        }
        text.push_str(
            "        return 0;\n}\n\
             #define for_each_gizmo(parent, g) \\\n\
             \tfor (g = of_get_next_child(parent, NULL); g; \\\n\
             \t     g = of_get_next_child(parent, g))\n",
        );
        let p = Project::from_sources(vec![("drivers/g/g.c".to_string(), text)]);
        let config = AuditConfig {
            limits: AuditLimits {
                max_tokens: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = audit(&p, &config);
        assert_eq!(
            report.diagnostics.units[0].errors,
            vec![UnitErrorKind::TokenCap]
        );
        assert!(
            report.kb.smartloop("for_each_gizmo").is_some(),
            "the smartloop past the cap was lost"
        );
    }

    #[test]
    fn deep_nesting_degrades_one_unit_without_losing_the_other() {
        let depth = 3000;
        let bomb = format!(
            "int f(void) {{ return {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let healthy = r#"
int probe(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        return 0;
}
"#
        .to_string();
        let p = Project::from_sources(vec![
            ("bomb.c".to_string(), bomb),
            ("ok.c".to_string(), healthy),
        ]);
        let report = audit(&p, &AuditConfig::default());
        assert_eq!(report.diagnostics.degraded, 1);
        assert_eq!(report.diagnostics.ok, 1);
        let d = &report.diagnostics.units[0];
        assert_eq!(d.path, "bomb.c");
        assert!(d.errors.contains(&UnitErrorKind::ParseDepth));
        // The healthy sibling still yields its finding.
        assert!(report.findings.iter().any(|f| f.file == "ok.c"));
    }

    #[test]
    fn identical_content_at_two_paths_keeps_per_path_results_warm() {
        // Two byte-identical buggy files at different paths. Every
        // cached value embeds its unit's path (diagnostics, export
        // linkage scoping, finding locations), so the twins must not
        // share cache entries: the warm run has to report the finding
        // under *both* paths, from pure hits. The kernel-scale corpus
        // really produces such twins across replicas.
        let leaky = r#"
int probe(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        return 0;
}
"#
        .to_string();
        let p = Project::from_sources(vec![
            ("drivers/a/probe.c".to_string(), leaky.clone()),
            ("drivers/b/probe.c".to_string(), leaky),
        ]);
        let cfg = AuditConfig::default();
        let mut cache = AuditCache::new();
        let cold = audit_with_cache(&p, &cfg, &mut cache);
        let warm = audit_with_cache(&p, &cfg, &mut cache);
        for (name, report) in [("cold", &cold), ("warm", &warm)] {
            for path in ["drivers/a/probe.c", "drivers/b/probe.c"] {
                assert!(
                    report.findings.iter().any(|f| f.file == path),
                    "{name} run lost the finding for {path}"
                );
            }
        }
        assert_eq!(cold.findings, warm.findings);
        assert_eq!(warm.cache.parse_misses, 0, "warm twin re-parsed");
        assert_eq!(warm.cache.check_misses, 0, "warm twin re-checked");
    }

    #[test]
    fn fault_boundary_reports_panics() {
        let r: Result<(), String> = fault_boundary(|| panic!("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let ok = fault_boundary(|| 41 + 1);
        assert_eq!(ok.unwrap(), 42);
    }

    #[test]
    fn graph_cap_degrades_unit() {
        let mut body = String::from("int big(void) {\n");
        for i in 0..300 {
            body.push_str(&format!("        if (c{i}) do_thing({i});\n"));
        }
        body.push_str("        return 0;\n}\n");
        let p = Project::from_sources(vec![("big.c".to_string(), body)]);
        let config = AuditConfig {
            limits: AuditLimits {
                max_graph_nodes: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = audit(&p, &config);
        assert_eq!(report.diagnostics.degraded, 1);
        assert_eq!(
            report.diagnostics.units[0].errors,
            vec![UnitErrorKind::GraphBlowup]
        );
        // The over-cap function was not analyzed.
        assert_eq!(report.functions, 0);
    }
}
