//! The `refminer` command-line tool: audit a C source tree for
//! refcounting bugs with the nine anti-pattern checkers.
//!
//! ```text
//! refminer [OPTIONS] <PATH>
//! refminer eval [OPTIONS] <PATH>     score the audit against <PATH>/manifest.json
//! refminer eval --fixcheck <ROOT>    replay a histgen fix history through fixcheck
//! refminer diff [OPTIONS] <A> <B>    incremental audit: findings delta between two revisions
//! refminer sweep --at F:L <PATH>     sweep the tree for clones of one confirmed finding
//! refminer fixcheck <ROOT> <DIFF>    audit both sides of a fix diff; report what it left behind
//! refminer history <ROOT>            findings/KLoC per subsystem across a release corpus
//! refminer serve [OPTIONS] <PATH>    resident audit daemon (JSON-RPC over TCP/Unix socket)
//! refminer rpc <TARGET> <METHOD> …   one RPC against a running daemon
//!
//! OPTIONS:
//!     --pattern <P1..P9>[,..]  only report these anti-patterns (report filter)
//!     --only-pattern <P1..>[,..] only *run* these patterns' checkers
//!     --subsystem <PREFIX>     only audit units under this path prefix
//!     --impact <leak|uaf|npd>  only report these impacts
//!     --no-feasibility         keep findings on infeasible paths
//!     --json                   emit findings (or the eval report) as JSON
//!     --csv                    emit findings as CSV
//!     --no-discovery           skip API/smartloop discovery
//!     --stats                  print per-pattern/per-impact summaries, plus
//!                              the trace summary (per-stage times, slowest
//!                              units, per-checker time, cache hit rates)
//!     --trace <FILE>           write a structured span/counter log (JSON
//!                              lines) covering every pipeline stage
//!     --strict                 exit 3 if any unit was degraded/skipped
//!     --max-file-bytes <N>     skip files larger than N bytes
//!     --jobs <N>               worker threads (0 = one per CPU, default)
//!     --cache-dir <DIR>        persist per-unit results across runs
//!     -h, --help               print this help
//! ```
//!
//! `--pattern` filters the report after the fact; `--only-pattern`
//! narrows which checkers run at all (and keys the result cache, so
//! narrowed runs never poison full-run entries).
//!
//! Exit codes: 0 no findings, 1 findings, 2 usage/scan error, 3 strict
//! mode and at least one unit was not fully analyzed.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use refminer::checkers::{AntiPattern, Impact};
use refminer::corpus::Manifest;
use refminer::report::Table;
use refminer::serve::protocol::{encode_request, Method, QueryFilter, Request};
use refminer::serve::{
    render_diagnostics_line, render_finding_line, rpc_roundtrip, run_serve, ServeConfig,
    ServeOptions, WatchOptions,
};
use refminer::{
    audit_traced, audit_with_cache, diff_projects, evaluate, fixcheck_project, render_diff_lines,
    sweep_clones, AuditCache, AuditConfig, AuditLimits, DiffOptions, Project, Revision,
    ScanOptions, TraceHandle,
};
use refminer_json::{obj, ToJson, Value};

/// Set once stdout's reader has gone away; every later write is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// The CLI's one stdout writer, behind `out!` and `outln!`. A reader
/// that closes early (`refminer --json <tree> | head -1`) ends the output
/// quietly: the first `BrokenPipe` stops every later write and prints
/// nothing, and the run still exits with the status it would have had.
/// Any other write error is reported once on stderr, and stops the
/// output too.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("refminer: cannot write to stdout: {e}");
        }
    }
}

/// `print!` through `write_stdout`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through `write_stdout`.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

struct Options {
    eval: bool,
    sweep_eval: bool,
    fixcheck_eval: bool,
    path: PathBuf,
    patterns: Option<Vec<AntiPattern>>,
    only_patterns: Option<Vec<AntiPattern>>,
    subsystem: Option<String>,
    impacts: Option<Vec<Impact>>,
    feasibility: bool,
    json: bool,
    csv: bool,
    discovery: bool,
    stats: bool,
    strict: bool,
    trace: Option<PathBuf>,
    max_file_bytes: Option<u64>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: refminer [eval [--sweep|--fixcheck]] [--pattern P4,P8] [--only-pattern P4,P8] \
         [--subsystem PREFIX] [--impact leak,uaf,npd] [--no-feasibility] [--json|--csv] \
         [--no-discovery] [--stats] [--strict] [--trace FILE] [--max-file-bytes N] [--jobs N] \
         [--cache-dir DIR] <PATH>"
    );
    std::process::exit(2);
}

fn parse_impact(s: &str) -> Option<Impact> {
    match s.to_ascii_lowercase().as_str() {
        "leak" => Some(Impact::Leak),
        "uaf" => Some(Impact::Uaf),
        "npd" => Some(Impact::Npd),
        _ => None,
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        eval: false,
        sweep_eval: false,
        fixcheck_eval: false,
        path: PathBuf::new(),
        patterns: None,
        only_patterns: None,
        subsystem: None,
        impacts: None,
        feasibility: true,
        json: false,
        csv: false,
        discovery: true,
        stats: false,
        strict: false,
        trace: None,
        max_file_bytes: None,
        jobs: 0,
        cache_dir: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("eval") {
        opts.eval = true;
        args.next();
    }
    let mut path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => usage(),
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            "--sweep" if opts.eval => opts.sweep_eval = true,
            "--fixcheck" if opts.eval => opts.fixcheck_eval = true,
            "--no-discovery" => opts.discovery = false,
            "--no-feasibility" => opts.feasibility = false,
            "--stats" => opts.stats = true,
            "--strict" => opts.strict = true,
            "--jobs" => {
                let value = args.next().unwrap_or_else(|| usage());
                match value.parse::<usize>() {
                    Ok(n) => opts.jobs = n,
                    Err(_) => {
                        eprintln!("--jobs needs a non-negative integer, got `{value}`");
                        usage();
                    }
                }
            }
            "--cache-dir" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.cache_dir = Some(PathBuf::from(value));
            }
            "--trace" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.trace = Some(PathBuf::from(value));
            }
            "--max-file-bytes" => {
                let value = args.next().unwrap_or_else(|| usage());
                match value.parse::<u64>() {
                    Ok(n) if n > 0 => opts.max_file_bytes = Some(n),
                    _ => {
                        eprintln!("--max-file-bytes needs a positive integer, got `{value}`");
                        usage();
                    }
                }
            }
            "--pattern" => {
                let value = args.next().unwrap_or_else(|| usage());
                let parsed: Option<Vec<AntiPattern>> =
                    value.split(',').map(AntiPattern::from_id).collect();
                match parsed {
                    Some(v) => opts.patterns = Some(v),
                    None => {
                        eprintln!("unknown anti-pattern in `{value}`");
                        usage();
                    }
                }
            }
            "--only-pattern" => {
                let value = args.next().unwrap_or_else(|| usage());
                let parsed: Option<Vec<AntiPattern>> =
                    value.split(',').map(AntiPattern::from_id).collect();
                match parsed {
                    Some(v) if !v.is_empty() => opts.only_patterns = Some(v),
                    _ => {
                        eprintln!("unknown anti-pattern in `{value}`");
                        usage();
                    }
                }
            }
            "--subsystem" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.subsystem = Some(value);
            }
            "--impact" => {
                let value = args.next().unwrap_or_else(|| usage());
                let parsed: Option<Vec<Impact>> = value.split(',').map(parse_impact).collect();
                match parsed {
                    Some(v) => opts.impacts = Some(v),
                    None => {
                        eprintln!("unknown impact in `{value}`");
                        usage();
                    }
                }
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            other => {
                if path.is_some() {
                    usage();
                }
                path = Some(PathBuf::from(other));
            }
        }
    }
    opts.path = path.unwrap_or_else(|| usage());
    opts
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => return serve_main(),
        Some("rpc") => return rpc_main(),
        Some("diff") => return diff_main(),
        Some("sweep") => return sweep_main(),
        Some("fixcheck") => return fixcheck_main(),
        Some("history") => return history_main(),
        _ => {}
    }
    let opts = parse_args();
    // `eval --fixcheck` takes a histgen fix-history root, not a single
    // source tree: route it before the ordinary scan/audit path.
    if opts.eval && opts.fixcheck_eval {
        return run_fixcheck_eval(&opts);
    }
    // Recording is observation-only (findings are byte-identical either
    // way), so `--stats` alone also gets the full trace summary.
    let trace = if opts.trace.is_some() || opts.stats {
        TraceHandle::recording()
    } else {
        TraceHandle::disabled()
    };
    let mut scan_opts = ScanOptions::default();
    if let Some(n) = opts.max_file_bytes {
        scan_opts.max_file_bytes = n;
    }
    let scan_span = trace.span("scan");
    let project = match Project::scan_with(&opts.path, &scan_opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("refminer: cannot scan {}: {e}", opts.path.display());
            return ExitCode::from(2);
        }
    };
    if project.units().is_empty() && project.scan_diagnostics().is_empty() {
        eprintln!("refminer: no .c/.h files under {}", opts.path.display());
        return ExitCode::from(2);
    }
    drop(scan_span);
    let mut limits = AuditLimits::default();
    if let Some(n) = opts.max_file_bytes {
        limits.max_file_bytes = n as usize;
    }
    let cache_span = trace.span("cache.load");
    let mut cache = match &opts.cache_dir {
        Some(dir) => AuditCache::with_dir(dir),
        None => AuditCache::new(),
    };
    drop(cache_span);
    let config = AuditConfig {
        discover_apis: opts.discovery,
        limits,
        jobs: opts.jobs,
        feasibility: opts.feasibility,
        only_patterns: opts.only_patterns.clone(),
        subsystem: opts.subsystem.clone(),
    };
    let report = audit_traced(&project, &config, &mut cache, &trace);
    if opts.cache_dir.is_some() {
        let save_span = trace.span("cache.save");
        if let Err(e) = cache.save() {
            eprintln!("refminer: warning: could not write cache: {e}");
        }
        drop(save_span);
    }
    if opts.eval {
        let eval_span = trace.span("eval");
        let tree = Revision::audited(&project, &report, &cache, &config);
        let code = run_eval(&opts, &tree, &report);
        drop(eval_span);
        free_cache(cache, &trace);
        finish_trace(&opts, &trace);
        return code;
    }
    free_cache(cache, &trace);
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            opts.patterns
                .as_ref()
                .map(|ps| ps.contains(&f.pattern))
                .unwrap_or(true)
                && opts
                    .impacts
                    .as_ref()
                    .map(|is| is.contains(&f.impact))
                    .unwrap_or(true)
        })
        .collect();

    if opts.json {
        // The daemon's `query` responses reuse these exact renderers,
        // so its output can be diffed byte-for-byte against this path.
        for f in &findings {
            outln!("{}", render_finding_line(f));
        }
        // A clean run emits findings only; the diagnostics line appears
        // exactly when something was lost, so its presence is itself
        // the signal.
        if let Some(line) = render_diagnostics_line(&report.diagnostics) {
            outln!("{line}");
        }
    } else if opts.csv {
        let mut t = Table::new(vec![
            "file", "line", "pattern", "impact", "api", "function", "object",
        ]);
        for f in &findings {
            t.row(vec![
                f.file.clone(),
                f.line.to_string(),
                f.pattern.to_string(),
                f.impact.to_string(),
                f.api.clone(),
                f.function.clone(),
                f.object.clone().unwrap_or_default(),
            ]);
        }
        out!("{}", t.to_csv());
    } else {
        for f in &findings {
            outln!("{f}");
        }
    }

    if opts.stats {
        eprintln!(
            "\nscanned {} files, {} functions, {} lines; {} finding(s)",
            report.files,
            report.functions,
            report.lines,
            findings.len()
        );
        let mut by_pattern = Table::new(vec!["pattern", "count"]).numeric();
        for (p, c) in report.by_pattern() {
            by_pattern.row(vec![p.to_string(), c.to_string()]);
        }
        eprint!("{}", by_pattern.render());
        let d = &report.diagnostics;
        eprintln!(
            "units: {} ok, {} degraded, {} skipped",
            d.ok, d.degraded, d.skipped
        );
        let c = &report.cache;
        eprintln!(
            "cache: {} hit(s), {} miss(es), hit rate {:.0}%",
            c.parse_hits + c.check_hits,
            c.parse_misses + c.check_misses,
            c.hit_rate() * 100.0
        );
        if !d.is_clean() {
            for (kind, count) in d.by_kind() {
                eprintln!("  {}: {count}", kind.name());
            }
            for u in &d.units {
                eprintln!("  {} [{}] {}", u.path, u.outcome.name(), u.detail);
            }
        }
    }

    finish_trace(&opts, &trace);

    if opts.strict && !report.diagnostics.is_clean() {
        if !opts.stats {
            let d = &report.diagnostics;
            eprintln!(
                "refminer: strict mode: {} degraded, {} skipped unit(s)",
                d.degraded, d.skipped
            );
        }
        return ExitCode::from(3);
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Drops the audit's cache, which holds every unit's AST, inside a
/// `free` stage span, so that `--stats` and `--trace` account for the
/// free: on a large tree it is a visible share of the run.
fn free_cache(cache: AuditCache, trace: &TraceHandle) {
    let _span = trace.span("free");
    drop(cache);
}

/// Drains the trace recorder: writes the JSON-lines span log to the
/// `--trace` file (if requested) and, under `--stats`, prints the
/// rendered summary — per-stage wall times, slowest units, per-checker
/// time and cache/scheduler counters — to stderr.
fn finish_trace(opts: &Options, trace: &TraceHandle) {
    let Some(log) = trace.finish() else { return };
    if let Some(path) = &opts.trace {
        if let Err(e) = std::fs::write(path, log.to_jsonl()) {
            eprintln!("refminer: warning: could not write trace: {e}");
        }
    }
    if opts.stats {
        eprint!("{}", log.summary(10).render_text());
    }
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: refminer serve [--listen ADDR] [--socket PATH] [--cache-dir DIR] \
         [--jobs N] [--watch] [--poll-ms N] [--debounce-ms N] [--queue N] \
         [--deadline-ms N] [--inject-delay-ms N] [--no-discovery] [--trace FILE] <PATH>"
    );
    std::process::exit(2);
}

/// `refminer serve <DIR>`: the resident audit daemon. Prints
/// `listening on <addr>` once bound; stops on a `shutdown` RPC.
fn serve_main() -> ExitCode {
    let mut listen = "127.0.0.1:0".to_string();
    let mut socket: Option<PathBuf> = None;
    let mut cfg = ServeConfig::new(PathBuf::new());
    let mut watch = false;
    let mut watch_opts = WatchOptions::default();
    let mut trace_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(2);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            let value = args.next().unwrap_or_else(|| serve_usage());
            value.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("{name} needs a non-negative integer, got `{value}`");
                serve_usage();
            })
        };
        match arg.as_str() {
            "-h" | "--help" => serve_usage(),
            "--listen" => listen = args.next().unwrap_or_else(|| serve_usage()),
            "--socket" => {
                socket = Some(PathBuf::from(args.next().unwrap_or_else(|| serve_usage())))
            }
            "--cache-dir" => {
                cfg.cache_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| serve_usage())))
            }
            "--trace" => {
                trace_path = Some(PathBuf::from(args.next().unwrap_or_else(|| serve_usage())))
            }
            "--jobs" => cfg.audit.jobs = num("--jobs") as usize,
            "--watch" => watch = true,
            "--poll-ms" => watch_opts.poll_ms = num("--poll-ms"),
            "--debounce-ms" => watch_opts.debounce_ms = num("--debounce-ms"),
            "--queue" => cfg.queue_capacity = num("--queue").max(1) as usize,
            "--deadline-ms" => cfg.default_deadline_ms = num("--deadline-ms").max(1),
            "--inject-delay-ms" => cfg.inject_audit_delay_ms = num("--inject-delay-ms"),
            "--no-discovery" => cfg.audit.discover_apis = false,
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                serve_usage();
            }
            other => {
                if root.is_some() {
                    serve_usage();
                }
                root = Some(PathBuf::from(other));
            }
        }
    }
    cfg.root = root.unwrap_or_else(|| serve_usage());
    if trace_path.is_some() {
        cfg.trace = TraceHandle::recording();
    }
    let opts = ServeOptions {
        listen,
        socket,
        watch: watch.then_some(watch_opts),
        trace_path,
    };
    match run_serve(cfg, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("refminer serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn rpc_usage() -> ! {
    eprintln!(
        "usage: refminer rpc <TARGET> <METHOD> [ARGS]\n\
         TARGET: host:port or unix:/path/to.sock\n\
         METHODS:\n\
           audit [--deadline-ms N]\n\
           auditdiff [--deadline-ms N]\n\
           reaudit [--deadline-ms N] <FILE>...\n\
           query [--subsystem S] [--pattern P] [--verdict V]\n\
           fixcheck [--deadline-ms N] <DIFF-FILE>\n\
           status\n\
           shutdown"
    );
    std::process::exit(2);
}

/// `refminer rpc <TARGET> <METHOD>`: one request against a running
/// daemon. `query` prints the finding lines raw (diffable against the
/// one-shot `--json` output); other methods print the result object.
/// Exit 0 on success, 1 on an RPC error response, 2 on usage/transport
/// problems.
fn rpc_main() -> ExitCode {
    let mut args = std::env::args().skip(2);
    let target = args.next().unwrap_or_else(|| rpc_usage());
    let method_name = args.next().unwrap_or_else(|| rpc_usage());
    let mut deadline_ms: Option<u64> = None;
    let mut files: Vec<String> = Vec::new();
    let mut filter = QueryFilter::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deadline-ms" => {
                let value = args.next().unwrap_or_else(|| rpc_usage());
                match value.parse::<u64>() {
                    Ok(n) => deadline_ms = Some(n),
                    Err(_) => rpc_usage(),
                }
            }
            "--subsystem" => filter.subsystem = Some(args.next().unwrap_or_else(|| rpc_usage())),
            "--pattern" => filter.pattern = Some(args.next().unwrap_or_else(|| rpc_usage())),
            "--verdict" => filter.verdict = Some(args.next().unwrap_or_else(|| rpc_usage())),
            other if other.starts_with('-') => rpc_usage(),
            other => files.push(other.to_string()),
        }
    }
    let method = match method_name.as_str() {
        "audit" => Method::Audit,
        "auditdiff" => Method::AuditDiff,
        "reaudit" => {
            if files.is_empty() {
                rpc_usage();
            }
            Method::Reaudit { files }
        }
        "query" => Method::Query(filter.clone()),
        "fixcheck" => {
            if files.len() != 1 {
                rpc_usage();
            }
            match std::fs::read_to_string(&files[0]) {
                Ok(diff) => Method::Fixcheck { diff },
                Err(e) => {
                    eprintln!("refminer rpc: cannot read {}: {e}", files[0]);
                    return ExitCode::from(2);
                }
            }
        }
        "status" => Method::Status,
        "shutdown" => Method::Shutdown,
        _ => rpc_usage(),
    };
    // `query`, `auditdiff` and `fixcheck` all print their lines raw:
    // the same bytes the corresponding one-shot `--json` mode prints.
    let is_query = matches!(
        method,
        Method::Query(_) | Method::AuditDiff | Method::Fixcheck { .. }
    );
    let request = Request {
        id: 1,
        method,
        deadline_ms,
    };
    let line = match rpc_roundtrip(&target, &encode_request(&request)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("refminer rpc: {target}: {e}");
            return ExitCode::from(2);
        }
    };
    let Ok(response) = Value::parse(&line) else {
        eprintln!("refminer rpc: malformed response: {line}");
        return ExitCode::from(2);
    };
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        outln!("{line}");
        return ExitCode::from(1);
    }
    let result = response.get("result").cloned().unwrap_or(Value::Null);
    if is_query {
        // Raw finding lines plus the diagnostics line: the same bytes
        // the one-shot CLI's `--json` mode prints.
        if let Some(lines) = result.get("lines").and_then(Value::as_array) {
            for l in lines {
                if let Some(s) = l.as_str() {
                    outln!("{s}");
                }
            }
        }
        if let Some(d) = result.get("diagnostics").and_then(Value::as_str) {
            outln!("{d}");
        }
    } else {
        outln!("{result}");
    }
    ExitCode::SUCCESS
}

/// The flags `diff`, `fixcheck`, `history` and `sweep` share.
#[derive(Default)]
struct RevisionFlags {
    json: bool,
    jobs: usize,
    cache_dir: Option<PathBuf>,
}

impl RevisionFlags {
    /// Parses a revision subcommand's arguments: `-h`, the shared
    /// flags, the subcommand's own flags (`own` returns whether it
    /// consumed `arg`), then positionals. A positional beyond
    /// `max_positionals` is a usage error as soon as it appears.
    fn parse(
        usage: fn() -> !,
        max_positionals: usize,
        mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
    ) -> (RevisionFlags, Vec<PathBuf>) {
        let mut flags = RevisionFlags::default();
        let mut positionals = Vec::new();
        let mut args = std::env::args().skip(2);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "-h" | "--help" => usage(),
                "--json" => flags.json = true,
                "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) => flags.jobs = n,
                    _ => usage(),
                },
                "--cache-dir" => {
                    flags.cache_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
                }
                other if own(other, &mut args) => {}
                other if other.starts_with('-') => {
                    eprintln!("unknown option `{other}`");
                    usage();
                }
                other => {
                    if positionals.len() == max_positionals {
                        usage();
                    }
                    positionals.push(PathBuf::from(other));
                }
            }
        }
        (flags, positionals)
    }

    fn config(&self) -> AuditConfig {
        AuditConfig {
            jobs: self.jobs,
            ..Default::default()
        }
    }

    fn open_cache(&self) -> AuditCache {
        match &self.cache_dir {
            Some(dir) => AuditCache::with_dir(dir),
            None => AuditCache::new(),
        }
    }

    /// Persists `cache` when `--cache-dir` was given; a failed write
    /// only warns.
    fn save_cache(&self, command: &str, cache: &mut AuditCache) {
        if self.cache_dir.is_some() {
            if let Err(e) = cache.save() {
                eprintln!("refminer {command}: warning: could not write cache: {e}");
            }
        }
    }
}

fn diff_usage() -> ! {
    eprintln!(
        "usage: refminer diff [--json] [--jobs N] [--cache-dir DIR] [--no-sweep] <REV-A> <REV-B>"
    );
    std::process::exit(2);
}

/// `refminer diff <REV-A> <REV-B>`: audit two revision roots through
/// one shared cache and print only the findings delta. Exit 0 when the
/// commit is clean (nothing introduced, nothing left behind), 1 when
/// it is not, 2 on usage/scan errors.
fn diff_main() -> ExitCode {
    let mut run_sweep = true;
    let (flags, roots) = RevisionFlags::parse(diff_usage, usize::MAX, |arg, _| {
        let no_sweep = arg == "--no-sweep";
        if no_sweep {
            run_sweep = false;
        }
        no_sweep
    });
    if roots.len() != 2 {
        diff_usage();
    }
    let mut cache = flags.open_cache();
    let (project_a, project_b) =
        match Project::scan(&roots[0]).and_then(|a| Ok((a, Project::scan(&roots[1])?))) {
            Ok(projects) => projects,
            Err(e) => {
                eprintln!("refminer diff: {e}");
                return ExitCode::from(2);
            }
        };
    let opts = DiffOptions { sweep: run_sweep };
    let report = diff_projects(&project_a, &project_b, &flags.config(), &mut cache, &opts);
    flags.save_cache("diff", &mut cache);
    let delta = &report.delta;
    if flags.json {
        for line in render_diff_lines(delta) {
            outln!("{line}");
        }
    } else {
        for f in &delta.introduced {
            outln!("+ {f}");
        }
        for f in &delta.fixed {
            outln!("- {f}");
        }
        for (from, to) in &delta.moved {
            outln!(
                "~ {}:{} -> {}:{} {}",
                from.file,
                from.line,
                to.file,
                to.line,
                to.message
            );
        }
        for lb in &delta.left_behind {
            for m in &lb.matches {
                outln!(
                    "! left behind ({}% match of {}:{}) {}",
                    m.score,
                    lb.origin.file,
                    lb.origin.line,
                    m.finding
                );
            }
        }
        eprintln!(
            "{} introduced, {} fixed, {} moved, {} left behind",
            delta.introduced.len(),
            delta.fixed.len(),
            delta.moved.len(),
            delta.left_behind_total()
        );
    }
    if delta.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn sweep_usage() -> ! {
    eprintln!("usage: refminer sweep --at FILE:LINE [--json] [--jobs N] [--cache-dir DIR] <PATH>");
    std::process::exit(2);
}

/// `refminer sweep --at FILE:LINE <PATH>`: abstract the confirmed
/// finding at FILE:LINE (from a prior audit of the same tree; FILE and
/// the finding's path are equal, or one ends with the other right after
/// a `/`) into a template and rank every clone site that instantiates
/// it with different identifiers. Exit 0 when no clones match, 1 when some do,
/// 2 on usage/scan errors or when no finding exists at that site.
fn sweep_main() -> ExitCode {
    let mut at: Option<(String, u32)> = None;
    let (flags, roots) = RevisionFlags::parse(sweep_usage, 1, |arg, args| {
        if arg != "--at" {
            return false;
        }
        let value = args.next().unwrap_or_else(|| sweep_usage());
        let Some((file, line)) = value.rsplit_once(':') else {
            eprintln!("--at needs FILE:LINE, got `{value}`");
            sweep_usage();
        };
        match line.parse::<u32>() {
            Ok(n) => at = Some((file.to_string(), n)),
            Err(_) => {
                eprintln!("--at needs FILE:LINE, got `{value}`");
                sweep_usage();
            }
        }
        true
    });
    let root = roots.first().unwrap_or_else(|| sweep_usage());
    let Some((seed_file, seed_line)) = at else {
        sweep_usage()
    };
    let project = match Project::scan(root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("refminer sweep: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let mut cache = flags.open_cache();
    let config = flags.config();
    let report = audit_with_cache(&project, &config, &mut cache);
    flags.save_cache("sweep", &mut cache);
    let Some(seed) = report
        .findings
        .iter()
        .find(|f| f.line == seed_line && refminer::fixdiff::paths_match(&seed_file, &f.file))
    else {
        eprintln!("refminer sweep: no finding at {seed_file}:{seed_line}");
        return ExitCode::from(2);
    };
    let tree = Revision::audited(&project, &report, &cache, &config);
    let Some((template, matches)) = sweep_clones(seed, &tree, &tree, &report.findings, &report.kb)
    else {
        eprintln!(
            "refminer sweep: could not abstract {}:{} into a template",
            seed.file, seed.line
        );
        return ExitCode::from(2);
    };
    if flags.json {
        outln!("{}", obj([("template", template.to_json())]));
        for m in &matches {
            outln!("{}", m.to_json());
        }
    } else {
        outln!(
            "template: {} {} in {}:{} ({})",
            template.pattern,
            template.api,
            template.origin.file,
            template.origin.line,
            template.family
        );
        for m in &matches {
            outln!("{:>3}% {}", m.score, m.finding);
        }
        eprintln!("{} clone site(s)", matches.len());
    }
    if matches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn fixcheck_usage() -> ! {
    eprintln!("usage: refminer fixcheck [--json] [--jobs N] [--cache-dir DIR] <ROOT> <DIFF-FILE>");
    std::process::exit(2);
}

/// `refminer fixcheck <ROOT> <DIFF-FILE>`: parse a unified fix diff,
/// reconstruct the pre-fix tree by reverse-applying it onto ROOT (the
/// post-fix tree), audit both sides through one shared cache, and
/// report the anti-pattern sites the fix left behind — sibling error
/// paths and other call sites of the same API still matching the
/// fixed bug's template. Exit 0 when the fix is complete (nothing
/// left behind, nothing introduced), 1 when it is not, 2 on
/// usage/scan/diff errors.
fn fixcheck_main() -> ExitCode {
    let (flags, positional) = RevisionFlags::parse(fixcheck_usage, usize::MAX, |_, _| false);
    if positional.len() != 2 {
        fixcheck_usage();
    }
    let (root, diff_path) = (&positional[0], &positional[1]);
    let diff_text = match std::fs::read_to_string(diff_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "refminer fixcheck: cannot read {}: {e}",
                diff_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let mut cache = flags.open_cache();
    let r = match Project::scan(root)
        .map_err(|e| format!("cannot scan {}: {e}", root.display()))
        .and_then(|post| fixcheck_project(&post, &diff_text, &flags.config(), &mut cache))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("refminer fixcheck: {e}");
            return ExitCode::from(2);
        }
    };
    flags.save_cache("fixcheck", &mut cache);
    if flags.json {
        for line in refminer::render_fixcheck_lines(&r) {
            outln!("{line}");
        }
    } else {
        for intent in &r.intents {
            let dir = match intent.dir {
                refminer::rcapi::RcDir::Inc => "acquire",
                refminer::rcapi::RcDir::Dec => "release",
            };
            outln!(
                "intent: {} ({dir}) in {} [pairs: {}]",
                intent.api,
                intent.file,
                intent.acquires.join(", ")
            );
        }
        for f in &r.fixed {
            outln!("- fixed {f}");
        }
        for f in &r.introduced {
            outln!("+ introduced {f}");
        }
        for inc in &r.incomplete {
            for m in &inc.matches {
                outln!(
                    "! left unfixed ({}% match of {}:{}) {}",
                    m.score,
                    inc.origin.file,
                    inc.origin.line,
                    m.finding
                );
            }
        }
        eprintln!(
            "{} changed file(s): {} fixed, {} introduced, {} left unfixed",
            r.files_changed,
            r.fixed.len(),
            r.introduced.len(),
            r.incomplete_total()
        );
    }
    if r.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn history_usage() -> ! {
    eprintln!("usage: refminer history [--json] [--jobs N] [--cache-dir DIR] <ROOT>");
    std::process::exit(2);
}

/// `refminer history <ROOT>`: audit every release tree under ROOT
/// (labeled by `releases.json`, `history.json`, or sorted
/// subdirectories) through one shared cache and print findings per
/// KLoC per subsystem per release — the Faults-in-Linux Figure-1
/// fault-density methodology. Exit 0 on success, 2 on usage/scan
/// errors or when ROOT holds no revisions.
fn history_main() -> ExitCode {
    let (flags, roots) = RevisionFlags::parse(history_usage, 1, |_, _| false);
    let root = roots.first().unwrap_or_else(|| history_usage());
    let mut cache = flags.open_cache();
    let report = match refminer::history_audit(root, &flags.config(), &mut cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("refminer history: {e}");
            return ExitCode::from(2);
        }
    };
    flags.save_cache("history", &mut cache);
    if flags.json {
        for line in refminer::render_history_lines(&report) {
            outln!("{line}");
        }
    } else {
        let mut t =
            Table::new(vec!["release", "subsystem", "findings", "kloc", "per_kloc"]).numeric();
        for rel in &report.releases {
            for row in &rel.rows {
                t.row(vec![
                    rel.version.clone(),
                    row.subsystem.clone(),
                    row.findings.to_string(),
                    format!("{:.3}", row.lines as f64 / 1000.0),
                    format!("{:.3}", row.per_kloc()),
                ]);
            }
        }
        out!("{}", t.render());
        for rel in &report.releases {
            eprintln!(
                "{}: {} files, {} lines, {} finding(s), {} unit(s) re-parsed",
                rel.version, rel.files, rel.lines, rel.findings, rel.parse_misses
            );
        }
    }
    ExitCode::SUCCESS
}

/// `refminer eval --fixcheck <ROOT>`: replay every commit of a
/// `histgen` fix history through the fixcheck pipeline and score the
/// incomplete-fix reports against the manifests' clone-group ground
/// truth.
fn run_fixcheck_eval(opts: &Options) -> ExitCode {
    let config = AuditConfig {
        jobs: opts.jobs,
        ..Default::default()
    };
    let eval = match refminer::evaluate_fixcheck(&opts.path, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("refminer: eval --fixcheck: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        outln!("{}", eval.to_json());
        return ExitCode::SUCCESS;
    }
    let mut t = Table::new(vec![
        "revision", "group", "expected", "found", "missed", "spurious",
    ])
    .numeric();
    for row in &eval.rows {
        t.row(vec![
            row.revision.clone(),
            row.group.clone().unwrap_or_else(|| "-".to_string()),
            row.expected.to_string(),
            row.counts.found.to_string(),
            row.counts.missed.to_string(),
            row.counts.spurious.to_string(),
        ]);
    }
    t.row(vec![
        "total".to_string(),
        "-".to_string(),
        "-".to_string(),
        eval.totals.found.to_string(),
        eval.totals.missed.to_string(),
        eval.totals.spurious.to_string(),
    ]);
    out!("{}", t.render());
    outln!("recall: {:.3}", eval.totals.recall());
    ExitCode::SUCCESS
}

/// `refminer eval <DIR>`: score the audit's findings against the
/// ground-truth manifest the corpus generator wrote next to the tree.
/// Under `--sweep`, score the clone sweep against the manifest's clone
/// groups instead.
fn run_eval(opts: &Options, tree: &Revision<'_>, report: &refminer::AuditReport) -> ExitCode {
    let findings = &report.findings;
    let manifest_path = opts.path.join("manifest.json");
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("refminer: cannot read {}: {e}", manifest_path.display());
            return ExitCode::from(2);
        }
    };
    let manifest = match Value::parse(&text)
        .ok()
        .as_ref()
        .and_then(Manifest::from_json)
    {
        Some(m) => m,
        None => {
            eprintln!(
                "refminer: {} is not a valid manifest",
                manifest_path.display()
            );
            return ExitCode::from(2);
        }
    };
    if opts.sweep_eval {
        let sweep_eval = refminer::evaluate_sweep(findings, &manifest, &report.kb, tree);
        if opts.json {
            outln!("{}", sweep_eval.to_json());
            return ExitCode::SUCCESS;
        }
        let mut t = Table::new(vec![
            "group", "pattern", "api", "found", "missed", "spurious", "recall",
        ])
        .numeric();
        for row in &sweep_eval.rows {
            t.row(vec![
                row.group.to_string(),
                row.pattern.id().to_string(),
                row.api.clone(),
                row.counts.found.to_string(),
                row.counts.missed.to_string(),
                row.counts.spurious.to_string(),
                format!("{:.3}", row.counts.recall()),
            ]);
        }
        for (p, c) in &sweep_eval.per_pattern {
            t.row(vec![
                "-".to_string(),
                p.id().to_string(),
                "-".to_string(),
                c.found.to_string(),
                c.missed.to_string(),
                c.spurious.to_string(),
                format!("{:.3}", c.recall()),
            ]);
        }
        let c = &sweep_eval.totals;
        t.row(vec![
            "total".to_string(),
            "-".to_string(),
            "-".to_string(),
            c.found.to_string(),
            c.missed.to_string(),
            c.spurious.to_string(),
            format!("{:.3}", c.recall()),
        ]);
        out!("{}", t.render());
        return ExitCode::SUCCESS;
    }
    let eval = evaluate(findings, &manifest);
    if opts.json {
        outln!("{}", eval.to_json());
        return ExitCode::SUCCESS;
    }
    let mut t = Table::new(vec![
        "pattern",
        "tp",
        "fp",
        "fn",
        "precision",
        "recall",
        "f1",
    ])
    .numeric();
    for row in &eval.rows {
        t.row(vec![
            row.pattern.id().to_string(),
            row.counts.tp.to_string(),
            row.counts.fp.to_string(),
            row.counts.missed.to_string(),
            format!("{:.3}", row.counts.precision()),
            format!("{:.3}", row.counts.recall()),
            format!("{:.3}", row.counts.f1()),
        ]);
    }
    t.row(vec![
        "total".to_string(),
        eval.totals.tp.to_string(),
        eval.totals.fp.to_string(),
        eval.totals.missed.to_string(),
        format!("{:.3}", eval.totals.precision()),
        format!("{:.3}", eval.totals.recall()),
        format!("{:.3}", eval.totals.f1()),
    ]);
    out!("{}", t.render());
    outln!("trap hits: {}", eval.trap_hits);
    ExitCode::SUCCESS
}
