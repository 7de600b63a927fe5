//! The traced pass: per-layer numbers for one workload.
//!
//! It runs a traced cold audit between two untraced ones, and one on
//! `nproc` workers, over the workload's final tree; then replays that
//! tree and the workload's commits through each layer crate's `pub`
//! functions on one thread, timing every call from here. The program
//! itself records nothing it would not record in any traced audit.

use std::path::Path;
use std::time::Instant;

use refminer::checkers::{run_engines_traced, AnalysisEngine, TemplateEngine, UnitExports};
use refminer::clex::{scan_defines, LexOptions, Lexer};
use refminer::corpus::{next_revision, SyntheticTree};
use refminer::cparse::{parse_str_limited, ParseLimits};
use refminer::cpg::FunctionGraph;
use refminer::rcapi::{discover_unit, merge_discoveries, DiscoverConfig};
use refminer::sweep::{abstract_template, sweep};
use refminer::{
    audit_traced, audit_with_cache, content_hash, diff_delta, parse_diff, render_file_diff, ApiKb,
    AuditCache, AuditConfig, AuditLimits, CacheLoadOutcome, DeltaEngine, Finding, ProgramDb,
    Project, TraceHandle,
};

use crate::check::{finding_lines, same_lines};
use crate::stats::{nproc, secs_since, timed};
use crate::{io_err, CacheTally, Ctx, Measured};

/// One revision step: the tree before and after, and the unified diff
/// between them.
pub(crate) struct Commit {
    pub a: Project,
    pub b: Project,
    pub diff: String,
}

/// Files a probe commit edits.
const PROBE_EDITS: usize = 4;

/// A commit for workloads that have no fix commits of their own: a
/// `next_revision` of `tree` that appends a helper to a few files.
pub(crate) fn probe_commit(tree: &SyntheticTree, seed: u64) -> Commit {
    let (rev, edited) = next_revision(tree, seed ^ 0x9f0b_e5d1, PROBE_EDITS);
    let diff = tree
        .files
        .iter()
        .zip(&rev.files)
        .filter(|(_, f)| edited.contains(&f.path))
        .filter_map(|(a, b)| render_file_diff(&b.path, &a.content, &b.content))
        .collect();
    Commit {
        a: Project::from_tree(tree),
        b: Project::from_tree(&rev),
        diff,
    }
}

/// Measures every per-layer metric. `root` holds the workload's final
/// tree, whose untraced findings are `reference`; `tally` is the
/// workload loop's cache traffic.
pub(crate) fn measure(
    ctx: &Ctx,
    root: &Path,
    reference: &[String],
    commits: &[Commit],
    tally: &CacheTally,
) -> Result<Vec<Measured>, String> {
    let mut out = tally.metrics();
    let (project, scan_s) = timed(|| Project::scan(root));
    let project = project.map_err(|e| io_err(root, e))?;
    out.push(Measured::new("core.project.scan_s", scan_s));

    // The traced audit and the two untraced ones around it run on
    // `nproc` workers, as the CLI does by default; the serial one on the
    // timed loops' single worker.
    let all = AuditConfig {
        jobs: nproc(),
        ..AuditConfig::default()
    };
    let cache_dir = ctx.fresh_dir("layers-cache")?;
    let mut cache = AuditCache::with_dir(&cache_dir);
    let (untraced, u1) = timed(|| audit_with_cache(&project, &all, &mut cache));
    same_lines(
        "untraced audit",
        reference,
        &finding_lines(&untraced.findings),
    )?;
    cache.save().map_err(|e| io_err(&cache_dir, e))?;
    let trace = TraceHandle::recording();
    let (traced, t) = timed(|| audit_traced(&project, &all, &mut AuditCache::new(), &trace));
    same_lines("traced audit", reference, &finding_lines(&traced.findings))?;
    let log = trace.finish().expect("a recording handle yields a log");
    let (_, u2) = timed(|| audit_with_cache(&project, &all, &mut AuditCache::new()));
    let (serial, j1) = timed(|| audit_with_cache(&project, &ctx.cfg, &mut AuditCache::new()));
    same_lines(
        "one-worker audit",
        reference,
        &finding_lines(&serial.findings),
    )?;
    let untraced_s = (u1 + u2) / 2.0;
    let builds = log
        .spans
        .iter()
        .filter(|s| s.stage == "feasibility")
        .count();
    out.extend([
        Measured::new("core.audit.trace_overhead", t / untraced_s),
        Measured::new("core.parallel.speedup", j1 / untraced_s),
        Measured::new("core.parallel.peak_in_flight", log.peak_in_flight as f64),
        Measured::new(
            "cpg.graph_builds_per_unit",
            builds as f64 / project.units().len() as f64,
        ),
    ]);

    let mut cache = cache_layers(&project, &cache_dir, &mut out)?;
    unit_layers(&project, &mut out);
    commit_layers(commits, &ctx.cfg, &mut cache, &mut out)?;
    Ok(out)
}

/// Content hashing, and loading, encoding and saving the persisted
/// cache in `dir`. Returns the loaded cache.
fn cache_layers(
    project: &Project,
    dir: &Path,
    out: &mut Vec<Measured>,
) -> Result<AuditCache, String> {
    let (_, hash_s) = timed(|| {
        project
            .units()
            .iter()
            .fold(0u64, |h, u| h ^ std::hint::black_box(content_hash(&u.text)))
    });
    let (cache, load_s) = timed(|| AuditCache::with_dir(dir));
    if !matches!(cache.load_outcome(), CacheLoadOutcome::Loaded) {
        return Err(format!(
            "persisted cache did not load: {:?}",
            cache.load_outcome()
        ));
    }
    let (bytes, encode_s) = timed(|| cache.to_bytes());
    let (saved, save_s) = timed(|| cache.save());
    saved.map_err(|e| io_err(dir, e))?;
    out.extend([
        Measured::new("core.cache.hash_s", hash_s),
        Measured::new("core.cache.load_s", load_s),
        Measured::new("core.cache.encode_s", encode_s),
        Measured::new("core.cache.save_s", save_s),
        Measured::new("core.cache.bytes", bytes.len() as f64),
    ]);
    Ok(cache)
}

/// Replays every unit through lex, parse, discovery, graph build and
/// export, then the two merges, then each analysis engine.
fn unit_layers(project: &Project, out: &mut Vec<Measured>) {
    let builtin = ApiKb::builtin();
    let limits = ParseLimits::default();
    let max_nodes = AuditLimits::default().max_graph_nodes;
    let lex = LexOptions {
        keep_comments: false,
        keep_preprocessor: false,
    };
    let (mut clex, mut cparse, mut discover, mut graph, mut feas, mut extract) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut tokens, mut functions, mut nodes) = (0usize, 0usize, 0usize);
    let mut tus = Vec::new();
    let mut discoveries = Vec::new();
    let mut defines = Vec::new();
    let mut exports = Vec::new();
    for u in project.units() {
        let start = Instant::now();
        let defs = scan_defines(&u.text);
        let (toks, _, _) = Lexer::with_options(&u.text, lex).tokenize_limited(limits.max_tokens);
        clex += secs_since(start);
        tokens += toks.len();
        let (parsed, s) = timed(|| parse_str_limited(&u.path, &u.text, &limits));
        cparse += s;
        let tu = parsed.unit;
        functions += tu.functions().count();
        let (disc, s) = timed(|| discover_unit(&tu, &builtin));
        discover += s;
        let ((graphs, _, f), s) = timed(|| FunctionGraph::build_all_limited_timed(&tu, max_nodes));
        graph += s - f.as_secs_f64();
        feas += f.as_secs_f64();
        nodes += graphs.iter().map(|g| g.cfg.nodes.len()).sum::<usize>();
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        let (exp, s) = timed(|| UnitExports::extract(&u.path, &graphs, &globals));
        extract += s;
        tus.push(tu);
        discoveries.push(disc);
        defines.extend(defs);
        exports.push(exp);
    }
    let disc_refs: Vec<_> = discoveries.iter().collect();
    let (kb, merge_kb) = timed(|| {
        merge_discoveries(&disc_refs, &defines, &builtin, &DiscoverConfig::default())
            .into_kb(ApiKb::builtin())
    });
    let export_refs: Vec<&UnitExports> = exports.iter().collect();
    let (program, merge_db) = timed(|| ProgramDb::build(&export_refs, &kb, true));
    let template: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(TemplateEngine::default_set())];
    let delta: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(DeltaEngine::new())];
    let off = TraceHandle::disabled();
    let (mut checkers, mut delta_s, mut template_found, mut delta_found) = (0.0, 0.0, 0, 0);
    for tu in &tus {
        // Graphs are rebuilt here rather than kept from the first loop,
        // which would hold every graph of the tree in memory at once.
        let (graphs, _, _) = FunctionGraph::build_all_limited_timed(tu, max_nodes);
        let (found, s) = timed(|| run_engines_traced(tu, &kb, &graphs, &template, &program, &off));
        checkers += s;
        template_found += found.len();
        let (found, s) = timed(|| run_engines_traced(tu, &kb, &graphs, &delta, &program, &off));
        delta_s += s;
        delta_found += found.len();
    }
    out.extend([
        Measured::new("clex.busy_s", clex),
        Measured::new("clex.tokens", tokens as f64),
        Measured::new("cparse.busy_s", cparse),
        Measured::new("cparse.functions", functions as f64),
        Measured::new("rcapi.discover_busy_s", discover),
        Measured::new("rcapi.merge_busy_s", merge_kb),
        Measured::new("cpg.graph_busy_s", graph),
        Measured::new("cpg.feasibility_busy_s", feas),
        Measured::new("cpg.nodes", nodes as f64),
        Measured::new("progdb.extract_busy_s", extract),
        Measured::new("progdb.merge_busy_s", merge_db),
        Measured::new("checkers.busy_s", checkers),
        Measured::new("checkers.findings", template_found as f64),
        Measured::new("delta.busy_s", delta_s),
        Measured::new("delta.findings", delta_found as f64),
    ]);
}

fn source_of(project: &Project, path: &str) -> Option<String> {
    project
        .units()
        .iter()
        .find(|u| u.path == path)
        .map(|u| u.text.clone())
}

/// Per-commit means of the findings set-difference, the sweep, and the
/// diff parser and reverse-apply. Sweep seeds are the findings the
/// commit fixed or, for a commit that fixed none, its first finding.
fn commit_layers(
    commits: &[Commit],
    cfg: &AuditConfig,
    cache: &mut AuditCache,
    out: &mut Vec<Measured>,
) -> Result<(), String> {
    let (mut delta_s, mut sweep_s, mut parse_s, mut reverse_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut candidates, mut matches) = (0usize, 0usize);
    for c in commits {
        let ra = audit_with_cache(&c.a, cfg, cache);
        let rb = audit_with_cache(&c.b, cfg, cache);
        let (delta, s) =
            timed(|| diff_delta(&ra.findings, &rb.findings, None, &c.b, &rb.kb, false));
        delta_s += s;
        let seeds: Vec<&Finding> = if delta.fixed.is_empty() {
            ra.findings.iter().take(1).collect()
        } else {
            delta.fixed.iter().collect()
        };
        for seed in seeds {
            let src = source_of(&c.a, &seed.file)
                .ok_or_else(|| format!("sweep seed file {} is not in the tree", seed.file))?;
            let start = Instant::now();
            let Some(template) = abstract_template(seed, &src, &rb.kb) else {
                continue;
            };
            let found = sweep(&template, &rb.findings, &rb.kb, |p| source_of(&c.b, p));
            sweep_s += secs_since(start);
            matches += found.len();
            candidates += rb
                .findings
                .iter()
                .filter(|f| f.pattern.root_cause() == template.family)
                .filter(|f| !(f.file == seed.file && f.line == seed.line))
                .count();
        }
        let (diff, s) = timed(|| parse_diff(&c.diff));
        parse_s += s;
        let diff = diff?;
        for file in &diff.files {
            let post = source_of(&c.b, file.path())
                .ok_or_else(|| format!("diff names {} which is not in the tree", file.path()))?;
            let (pre, s) = timed(|| file.reverse_apply(&post));
            reverse_s += s;
            if pre? != source_of(&c.a, file.path()).unwrap_or_default() {
                return Err(format!(
                    "reverse-applying {} did not restore it",
                    file.path()
                ));
            }
        }
    }
    let n = commits.len().max(1) as f64;
    out.extend([
        Measured::new("core.diff.delta_s", delta_s / n),
        Measured::new("sweep.busy_s", sweep_s / n),
        Measured::new("sweep.candidates", candidates as f64 / n),
        Measured::new("sweep.matches", matches as f64 / n),
        Measured::new("fixcheck.parse_s", parse_s / n),
        Measured::new("fixcheck.reverse_apply_s", reverse_s / n),
    ]);
    Ok(())
}
