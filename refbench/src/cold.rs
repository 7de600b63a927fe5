//! `cold-audit`: the one-shot CLI's cycle on a tree on disk, cold.
//!
//! Each cycle scans the tree, opens an empty persisted cache, audits and
//! saves, so the compute layers do all the work and the cache only
//! saves.

use std::path::Path;
use std::time::Instant;

use refminer::corpus::{generate_big_tree, BigTreeConfig, SyntheticTree};
use refminer::{audit_with_cache, AuditCache, AuditConfig, AuditReport, Project};

use crate::check::{f1_at_least, finding_lines, same_lines, COLD_F1_FLOOR};
use crate::stats::{peak_rss_mb, secs_since, Digest};
use crate::{io_err, layers, CacheTally, Ctx, EndToEnd, Outcome, Size, Workload};

/// Seconds of set-up cycles a run makes at least, so that `setup_s` is
/// a median of many.
const SETUP_SECONDS: f64 = 2.0;

/// The tree `cold-audit` audits.
pub(crate) fn cold_tree(seed: u64, size: &Size) -> SyntheticTree {
    generate_big_tree(&BigTreeConfig {
        seed,
        replicas: size.replicas,
        scale: 1.0,
    })
}

/// Digest of every path and file content of `tree`.
pub(crate) fn tree_digest(tree: &SyntheticTree) -> u64 {
    let mut d = Digest::default();
    for f in &tree.files {
        d.add(f.path.as_bytes());
        d.add(f.content.as_bytes());
    }
    d.value()
}

/// Writes `tree` under `root`.
pub(crate) fn write_tree(tree: &SyntheticTree, root: &Path) -> Result<(), String> {
    tree.write_to(root).map_err(|e| io_err(root, e))
}

/// One cycle: scan, open the cache in `cache_dir`, audit, save. Returns
/// the report and its wall seconds.
fn audit_cycle(
    root: &Path,
    cache_dir: &Path,
    cfg: &AuditConfig,
) -> Result<(AuditReport, f64), String> {
    let start = Instant::now();
    let project = Project::scan(root).map_err(|e| io_err(root, e))?;
    let mut cache = AuditCache::with_dir(cache_dir);
    let report = audit_with_cache(&project, cfg, &mut cache);
    cache.save().map_err(|e| io_err(cache_dir, e))?;
    Ok((report, secs_since(start)))
}

pub(crate) fn cold_audit(ctx: &Ctx) -> Result<Outcome, String> {
    let tree = cold_tree(ctx.seed, &ctx.size);
    let digest = tree_digest(&tree);
    let root = ctx.work.join("tree");
    write_tree(&tree, &root)?;

    // Set-up: `setups` cold cycles, and more until SETUP_SECONDS have
    // passed. Their findings are the reference every later audit must
    // reproduce.
    let mut e = EndToEnd::default();
    let mut reference: Option<Vec<String>> = None;
    let start = Instant::now();
    while e.setup.len() < ctx.size.setups.max(1) || secs_since(start) < SETUP_SECONDS {
        let (report, secs) = audit_cycle(&root, &ctx.fresh_dir("cache")?, &ctx.cfg)?;
        e.setup.push(secs);
        let lines = finding_lines(&report.findings);
        match &reference {
            Some(r) => same_lines("set-up audit", r, &lines)?,
            None => reference = Some(lines),
        }
    }
    let reference = reference.expect("at least one set-up");

    let mut tally = CacheTally::default();
    let mut last = None;
    let start = Instant::now();
    while ctx.keep_going(start, e.ops.len()) {
        let (report, secs) = audit_cycle(&root, &ctx.fresh_dir("cache")?, &ctx.cfg)?;
        e.ops.push(secs * 1e3);
        e.attempted += 1;
        if !report.diagnostics.is_clean() {
            e.failed += 1;
        }
        tally.add(&report.cache);
        same_lines("cold audit", &reference, &finding_lines(&report.findings))?;
        last = Some(report);
    }
    e.peak_rss_mb = peak_rss_mb()?;
    let last = last.expect("the loop runs at least once");
    e.f1 = f1_at_least("cold audit", &last.findings, &tree.manifest, COLD_F1_FLOOR)?;
    if ctx.trace {
        let commits = [layers::probe_commit(&tree, ctx.seed)];
        let metrics = layers::measure(ctx, &root, &reference, &commits, &tally)?;
        return Ok(e.traced_outcome(Workload::ColdAudit, digest, metrics));
    }
    e.into_outcome(Workload::ColdAudit, digest)
}
