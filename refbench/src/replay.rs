//! `revision-replay`: the CI-bot shape of work.
//!
//! Each pass audits the base revision of a partial-fix history cold
//! (the set-up), then checks every commit twice through one shared
//! cache: a findings diff with the left-behind sweep, and a fixcheck of
//! the commit's unified diff. The timed operation is the pass after its
//! set-up. A single commit check takes tens of milliseconds, and the
//! medians of operations that short moved about twice as much from run
//! to run as those of whole passes. The sweep, the diff parser and
//! reverse-apply, the set-difference and delta-only re-parsing run only
//! here. After the timed loop, one history audit of a release ladder on
//! disk checks that each release re-parses only its delta.

use std::time::Instant;

use refminer::corpus::{
    generate_fix_history, generate_release_history, CloneGroup, ReleaseHistoryConfig, ReleaseRev,
    TreeConfig, TreeRev,
};
use refminer::{
    audit_with_cache, diff_projects, fixcheck_project, history_audit, render_diff_lines,
    render_file_diff, render_fixcheck_lines, AuditCache, DiffOptions, Finding, Project,
};

use crate::check::{f1_at_least, finding_lines, fix_verdict, FIX_HISTORY_F1_FLOOR};
use crate::cold::write_tree;
use crate::stats::{peak_rss_mb, secs_since, timed, Digest};
use crate::{layers, CacheTally, Ctx, EndToEnd, Outcome, Size, Workload};

fn fix_history(seed: u64, size: &Size) -> Vec<TreeRev> {
    generate_fix_history(&TreeConfig {
        seed,
        scale: size.fix_scale,
        bugs_per_file: 1,
        include_tricky: false,
        clone_groups: size.clone_groups,
        ..TreeConfig::default()
    })
}

fn release_history(seed: u64, size: &Size) -> Vec<ReleaseRev> {
    generate_release_history(&ReleaseHistoryConfig {
        seed,
        scale: size.release_scale,
        releases: size.releases,
        ..ReleaseHistoryConfig::default()
    })
}

/// Digest of every file of every revision and release.
pub(crate) fn inputs_digest(seed: u64, size: &Size) -> u64 {
    let mut d = Digest::default();
    let trees = fix_history(seed, size)
        .into_iter()
        .map(|r| r.tree)
        .chain(release_history(seed, size).into_iter().map(|r| r.tree));
    for tree in trees {
        for f in &tree.files {
            d.add(f.path.as_bytes());
            d.add(f.content.as_bytes());
        }
    }
    d.value()
}

/// One commit of the fix history, with its ground truth.
struct Step {
    /// The unified diff from the previous revision.
    diff: String,
    /// Files whose content changed.
    changed: usize,
    /// The clone group member the commit fixed, as (group, path,
    /// function); `None` for neutral churn.
    fixed: Option<(CloneGroup, String, String)>,
}

fn steps(revs: &[TreeRev]) -> Vec<Step> {
    revs.windows(2)
        .map(|w| {
            let diffs: Vec<String> = w[0]
                .tree
                .files
                .iter()
                .zip(&w[1].tree.files)
                .filter_map(|(a, b)| render_file_diff(&b.path, &a.content, &b.content))
                .collect();
            let fixed = w[1].fixed.first().map(|(group, path, function)| {
                let group = w[1]
                    .tree
                    .manifest
                    .clone_groups
                    .iter()
                    .find(|g| &g.group == group)
                    .expect("a fixed member's group is in the manifest")
                    .clone();
                (group, path.clone(), function.clone())
            });
            Step {
                changed: diffs.len(),
                diff: diffs.concat(),
                fixed,
            }
        })
        .collect()
}

fn fixed_member(step: &Step) -> Option<(&CloneGroup, &str, &str)> {
    step.fixed
        .as_ref()
        .map(|(g, p, f)| (g, p.as_str(), f.as_str()))
}

pub(crate) fn revision_replay(ctx: &Ctx) -> Result<Outcome, String> {
    let revs = fix_history(ctx.seed, &ctx.size);
    let digest = inputs_digest(ctx.seed, &ctx.size);
    let projects: Vec<Project> = revs.iter().map(|r| Project::from_tree(&r.tree)).collect();
    let steps = steps(&revs);
    let cfg = &ctx.cfg;

    let mut e = EndToEnd::default();
    let mut tally = CacheTally::default();
    let mut first_pass: Option<u64> = None;
    let mut last_findings: Vec<Finding> = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while ctx.keep_going(start, passes) {
        let mut output = Digest::default();
        let mut cache = AuditCache::new();
        let (base, secs) = timed(|| audit_with_cache(&projects[0], cfg, &mut cache));
        e.setup.push(secs);
        if passes == 0 {
            e.f1 = f1_at_least(
                "base revision",
                &base.findings,
                &revs[0].tree.manifest,
                FIX_HISTORY_F1_FLOOR,
            )?;
        }
        for line in finding_lines(&base.findings) {
            output.add(line.as_bytes());
        }
        // Seconds the pass spent in the program, its checks left out.
        let mut pass_secs = 0.0;
        for (w, step) in steps.iter().enumerate() {
            let what = &revs[w + 1].id;
            let (a, b) = (&projects[w], &projects[w + 1]);
            let (d, secs) = timed(|| diff_projects(a, b, cfg, &mut cache, &DiffOptions::default()));
            pass_secs += secs;
            e.attempted += 1;
            if !(d.report_a.diagnostics.is_clean() && d.report_b.diagnostics.is_clean()) {
                e.failed += 1;
            }
            tally.add(&d.report_a.cache);
            tally.add(&d.report_b.cache);
            if d.report_b.cache.parse_misses != step.changed {
                return Err(format!(
                    "{what}: diff re-parsed {} units for {} changed files",
                    d.report_b.cache.parse_misses, step.changed
                ));
            }
            let left: Vec<&Finding> = d
                .delta
                .left_behind
                .iter()
                .flat_map(|l| l.matches.iter().map(|m| &m.finding))
                .collect();
            fix_verdict(
                &format!("{what} diff"),
                fixed_member(step),
                &d.delta.fixed,
                &left,
            )?;
            if !d.delta.introduced.is_empty() {
                return Err(format!("{what}: diff reports introduced findings"));
            }
            for line in render_diff_lines(&d.delta) {
                output.add(line.as_bytes());
            }

            let (f, secs) = timed(|| fixcheck_project(b, &step.diff, cfg, &mut cache));
            pass_secs += secs;
            let f = f.map_err(|err| format!("{what}: fixcheck failed: {err}"))?;
            e.attempted += 1;
            if !f.report.diagnostics.is_clean() {
                e.failed += 1;
            }
            tally.add(&f.report.cache);
            let left: Vec<&Finding> = f
                .incomplete
                .iter()
                .flat_map(|i| i.matches.iter().map(|m| &m.finding))
                .collect();
            fix_verdict(
                &format!("{what} fixcheck"),
                fixed_member(step),
                &f.fixed,
                &left,
            )?;
            if !f.introduced.is_empty() {
                return Err(format!("{what}: fixcheck reports introduced findings"));
            }
            for line in render_fixcheck_lines(&f) {
                output.add(line.as_bytes());
            }
            if w + 1 == steps.len() {
                last_findings = d.report_b.findings;
            }
        }
        e.ops.push(pass_secs * 1e3);

        match first_pass {
            Some(d) if d != output.value() => {
                return Err(format!("pass {}: output differs from pass 1", passes + 1))
            }
            _ => first_pass = Some(output.value()),
        }
        passes += 1;
    }
    e.peak_rss_mb = peak_rss_mb()?;
    e.notes.push(format!(
        "{passes} passes of {} commit checks in {:.3} s",
        2 * steps.len(),
        secs_since(start)
    ));

    let releases = release_history(ctx.seed, &ctx.size);
    let history_root = ctx.work.join("history");
    for (i, r) in releases.iter().enumerate() {
        write_tree(&r.tree, &history_root.join(format!("rel{i:02}")))?;
    }
    let (h, secs) = timed(|| history_audit(&history_root, cfg, &mut AuditCache::new()));
    check_history_misses(&h?.releases, &releases)?;
    e.notes.push(format!(
        "history audit of {} releases checked in {secs:.3} s (not a metric)",
        releases.len()
    ));
    if ctx.trace {
        let root = ctx.work.join("final");
        write_tree(&revs.last().expect("history has revisions").tree, &root)?;
        let commits: Vec<layers::Commit> = steps
            .iter()
            .enumerate()
            .map(|(w, s)| layers::Commit {
                a: projects[w].clone(),
                b: projects[w + 1].clone(),
                diff: s.diff.clone(),
            })
            .collect();
        let reference = finding_lines(&last_findings);
        let metrics = layers::measure(ctx, &root, &reference, &commits, &tally)?;
        return Ok(e.traced_outcome(Workload::RevisionReplay, digest, metrics));
    }
    e.into_outcome(Workload::RevisionReplay, digest)
}

/// A history audit must re-parse the whole first release and then only
/// each release's delta: its added files plus the member it fixed.
fn check_history_misses(
    got: &[refminer::HistoryRelease],
    releases: &[ReleaseRev],
) -> Result<(), String> {
    if got.len() != releases.len() {
        return Err(format!(
            "history audited {} releases of {}",
            got.len(),
            releases.len()
        ));
    }
    for (i, (g, r)) in got.iter().zip(releases).enumerate() {
        let want = if i == 0 {
            g.files
        } else {
            r.added_files + r.fixed.len()
        };
        if g.parse_misses != want {
            return Err(format!(
                "history release {}: {} units re-parsed, expected {want}",
                r.version, g.parse_misses
            ));
        }
    }
    Ok(())
}
