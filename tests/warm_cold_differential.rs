//! Warm equals cold: a seeded differential test of the incremental
//! cache.
//!
//! Seeded edit sequences — `next_revision` edits interleaved at random
//! with the commits of a partial-fix history, edits that change what
//! untouched units depend on (a cross-unit helper's summary, a
//! discovered smartloop, a discovered API) and their revert, and a
//! release ladder — replay through one [`AuditCache`] at `jobs` 1 and
//! 4. At every step the audit, the
//! `diff` delta (its left-behind sweep included) and the `fixcheck`
//! report must equal those of a cold cache byte for byte. The history
//! includes a fix that makes discovery add an API, so the replay also
//! covers check keys that slice the knowledge base.

use refminer::corpus::{
    generate_fix_history, generate_release_history, next_revision, ReleaseHistoryConfig,
    SyntheticTree, TreeConfig,
};
use refminer::serve::render_finding_line;
use refminer::{
    audit_with_cache, diff_projects, fixcheck_project, render_diff_lines, render_file_diff,
    render_fixcheck_lines, AuditCache, AuditConfig, AuditReport, DiffOptions, Project,
};
use refminer_prng::{ChaCha8Rng, Rng, SeedableRng};

/// Edits that each change one thing another unit depends on, as
/// `(label, path, from, to)`: a cross-unit helper stops releasing its
/// argument (its callers' summaries change), the vendor smartloop macro
/// is renamed away (discovery drops the smartloop), and the vendor find
/// API stops taking a reference (discovery drops it from the KB). The
/// vendor callers' text never changes.
const DEPENDENCY_EDITS: [(&str, &str, &str, &str); 3] = [
    (
        "helper stops releasing",
        "drivers/crossunit/xu0_helpers.c",
        "of_node_put(np);",
        "np->flags = 0;",
    ),
    (
        "vendor smartloop renamed away",
        "include/vendor/widget.h",
        "#define for_each_vendor_widget(",
        "#define for_each_vendor_widget_old(",
    ),
    (
        "vendor find takes no reference",
        "drivers/vendor/vendor_core.c",
        "pool_next(pool, from);\n        if (w)\n                kref_get(&w->refs);",
        "pool_next(pool, from);",
    ),
];

/// A chain of labelled trees, each one edit after the one before.
type Chain = Vec<(String, Project)>;

fn with_file(tree: &SyntheticTree, path: &str, content: &str) -> SyntheticTree {
    let mut next = tree.clone();
    next.files
        .iter_mut()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} is in the tree"))
        .content = content.to_string();
    next
}

fn text_of<'t>(tree: &'t SyntheticTree, path: &str) -> &'t str {
    tree.files
        .iter()
        .find(|f| f.path == path)
        .map_or("", |f| f.content.as_str())
}

/// The fix history of `seed` with a `next_revision` edit of one to
/// three files before each commit by a coin flip, then each dependency
/// edit in turn, then one step reverting them all.
fn fix_chain(seed: u64) -> Chain {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let revs = generate_fix_history(&TreeConfig {
        seed,
        scale: 0.01,
        bugs_per_file: 1,
        clean_per_file: 0,
        include_tricky: false,
        include_vendor: true,
        cross_unit: true,
        clone_groups: 5,
        ..TreeConfig::default()
    });
    let mut cur = revs[0].tree.clone();
    let mut steps = vec![("rev0".to_string(), Project::from_tree(&cur))];
    for pair in revs.windows(2) {
        if rng.gen_range(0..2u32) == 0 {
            let edits = rng.gen_range(1..4usize);
            cur = next_revision(&cur, rng.gen::<u64>(), edits).0;
            steps.push((format!("next_revision x{edits}"), Project::from_tree(&cur)));
        }
        for (old, new) in pair[0].tree.files.iter().zip(&pair[1].tree.files) {
            if old.content != new.content {
                cur = with_file(&cur, &new.path, &new.content);
            }
        }
        steps.push((pair[1].id.clone(), Project::from_tree(&cur)));
    }
    let before_edits = cur.clone();
    for (label, path, from, to) in DEPENDENCY_EDITS {
        let text = text_of(&cur, path);
        assert!(text.contains(from), "{label}: {path} has no `{from}`");
        cur = with_file(&cur, path, &text.replacen(from, to, 1));
        steps.push((label.to_string(), Project::from_tree(&cur)));
    }
    steps.push((
        "dependency edits reverted".to_string(),
        Project::from_tree(&before_edits),
    ));
    steps
}

/// The first two releases of the ladder of `seed`.
fn release_chain(seed: u64) -> Chain {
    let releases = generate_release_history(&ReleaseHistoryConfig {
        seed,
        scale: 0.01,
        releases: 2,
        clone_groups: 2,
    });
    releases
        .iter()
        .map(|r| (r.version.clone(), Project::from_tree(&r.tree)))
        .collect()
}

fn audit_lines(r: &AuditReport) -> Vec<String> {
    let mut out: Vec<String> = r.findings.iter().map(render_finding_line).collect();
    out.push(format!("{:?}", r.diagnostics));
    out.push(format!(
        "files {} functions {} lines {}",
        r.files, r.functions, r.lines
    ));
    out
}

/// The unified diff from `a` to `b`, one file section per changed unit.
fn unified_diff(a: &Project, b: &Project) -> String {
    b.units()
        .iter()
        .filter_map(|u| {
            let old = a.units().iter().find(|o| o.path == u.path);
            render_file_diff(&u.path, old.map_or("", |o| o.text.as_str()), &u.text)
        })
        .collect()
}

/// Everything one step reports: the audit of the new tree, the diff
/// from the previous one, and the fixcheck of that diff.
#[derive(Debug, PartialEq)]
struct StepOutput {
    audit: Vec<String>,
    diff: Vec<String>,
    fixcheck: Result<Vec<String>, String>,
}

/// What the cache saw while one step ran warm.
struct Observed {
    kb_grew: bool,
    rechecked: usize,
}

/// Runs one step through `warm`, or cold — each computation through an
/// empty cache of its own — when there is none.
fn run_step(
    prev: Option<&Project>,
    cur: &Project,
    cfg: &AuditConfig,
    mut warm: Option<&mut AuditCache>,
) -> (StepOutput, Option<Observed>) {
    let mut fresh = AuditCache::new();
    let report = audit_with_cache(cur, cfg, warm.as_deref_mut().unwrap_or(&mut fresh));
    let (audit, rechecked) = (audit_lines(&report), report.cache.check_misses);
    let Some(prev) = prev else {
        let out = StepOutput {
            audit,
            diff: Vec::new(),
            fixcheck: Ok(Vec::new()),
        };
        return (out, None);
    };
    let mut fresh = AuditCache::new();
    let d = diff_projects(
        prev,
        cur,
        cfg,
        warm.as_deref_mut().unwrap_or(&mut fresh),
        &DiffOptions::default(),
    );
    let observed = Observed {
        kb_grew: d.report_b.kb.len() > d.report_a.kb.len(),
        rechecked,
    };
    let mut fresh = AuditCache::new();
    let fixcheck = fixcheck_project(
        cur,
        &unified_diff(prev, cur),
        cfg,
        warm.unwrap_or(&mut fresh),
    )
    .map(|r| render_fixcheck_lines(&r));
    let out = StepOutput {
        audit,
        diff: render_diff_lines(&d.delta),
        fixcheck,
    };
    (out, Some(observed))
}

fn config(jobs: usize) -> AuditConfig {
    AuditConfig {
        jobs,
        ..AuditConfig::default()
    }
}

#[test]
fn warm_replays_equal_cold_runs_at_every_step() {
    let chains = [fix_chain(0x5eed_2026), release_chain(0x5eed_2026)];
    // The cold reference: every step computed from an empty cache.
    let cold: Vec<Vec<StepOutput>> = chains
        .iter()
        .map(|chain| {
            let mut prev: Option<&Project> = None;
            let mut outs = Vec::new();
            for (_, cur) in chain {
                outs.push(run_step(prev, cur, &config(1), None).0);
                prev = Some(cur);
            }
            outs
        })
        .collect();
    // Each dependency edit changes findings in units it does not touch,
    // which a warm run must re-check to see.
    for (label, path, _, _) in DEPENDENCY_EDITS {
        let i = chains[0].iter().position(|(l, _)| l == label).unwrap();
        assert!(
            cold[0][i].diff.iter().any(|line| !line.contains(path)),
            "{label}: no finding outside {path} changed"
        );
    }
    for jobs in [1, 4] {
        let mut cache = AuditCache::new();
        let (mut discovered, mut summary_changed) = (false, false);
        for (chain, cold) in chains.iter().zip(&cold) {
            let mut prev: Option<&Project> = None;
            for ((label, cur), want) in chain.iter().zip(cold) {
                let (got, observed) = run_step(prev, cur, &config(jobs), Some(&mut cache));
                assert_eq!(&got, want, "jobs {jobs}, step `{label}`: warm != cold");
                if let Some(o) = observed {
                    discovered |= o.kb_grew;
                    // The edited helper file plus its cross-unit caller.
                    summary_changed |= label == "helper stops releasing" && o.rechecked >= 2;
                }
                prev = Some(cur);
            }
        }
        assert!(discovered, "no step made discovery add an API");
        assert!(summary_changed, "the helper edit re-checked no dependent");
    }
}
