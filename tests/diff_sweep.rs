//! Integration suite for the finding-generalization sweep and the
//! diff-aware incremental audit.
//!
//! The contract under test: (1) `diff` deltas are exactly the set
//! difference of two full audits — byte-identical at any job count and
//! cache temperature; (2) pure line shifts classify as `moved`, not
//! introduced+fixed; (3) a partial-fix commit surfaces its unfixed
//! clone siblings as `left_behind`; (4) diff, fixcheck and history
//! re-parse only each revision's delta through one shared cache, and
//! re-check only the units the commit can reach; (5) on the FP-trap
//! corpus the sweep finds ≥90% of injected clone siblings with zero
//! spurious matches.

use refminer::checkers::UnitExports;
use refminer::corpus::{
    generate_fix_history, generate_release_history, generate_tree, ReleaseHistoryConfig, TreeConfig,
};
use refminer::cparse::parse_str;
use refminer::serve::render_finding_line;
use refminer::{
    audit_with_cache, diff_projects, evaluate_sweep, fixcheck_project, history_audit,
    render_diff_lines, render_file_diff, ApiKb, AuditCache, AuditConfig, AuditLimits, DiffOptions,
    ProgramDb, Project, Revision,
};
use std::collections::{BTreeSet, HashSet};

fn history_cfg() -> TreeConfig {
    TreeConfig {
        seed: 11,
        scale: 0.05,
        clone_groups: 3,
        ..Default::default()
    }
}

fn config(jobs: usize) -> AuditConfig {
    AuditConfig {
        jobs,
        discover_apis: true,
        ..Default::default()
    }
}

// ----------------------------------------------------------------------
// Delta exactness: diff == set difference of two full audits.
// ----------------------------------------------------------------------

#[test]
fn diff_delta_is_the_full_audit_set_difference() {
    let revs = generate_fix_history(&history_cfg());
    let projects: Vec<Project> = revs.iter().map(|r| Project::from_tree(&r.tree)).collect();
    let cfg = config(1);
    let mut cache = AuditCache::new();
    for i in 1..projects.len() {
        let (a, b) = (&projects[i - 1], &projects[i]);
        let dr = diff_projects(a, b, &cfg, &mut cache, &DiffOptions::default());

        let lines_a: HashSet<String> = dr
            .report_a
            .findings
            .iter()
            .map(render_finding_line)
            .collect();
        let lines_b: HashSet<String> = dr
            .report_b
            .findings
            .iter()
            .map(render_finding_line)
            .collect();
        let b_only: HashSet<&String> = lines_b.difference(&lines_a).collect();
        let a_only: HashSet<&String> = lines_a.difference(&lines_b).collect();

        let introduced: HashSet<String> = dr
            .delta
            .introduced
            .iter()
            .chain(dr.delta.moved.iter().map(|(_, to)| to))
            .map(render_finding_line)
            .collect();
        let fixed: HashSet<String> = dr
            .delta
            .fixed
            .iter()
            .chain(dr.delta.moved.iter().map(|(from, _)| from))
            .map(render_finding_line)
            .collect();
        assert_eq!(
            introduced.iter().collect::<HashSet<_>>(),
            b_only,
            "commit {i}: introduced+moved must equal the B-only findings"
        );
        assert_eq!(
            fixed.iter().collect::<HashSet<_>>(),
            a_only,
            "commit {i}: fixed+moved must equal the A-only findings"
        );
    }
}

#[test]
fn diff_delta_is_stable_across_jobs_and_cache_temperature() {
    let revs = generate_fix_history(&history_cfg());
    let a = Project::from_tree(&revs[0].tree);
    let b = Project::from_tree(&revs[1].tree);
    let opts = DiffOptions::default();

    let baseline =
        render_diff_lines(&diff_projects(&a, &b, &config(1), &mut AuditCache::new(), &opts).delta);
    assert!(!baseline.is_empty(), "the fix commit must produce a delta");

    // Parallel, cold cache.
    let par =
        render_diff_lines(&diff_projects(&a, &b, &config(4), &mut AuditCache::new(), &opts).delta);
    assert_eq!(baseline, par, "delta must not depend on the job count");

    // Warm cache: audit both revisions first, then diff against the
    // fully warm per-unit cache.
    let mut warm = AuditCache::new();
    audit_with_cache(&a, &config(1), &mut warm);
    audit_with_cache(&b, &config(1), &mut warm);
    let cached = render_diff_lines(&diff_projects(&a, &b, &config(1), &mut warm, &opts).delta);
    assert_eq!(
        baseline, cached,
        "delta must not depend on cache temperature"
    );
}

// ----------------------------------------------------------------------
// Moved detection.
// ----------------------------------------------------------------------

#[test]
fn pure_line_shifts_classify_as_moved() {
    let revs = generate_fix_history(&history_cfg());
    let base = &revs[0].tree;
    let cfg = config(1);
    let report = audit_with_cache(&Project::from_tree(base), &cfg, &mut AuditCache::new());
    assert!(!report.findings.is_empty());

    // Prepend two comment lines to the file holding the first finding:
    // its findings shift down, nothing else changes.
    let target = report.findings[0].file.clone();
    let mut shifted = base.clone();
    let file = shifted
        .files
        .iter_mut()
        .find(|f| f.path == target)
        .expect("finding's file exists in the tree");
    file.content = format!("// shifted\n// shifted\n{}", file.content);

    let dr = diff_projects(
        &Project::from_tree(base),
        &Project::from_tree(&shifted),
        &cfg,
        &mut AuditCache::new(),
        &DiffOptions::default(),
    );
    assert!(
        dr.delta.introduced.is_empty() && dr.delta.fixed.is_empty(),
        "a pure line shift must not read as introduced or fixed"
    );
    assert!(
        !dr.delta.moved.is_empty(),
        "the shift must classify as moved"
    );
    for (from, to) in &dr.delta.moved {
        assert_eq!(from.file, target);
        assert_eq!(to.line, from.line + 2, "shift distance is two lines");
    }
    assert!(dr.delta.is_clean(), "a move-only commit is clean");
}

// ----------------------------------------------------------------------
// Left-behind sweep on partial fixes.
// ----------------------------------------------------------------------

#[test]
fn partial_fix_commit_surfaces_left_behind_clones() {
    let revs = generate_fix_history(&history_cfg());
    let a = Project::from_tree(&revs[0].tree);
    let b = Project::from_tree(&revs[1].tree);
    let dr = diff_projects(
        &a,
        &b,
        &config(1),
        &mut AuditCache::new(),
        &DiffOptions::default(),
    );
    assert_eq!(dr.delta.fixed.len(), 1, "the commit repairs one clone site");
    assert!(!dr.delta.is_clean(), "clones were left behind");

    // The fixed member's group has CLONE_GROUP_SIZE - 1 unfixed
    // siblings; every one of them must be among the sweep's matches.
    let (group, fixed_path, _) = &revs[1].fixed[0];
    let manifest = &revs[1].tree.manifest;
    let cg = manifest
        .clone_groups
        .iter()
        .find(|g| &g.group == group)
        .expect("fixed group is in the manifest");
    let matched: HashSet<(&str, &str)> = dr
        .delta
        .left_behind
        .iter()
        .flat_map(|lb| lb.matches.iter())
        .map(|m| (m.finding.file.as_str(), m.finding.function.as_str()))
        .collect();
    for member in &cg.members {
        if &member.path == fixed_path {
            continue;
        }
        assert!(
            matched.contains(&(member.path.as_str(), member.function.as_str())),
            "unfixed sibling {}:{} missing from the left-behind sweep",
            member.path,
            member.function
        );
    }

    // With the sweep disabled the same delta reports nothing left
    // behind (and therefore reads clean).
    let quiet = diff_projects(
        &a,
        &b,
        &config(1),
        &mut AuditCache::new(),
        &DiffOptions { sweep: false },
    );
    assert!(quiet.delta.left_behind.is_empty());
    assert!(quiet.delta.is_clean());
}

// ----------------------------------------------------------------------
// Re-parse exactness across revisions.
// ----------------------------------------------------------------------

/// Replays a fix history through `diff_projects` and `fixcheck_project`
/// on one cache, then audits a release ladder with `history_audit`:
/// every revision after the first re-parses exactly its delta, each
/// partial fix is caught with siblings left behind, and the neutral
/// commit comes back clean.
#[test]
fn revision_replays_reparse_only_each_revisions_delta() {
    let revs = generate_fix_history(&history_cfg());
    let projects: Vec<Project> = revs.iter().map(|r| Project::from_tree(&r.tree)).collect();
    let cfg = config(1);
    let mut cache = AuditCache::new();
    for i in 1..projects.len() {
        let (a, b) = (&projects[i - 1], &projects[i]);
        let old_text = |path: &str| {
            a.units()
                .iter()
                .find(|u| u.path == path)
                .map_or("", |u| u.text.as_str())
        };
        let changed = b
            .units()
            .iter()
            .filter(|u| old_text(&u.path) != u.text)
            .count();
        let dr = diff_projects(a, b, &cfg, &mut cache, &DiffOptions::default());
        assert_eq!(
            dr.report_b.cache.parse_misses, changed,
            "commit {i}: the diff must re-parse exactly the changed units"
        );
        let diff: String = b
            .units()
            .iter()
            .filter_map(|u| render_file_diff(&u.path, old_text(&u.path), &u.text))
            .collect();
        let fr = fixcheck_project(b, &diff, &cfg, &mut cache).expect("the commit's diff applies");
        if revs[i].fixed.is_empty() {
            assert!(
                fr.is_clean(),
                "commit {i}: the neutral commit must be clean"
            );
        } else {
            assert!(
                !fr.fixed.is_empty() && fr.incomplete_total() > 0,
                "commit {i}: a partial fix must report its fix and the siblings it left"
            );
        }
    }

    let releases = generate_release_history(&ReleaseHistoryConfig {
        seed: 0x4E7EA5E,
        scale: 0.05,
        releases: 3,
        clone_groups: 2,
    });
    let root = std::env::temp_dir().join(format!("refminer_release_ladder_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (i, r) in releases.iter().enumerate() {
        r.tree
            .write_to(&root.join(format!("rel{i:02}")))
            .expect("write release");
    }
    let history = history_audit(&root, &cfg, &mut AuditCache::new());
    std::fs::remove_dir_all(&root).ok();
    let history = history.expect("history audit runs");
    assert_eq!(history.releases.len(), releases.len());
    for (i, (got, rel)) in history.releases.iter().zip(&releases).enumerate() {
        let want = if i == 0 {
            got.files
        } else {
            rel.added_files + rel.fixed.len()
        };
        assert_eq!(
            got.parse_misses, want,
            "release {}: re-parsed more than its delta",
            rel.version
        );
    }
}

/// Each unit's exports, and the names its functions call or open a
/// macro loop with: every name its checks look up.
fn exports_and_names(p: &Project) -> Vec<(UnitExports, BTreeSet<String>)> {
    let cap = AuditLimits::default().max_graph_nodes;
    p.units()
        .iter()
        .map(|u| {
            let ex = UnitExports::of_unit(&u.path, &parse_str(&u.path, &u.text), cap);
            let calls = ex
                .fns
                .iter()
                .flat_map(|f| f.calls.iter().map(|c| &c.callee));
            let names = calls.chain(&ex.loop_heads).cloned().collect();
            (ex, names)
        })
        .collect()
}

/// Names whose API or smartloop entry differs between two KBs.
fn changed_entries(a: &ApiKb, b: &ApiKb) -> BTreeSet<String> {
    let names = a.apis().chain(b.apis()).map(|x| x.name.clone());
    let loops = a.smartloops().chain(b.smartloops()).map(|l| l.name.clone());
    names
        .chain(loops)
        .filter(|n| a.get(n) != b.get(n) || a.smartloop(n) != b.smartloop(n))
        .collect()
}

/// The units of `b` a commit from `a` must re-check: those it changed,
/// those calling a helper whose merged summary it changed, and those
/// naming a KB entry it changed.
fn reachable_units(a: &Project, b: &Project, kb_a: &ApiKb, kb_b: &ApiKb) -> BTreeSet<String> {
    let (units_a, units_b) = (exports_and_names(a), exports_and_names(b));
    let db = |units: &[(UnitExports, BTreeSet<String>)], kb| {
        let exports: Vec<&UnitExports> = units.iter().map(|(ex, _)| ex).collect();
        ProgramDb::build(&exports, kb, true)
    };
    let (db_a, db_b) = (db(&units_a, kb_a), db(&units_b, kb_b));
    let kb_changed = changed_entries(kb_a, kb_b);
    b.units()
        .iter()
        .zip(&units_b)
        .filter(|(u, (_, names))| {
            let edited = a
                .units()
                .iter()
                .find(|o| o.path == u.path)
                .is_none_or(|o| o.text != u.text);
            edited
                || names.iter().any(|n| kb_changed.contains(n))
                || names
                    .iter()
                    .any(|n| db_a.summary_of(&u.path, n) != db_b.summary_of(&u.path, n))
        })
        .map(|(u, _)| u.path.clone())
        .collect()
}

/// Replays a fix history whose fix of group 4 makes discovery add the
/// fixed function to the KB as an Inc API. For every commit, `diff`'s
/// revision A and both `fixcheck` audits are trees the cache holds:
/// they hit the memoized barrier (so build no `ProgramDb`), re-check
/// nothing and add no cache entry. Revision B re-checks exactly the
/// units the commit reaches.
#[test]
fn commit_checks_recheck_only_what_each_commit_reaches() {
    let revs = generate_fix_history(&TreeConfig {
        clone_groups: 5,
        ..history_cfg()
    });
    let projects: Vec<Project> = revs.iter().map(|r| Project::from_tree(&r.tree)).collect();
    let cfg = config(1);
    let mut cache = AuditCache::new();
    audit_with_cache(&projects[0], &cfg, &mut cache);
    let mut kb_commits = Vec::new();
    for i in 1..projects.len() {
        let (a, b) = (&projects[i - 1], &projects[i]);
        let dr = diff_projects(a, b, &cfg, &mut cache, &DiffOptions::default());
        let s = &dr.report_a.cache;
        assert_eq!(
            (s.parse_misses, s.check_misses, s.discovery_hits),
            (0, 0, 1),
            "commit {i}: revision A must be served whole from the cache"
        );
        if !changed_entries(&dr.report_a.kb, &dr.report_b.kb).is_empty() {
            kb_commits.push(i);
        }
        let reachable = reachable_units(a, b, &dr.report_a.kb, &dr.report_b.kb);
        assert_eq!(
            dr.report_b.cache.check_misses,
            reachable.len(),
            "commit {i}: revision B must re-check exactly {reachable:?}"
        );

        let diff: String = b
            .units()
            .iter()
            .filter_map(|u| {
                let old = a.units().iter().find(|o| o.path == u.path);
                render_file_diff(&u.path, old.map_or("", |o| o.text.as_str()), &u.text)
            })
            .collect();
        let before = cache.len();
        let fr = fixcheck_project(b, &diff, &cfg, &mut cache).expect("the commit's diff applies");
        assert_eq!(
            cache.len(),
            before,
            "commit {i}: a fixcheck audit parsed, checked or merged something"
        );
        let s = &fr.report.cache;
        assert_eq!((s.check_misses, s.discovery_hits), (0, 1), "commit {i}");
    }
    assert_eq!(kb_commits, [5], "the fix of group 4 changes the KB");
}

// ----------------------------------------------------------------------
// Sweep acceptance: ≥90% clone recall, zero spurious, FP-trap corpus.
// ----------------------------------------------------------------------

#[test]
fn sweep_finds_clone_siblings_with_zero_spurious_matches() {
    let tree = generate_tree(&TreeConfig {
        seed: 7,
        scale: 0.05,
        clone_groups: 5,
        fp_traps: true,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);
    let cfg = config(1);
    let mut cache = AuditCache::new();
    let report = audit_with_cache(&project, &cfg, &mut cache);
    let audited = Revision::audited(&project, &report, &cache, &cfg);
    let sweep = evaluate_sweep(&report.findings, &tree.manifest, &report.kb, &audited);
    assert!(
        sweep.totals.found + sweep.totals.missed > 0,
        "the corpus must seed clone groups"
    );
    assert!(
        sweep.totals.recall() >= 0.9,
        "sweep recall {:.3} below the 90% acceptance floor",
        sweep.totals.recall()
    );
    assert_eq!(
        sweep.totals.spurious, 0,
        "sweep matched sites that are not injected bugs"
    );
    for row in &sweep.rows {
        assert!(row.seeded, "group {} found no seed finding", row.group);
    }
}
