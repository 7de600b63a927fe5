//! Integration suite for the parallel audit pipeline and the
//! content-hash incremental cache.
//!
//! The contract under test: (1) the `--json` report is byte-identical
//! at any job count, (2) a warm cached run reproduces the cold run's
//! findings exactly — in memory and across a disk round trip — and an
//! in-memory one is at least 5× faster, and (3) editing one file
//! invalidates exactly that unit's cache entries.

use std::time::{Duration, Instant};

use refminer::corpus::{generate_tree, next_revision, SyntheticTree, TreeConfig};
use refminer::{
    audit, audit_with_cache, AntiPattern, AuditCache, AuditConfig, AuditReport, Project,
};
use refminer_json::ToJson;

/// How much faster a warm in-memory audit must be than a cold one.
const MIN_WARM_SPEEDUP: f64 = 5.0;

fn small_tree() -> SyntheticTree {
    generate_tree(&TreeConfig {
        scale: 0.04,
        ..Default::default()
    })
}

fn config(jobs: usize, discover: bool) -> AuditConfig {
    AuditConfig {
        jobs,
        discover_apis: discover,
        ..Default::default()
    }
}

/// Best wall time of three runs of `run`, each result dropped after
/// its clock stops.
fn best_of_three<T>(mut run: impl FnMut() -> T) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let out = run();
            let elapsed = start.elapsed();
            drop(out);
            elapsed
        })
        .min()
        .expect("three runs")
}

/// The exact bytes `refminer --json` prints for a report.
fn json_lines(report: &AuditReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_json().to_string());
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Determinism across job counts.
// ----------------------------------------------------------------------

#[test]
fn jobs_1_and_jobs_8_produce_byte_identical_json() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    for discover in [false, true] {
        let seq = audit(&project, &config(1, discover));
        let par = audit(&project, &config(8, discover));
        assert_eq!(
            json_lines(&seq),
            json_lines(&par),
            "JSON diverged at --jobs 8 (discover={discover})"
        );
        assert_eq!(seq.files, par.files);
        assert_eq!(seq.lines, par.lines);
        assert_eq!(seq.functions, par.functions);
        let paths = |r: &AuditReport| -> Vec<String> {
            r.diagnostics.units.iter().map(|u| u.path.clone()).collect()
        };
        assert_eq!(paths(&seq), paths(&par));
    }
}

#[test]
fn auto_jobs_matches_sequential() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    let seq = audit(&project, &config(1, false));
    let auto = audit(&project, &config(0, false));
    assert_eq!(json_lines(&seq), json_lines(&auto));
}

// ----------------------------------------------------------------------
// Warm cache reproduces cold results.
// ----------------------------------------------------------------------

#[test]
fn warm_in_memory_run_reproduces_cold_findings() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    let cfg = config(4, true);
    let mut cache = AuditCache::new();

    let cold = audit_with_cache(&project, &cfg, &mut cache);
    assert_eq!(cold.cache.parse_hits, 0, "cold run cannot hit");
    assert!(cold.cache.parse_misses > 0);

    let warm = audit_with_cache(&project, &cfg, &mut cache);
    assert_eq!(json_lines(&cold), json_lines(&warm));
    assert_eq!(cold.functions, warm.functions);
    assert_eq!(cold.lines, warm.lines);
    assert_eq!(warm.cache.parse_misses, 0, "warm run must not re-parse");
    assert_eq!(warm.cache.check_misses, 0, "warm run must not re-check");
    assert_eq!(warm.cache.parse_hits, tree.files.len());
    assert_eq!(warm.cache.discovery_hits, 1);

    let cold_time = best_of_three(|| {
        let mut fresh = AuditCache::new();
        (audit_with_cache(&project, &cfg, &mut fresh), fresh)
    });
    let warm_time = best_of_three(|| audit_with_cache(&project, &cfg, &mut cache));
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64();
    assert!(
        speedup >= MIN_WARM_SPEEDUP,
        "warm audit only {speedup:.1}x faster than cold ({cold_time:?} vs {warm_time:?})"
    );
}

#[test]
fn warm_disk_run_reproduces_cold_findings() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    let cfg = config(2, true);
    let dir = std::env::temp_dir().join(format!(
        "refminer_cache_rt_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cold_cache = AuditCache::with_dir(&dir);
    let cold = audit_with_cache(&project, &cfg, &mut cold_cache);
    cold_cache.save().expect("persist cache");

    // A fresh process would construct a new cache from the same dir.
    let mut warm_cache = AuditCache::with_dir(&dir);
    let warm = audit_with_cache(&project, &cfg, &mut warm_cache);
    assert_eq!(json_lines(&cold), json_lines(&warm));
    assert_eq!(cold.functions, warm.functions);
    assert_eq!(
        warm.cache.check_misses, 0,
        "disk-warm run must not re-check: {:?}",
        warm.cache
    );
    assert_eq!(warm.cache.discovery_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Incremental invalidation.
// ----------------------------------------------------------------------

#[test]
fn editing_one_file_invalidates_exactly_that_unit() {
    let base = small_tree();
    let (rev, edited) = next_revision(&base, 11, 1);
    assert_eq!(edited.len(), 1);

    // Discovery off: the KB is tree-global, so a single-file edit
    // re-runs discovery by design; the per-unit layers are what this
    // test isolates.
    let cfg = config(4, false);
    let mut cache = AuditCache::new();
    let cold = audit_with_cache(&Project::from_tree(&base), &cfg, &mut cache);

    let incr = audit_with_cache(&Project::from_tree(&rev), &cfg, &mut cache);
    assert_eq!(
        incr.cache.parse_misses, 1,
        "exactly the edited unit re-parses"
    );
    assert_eq!(
        incr.cache.check_misses, 1,
        "exactly the edited unit re-checks"
    );
    assert_eq!(incr.cache.parse_hits, base.files.len() - 1);

    // The appended helper is clean, so findings are unchanged.
    assert_eq!(json_lines(&cold), json_lines(&incr));

    // And a from-scratch audit of the revision agrees with the
    // incremental one.
    let scratch = audit(&Project::from_tree(&rev), &cfg);
    assert_eq!(json_lines(&scratch), json_lines(&incr));
    assert_eq!(scratch.functions, incr.functions);
    assert_eq!(scratch.lines, incr.lines);
}

#[test]
fn editing_one_file_reruns_discovery_but_not_clean_units() {
    let base = small_tree();
    let (rev, _) = next_revision(&base, 3, 1);
    let cfg = config(2, true);
    let mut cache = AuditCache::new();
    audit_with_cache(&Project::from_tree(&base), &cfg, &mut cache);

    let incr = audit_with_cache(&Project::from_tree(&rev), &cfg, &mut cache);
    // The tree fingerprint changed, so discovery re-runs…
    assert_eq!(incr.cache.discovery_misses, 1);
    // …but only the edited unit re-parses.
    assert_eq!(incr.cache.parse_misses, 1);

    let scratch = audit(&Project::from_tree(&rev), &cfg);
    assert_eq!(json_lines(&scratch), json_lines(&incr));
}

// ----------------------------------------------------------------------
// Whole-program analysis on the cross-unit corpus.
// ----------------------------------------------------------------------

fn cross_tree() -> SyntheticTree {
    generate_tree(&TreeConfig {
        scale: 0.04,
        cross_unit: true,
        ..Default::default()
    })
}

#[test]
fn whole_program_mode_finds_cross_unit_ground_truth_without_new_fps() {
    let tree = cross_tree();
    let project = Project::from_tree(&tree);
    let inter: Vec<_> = tree.manifest.bugs.iter().filter(|b| b.inter_unit).collect();
    assert!(!inter.is_empty(), "cross_unit tree must tag bugs");

    let whole = audit(&project, &config(4, true));
    let per_unit = audit(
        &project,
        &AuditConfig {
            whole_program: false,
            ..config(4, true)
        },
    );

    // Every tagged ground-truth bug is found under whole-program
    // analysis; none of them is visible to the per-unit pipeline.
    for b in &inter {
        let hit = |r: &AuditReport| {
            r.findings.iter().any(|f| {
                f.file == b.path && f.function == b.function && f.pattern.number() == b.pattern
            })
        };
        assert!(hit(&whole), "missed cross-unit bug: {b:?}");
        assert!(!hit(&per_unit), "per-unit mode cannot see: {b:?}");
    }

    // Zero false positives: every whole-program finding inside the
    // cross-unit module is ground truth…
    for f in whole
        .findings
        .iter()
        .filter(|f| f.file.starts_with("drivers/crossunit/"))
    {
        assert!(
            tree.manifest.bugs.iter().any(|b| {
                AntiPattern::from_number(b.pattern)
                    .is_some_and(|p| f.claims(&b.path, &b.function, p))
            }),
            "false positive: {f:?}"
        );
    }
    // …and outside it the two modes agree byte for byte, so the merged
    // database changes nothing on single-unit ground truth.
    let outside = |r: &AuditReport| -> Vec<String> {
        r.findings
            .iter()
            .filter(|f| !f.file.starts_with("drivers/crossunit/"))
            .map(|f| f.to_json().to_string())
            .collect()
    };
    assert_eq!(outside(&whole), outside(&per_unit));
}

#[test]
fn cross_unit_tree_is_deterministic_across_jobs_and_cache_temperature() {
    let tree = cross_tree();
    let project = Project::from_tree(&tree);
    let seq = audit(&project, &config(1, true));
    let par = audit(&project, &config(8, true));
    assert_eq!(json_lines(&seq), json_lines(&par));

    let mut cache = AuditCache::new();
    let cold = audit_with_cache(&project, &config(4, true), &mut cache);
    let warm = audit_with_cache(&project, &config(4, true), &mut cache);
    assert_eq!(json_lines(&seq), json_lines(&cold));
    assert_eq!(json_lines(&cold), json_lines(&warm));
    assert_eq!(warm.cache.check_misses, 0);
    assert_eq!(warm.cache.export_misses, 0, "summary layer must be warm");
    assert_eq!(warm.cache.export_hits, tree.files.len());
}

#[test]
fn helper_summary_change_rechecks_exactly_the_dependent_units() {
    let base = cross_tree();
    // Discovery off: a stable KB isolates the export/check layers.
    let cfg = config(4, false);
    let mut cache = AuditCache::new();
    audit_with_cache(&Project::from_tree(&base), &cfg, &mut cache);

    // Semantic edit: xu0_teardown stops releasing its argument. The
    // helpers unit re-parses and re-exports; the core unit re-checks
    // because its dependency fingerprint follows the helper summary —
    // and nothing else in the tree is touched.
    let mut rev = base.clone();
    let helpers = rev
        .files
        .iter_mut()
        .find(|f| f.path == "drivers/crossunit/xu0_helpers.c")
        .expect("helpers unit exists");
    helpers.content = helpers
        .content
        .replace("xu0_put_inner(np);", "np->name = 0;");

    let incr = audit_with_cache(&Project::from_tree(&rev), &cfg, &mut cache);
    assert_eq!(
        incr.cache.parse_misses, 1,
        "only the helpers unit re-parses"
    );
    assert_eq!(
        incr.cache.export_misses, 1,
        "only the helpers unit re-exports"
    );
    assert_eq!(
        incr.cache.check_misses, 2,
        "the helpers unit and its dependent core unit re-check"
    );
    assert_eq!(incr.cache.check_hits, base.files.len() - 2);

    // The incremental result agrees with a from-scratch audit of the
    // revision — which now reports the broken teardown's fallout.
    let scratch = audit(&Project::from_tree(&rev), &cfg);
    assert_eq!(json_lines(&scratch), json_lines(&incr));
}

#[test]
fn summary_neutral_helper_edit_rechecks_only_the_edited_unit() {
    let base = cross_tree();
    let cfg = config(4, false);
    let mut cache = AuditCache::new();
    let cold = audit_with_cache(&Project::from_tree(&base), &cfg, &mut cache);

    // Appending a new helper changes the file's content hash but no
    // existing summary, so dependent units stay cached.
    let mut rev = base.clone();
    let helpers = rev
        .files
        .iter_mut()
        .find(|f| f.path == "drivers/crossunit/xu0_helpers.c")
        .expect("helpers unit exists");
    helpers
        .content
        .push_str("\nint xu0_noop(void)\n{\n        return 0;\n}\n");

    let incr = audit_with_cache(&Project::from_tree(&rev), &cfg, &mut cache);
    assert_eq!(incr.cache.parse_misses, 1);
    assert_eq!(incr.cache.export_misses, 1);
    assert_eq!(
        incr.cache.check_misses, 1,
        "no summary changed, so no dependent re-checks"
    );
    assert_eq!(json_lines(&cold), json_lines(&incr));
}

#[test]
fn config_change_invalidates_check_layer_not_parse_layer() {
    // The vendor module's units call wrappers only discovery adds to
    // the KB; the rest of the tree names no discovered API.
    let tree = generate_tree(&TreeConfig {
        scale: 0.04,
        include_vendor: true,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);
    let mut cache = AuditCache::new();
    audit_with_cache(&project, &config(2, false), &mut cache);

    // Same parse limits, different KB (discovery on) → parse entries
    // stay valid, and check entries key on the KB entries each unit
    // names: the units that call a discovered API re-check, the rest
    // keep their entries.
    let second = audit_with_cache(&project, &config(2, true), &mut cache);
    assert_eq!(second.cache.parse_misses, 0, "parse layer survives");
    assert!(
        second.cache.check_misses > 0,
        "units naming a discovered API re-check"
    );
    assert!(
        second.cache.check_misses < tree.files.len() / 2,
        "units naming no discovered API keep their entries: {} of {} re-checked",
        second.cache.check_misses,
        tree.files.len()
    );
    let cold = audit(&project, &config(2, true));
    assert_eq!(json_lines(&second), json_lines(&cold));
}
