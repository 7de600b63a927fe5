//! Pins the `refminer` API the benchmark compiles against.
//!
//! `refbench/` is a workspace of its own, so a core change that breaks
//! its build fails nothing in this workspace's test suite. This test
//! imports every `refminer` path that `refbench/src` and
//! `refbench/tests` import, and runs the two engine lists the
//! benchmark's per-layer replay times (`unit_layers` in
//! `refbench/src/layers.rs`).
//!
//! The benchmark-only change that drops refbench's `DeltaEngine`
//! import and its `delta.*` rows deletes this test, along with the
//! `refminer-delta` crate.

// The imports are the pin: each must resolve, and not all are called.
#[allow(unused_imports)]
use refminer::{
    audit, audit_traced, audit_with_cache,
    checkers::{run_engines_traced, AnalysisEngine, TemplateEngine, UnitExports},
    clex::{scan_defines, LexOptions, Lexer},
    content_hash,
    corpus::{
        generate_big_tree, generate_fix_history, generate_release_history, generate_tree,
        next_revision, BigTreeConfig, CloneGroup, Manifest, ReleaseHistoryConfig, ReleaseRev,
        SyntheticTree, TreeConfig, TreeRev,
    },
    cparse::{parse_str_limited, ParseLimits},
    cpg::FunctionGraph,
    diff_delta, diff_projects, evaluate, fixcheck_project, history_audit, parse_diff,
    rcapi::{discover_unit, merge_discoveries, DiscoverConfig},
    render_diff_lines, render_file_diff, render_fixcheck_lines,
    serve::render_finding_line,
    sweep::{abstract_template, sweep},
    ApiKb, AuditCache, AuditConfig, AuditLimits, AuditReport, CacheLoadOutcome, CacheStats,
    DeltaEngine, DiffOptions, Finding, HistoryRelease, ProgramDb, Project, TraceHandle,
};

#[test]
fn both_benchmark_engine_lists_find_bugs_on_a_trap_tree() {
    let tree = generate_tree(&TreeConfig {
        scale: 0.05,
        fp_traps: true,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);
    let builtin = ApiKb::builtin();
    let limits = ParseLimits::default();
    let max_nodes = AuditLimits::default().max_graph_nodes;
    let (mut tus, mut discoveries, mut defines, mut exports) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for u in project.units() {
        defines.extend(scan_defines(&u.text));
        let tu = parse_str_limited(&u.path, &u.text, &limits).unit;
        discoveries.push(discover_unit(&tu, &builtin));
        let (graphs, _, _) = FunctionGraph::build_all_limited_timed(&tu, max_nodes);
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        exports.push(UnitExports::extract(&u.path, &graphs, &globals));
        tus.push(tu);
    }
    let disc_refs: Vec<_> = discoveries.iter().collect();
    let kb = merge_discoveries(&disc_refs, &defines, &builtin, &DiscoverConfig::default())
        .into_kb(ApiKb::builtin());
    let export_refs: Vec<&UnitExports> = exports.iter().collect();
    let program = ProgramDb::build(&export_refs, &kb, true);

    let template: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(TemplateEngine::default_set())];
    let delta: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(DeltaEngine::new())];
    let off = TraceHandle::disabled();
    let (mut template_found, mut delta_found) = (0, 0);
    for tu in &tus {
        let (graphs, _, _) = FunctionGraph::build_all_limited_timed(tu, max_nodes);
        template_found += run_engines_traced(tu, &kb, &graphs, &template, &program, &off).len();
        delta_found += run_engines_traced(tu, &kb, &graphs, &delta, &program, &off).len();
    }
    assert!(template_found > 0, "the template engine found nothing");
    assert!(delta_found > 0, "the delta engine found nothing");
}
