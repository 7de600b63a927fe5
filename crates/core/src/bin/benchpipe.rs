//! The `benchpipe` tool: measure the audit pipeline's parallel speedup
//! and incremental-cache behavior on a synthetic tree, and write the
//! numbers to a JSON report.
//!
//! ```text
//! benchpipe [OPTIONS]
//!
//! OPTIONS:
//!     --scale <F>    tree scale factor (default 1.0, ~350 files)
//!     --big          kernel-scale mode: replicate the tree into a
//!                    ~10k-file / ~1 MLoC corpus (see --replicas)
//!     --replicas <N> replica count for --big (default 100)
//!     --jobs <N>     parallel worker count (default: one per CPU)
//!     --edits <N>    files edited for the incremental run (default 1)
//!     --reps <N>     repetitions per configuration, best kept (default 3)
//!     --out <FILE>   JSON report path (default BENCH_pipeline.json)
//!     --check        enforce the speedup gates (exit 1 on failure)
//!     --eval         precision/recall mode: score feasibility on vs off
//!                    against an FP-trap tree (default out BENCH_eval.json)
//!     --baseline <F> with --eval --check: committed template-only F1
//!                    floor the combined two-engine run must meet
//!     -h, --help     print this help
//! ```
//!
//! The report (schema 10) records, against one tree:
//!
//! 1. `scaling` — a cold/warm wall-time curve over the worker-count
//!    ladder {1, 2, 4, `--jobs`} clamped to the available parallelism.
//!    The `cold_jobs1` / `cold_jobsN` / `warm` runs are the curve's end
//!    points; a single-core host measures only the `jobs=1` rung.
//! 2. `incremental` — `--edits` files mutated, warm cache: only the
//!    edited units re-run.
//!
//! With `--check`, the warm run must be ≥5× faster than cold at the
//! same job count, and the incremental run must re-parse exactly the
//! edited units. The host-dependent ≥2× parallel gate needs at least
//! four hardware threads; elsewhere it says SKIP explicitly rather
//! than silently passing, and the report records it as `"enforced"`
//! or `"skipped"`. On a single-core host the parallel configurations
//! are not measured at all (worker counts clamp to the available
//! parallelism, so they would be the sequential run again).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use refminer::corpus::{
    generate_big_tree, generate_tree, next_revision, BigTreeConfig, TreeConfig,
};
use refminer::parallel::effective_jobs;
use refminer::{
    audit_traced, audit_with_cache, evaluate, evaluate_engines, AuditCache, AuditConfig,
    AuditReport, EngineSet, Project, TraceHandle, TraceSummary,
};
use refminer_json::{obj, ToJson, Value};

fn usage() -> ! {
    eprintln!(
        "usage: benchpipe [--scale F] [--big [--replicas N]] [--jobs N] [--edits N] [--reps N] \
         [--out FILE] [--check] [--eval [--baseline F]]"
    );
    std::process::exit(2);
}

struct Options {
    scale: f64,
    big: bool,
    replicas: usize,
    jobs: usize,
    edits: usize,
    reps: usize,
    out: Option<PathBuf>,
    check: bool,
    eval: bool,
    baseline: Option<f64>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: 1.0,
        big: false,
        replicas: 100,
        jobs: 0,
        edits: 1,
        reps: 3,
        out: None,
        check: false,
        eval: false,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("benchpipe: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--scale" => match num("--scale").parse() {
                Ok(v) => opts.scale = v,
                Err(_) => usage(),
            },
            "--big" => opts.big = true,
            "--replicas" => match num("--replicas").parse::<usize>() {
                Ok(v) if v > 0 => opts.replicas = v,
                _ => usage(),
            },
            "--jobs" => match num("--jobs").parse() {
                Ok(v) => opts.jobs = v,
                Err(_) => usage(),
            },
            "--edits" => match num("--edits").parse() {
                Ok(v) => opts.edits = v,
                Err(_) => usage(),
            },
            "--reps" => match num("--reps").parse::<usize>() {
                Ok(v) if v > 0 => opts.reps = v,
                _ => usage(),
            },
            "--out" => opts.out = Some(PathBuf::from(num("--out"))),
            "--check" => opts.check = true,
            "--eval" => opts.eval = true,
            "--baseline" => match num("--baseline").parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => opts.baseline = Some(v),
                _ => usage(),
            },
            "-h" | "--help" => usage(),
            other => {
                eprintln!("benchpipe: unknown argument {other}");
                usage()
            }
        }
    }
    opts
}

/// One timed configuration: best-of-`reps` wall time plus the report
/// and trace summary of the final repetition.
struct Measured {
    secs: f64,
    report: AuditReport,
    summary: TraceSummary,
}

/// Runs one traced audit, returning the report and the trace summary.
/// Recording is observation-only, so every configuration is measured
/// under the same (negligible) instrumentation cost.
fn traced_run(project: &Project, config: &AuditConfig, cache: &mut AuditCache) -> Measured {
    let trace = TraceHandle::recording();
    let t = Instant::now();
    let report = audit_traced(project, config, cache, &trace);
    let secs = t.elapsed().as_secs_f64();
    let summary = trace.finish().map(|log| log.summary(0)).unwrap_or_default();
    Measured {
        secs,
        report,
        summary,
    }
}

fn measure(
    reps: usize,
    project: &Project,
    config: &AuditConfig,
    mut cache_for_rep: impl FnMut() -> AuditCache,
) -> (Measured, AuditCache) {
    let mut best = f64::INFINITY;
    let mut last: Option<(Measured, AuditCache)> = None;
    for _ in 0..reps {
        let mut cache = cache_for_rep();
        let m = traced_run(project, config, &mut cache);
        best = best.min(m.secs);
        last = Some((m, cache));
    }
    let (mut m, cache) = last.expect("reps > 0");
    m.secs = best;
    (m, cache)
}

/// Per-stage wall times read off the run's trace summary (schema 3);
/// schema 6 adds the phase-2 engine split from the `engine.*.us`
/// counters, so the delta engine's cost rides in every run's record.
fn stage_json(s: &TraceSummary) -> Value {
    let sec = |stage: &str| (s.stage_total_us(stage) as f64 / 1e6).to_json();
    let counter_sec =
        |name: &str| (s.counters.get(name).copied().unwrap_or(0) as f64 / 1e6).to_json();
    let merge = (s.stage_total_us("merge.kb") + s.stage_total_us("merge.progdb")) as f64 / 1e6;
    obj([
        ("hash_secs", sec("hash")),
        ("parse_secs", sec("parse")),
        ("export_secs", sec("export")),
        ("merge_secs", merge.to_json()),
        ("check_secs", sec("check")),
        ("engine_template_secs", counter_sec("engine.template.us")),
        ("engine_delta_secs", counter_sec("engine.delta.us")),
        ("report_secs", sec("report")),
        ("feasibility_secs", sec("feasibility")),
    ])
}

fn run_json(name: &str, m: &Measured, files: usize) -> (String, Value) {
    (
        name.to_string(),
        obj([
            ("secs", m.secs.to_json()),
            ("units_per_sec", (files as f64 / m.secs.max(1e-9)).to_json()),
            ("phase1_secs", m.report.phase1_secs.to_json()),
            ("phase2_secs", m.report.phase2_secs.to_json()),
            ("stages", stage_json(&m.summary)),
            ("findings", m.report.findings.len().to_json()),
            ("cache", m.report.cache.to_json()),
        ]),
    )
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.eval {
        return run_eval(&opts);
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_pipeline.json"));
    // `effective_jobs` clamps to the available parallelism, so on a
    // single-core host this resolves to 1 and the "parallel"
    // configuration collapses into the sequential one (and is skipped
    // below rather than measured twice).
    let jobs = effective_jobs(opts.jobs);
    let cores = effective_jobs(0);

    let tree = if opts.big {
        generate_big_tree(&BigTreeConfig {
            replicas: opts.replicas,
            scale: opts.scale,
            ..Default::default()
        })
    } else {
        generate_tree(&TreeConfig {
            scale: opts.scale,
            bugs_per_file: 1,
            include_tricky: false,
            ..Default::default()
        })
    };
    let files = tree.files.len();
    let project = Project::from_tree(&tree);
    eprintln!(
        "benchpipe: {} files ({} lines), jobs={jobs}, cores={cores}, reps={}{}",
        files,
        tree.total_lines(),
        opts.reps,
        if opts.big { " [big]" } else { "" },
    );

    // Big trees drop retained ASTs right after parse: no cache layer
    // ever persists them, and holding ~1 MLoC of ASTs in memory would
    // swamp what the benchmark is trying to measure.
    let base_cfg = AuditConfig {
        discover_apis: true,
        retain_asts: !opts.big,
        ..Default::default()
    };
    let cfg_at = |j: usize| AuditConfig {
        jobs: j,
        ..base_cfg.clone()
    };

    // The worker-count ladder {1, 2, 4, N}, clamped to the host so no
    // rung is oversubscription noise. A single-core host measures only
    // the sequential rung.
    let mut ladder: Vec<usize> = [1usize, 2, 4, jobs]
        .into_iter()
        .filter(|&j| j <= cores)
        .collect();
    ladder.sort_unstable();
    ladder.dedup();

    struct Rung {
        jobs: usize,
        cold: Measured,
        warm: Measured,
    }
    let mut rungs: Vec<Rung> = Vec::new();
    let mut rung_caches: Vec<AuditCache> = Vec::new();
    for &j in &ladder {
        let cfg = cfg_at(j);
        let (cold, mut cache) = measure(opts.reps, &project, &cfg, AuditCache::new);
        let warm = {
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..opts.reps {
                let m = traced_run(&project, &cfg, &mut cache);
                best = best.min(m.secs);
                last = Some(m);
            }
            let mut m = last.expect("reps > 0");
            m.secs = best;
            m
        };
        rungs.push(Rung {
            jobs: j,
            cold,
            warm,
        });
        rung_caches.push(cache);
    }
    let jobs_idx = ladder
        .iter()
        .position(|&j| j == jobs)
        .expect("jobs rung is on the ladder");
    let cold_seq = &rungs[0].cold;
    let cold_par = (jobs >= 2).then(|| &rungs[jobs_idx].cold);
    let warm = &rungs[jobs_idx].warm;

    // Incremental: edit `--edits` files, reuse the warm cache.
    let (rev, edited) = next_revision(&tree, 0xBE7C4, opts.edits);
    let rev_project = Project::from_tree(&rev);
    let mut incr_cache = rung_caches.swap_remove(jobs_idx);
    let incremental = traced_run(&rev_project, &cfg_at(jobs), &mut incr_cache);

    // Sanity: the numbers are only worth reporting if the outputs agree
    // across every rung and cold vs. warm.
    let cold_ref = cold_par.unwrap_or(cold_seq);
    let diverged = rungs.iter().any(|r| {
        r.cold.report.findings != cold_seq.report.findings
            || r.warm.report.findings != cold_seq.report.findings
    });
    if diverged {
        eprintln!("benchpipe: FAIL: findings diverged between configurations");
        return ExitCode::FAILURE;
    }

    let speedup_parallel = cold_seq.secs / cold_ref.secs.max(1e-9);
    let speedup_warm = cold_ref.secs / warm.secs.max(1e-9);
    let warm_hit_rate = warm.report.cache.hit_rate();
    let summary_hit_rate = warm.report.cache.export_hit_rate();

    // Gates are enforced only where they have room to mean something;
    // everywhere else the report (and the `--check` output) says SKIP
    // explicitly instead of letting the gate pass vacuously.
    let gate_enforced = cores >= 4 && jobs >= 4;
    let parallel_gate = if gate_enforced { "enforced" } else { "skipped" };

    let mut runs = vec![run_json("cold_jobs1", cold_seq, files)];
    if let Some(m) = cold_par {
        runs.push(run_json(&format!("cold_jobs{jobs}"), m, files));
    }
    runs.push(run_json("warm", warm, files));
    runs.push(run_json("incremental", &incremental, files));

    let scaling = Value::Arr(
        rungs
            .iter()
            .map(|r| {
                obj([
                    ("jobs", r.jobs.to_json()),
                    ("cold_secs", r.cold.secs.to_json()),
                    ("warm_secs", r.warm.secs.to_json()),
                ])
            })
            .collect(),
    );

    let mut report_fields = vec![
        // Schema 10 drops the `diff`, `fixcheck` and `history` replay
        // sections: refbench's `revision-replay` workload times the
        // same calls, and `tests/diff_sweep.rs` pins their re-parse
        // exactness. Every other schema-9 key is unchanged.
        ("schema", 10.to_json()),
        ("big", opts.big.to_json()),
        ("files", files.to_json()),
        ("lines", cold_seq.report.lines.to_json()),
        ("jobs", jobs.to_json()),
        ("cores", cores.to_json()),
        ("reps", opts.reps.to_json()),
        ("edits", edited.len().to_json()),
        ("runs", Value::Obj(runs)),
        ("speedup_parallel", speedup_parallel.to_json()),
        ("parallel_gate", parallel_gate.to_json()),
        ("speedup_warm", speedup_warm.to_json()),
        ("warm_hit_rate", warm_hit_rate.to_json()),
        ("summary_hit_rate", summary_hit_rate.to_json()),
        ("cold_phase1_secs", cold_ref.report.phase1_secs.to_json()),
        ("cold_phase2_secs", cold_ref.report.phase2_secs.to_json()),
        (
            "cold_parse_secs",
            (cold_ref.summary.stage_total_us("parse") as f64 / 1e6).to_json(),
        ),
        (
            "cold_export_secs",
            (cold_ref.summary.stage_total_us("export") as f64 / 1e6).to_json(),
        ),
        (
            "cold_merge_secs",
            ((cold_ref.summary.stage_total_us("merge.kb")
                + cold_ref.summary.stage_total_us("merge.progdb")) as f64
                / 1e6)
                .to_json(),
        ),
        (
            "cold_check_secs",
            (cold_ref.summary.stage_total_us("check") as f64 / 1e6).to_json(),
        ),
        ("scaling", scaling),
    ];
    if opts.big {
        report_fields.push(("replicas", opts.replicas.to_json()));
    }
    let report = Value::Obj(
        report_fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    if let Err(e) = std::fs::write(&out, format!("{}\n", report.to_string_pretty())) {
        eprintln!("benchpipe: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }

    eprintln!(
        "benchpipe: cold x1 {:.3}s | cold x{jobs} {:.3}s ({speedup_parallel:.2}x) | \
         warm {:.4}s ({speedup_warm:.1}x, {:.0}% hits) | incremental {:.4}s",
        cold_seq.secs,
        cold_ref.secs,
        warm.secs,
        warm_hit_rate * 100.0,
        incremental.secs,
    );
    eprintln!(
        "benchpipe: cold phases {:.3}s parse + {:.3}s export+check | \
         summary cache {:.0}% hits when warm",
        cold_ref.report.phase1_secs,
        cold_ref.report.phase2_secs,
        summary_hit_rate * 100.0,
    );
    println!("{}", out.display());

    if opts.check {
        let mut failed = false;
        if warm.report.cache.parse_misses != 0 || warm.report.cache.check_misses != 0 {
            eprintln!("benchpipe: FAIL: warm run recomputed cached units");
            failed = true;
        }
        if speedup_warm < 5.0 {
            eprintln!("benchpipe: FAIL: warm speedup {speedup_warm:.2}x < 5x");
            failed = true;
        }
        if incremental.report.cache.parse_misses != edited.len() {
            eprintln!(
                "benchpipe: FAIL: incremental run re-parsed {} units, expected {}",
                incremental.report.cache.parse_misses,
                edited.len()
            );
            failed = true;
        }
        if gate_enforced {
            if speedup_parallel < 2.0 {
                eprintln!(
                    "benchpipe: FAIL: parallel speedup {speedup_parallel:.2}x < 2x on {cores} cores"
                );
                failed = true;
            }
        } else {
            eprintln!(
                "benchpipe: SKIP: parallel >=2x gate needs cores >= 4 and jobs >= 4 \
                 (cores={cores}, jobs={jobs})"
            );
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!("benchpipe: CHECK PASS");
    }
    ExitCode::SUCCESS
}

/// `--eval`: generate an FP-trap tree, audit it with the feasibility
/// engine off and on, score both against the ground-truth manifest,
/// then audit once more with the template engine alone and score the
/// two-engine run against it. With `--check`, enforce that
/// feasibility pruning strictly improves precision on at least two
/// anti-patterns with zero recall loss, that the combined two-engine
/// F1 never drops below the template-only run's, and that it stays at
/// or above `--baseline` (the committed template-only baseline).
fn run_eval(opts: &Options) -> ExitCode {
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_eval.json"));
    let jobs = effective_jobs(opts.jobs);
    let tree = generate_tree(&TreeConfig {
        scale: opts.scale,
        fp_traps: true,
        include_tricky: false,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);
    eprintln!(
        "benchpipe: eval on {} files ({} bugs, {} traps), jobs={jobs}",
        tree.files.len(),
        tree.manifest.bugs.len(),
        tree.manifest.fp_traps.len()
    );

    let on_cfg = AuditConfig {
        jobs,
        ..Default::default()
    };
    let off_cfg = AuditConfig {
        feasibility: false,
        ..on_cfg.clone()
    };
    let tmpl_cfg = AuditConfig {
        engines: EngineSet::template_only(),
        ..on_cfg.clone()
    };
    let off_report = audit_with_cache(&project, &off_cfg, &mut AuditCache::new());
    let on_report = audit_with_cache(&project, &on_cfg, &mut AuditCache::new());
    let tmpl_report = audit_with_cache(&project, &tmpl_cfg, &mut AuditCache::new());
    let off = evaluate(&off_report.findings, &tree.manifest);
    let on = evaluate(&on_report.findings, &tree.manifest);
    let tmpl = evaluate(&tmpl_report.findings, &tree.manifest);
    let engines = evaluate_engines(&on_report.findings, &tree.manifest);

    // Per-pattern comparison. A pattern with a row only in the `off`
    // run had nothing but false positives there, all of which the
    // feasibility pass suppressed — Counts::default() scores that as
    // the perfect 1.0/1.0.
    let mut improved = 0usize;
    let mut recall_lost = false;
    let mut patterns: Vec<_> = off.rows.iter().map(|r| r.pattern).collect();
    for row in &on.rows {
        if !patterns.contains(&row.pattern) {
            patterns.push(row.pattern);
        }
    }
    patterns.sort();
    for p in &patterns {
        let find = |rows: &[refminer::EvalRow]| {
            rows.iter()
                .find(|r| r.pattern == *p)
                .map(|r| r.counts)
                .unwrap_or_default()
        };
        let (a, b) = (find(&off.rows), find(&on.rows));
        if b.recall() < a.recall() {
            recall_lost = true;
        }
        if b.precision() > a.precision() && b.recall() >= a.recall() {
            improved += 1;
        }
    }

    let report = obj([
        // Schema 2: `feasibility_on` carries the per-engine split and
        // confidence histogram, and the template-only comparison run
        // rides alongside (`template_only`, `f1_template_only`,
        // `f1_combined`). Every schema-1 key is unchanged.
        ("schema", 2.to_json()),
        ("files", tree.files.len().to_json()),
        ("bugs", tree.manifest.bugs.len().to_json()),
        ("fp_traps", tree.manifest.fp_traps.len().to_json()),
        ("feasibility_off", off.to_json()),
        ("feasibility_on", engines.to_json()),
        ("template_only", tmpl.to_json()),
        ("patterns_improved", improved.to_json()),
        ("recall_lost", recall_lost.to_json()),
        ("f1_off", off.totals.f1().to_json()),
        ("f1_on", on.totals.f1().to_json()),
        ("f1_template_only", tmpl.totals.f1().to_json()),
        ("f1_combined", on.totals.f1().to_json()),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{}\n", report.to_string_pretty())) {
        eprintln!("benchpipe: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }

    eprintln!(
        "benchpipe: feasibility off P {:.3} R {:.3} F1 {:.3} ({} trap hits) | \
         on P {:.3} R {:.3} F1 {:.3} ({} trap hits) | {} pattern(s) improved",
        off.totals.precision(),
        off.totals.recall(),
        off.totals.f1(),
        off.trap_hits,
        on.totals.precision(),
        on.totals.recall(),
        on.totals.f1(),
        on.trap_hits,
        improved,
    );
    eprintln!(
        "benchpipe: template-only F1 {:.3} | combined two-engine F1 {:.3}",
        tmpl.totals.f1(),
        on.totals.f1(),
    );
    println!("{}", out.display());

    if opts.check {
        let mut failed = false;
        if off.trap_hits == 0 {
            eprintln!("benchpipe: FAIL: the baseline run hit no FP traps — nothing to prune");
            failed = true;
        }
        if recall_lost {
            eprintln!("benchpipe: FAIL: feasibility pruning lost recall");
            failed = true;
        }
        if improved < 2 {
            eprintln!(
                "benchpipe: FAIL: precision improved on {improved} pattern(s), expected >= 2"
            );
            failed = true;
        }
        if on.totals.f1() < tmpl.totals.f1() {
            eprintln!(
                "benchpipe: FAIL: combined two-engine F1 {:.4} below template-only {:.4}",
                on.totals.f1(),
                tmpl.totals.f1()
            );
            failed = true;
        }
        if let Some(baseline) = opts.baseline {
            if on.totals.f1() < baseline {
                eprintln!(
                    "benchpipe: FAIL: combined F1 {:.4} below committed baseline {baseline:.4}",
                    on.totals.f1()
                );
                failed = true;
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!("benchpipe: EVAL CHECK PASS");
    }
    ExitCode::SUCCESS
}
