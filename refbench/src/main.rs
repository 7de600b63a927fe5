//! The `refbench` command.
//!
//! ```text
//! refbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! refbench [--seed N] [--seconds S]      every workload, untraced and
//!                                        traced, each in its own process
//! refbench compare A B                   exit 1 if B breaks A's bounds
//! ```

use std::process::{Command, ExitCode, Stdio};

use refbench::{
    compare, report, run, stats, Params, Size, Workload, DEFAULT_SECONDS, DEFAULT_SEED,
};

const USAGE: &str = "usage: refbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n       refbench compare A B";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(o)
}

fn run_one(o: &Options, workload: Workload) -> ExitCode {
    let p = Params {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        size: Size::full(),
    };
    match run(&p) {
        Ok(outcome) => {
            print!("{}", report::render(&p, &outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("refbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// The first line `program args` prints, or `unknown` when it cannot
/// run (no git work tree, say).
fn stamp(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Runs every workload, untraced then traced, each in a child process,
/// and prints their outputs under one stamped header.
fn run_all(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("refbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# refbench result set nproc={} commit={} seed={} seconds={} date={}",
        stats::nproc(),
        stamp("git", &["rev-parse", "--short", "HEAD"]),
        o.seed,
        o.seconds,
        stamp("date", &["-u", "+%F"])
    );
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            match out {
                Ok(out) if out.status.success() => {
                    print!("{}", String::from_utf8_lossy(&out.stdout));
                }
                Ok(out) => {
                    eprintln!(
                        "refbench: {} --trace {trace} failed: {}",
                        workload.name(),
                        out.status
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("refbench: cannot run {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn compare_files(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse_results(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (la, lb) = match (read(a), read(b)) {
        (Ok(la), Ok(lb)) => (la, lb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("refbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare::compare(&la, &lb);
    print!("{}", compare::render(&rows));
    if rows.iter().any(compare::Row::out_of_bounds) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_files(&args[1..]);
    }
    match parse_options(&args) {
        Ok(o) => match o.workload {
            Some(w) => run_one(&o, w),
            None => run_all(&o),
        },
        Err(e) => {
            eprintln!("refbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
