//! The benchmark's output: `name value unit` lines and the final JSON
//! object.
//!
//! A run prints a `#` comment line with its parameters, more comment
//! lines with facts such as sample counts, one line per metric, and
//! last the JSON object:
//!
//! ```text
//! # refbench workload=cold-audit seed=1 seconds=50 trace=0 nproc=2 digest=…
//! cold-audit op_p10_ms 188.3 ms n=241 q1=193.5 q3=214.9
//! cold-audit f1 0.9929 ratio
//! {"correct": true, "attempted": 17, "failed": 0, "metrics": {…}}
//! ```
//!
//! A result file is any concatenation of such outputs; `#` lines and
//! JSON lines are skipped when it is read back.

use crate::stats::nproc;
use crate::{Outcome, Params, Spread};

/// Renders a run's full standard output.
pub fn render(p: &Params, o: &Outcome) -> String {
    let mut s = format!(
        "# refbench workload={} seed={} seconds={} trace={} nproc={} digest={:016x}\n",
        o.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        nproc(),
        o.digest
    );
    for note in &o.notes {
        s.push_str(&format!("# {note}\n"));
    }
    for m in &o.metrics {
        s.push_str(&format!(
            "{} {} {} {}",
            o.workload.name(),
            m.name,
            m.value,
            m.unit
        ));
        if let Some(sp) = m.spread {
            s.push_str(&format!(" n={} q1={} q3={}", sp.n, sp.q1, sp.q3));
        }
        s.push('\n');
    }
    s.push_str(&json_line(o));
    s.push('\n');
    s
}

/// The final JSON object of a run that passed its checks.
pub fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// One metric line read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Quartiles of the samples behind it, when printed.
    pub spread: Option<Spread>,
}

/// Reads the metric lines of a result file.
pub fn parse_results(text: &str) -> Result<Vec<ResultLine>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('{') {
            continue;
        }
        let bad = || format!("line {}: not `workload name value unit`: {line}", i + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(bad());
        }
        let value: f64 = fields[2].parse().map_err(|_| bad())?;
        let kv = |key: &str| -> Option<f64> {
            fields[4..]
                .iter()
                .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        };
        let spread = match (kv("n"), kv("q1"), kv("q3")) {
            (Some(n), Some(q1), Some(q3)) => Some(Spread {
                n: n as usize,
                q1,
                q3,
            }),
            _ => None,
        };
        out.push(ResultLine {
            workload: fields[0].to_string(),
            name: fields[1].to_string(),
            value,
            unit: fields[3].to_string(),
            spread,
        });
    }
    Ok(out)
}
