//! `refbench compare A B`: is result set B within the bounds of A?
//!
//! For every workload and end-to-end metric of A, the medians of each
//! file's values are compared: B may be worse than A by at most the
//! metric's bound, as a share of A. Timings also show the spread of
//! their per-iteration samples, `(q3 - q1) / value`, on each side.
//! Per-layer metrics are listed with their ratio only; they have no
//! bound.

use crate::report::ResultLine;
use crate::stats::Samples;
use crate::{spec, Better, Spread};

/// The compared values of one workload's metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub name: String,
    /// Median value in A.
    pub a: f64,
    /// Median value in B, if B has the metric.
    pub b: Option<f64>,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse: Option<f64>,
    /// The metric's bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Per-iteration quartile spread in A and in B.
    pub spread: (Option<f64>, Option<f64>),
}

impl Row {
    /// Whether the row breaks its bound (or B lacks a bounded metric).
    pub fn out_of_bounds(&self) -> bool {
        match (self.bound, self.worse) {
            (Some(bound), Some(worse)) => worse > bound,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

/// Mean `(q3 - q1) / value` over the spreads printed for one metric.
fn quartile_spread(lines: &[&ResultLine]) -> Option<f64> {
    let shares: Vec<f64> = lines
        .iter()
        .filter_map(|l| l.spread.map(|Spread { q1, q3, .. }| (q3 - q1) / l.value))
        .collect();
    (!shares.is_empty()).then(|| shares.iter().sum::<f64>() / shares.len() as f64)
}

fn lines_of<'a>(set: &'a [ResultLine], workload: &str, name: &str) -> Vec<&'a ResultLine> {
    set.iter()
        .filter(|l| l.workload == workload && l.name == name)
        .collect()
}

fn median_of(lines: &[&ResultLine]) -> f64 {
    let mut s = Samples::default();
    for l in lines {
        s.push(l.value);
    }
    s.median()
}

/// Compares every metric of `a` with `b`, in `a`'s order.
pub fn compare(a: &[ResultLine], b: &[ResultLine]) -> Vec<Row> {
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for l in a {
        let key = (l.workload.as_str(), l.name.as_str());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.into_iter()
        .map(|(workload, name)| {
            let (la, lb) = (lines_of(a, workload, name), lines_of(b, workload, name));
            let va = median_of(&la);
            let vb = (!lb.is_empty()).then(|| median_of(&lb));
            let better = spec(name).map_or(Better::Lower, |s| s.better);
            // A zero in A has no share to worsen by: equal is no change,
            // anything else is unmeasurable.
            let worse = vb.and_then(|vb| match better {
                _ if va == 0.0 => (vb == 0.0).then_some(0.0),
                Better::Lower => Some((vb - va) / va),
                Better::Higher => Some((va - vb) / va),
            });
            Row {
                workload: workload.to_string(),
                name: name.to_string(),
                a: va,
                b: vb,
                worse,
                bound: spec(name).and_then(|s| s.bound),
                spread: (quartile_spread(&la), quartile_spread(&lb)),
            }
        })
        .collect()
}

/// Renders the comparison as a text table.
pub fn render(rows: &[Row]) -> String {
    let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:+.1}%", v * 100.0));
    let share = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0));
    let mut s = format!(
        "{:<16} {:<30} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "worse", "bound", "iqr A", "iqr B"
    );
    for r in rows {
        let verdict = if r.bound.is_none() {
            "info"
        } else if r.out_of_bounds() {
            "OUT"
        } else {
            "ok"
        };
        s.push_str(&format!(
            "{:<16} {:<30} {:>14.6} {:>14} {:>8} {:>8} {:>8} {:>8}  {verdict}\n",
            r.workload,
            r.name,
            r.a,
            r.b.map_or("-".to_string(), |b| format!("{b:.6}")),
            pct(r.worse),
            r.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            share(r.spread.0),
            share(r.spread.1),
        ));
    }
    s
}
