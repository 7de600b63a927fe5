//! `refminer history`: the longitudinal fault-density study.
//!
//! Replays the audit across a multi-revision corpus (a directory of
//! release trees) through one shared [`AuditCache`], so each release
//! after the first re-parses only its delta, and reports findings per
//! KLoC per subsystem per release — the Faults-in-Linux Figure-1
//! methodology the paper's longitudinal claims build on.
//!
//! Revision discovery, most specific first:
//!
//! 1. `releases.json` in the root (`histgen --releases` output):
//!    explicit `version` labels per directory;
//! 2. `history.json` (`histgen` fix-history output): revision ids as
//!    labels;
//! 3. otherwise every subdirectory of the root, sorted by name.
//!
//! Output is byte-identical at any `--jobs` setting and any cache
//! temperature: findings are canonical, line counts are facts of the
//! tree, and densities are rendered with fixed precision.

use std::path::{Path, PathBuf};

use refminer_json::{obj, ToJson, Value};

use crate::audit::{audit_with_cache, AuditConfig};
use crate::cache::AuditCache;
use crate::project::Project;

/// Findings density for one subsystem in one release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRow {
    /// Subsystem label: `drivers/<sub>` for driver paths, otherwise
    /// the first path component.
    pub subsystem: String,
    /// Findings whose file falls in the subsystem.
    pub findings: usize,
    /// Source lines in the subsystem.
    pub lines: usize,
}

impl HistoryRow {
    /// Findings per thousand lines; 0 for an empty subsystem.
    pub fn per_kloc(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.findings as f64 * 1000.0 / self.lines as f64
        }
    }
}

/// One audited release.
#[derive(Debug)]
pub struct HistoryRelease {
    /// Version label (`v2.6.12`, …) or directory name.
    pub version: String,
    /// Directory under the history root.
    pub dir: String,
    /// Files audited.
    pub files: usize,
    /// Total source lines.
    pub lines: usize,
    /// Total findings.
    pub findings: usize,
    /// Units this release re-parsed (cache misses): the whole tree
    /// for the first release, only the delta afterwards.
    pub parse_misses: usize,
    /// Per-subsystem densities, sorted by subsystem name.
    pub rows: Vec<HistoryRow>,
}

/// The whole study.
#[derive(Debug)]
pub struct HistoryReport {
    /// Releases in history order.
    pub releases: Vec<HistoryRelease>,
}

/// The subsystem a path belongs to, Faults-in-Linux style: drivers
/// split one level deeper than everything else.
pub fn subsystem_of(path: &str) -> String {
    let mut parts = path.split('/');
    let first = parts.next().unwrap_or("");
    if first == "drivers" {
        if let Some(second) = parts.next() {
            if parts.next().is_some() {
                return format!("drivers/{second}");
            }
        }
        return "drivers".to_string();
    }
    if path.contains('/') {
        first.to_string()
    } else {
        ".".to_string()
    }
}

/// One labeled revision directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RevisionRef {
    /// Version label (or revision id, or the directory name).
    pub(crate) version: String,
    /// Directory under the history root.
    pub(crate) dir: String,
}

fn labeled_revisions(
    root: &Path,
    file: &str,
    list_key: &str,
    label_key: &str,
) -> Option<Vec<RevisionRef>> {
    let text = std::fs::read_to_string(root.join(file)).ok()?;
    let v = Value::parse(&text).ok()?;
    let entries = v.get(list_key)?.as_array()?;
    let mut out = Vec::new();
    for e in entries {
        let dir = e.get("dir")?.as_str()?.to_string();
        let version = e.get(label_key)?.as_str()?.to_string();
        out.push(RevisionRef { version, dir });
    }
    Some(out)
}

/// The revisions under `root`, in history order (see the module docs
/// for the discovery rules). `refminer history` and `eval --fixcheck`
/// both walk a history through this.
pub(crate) fn discover_revisions(root: &Path) -> Result<Vec<RevisionRef>, String> {
    if let Some(revs) = labeled_revisions(root, "releases.json", "releases", "version") {
        return Ok(revs);
    }
    if let Some(revs) = labeled_revisions(root, "history.json", "revisions", "id") {
        return Ok(revs);
    }
    let entries = std::fs::read_dir(root)
        .map_err(|e| format!("cannot read history root {}: {e}", root.display()))?;
    let mut dirs: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    dirs.sort();
    Ok(dirs
        .into_iter()
        .map(|d| RevisionRef {
            version: d.clone(),
            dir: d,
        })
        .collect())
}

/// Audits every release under `root` through one shared cache and
/// computes the per-subsystem density table.
pub fn history_audit(
    root: &Path,
    config: &AuditConfig,
    cache: &mut AuditCache,
) -> Result<HistoryReport, String> {
    let revisions = discover_revisions(root)?;
    if revisions.is_empty() {
        return Err(format!(
            "no revisions found under {}: expected releases.json, history.json, or revision subdirectories",
            root.display()
        ));
    }
    let mut releases = Vec::new();
    for rev in revisions {
        let dir: PathBuf = root.join(&rev.dir);
        let project = Project::scan(&dir).map_err(|e| {
            format!(
                "cannot scan revision {} ({}): {e}",
                rev.version,
                dir.display()
            )
        })?;
        let report = audit_with_cache(&project, config, cache);
        let mut rows: Vec<HistoryRow> = Vec::new();
        fn row_index(rows: &mut Vec<HistoryRow>, subsystem: String) -> usize {
            if let Some(i) = rows.iter().position(|r| r.subsystem == subsystem) {
                i
            } else {
                rows.push(HistoryRow {
                    subsystem,
                    findings: 0,
                    lines: 0,
                });
                rows.len() - 1
            }
        }
        for unit in project.units() {
            let i = row_index(&mut rows, subsystem_of(&unit.path));
            rows[i].lines += unit.text.lines().count();
        }
        for finding in &report.findings {
            let i = row_index(&mut rows, subsystem_of(&finding.file));
            rows[i].findings += 1;
        }
        rows.sort_by(|a, b| a.subsystem.cmp(&b.subsystem));
        releases.push(HistoryRelease {
            version: rev.version,
            dir: rev.dir,
            files: report.files,
            lines: project.total_lines(),
            findings: report.findings.len(),
            parse_misses: report.cache.parse_misses,
            rows,
        });
    }
    Ok(HistoryReport { releases })
}

/// Renders the study as JSONL: one line per release with its density
/// rows (densities as fixed-precision strings for byte stability),
/// then a summary line.
pub fn render_history_lines(report: &HistoryReport) -> Vec<String> {
    let mut lines = Vec::new();
    for rel in &report.releases {
        lines.push(
            obj([
                ("history", Value::Str("release".to_string())),
                ("version", rel.version.to_json()),
                ("dir", rel.dir.to_json()),
                ("files", rel.files.to_json()),
                ("lines", rel.lines.to_json()),
                ("findings", rel.findings.to_json()),
                // Deliberately no cache stats here: `parse_misses` is a
                // fact of the cache's temperature, not of the release,
                // and these lines are byte-stable across temperatures.
                // The text mode reports it on stderr instead.
                (
                    "rows",
                    Value::Arr(
                        rel.rows
                            .iter()
                            .map(|r| {
                                obj([
                                    ("subsystem", r.subsystem.to_json()),
                                    ("findings", r.findings.to_json()),
                                    (
                                        "kloc",
                                        Value::Str(format!("{:.3}", r.lines as f64 / 1000.0)),
                                    ),
                                    ("per_kloc", Value::Str(format!("{:.3}", r.per_kloc()))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
            .to_string(),
        );
    }
    lines.push(
        obj([
            ("history", Value::Str("summary".to_string())),
            ("releases", report.releases.len().to_json()),
        ])
        .to_string(),
    );
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_labels_follow_faults_in_linux() {
        assert_eq!(subsystem_of("drivers/net/eth.c"), "drivers/net");
        assert_eq!(subsystem_of("drivers/core.c"), "drivers");
        assert_eq!(subsystem_of("fs/ext4/inode.c"), "fs");
        assert_eq!(subsystem_of("kernel/sched.c"), "kernel");
        assert_eq!(subsystem_of("main.c"), ".");
    }

    #[test]
    fn per_kloc_handles_empty_subsystem() {
        let row = HistoryRow {
            subsystem: "fs".to_string(),
            findings: 3,
            lines: 0,
        };
        assert_eq!(row.per_kloc(), 0.0);
        let row = HistoryRow {
            subsystem: "fs".to_string(),
            findings: 2,
            lines: 4000,
        };
        assert!((row.per_kloc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_root_is_a_diagnostic_error() {
        let err = history_audit(
            Path::new("/nonexistent/refminer/history"),
            &AuditConfig::default(),
            &mut AuditCache::new(),
        )
        .unwrap_err();
        assert!(err.contains("cannot read history root"), "got: {err}");
    }
}
