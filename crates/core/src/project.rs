//! Project loading: a set of C sources to audit, from disk or from a
//! generated synthetic tree.
//!
//! Disk scanning is hardened against hostile trees: unreadable files
//! and directories become [`ScanDiagnostic`]s instead of aborting the
//! scan, non-UTF-8 content is decoded lossily (and flagged), oversized
//! files are skipped under a byte cap, and symlink cycles are broken by
//! tracking canonical directory identities.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use refminer_corpus::SyntheticTree;

use crate::cache::content_hash;

/// One source file queued for analysis.
#[derive(Debug, Clone)]
pub struct SourceUnit {
    /// Project-relative path.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// Why a path was skipped or flagged during a disk scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanErrorKind {
    /// A file could not be read; it was skipped.
    UnreadableFile,
    /// A directory could not be listed; its subtree was skipped.
    UnreadableDir,
    /// File content was not valid UTF-8; it was decoded lossily and
    /// kept.
    NonUtf8,
    /// The file exceeded [`ScanOptions::max_file_bytes`]; it was
    /// skipped.
    Oversize,
    /// A directory was reached twice through symlinks; the repeat visit
    /// was skipped.
    SymlinkCycle,
}

impl ScanErrorKind {
    /// Stable lower-snake name, used in reports and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            ScanErrorKind::UnreadableFile => "unreadable_file",
            ScanErrorKind::UnreadableDir => "unreadable_dir",
            ScanErrorKind::NonUtf8 => "non_utf8",
            ScanErrorKind::Oversize => "oversize",
            ScanErrorKind::SymlinkCycle => "symlink_cycle",
        }
    }
}

/// One problem the scanner recovered from.
#[derive(Debug, Clone)]
pub struct ScanDiagnostic {
    /// The path involved (project-relative where possible).
    pub path: String,
    /// What went wrong.
    pub kind: ScanErrorKind,
    /// Human-readable detail (e.g. the I/O error text).
    pub detail: String,
}

/// Resource limits and behavior switches for [`Project::scan_with`].
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Files larger than this many bytes are skipped (and diagnosed).
    pub max_file_bytes: u64,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            // 8 MiB: far above any real kernel source file, low enough
            // to bound memory on a hostile tree.
            max_file_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A set of C sources.
///
/// # Examples
///
/// ```
/// use refminer::Project;
///
/// let p = Project::from_sources(vec![(
///     "drivers/foo/foo.c".to_string(),
///     "int foo_probe(void) { return 0; }".to_string(),
/// )]);
/// assert_eq!(p.units().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Project {
    units: Vec<SourceUnit>,
    scan_diags: Vec<ScanDiagnostic>,
    /// Per unit, its content hash once an audit has asked for it. The
    /// units never change after construction, so neither does a hash.
    hashes: Vec<OnceLock<u64>>,
}

impl Project {
    fn new(units: Vec<SourceUnit>, scan_diags: Vec<ScanDiagnostic>) -> Project {
        let hashes = units.iter().map(|_| OnceLock::new()).collect();
        Project {
            units,
            scan_diags,
            hashes,
        }
    }

    /// Builds a project from in-memory sources.
    pub fn from_sources(sources: Vec<(String, String)>) -> Project {
        Project::new(
            sources
                .into_iter()
                .map(|(path, text)| SourceUnit { path, text })
                .collect(),
            Vec::new(),
        )
    }

    /// Builds a project from in-memory sources, each with its content
    /// hash when the caller already knows it (`content_hash` of that
    /// very text, e.g. read off another project holding the same file).
    pub(crate) fn from_hashed_sources(sources: Vec<(String, String, Option<u64>)>) -> Project {
        let (units, hashes) = sources
            .into_iter()
            .map(|(path, text, hash)| {
                let memo = hash.map_or_else(OnceLock::new, OnceLock::from);
                (SourceUnit { path, text }, memo)
            })
            .unzip();
        Project {
            units,
            scan_diags: Vec::new(),
            hashes,
        }
    }

    /// Builds a project from a generated synthetic tree.
    pub fn from_tree(tree: &SyntheticTree) -> Project {
        Project::new(
            tree.files
                .iter()
                .map(|f| SourceUnit {
                    path: f.path.clone(),
                    text: f.content.clone(),
                })
                .collect(),
            Vec::new(),
        )
    }

    /// Recursively scans a directory for `.c` and `.h` files with
    /// default [`ScanOptions`].
    pub fn scan(root: &Path) -> io::Result<Project> {
        Self::scan_with(root, &ScanOptions::default())
    }

    /// Recursively scans a directory for `.c` and `.h` files.
    ///
    /// Only an unreadable *root* is an `Err`; every other problem is
    /// recorded as a [`ScanDiagnostic`] (see
    /// [`Project::scan_diagnostics`]) and the scan continues.
    pub fn scan_with(root: &Path, opts: &ScanOptions) -> io::Result<Project> {
        let mut units = Vec::new();
        let mut diags = walk_sources(root, |path, rel, meta| {
            if meta.len() > opts.max_file_bytes {
                let detail = format!(
                    "{} bytes exceeds the {}-byte cap",
                    meta.len(),
                    opts.max_file_bytes
                );
                return Some(diagnostic(rel, ScanErrorKind::Oversize, detail));
            }
            let bytes = match refminer_faultio::read(path) {
                Ok(b) => b,
                Err(e) => return Some(diagnostic(rel, ScanErrorKind::UnreadableFile, e)),
            };
            let (text, lossy) = match String::from_utf8(bytes) {
                Ok(text) => (text, None),
                Err(e) => (
                    String::from_utf8_lossy(e.as_bytes()).into_owned(),
                    Some(diagnostic(
                        rel.clone(),
                        ScanErrorKind::NonUtf8,
                        "decoded lossily",
                    )),
                ),
            };
            units.push(SourceUnit { path: rel, text });
            lossy
        })?;
        units.sort_by(|a, b| a.path.cmp(&b.path));
        diags.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Project::new(units, diags))
    }

    /// The files in the project.
    pub fn units(&self) -> &[SourceUnit] {
        &self.units
    }

    /// Problems recovered from during [`Project::scan_with`]; empty for
    /// in-memory projects.
    pub fn scan_diagnostics(&self) -> &[ScanDiagnostic] {
        &self.scan_diags
    }

    /// Unit `i`'s content hash ([`content_hash`] of its text), computed
    /// the first time any audit asks and read from the memo after that;
    /// the flag says whether this call computed it.
    pub(crate) fn unit_hash(&self, i: usize) -> (u64, bool) {
        if let Some(&h) = self.hashes[i].get() {
            return (h, false);
        }
        let h = content_hash(&self.units[i].text);
        // Two audits racing on one project compute the same value.
        let _ = self.hashes[i].set(h);
        (h, true)
    }

    /// Total source lines across the project.
    pub fn total_lines(&self) -> usize {
        self.units.iter().map(|u| u.text.lines().count()).sum()
    }
}

/// Whether `path` names a C source: a `.c` or `.h` file. The scan, the
/// `--watch` fingerprint and fixcheck's diff filter share this rule.
pub(crate) fn is_source_path(path: &Path) -> bool {
    path.extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e == "c" || e == "h")
}

/// Walks `root` for C sources — the one walk behind both
/// [`Project::scan_with`] and the daemon's `--watch` fingerprint, so the
/// watcher sees exactly the files an audit reads.
///
/// The root is probed first: a missing or unreadable root is the only
/// `Err`. Directory listings and file metadata go through the
/// fault-injection seam, so a chaos harness can flake them
/// deterministically. A directory is visited at most once under its
/// canonical identity, which breaks symlink cycles. Each source file
/// ([`is_source_path`]) is handed to `visit` with its on-disk path, its
/// root-relative `/`-separated path and its metadata, in walk order;
/// whatever diagnostic `visit` returns joins the walk's own (cycles,
/// unreadable directories and files), which are returned unsorted.
pub(crate) fn walk_sources(
    root: &Path,
    mut visit: impl FnMut(&Path, String, &std::fs::Metadata) -> Option<ScanDiagnostic>,
) -> io::Result<Vec<ScanDiagnostic>> {
    refminer_faultio::read_dir(root)?;
    let rel_of = |path: &Path| -> String {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let mut diags = Vec::new();
    let mut seen_dirs: HashSet<PathBuf> = HashSet::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let canon = match std::fs::canonicalize(&dir) {
            Ok(canon) => canon,
            Err(e) => {
                diags.push(diagnostic(rel_of(&dir), ScanErrorKind::UnreadableDir, e));
                continue;
            }
        };
        if !seen_dirs.insert(canon) {
            let detail = "directory already visited";
            diags.push(diagnostic(
                rel_of(&dir),
                ScanErrorKind::SymlinkCycle,
                detail,
            ));
            continue;
        }
        let entries = match refminer_faultio::read_dir(&dir) {
            Ok(it) => it,
            Err(e) => {
                diags.push(diagnostic(rel_of(&dir), ScanErrorKind::UnreadableDir, e));
                continue;
            }
        };
        for entry in entries {
            let path = match entry {
                Ok(e) => e.path(),
                Err(e) => {
                    diags.push(diagnostic(rel_of(&dir), ScanErrorKind::UnreadableDir, e));
                    continue;
                }
            };
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            if !is_source_path(&path) {
                continue;
            }
            let rel = rel_of(&path);
            match refminer_faultio::metadata(&path) {
                Ok(meta) => diags.extend(visit(&path, rel, &meta)),
                Err(e) => diags.push(diagnostic(rel, ScanErrorKind::UnreadableFile, e)),
            }
        }
    }
    Ok(diags)
}

fn diagnostic(path: String, kind: ScanErrorKind, detail: impl ToString) -> ScanDiagnostic {
    ScanDiagnostic {
        path,
        kind,
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_corpus::{generate_tree, TreeConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("refminer_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn from_tree_mirrors_files() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.02,
            ..Default::default()
        });
        let p = Project::from_tree(&tree);
        assert_eq!(p.units().len(), tree.files.len());
        assert!(p.total_lines() > 100);
    }

    #[test]
    fn scan_reads_written_tree() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.02,
            ..Default::default()
        });
        let dir = std::env::temp_dir().join(format!("refminer_scan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tree.write_to(&dir).expect("write tree");
        let p = Project::scan(&dir).expect("scan");
        // manifest.json is ignored; every .c/.h is picked up.
        assert_eq!(p.units().len(), tree.files.len());
        assert!(p.scan_diagnostics().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_root_is_an_error() {
        let dir = std::env::temp_dir().join("refminer_definitely_missing_root");
        assert!(Project::scan(&dir).is_err());
    }

    #[test]
    fn non_utf8_is_kept_lossily_and_flagged() {
        let dir = temp_dir("nonutf8");
        std::fs::write(dir.join("ok.c"), "int f(void) { return 0; }\n").unwrap();
        std::fs::write(
            dir.join("bad.c"),
            b"int g(void) { return 0; } /* \xff\xfe */\n",
        )
        .unwrap();
        let p = Project::scan(&dir).expect("scan");
        assert_eq!(p.units().len(), 2);
        let diags = p.scan_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, ScanErrorKind::NonUtf8);
        assert_eq!(diags[0].path, "bad.c");
        let bad = p.units().iter().find(|u| u.path == "bad.c").unwrap();
        assert!(bad.text.contains('\u{FFFD}'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversize_files_are_skipped_and_flagged() {
        let dir = temp_dir("oversize");
        std::fs::write(dir.join("small.c"), "int f(void) { return 0; }\n").unwrap();
        std::fs::write(dir.join("huge.c"), "x".repeat(4096)).unwrap();
        let opts = ScanOptions {
            max_file_bytes: 1024,
        };
        let p = Project::scan_with(&dir, &opts).expect("scan");
        assert_eq!(p.units().len(), 1);
        assert_eq!(p.units()[0].path, "small.c");
        assert_eq!(p.scan_diagnostics().len(), 1);
        assert_eq!(p.scan_diagnostics()[0].kind, ScanErrorKind::Oversize);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn symlink_cycles_do_not_hang_the_scan() {
        let dir = temp_dir("symcycle");
        let sub = dir.join("sub");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("a.c"), "int f(void) { return 0; }\n").unwrap();
        // sub/loop -> dir, forming a cycle.
        std::os::unix::fs::symlink(&dir, sub.join("loop")).unwrap();
        let p = Project::scan(&dir).expect("scan");
        assert_eq!(p.units().len(), 1);
        assert!(p
            .scan_diagnostics()
            .iter()
            .any(|d| d.kind == ScanErrorKind::SymlinkCycle));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_file_is_diagnosed_not_fatal() {
        use std::os::unix::fs::PermissionsExt;
        let dir = temp_dir("unreadable");
        std::fs::write(dir.join("ok.c"), "int f(void) { return 0; }\n").unwrap();
        let locked = dir.join("locked.c");
        std::fs::write(&locked, "int g(void) { return 0; }\n").unwrap();
        std::fs::set_permissions(&locked, std::fs::Permissions::from_mode(0o000)).unwrap();
        let p = Project::scan(&dir).expect("scan");
        // Root can still read the file regardless of mode bits; accept
        // either outcome but require no panic and the readable file in.
        assert!(p.units().iter().any(|u| u.path == "ok.c"));
        if p.units().len() == 1 {
            assert!(p
                .scan_diagnostics()
                .iter()
                .any(|d| d.kind == ScanErrorKind::UnreadableFile));
        }
        std::fs::set_permissions(&locked, std::fs::Permissions::from_mode(0o644)).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
