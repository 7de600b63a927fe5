//! `--watch`: re-audit when the tree changes.
//!
//! A polling watcher (no OS-specific notify APIs, keeping the
//! workspace dependency-free) fingerprints the files an audit reads —
//! each C source's relative path, size and mtime, found by the scan's
//! own walk ([`walk_sources`]) — and, when the fingerprint moves,
//! *debounces* until it holds still before enqueueing one whole-tree
//! re-audit through the engine's normal bounded queue. Per-unit cache
//! invalidation makes that re-audit cost proportional to what actually
//! changed. Anything else under the root, such as a `--cache-dir` the
//! re-audit itself rewrites, never moves the fingerprint.
//!
//! Robustness: the walk goes through the fault-injection seam and
//! breaks symlink cycles; an unreadable root backs off exponentially
//! (capped) instead of spinning; a full queue just means the change is
//! picked up on the next poll. None of these can wedge the watcher.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use refminer_progdb::{fnv1a_fold, mix, FNV_OFFSET};

use super::engine::EngineHandle;
use crate::project::walk_sources;

/// Watcher tuning.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// How often the tree is fingerprinted.
    pub poll_ms: u64,
    /// How long the fingerprint must hold still after a change before
    /// a re-audit is enqueued (absorbs multi-file save bursts).
    pub debounce_ms: u64,
}

/// Backoff cap for transient fingerprint errors.
const MAX_BACKOFF: Duration = Duration::from_millis(5_000);

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            poll_ms: 300,
            debounce_ms: 150,
        }
    }
}

/// Spawns the watcher thread; it exits when the engine stops.
pub(super) fn spawn(handle: EngineHandle, opts: WatchOptions) -> JoinHandle<()> {
    std::thread::spawn(move || watch_loop(handle, opts))
}

fn watch_loop(handle: EngineHandle, opts: WatchOptions) {
    let root = handle.root();
    let poll = Duration::from_millis(opts.poll_ms.max(1));
    let mut backoff = Duration::from_millis(opts.poll_ms.max(1));
    let mut last: Option<u64> = None;
    while !handle.is_stopped() {
        match fingerprint_tree(&root) {
            Err(_) => {
                // Unreadable root (possibly an injected fault): back
                // off, bounded, and keep the previous fingerprint.
                handle.note_scan_retry();
                sleep_unless_stopped(&handle, backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
                continue;
            }
            Ok(fp) => {
                backoff = Duration::from_millis(opts.poll_ms.max(1));
                match last {
                    None => last = Some(fp),
                    Some(prev) if prev != fp => {
                        // Debounce: wait for the fingerprint to settle
                        // so one save burst becomes one re-audit.
                        let mut settled = fp;
                        loop {
                            sleep_unless_stopped(&handle, Duration::from_millis(opts.debounce_ms));
                            if handle.is_stopped() {
                                return;
                            }
                            match fingerprint_tree(&root) {
                                Ok(next) if next == settled => break,
                                Ok(next) => settled = next,
                                Err(_) => {
                                    handle.note_scan_retry();
                                    break;
                                }
                            }
                        }
                        last = Some(settled);
                        handle.enqueue_watch_audit();
                    }
                    Some(_) => {}
                }
            }
        }
        sleep_unless_stopped(&handle, poll);
    }
}

/// Sleeps in short slices so shutdown isn't delayed by a poll period.
fn sleep_unless_stopped(handle: &EngineHandle, total: Duration) {
    let deadline = Instant::now() + total;
    while !handle.is_stopped() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// Fingerprint of the files an audit of `root` reads: every C source's
/// relative path, size and mtime, in path order. Errs only when the
/// root itself cannot be read.
fn fingerprint_tree(root: &Path) -> std::io::Result<u64> {
    let mut files: Vec<(String, u64, u64)> = Vec::new();
    walk_sources(root, |_, rel, meta| {
        let mtime = meta
            .modified()
            .ok()
            .and_then(|m| m.duration_since(SystemTime::UNIX_EPOCH).ok())
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        files.push((rel, meta.len(), mtime));
        None
    })?;
    files.sort_unstable();
    Ok(files.iter().fold(FNV_OFFSET, |h, (rel, len, mtime)| {
        mix(mix(fnv1a_fold(h, rel.as_bytes()), *len), *mtime)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("refminer-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fingerprint_tracks_content_changes() {
        let dir = temp_dir("fp");
        std::fs::write(dir.join("a.c"), "int a;\n").unwrap();
        let fp1 = fingerprint_tree(&dir).unwrap();
        assert_eq!(fp1, fingerprint_tree(&dir).unwrap());
        // A file the audit does not read leaves it alone: here the
        // cache a `--cache-dir` inside the root rewrites every audit.
        std::fs::create_dir_all(dir.join(".refminer")).unwrap();
        std::fs::write(dir.join(".refminer/audit-cache.bin"), "cache").unwrap();
        assert_eq!(fp1, fingerprint_tree(&dir).unwrap());
        // Adding a file moves the fingerprint; size is part of it, so
        // even same-mtime rewrites of different length register.
        std::fs::write(dir.join("b.c"), "int b;\n").unwrap();
        let fp2 = fingerprint_tree(&dir).unwrap();
        assert_ne!(fp1, fp2);
        std::fs::write(dir.join("b.c"), "int bbbb;\n").unwrap();
        assert_ne!(fp2, fingerprint_tree(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_errors_on_missing_root() {
        assert!(fingerprint_tree(Path::new("/nonexistent/refminer-watch")).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn fingerprint_survives_symlink_cycles() {
        // The same tree the scan audits with one `symlink_cycle`
        // diagnostic: sub/loop -> root.
        let dir = temp_dir("symcycle");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("sub/a.c"), "int a;\n").unwrap();
        std::os::unix::fs::symlink(&dir, dir.join("sub/loop")).unwrap();
        let fp = fingerprint_tree(&dir).expect("a cycle is not an error");
        assert_eq!(fp, fingerprint_tree(&dir).unwrap());
        std::fs::write(dir.join("sub/a.c"), "int aaaa;\n").unwrap();
        assert_ne!(fp, fingerprint_tree(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
