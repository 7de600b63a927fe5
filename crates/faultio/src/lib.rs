//! Deterministic I/O fault injection for the audit pipeline.
//!
//! Every filesystem operation the pipeline's persistence and scan
//! layers perform goes through the thin wrappers in this crate instead
//! of calling `std::fs` directly. With no plan installed the wrappers
//! delegate with zero behavioral difference — the only cost is one
//! relaxed atomic load. With a [`FaultPlan`] installed (in-process via
//! [`install`], or through the `REFMINER_FAULTS` environment variable
//! for black-box processes), a *seeded, deterministic* schedule decides
//! which calls fail: the `n`-th call of a given operation kind fails
//! exactly when `fnv(seed, kind, n) % rate == 0`, so a failing run can
//! be replayed bit-for-bit by reusing the seed.
//!
//! Three fault shapes:
//!
//! - **Erroring** — the wrapper returns `io::Error` (kind `Other`,
//!   message prefixed `injected fault:`) without touching the
//!   filesystem. Models `EIO`, `ENOSPC`, permission flaps.
//! - **Torn write** — for [`write()`] only: the wrapper writes a *prefix*
//!   of the content and then errors, simulating a process killed (or a
//!   disk filled) mid-write. This is what makes the atomic-rename save
//!   path testable without real `kill -9` timing races.
//! - **Stall** — with [`FaultPlan::stall_ms`] set, a scheduled call
//!   *sleeps* that long and then proceeds normally instead of erroring.
//!   Models a hung NFS mount or a disk spinning up: the operation
//!   eventually succeeds, but anything waiting on it without a deadline
//!   hangs with it. The sleep happens outside the plan lock, so other
//!   threads' I/O keeps flowing while one call stalls.
//!
//! The schedule is global to the process (a `Mutex<Option<Plan>>`), so
//! a daemon under test can have faults injected into every layer at
//! once; [`stats`] reports how many faults each operation kind absorbed
//! so tests can assert the harness actually fired.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Operation kinds the injector can fail, in stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// File reads: [`read`], [`read_to_string`].
    Read,
    /// File writes: [`write()`] (including the torn-write shape).
    Write,
    /// [`rename`] — the atomic-publish step of cache saves.
    Rename,
    /// Directory creation: [`create_dir_all`].
    Mkdir,
    /// Scan syscalls: [`metadata`], [`read_dir`].
    Scan,
}

impl FaultOp {
    /// Every kind, in stable order (indexes the per-op counters).
    pub fn all() -> [FaultOp; 5] {
        [
            FaultOp::Read,
            FaultOp::Write,
            FaultOp::Rename,
            FaultOp::Mkdir,
            FaultOp::Scan,
        ]
    }

    /// Stable lower-case name, used by `REFMINER_FAULTS` and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Rename => "rename",
            FaultOp::Mkdir => "mkdir",
            FaultOp::Scan => "scan",
        }
    }

    /// Parses [`FaultOp::name`] back into the kind.
    pub fn from_name(name: &str) -> Option<FaultOp> {
        FaultOp::all().into_iter().find(|o| o.name() == name)
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// A deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every schedule decision; same seed, same faults.
    pub seed: u64,
    /// Fail roughly one call in `rate`. `0` disables injection (an
    /// installed-but-inert plan), `1` fails every call.
    pub rate: u64,
    /// Which operation kinds the schedule applies to.
    pub ops: Vec<FaultOp>,
    /// Hard cap on total injected failures; `None` is unlimited. Lets a
    /// soak test front-load chaos and then settle into a clean tail.
    pub max_failures: Option<u64>,
    /// When set, a failing [`write()`] first writes this fraction of the
    /// content (in per-mille, so `500` = half) before erroring — the
    /// torn-write shape. `0` means fail before writing anything.
    pub torn_write_permille: u16,
    /// When nonzero, a scheduled call sleeps this many milliseconds and
    /// then *proceeds normally* instead of erroring — the stall shape.
    /// Counts toward [`FaultStats::injected`] and `max_failures` like
    /// an erroring fault.
    pub stall_ms: u64,
}

impl FaultPlan {
    /// A plan failing one in `rate` calls of every operation kind.
    pub fn everything(seed: u64, rate: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            ops: FaultOp::all().to_vec(),
            max_failures: None,
            torn_write_permille: 500,
            stall_ms: 0,
        }
    }

    /// Parses the `REFMINER_FAULTS` syntax:
    /// `seed=N,rate=N[,ops=read+write+rename][,max=N][,torn=N][,stall=N]`.
    /// Unknown keys and malformed values yield `None` — a typo must
    /// never silently run faultless.
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let mut plan = FaultPlan {
            seed: 0,
            rate: 0,
            ops: FaultOp::all().to_vec(),
            max_failures: None,
            torn_write_permille: 500,
            stall_ms: 0,
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            match key.trim() {
                "seed" => plan.seed = value.trim().parse().ok()?,
                "rate" => plan.rate = value.trim().parse().ok()?,
                "max" => plan.max_failures = Some(value.trim().parse().ok()?),
                "torn" => plan.torn_write_permille = value.trim().parse().ok()?,
                "stall" => plan.stall_ms = value.trim().parse().ok()?,
                "ops" => {
                    plan.ops = value
                        .split('+')
                        .map(|o| FaultOp::from_name(o.trim()))
                        .collect::<Option<_>>()?;
                }
                _ => return None,
            }
        }
        Some(plan)
    }
}

/// How many faults each operation kind has absorbed since the plan was
/// installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected failures per [`FaultOp`] (indexed by stable order).
    pub injected: [u64; 5],
    /// Total calls per [`FaultOp`] that consulted the schedule.
    pub calls: [u64; 5],
}

impl FaultStats {
    /// Total injected failures across all operation kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

#[derive(Debug)]
struct ActivePlan {
    plan: FaultPlan,
    stats: FaultStats,
}

static PLAN: Mutex<Option<ActivePlan>> = Mutex::new(None);
/// Fast path: skip the mutex entirely while no plan is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Installs a fault plan process-wide, resetting counters and stats.
pub fn install(plan: FaultPlan) {
    let mut guard = PLAN.lock().unwrap();
    ARMED.store(plan.rate > 0, Ordering::Relaxed);
    *guard = Some(ActivePlan {
        plan,
        stats: FaultStats::default(),
    });
}

/// Removes any installed plan; subsequent calls are plain `std::fs`.
pub fn clear() {
    let mut guard = PLAN.lock().unwrap();
    ARMED.store(false, Ordering::Relaxed);
    *guard = None;
}

/// Reads `REFMINER_FAULTS` once per process and installs the plan it
/// describes. Called lazily by every wrapper, so a daemon started with
/// the variable set is faulty from its very first I/O; explicit
/// [`install`]/[`clear`] calls still override it afterwards.
fn maybe_init_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("REFMINER_FAULTS") {
            // An empty value means "no faults", so wrappers can pass
            // the variable through unconditionally.
            if spec.trim().is_empty() {
                return;
            }
            match FaultPlan::parse(&spec) {
                Some(plan) => install(plan),
                None => eprintln!("refminer-faultio: ignoring malformed REFMINER_FAULTS `{spec}`"),
            }
        }
    });
}

/// Current stats, `None` when no plan is installed.
pub fn stats() -> Option<FaultStats> {
    PLAN.lock().unwrap().as_ref().map(|a| a.stats)
}

/// Whether a plan is installed with a nonzero rate.
pub fn is_armed() -> bool {
    maybe_init_from_env();
    ARMED.load(Ordering::Relaxed)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_mix(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What the schedule decided for one call.
enum Injection {
    /// Return an injected `io::Error` (carries the torn-write permille,
    /// which only [`write()`] consults).
    Fail(u16),
    /// Sleep this many milliseconds, then proceed normally.
    Stall(u64),
}

/// Consults the schedule for one call of `op`. The decision is taken
/// under the plan lock; a stall's sleep is performed by the wrapper
/// *after* the lock is released so one stalled call never blocks the
/// schedule for other threads.
fn consult(op: FaultOp) -> Option<Injection> {
    maybe_init_from_env();
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = PLAN.lock().unwrap();
    let active = guard.as_mut()?;
    if !active.plan.ops.contains(&op) || active.plan.rate == 0 {
        return None;
    }
    let i = op.index();
    let n = active.stats.calls[i];
    active.stats.calls[i] += 1;
    if let Some(max) = active.plan.max_failures {
        if active.stats.total_injected() >= max {
            return None;
        }
    }
    let h = fnv_mix(fnv_mix(fnv_mix(FNV_OFFSET, active.plan.seed), i as u64), n);
    if h.is_multiple_of(active.plan.rate) {
        active.stats.injected[i] += 1;
        if active.plan.stall_ms > 0 {
            Some(Injection::Stall(active.plan.stall_ms))
        } else {
            Some(Injection::Fail(active.plan.torn_write_permille))
        }
    } else {
        None
    }
}

/// Consults the schedule for one call of `op`, absorbing any stall
/// in-place. Returns `Some(permille)` exactly when the call must fail.
fn should_fail(op: FaultOp) -> Option<u16> {
    match consult(op)? {
        Injection::Fail(permille) => Some(permille),
        Injection::Stall(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
    }
}

fn injected(op: FaultOp, path: &Path) -> io::Error {
    io::Error::other(format!("injected fault: {} {}", op.name(), path.display()))
}

/// `std::fs::read` through the fault seam.
pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    if should_fail(FaultOp::Read).is_some() {
        return Err(injected(FaultOp::Read, path));
    }
    std::fs::read(path)
}

/// `std::fs::read_to_string` through the fault seam.
pub fn read_to_string(path: impl AsRef<Path>) -> io::Result<String> {
    let path = path.as_ref();
    if should_fail(FaultOp::Read).is_some() {
        return Err(injected(FaultOp::Read, path));
    }
    std::fs::read_to_string(path)
}

/// `std::fs::write` through the fault seam. A scheduled failure with a
/// nonzero torn-write fraction writes that prefix of `contents` first —
/// the on-disk state a mid-write kill leaves behind.
pub fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let contents = contents.as_ref();
    if let Some(permille) = should_fail(FaultOp::Write) {
        let keep = (contents.len() as u64 * permille as u64 / 1000) as usize;
        if keep > 0 {
            let _ = std::fs::write(path, &contents[..keep]);
        }
        return Err(injected(FaultOp::Write, path));
    }
    std::fs::write(path, contents)
}

/// `std::fs::rename` through the fault seam.
pub fn rename(from: impl AsRef<Path>, to: impl AsRef<Path>) -> io::Result<()> {
    let from = from.as_ref();
    if should_fail(FaultOp::Rename).is_some() {
        return Err(injected(FaultOp::Rename, from));
    }
    std::fs::rename(from, to.as_ref())
}

/// `std::fs::create_dir_all` through the fault seam.
pub fn create_dir_all(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if should_fail(FaultOp::Mkdir).is_some() {
        return Err(injected(FaultOp::Mkdir, path));
    }
    std::fs::create_dir_all(path)
}

/// `std::fs::metadata` through the fault seam (a scan syscall).
pub fn metadata(path: impl AsRef<Path>) -> io::Result<std::fs::Metadata> {
    let path = path.as_ref();
    if should_fail(FaultOp::Scan).is_some() {
        return Err(injected(FaultOp::Scan, path));
    }
    std::fs::metadata(path)
}

/// `std::fs::read_dir` through the fault seam (a scan syscall).
pub fn read_dir(path: impl AsRef<Path>) -> io::Result<std::fs::ReadDir> {
    let path = path.as_ref();
    if should_fail(FaultOp::Scan).is_some() {
        return Err(injected(FaultOp::Scan, path));
    }
    std::fs::read_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::{Mutex as StdMutex, MutexGuard, OnceLock as StdOnceLock};

    /// The plan is process-global; tests touching it must not overlap.
    fn lock_plan() -> MutexGuard<'static, ()> {
        static GATE: StdOnceLock<StdMutex<()>> = StdOnceLock::new();
        GATE.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("faultio_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn no_plan_is_transparent() {
        let _gate = lock_plan();
        clear();
        let dir = tmp("transparent");
        let p = dir.join("x.txt");
        write(&p, "hello").unwrap();
        assert_eq!(read_to_string(&p).unwrap(), "hello");
        assert_eq!(read(&p).unwrap(), b"hello");
        assert!(metadata(&p).unwrap().is_file());
        assert!(read_dir(&dir).unwrap().count() == 1);
        rename(&p, dir.join("y.txt")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let _gate = lock_plan();
        let dir = tmp("determinism");
        let p = dir.join("x.txt");
        std::fs::write(&p, "x").unwrap();
        let run = |seed: u64| -> Vec<bool> {
            install(FaultPlan {
                seed,
                rate: 3,
                ops: vec![FaultOp::Read],
                max_failures: None,
                torn_write_permille: 0,
                stall_ms: 0,
            });
            (0..32).map(|_| read(&p).is_err()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        clear();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds diverge");
        assert!(a.iter().any(|&f| f), "rate 3 over 32 calls must fire");
        assert!(!a.iter().all(|&f| f), "rate 3 must not fire every call");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_prefix() {
        let _gate = lock_plan();
        let dir = tmp("torn");
        let p = dir.join("cache.json");
        install(FaultPlan {
            seed: 1,
            rate: 1,
            ops: vec![FaultOp::Write],
            max_failures: None,
            torn_write_permille: 500,
            stall_ms: 0,
        });
        let err = write(&p, "0123456789").unwrap_err();
        clear();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "01234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_failures_caps_injection() {
        let _gate = lock_plan();
        let dir = tmp("max");
        let p = dir.join("x.txt");
        std::fs::write(&p, "x").unwrap();
        install(FaultPlan {
            seed: 2,
            rate: 1,
            ops: vec![FaultOp::Read],
            max_failures: Some(2),
            torn_write_permille: 0,
            stall_ms: 0,
        });
        let failures = (0..10).filter(|_| read(&p).is_err()).count();
        let stats = stats().unwrap();
        clear();
        assert_eq!(failures, 2);
        assert_eq!(stats.injected[FaultOp::Read as usize], 2);
        assert_eq!(stats.calls[FaultOp::Read as usize], 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_env_spec() {
        let plan = FaultPlan::parse("seed=9,rate=5,ops=read+rename,max=3,torn=250").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rate, 5);
        assert_eq!(plan.ops, vec![FaultOp::Read, FaultOp::Rename]);
        assert_eq!(plan.max_failures, Some(3));
        assert_eq!(plan.torn_write_permille, 250);
        assert_eq!(plan.stall_ms, 0);
        assert_eq!(
            FaultPlan::parse("seed=1,rate=1,stall=40").unwrap().stall_ms,
            40
        );
        assert!(FaultPlan::parse("stall=abc").is_none());
        assert!(FaultPlan::parse("seed=9,bogus=1").is_none());
        assert!(FaultPlan::parse("ops=read+typo").is_none());
        assert!(FaultPlan::parse("rate=abc").is_none());
        // An empty spec is a valid, inert plan.
        assert_eq!(FaultPlan::parse("").unwrap().rate, 0);
    }

    #[test]
    fn stall_sleeps_then_proceeds() {
        let _gate = lock_plan();
        let dir = tmp("stall");
        let p = dir.join("x.txt");
        std::fs::write(&p, "slow but fine").unwrap();
        install(FaultPlan {
            seed: 4,
            rate: 1,
            ops: vec![FaultOp::Read],
            max_failures: None,
            torn_write_permille: 0,
            stall_ms: 30,
        });
        let start = std::time::Instant::now();
        let got = read_to_string(&p);
        let elapsed = start.elapsed();
        let stats = stats().unwrap();
        clear();
        // The call succeeds — a stall delays, it does not error.
        assert_eq!(got.unwrap(), "slow but fine");
        assert!(
            elapsed >= std::time::Duration::from_millis(30),
            "stall must actually sleep (took {elapsed:?})"
        );
        // And it is visible in stats like any other injected fault.
        assert_eq!(stats.injected[FaultOp::Read as usize], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn op_names_round_trip() {
        for op in FaultOp::all() {
            assert_eq!(FaultOp::from_name(op.name()), Some(op));
        }
        assert_eq!(FaultOp::from_name("nope"), None);
    }
}
