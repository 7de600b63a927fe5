//! End-to-end tests of the `refminer serve` daemon: deadlines,
//! backpressure, degraded-mode serving, watch mode, and recovery from
//! injected I/O faults and kill/restart cycles.
//!
//! Every test spawns the real binary and speaks the real wire
//! protocol; the headline assertion throughout is that `query` output
//! stays byte-identical to a one-shot `refminer --json` run over the
//! same tree, no matter what the daemon has been through.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use refminer::corpus::{generate_tree, generate_workload, TreeConfig, WorkloadConfig, WorkloadOp};
use refminer::serve::protocol::{encode_request, Method, QueryFilter, Request, Response};
use refminer::serve::{rpc_roundtrip, Engine, ServeConfig};
use refminer_json::Value;

fn write_demo_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_serve_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/demo")).expect("mkdir");
    std::fs::write(
        dir.join("drivers/demo/demo.c"),
        r#"
int demo_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        return 0;
}
void demo_drop(struct sock *sk)
{
        sock_put(sk);
        sk->sk_err = 0;
}
"#,
    )
    .expect("write demo");
    dir
}

fn one_shot_json(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_refminer"))
        .arg("--json")
        .arg(dir)
        .output()
        .expect("run one-shot");
    String::from_utf8(out.stdout).expect("utf8 json")
}

/// A spawned daemon process plus the TCP address it announced.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(root: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_refminer"));
        cmd.arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .arg(root)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn daemon");
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_string();
        // Keep draining stdout so the daemon can never block on a full
        // pipe (it prints a `socket` line and nothing else).
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Daemon { child, addr }
    }

    fn rpc(&self, req: &Request) -> Value {
        let line = rpc_roundtrip(&self.addr, &encode_request(req)).expect("rpc roundtrip");
        Value::parse(&line).unwrap_or_else(|e| panic!("malformed response {line:?}: {e:?}"))
    }

    fn status(&self) -> Value {
        let v = self.rpc(&Request {
            id: 99,
            method: Method::Status,
            deadline_ms: None,
        });
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        v.get("result").cloned().expect("status result")
    }

    fn revision(&self) -> u64 {
        self.status()
            .get("revision")
            .and_then(Value::as_u64)
            .expect("revision")
    }

    fn wait_for_revision(&self, min: u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.revision() < min {
            assert!(
                Instant::now() < deadline,
                "revision never reached {min} within {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Graceful stop: `shutdown` RPC, then wait for a clean exit.
    fn shutdown(mut self) {
        let v = self.rpc(&Request {
            id: 100,
            method: Method::Shutdown,
            deadline_ms: None,
        });
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "daemon exited {status}");
                    return;
                }
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not exit after shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn query_request(id: u64, filter: QueryFilter) -> Request {
    Request {
        id,
        method: Method::Query(filter),
        deadline_ms: None,
    }
}

/// Joins a query result's prerendered lines back into the one-shot
/// `--json` byte shape (trailing newline included when nonempty).
fn joined_lines(result: &Value) -> String {
    let mut out = String::new();
    for l in result
        .get("lines")
        .and_then(Value::as_array)
        .expect("lines")
    {
        out.push_str(l.as_str().expect("line is a string"));
        out.push('\n');
    }
    if let Some(d) = result.get("diagnostics").and_then(Value::as_str) {
        out.push_str(d);
        out.push('\n');
    }
    out
}

#[test]
fn query_is_byte_identical_to_one_shot_json() {
    let dir = write_demo_tree("bytes");
    let expected = one_shot_json(&dir);
    assert!(!expected.is_empty(), "demo tree must have findings");

    let d = Daemon::start(&dir, &[], &[]);
    d.wait_for_revision(1, Duration::from_secs(30));

    // Through the library client…
    let v = d.rpc(&query_request(1, QueryFilter::default()));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    let result = v.get("result").expect("result");
    assert_eq!(joined_lines(result), expected, "library query diverged");

    // …and through the `refminer rpc` CLI, whose stdout is the
    // byte-diffable surface scripts use.
    let out = Command::new(env!("CARGO_BIN_EXE_refminer"))
        .args(["rpc", &d.addr, "query"])
        .output()
        .expect("run rpc query");
    assert_eq!(out.status.code(), Some(0), "rpc query exits 0");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "CLI query diverged"
    );

    // Filters narrow without changing the byte shape of what remains.
    let v = d.rpc(&query_request(
        2,
        QueryFilter {
            pattern: Some("P8".to_string()),
            ..Default::default()
        },
    ));
    let narrowed = joined_lines(v.get("result").expect("result"));
    assert!(!narrowed.is_empty() && expected.contains(narrowed.trim_end()));
    assert!(narrowed.len() < expected.len());

    // An unknown pattern is a bad request, not a hang or a crash.
    let v = d.rpc(&query_request(
        3,
        QueryFilter {
            pattern: Some("P99".to_string()),
            ..Default::default()
        },
    ));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("bad_request")
    );

    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn unix_socket_answers_rpc() {
    let dir = write_demo_tree("unix");
    let sock = dir.join("refminer.sock");
    let d = Daemon::start(&dir, &["--socket", sock.to_str().unwrap()], &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    let target = format!("unix:{}", sock.display());
    let line = rpc_roundtrip(
        &target,
        &encode_request(&Request {
            id: 1,
            method: Method::Status,
            deadline_ms: None,
        }),
    )
    .expect("unix roundtrip");
    let v = Value::parse(&line).expect("json");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    d.shutdown();
    assert!(!sock.exists(), "socket file cleaned up on shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon announces its addresses on stdout, but nobody has to read
/// them: with stdout a pipe whose reader is gone, it still serves on
/// its socket and exits cleanly on `shutdown`.
#[cfg(unix)]
#[test]
fn a_closed_stdout_does_not_stop_the_daemon() {
    let dir = write_demo_tree("closed_stdout");
    let sock = dir.join("refminer.sock");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_refminer"))
        .arg("serve")
        .args(["--listen", "127.0.0.1:0", "--socket"])
        .arg(&sock)
        .arg(&dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let target = format!("unix:{}", sock.display());
    let shutdown = encode_request(&Request {
        id: 1,
        method: Method::Shutdown,
        deadline_ms: None,
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let reply = loop {
        match rpc_roundtrip(&target, &shutdown) {
            Ok(line) => break line,
            Err(e) => {
                let exited = child.try_wait().expect("try_wait");
                if exited.is_some() || Instant::now() >= deadline {
                    let _ = child.kill();
                    let out = child.wait_with_output().expect("collect stderr");
                    panic!(
                        "the socket never answered ({e}); daemon {:?}, stderr:\n{}",
                        out.status.code(),
                        String::from_utf8_lossy(&out.stderr)
                    );
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    let v = Value::parse(&reply).expect("json");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("daemon did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let out = child.wait_with_output().expect("collect stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_with_explicit_overloaded_error() {
    let dir = write_demo_tree("shed");
    // The injected stall keeps the worker busy on the warm-up audit
    // while the test fills the one-slot queue.
    let d = Daemon::start(&dir, &["--queue", "1", "--inject-delay-ms", "1500"], &[]);

    // First audit request parks in the queue behind the warm-up job…
    let addr = d.addr.clone();
    let parked = std::thread::spawn(move || {
        let line = rpc_roundtrip(
            &addr,
            &encode_request(&Request {
                id: 10,
                method: Method::Audit,
                deadline_ms: Some(30_000),
            }),
        )
        .expect("parked audit roundtrip");
        Value::parse(&line).expect("json")
    });
    std::thread::sleep(Duration::from_millis(300));

    // …so the next one must be shed immediately with an explicit error.
    let t0 = Instant::now();
    let v = d.rpc(&Request {
        id: 11,
        method: Method::Audit,
        deadline_ms: Some(30_000),
    });
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shed response was not immediate: {:?}",
        t0.elapsed()
    );
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("overloaded"),
        "{v}"
    );
    assert!(d.status().get("sheds").and_then(Value::as_u64).unwrap() >= 1);

    // The parked request completes normally once the worker frees up.
    let parked = parked.join().expect("join parked");
    assert_eq!(
        parked.get("ok").and_then(Value::as_bool),
        Some(true),
        "{parked}"
    );
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_is_enforced_and_never_hangs() {
    let dir = write_demo_tree("deadline");
    let d = Daemon::start(&dir, &["--inject-delay-ms", "3000"], &[]);

    // The warm-up job holds the worker for 3s; an audit with a 300ms
    // deadline must come back as deadline_exceeded long before that.
    let t0 = Instant::now();
    let v = d.rpc(&Request {
        id: 1,
        method: Method::Audit,
        deadline_ms: Some(300),
    });
    let elapsed = t0.elapsed();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("deadline_exceeded"),
        "{v}"
    );
    assert!(
        elapsed >= Duration::from_millis(250) && elapsed < Duration::from_millis(2500),
        "deadline response took {elapsed:?}"
    );
    // Reads never queue behind audits: status answers while the worker
    // is still stalled.
    let t0 = Instant::now();
    assert!(
        d.status()
            .get("deadline_misses")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    assert!(t0.elapsed() < Duration::from_secs(1));
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_get_consistent_snapshots_under_faults() {
    let dir = write_demo_tree("torn");
    let expected = one_shot_json(&dir);
    let cache_dir = dir.join(".serve-cache");

    // Fault cache writes/renames on a seeded schedule: saves fail under
    // the clients' feet while served snapshots must stay untorn.
    let d = Daemon::start(
        &dir,
        &["--jobs", "4", "--cache-dir", cache_dir.to_str().unwrap()],
        &[("REFMINER_FAULTS", "seed=11,rate=3,ops=write+rename,max=50")],
    );
    d.wait_for_revision(1, Duration::from_secs(30));

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = d.addr.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let ops = generate_workload(&WorkloadConfig {
                    seed: 0xC11E47 + i,
                    ops: 16,
                    files: vec!["drivers/demo/demo.c".to_string()],
                    subsystems: vec!["drivers".to_string(), "sound".to_string()],
                });
                for (n, op) in ops.iter().enumerate() {
                    let (method, is_full_query) = match op.clone() {
                        WorkloadOp::Audit => (Method::Audit, false),
                        WorkloadOp::Reaudit(files) => (Method::Reaudit { files }, false),
                        WorkloadOp::Status => (Method::Status, false),
                        WorkloadOp::Query { subsystem, pattern } => {
                            let full = subsystem.is_none() && pattern.is_none();
                            (
                                Method::Query(QueryFilter {
                                    subsystem,
                                    pattern,
                                    verdict: None,
                                }),
                                full,
                            )
                        }
                    };
                    let req = Request {
                        id: n as u64,
                        method,
                        deadline_ms: Some(30_000),
                    };
                    let line =
                        rpc_roundtrip(&addr, &encode_request(&req)).expect("client roundtrip");
                    let v = Value::parse(&line).expect("json response");
                    if v.get("ok").and_then(Value::as_bool) == Some(true) {
                        if is_full_query {
                            // The torn-read assertion: an unfiltered
                            // query over the unchanged tree must always
                            // be the complete one-shot byte image.
                            let result = v.get("result").expect("result");
                            assert_eq!(
                                joined_lines(result),
                                expected,
                                "client {i} op {n}: torn snapshot"
                            );
                            assert!(result.get("revision").and_then(Value::as_u64).unwrap() >= 1);
                        }
                    } else {
                        // Failures must be explicit shed/deadline
                        // responses, never hangs or garbage.
                        let kind = v
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Value::as_str)
                            .unwrap_or("missing");
                        assert!(
                            ["overloaded", "deadline_exceeded", "internal"].contains(&kind),
                            "client {i} op {n}: unexpected error {v}"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let status = d.status();
    assert!(status.get("requests").and_then(Value::as_u64).unwrap() >= 64);
    // The injected faults actually bit: cache persistence failed and
    // the daemon carried on serving.
    assert!(
        status
            .get("cache_save_failures")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "faults never fired: {status}"
    );
    let v = d.rpc(&query_request(1000, QueryFilter::default()));
    assert_eq!(joined_lines(v.get("result").expect("result")), expected);
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_restart_with_corrupt_cache_recovers_byte_identical() {
    let dir = write_demo_tree("soak");
    let expected = one_shot_json(&dir);
    let cache_dir = dir.join(".serve-cache");

    // Round one: torn cache writes on a seeded schedule, then a hard
    // kill — the daemon equivalent of dying mid-save. Every audit job
    // stalls first, so the kill below lands on one in flight.
    let d = Daemon::start(
        &dir,
        &[
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--inject-delay-ms",
            "500",
        ],
        &[(
            "REFMINER_FAULTS",
            "seed=7,rate=2,ops=write+rename,torn=500,max=100",
        )],
    );
    d.wait_for_revision(1, Duration::from_secs(30));
    for id in 0..3 {
        let v = d.rpc(&Request {
            id,
            method: Method::Audit,
            deadline_ms: Some(30_000),
        });
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    }
    // The CLI client drives the same daemon.
    let rpc_client = |args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_refminer"));
        cmd.arg("rpc").arg(&d.addr).args(args);
        cmd
    };
    for args in [
        &["status"][..],
        &["audit"],
        &["reaudit", "drivers/demo/demo.c"],
    ] {
        let out = rpc_client(args).output().expect("run rpc client");
        assert_eq!(
            out.status.code(),
            Some(0),
            "rpc {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // SIGKILL while a client's `audit` is in flight: no graceful
    // shutdown, no final save, and the client sees the daemon vanish.
    let mut in_flight = rpc_client(&["audit"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rpc client");
    let deadline = Instant::now() + Duration::from_secs(30);
    while d.status().get("auditing").and_then(Value::as_bool) != Some(true) {
        assert!(Instant::now() < deadline, "the audit never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(d);
    let client = in_flight.wait().expect("wait rpc client");
    assert_eq!(
        client.code(),
        Some(2),
        "the in-flight audit must end as a transport failure"
    );

    // If any save survived the torn-write faults, it must be the
    // binary container — the JSON-era `audit-cache.json` is gone.
    let live = cache_dir.join(refminer::CACHE_FILE);
    assert!(
        refminer::CACHE_FILE.ends_with(".bin"),
        "cache file is the binary container"
    );
    if let Ok(bytes) = std::fs::read(&live) {
        assert!(
            bytes.is_empty() || bytes.len() < 8 || bytes.starts_with(b"RFMCACHE"),
            "persisted cache is not the binary container"
        );
    }

    // Whatever the kill left behind, make it strictly worse: a
    // mid-write torn prefix of a *binary* cache where the live file
    // should be — the magic is valid, the rest is cut mid-header, so
    // only the checksum/framing validation can reject it.
    std::fs::create_dir_all(&cache_dir).ok();
    std::fs::write(&live, b"RFMCACHE\x04\x00\x00").expect("plant torn cache");

    // Round two: no faults. The daemon must quarantine the torn file,
    // rebuild cold, and serve the exact one-shot bytes.
    let d = Daemon::start(&dir, &["--cache-dir", cache_dir.to_str().unwrap()], &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    let status = d.status();
    assert_eq!(
        status.get("cache_quarantined").and_then(Value::as_u64),
        Some(1),
        "torn cache must be quarantined: {status}"
    );
    assert!(
        cache_dir
            .join(format!(
                "{}{}",
                refminer::CACHE_FILE,
                refminer::QUARANTINE_SUFFIX
            ))
            .exists(),
        "quarantined file kept for post-mortem"
    );
    let v = d.rpc(&query_request(1, QueryFilter::default()));
    assert_eq!(
        joined_lines(v.get("result").expect("result")),
        expected,
        "post-recovery query diverged from one-shot"
    );
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_restart_reloads_binary_cache_and_bit_flips_quarantine() {
    let dir = write_demo_tree("reload");
    let expected = one_shot_json(&dir);
    let cache_dir = dir.join(".serve-cache");
    let cache_args = ["--cache-dir", cache_dir.to_str().unwrap()];
    let quarantined = cache_dir.join(format!(
        "{}{}",
        refminer::CACHE_FILE,
        refminer::QUARANTINE_SUFFIX
    ));

    // Round one persists the binary cache.
    let d = Daemon::start(&dir, &cache_args, &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    d.shutdown();
    let live = cache_dir.join(refminer::CACHE_FILE);
    let bytes = std::fs::read(&live).expect("cache persisted");
    assert!(
        bytes.starts_with(b"RFMCACHE"),
        "persisted cache is not the binary container"
    );

    // Round two warm-loads it: no quarantine, identical bytes served.
    let d = Daemon::start(&dir, &cache_args, &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    assert_eq!(
        d.status().get("cache_quarantined").and_then(Value::as_u64),
        Some(0),
        "clean cache must not be quarantined"
    );
    assert!(!quarantined.exists());
    let v = d.rpc(&query_request(1, QueryFilter::default()));
    assert_eq!(joined_lines(v.get("result").expect("result")), expected);
    d.shutdown();

    // One flipped body byte: the checksum must reject the whole file,
    // quarantine it, and the cold rebuild must serve the same bytes.
    let mut bytes = std::fs::read(&live).expect("cache still present");
    assert!(bytes.len() > 24, "container has a body to corrupt");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&live, &bytes).expect("plant bit flip");
    let d = Daemon::start(&dir, &cache_args, &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    assert_eq!(
        d.status().get("cache_quarantined").and_then(Value::as_u64),
        Some(1),
        "bit-flipped cache must be quarantined"
    );
    assert!(quarantined.exists(), "flipped file kept for post-mortem");
    let v = d.rpc(&query_request(2, QueryFilter::default()));
    assert_eq!(joined_lines(v.get("result").expect("result")), expected);
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reaudit_of_deleted_file_reports_diagnostic_not_error() {
    let dir = write_demo_tree("deleted");
    let extra = dir.join("drivers/demo/extra.c");
    std::fs::write(&extra, "int extra_fn(int a)\n{\n        return a;\n}\n").expect("write extra");
    let expected_without_extra = {
        let d2 = write_demo_tree("deleted_ref");
        let e = one_shot_json(&d2);
        std::fs::remove_dir_all(&d2).ok();
        e
    };

    let d = Daemon::start(&dir, &[], &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    let rev = d.revision();

    // The file vanishes between the change notification and the
    // re-audit. That is a fact to report, not a fault to retry.
    std::fs::remove_file(&extra).expect("delete extra");
    let v = d.rpc(&Request {
        id: 1,
        method: Method::Reaudit {
            files: vec!["drivers/demo/extra.c".to_string()],
        },
        deadline_ms: Some(30_000),
    });
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    let result = v.get("result").expect("result");
    let removed = result
        .get("removed")
        .and_then(Value::as_array)
        .expect("removed diagnostics");
    assert_eq!(removed.len(), 1);
    assert_eq!(
        removed[0].get("path").and_then(Value::as_str),
        Some("drivers/demo/extra.c")
    );
    assert_eq!(
        removed[0].get("outcome").and_then(Value::as_str),
        Some("skipped")
    );
    assert!(d.revision() > rev, "the re-audit still ran");
    assert_eq!(
        d.status().get("files_removed").and_then(Value::as_u64),
        Some(1)
    );

    // The snapshot converges on the post-deletion tree.
    let v = d.rpc(&query_request(2, QueryFilter::default()));
    assert_eq!(
        joined_lines(v.get("result").expect("result")),
        expected_without_extra
    );
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_mode_reaudits_on_change() {
    let dir = write_demo_tree("watch");
    // The cache lives inside the watched root, so every audit rewrites
    // a file under it; only source edits may trigger a re-audit.
    let cache = dir.join(".refminer");
    let d = Daemon::start(
        &dir,
        &[
            "--watch",
            "--poll-ms",
            "50",
            "--debounce-ms",
            "40",
            "--cache-dir",
            cache.to_str().unwrap(),
        ],
        &[],
    );
    d.wait_for_revision(1, Duration::from_secs(30));

    // A new buggy file appears; the watcher must notice, debounce, and
    // re-audit without any client asking.
    std::fs::write(
        dir.join("drivers/demo/late.c"),
        "void late_drop(struct sock *sk)\n{\n        sock_put(sk);\n        sk->sk_err = 1;\n}\n",
    )
    .expect("write late");
    d.wait_for_revision(2, Duration::from_secs(30));
    assert!(
        d.status()
            .get("watch_triggers")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    // One edit, one re-audit: the re-audit's own cache save must not
    // set off another.
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(d.revision(), 2, "the watcher re-audited without an edit");

    let v = d.rpc(&query_request(1, QueryFilter::default()));
    let lines = joined_lines(v.get("result").expect("result"));
    assert!(lines.contains("late.c"), "new finding not served: {lines}");
    // Byte-identity holds against a fresh one-shot over the new tree.
    assert_eq!(lines, one_shot_json(&dir));
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auditdiff_lines_are_byte_identical_to_the_diff_cli() {
    // Two clones of one leak; the "commit" below fixes only demo.c.
    let dir = write_demo_tree("auditdiff");
    let leak = std::fs::read_to_string(dir.join("drivers/demo/demo.c")).expect("read demo");
    std::fs::write(
        dir.join("drivers/demo/demo2.c"),
        leak.replace("demo_", "demo2_"),
    )
    .expect("write demo2");
    let d = Daemon::start(&dir, &[], &[]);
    d.wait_for_revision(1, Duration::from_secs(30));

    // Revision A, copied aside before the commit lands on disk.
    let before = dir.with_extension("before");
    let _ = std::fs::remove_dir_all(&before);
    std::fs::create_dir_all(before.join("drivers/demo")).expect("mkdir");
    for file in ["demo.c", "demo2.c"] {
        std::fs::copy(
            dir.join("drivers/demo").join(file),
            before.join("drivers/demo").join(file),
        )
        .expect("copy revision A");
    }
    std::fs::write(
        dir.join("drivers/demo/demo.c"),
        leak.replace(
            "\n        return 0;",
            "\n        of_node_put(np);\n        return 0;",
        ),
    )
    .expect("fix demo.c");

    let auditdiff = |id| {
        let v = d.rpc(&Request {
            id,
            method: Method::AuditDiff,
            deadline_ms: Some(30_000),
        });
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        v.get("result").cloned().expect("auditdiff result")
    };
    let result = auditdiff(1);
    let out = Command::new(env!("CARGO_BIN_EXE_refminer"))
        .args(["diff", "--json"])
        .arg(&before)
        .arg(&dir)
        .output()
        .expect("run refminer diff");
    let expected = String::from_utf8(out.stdout).expect("utf8 delta");
    assert!(
        expected.contains("\"delta\":\"fixed\"") && expected.contains("\"delta\":\"left_behind\""),
        "the commit must fix one clone and leave the other: {expected}"
    );
    assert_eq!(
        joined_lines(&result),
        expected,
        "auditdiff diverged from the CLI"
    );

    // Nothing changed since: an empty delta with zero counts.
    let result = auditdiff(2);
    assert_eq!(joined_lines(&result), "", "{result}");
    for key in ["introduced", "fixed", "moved", "left_behind"] {
        assert_eq!(result.get(key).and_then(Value::as_u64), Some(0), "{result}");
    }

    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&before).ok();
}

#[test]
fn fixcheck_rpc_reports_incomplete_fix_and_rejects_garbage() {
    // The tree on disk is the *post-fix* state: demo.c got its
    // `of_node_put` while sibling demo2.c kept the identical leak.
    let dir = std::env::temp_dir().join(format!(
        "refminer_serve_test_fixcheck_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/demo")).expect("mkdir");
    std::fs::write(
        dir.join("drivers/demo/demo.c"),
        "\nint demo_probe(struct platform_device *pdev)\n{\n\
         \tstruct device_node *np = of_find_node_by_name(NULL, \"x\");\n\
         \tif (!np)\n\t\treturn -ENODEV;\n\tof_node_put(np);\n\treturn 0;\n}\n",
    )
    .expect("write demo");
    std::fs::write(
        dir.join("drivers/demo/demo2.c"),
        "\nint demo_init(struct platform_device *pdev)\n{\n\
         \tstruct device_node *np = of_find_node_by_name(NULL, \"y\");\n\
         \tif (!np)\n\t\treturn -ENODEV;\n\treturn 0;\n}\n",
    )
    .expect("write demo2");
    let diff = "--- a/drivers/demo/demo.c\n+++ b/drivers/demo/demo.c\n\
                @@ -5,4 +5,5 @@\n \tif (!np)\n \t\treturn -ENODEV;\n\
                +\tof_node_put(np);\n \treturn 0;\n }\n";

    let d = Daemon::start(&dir, &[], &[]);
    d.wait_for_revision(1, Duration::from_secs(30));
    let before = d.revision();

    let v = d.rpc(&Request {
        id: 7,
        method: Method::Fixcheck {
            diff: diff.to_string(),
        },
        deadline_ms: Some(30_000),
    });
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    let result = v.get("result").cloned().expect("fixcheck result");
    assert_eq!(
        result.get("fixed").and_then(Value::as_u64),
        Some(1),
        "{result}"
    );
    assert_eq!(
        result.get("clean").and_then(Value::as_bool),
        Some(false),
        "{result}"
    );
    assert!(
        result
            .get("incomplete")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1,
        "the sibling leak must be reported: {result}"
    );
    let lines = result
        .get("lines")
        .and_then(Value::as_array)
        .expect("lines");
    assert!(
        lines
            .iter()
            .filter_map(|l| l.as_str())
            .any(|l| l.contains("demo2.c")),
        "an incomplete line must name the unfixed sibling: {result}"
    );
    assert!(d.revision() > before, "fixcheck publishes a snapshot");

    // A client-side bad diff is a bad_request, not a failed audit.
    let v = d.rpc(&Request {
        id: 8,
        method: Method::Fixcheck {
            diff: "not a diff at all\n".to_string(),
        },
        deadline_ms: Some(30_000),
    });
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .map(str::to_string),
        Some("bad_request".to_string()),
        "{v}"
    );

    // Queries after a fixcheck still serve the post-tree snapshot,
    // byte-identical to the one-shot run.
    let v = d.rpc(&query_request(9, QueryFilter::default()));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    d.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reaudit_rounds_keep_the_daemon_cache_within_two_trees() {
    // An in-process engine over a generated tree. Each round appends a
    // function to one file and re-audits; after every job `status`
    // reports at most the tree's units plus that one edit in the parse
    // and check layers, and at most two barriers.
    let dir = std::env::temp_dir().join(format!("refminer_serve_bound_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tree = generate_tree(&TreeConfig {
        scale: 0.03,
        ..Default::default()
    });
    tree.write_to(&dir).expect("write tree");
    let mut engine = Engine::start(ServeConfig::new(&dir));
    let handle = engine.handle();
    assert!(handle.wait_for_revision(1, Duration::from_secs(30)));
    let sources: Vec<&str> = tree
        .files
        .iter()
        .map(|f| f.path.as_str())
        .filter(|p| p.ends_with(".c"))
        .collect();
    for round in 0..10u64 {
        let path = sources[round as usize * 7 % sources.len()];
        let file = dir.join(path);
        let mut text = std::fs::read_to_string(&file).expect("read source");
        text.push_str(&format!(
            "\nint round{round}_helper(int x)\n{{\n\treturn x + {round};\n}}\n"
        ));
        std::fs::write(&file, text).expect("edit source");
        let resp = handle.request(&Request {
            id: round,
            method: Method::Reaudit {
                files: vec![path.to_string()],
            },
            deadline_ms: Some(30_000),
        });
        assert!(
            matches!(resp, Response::Ok { .. }),
            "round {round}: {resp:?}"
        );
        let Response::Ok { result: status, .. } = handle.request(&Request {
            id: 99,
            method: Method::Status,
            deadline_ms: None,
        }) else {
            panic!("status failed");
        };
        let count = |k: &str| status.get(k).and_then(Value::as_u64).expect(k);
        let bound = count("files") + 1;
        let entries = [
            count("cache_parse_entries"),
            count("cache_check_entries"),
            count("cache_discovery_entries"),
        ];
        assert!(
            entries[0] <= bound && entries[1] <= bound && entries[2] <= 2,
            "round {round}: {entries:?} entries for {bound} units and edits"
        );
    }
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
