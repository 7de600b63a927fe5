//! A `fixcheck` job must honour its deadline like an `audit` job: once
//! a stalled scan has outlived the request's deadline, the job cancels
//! at its next audit boundary instead of auditing both sides of the
//! fix and publishing a snapshot nobody is waiting for.
//!
//! This lives in its own integration-test binary because the fault
//! plan is process-global: no other test shares the process, so
//! `install`/`clear` cannot race a neighbour's I/O.

use std::time::{Duration, Instant};

use refminer::render_file_diff;
use refminer::serve::protocol::{ErrorKind, Method, Request, Response};
use refminer::serve::{Engine, EngineHandle, ServeConfig};
use refminer_faultio::{FaultOp, FaultPlan};
use refminer_json::Value;

const PATH: &str = "drivers/demo/demo.c";

/// The leak before the fix; the tree on disk holds the fixed text.
const PRE: &str = "\nint demo_probe(struct platform_device *pdev)\n{\n\
                   \tstruct device_node *np = of_find_node_by_name(NULL, \"x\");\n\
                   \tif (!np)\n\t\treturn -ENODEV;\n\treturn 0;\n}\n";

fn post() -> String {
    PRE.replace("\treturn 0;\n", "\tof_node_put(np);\n\treturn 0;\n")
}

fn status(handle: &EngineHandle) -> Value {
    let resp = handle.request(&Request {
        id: 99,
        method: Method::Status,
        deadline_ms: None,
    });
    let Response::Ok { result, .. } = resp else {
        panic!("status request failed: {resp:?}");
    };
    result
}

fn counter(status: &Value, name: &str) -> u64 {
    status.get(name).and_then(Value::as_u64).unwrap_or(0)
}

#[test]
fn stalled_fixcheck_past_its_deadline_publishes_nothing() {
    let dir = std::env::temp_dir().join(format!("refminer_fixcheck_stall_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/demo")).expect("mkdir");
    std::fs::write(dir.join(PATH), post()).expect("write demo");
    let diff = render_file_diff(PATH, PRE, &post()).expect("texts differ");

    let mut engine = Engine::start(ServeConfig::new(&dir));
    let handle = engine.handle();
    assert!(
        handle.wait_for_revision(1, Duration::from_secs(30)),
        "warm-up audit never published"
    );

    // Every scan syscall sleeps 80ms and then proceeds, so the job's
    // tree walk outlives a 40ms deadline: only the deadline, not an
    // I/O error, can stop it.
    refminer_faultio::install(FaultPlan {
        seed: 1,
        rate: 1,
        ops: vec![FaultOp::Scan, FaultOp::Read],
        max_failures: None,
        torn_write_permille: 0,
        stall_ms: 80,
    });
    let resp = handle.request(&Request {
        id: 1,
        method: Method::Fixcheck { diff },
        deadline_ms: Some(40),
    });
    assert!(
        matches!(
            resp,
            Response::Err {
                kind: ErrorKind::DeadlineExceeded,
                ..
            }
        ),
        "expected deadline_exceeded, got {resp:?}"
    );

    // Wait for the worker to finish with the job either way.
    let deadline = Instant::now() + Duration::from_secs(30);
    let after = loop {
        let s = status(&handle);
        if counter(&s, "audits_cancelled") + counter(&s, "audits_ok") >= 2 {
            break s;
        }
        assert!(Instant::now() < deadline, "fixcheck job never ended: {s}");
        std::thread::sleep(Duration::from_millis(20));
    };
    refminer_faultio::clear();
    assert!(
        counter(&after, "audits_cancelled") >= 1,
        "the expired fixcheck must count as cancelled: {after}"
    );
    assert_eq!(
        handle.revision(),
        1,
        "an expired fixcheck must not publish a snapshot"
    );

    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
