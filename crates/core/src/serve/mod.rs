//! `refminer serve` — the resident audit daemon.
//!
//! Holds the [`crate::Project`] scan, knowledge base and all three
//! audit-cache layers hot in one process and answers line-delimited
//! JSON-RPC (see [`protocol`]) over TCP and, on Unix, a Unix-domain
//! socket. The `engine` module implements the robustness contract
//! (deadlines, backpressure, degraded-mode serving); `watch` adds
//! `--watch` re-auditing; `render` is the single JSONL serializer
//! shared with the one-shot CLI so `query` output is byte-identical to
//! `refminer --json` over the same tree.

mod engine;
pub mod protocol;
mod render;
mod watch;

pub use engine::{Engine, EngineHandle, ServeConfig, Snapshot};
pub use render::{render_diagnostics_line, render_finding_line, render_unit_diagnostic};
pub use watch::WatchOptions;

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use protocol::{ErrorKind, Response};

/// Transport/runtime options for [`run_serve`], next to the engine's
/// [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address; port 0 picks a free port. The daemon prints
    /// `listening on <addr>` once bound.
    pub listen: String,
    /// Optional Unix-domain socket path (ignored off Unix).
    pub socket: Option<PathBuf>,
    /// Watch the tree and re-audit on change.
    pub watch: Option<WatchOptions>,
    /// Write the trace log here on shutdown (when the config's trace
    /// handle records).
    pub trace_path: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            socket: None,
            watch: None,
            trace_path: None,
        }
    }
}

/// Runs the daemon until a `shutdown` request (or listener error).
pub fn run_serve(cfg: ServeConfig, opts: &ServeOptions) -> io::Result<()> {
    let trace = cfg.trace.clone();
    let mut engine = Engine::start(cfg);
    let handle = engine.handle();

    let listener = TcpListener::bind(&opts.listen)?;
    listener.set_nonblocking(true)?;
    announce(format_args!("listening on {}", listener.local_addr()?));

    #[cfg(unix)]
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
        let unix = std::os::unix::net::UnixListener::bind(path)?;
        unix.set_nonblocking(true)?;
        announce(format_args!("socket {}", path.display()));
        let h = handle.clone();
        std::thread::spawn(move || accept_loop_unix(unix, h));
    }

    let watcher = opts.watch.clone().map(|w| watch::spawn(handle.clone(), w));

    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let h = handle.clone();
                std::thread::spawn(move || serve_tcp_conn(stream, h));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if handle.is_stopped() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                engine.shutdown();
                return Err(e);
            }
        }
    }

    engine.shutdown();
    if let Some(w) = watcher {
        let _ = w.join();
    }
    if let (Some(path), Some(log)) = (&opts.trace_path, trace.finish()) {
        let _ = std::fs::write(path, log.to_jsonl());
    }
    #[cfg(unix)]
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Prints one line of the daemon's start-up announcement on stdout. A
/// write error (say, a closed pipe) is ignored: the announcement is a
/// courtesy to whoever reads stdout, and the daemon serves without it.
fn announce(line: std::fmt::Arguments<'_>) {
    let mut out = io::stdout().lock();
    let _ = writeln!(out, "{line}").and_then(|()| out.flush());
}

fn serve_tcp_conn(stream: TcpStream, handle: EngineHandle) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    serve_lines(reader, stream, &handle);
}

#[cfg(unix)]
fn accept_loop_unix(listener: std::os::unix::net::UnixListener, handle: EngineHandle) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(s) => BufReader::new(s),
                        Err(_) => return,
                    };
                    serve_lines(reader, stream, &h);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if handle.is_stopped() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => return,
        }
    }
}

/// One connection: requests in, responses out, one line each. Any
/// decode failure answers `bad_request` and keeps the connection.
fn serve_lines<R: BufRead, W: Write>(reader: R, mut writer: W, handle: &EngineHandle) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_request(&line) {
            Ok(req) => handle.request(&req),
            Err(msg) => Response::err(0, ErrorKind::BadRequest, msg),
        };
        let mut out = response.to_line();
        out.push('\n');
        if writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

/// Client side: one request line to `target`, one response line back.
/// `target` is `host:port` or `unix:/path/to.sock`.
pub fn rpc_roundtrip(target: &str, request_line: &str) -> io::Result<String> {
    #[cfg(unix)]
    if let Some(path) = target.strip_prefix("unix:") {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        return roundtrip_on(&stream, &stream, request_line);
    }
    let stream = TcpStream::connect(target)?;
    roundtrip_on(&stream, &stream, request_line)
}

fn roundtrip_on<R: io::Read, W: Write>(
    reader: R,
    mut writer: W,
    request_line: &str,
) -> io::Result<String> {
    writer.write_all(request_line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut line = String::new();
    BufReader::new(reader).read_line(&mut line)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    if line.is_empty() {
        return Err(io::Error::other("connection closed before response"));
    }
    Ok(line)
}
