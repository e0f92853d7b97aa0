//! A threaded TCP front-end for a shared [`Engine`]: many clients, one
//! catalog, one session per connection.
//!
//! The server is plain `std::net` — an accept loop handing each
//! connection to its own handler thread, which owns an
//! [`Engine::session`] for the connection's lifetime. No async runtime is
//! involved; the engine's snapshot isolation does the heavy lifting
//! (readers never block, writers serialize).
//!
//! # Wire protocol
//!
//! Requests and responses are framed over a plain TCP stream:
//!
//! * **Request** — one I-SQL script per request, in either framing:
//!   * a single line terminated by `\n` (the script must not itself
//!     contain a newline), or
//!   * `#<n>\n` followed by exactly `n` bytes of script (any bytes,
//!     including newlines).
//!
//!   Blank lines are ignored. The line `\quit` asks the server to close
//!   the connection; closing the socket works just as well. The line
//!   `\shutdown` asks the server to shut down gracefully: it answers
//!   `OK`, checkpoints a durable engine (final snapshot, WAL truncated),
//!   and stops accepting connections.
//! * **Response** — exactly one per request:
//!   * `OK <n>\n` followed by `n` bytes of payload: the rendered outcomes
//!     of every statement in the script, in order, in the same textual
//!     form the interactive shell prints ([`render_outcome`]);
//!   * `ERR <n>\n` followed by `n` bytes: the error message. The session
//!     survives an error and keeps serving subsequent requests. An answer
//!     longer than [`MAX_FRAME`] is sent as an `ERR` saying so.
//!
//! The per-connection session gives each client the full session model:
//! `Q‹n›` answer naming, snapshot-isolated reads, `set local` overrides
//! scoped to the connection, and serialized writes published to every
//! other connection.
//!
//! # Robustness
//!
//! A malformed request — an unparsable or oversized `#<n>` length frame,
//! or a non-UTF-8 payload — gets an `ERR` response and closes *that
//! connection only*. A panic inside statement execution is caught, turned
//! into an `ERR internal error`, and likewise closes only the offending
//! connection; the process and every other connection keep running (the
//! engine's mutexes recover from poisoning, so a panicked handler cannot
//! wedge writers). Each connection has a read timeout
//! ([`ServeOptions::read_timeout`], default 5 minutes) so an idle or
//! half-dead peer cannot pin a handler thread forever.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Engine;
use crate::session::{ExecOutcome, Session};

/// The largest `#<n>` length frame the server accepts, and the largest
/// response payload it sends or a [`Client`] reads (16 MiB). A frame
/// claiming more is rejected before any allocation, so a hostile header
/// cannot OOM either side.
pub const MAX_FRAME: usize = 1 << 24;

/// Render one statement outcome as the interactive shell prints it.
/// `worlds` is the session's world count after the statement (the shell
/// reports it for selects). Shared by the REPL, the TCP server, and the
/// byte-for-byte smoke test.
pub fn render_outcome(outcome: &ExecOutcome, worlds: usize) -> String {
    let mut out = String::new();
    write_outcome(&mut out, outcome, worlds);
    out
}

/// Append [`render_outcome`]'s text to `out`: every answer table is
/// written straight into it ([`relalg::Relation::write_table`]).
fn write_outcome(out: &mut String, outcome: &ExecOutcome, worlds: usize) {
    use std::fmt::Write as _;
    match outcome {
        ExecOutcome::Rows { name, answers } => {
            let _ = writeln!(
                out,
                "{name}: {} distinct answer(s) across {worlds} world(s)",
                answers.len()
            );
            let mut label = String::new();
            for (i, rel) in answers.iter().enumerate().take(8) {
                label.clear();
                let _ = write!(label, "{name}[{}]", i + 1);
                rel.write_table(&label, out);
            }
            if answers.len() > 8 {
                let _ = writeln!(out, "… ({} more)", answers.len() - 8);
            }
        }
        ExecOutcome::ViewCreated { name, worlds } => {
            let _ = writeln!(
                out,
                "view {name} materialized; world-set now has {worlds} world(s)"
            );
        }
        ExecOutcome::Dml { applied } => {
            if *applied {
                let _ = writeln!(out, "ok");
            } else {
                let _ = writeln!(
                    out,
                    "rejected: constraint violated in some world — discarded in all"
                );
            }
        }
        ExecOutcome::Set { name, value } => {
            let _ = writeln!(out, "set local {name} = {value}");
        }
    }
}

/// Execute `script` on `session` and render the response payload exactly
/// as the server would: every outcome written into one `String`. Used
/// in-process by the smoke test as the reference output for the
/// byte-for-byte comparison.
pub fn execute_rendered(session: &mut Session, script: &str) -> Result<String, String> {
    match session.execute(script) {
        Ok(outcomes) => {
            let mut out = String::new();
            for o in &outcomes {
                write_outcome(&mut out, o, session.world_set().len());
            }
            Ok(out)
        }
        Err(e) => Err(format!("{e}\n")),
    }
}

/// Knobs for [`serve_with`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-connection read timeout. A handler thread blocked on a read
    /// for longer than this closes its connection. `None` disables the
    /// timeout. Default: 5 minutes.
    pub read_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Some(Duration::from_secs(300)),
        }
    }
}

/// A running TCP server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop; connections already
/// established keep their handler threads until the client disconnects.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Engine,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves the actual port
    /// when bound to an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections gracefully: checkpoint a durable engine
    /// (WAL flushed, final snapshot written) and join the accept loop.
    pub fn shutdown(mut self) {
        if let Err(e) = self.engine.checkpoint() {
            eprintln!("isql server: checkpoint on shutdown failed: {e}");
        }
        self.stop_accepting();
    }

    /// Block until the accept loop exits (it runs until shutdown). The
    /// `--serve` binary parks on this.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    fn stop_accepting(&mut self) {
        let Some(h) = self.accept.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = h.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Start serving `engine` on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port) with default [`ServeOptions`]. Returns once the
/// listener is bound; the accept loop runs on a background thread and
/// every accepted connection gets its own handler thread and
/// [`Engine::session`].
pub fn serve(engine: Engine, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    serve_with(engine, addr, ServeOptions::default())
}

/// [`serve`] with explicit [`ServeOptions`].
pub fn serve_with(
    engine: Engine,
    addr: impl ToSocketAddrs,
    opts: ServeOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = stop.clone();
    let accept_engine = engine.clone();
    let accept = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_accept.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Responses are small; send them immediately (a Nagle +
            // delayed-ACK interaction otherwise adds ~40ms per request).
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(opts.read_timeout).ok();
            let session = accept_engine.session();
            let ctl = ConnCtl {
                engine: accept_engine.clone(),
                stop: stop_accept.clone(),
                addr,
            };
            std::thread::spawn(move || {
                let _ = handle_connection(stream, session, ctl);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        engine,
        stop,
        accept: Some(accept),
    })
}

/// What a connection handler needs to trigger a graceful `\shutdown`.
struct ConnCtl {
    engine: Engine,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

/// One parsed request frame.
enum Request {
    /// An I-SQL script to execute.
    Script(String),
    /// `\quit` or EOF — close this connection.
    Quit,
    /// `\shutdown` — checkpoint and stop the whole server.
    Shutdown,
    /// A protocol violation; the message is sent as `ERR` before the
    /// connection is closed.
    Malformed(String),
}

/// Serve one connection until the client disconnects or sends `\quit`.
fn handle_connection(stream: TcpStream, mut session: Session, ctl: ConnCtl) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let script = match read_request(&mut reader)? {
            Request::Script(s) => s,
            Request::Quit => return Ok(()),
            Request::Shutdown => {
                let payload = "shutting down\n";
                write!(writer, "OK {}\n{payload}", payload.len())?;
                writer.flush()?;
                if let Err(e) = ctl.engine.checkpoint() {
                    eprintln!("isql server: checkpoint on \\shutdown failed: {e}");
                }
                ctl.stop.store(true, Ordering::SeqCst);
                // Unblock the accept call with a throwaway connection.
                let _ = TcpStream::connect(ctl.addr);
                return Ok(());
            }
            Request::Malformed(msg) => {
                let payload = format!("{msg}\n");
                write!(writer, "ERR {}\n{payload}", payload.len())?;
                writer.flush()?;
                return Ok(()); // close only this connection
            }
        };
        if script.trim().is_empty() {
            continue;
        }
        // Contain a handler panic: answer ERR and drop only this
        // connection; the engine's mutexes recover from poisoning, so
        // other sessions keep working.
        let result = catch_unwind(AssertUnwindSafe(|| execute_rendered(&mut session, &script)));
        let (status, payload, fatal) = match result {
            Ok(rendered) => {
                let (status, payload) = bounded_response(rendered);
                (status, payload, false)
            }
            Err(_) => ("ERR", "internal error\n".to_string(), true),
        };
        write!(writer, "{status} {}\n{payload}", payload.len())?;
        writer.flush()?;
        if fatal {
            return Ok(());
        }
    }
}

/// The status and payload answering one executed script. A payload longer
/// than [`MAX_FRAME`] (which no [`Client`] would read) becomes an `ERR`
/// naming its size.
fn bounded_response(rendered: Result<String, String>) -> (&'static str, String) {
    match rendered {
        Ok(p) | Err(p) if p.len() > MAX_FRAME => (
            "ERR",
            format!(
                "response of {} bytes exceeds maximum {MAX_FRAME}\n",
                p.len()
            ),
        ),
        Ok(p) => ("OK", p),
        Err(p) => ("ERR", p),
    }
}

/// Read one request: a newline-terminated script, or `#<n>` length-framed
/// bytes. Protocol violations come back as [`Request::Malformed`] rather
/// than errors, so the handler can answer before closing; only transport
/// failures (including read timeouts) surface as `io::Error`.
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Request> {
    let mut line = Vec::new();
    if reader.read_until(b'\n', &mut line)? == 0 {
        return Ok(Request::Quit);
    }
    let Ok(line) = String::from_utf8(line) else {
        return Ok(Request::Malformed("request is not valid UTF-8".into()));
    };
    let trimmed = line.trim_end_matches(['\r', '\n']);
    if trimmed == "\\quit" {
        return Ok(Request::Quit);
    }
    if trimmed == "\\shutdown" {
        return Ok(Request::Shutdown);
    }
    if let Some(len_text) = trimmed.strip_prefix('#') {
        let Ok(len) = len_text.trim().parse::<usize>() else {
            return Ok(Request::Malformed(format!("bad length frame {trimmed:?}")));
        };
        if len > MAX_FRAME {
            return Ok(Request::Malformed(format!(
                "length frame {len} exceeds maximum {MAX_FRAME}"
            )));
        }
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf)?;
        let Ok(script) = String::from_utf8(buf) else {
            return Ok(Request::Malformed("request is not valid UTF-8".into()));
        };
        return Ok(Request::Script(script));
    }
    Ok(Request::Script(trimmed.to_string()))
}

/// A minimal client for the wire protocol, used by the stress suite, the
/// smoke test, and the `concurrent_sessions` bench.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server started with [`serve`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// [`Client::connect`] with bounded retries: on connection refused /
    /// reset / aborted, sleep `backoff` (doubling each attempt, capped at
    /// 2s) and try again, up to `attempts` total attempts. Other errors —
    /// and the last retryable one — are returned immediately. Lets
    /// clients ride out a server restart or a race with the bind.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<Client> {
        let mut delay = backoff;
        let mut tries = 0;
        loop {
            tries += 1;
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e)
                    if tries < attempts
                        && matches!(
                            e.kind(),
                            io::ErrorKind::ConnectionRefused
                                | io::ErrorKind::ConnectionReset
                                | io::ErrorKind::ConnectionAborted
                        ) =>
                {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_secs(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one script and read the response: `Ok(payload)` for an `OK`
    /// response, `Err(message)` for an `ERR` response. I/O problems — and
    /// a status line announcing more than [`MAX_FRAME`] bytes — surface as
    /// the outer `io::Error`.
    pub fn request(&mut self, script: &str) -> io::Result<Result<String, String>> {
        let stream = self.reader.get_mut();
        // Always length-frame: scripts may contain newlines.
        write!(stream, "#{}\n{script}", script.len())?;
        stream.flush()?;
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = status.trim_end();
        let (ok, len_text) = if let Some(rest) = status.strip_prefix("OK ") {
            (true, rest)
        } else if let Some(rest) = status.strip_prefix("ERR ") {
            (false, rest)
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status:?}"),
            ));
        };
        let len: usize = len_text.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status:?}"),
            )
        })?;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response length {len} exceeds maximum {MAX_FRAME}"),
            ));
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        let payload =
            String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(if ok { Ok(payload) } else { Err(payload) })
    }

    /// [`Client::request`], flattening a server-side error into
    /// `io::Error` (for callers that expect the script to succeed).
    pub fn query(&mut self, script: &str) -> io::Result<String> {
        self.request(script)?
            .map_err(|e| io::Error::other(e.trim_end().to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_byte_for_byte_and_stop_after_eight_answers() {
        use relalg::{Relation, Schema, Value};
        // Columns are as wide as their longest cell in bytes and cells pad
        // by characters, so the two-byte `ü` and the three-byte CJK
        // characters widen `City` beyond what it shows.
        let answer = Relation::from_rows(
            Schema::of(&["City", "N"]),
            [
                vec![Value::str("東京"), Value::Int(12)],
                vec![Value::str("Zürich"), Value::Int(-5)],
            ],
        )
        .unwrap();
        let outcome = ExecOutcome::Rows {
            name: "Q".to_string(),
            answers: vec![answer; 10],
        };
        let mut expected = "Q: 10 distinct answer(s) across 1 world(s)\n".to_string();
        for i in 1..=8 {
            expected.push_str(&format!("Q[{i}]  City     N   \n"));
            expected.push_str("      Zürich   -5  \n");
            expected.push_str("      東京       12  \n");
        }
        expected.push_str("… (2 more)\n");
        assert_eq!(render_outcome(&outcome, 1), expected);
    }

    #[test]
    fn oversized_answers_become_err() {
        let fits = "x".repeat(MAX_FRAME);
        assert_eq!(bounded_response(Ok(fits.clone())), ("OK", fits));
        assert_eq!(
            bounded_response(Err("boom\n".into())),
            ("ERR", "boom\n".to_string())
        );
        let (status, payload) = bounded_response(Ok("x".repeat(MAX_FRAME + 1)));
        assert_eq!(status, "ERR");
        assert_eq!(
            payload,
            format!(
                "response of {} bytes exceeds maximum {MAX_FRAME}\n",
                MAX_FRAME + 1
            )
        );
    }
}
