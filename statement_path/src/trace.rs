//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has an id, the id of the span that caused it (0 for a root), a
//! name, start and end in nanoseconds since the recorder started, and the
//! statement number and class of the request it belongs to. Spans stay in
//! memory and are written out when the child ends. With the recorder off
//! (every end-to-end run) a span costs one relaxed atomic load.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub stmt: u32,
    pub class: &'static str,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// Class of a span opened on a thread that is inside no statement: the
/// engine's background snapshot thread.
pub const BACKGROUND: &str = "bg";

// Relaxed: the flag publishes no data; a thread that misses the switch by
// a moment records one span more or less.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static START: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// `(span id, statement number, class)` of the innermost open span.
    static CURRENT: Cell<(u32, u32, &'static str)> = const { Cell::new((0, 0, BACKGROUND)) };
}

pub fn set_enabled(on: bool) {
    START.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record<R>(
    parent: (u32, u32, &'static str),
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u32) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.replace((id, parent.1, parent.2));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT.set(outer);
    SPANS
        .lock()
        .expect("no span is recorded while panicking")
        .push(Span {
            id,
            parent: parent.0,
            name,
            start_ns,
            end_ns,
            stmt: parent.1,
            class: parent.2,
        });
    (out, id)
}

/// Run `f` inside a span caused by the thread's innermost open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    record(CURRENT.get(), name, f).0
}

/// Run `f` inside the root span of statement `stmt`; returns the root's
/// id (0 with the recorder off) so later work can be attached to it.
pub fn root<R>(stmt: u32, class: &'static str, f: impl FnOnce() -> R) -> (R, u32) {
    if !ENABLED.load(Ordering::Relaxed) {
        return (f(), 0);
    }
    record((0, stmt, class), "stmt", f)
}

/// Run `f` inside a span attached to the already closed span `parent`:
/// the in-process replay of a request that was served over TCP.
pub fn span_under<R>(
    parent: u32,
    stmt: u32,
    class: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    record((parent, stmt, class), name, f).0
}

/// All spans recorded so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("no span is recorded while panicking"))
}

/// Time covered by the direct children of each span, by parent id.
pub fn child_cover_us(spans: &[Span]) -> HashMap<u32, f64> {
    let mut cover: HashMap<u32, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *cover.entry(s.parent).or_default() += s.dur_us();
    }
    cover
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"stmt\": {}, \"class\": \"{}\"}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.stmt, s.class
        )?;
    }
    out.flush()
}
