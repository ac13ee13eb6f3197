//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, made from this
//! benchmark's own code: name, start, end, the enclosing span and the
//! unit or request it belongs to. Spans are kept in memory while the
//! run measures and written out as JSON lines when it ends. Recording is
//! off on a thread until [`set_enabled`] turns it on there; while it is
//! off, [`span`] is a plain call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    item: u64,
    start_ns: u64,
    end_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans the calling thread starts
/// afterwards.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.with(|e| e.set(on));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Runs `f` inside a span named `name` for unit or request `item`.
pub fn span<T>(name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    recorded().push(Span {
        id,
        parent,
        name,
        item,
        start_ns,
        end_ns,
    });
    out
}

fn recorded() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("span list poisoned")
}

/// How many spans have been recorded.
pub fn count() -> usize {
    recorded().len()
}

/// Total milliseconds per span name.
pub fn totals_ms() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in recorded().iter() {
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    out
}

/// Writes every recorded span to `path`, one JSON object per line.
pub fn dump(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in recorded().iter() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.item, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
