//! The `dbds-server` daemon: socket listeners, a bounded admission
//! queue with load shedding, and N dispatcher threads over the sharded
//! [`CompileService`].
//!
//! Architecture: connection threads parse frames, answer status
//! directly (it only locks shards, briefly, in order), and route each
//! compile job to the dispatcher that owns its shard
//! (`dispatcher = key.shard(shards) % dispatchers`). Every store
//! access and compilation happens on a dispatcher, which drains its
//! queue in batches (so concurrent clients still get the unit-level
//! parallel fan-out of [`CompileService::compile_batch`]).
//!
//! Determinism: a request's shard is a pure function of its key, every
//! shard is owned by exactly one dispatcher, and a dispatcher drains
//! its queue in arrival order — so each shard observes its requests in
//! submission order whatever the dispatcher count, and the summed
//! status counters are byte-identical across `DBDS_DISPATCHERS`
//! (gated in CI).
//!
//! Admission control is a single atomic reserve-or-shed
//! ([`try_admit`]): the queue slot is reserved by the same
//! compare-and-swap that checks the bound, so concurrent clients can
//! never overshoot `max_queue` (the old check-then-enqueue pattern
//! could, between the load and the increment).

use crate::json::{self, Json};
use crate::proto::{
    error_json, read_frame_text, response_json, write_frame, FrameError, Request, PROTO_VERSION,
};
use crate::service::{CompileService, ServiceConfig, ServiceError};
use crate::store::{BoundedStore, CompiledStore, DiskStore, MemStore, StoreError, TieredStore};
use dbds_core::DbdsConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Which store backend the daemon should open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreChoice {
    /// In-memory cache (dies with the daemon).
    Mem,
    /// Crash-safe on-disk store rooted at the given directory.
    Disk(PathBuf),
}

impl StoreChoice {
    /// Opens the chosen backend, unsharded and unwrapped. A store
    /// directory that cannot be opened degrades to the in-memory
    /// backend with a warning on stderr — a broken cache must not
    /// prevent serving.
    pub fn open(&self) -> Box<dyn CompiledStore> {
        match self {
            StoreChoice::Mem => Box::new(MemStore::new()),
            StoreChoice::Disk(dir) => match DiskStore::open(dir) {
                Ok(s) => Box::new(s),
                Err(StoreError(e)) => {
                    eprintln!(
                        "dbds-server: warning: store {} unusable ({e}); \
                         falling back to in-memory cache",
                        dir.display()
                    );
                    Box::new(MemStore::new())
                }
            },
        }
    }

    /// Opens `shards` backends for a sharded service. Disk shards live
    /// in `dir/shard-<i>/` subdirectories and carry their shard id to
    /// the fault-injection sites; a `budget` is split evenly across
    /// shards and enforced per shard by a [`BoundedStore`]; `tiered`
    /// puts a write-through in-memory front in front of each disk
    /// shard. Any shard that cannot be opened degrades to in-memory,
    /// like [`StoreChoice::open`].
    pub fn open_shards(
        &self,
        shards: usize,
        budget: Option<u64>,
        tiered: bool,
    ) -> Vec<Box<dyn CompiledStore>> {
        let shards = shards.max(1);
        (0..shards)
            .map(|i| {
                let mut store: Box<dyn CompiledStore> = match self {
                    StoreChoice::Mem => Box::new(MemStore::new()),
                    StoreChoice::Disk(dir) => {
                        let shard_dir = dir.join(format!("shard-{i}"));
                        match DiskStore::open_shard(&shard_dir, i as u32) {
                            Ok(s) => Box::new(s),
                            Err(StoreError(e)) => {
                                eprintln!(
                                    "dbds-server: warning: store shard {} unusable ({e}); \
                                     falling back to in-memory cache",
                                    shard_dir.display()
                                );
                                Box::new(MemStore::new())
                            }
                        }
                    }
                };
                if tiered {
                    store = Box::new(TieredStore::new(store));
                }
                if let Some(total) = budget {
                    match BoundedStore::new(store, total / shards as u64) {
                        Ok(bounded) => store = Box::new(bounded),
                        Err(StoreError(e)) => {
                            eprintln!("dbds-server: warning: shard {i} budget not enforced ({e})");
                            store = match self {
                                StoreChoice::Mem => Box::new(MemStore::new()),
                                StoreChoice::Disk(dir) => {
                                    self.reopen_unbounded(&dir.join(format!("shard-{i}")), i as u32)
                                }
                            };
                        }
                    }
                }
                store
            })
            .collect()
    }

    /// Fallback when wrapping a shard failed: reopen it plain.
    fn reopen_unbounded(&self, dir: &PathBuf, shard: u32) -> Box<dyn CompiledStore> {
        match DiskStore::open_shard(dir, shard) {
            Ok(s) => Box::new(s),
            Err(_) => Box::new(MemStore::new()),
        }
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address: `host:port` for TCP or `unix:<path>` for a Unix
    /// domain socket.
    pub listen: String,
    /// Store backend.
    pub store: StoreChoice,
    /// Compilation configuration (the unit-pool width honors
    /// `DBDS_UNIT_THREADS` via its default).
    pub base_cfg: DbdsConfig,
    /// Store retry/backoff tuning.
    pub service: ServiceConfig,
    /// Admission-queue bound: jobs beyond this many waiting are shed
    /// with a typed `overloaded` response.
    pub max_queue: usize,
    /// Store shard count. Part of the store layout (disk shards live
    /// in `shard-<i>/` subdirectories), not of the execution plan:
    /// counters and results are invariant in it, but changing it on an
    /// existing store re-routes keys to cold shards.
    pub shards: usize,
    /// Dispatcher thread count (defaults to `DBDS_DISPATCHERS` or 1).
    /// Purely an execution knob: status counters are byte-identical
    /// across dispatcher counts.
    pub dispatchers: usize,
    /// Total store byte budget, split evenly across shards and
    /// enforced by second-chance eviction; `None` = unbounded.
    pub store_budget: Option<u64>,
    /// Put a write-through in-memory front in front of each disk
    /// shard. Off by default: the front masks on-disk corruption until
    /// restart, which the heal-path e2e exercises against.
    pub tiered: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            store: StoreChoice::Mem,
            base_cfg: DbdsConfig::default(),
            service: ServiceConfig::default(),
            max_queue: 128,
            shards: 8,
            dispatchers: std::env::var("DBDS_DISPATCHERS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1),
            store_budget: None,
            tiered: false,
        }
    }
}

/// Either listener flavor.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Either stream flavor; the protocol layer only needs `Read + Write`.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One queued unit of dispatcher work.
enum Job {
    Compile {
        req: crate::service::CompileRequest,
        reply: mpsc::Sender<Json>,
    },
    Shutdown {
        reply: mpsc::Sender<Json>,
    },
}

/// A running daemon: the resolved listen address plus the thread
/// handles needed to join it.
#[derive(Debug)]
pub struct ServerHandle {
    /// The resolved address clients should connect to (`host:port` or
    /// `unix:<path>`), useful when the config asked for port 0.
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    peak_depth: Arc<AtomicUsize>,
    accept_thread: thread::JoinHandle<()>,
    dispatcher_threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Blocks until the daemon has shut down (a client sent
    /// `shutdown`, or [`ServerHandle::stop`] was called).
    pub fn join(self) {
        for t in self.dispatcher_threads {
            let _ = t.join();
        }
        let _ = self.accept_thread.join();
    }

    /// Requests shutdown from the hosting process (equivalent to a
    /// client `shutdown` op) and waits for the daemon to stop.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the accept loop out of `accept()`.
        let _ = crate::client::Client::connect(&self.addr);
        self.join();
    }

    /// The highest admission-queue depth observed so far. The
    /// reserve-or-shed admission guarantees this never exceeds
    /// `max_queue` (gated by the multi-client daemon test).
    pub fn peak_queue(&self) -> usize {
        self.peak_depth.load(Ordering::SeqCst)
    }
}

/// Reserve-or-shed admission: atomically takes a queue slot iff the
/// depth is under `max`. The check and the reservation are one
/// compare-and-swap, so the bound holds under any number of concurrent
/// connection threads.
fn try_admit(depth: &AtomicUsize, max: usize) -> bool {
    depth
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
            (d < max).then_some(d + 1)
        })
        .is_ok()
}

/// Binds the listener and starts the accept + dispatcher threads.
///
/// # Errors
///
/// Returns a message when the listen address cannot be parsed or
/// bound. Store problems do *not* fail startup (see
/// [`StoreChoice::open_shards`]).
pub fn serve(cfg: ServerConfig) -> Result<ServerHandle, String> {
    let (listener, addr) = bind(&cfg.listen)?;
    let service = Arc::new(CompileService::with_shards(
        cfg.store
            .open_shards(cfg.shards, cfg.store_budget, cfg.tiered),
        cfg.base_cfg.clone(),
        cfg.service.clone(),
    ));

    let shutdown = Arc::new(AtomicBool::new(false));
    let depth = Arc::new(AtomicUsize::new(0));
    let peak_depth = Arc::new(AtomicUsize::new(0));
    let n_dispatchers = cfg.dispatchers.max(1);

    let mut senders = Vec::with_capacity(n_dispatchers);
    let mut dispatcher_threads = Vec::with_capacity(n_dispatchers);
    for d in 0..n_dispatchers {
        let (tx, rx) = mpsc::channel::<Job>();
        senders.push(tx);
        let service = Arc::clone(&service);
        let depth = Arc::clone(&depth);
        dispatcher_threads.push(
            thread::Builder::new()
                .name(format!("dbds-dispatch-{d}"))
                .spawn(move || dispatcher(&service, &rx, &depth))
                .map_err(|e| format!("spawn dispatcher {d}: {e}"))?,
        );
    }

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let depth = Arc::clone(&depth);
        let peak_depth = Arc::clone(&peak_depth);
        let senders = senders.clone();
        let addr = addr.clone();
        let max_queue = cfg.max_queue;
        thread::Builder::new()
            .name("dbds-accept".into())
            .spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    let stream = match listener.accept() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let conn = Conn {
                        service: Arc::clone(&service),
                        senders: senders.clone(),
                        shutdown: Arc::clone(&shutdown),
                        depth: Arc::clone(&depth),
                        peak_depth: Arc::clone(&peak_depth),
                        max_queue,
                        addr: addr.clone(),
                    };
                    let _ = thread::Builder::new()
                        .name("dbds-conn".into())
                        .spawn(move || connection(stream, &conn));
                }
                // Dropping `senders` here closes every dispatcher
                // queue once the last connection thread exits too.
            })
            .map_err(|e| format!("spawn accept loop: {e}"))?
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        peak_depth,
        accept_thread,
        dispatcher_threads,
    })
}

fn bind(listen: &str) -> Result<(Listener, String), String> {
    if let Some(path) = listen.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path).map_err(|e| format!("bind {path}: {e}"))?;
        Ok((Listener::Unix(l), format!("unix:{path}")))
    } else {
        let l = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
        let addr = l
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        Ok((Listener::Tcp(l), addr))
    }
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// One dispatcher: drains its queue in batches. Every job in this
/// queue routes to a shard this dispatcher owns, so batches touch
/// disjoint shard sets across dispatchers and each shard sees its
/// requests in arrival order.
fn dispatcher(service: &CompileService, rx: &mpsc::Receiver<Job>, depth: &AtomicUsize) {
    while let Ok(first) = rx.recv() {
        // Batch: everything already waiting rides along with the job
        // that woke us, so a burst of clients compiles in one parallel
        // fan-out instead of serially.
        let mut jobs = vec![first];
        while let Ok(job) = rx.try_recv() {
            jobs.push(job);
        }

        let mut compile_jobs = Vec::new();
        let mut stop = false;
        for job in jobs {
            match job {
                Job::Compile { req, reply } => compile_jobs.push((req, reply)),
                Job::Shutdown { reply } => {
                    let _ = reply.send(Json::Obj(vec![("ok".into(), Json::Bool(true))]));
                    stop = true;
                }
            }
        }
        // Only compile jobs hold admission slots.
        depth.fetch_sub(compile_jobs.len(), Ordering::SeqCst);

        let reqs: Vec<_> = compile_jobs.iter().map(|(r, _)| r.clone()).collect();
        let outcomes = service.compile_batch(&reqs);
        for ((_req, reply), outcome) in compile_jobs.into_iter().zip(&outcomes) {
            let _ = reply.send(response_json(outcome));
        }

        if stop {
            return;
        }
    }
}

/// Everything a connection thread needs, bundled to keep the spawn
/// site readable.
struct Conn {
    service: Arc<CompileService>,
    senders: Vec<mpsc::Sender<Job>>,
    shutdown: Arc<AtomicBool>,
    depth: Arc<AtomicUsize>,
    peak_depth: Arc<AtomicUsize>,
    max_queue: usize,
    addr: String,
}

/// Writes a response frame; an oversized payload is replaced by the
/// typed `frame-too-large` error on the still-intact stream. Returns
/// `false` when the connection is dead.
fn write_response(stream: &mut Stream, v: &Json) -> bool {
    match write_frame(stream, v) {
        Ok(()) => true,
        Err(FrameError::TooLarge(_)) => {
            write_frame(stream, &error_json(&ServiceError::FrameTooLarge)).is_ok()
        }
        Err(FrameError::Io(_)) => false,
    }
}

/// One client connection: read frames, route compile jobs to their
/// shard's dispatcher, answer status inline, relay replies.
fn connection(mut stream: Stream, conn: &Conn) {
    loop {
        let text = match read_frame_text(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) => return, // client hung up
            Err(_) => return,
        };
        // A malformed payload (bad JSON, nesting past the parser's
        // limit) was read whole, so the stream is still in sync: answer
        // it like any other bad request.
        let request = match json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|frame| Request::from_json(&frame))
        {
            Ok(r) => r,
            Err(msg) => {
                if !write_response(&mut stream, &error_json(&ServiceError::BadRequest(msg))) {
                    return;
                }
                continue;
            }
        };

        if conn.shutdown.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown) {
            let _ = write_response(&mut stream, &error_json(&ServiceError::Overloaded));
            continue;
        }

        match request {
            Request::Status => {
                // Served inline: status only locks shards (in shard
                // order), it never compiles, so it needs no queue slot
                // and cannot jump ahead of a shard's compile order —
                // shard locks serialize it against in-flight work.
                let mut status = conn.service.status_json();
                if let Json::Obj(pairs) = &mut status {
                    pairs.insert(0, ("proto".into(), Json::str(PROTO_VERSION)));
                }
                if !write_response(&mut stream, &status) {
                    return;
                }
            }
            Request::Shutdown => {
                conn.shutdown.store(true, Ordering::SeqCst);
                let (reply_tx, reply_rx) = mpsc::channel();
                for tx in &conn.senders {
                    let _ = tx.send(Job::Shutdown {
                        reply: reply_tx.clone(),
                    });
                }
                drop(reply_tx);
                let ok = reply_rx
                    .recv()
                    .unwrap_or_else(|_| Json::Obj(vec![("ok".into(), Json::Bool(true))]));
                let _ = write_response(&mut stream, &ok);
                // Nudge the accept loop out of its blocking accept()
                // so it observes the flag and drops its senders.
                let _ = crate::client::Client::connect(&conn.addr);
                return;
            }
            Request::Compile(req) => {
                // Admission control: one atomic reserve-or-shed.
                if !try_admit(&conn.depth, conn.max_queue) {
                    conn.service.record_shed(1);
                    if !write_response(&mut stream, &error_json(&ServiceError::Overloaded)) {
                        return;
                    }
                    continue;
                }
                conn.peak_depth
                    .fetch_max(conn.depth.load(Ordering::SeqCst), Ordering::SeqCst);

                let shard = conn.service.shard_for(&req);
                let dispatcher = shard % conn.senders.len();
                let (reply_tx, reply_rx) = mpsc::channel();
                let job = Job::Compile {
                    req,
                    reply: reply_tx,
                };
                if conn.senders[dispatcher].send(job).is_err() {
                    // Dispatcher is gone (shutdown raced us).
                    conn.depth.fetch_sub(1, Ordering::SeqCst);
                    let _ = write_response(&mut stream, &error_json(&ServiceError::Overloaded));
                    return;
                }
                match reply_rx.recv() {
                    Ok(json) => {
                        if !write_response(&mut stream, &json) {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        }
    }
}
