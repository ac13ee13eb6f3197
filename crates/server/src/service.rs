//! The compilation service: request resolution, cache lookup with
//! verification, parallel fresh compilation, and the graceful
//! degradation ladder that keeps the service correct when the store is
//! not.
//!
//! # Degradation ladder
//!
//! For every request the service walks down this ladder and stops at
//! the first rung that yields a verified artifact:
//!
//! 1. **Hit** — the store returns a payload whose checksum, structure
//!    and IR verification all pass, and whose embedded key matches the
//!    request. Served as `cached: true`.
//! 2. **Heal** — the payload exists but fails any check: the entry is
//!    evicted (quarantined), the `quarantined` counter ticks, and the
//!    request falls through to a fresh compile.
//! 3. **Retry** — a store operation returns a transient error: it is
//!    retried up to [`ServiceConfig::store_retries`] times with linear
//!    backoff, ticking `retries`.
//! 4. **Degrade** — the store stays unavailable: the request is served
//!    by a fresh compile without caching, ticking `degraded`. A dead
//!    store never fails a request.
//!
//! Requests that a wall-clock deadline cut short get the typed
//! [`ServiceError::DeadlineExceeded`] and are *never* cached: a
//! deadline-truncated graph is wall-clock nondeterministic, and the
//! store's contract is that every entry is byte-identical to a fresh
//! compile of its key.

use crate::artifact::CompiledArtifact;
use crate::json::Json;
use crate::key::StoreKey;
use crate::store::{CompiledStore, StoreError};
use dbds_core::{compile, DbdsConfig, OptLevel, PhaseStats};
use dbds_costmodel::CostModel;
use dbds_ir::Graph;
use dbds_workloads::{all_workloads, Workload};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// What a request asks the service to compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileSource {
    /// A named workload from the built-in suites.
    Workload(String),
    /// Inline IR text (class table + exactly one `func`).
    IrText(String),
}

/// One compile request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileRequest {
    /// What to compile.
    pub source: CompileSource,
    /// The optimization level to compile at.
    pub level: OptLevel,
    /// Optional per-request wall-clock deadline in milliseconds,
    /// installed into [`dbds_core::GuardConfig::deadline`].
    pub deadline_ms: Option<u64>,
}

/// The typed failure responses of the service. Every error a client
/// can observe is one of these — the service never panics a request
/// and never surfaces a raw store error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request queue was full; retry later.
    Overloaded,
    /// The per-request deadline cut the compilation short; the partial
    /// result was discarded (deadline-truncated graphs are wall-clock
    /// nondeterministic and therefore neither served nor cached).
    DeadlineExceeded,
    /// The request itself was malformed (unknown workload, unparsable
    /// IR, unknown level); the payload is a user-facing message.
    BadRequest(String),
    /// The response was produced but does not fit in one protocol
    /// frame ([`crate::proto::MAX_FRAME`]); the client should split the
    /// request or raise the cap, the stream itself stays intact.
    FrameTooLarge,
    /// The compiler panicked on this request; the payload is the panic
    /// message. Nothing was stored, and the rest of the batch and the
    /// service itself are unaffected.
    Internal(String),
}

impl ServiceError {
    /// Stable wire tag of the error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::Overloaded => "overloaded",
            ServiceError::DeadlineExceeded => "deadline-exceeded",
            ServiceError::BadRequest(_) => "bad-request",
            ServiceError::FrameTooLarge => "frame-too-large",
            ServiceError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "server overloaded, retry later"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::FrameTooLarge => {
                write!(f, "response exceeds the protocol frame cap")
            }
            ServiceError::Internal(msg) => write!(f, "internal compiler error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A successfully served compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedResult {
    /// The verified artifact.
    pub artifact: CompiledArtifact,
    /// `true` when it came out of the store, `false` when freshly
    /// compiled for this request.
    pub cached: bool,
}

/// The outcome of one request.
pub type CompileOutcome = Result<ServedResult, ServiceError>;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bounded retries for transient store errors (rung 3 of the
    /// degradation ladder).
    pub store_retries: u32,
    /// Linear backoff step between store retries.
    pub store_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            store_retries: 2,
            store_backoff: Duration::from_millis(5),
        }
    }
}

/// Deterministic service counters. Every field is a function of the
/// request sequence and the store contents only — never of wall-clock
/// or thread interleaving — so status reports are byte-identical
/// across `DBDS_UNIT_THREADS` settings (gated by a harness test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Requests accepted into a batch (sheds not included).
    pub requests: u64,
    /// Requests served from the store.
    pub hits: u64,
    /// Requests that required a fresh compile (including heals and
    /// degradations).
    pub misses: u64,
    /// Fresh results durably installed into the store.
    pub puts: u64,
    /// Store entries evicted because they failed parse, verification
    /// or key match after retrieval (store-internal checksum
    /// quarantines are reported separately via store health).
    pub quarantined: u64,
    /// Requests rejected with [`ServiceError::Overloaded`] before
    /// reaching a batch.
    pub shed: u64,
    /// Store-operation retries performed.
    pub retries: u64,
    /// Store operations abandoned after exhausting retries (the
    /// request was still served, uncached).
    pub degraded: u64,
    /// Requests rejected with [`ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests rejected with [`ServiceError::BadRequest`].
    pub bad_requests: u64,
}

impl ServiceCounters {
    /// Field-wise `self - earlier`; used for per-pass session deltas.
    #[must_use]
    pub fn delta(&self, earlier: &ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            requests: self.requests - earlier.requests,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            puts: self.puts - earlier.puts,
            quarantined: self.quarantined - earlier.quarantined,
            shed: self.shed - earlier.shed,
            retries: self.retries - earlier.retries,
            degraded: self.degraded - earlier.degraded,
            deadline_exceeded: self.deadline_exceeded - earlier.deadline_exceeded,
            bad_requests: self.bad_requests - earlier.bad_requests,
        }
    }

    /// The counters in stable report order.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("requests", self.requests),
            ("hits", self.hits),
            ("misses", self.misses),
            ("puts", self.puts),
            ("quarantined", self.quarantined),
            ("shed", self.shed),
            ("retries", self.retries),
            ("degraded", self.degraded),
            ("deadline_exceeded", self.deadline_exceeded),
            ("bad_requests", self.bad_requests),
        ]
    }

    /// JSON object in stable report order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.fields()
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::num(*v)))
                .collect(),
        )
    }
}

/// The store and the counters of the requests it served, guarded
/// together by one lock so the counters are always consistent with the
/// store.
struct Cache {
    store: Box<dyn CompiledStore>,
    counters: ServiceCounters,
}

/// Linear backoff steps are capped here so the sleep can never
/// overflow (`Duration × u32` panics on overflow) and a misconfigured
/// retry count cannot stall a dispatcher for minutes.
const BACKOFF_CAP_STEPS: u32 = 8;

/// The backoff before retry number `attempt` (1-based): linear in the
/// attempt, clamped to `[1, BACKOFF_CAP_STEPS]` steps, saturating
/// instead of panicking on overflow.
fn retry_backoff(step: Duration, attempt: u32) -> Duration {
    step.saturating_mul(attempt.clamp(1, BACKOFF_CAP_STEPS))
}

/// The compilation service: one store and its counters behind one
/// lock, one cost model, one base configuration, and the built-in
/// workload table.
///
/// All entry points take `&self`. The store is only touched under the
/// lock, and [`CompileService::compile_batch`] commits in submission
/// order, so the counters are a function of the request sequence alone
/// — byte-identical at any `DBDS_UNIT_THREADS`.
pub struct CompileService {
    cache: Mutex<Cache>,
    /// Requests shed by admission control; kept outside the lock so
    /// shedding never waits behind a batch.
    shed: AtomicU64,
    model: CostModel,
    base_cfg: DbdsConfig,
    cfg: ServiceConfig,
    workloads: BTreeMap<String, Workload>,
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("backend", &self.backend())
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl CompileService {
    /// Builds a service over `store` compiling with `base_cfg`.
    pub fn new(store: Box<dyn CompiledStore>, base_cfg: DbdsConfig, cfg: ServiceConfig) -> Self {
        CompileService {
            cache: Mutex::new(Cache {
                store,
                counters: ServiceCounters::default(),
            }),
            shed: AtomicU64::new(0),
            model: CostModel::new(),
            base_cfg,
            cfg,
            workloads: all_workloads()
                .into_iter()
                .map(|w| (w.name.clone(), w))
                .collect(),
        }
    }

    /// Locks the cache; a poisoned lock is taken over as-is (counters
    /// and store are always left internally consistent).
    fn lock(&self) -> MutexGuard<'_, Cache> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Backend name of the underlying store.
    pub fn backend(&self) -> &'static str {
        self.lock().store.backend()
    }

    /// Current counters snapshot.
    pub fn counters(&self) -> ServiceCounters {
        let mut counters = self.lock().counters;
        counters.shed += self.shed.load(Ordering::SeqCst);
        counters
    }

    /// Records `n` requests shed by the admission queue.
    pub fn record_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::SeqCst);
    }

    /// Health snapshot of the underlying store (entry count plus
    /// store-internal checksum quarantines — which are distinct from
    /// the service-level verify quarantines in
    /// [`ServiceCounters::quarantined`] — plus budget evictions).
    pub fn store_health(&self) -> crate::store::StoreHealth {
        self.lock().store.health()
    }

    /// The status report: counters plus store health, as served to
    /// `dbds_client status` and embedded in harness reports.
    pub fn status_json(&self) -> Json {
        let health = self.store_health();
        Json::Obj(vec![
            ("backend".into(), Json::str(self.backend())),
            ("counters".into(), self.counters().to_json()),
            (
                "store".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::num(health.entries as u64)),
                    ("quarantined".into(), Json::num(health.quarantined)),
                    ("evictions".into(), Json::num(health.evictions)),
                ]),
            ),
        ])
    }

    /// Runs a store operation on the (locked) cache with bounded retry
    /// plus clamped linear backoff (rung 3); `Err` means the ladder
    /// fell through to rung 4.
    fn with_retry<T>(
        cfg: &ServiceConfig,
        cache: &mut Cache,
        mut op: impl FnMut(&mut dyn CompiledStore) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt = 0;
        loop {
            match op(cache.store.as_mut()) {
                Ok(v) => return Ok(v),
                Err(_) if attempt < cfg.store_retries => {
                    attempt += 1;
                    cache.counters.retries += 1;
                    std::thread::sleep(retry_backoff(cfg.store_backoff, attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Resolves a request into a pristine graph (cloned, unoptimized)
    /// or a typed [`ServiceError::BadRequest`]. Inline IR must parse
    /// and verify: a graph the verifier rejects is never compiled,
    /// served or stored.
    fn resolve(&self, source: &CompileSource) -> Result<Graph, ServiceError> {
        match source {
            CompileSource::Workload(name) => self
                .workloads
                .get(name)
                .map(|w| w.graph.clone())
                .ok_or_else(|| ServiceError::BadRequest(format!("unknown workload `{name}`"))),
            CompileSource::IrText(text) => {
                let mut module = dbds_ir::parse_module(text)
                    .map_err(|e| ServiceError::BadRequest(format!("IR does not parse: {e}")))?;
                if module.graphs.len() != 1 {
                    return Err(ServiceError::BadRequest(format!(
                        "expected exactly one func, found {}",
                        module.graphs.len()
                    )));
                }
                let graph = module.graphs.remove(0);
                dbds_ir::verify(&graph)
                    .map_err(|e| ServiceError::BadRequest(format!("IR does not verify: {e}")))?;
                Ok(graph)
            }
        }
    }

    /// Serves a batch of requests.
    ///
    /// Store lookups and installs run sequentially in submission order
    /// under the lock (this is what makes the counters deterministic);
    /// the fresh compiles of all misses fan out together on the
    /// [`dbds_core::par`] unit pool without the lock, and are committed
    /// back in submission order. A compile that panics answers its own
    /// request with [`ServiceError::Internal`] and stores nothing.
    pub fn compile_batch(&self, reqs: &[CompileRequest]) -> Vec<CompileOutcome> {
        // Rungs 1–2, sequentially per request: resolve, key, probe the
        // store, verify anything it returns.
        let mut outcomes: Vec<Option<CompileOutcome>> = Vec::with_capacity(reqs.len());
        let mut misses: Vec<(usize, Graph, StoreKey, DbdsConfig, OptLevel)> = Vec::new();
        {
            let mut cache = self.lock();
            for (i, req) in reqs.iter().enumerate() {
                cache.counters.requests += 1;
                let graph = match self.resolve(&req.source) {
                    Ok(g) => g,
                    Err(e) => {
                        cache.counters.bad_requests += 1;
                        outcomes.push(Some(Err(e)));
                        continue;
                    }
                };
                let mut cfg = self.base_cfg.clone();
                cfg.guard.deadline = req.deadline_ms.map(Duration::from_millis);
                let key = StoreKey::compute(&graph, &cfg, req.level);
                match Self::lookup_verified(&self.cfg, &mut cache, &key) {
                    Some(artifact) => {
                        cache.counters.hits += 1;
                        outcomes.push(Some(Ok(ServedResult {
                            artifact,
                            cached: true,
                        })));
                    }
                    None => {
                        cache.counters.misses += 1;
                        outcomes.push(None);
                        misses.push((i, graph, key, cfg, req.level));
                    }
                }
            }
        }

        // Fresh compiles: fan out on the unit pool. Each unit carries
        // its own config (deadlines differ per request); the pool plan
        // still comes from the base config so `DBDS_UNIT_THREADS`
        // applies.
        let plan = self.base_cfg.pool_plan(misses.len());
        let model = &self.model;
        let (compiled, _loads, _ns) = dbds_core::par::run_units(
            plan.unit_workers,
            &misses,
            |_i, (_idx, graph, _key, cfg, level)| {
                // Not every panic is contained inside `compile` (the
                // Baseline pipeline and a checkpoints-off configuration
                // run unguarded); one escaping here must fail only its
                // own request, never the dispatcher that runs the batch.
                dbds_core::isolate(|| {
                    let mut g = graph.clone();
                    let stats = compile(&mut g, model, *level, cfg);
                    (g, stats)
                })
            },
        );

        // Commit in submission order: reject deadline-truncated
        // results, install the rest (rungs 3–4 for the put).
        let mut cache = self.lock();
        for ((idx, _graph, key, _cfg, level), fresh) in misses.into_iter().zip(compiled) {
            outcomes[idx] = Some(match fresh {
                Ok((g, stats)) => Self::commit_fresh(&self.cfg, &mut cache, key, level, &g, &stats),
                Err(panicked) => Err(ServiceError::Internal(panicked.to_string())),
            });
        }

        outcomes
            .into_iter()
            .map(|o| o.unwrap_or(Err(ServiceError::Overloaded)))
            .collect()
    }

    /// Rungs 1–2: probe the store for `key` and fully verify whatever
    /// comes back. Any failure heals to a miss, never to an error.
    fn lookup_verified(
        cfg: &ServiceConfig,
        cache: &mut Cache,
        key: &StoreKey,
    ) -> Option<CompiledArtifact> {
        let payload = match Self::with_retry(cfg, cache, |s| s.get(key)) {
            Ok(p) => p?,
            Err(_) => {
                // Rung 4: the store cannot even answer reads — compile
                // fresh, uncached.
                cache.counters.degraded += 1;
                return None;
            }
        };
        let ok = CompiledArtifact::parse(&payload)
            .ok()
            .filter(|a| a.key == *key)
            .filter(|a| a.verify().is_ok());
        if ok.is_none() {
            // Rung 2: structurally intact on disk (the checksum passed)
            // but semantically bad — evict and recompute.
            cache.counters.quarantined += 1;
            if Self::with_retry(cfg, cache, |s| s.evict(key)).is_err() {
                cache.counters.degraded += 1;
            }
        }
        ok
    }

    /// Turns one fresh compilation into an outcome: reject it if a
    /// deadline cut it short, otherwise serve it and try to install it
    /// into the store.
    fn commit_fresh(
        cfg: &ServiceConfig,
        cache: &mut Cache,
        key: StoreKey,
        level: OptLevel,
        g: &Graph,
        stats: &PhaseStats,
    ) -> CompileOutcome {
        if stats.hit_deadline() {
            cache.counters.deadline_exceeded += 1;
            return Err(ServiceError::DeadlineExceeded);
        }
        let artifact = CompiledArtifact::from_compiled(key, level, g, stats);
        if stats.stopped_early().is_none() {
            match Self::with_retry(cfg, cache, |s| s.put(&key, &artifact.serialize())) {
                Ok(()) => cache.counters.puts += 1,
                Err(_) => cache.counters.degraded += 1,
            }
        }
        // Non-deadline early stops (e.g. fuel exhaustion) are
        // deterministic — the *result* is servable — but conservative:
        // only fully converged compilations enter the store.
        Ok(ServedResult {
            artifact,
            cached: false,
        })
    }
}

/// Counter deltas of one pass of a repeated-workload session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionPass {
    /// Requests served (hits + misses) this pass.
    pub served: u64,
    /// Counter deltas attributable to this pass.
    pub counters: ServiceCounters,
}

/// The result of [`run_session`]: per-pass counter deltas over the
/// full workload corpus, for cache-effectiveness reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Store backend name.
    pub backend: String,
    /// One entry per pass, in order.
    pub passes: Vec<SessionPass>,
    /// Final cumulative counters.
    pub totals: ServiceCounters,
    /// Budget evictions performed by the store over the session (0 for
    /// unbounded stores).
    pub evictions: u64,
}

impl SessionReport {
    /// Hit rate of pass `i` (0-based), in [0, 1].
    pub fn hit_rate(&self, i: usize) -> f64 {
        let p = &self.passes[i];
        let looked = p.counters.hits + p.counters.misses;
        if looked == 0 {
            0.0
        } else {
            p.counters.hits as f64 / looked as f64
        }
    }
}

/// The standard repeated-workload session: every built-in workload at
/// every `level`, `passes` times over. The first pass populates the
/// store; later passes measure its effectiveness (the acceptance gate
/// asserts a >90% second-pass hit rate).
pub fn run_session(svc: &CompileService, levels: &[OptLevel], passes: usize) -> SessionReport {
    let reqs: Vec<CompileRequest> = all_workloads()
        .iter()
        .flat_map(|w| {
            levels.iter().map(|&level| CompileRequest {
                source: CompileSource::Workload(w.name.clone()),
                level,
                deadline_ms: None,
            })
        })
        .collect();
    let mut report = SessionReport {
        backend: svc.backend().to_string(),
        ..SessionReport::default()
    };
    for _ in 0..passes {
        let before = svc.counters();
        let outcomes = svc.compile_batch(&reqs);
        let served = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        report.passes.push(SessionPass {
            served,
            counters: svc.counters().delta(&before),
        });
    }
    report.totals = svc.counters();
    report.evictions = svc.store_health().evictions;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn service() -> CompileService {
        CompileService::new(
            Box::new(MemStore::new()),
            DbdsConfig::default(),
            ServiceConfig::default(),
        )
    }

    fn req(name: &str, level: OptLevel) -> CompileRequest {
        CompileRequest {
            source: CompileSource::Workload(name.into()),
            level,
            deadline_ms: None,
        }
    }

    #[test]
    fn second_request_hits_and_is_byte_identical() {
        let svc = service();
        let r = req("wordcount", OptLevel::Dbds);
        let first = svc.compile_batch(std::slice::from_ref(&r));
        let second = svc.compile_batch(std::slice::from_ref(&r));
        let a = first[0].as_ref().unwrap();
        let b = second[0].as_ref().unwrap();
        assert!(!a.cached);
        assert!(b.cached);
        assert_eq!(a.artifact, b.artifact);
        let c = svc.counters();
        assert_eq!((c.hits, c.misses, c.puts), (1, 1, 1));
    }

    #[test]
    fn unknown_workload_is_a_typed_bad_request() {
        let svc = service();
        let out = svc.compile_batch(&[req("no-such-benchmark", OptLevel::Dbds)]);
        match &out[0] {
            Err(ServiceError::BadRequest(msg)) => assert!(msg.contains("no-such-benchmark")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(svc.counters().bad_requests, 1);
    }

    #[test]
    fn zero_deadline_is_a_typed_error_and_never_cached() {
        let svc = service();
        let mut r = req("wordcount", OptLevel::Dbds);
        r.deadline_ms = Some(0);
        let out = svc.compile_batch(std::slice::from_ref(&r));
        assert_eq!(out[0], Err(ServiceError::DeadlineExceeded));
        let c = svc.counters();
        assert_eq!(c.deadline_exceeded, 1);
        assert_eq!(c.puts, 0, "deadline-truncated result must not be cached");
        // The same request without a deadline is a miss (nothing was
        // cached under the no-deadline key either).
        let out = svc.compile_batch(&[req("wordcount", OptLevel::Dbds)]);
        assert!(!out[0].as_ref().unwrap().cached);
    }

    #[test]
    fn ir_text_source_compiles_and_hits() {
        let ir = "func @tiny(v0: int) {\nb0:\n  return v0\n}\n";
        let svc = service();
        let r = CompileRequest {
            source: CompileSource::IrText(ir.into()),
            level: OptLevel::Baseline,
            deadline_ms: None,
        };
        let first = svc.compile_batch(std::slice::from_ref(&r));
        let second = svc.compile_batch(std::slice::from_ref(&r));
        assert!(!first[0].as_ref().unwrap().cached);
        assert!(second[0].as_ref().unwrap().cached);

        let bad = CompileRequest {
            source: CompileSource::IrText("not ir at all".into()),
            level: OptLevel::Baseline,
            deadline_ms: None,
        };
        assert!(matches!(
            svc.compile_batch(&[bad])[0],
            Err(ServiceError::BadRequest(_))
        ));
    }

    /// Inline IR that parses but fails `verify` is a bad request: it is
    /// neither compiled nor served nor put into the store.
    #[test]
    fn ir_text_that_fails_verify_is_a_bad_request() {
        let probes = [
            // use before def
            "func @p(x: int) {\nentry:\n  s: int = add x, y\n  y: int = const 1\n  return s\n}\n",
            // a use its def does not dominate
            "func @p(x: int) {\nentry:\n  zero: int = const 0\n  c: bool = cmp gt x, zero\n  \
             branch c, bt, bf, prob 0.5\nbt:\n  y: int = const 1\n  jump bm\nbf:\n  jump bm\n\
             bm:\n  s: int = add x, y\n  return s\n}\n",
            // `add` on a bool
            "func @p(x: int) {\nentry:\n  zero: int = const 0\n  c: bool = cmp gt x, zero\n  \
             s: int = add c, x\n  return s\n}\n",
            // an int branch condition
            "func @p(x: int) {\nentry:\n  branch x, bt, bf, prob 0.5\nbt:\n  return x\n\
             bf:\n  return x\n}\n",
            // a probability outside [0, 1]
            "func @p(x: int) {\nentry:\n  zero: int = const 0\n  c: bool = cmp gt x, zero\n  \
             branch c, bt, bf, prob 2.0\nbt:\n  return x\nbf:\n  return zero\n}\n",
            // a value defined in terms of itself
            "func @p(x: int) {\nentry:\n  a: int = add a, x\n  return a\n}\n",
        ];
        for ir in probes {
            let svc = service();
            let r = CompileRequest {
                source: CompileSource::IrText(ir.into()),
                level: OptLevel::Dbds,
                deadline_ms: None,
            };
            for _ in 0..3 {
                match &svc.compile_batch(std::slice::from_ref(&r))[0] {
                    Err(ServiceError::BadRequest(msg)) => {
                        assert!(msg.contains("does not verify"), "{msg}");
                    }
                    other => panic!("expected BadRequest for\n{ir}\ngot {other:?}"),
                }
            }
            let c = svc.counters();
            assert_eq!(
                (c.requests, c.bad_requests, c.misses, c.puts, c.quarantined),
                (3, 3, 0, 0, 0),
                "{ir}"
            );
            assert_eq!(svc.store_health().entries, 0, "{ir}");
        }
    }

    /// A panic that escapes `compile` answers its own request with a
    /// typed `internal` error and stores nothing; the rest of the batch
    /// is served, and the service keeps compiling afterwards. With one
    /// unit thread the batch runs inline on this thread, where the
    /// fault plan is armed, and with checkpoints off nothing inside
    /// `compile` contains the panic.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_panicking_compile_fails_only_its_own_request() {
        use dbds_core::faultinject::{arm, disarm, FaultKind, FaultPlan};
        let mut base = DbdsConfig {
            unit_threads: 1,
            ..DbdsConfig::default()
        };
        base.guard.checkpoints = false;
        let svc = CompileService::new(Box::new(MemStore::new()), base, ServiceConfig::default());
        let reqs = [
            req("wordcount", OptLevel::Dbds),
            req("wordcount", OptLevel::Dupalot),
        ];
        arm(FaultPlan {
            site: "transform/entry",
            kind: FaultKind::Panic,
            nth: 0,
            seed: 0,
        });
        let out = svc.compile_batch(&reqs);
        let (_, fired) = disarm();
        assert!(fired, "the fault must fire inside the batch");
        match &out[0] {
            Err(e @ ServiceError::Internal(_)) => assert_eq!(e.kind(), "internal"),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert!(!out[1].as_ref().unwrap().cached);
        let c = svc.counters();
        assert_eq!((c.requests, c.misses, c.puts), (2, 2, 1));
        assert_eq!(
            svc.store_health().entries,
            1,
            "the failed compile is not stored"
        );
        // The service still serves: the failed request now compiles
        // fresh, and the other one hits.
        let again = svc.compile_batch(&reqs);
        assert!(!again[0].as_ref().unwrap().cached);
        assert!(again[1].as_ref().unwrap().cached);
    }

    #[test]
    fn retry_backoff_is_linear_clamped_and_never_panics() {
        let step = Duration::from_millis(5);
        // The ladder starts at one step — attempt 0 (out of contract)
        // clamps up rather than sleeping zero.
        assert_eq!(retry_backoff(step, 0), step);
        assert_eq!(retry_backoff(step, 1), step);
        assert_eq!(retry_backoff(step, 2), step * 2);
        assert_eq!(retry_backoff(step, 3), step * 3);
        // ...and is capped: a huge attempt number stays bounded.
        assert_eq!(retry_backoff(step, 1000), step * BACKOFF_CAP_STEPS);
        assert_eq!(retry_backoff(step, u32::MAX), step * BACKOFF_CAP_STEPS);
        // `Duration::MAX * 2` would panic; saturating_mul must not.
        assert_eq!(retry_backoff(Duration::MAX, u32::MAX), Duration::MAX);
    }

    #[test]
    fn session_second_pass_hits_everything() {
        let svc = service();
        let report = run_session(&svc, &[OptLevel::Dbds], 2);
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.hit_rate(0), 0.0);
        assert!(
            report.hit_rate(1) > 0.9,
            "second pass hit rate {} ≤ 0.9",
            report.hit_rate(1)
        );
        assert_eq!(
            report.passes[1].counters.misses, 0,
            "identical second pass must not miss"
        );
    }
}
