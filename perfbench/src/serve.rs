//! The `serve-mixed` workload.
//!
//! `dbds_server::serve` runs in this process with one dispatcher, a
//! `DiskStore` in a fresh directory and TCP on loopback. One persistent
//! `Client` sends compile requests in a closed loop (the next request
//! goes out when the previous answer is in). Set-up warms a hot set:
//! every Java/Scala/micro benchmark name, copy 0 of the seed, sent as IR
//! text at the DBDS level. After that, 7 of 8 requests repeat a hot unit
//! (a store hit) and every 8th is a fresh seeded unit, which misses and
//! goes through compile, serialize and put.
//!
//! Every response is compared byte for byte with a fresh in-process
//! compile of the same request, and every unit served is also put
//! through the compile workloads' unit check.

use crate::compile::{self, UnitRun};
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{self, span};
use crate::units::{ir_text, make, unit_list, Unit};
use crate::{Args, Metric, Outcome};
use dbds_core::{compile as compile_graph, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_server::json::{self, Json};
use dbds_server::proto::{parse_response, response_json};
use dbds_server::{
    serve, Client, CompileOutcome, CompileRequest, CompileService, CompileSource, CompiledArtifact,
    CompiledStore, DiskStore, MemStore, Request, ServerConfig, ServerHandle, ServiceConfig,
    StoreChoice, StoreKey,
};
use dbds_workloads::Suite;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SMALL: [Suite; 3] = [Suite::JavaDaCapo, Suite::ScalaDaCapo, Suite::Micro];

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;

/// One request in eight is a fresh unit.
const MISS_EVERY: u64 = 8;

/// The code-quality figures and counts cover the hot set plus this many
/// fresh units, whether or not the loop got to send them all, so that
/// they depend on the seed alone.
const FRESH_CHECKED: u64 = 170;

/// Span items of requests live above those of units.
const REQUEST_ITEM: u64 = 1 << 32;

/// A store directory that is removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon, its store and the one client connection.
struct Daemon {
    handle: ServerHandle,
    client: Client,
    _dir: TempDir,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let dir = TempDir::new(dir.to_path_buf())?;
        let handle = serve(ServerConfig {
            listen: "127.0.0.1:0".into(),
            store: StoreChoice::Disk(dir.0.clone()),
            dispatchers: 1,
            ..ServerConfig::default()
        })?;
        let client = Client::connect(&handle.addr)?;
        Ok(Daemon {
            handle,
            client,
            _dir: dir,
        })
    }

    fn stop(mut self) {
        let _ = self.client.shutdown();
        self.handle.join();
    }
}

fn dbds_request(u: &Unit) -> CompileRequest {
    CompileRequest {
        source: CompileSource::IrText(ir_text(&u.graph)),
        level: OptLevel::Dbds,
        deadline_ms: None,
    }
}

/// One answered request.
struct Answer {
    unit: usize,
    latency_ms: f64,
    outcome: Result<CompileOutcome, String>,
}

impl Answer {
    fn cached(&self) -> bool {
        matches!(&self.outcome, Ok(Ok(s)) if s.cached)
    }
}

/// Sends one request and times the round trip.
fn send(client: &mut Client, req: &Request, unit: usize) -> (Answer, Option<Json>) {
    let t = Instant::now();
    let resp = client.request(req);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = resp.as_ref().map_err(Clone::clone).and_then(parse_response);
    (
        Answer {
            unit,
            latency_ms,
            outcome,
        },
        resp.ok(),
    )
}

/// Replays a request's server-side steps from outside, on the same frame
/// and payloads, against a shadow store. Returns the milliseconds spent.
fn replay(
    item: u64,
    req: &Request,
    resp: &Json,
    outcome: &CompileOutcome,
    shadow: &mut DiskStore,
    model: &CostModel,
    cfg: &DbdsConfig,
) -> f64 {
    let t = Instant::now();
    let req_text = span("server.json_encode", item, || req.to_json().compact());
    let _ = span("server.json_decode", item, || json::parse(&req_text));
    let resp_text = span("server.json_encode", item, || {
        response_json(outcome).compact()
    });
    let _ = span("server.json_decode", item, || json::parse(&resp_text));
    debug_assert_eq!(resp_text, resp.compact());
    let Request::Compile(CompileRequest {
        source: CompileSource::IrText(text),
        ..
    }) = req
    else {
        return t.elapsed().as_secs_f64() * 1e3;
    };
    let Ok(mut module) = span("ir.parse", item, || dbds_ir::parse_module(text)) else {
        return t.elapsed().as_secs_f64() * 1e3;
    };
    let g = module.graphs.remove(0);
    let key = span("server.key", item, || {
        StoreKey::compute(&g, cfg, OptLevel::Dbds)
    });
    match span("server.store_get", item, || shadow.get(&key)) {
        Ok(Some(payload)) => {
            let _ = span("server.artifact_verify", item, || {
                CompiledArtifact::parse(&payload).and_then(|a| a.verify())
            });
        }
        _ => {
            let artifact = span("server.compile", item, || {
                let mut g = g.clone();
                let stats = compile_graph(&mut g, model, OptLevel::Dbds, cfg);
                CompiledArtifact::from_compiled(key, OptLevel::Dbds, &g, &stats)
            });
            let _ = span("server.store_put", item, || {
                shadow.put(&key, &artifact.serialize())
            });
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Generates the hot set, starts a daemon and sends every hot unit once.
fn set_up(args: &Args, dir: &Path) -> Result<(Vec<Unit>, Vec<Answer>, Daemon, f64), String> {
    let t = Instant::now();
    let hot = unit_list(&SMALL, 1, args.seed);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut daemon = Daemon::start(dir)?;
    let warm = hot
        .iter()
        .enumerate()
        .map(|(i, u)| send(&mut daemon.client, &Request::Compile(dbds_request(u)), i).0)
        .collect();
    Ok((hot, warm, daemon, gen_ms))
}

/// Runs the serve-mixed workload.
pub fn run(args: &Args) -> Outcome {
    match run_inner(args) {
        Ok(out) => out,
        Err(e) => Outcome::new(1, 1, vec![e]),
    }
}

fn run_inner(args: &Args) -> Result<Outcome, String> {
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let dir = args.out.join(format!("store-{}", std::process::id()));

    // Set-up, several times; the last daemon serves the measured loop.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut warm = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((_, daemon)) = last.take() {
            Daemon::stop(daemon);
        }
        let t = Instant::now();
        let (hot, answers, daemon, ms) = set_up(args, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        gen_ms.push(ms);
        warm.extend(answers);
        last = Some((hot, daemon));
    }
    let (hot, mut daemon) = last.expect("at least one set-up");

    // The shadow store the traced run replays store calls against.
    let shadow_dir = TempDir::new(args.out.join(format!("shadow-{}", std::process::id())))?;
    let mut shadow = DiskStore::open(&shadow_dir.0).map_err(|e| format!("shadow store: {e}"))?;
    if args.trace {
        for a in &warm {
            if let Ok(Ok(s)) = &a.outcome {
                let _ = shadow.put(&s.artifact.key, &s.artifact.serialize());
            }
        }
    }

    // The measured closed loop.
    let small_names: Vec<(Suite, &'static str)> = SMALL
        .iter()
        .flat_map(|&s| s.benchmark_names().iter().map(move |&n| (s, n)))
        .collect();
    let mut units = hot;
    let hot_len = units.len() as u64;
    // Fresh unit `f`: the next name in turn, copy 1, 2, ...
    let push_fresh = |units: &mut Vec<Unit>| {
        let fresh = units.len() as u64 - hot_len;
        let (suite, name) = small_names[(fresh % small_names.len() as u64) as usize];
        let copy = 1 + fresh / small_names.len() as u64;
        units.push(make(suite, name, args.seed, copy, units.len() as u64));
        units.len() - 1
    };
    let before = counters(&mut daemon.client)?;
    let mut answers: Vec<Answer> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut transport_ms = Vec::new();
    let mut pick = args.seed;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut i: u64 = 0;
    while Instant::now() < deadline {
        let unit = if i % MISS_EVERY == MISS_EVERY - 1 {
            push_fresh(&mut units)
        } else {
            pick = crate::stats::fmix(pick.wrapping_add(0x9e3779b97f4a7c15));
            (pick % hot_len) as usize
        };
        let req = Request::Compile(dbds_request(&units[unit]));
        let with_spans = args.trace && (i / MISS_EVERY) % 2 == 1;
        let item = REQUEST_ITEM + i;
        trace::set_enabled(with_spans);
        let (answer, resp) = span("request", item, || send(&mut daemon.client, &req, unit));
        if let (Some(resp), Ok(outcome)) = (&resp, &answer.outcome) {
            if with_spans {
                let replayed = span("replay", item, || {
                    replay(item, &req, resp, outcome, &mut shadow, &model, &cfg)
                });
                transport_ms.push(answer.latency_ms - replayed);
            }
        }
        trace::set_enabled(false);
        answers.push(answer);
        traced.push(with_spans);
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = counters(&mut daemon.client)?;
    daemon.stop();
    drop(shadow_dir);

    // Checks: every response against a fresh in-process compile, every
    // unit served through the unit check.
    while (units.len() as u64) < hot_len + FRESH_CHECKED {
        push_fresh(&mut units);
    }
    let mut errors = Vec::new();
    let truth_svc = CompileService::new(
        Box::new(MemStore::new()),
        cfg.clone(),
        ServiceConfig::default(),
    );
    let truth: Vec<CompileOutcome> = units
        .iter()
        .map(|u| truth_svc.compile_batch(&[dbds_request(u)]).remove(0))
        .collect();
    let mut failed = 0u64;
    for a in warm.iter().chain(&answers) {
        let u = &units[a.unit];
        let wrong = match (&a.outcome, &truth[a.unit]) {
            (Ok(Ok(got)), Ok(want)) => (got.artifact != want.artifact)
                .then(|| "served bytes differ from a fresh compile".to_string()),
            (Ok(Err(e)), _) => Some(format!("typed error {e}")),
            (Err(e), _) => Some(format!("protocol error {e}")),
            (_, Err(e)) => Some(format!("fresh compile failed: {e}")),
        };
        if let Some(w) = wrong {
            failed += 1;
            errors.push(format!("{} copy {}: {w}", u.name, u.copy));
        }
    }
    let checked: Vec<UnitRun> = units
        .iter()
        .map(|u| compile::sample(u, &model, &cfg, args.trace).run)
        .collect();
    for (u, r) in units.iter().zip(&checked) {
        if let Some(e) = &r.error {
            failed += 1;
            errors.push(format!("{} copy {}: {e}", u.name, u.copy));
        }
    }
    let attempted = (warm.len() + answers.len() + checked.len()) as u64;

    // End-to-end figures.
    let lat: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
    let hits: Vec<f64> = answers
        .iter()
        .filter(|a| a.cached())
        .map(|a| a.latency_ms)
        .collect();
    let misses: Vec<f64> = answers
        .iter()
        .filter(|a| !a.cached())
        .map(|a| a.latency_ms)
        .collect();
    let ok: Vec<&UnitRun> = checked.iter().filter(|r| r.error.is_none()).collect();
    let overhead_x = geomean(
        &ok.iter()
            .map(|r| r.dbds_unit_ms() / r.base_unit_ms())
            .collect::<Vec<_>>(),
    );
    let quality = &checked[..(hot_len + FRESH_CHECKED) as usize];
    let peak_x = geomean(
        &quality
            .iter()
            .map(|r| r.det.base_cycles / r.det.dbds_cycles)
            .collect::<Vec<_>>(),
    );
    let size_x = geomean(
        &quality
            .iter()
            .map(|r| r.det.dbds_size as f64 / r.det.base_size as f64)
            .collect::<Vec<_>>(),
    );
    let sum = |f: fn(&UnitRun) -> u64| quality.iter().map(f).sum::<u64>();
    let requests_per_s = answers.len() as f64 / wall_s;

    let mut out = Outcome::new(attempted, failed, errors);
    out.det = format!(
        "units={} candidates={} duplications={} work={} peak_x={peak_x:?} size_x={size_x:?}",
        quality.len(),
        sum(|r| r.det.candidates),
        sum(|r| r.det.duplications),
        sum(|r| r.det.work)
    );
    out.common_e2e(median(&setup_s));
    out.e2e.extend([
        Metric::new("units_per_s", requests_per_s, "1/s"),
        Metric::new("dbds_unit_ms_p50", percentile(&lat, 0.5), "ms"),
        Metric::new("dbds_unit_ms_p90", percentile(&lat, 0.9), "ms"),
        Metric::new("compile_overhead_x", overhead_x, "x"),
        Metric::new("peak_speedup_x", peak_x, "x"),
        Metric::new("code_size_x", size_x, "x"),
    ]);
    out.notes.extend([
        format!(
            "requests {} ({} hits, {} misses) in {wall_s:.2} s, {} warm-up requests",
            answers.len(),
            hits.len(),
            misses.len(),
            warm.len()
        ),
        format!("requests_per_s {requests_per_s:.3} 1/s"),
        format!(
            "request_ms_p50 {:.3} ms (n={})",
            percentile(&lat, 0.5),
            lat.len()
        ),
        format!(
            "request_ms_p90 {:.3} ms (n={})",
            percentile(&lat, 0.9),
            lat.len()
        ),
        format!("hit_ms_p50 {:.3} ms (n={})", median(&hits), hits.len()),
        format!("miss_ms_p50 {:.3} ms (n={})", median(&misses), misses.len()),
        format!(
            "compile_overhead_pct {:+.2} % (over the {} units served)",
            (overhead_x - 1.0) * 100.0,
            ok.len()
        ),
        format!(
            "peak_speedup_pct {:+.2} % (hot set and first {FRESH_CHECKED} fresh units)",
            (peak_x - 1.0) * 100.0
        ),
        format!(
            "code_size_pct {:+.2} % (hot set and first {FRESH_CHECKED} fresh units)",
            (size_x - 1.0) * 100.0
        ),
    ]);

    if args.trace {
        let totals = trace::totals_ms();
        let n_req = traced.iter().filter(|&&t| t).count().max(1) as f64;
        let n_units = checked.len().max(1) as f64;
        let per_req = |name: &str| totals.get(name).copied().unwrap_or(0.0) / n_req;
        let per_unit = |name: &str| totals.get(name).copied().unwrap_or(0.0) / n_units;
        let hits_with = |on: bool| -> Vec<f64> {
            answers
                .iter()
                .zip(&traced)
                .filter(|(a, &t)| t == on && a.cached())
                .map(|(a, _)| a.latency_ms)
                .collect()
        };
        let (requests, hit) = (after.0 - before.0, after.1 - before.1);
        out.layers.extend([
            Metric::new("workloads.generate_ms", median(&gen_ms), "ms"),
            Metric::new("opt.baseline_ms", per_unit("opt.baseline"), "ms"),
            Metric::new("core.dbds_ms", per_unit("core.dbds"), "ms"),
            Metric::new("core.simulate_ms", per_unit("core.simulate"), "ms"),
            Metric::new("core.select_ms", per_unit("core.select"), "ms"),
            Metric::new("core.transform_ms", per_unit("core.transform"), "ms"),
            Metric::new("ir.verify_ms", per_unit("ir.verify"), "ms"),
            Metric::new(
                "analysis.recompute_ms",
                per_unit("analysis.recompute"),
                "ms",
            ),
            Metric::new("core.candidates", sum(|r| r.det.candidates) as f64, "count"),
            Metric::new(
                "core.duplications",
                sum(|r| r.det.duplications) as f64,
                "count",
            ),
            Metric::new("core.work", sum(|r| r.det.work) as f64, "count"),
            Metric::new(
                "core.dup_accept_ratio",
                sum(|r| r.det.duplications) as f64 / sum(|r| r.det.candidates).max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "analysis.cache_hit_ratio",
                sum(|r| r.det.cache_hits) as f64 / sum(|r| r.det.cache_lookups).max(1) as f64,
                "ratio",
            ),
            Metric::new("backend.emit_ms", per_unit("backend.emit"), "ms"),
            Metric::new("ir.interp_ms", per_unit("ir.interp"), "ms"),
            Metric::new("server.json_decode_ms", per_req("server.json_decode"), "ms"),
            Metric::new("server.json_encode_ms", per_req("server.json_encode"), "ms"),
            Metric::new("ir.parse_ms", per_req("ir.parse"), "ms"),
            Metric::new("server.key_ms", per_req("server.key"), "ms"),
            Metric::new(
                "server.artifact_verify_ms",
                per_req("server.artifact_verify"),
                "ms",
            ),
            Metric::new("server.store_get_ms", per_req("server.store_get"), "ms"),
            Metric::new("server.store_put_ms", per_req("server.store_put"), "ms"),
            Metric::new(
                "server.hit_ratio",
                hit as f64 / requests.max(1) as f64,
                "ratio",
            ),
            Metric::new("server.transport_ms", mean(&transport_ms), "ms"),
            Metric::new(
                "trace.overhead_pct",
                (median(&hits_with(true)) / median(&hits_with(false)) - 1.0) * 100.0,
                "%",
            ),
        ]);
    }
    Ok(out)
}

/// `(requests, hits)` from the daemon's status counters.
fn counters(client: &mut Client) -> Result<(u64, u64), String> {
    let status = client.status()?;
    let get = |k: &str| {
        status
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("status has no counters.{k}"))
    };
    Ok((get("requests")?, get("hits")?))
}
