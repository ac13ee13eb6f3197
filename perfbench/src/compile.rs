//! The `compile-large` and `compile-small` workloads.
//!
//! Every unit gets `compile(Baseline)` and `compile(Dbds)`, then
//! `compile_to_machine_code`, `verify` and `execute` on every input for
//! both results. The DBDS outcomes must equal the baseline outcomes.
//! Units are dispatched through `dbds_harness::run_units`: compile-large
//! with the one-at-a-time plan (1 unit worker, no sim workers, inline on
//! the calling thread), compile-small with the adaptive plan.

use crate::stats::{geomean, host_kernel_ms, median, percentile, HOST_REFERENCE_MS};
use crate::trace::{self, span};
use crate::units::{unit_list, Unit};
use crate::{Args, Metric, Outcome};
use dbds_analysis::{AnalysisCache, DomFrontiers, DomTree, PostDomTree};
use dbds_backend::compile_to_machine_code;
use dbds_core::{compile, select, simulate, try_duplicate, DbdsConfig, OptLevel, SelectionMode};
use dbds_costmodel::CostModel;
use dbds_harness::{run_units, IcacheModel};
use dbds_ir::{execute, verify, BlockId, Graph, Outcome as ExecOutcome, Value};
use dbds_workloads::Suite;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Which unit mix a compile workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Octane-profile units, one at a time.
    Large,
    /// Java/Scala/micro-profile units on the adaptive plan.
    Small,
}

impl Mix {
    fn suites(self) -> &'static [Suite] {
        match self {
            Mix::Large => &[Suite::Octane],
            Mix::Small => &[Suite::JavaDaCapo, Suite::ScalaDaCapo, Suite::Micro],
        }
    }

    /// Copies of every benchmark name in one run's unit list.
    fn copies(self) -> u64 {
        match self {
            Mix::Large => 16,
            Mix::Small => 32,
        }
    }

    fn config(self) -> DbdsConfig {
        let mut cfg = DbdsConfig::default();
        let threads = match self {
            Mix::Large => 1,
            Mix::Small => 0,
        };
        cfg.unit_threads = threads;
        cfg.sim_threads = threads;
        cfg
    }
}

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 9;

/// Every this many units, the worker times the host-speed kernel first.
const HOST_EVERY: u64 = 8;

/// The counts and code-quality figures of one unit. They depend only on
/// the unit, so they must repeat exactly between measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Det {
    pub candidates: u64,
    pub duplications: u64,
    pub work: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Icache-adjusted interpreter cycles over every input.
    pub base_cycles: f64,
    pub dbds_cycles: f64,
    /// Machine-code bytes.
    pub base_size: u64,
    pub dbds_size: u64,
}

/// One measurement of one unit.
#[derive(Clone, Debug, Default)]
pub struct UnitRun {
    pub base_ms: f64,
    pub dbds_ms: f64,
    pub base_emit_ms: f64,
    pub dbds_emit_ms: f64,
    /// Every step of the unit, checks included.
    pub total_ms: f64,
    pub det: Det,
    pub error: Option<String>,
}

impl UnitRun {
    /// DBDS compile plus back end: the latency to DBDS machine code.
    pub fn dbds_unit_ms(&self) -> f64 {
        self.dbds_ms + self.dbds_emit_ms
    }

    pub fn base_unit_ms(&self) -> f64 {
        self.base_ms + self.base_emit_ms
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn run_inputs(g: &Graph, inputs: &[Vec<Value>], model: &CostModel) -> (u64, Vec<ExecOutcome>) {
    let mut cycles = 0;
    let mut outcomes = Vec::with_capacity(inputs.len());
    for input in inputs {
        let r = execute(g, input);
        cycles += model.dynamic_cycles(&r.counts);
        outcomes.push(r.outcome);
    }
    (cycles, outcomes)
}

/// Compiles `u` at baseline and at DBDS, emits machine code for both,
/// verifies both and runs both on every input. Returns the measurement
/// and the baseline-optimized graph.
pub fn run_unit(u: &Unit, model: &CostModel, cfg: &DbdsConfig) -> (UnitRun, Graph) {
    let start = Instant::now();
    let id = u.id;
    let mut gb = u.graph.clone();
    let mut gd = u.graph.clone();
    let mut r = UnitRun::default();

    let t = Instant::now();
    span("opt.baseline", id, || {
        compile(&mut gb, model, OptLevel::Baseline, cfg)
    });
    r.base_ms = ms_since(t);
    let t = Instant::now();
    let mb = span("backend.emit", id, || compile_to_machine_code(&gb));
    r.base_emit_ms = ms_since(t);

    let t = Instant::now();
    let stats = span("core.dbds", id, || {
        compile(&mut gd, model, OptLevel::Dbds, cfg)
    });
    r.dbds_ms = ms_since(t);
    let t = Instant::now();
    let md = span("backend.emit", id, || compile_to_machine_code(&gd));
    r.dbds_emit_ms = ms_since(t);

    let verified = span("check.verify", id, || {
        verify(&gb)
            .map_err(|e| format!("baseline graph does not verify: {e}"))
            .and(verify(&gd).map_err(|e| format!("DBDS graph does not verify: {e}")))
    });
    let (bc, bo) = span("ir.interp", id, || run_inputs(&gb, &u.inputs, model));
    let (dc, dout) = span("ir.interp", id, || run_inputs(&gd, &u.inputs, model));
    r.error = verified.err();
    if r.error.is_none() && bo != dout {
        r.error = Some("DBDS interpreter outcomes differ from baseline".into());
    }
    let icache = IcacheModel::default();
    let c = stats.cache;
    r.det = Det {
        candidates: stats.candidates as u64,
        duplications: stats.duplications as u64,
        work: stats.work,
        cache_hits: c.hits + c.rev_hits,
        cache_lookups: c.hits + c.misses + c.rev_hits + c.rev_misses,
        base_cycles: bc as f64 * icache.factor(mb.size() as u64),
        dbds_cycles: dc as f64 * icache.factor(md.size() as u64),
        base_size: mb.size() as u64,
        dbds_size: md.size() as u64,
    };
    r.total_ms = ms_since(start);
    (r, gb)
}

/// Replays the DBDS tiers one call at a time on a clone of the
/// baseline-optimized graph: simulate, select, then for every accepted
/// candidate `try_duplicate`, a whole-graph verify and a from-scratch
/// recompute of the dominator, post-dominator and frontier analyses.
fn tier_probe(gb: &Graph, id: u64, model: &CostModel, cfg: &DbdsConfig) -> Result<(), String> {
    let mut g = gb.clone();
    let mut cache = AnalysisCache::new();
    let results = span("core.simulate", id, || simulate(&g, model, &mut cache));
    let size = model.graph_size(&g);
    let accepted: Vec<(BlockId, BlockId)> = span("core.select", id, || {
        select(
            &results,
            &cfg.tradeoff,
            SelectionMode::CostBenefit,
            size,
            size,
            &HashSet::new(),
        )
        .into_iter()
        .map(|s| (s.pred, s.merge))
        .collect()
    });
    for (pred, merge) in accepted {
        if !g.is_merge(merge) || !g.succs(pred).contains(&merge) {
            continue;
        }
        if span("core.transform", id, || try_duplicate(&mut g, pred, merge)).is_err() {
            continue;
        }
        span("ir.verify", id, || verify(&g))
            .map_err(|e| format!("tier probe: graph does not verify after duplication: {e}"))?;
        span("analysis.recompute", id, || {
            let dt = DomTree::compute(&g);
            let pd = PostDomTree::compute(&g);
            DomFrontiers::compute(&g, &dt, &pd)
        });
    }
    Ok(())
}

/// One unit's sample in a pass: the measurement, plus in a traced run the
/// untraced twin's total time.
#[derive(Clone, Debug)]
pub struct Sample {
    pub run: UnitRun,
    pub untraced_total_ms: Option<f64>,
}

fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// Measures one unit. A traced run measures it twice back to back, once
/// with spans and once without (alternating which goes first), checks
/// that both agree, then runs the tier probe with spans on.
pub fn sample(u: &Unit, model: &CostModel, cfg: &DbdsConfig, traced: bool) -> Sample {
    let out = isolate(|| {
        if !traced {
            return Sample {
                run: run_unit(u, model, cfg).0,
                untraced_total_ms: None,
            };
        }
        let with_spans = || {
            trace::set_enabled(true);
            let out = span("unit", u.id, || run_unit(u, model, cfg));
            trace::set_enabled(false);
            out
        };
        let (mut run, gb, plain) = if u.id.is_multiple_of(2) {
            let plain = run_unit(u, model, cfg).0;
            let (run, gb) = with_spans();
            (run, gb, plain)
        } else {
            let (run, gb) = with_spans();
            (run, gb, run_unit(u, model, cfg).0)
        };
        if run.error.is_none() && run.det != plain.det {
            run.error = Some("counts differ between two compilations of one unit".into());
        }
        trace::set_enabled(true);
        let probe = span("probe", u.id, || tier_probe(&gb, u.id, model, cfg));
        trace::set_enabled(false);
        if run.error.is_none() {
            run.error = probe.err();
        }
        Sample {
            run,
            untraced_total_ms: Some(plain.total_ms),
        }
    });
    out.unwrap_or_else(|e| {
        trace::set_enabled(false);
        Sample {
            run: UnitRun {
                error: Some(e),
                ..UnitRun::default()
            },
            untraced_total_ms: None,
        }
    })
}

/// Runs one compile workload.
pub fn run(mix: Mix, args: &Args) -> Outcome {
    let model = CostModel::new();
    let cfg = mix.config();

    // Set-up: generate and verify the unit list, several times.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut units = Vec::new();
    let mut errors = Vec::new();
    trace::set_enabled(args.trace);
    for _ in 0..SETUPS {
        let t = Instant::now();
        units = unit_list(mix.suites(), mix.copies(), args.seed);
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        errors = units
            .iter()
            .filter_map(|u| {
                let e = verify(&u.graph).err()?;
                Some(format!(
                    "{} copy {}: pristine unit does not verify: {e}",
                    u.name, u.copy
                ))
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);

    // Measure: whole passes over the unit list until the time is up.
    // The first pass always completes, so the code-quality figures and
    // counts cover the whole list. A traced run makes exactly one pass.
    let plan = cfg.pool_plan(units.len());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut first: Vec<Det> = Vec::new();
    let mut runs: Vec<UnitRun> = Vec::new();
    let mut overhead = Vec::new();
    let mut host_ms = Vec::new();
    let mut wall_s = 0.0;
    let mut busy_ns = 0u128;
    let mut pass = 0;
    loop {
        let t = Instant::now();
        let (samples, loads, _) = run_units(&plan, &units, |_, u| {
            (pass == 0 || Instant::now() < deadline).then(|| {
                let host = u.id.is_multiple_of(HOST_EVERY).then(host_kernel_ms);
                (sample(u, &model, &plan.per_unit, args.trace), host)
            })
        });
        wall_s += t.elapsed().as_secs_f64();
        busy_ns += loads.iter().map(|l| l.busy_ns).sum::<u128>();
        for (u, s) in units.iter().zip(samples) {
            let Some((s, host)) = s else { continue };
            host_ms.extend(host);
            let mut run = s.run;
            if pass == 0 {
                first.push(run.det);
            } else if run.error.is_none() && run.det != first[u.id as usize] {
                run.error = Some("counts differ from the first pass".into());
            }
            if let Some(e) = &run.error {
                errors.push(format!("{} copy {}: {e}", u.name, u.copy));
            }
            if let Some(plain) = s.untraced_total_ms {
                overhead.push(run.total_ms / plain);
            }
            runs.push(run);
        }
        pass += 1;
        if args.trace || Instant::now() >= deadline {
            break;
        }
    }

    let ok: Vec<&UnitRun> = runs.iter().filter(|r| r.error.is_none()).collect();
    let dbds_unit: Vec<f64> = ok.iter().map(|r| r.dbds_unit_ms()).collect();
    let overhead_x = geomean(
        &ok.iter()
            .map(|r| r.dbds_unit_ms() / r.base_unit_ms())
            .collect::<Vec<_>>(),
    );
    let peak_x = geomean(
        &first
            .iter()
            .map(|d| d.base_cycles / d.dbds_cycles)
            .collect::<Vec<_>>(),
    );
    let size_x = geomean(
        &first
            .iter()
            .map(|d| d.dbds_size as f64 / d.base_size as f64)
            .collect::<Vec<_>>(),
    );
    let sum = |f: fn(&Det) -> u64| first.iter().map(f).sum::<u64>();
    let (candidates, duplications, work) = (
        sum(|d| d.candidates),
        sum(|d| d.duplications),
        sum(|d| d.work),
    );
    let units_per_s = runs.len() as f64 / wall_s;
    // Times at the reference host speed: see `host_kernel_ms`.
    let speed = HOST_REFERENCE_MS / median(&host_ms);
    let attempted = (units.len() + runs.len()) as u64;
    // One error line per failed check: pristine units and measurements.
    let failed = errors.len() as u64;

    let mut out = Outcome::new(attempted, failed, errors);
    out.det = format!(
        "units={} candidates={candidates} duplications={duplications} work={work} peak_x={peak_x:?} size_x={size_x:?}",
        first.len()
    );
    out.common_e2e(median(&setup_s));
    out.e2e.extend([
        Metric::new("units_per_s", units_per_s / speed, "1/s"),
        Metric::new(
            "dbds_unit_ms_p50",
            percentile(&dbds_unit, 0.5) * speed,
            "ms",
        ),
        Metric::new(
            "dbds_unit_ms_p90",
            percentile(&dbds_unit, 0.9) * speed,
            "ms",
        ),
        Metric::new("compile_overhead_x", overhead_x, "x"),
        Metric::new("peak_speedup_x", peak_x, "x"),
        Metric::new("code_size_x", size_x, "x"),
    ]);
    out.notes.extend([
        format!(
            "units measured {} in {pass} pass(es) of {} units",
            runs.len(),
            units.len()
        ),
        format!(
            "host kernel {:.4} ms (median of {}), reference {HOST_REFERENCE_MS} ms: \
             times below are as measured, the JSON scales them by {speed:.4}",
            median(&host_ms),
            host_ms.len()
        ),
        format!(
            "dbds_unit_ms_p50 {:.3} ms (n={})",
            percentile(&dbds_unit, 0.5),
            dbds_unit.len()
        ),
        format!(
            "dbds_unit_ms_p90 {:.3} ms (n={})",
            percentile(&dbds_unit, 0.9),
            dbds_unit.len()
        ),
        format!("compile_overhead_pct {:+.2} %", (overhead_x - 1.0) * 100.0),
        format!("peak_speedup_pct {:+.2} %", (peak_x - 1.0) * 100.0),
        format!("code_size_pct {:+.2} %", (size_x - 1.0) * 100.0),
    ]);
    if !args.trace {
        // A traced pass also runs each unit's twin and tier probe.
        out.notes.push(format!("units_per_s {units_per_s:.3} 1/s"));
    }

    if args.trace {
        let totals = trace::totals_ms();
        let per_unit =
            |name: &str| totals.get(name).copied().unwrap_or(0.0) / runs.len().max(1) as f64;
        let lookups = first.iter().map(|d| d.cache_lookups).sum::<u64>();
        let hits = first.iter().map(|d| d.cache_hits).sum::<u64>();
        let workers = plan.unit_workers + plan.sim_workers;
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
            Metric::new("core.candidates", candidates as f64, "count"),
            Metric::new("core.duplications", duplications as f64, "count"),
            Metric::new("core.work", work as f64, "count"),
            Metric::new(
                "core.dup_accept_ratio",
                duplications as f64 / candidates.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "analysis.cache_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new("backend.emit_ms", per_unit("backend.emit"), "ms"),
            Metric::new("ir.interp_ms", per_unit("ir.interp"), "ms"),
            Metric::new("par.workers", workers as f64, "count"),
            Metric::new(
                "par.busy_frac",
                busy_ns as f64 / 1e9 / (wall_s * workers as f64),
                "ratio",
            ),
            Metric::new(
                "trace.overhead_pct",
                (geomean(&overhead) - 1.0) * 100.0,
                "%",
            ),
        ]);
    }
    out
}
