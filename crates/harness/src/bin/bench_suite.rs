//! Emits `BENCH_suite.json`: the whole-corpus compilation pipeline swept
//! over unit-pool widths — explicit worker counts plus the adaptive `0`
//! — with wall-clock per width next to the deterministic counters that
//! prove every width did the same work. The winner by wall clock is
//! recorded as the `chosen` plan. The perf trajectory of the suite
//! pipeline is tracked by committing this file per revision (schema
//! documented in EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p dbds-harness --bin bench_suite [-- <out-path|->]
//! ```
//!
//! The deterministic counters (`work`, `candidates`, `duplications`,
//! `raw_cycles`, summed over every suite × benchmark × configuration)
//! must be identical across the sweep — the bin exits non-zero if any
//! width disagrees with the sequential baseline, and a width is only
//! eligible to win on wall clock after passing that gate. Wall-clock
//! fields (`wall_ms`, `unit_pool_ms`) are *not* deterministic: they
//! depend on the machine, its load, and `hardware_threads` (on a
//! single-core host the threaded rows bound scheduler overhead instead
//! of showing overlap).

#![forbid(unsafe_code)]

use dbds_core::DbdsConfig;
use dbds_costmodel::CostModel;
use dbds_harness::{run_suite, IcacheModel, SuiteResult};
use dbds_workloads::Suite;
use std::fmt::Write as _;
use std::time::Instant;

/// The unit-pool widths the sweep covers, as requested (0 = adaptive).
/// The first row is the sequential baseline every other row's counters
/// must match.
const WIDTHS: [usize; 3] = [1, 4, 0];

/// Deterministic whole-corpus work counters, summed over every
/// suite × benchmark × configuration.
#[derive(PartialEq, Eq, Clone, Copy, Debug, Default)]
struct Counters {
    work: u64,
    candidates: u64,
    duplications: u64,
    raw_cycles: u64,
}

fn counters(results: &[SuiteResult]) -> Counters {
    let mut c = Counters::default();
    for r in results {
        for row in &r.rows {
            for m in [&row.baseline, &row.dbds, &row.dupalot] {
                c.work += m.work;
                c.candidates += m.stats.candidates as u64;
                c.duplications += m.stats.duplications as u64;
                c.raw_cycles += m.raw_cycles;
            }
        }
    }
    c
}

/// One measured width of the sweep.
struct Run {
    /// Requested value (0 = adaptive).
    unit_threads: usize,
    /// What the planner resolved it to on this machine.
    unit_workers: usize,
    counters: Counters,
    wall_ms: f64,
    unit_pool_ms: f64,
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_suite.json".to_string());
    let model = CostModel::new();
    let icache = IcacheModel::default();
    let hardware_threads = dbds_core::par::hardware_threads();

    let mut runs = Vec::new();
    for unit in WIDTHS {
        let cfg = DbdsConfig {
            unit_threads: unit,
            ..DbdsConfig::default()
        };
        let t = Instant::now();
        let results: Vec<SuiteResult> = Suite::ALL
            .iter()
            .map(|&s| run_suite(s, &model, &cfg, &icache))
            .collect();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let unit_pool_ms: f64 = results.iter().map(|r| r.unit_par_ns as f64 / 1e6).sum();
        // Every suite in the corpus has more workloads than any sane
        // worker count, so the resolved width is suite-invariant; take
        // it from the first result.
        let unit_workers = results.first().map_or(1, |r| r.unit_threads);
        eprintln!(
            "bench_suite: requested {unit} -> {unit_workers} unit workers: \
             {wall_ms:.1} ms wall, {unit_pool_ms:.1} ms in the unit pool"
        );
        runs.push(Run {
            unit_threads: unit,
            unit_workers,
            counters: counters(&results),
            wall_ms,
            unit_pool_ms,
        });
    }

    // Hard determinism gate: a width whose counters diverge from the
    // sequential baseline fails the whole sweep (and can never win).
    let base = runs[0].counters;
    for run in &runs {
        if run.counters != base {
            eprintln!(
                "bench_suite: DETERMINISM VIOLATION at unit_threads={}: \
                 {:?} != sequential {:?}",
                run.unit_threads, run.counters, base
            );
            std::process::exit(1);
        }
    }

    // All widths passed the gate; the winner is pure wall clock.
    let chosen = runs
        .iter()
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .expect("the sweep is never empty");
    eprintln!(
        "bench_suite: chosen {} unit workers (requested {}), {:.1} ms",
        chosen.unit_workers, chosen.unit_threads, chosen.wall_ms
    );

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"schema\": \"{}\",",
        dbds_harness::BENCH_SUITE_SCHEMA
    );
    let _ = writeln!(out, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(out, "  \"workloads\": 48,");
    let _ = writeln!(out, "  \"configs_per_workload\": 3,");
    let _ = writeln!(out, "  \"chosen\": {{");
    let _ = writeln!(out, "    \"unit_threads\": {},", chosen.unit_threads);
    let _ = writeln!(out, "    \"unit_workers\": {},", chosen.unit_workers);
    let _ = writeln!(out, "    \"wall_ms\": {:.3}", chosen.wall_ms);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"runs\": [");
    let last = runs.len() - 1;
    for (i, run) in runs.iter().enumerate() {
        let c = run.counters;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"unit_threads\": {},", run.unit_threads);
        let _ = writeln!(out, "      \"unit_workers\": {},", run.unit_workers);
        let _ = writeln!(out, "      \"work\": {},", c.work);
        let _ = writeln!(out, "      \"candidates\": {},", c.candidates);
        let _ = writeln!(out, "      \"duplications\": {},", c.duplications);
        let _ = writeln!(out, "      \"raw_cycles\": {},", c.raw_cycles);
        let _ = writeln!(out, "      \"wall_ms\": {:.3},", run.wall_ms);
        let _ = writeln!(out, "      \"unit_pool_ms\": {:.3}", run.unit_pool_ms);
        let _ = writeln!(out, "    }}{}", if i < last { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");

    if path == "-" {
        print!("{out}");
    } else if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}
