//! Command-line entry point reproducing the paper's figures and tables.
//!
//! ```text
//! figures --figure 5|6|7|8      one suite figure
//! figures --summary             cross-suite headline numbers
//! figures --table backtracking  the §3.1 compile-time comparison
//! figures --table ablation      combined vs merge-only branch splitting
//! figures --all                 everything, in paper order
//! figures --json <path|->       deterministic machine-readable report
//! figures --lint                IR lint + prediction audit over the corpus
//! figures --lint --json <path|->  the same sweep as JSON
//! ```
//!
//! `--lint` exits nonzero when any error-severity diagnostic or any
//! misprediction survives — the CI lint gate.
//!
//! `--unit-threads N` (combinable with every mode) sets the width of the
//! unit-level compilation queue (independent `(workload, config)` units
//! overlapped on the worker pool); `0` means one per hardware thread and
//! the default honors `DBDS_UNIT_THREADS`. All measured results are
//! bit-identical for every value — only wall-clock changes.
//!
//! Compile-cache modes (the `dbds-server` integration):
//!
//! ```text
//! figures --json <path|-> --cache mem|DIR   embed a 2-pass compile-cache
//!                                           session's counters in the report
//! figures --client ADDR                     run the session against a live
//!                                           dbds-server daemon instead
//! ```
//!
//! `--cache mem` uses the in-memory store; any other value is an
//! on-disk store directory. Session counters are deterministic, so the
//! `--json` report stays byte-identical across thread counts.

#![forbid(unsafe_code)]

use dbds_core::{compile, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_harness::{
    format_backtracking, format_figure, format_json, format_lint, format_lint_json,
    format_split_ablation, format_summary, run_lint_audit, run_split_ablation, run_suite,
    run_units, BacktrackRow, IcacheModel,
};
use dbds_workloads::Suite;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let model = CostModel::new();
    let mut cfg = DbdsConfig::default();
    let icache = IcacheModel::default();

    // `--cache mem|DIR` composes with `--json`; strip it first.
    let mut cache: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--cache") {
        match args.get(pos + 1) {
            Some(v) => {
                cache = Some(v.clone());
                args.drain(pos..=pos + 1);
            }
            None => {
                eprintln!("--cache expects `mem` or a store directory");
                std::process::exit(2);
            }
        }
    }

    // `--unit-threads N` composes with every mode; strip it before the
    // mode match.
    if let Some(pos) = args.iter().position(|a| a == "--unit-threads") {
        match args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => {
                cfg.unit_threads = n;
                args.drain(pos..=pos + 1);
            }
            None => {
                eprintln!("--unit-threads expects a thread count (0 = auto)");
                std::process::exit(2);
            }
        }
    }

    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--figure", n] => {
            let suite = match *n {
                "5" => Suite::JavaDaCapo,
                "6" => Suite::ScalaDaCapo,
                "7" => Suite::Micro,
                "8" => Suite::Octane,
                other => {
                    eprintln!("unknown figure `{other}` (expected 5, 6, 7 or 8)");
                    std::process::exit(2);
                }
            };
            let result = run_suite(suite, &model, &cfg, &icache);
            print!("{}", format_figure(&result));
        }
        ["--summary"] => {
            let results: Vec<_> = Suite::ALL
                .iter()
                .map(|&s| run_suite(s, &model, &cfg, &icache))
                .collect();
            print!("{}", format_summary(&results));
        }
        ["--table", "backtracking"] => {
            print!("{}", backtracking_table(&model, &cfg));
        }
        ["--table", "phases"] => {
            print!("{}", phases_table(&model, &cfg));
        }
        ["--table", "ablation"] => {
            let ablation = run_split_ablation(&model, &cfg);
            print!("{}", format_split_ablation(&ablation));
            if !ablation.gate_passes() {
                eprintln!("ablation gate failed: combined does not dominate merge-only");
                std::process::exit(1);
            }
        }
        ["--json", path] => {
            let session = cache.as_deref().map(|choice| cache_session(choice, &cfg));
            let results: Vec<_> = Suite::ALL
                .iter()
                .map(|&s| run_suite(s, &model, &cfg, &icache))
                .collect();
            let json = format_json(&results, cfg.unit_threads, session.as_ref());
            if *path == "-" {
                print!("{json}");
            } else if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        ["--client", addr] => match client_session(addr) {
            Ok(()) => {}
            Err(msg) => {
                eprintln!("client session failed: {msg}");
                std::process::exit(1);
            }
        },
        ["--lint"] | ["--lint", "--json", _] => {
            let audit = run_lint_audit(&Suite::ALL, &model, &cfg);
            if let ["--lint", "--json", path] = args
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
                .as_slice()
            {
                let json = format_lint_json(&audit);
                if *path == "-" {
                    print!("{json}");
                } else if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            } else {
                print!("{}", format_lint(&audit));
            }
            if !audit.gate_passes() {
                eprintln!(
                    "lint gate failed: {} error diagnostics, {} mispredictions",
                    audit.error_count(),
                    audit.mispredictions
                );
                std::process::exit(1);
            }
        }
        ["--all"] => {
            let mut results = Vec::new();
            for &suite in &Suite::ALL {
                let result = run_suite(suite, &model, &cfg, &icache);
                print!("{}", format_figure(&result));
                println!();
                results.push(result);
            }
            print!("{}", format_summary(&results));
            println!();
            print!("{}", backtracking_table(&model, &cfg));
        }
        _ => {
            eprintln!(
                "usage: figures [--unit-threads N] --figure <5|6|7|8> | \
                 --summary | --table backtracking | --table phases | --table ablation | --all | \
                 --json <path|-> [--cache mem|DIR] | --client ADDR | --lint [--json <path|->]"
            );
            std::process::exit(2);
        }
    }
}

/// Runs the standard two-pass compile-cache session in-process (the
/// first pass populates the store, the second measures it) and returns
/// the per-pass counters for the report's `store` block.
fn cache_session(choice: &str, cfg: &DbdsConfig) -> dbds_server::SessionReport {
    use dbds_server::{run_session, CompileService, CompiledStore, DiskStore, MemStore};
    let store: Box<dyn CompiledStore> = if choice == "mem" {
        Box::new(MemStore::new())
    } else {
        match DiskStore::open(choice) {
            Ok(s) => Box::new(s),
            Err(e) => {
                // The store is advisory by design: fall back to memory
                // rather than failing the report.
                eprintln!("cannot open store {choice}: {e}; using in-memory cache");
                Box::new(MemStore::new())
            }
        }
    };
    let svc = CompileService::new(store, cfg.clone(), dbds_server::ServiceConfig::default());
    run_session(
        &svc,
        &[OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot],
        2,
    )
}

/// Replays the two-pass session against a live daemon over the wire
/// protocol and prints per-pass tallies plus the server's own status
/// report (no timings — output is deterministic given the server
/// state).
fn client_session(addr: &str) -> Result<(), String> {
    use dbds_server::{Client, CompileRequest, CompileSource};
    let mut client = Client::connect(addr)?;
    let levels = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
    let names: Vec<String> = dbds_workloads::all_workloads()
        .into_iter()
        .map(|w| w.name)
        .collect();
    for pass in 1..=2 {
        let (mut hits, mut misses, mut errors) = (0u64, 0u64, 0u64);
        for name in &names {
            for level in levels {
                let outcome = client.compile(CompileRequest {
                    source: CompileSource::Workload(name.clone()),
                    level,
                    deadline_ms: None,
                })?;
                match outcome {
                    Ok(served) if served.cached => hits += 1,
                    Ok(_) => misses += 1,
                    Err(_) => errors += 1,
                }
            }
        }
        println!(
            "pass {pass}: {} requests, {hits} hits, {misses} misses, {errors} errors",
            names.len() * levels.len()
        );
    }
    print!("{}", client.status()?.pretty());
    Ok(())
}

/// Per-tier compile-time breakdown of the DBDS phase (the paper's
/// "timing statements … used throughout the compiler", §6.1): how the
/// phase splits between simulation, the duplication transform, the
/// prediction audit, the guard layer (per-duplication verify and
/// frontier check, undo-log transactions) and the optimization
/// pipeline, per suite. The two share columns are taken over the sum of
/// those five layers. Each suite's units run on the unit-level queue;
/// `unit pool` is the wall clock of that fan-out and `undo` the undo-log
/// transaction bookkeeping, a part of `guard` (with the deterministic
/// `edits` / `rollb` counters next to it).
///
/// Column widths are measured from the rendered cells (numeric columns
/// right-aligned), so large timing sums widen their column instead of
/// overflowing it.
fn phases_table(model: &CostModel, cfg: &DbdsConfig) -> String {
    use dbds_workloads::Suite;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DBDS phase breakdown (per suite, sums over all benchmarks; \
         unit_threads = {})\n",
        cfg.unit_threads
    );
    let header = [
        "suite",
        "simulate",
        "duplicate",
        "audit",
        "guard",
        "optimize",
        "unit pool",
        "undo",
        "sim share",
        "guard share",
        "mispred",
        "edits",
        "rollb",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for suite in Suite::ALL {
        let workloads = suite.workloads();
        let plan = cfg.pool_plan(workloads.len());
        let (stats_list, _loads, unit_ns) = run_units(&plan, &workloads, |_, w| {
            let mut g = w.graph.clone();
            compile(&mut g, model, OptLevel::Dbds, &plan.per_unit)
        });
        let mut sim = 0u128;
        let mut tr = 0u128;
        let mut audit = 0u128;
        let mut guard = 0u128;
        let mut opt = 0u128;
        let mut undo = 0u128;
        let mut mispred = 0usize;
        let mut edits = 0u64;
        let mut rollbacks = 0u64;
        for stats in &stats_list {
            sim += stats.sim_ns;
            tr += stats.transform_ns;
            audit += stats.audit_ns;
            guard += stats.guard_ns;
            opt += stats.opt_ns;
            undo += stats.undo_ns;
            mispred += stats.mispredictions;
            edits += stats.undo_edits;
            rollbacks += stats.undo_rollbacks;
        }
        let total = (sim + tr + audit + guard + opt).max(1);
        let ms = |ns: u128| format!("{:.2} ms", ns as f64 / 1e6);
        let share = |ns: u128| format!("{:.1}%", ns as f64 / total as f64 * 100.0);
        rows.push(vec![
            suite.id().to_string(),
            ms(sim),
            ms(tr),
            ms(audit),
            ms(guard),
            ms(opt),
            ms(unit_ns),
            ms(undo),
            share(sim),
            share(guard),
            mispred.to_string(),
            edits.to_string(),
            rollbacks.to_string(),
        ]);
    }
    // Measured widths: every cell (header included) fits, however large
    // the timing sums get.
    let mut width: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let render = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str(" | ");
            }
            if i == 0 {
                let _ = write!(line, "{:<1$}", cell, width[i]);
            } else {
                let _ = write!(line, "{:>1$}", cell, width[i]);
            }
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "{}", render(&header_cells));
    let rule_len = width.iter().sum::<usize>() + 3 * (header.len() - 1);
    let _ = writeln!(out, "{}", "-".repeat(rule_len));
    for row in &rows {
        let _ = writeln!(out, "{}", render(row));
    }
    out
}

/// Compares DBDS and backtracking compile times on the micro suite (the
/// suite is small enough that Algorithm 1's whole-graph copies finish in
/// reasonable time — which is exactly the point of the comparison).
fn backtracking_table(model: &CostModel, cfg: &DbdsConfig) -> String {
    let rows: Vec<BacktrackRow> = Suite::Micro
        .workloads()
        .iter()
        .map(|w| {
            let mut g1 = w.graph.clone();
            let t0 = Instant::now();
            let dbds = compile(&mut g1, model, OptLevel::Dbds, cfg);
            let dbds_ns = t0.elapsed().as_nanos();

            let mut g2 = w.graph.clone();
            let t1 = Instant::now();
            let back = compile(&mut g2, model, OptLevel::Backtracking, cfg);
            let backtracking_ns = t1.elapsed().as_nanos();

            BacktrackRow {
                name: w.name.clone(),
                dbds_ns,
                backtracking_ns,
                dbds_duplications: dbds.duplications,
                backtracking_accepted: back.duplications,
            }
        })
        .collect();
    format_backtracking(&rows)
}
