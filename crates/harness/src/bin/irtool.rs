//! A command-line driver for the textual IR format: parse a module, run
//! a configuration, print the result, optionally execute it.
//!
//! ```text
//! irtool <file.dbir> [--opt baseline|dbds|dupalot|backtracking]
//!                    [--path-len N] [--print-before] [--simulate]
//!                    [--run a,b,c]
//! ```
//!
//! Examples:
//!
//! ```text
//! # Optimize with DBDS and show the result.
//! cargo run -p dbds-harness --bin irtool -- prog.dbir --opt dbds
//!
//! # Show what the simulation tier would price, without transforming.
//! cargo run -p dbds-harness --bin irtool -- prog.dbir --simulate
//!
//! # Optimize, then run with integer arguments 3,4,5.
//! cargo run -p dbds-harness --bin irtool -- prog.dbir --opt dbds --run 3,4,5
//! ```

#![forbid(unsafe_code)]

use dbds_core::{compile, simulate, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::{execute, parse_module, print_graph, verify, Value};
use std::process::ExitCode;

struct Options {
    file: String,
    opt: Option<OptLevel>,
    path_len: usize,
    print_before: bool,
    simulate: bool,
    run: Option<Vec<i64>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: irtool <file.dbir> [--opt baseline|dbds|dupalot|backtracking] \
         [--path-len N] [--print-before] [--simulate] [--run a,b,c]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        opt: None,
        path_len: 1,
        print_before: false,
        simulate: false,
        run: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--opt" => {
                let level = args.next().unwrap_or_else(|| usage());
                opts.opt = Some(match level.as_str() {
                    "baseline" => OptLevel::Baseline,
                    "dbds" => OptLevel::Dbds,
                    "dupalot" => OptLevel::Dupalot,
                    "backtracking" => OptLevel::Backtracking,
                    _ => usage(),
                });
            }
            "--path-len" => {
                opts.path_len = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--print-before" => opts.print_before = true,
            "--simulate" => opts.simulate = true,
            "--run" => {
                let list = args.next().unwrap_or_else(|| usage());
                let vals: Option<Vec<i64>> = if list.is_empty() {
                    Some(Vec::new())
                } else {
                    list.split(',').map(|v| v.trim().parse().ok()).collect()
                };
                opts.run = Some(vals.unwrap_or_else(|| usage()));
            }
            f if !f.starts_with('-') && opts.file.is_empty() => opts.file = f.to_string(),
            _ => usage(),
        }
    }
    if opts.file.is_empty() {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let text = match std::fs::read_to_string(&opts.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("irtool: cannot read {}: {e}", opts.file);
            return ExitCode::from(1);
        }
    };
    let module = match parse_module(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("irtool: {e}");
            return ExitCode::from(1);
        }
    };
    let model = CostModel::new();
    let cfg = DbdsConfig {
        max_path_length: opts.path_len,
        ..DbdsConfig::default()
    };

    for mut graph in module.graphs {
        if let Err(e) = verify(&graph) {
            eprintln!("irtool: @{} does not verify:\n{e}", graph.name);
            return ExitCode::from(1);
        }
        if opts.print_before {
            println!("// before\n{}", print_graph(&graph));
        }
        if opts.simulate {
            println!("// simulation of @{}", graph.name);
            for r in simulate(&graph, &model, &mut dbds_analysis::AnalysisCache::new()) {
                println!(
                    "//   duplicate {} into {}: CS {:.1}, cost {}, p {:.3}",
                    r.merge, r.pred, r.cycles_saved, r.size_cost, r.probability
                );
            }
        }
        if let Some(level) = opts.opt {
            let stats = compile(&mut graph, &model, level, &cfg);
            if let Err(e) = verify(&graph) {
                eprintln!("irtool: optimizer bug — result does not verify:\n{e}");
                return ExitCode::from(1);
            }
            println!(
                "// after {} ({} duplications, size {} → {})",
                level.name(),
                stats.duplications,
                stats.initial_size,
                stats.final_size
            );
        }
        print!("{}", print_graph(&graph));
        if let Some(run) = &opts.run {
            if run.len() != graph.param_types().len() {
                eprintln!(
                    "irtool: @{} takes {} arguments, got {}",
                    graph.name,
                    graph.param_types().len(),
                    run.len()
                );
                return ExitCode::from(1);
            }
            let args: Vec<Value> = run.iter().map(|&v| Value::Int(v)).collect();
            let r = execute(&graph, &args);
            println!(
                "// @{}({run:?}) = {:?} ({} steps)",
                graph.name, r.outcome, r.steps
            );
        }
    }
    ExitCode::SUCCESS
}
