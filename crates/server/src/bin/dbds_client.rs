//! The `dbds_client` command-line client.
//!
//! ```text
//! dbds_client ADDR compile (WORKLOAD | --ir FILE) [LEVEL] [--deadline-ms N] [--print-ir]
//! dbds_client ADDR status
//! dbds_client ADDR shutdown
//! dbds_client ADDR session [LEVEL] [--passes N]
//! ```
//!
//! `compile` prints one summary line (`hit`/`miss`, key, counters) and
//! exits 0 on success, 3 on a typed service error (overloaded,
//! deadline exceeded, bad request), 1 on transport problems. `session`
//! replays every built-in workload `--passes` times and prints per-pass
//! hit/miss tallies — the scripted version of the cache-effectiveness
//! experiment.

#![forbid(unsafe_code)]

use dbds_server::{level_from_name, Client, CompileOutcome, CompileRequest, CompileSource};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dbds_client: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> String {
        "usage: dbds_client ADDR (compile WORKLOAD|--ir FILE [LEVEL] [--deadline-ms N] \
         [--print-ir] | status | shutdown | session [LEVEL] [--passes N])"
            .into()
    };
    let (addr, cmd, rest) = match args.as_slice() {
        [addr, cmd, rest @ ..] => (addr, cmd.as_str(), rest),
        _ => return Err(usage()),
    };
    let mut client = Client::connect(addr)?;
    match cmd {
        "status" => {
            print!("{}", client.status()?.pretty());
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server shut down");
            Ok(ExitCode::SUCCESS)
        }
        "compile" => compile(&mut client, rest),
        "session" => session(&mut client, rest),
        _ => Err(usage()),
    }
}

fn parse_compile_args(rest: &[String]) -> Result<(CompileRequest, bool), String> {
    let mut source = None;
    let mut level = dbds_core::OptLevel::Dbds;
    let mut deadline_ms = None;
    let mut print_ir = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ir" => {
                let path = it.next().ok_or("--ir needs a file path")?;
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                source = Some(CompileSource::IrText(text));
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs a u64".to_string())?,
                );
            }
            "--print-ir" => print_ir = true,
            other => {
                if let Some(l) = level_from_name(other) {
                    level = l;
                } else if source.is_none() && !other.starts_with('-') {
                    source = Some(CompileSource::Workload(other.to_string()));
                } else {
                    return Err(format!("unknown argument `{other}`"));
                }
            }
        }
    }
    let source = source.ok_or("compile needs a workload name or --ir FILE")?;
    Ok((
        CompileRequest {
            source,
            level,
            deadline_ms,
        },
        print_ir,
    ))
}

fn report_outcome(outcome: &CompileOutcome, print_ir: bool) -> ExitCode {
    match outcome {
        Ok(served) => {
            let a = &served.artifact;
            println!(
                "{} {} level={} work={} duplications={} final_size={}",
                if served.cached { "hit " } else { "miss" },
                a.key,
                a.level,
                a.counters.work,
                a.counters.duplications,
                a.counters.final_size
            );
            if print_ir {
                print!("{}{}", a.classes, a.ir);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dbds_client: server error: {e}");
            ExitCode::from(3)
        }
    }
}

fn compile(client: &mut Client, rest: &[String]) -> Result<ExitCode, String> {
    let (req, print_ir) = parse_compile_args(rest)?;
    let outcome = client.compile(req)?;
    Ok(report_outcome(&outcome, print_ir))
}

fn session(client: &mut Client, rest: &[String]) -> Result<ExitCode, String> {
    let mut level = dbds_core::OptLevel::Dbds;
    let mut passes = 2usize;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--passes" => {
                passes = it
                    .next()
                    .ok_or("--passes needs a value")?
                    .parse()
                    .map_err(|_| "--passes needs an integer".to_string())?;
            }
            other => {
                level = level_from_name(other).ok_or_else(|| format!("unknown level `{other}`"))?;
            }
        }
    }
    let names: Vec<String> = dbds_workloads::all_workloads()
        .into_iter()
        .map(|w| w.name)
        .collect();
    for pass in 1..=passes {
        let (mut hits, mut misses, mut errors) = (0u64, 0u64, 0u64);
        for name in &names {
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
        println!(
            "pass {pass}: {} requests, {hits} hits, {misses} misses, {errors} errors",
            names.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}
