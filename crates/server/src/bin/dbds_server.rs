//! The `dbds-server` daemon binary.
//!
//! ```text
//! dbds_server [--listen ADDR] [--store DIR|mem] [--max-queue N]
//!             [--store-budget BYTES]
//! ```
//!
//! `ADDR` is `host:port` (TCP) or `unix:<path>`. The resolved address
//! is printed as `listening on <addr>` once the daemon is accepting,
//! so scripts can wait for readiness. The compilation unit-pool width
//! honors `DBDS_UNIT_THREADS`.

#![forbid(unsafe_code)]

use dbds_server::{serve, ServerConfig, StoreChoice};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dbds-server: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--listen" => cfg.listen = value("--listen")?,
            "--store" => {
                let v = value("--store")?;
                cfg.store = if v == "mem" {
                    StoreChoice::Mem
                } else {
                    StoreChoice::Disk(v.into())
                };
            }
            "--max-queue" => {
                cfg.max_queue = value("--max-queue")?
                    .parse()
                    .map_err(|_| "--max-queue needs an integer".to_string())?;
            }
            "--store-budget" => {
                cfg.store_budget = Some(
                    value("--store-budget")?
                        .parse()
                        .map_err(|_| "--store-budget needs a byte count".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: dbds_server [--listen HOST:PORT|unix:PATH] \
                     [--store DIR|mem] [--max-queue N] [--store-budget BYTES]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }

    let handle = serve(cfg)?;
    println!("listening on {}", handle.addr);
    handle.join();
    println!("shut down");
    Ok(())
}
