//! Ablation study over the trade-off constants of §5.4: sweeps the
//! benefit scale factor `BS`, the code-size increase budget `IB` and the
//! iteration bound, reporting duplications performed, peak performance
//! and code size on the micro suite.
//!
//! ```text
//! cargo run -p dbds-harness --bin ablations --release
//! ```

#![forbid(unsafe_code)]

use dbds_core::{DbdsConfig, OptLevel, TradeoffConfig};
use dbds_costmodel::CostModel;
use dbds_harness::{geomean_pct, measure, IcacheModel};
use dbds_workloads::Suite;

fn main() {
    let model = CostModel::new();
    let icache = IcacheModel::default();
    let workloads = Suite::Micro.workloads();

    let sweep = |label: &str, cfgs: Vec<(String, DbdsConfig)>| {
        println!("=== Ablation: {label} (micro suite) ===");
        println!(
            "{:<10} | {:>6} | {:>9} | {:>9}",
            label, "dups", "peak", "size"
        );
        println!("{}", "-".repeat(44));
        for (name, cfg) in cfgs {
            let mut dups = 0usize;
            let mut peak = Vec::new();
            let mut size = Vec::new();
            for w in &workloads {
                let base = measure(w, OptLevel::Baseline, &model, &cfg, &icache);
                let dbds = measure(w, OptLevel::Dbds, &model, &cfg, &icache);
                assert_eq!(base.outcomes, dbds.outcomes, "{} diverged", w.name);
                dups += dbds.stats.duplications;
                peak.push(dbds_harness::pct_speedup(
                    base.peak_cycles,
                    dbds.peak_cycles,
                ));
                size.push(dbds_harness::pct_increase(
                    base.code_size as f64,
                    dbds.code_size as f64,
                ));
            }
            println!(
                "{:<10} | {:>6} | {:>8.2}% | {:>8.2}%",
                name,
                dups,
                geomean_pct(&peak),
                geomean_pct(&size)
            );
        }
        println!();
    };

    sweep(
        "BS",
        [1.0, 16.0, 256.0, 4096.0]
            .into_iter()
            .map(|bs| {
                (
                    format!("{bs}"),
                    DbdsConfig {
                        tradeoff: TradeoffConfig {
                            benefit_scale: bs,
                            ..TradeoffConfig::default()
                        },
                        ..DbdsConfig::default()
                    },
                )
            })
            .collect(),
    );

    sweep(
        "IB",
        [1.0, 1.25, 1.5, 2.0]
            .into_iter()
            .map(|ib| {
                (
                    format!("{ib}"),
                    DbdsConfig {
                        tradeoff: TradeoffConfig {
                            size_increase_budget: ib,
                            ..TradeoffConfig::default()
                        },
                        ..DbdsConfig::default()
                    },
                )
            })
            .collect(),
    );

    sweep(
        "path-len",
        [1usize, 2, 3]
            .into_iter()
            .map(|n| {
                (
                    format!("{n}"),
                    DbdsConfig {
                        max_path_length: n,
                        ..DbdsConfig::default()
                    },
                )
            })
            .collect(),
    );

    sweep(
        "iters",
        [1usize, 2, 3, 6]
            .into_iter()
            .map(|n| {
                (
                    format!("{n}"),
                    DbdsConfig {
                        max_iterations: n,
                        ..DbdsConfig::default()
                    },
                )
            })
            .collect(),
    );
}
