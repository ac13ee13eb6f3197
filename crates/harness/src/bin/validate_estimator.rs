//! The §8 future-work experiment: validate the static performance
//! estimator against measured behaviour.
//!
//! Three correlations across all 45 synthetic benchmarks:
//!
//! 1. static probability-weighted cycle estimate vs. measured dynamic
//!    cycles (per executed entry),
//! 2. static code-size estimate (cost-model units) vs. emitted machine
//!    code bytes,
//! 3. the simulation tier's predicted probability-weighted benefit vs.
//!    the measured dynamic-cycle reduction of the DBDS phase.
//!
//! ```text
//! cargo run -p dbds-harness --bin validate_estimator --release
//! ```

#![forbid(unsafe_code)]

use dbds_analysis::AnalysisCache;
use dbds_core::{compile, simulate, DbdsConfig, OptLevel, SelectionMode, TradeoffConfig};
use dbds_costmodel::CostModel;
use dbds_harness::{pearson, spearman};
use dbds_ir::{execute, Graph};
use dbds_workloads::{Suite, Workload};
use std::collections::HashSet;

fn weighted_estimate(g: &Graph, model: &CostModel, cache: &mut AnalysisCache) -> f64 {
    model.weighted_cycles(g, cache)
}

fn dynamic_cycles(g: &Graph, w: &Workload, model: &CostModel) -> f64 {
    let total: u64 = w
        .inputs
        .iter()
        .map(|i| model.dynamic_cycles(&execute(g, i).counts))
        .sum();
    total as f64 / w.inputs.len() as f64
}

fn main() {
    let model = CostModel::new();
    let cfg = DbdsConfig::default();

    let mut est_cycles = Vec::new();
    let mut real_cycles = Vec::new();
    let mut est_size = Vec::new();
    let mut real_size = Vec::new();
    let mut predicted_benefit = Vec::new();
    let mut measured_saving = Vec::new();

    for suite in Suite::ALL {
        for w in suite.workloads() {
            // One cache per workload: the baseline graph does not change
            // between the estimate and the simulation below, so the
            // simulation's analyses are served from the cache.
            let mut cache = AnalysisCache::new();
            // Baseline-compile once; everything else derives from it.
            let mut base = w.graph.clone();
            compile(&mut base, &model, OptLevel::Baseline, &cfg);

            est_cycles.push(weighted_estimate(&base, &model, &mut cache));
            real_cycles.push(dynamic_cycles(&base, &w, &model));
            est_size.push(model.graph_size(&base) as f64);
            real_size.push(dbds_backend::compile_to_machine_code(&base).size() as f64);

            // Predicted benefit of the candidates the trade-off accepts.
            let results = simulate(&base, &model, &mut cache);
            let initial = model.graph_size(&base);
            let accepted = dbds_core::select(
                &results,
                &TradeoffConfig::default(),
                SelectionMode::CostBenefit,
                initial,
                initial,
                &HashSet::new(),
            );
            let predicted: f64 = accepted.iter().map(|r| r.weighted_benefit()).sum();

            let mut opt = base.clone();
            compile(&mut opt, &model, OptLevel::Dbds, &cfg);
            let saving = dynamic_cycles(&base, &w, &model) - dynamic_cycles(&opt, &w, &model);
            predicted_benefit.push(predicted);
            measured_saving.push(saving.max(0.0));
        }
    }

    println!(
        "Estimator validation (§8 future work), n = {}\n",
        est_cycles.len()
    );
    println!(
        "{:<46} | {:>9} | {:>9}",
        "correlation", "Pearson r", "Spearman"
    );
    println!("{}", "-".repeat(70));
    println!(
        "{:<46} | {:>9.3} | {:>9.3}",
        "static weighted cycles vs dynamic cycles",
        pearson(&est_cycles, &real_cycles),
        spearman(&est_cycles, &real_cycles)
    );
    println!(
        "{:<46} | {:>9.3} | {:>9.3}",
        "static size estimate vs machine-code bytes",
        pearson(&est_size, &real_size),
        spearman(&est_size, &real_size)
    );
    println!(
        "{:<46} | {:>9.3} | {:>9.3}",
        "predicted duplication benefit vs measured",
        pearson(&predicted_benefit, &measured_saving),
        spearman(&predicted_benefit, &measured_saving)
    );
}
