//! Property tests for the unit pool's determinism contract: a batch of
//! compilation units committed through `par::run_units` must be
//! bit-identical to the sequential batch at any worker count, under any
//! fuel budget — same graphs, same decisions, same bailout records, in
//! submission order.

use dbds_core::{compile, DbdsConfig, GuardConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::Graph;
use dbds_workloads::{generate_graph, Suite};
use proptest::prelude::*;

/// A deterministic generated compilation unit: suites differ in shape
/// mix (branchy, loopy, allocation-heavy), so sweeping the index
/// exercises structurally different units in one batch.
fn workload_graph(suite_idx: usize, seed: u64) -> Graph {
    let suite = Suite::ALL[suite_idx % Suite::ALL.len()];
    generate_graph("par-props", &suite.profile(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unit_batch_is_worker_count_invariant(
        seeds in proptest::collection::vec(0u64..10_000, 3..7),
        workers in 2usize..9,
        // 0 = unlimited; small values stop the phase mid-flight.
        fuel in 0u64..2_000,
    ) {
        let graphs: Vec<Graph> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| workload_graph(i, s))
            .collect();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            guard: GuardConfig { fuel: (fuel > 0).then_some(fuel), ..GuardConfig::default() },
            ..DbdsConfig::default()
        };
        let compile_unit = |g: &Graph| {
            let mut g = g.clone();
            let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
            (
                g.to_string(),
                stats.duplications,
                stats.candidates,
                stats.iterations,
                stats.final_size,
                stats.bailouts.clone(),
            )
        };
        let (baseline, _, _) = dbds_core::par::run_units(1, &graphs, |_, g| compile_unit(g));
        let (pooled, loads, _) =
            dbds_core::par::run_units(workers, &graphs, |_, g| compile_unit(g));
        prop_assert_eq!(&pooled, &baseline, "unit batch diverged at {} workers", workers);
        // Every unit was claimed exactly once.
        prop_assert_eq!(loads.iter().map(|l| l.tasks).sum::<usize>(), graphs.len());
    }
}
