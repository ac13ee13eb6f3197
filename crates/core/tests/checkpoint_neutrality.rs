//! `GuardConfig::checkpoints` is a pure safety toggle: on a compiler
//! whose checks all pass, turning it off must not change what DBDS
//! decides. For every corpus workload at `Dbds` and `Dupalot`, the
//! printed final graph and every deterministic `PhaseStats` counter must
//! be identical with checkpoints on and off. Only the undo-log counters
//! are left out: the undo log is part of the checkpoint machinery.

use dbds_core::{compile, DbdsConfig, OptLevel, PhaseStats};
use dbds_costmodel::CostModel;
use dbds_workloads::all_workloads;

/// Every deterministic counter of `s` except the undo-log ones, in a
/// stable rendering (opportunity classes sorted).
fn counters(s: &PhaseStats) -> String {
    let mut opportunities: Vec<_> = s
        .opportunities
        .iter()
        .map(|(k, n)| format!("{k:?}={n}"))
        .collect();
    opportunities.sort();
    format!(
        "iterations={} candidates={} duplications={} opportunities={opportunities:?} \
         initial_size={} final_size={} work={} cache={:?} mispredictions={} \
         stale_skips={} split_candidates={} split_applied={} frontier_violations={} \
         bailouts={:?}",
        s.iterations,
        s.candidates,
        s.duplications,
        s.initial_size,
        s.final_size,
        s.work,
        s.cache,
        s.mispredictions,
        s.stale_skips,
        s.split_candidates,
        s.split_applied,
        s.frontier_violations,
        s.bailouts,
    )
}

#[test]
fn checkpoints_do_not_change_the_compiled_graph_or_counters() {
    let model = CostModel::new();
    let on = DbdsConfig::default();
    assert!(on.guard.checkpoints, "checkpoints are on by default");
    let mut off = on.clone();
    off.guard.checkpoints = false;
    let mut differing = Vec::new();
    for w in all_workloads() {
        for level in [OptLevel::Dbds, OptLevel::Dupalot] {
            let mut g_on = w.graph.clone();
            let s_on = compile(&mut g_on, &model, level, &on);
            let mut g_off = w.graph.clone();
            let s_off = compile(&mut g_off, &model, level, &off);
            if g_on.to_string() != g_off.to_string() || counters(&s_on) != counters(&s_off) {
                differing.push(format!(
                    "{} at {level:?}:\n  on:  {}\n  off: {}",
                    w.name,
                    counters(&s_on),
                    counters(&s_off)
                ));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} units differ with checkpoints off:\n{}",
        differing.len(),
        differing.join("\n")
    );
}
