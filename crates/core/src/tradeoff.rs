//! The trade-off tier (§4.2, §5.4).
//!
//! Implements the paper's `shouldDuplicate` heuristic verbatim:
//!
//! ```text
//! (b × p × BS) > c  ∧  (cs < MS)  ∧  (cs + c < is × IB)
//! ```
//!
//! with `b` the benefit (cycles saved), `p` the relative probability of
//! the predecessor, `BS = 256` the benefit scale factor, `c` the code-size
//! cost, `cs` the current compilation-unit size, `is` the initial size,
//! `IB = 1.5` the code-size increase budget and `MS` the VM's maximum
//! compilation-unit size. Candidates are ranked by probability-weighted
//! benefit, with merges not yet duplicated in earlier iterations
//! considered first (§5.2).

use crate::simulation::SimulationResult;
use std::collections::HashSet;

use dbds_ir::BlockId;

/// Tunable parameters of the trade-off tier. Defaults are the paper's.
#[derive(Clone, Debug)]
pub struct TradeoffConfig {
    /// `BS`: how much estimated cost one probability-weighted cycle of
    /// benefit justifies. The paper derived 256 empirically.
    pub benefit_scale: f64,
    /// `IB`: the maximum code-size growth, relative to the initial size
    /// (1.5 = +50%).
    pub size_increase_budget: f64,
    /// `MS`: the VM's hard limit on compilation-unit size (HotSpot's
    /// `-XX:JVMCINMethodSizeLimit`, 655360 bytes by default).
    pub max_unit_size: u64,
}

impl Default for TradeoffConfig {
    fn default() -> Self {
        TradeoffConfig {
            benefit_scale: 256.0,
            size_increase_budget: 1.5,
            max_unit_size: 655_360,
        }
    }
}

/// How the trade-off tier selects candidates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectionMode {
    /// The full cost/benefit heuristic (the paper's *DBDS*
    /// configuration).
    CostBenefit,
    /// Perform every duplication with any benefit, ignoring costs (the
    /// paper's *dupalot* configuration; the hard VM size limit still
    /// applies).
    Dupalot,
}

/// Whether the benefit side of `shouldDuplicate` clears the cost side,
/// ignoring the size budgets: `b × p × BS > c`.
fn benefit_clears_cost(cfg: &TradeoffConfig, benefit: f64, probability: f64, cost: i64) -> bool {
    benefit * probability * cfg.benefit_scale > cost.max(0) as f64
}

/// The size-budget side of `shouldDuplicate`:
/// `cs < MS ∧ cs + c < is × IB`.
fn size_budget_allows(
    cfg: &TradeoffConfig,
    cost: i64,
    current_size: u64,
    initial_size: u64,
) -> bool {
    let cost_pos = cost.max(0) as f64;
    current_size < cfg.max_unit_size
        && (current_size as f64 + cost_pos) < initial_size as f64 * cfg.size_increase_budget
}

/// The paper's `shouldDuplicate(b_pi, b_m, benefit, cost)` predicate.
pub fn should_duplicate(
    cfg: &TradeoffConfig,
    benefit: f64,
    probability: f64,
    cost: i64,
    current_size: u64,
    initial_size: u64,
) -> bool {
    benefit_clears_cost(cfg, benefit, probability, cost)
        && size_budget_allows(cfg, cost, current_size, initial_size)
}

/// The trade-off tier's decision for one round of candidates.
#[derive(Debug, Default)]
pub struct Selection<'a> {
    /// Candidates worth duplicating, in application order.
    pub accepted: Vec<&'a SimulationResult>,
    /// `(pred, merge)` pairs whose benefit cleared the cost heuristic but
    /// that a code-size budget blocked — surfaced as
    /// [`BailoutReason::SizeBudgetExceeded`](crate::BailoutReason)
    /// records for observability; selection behavior is unchanged.
    pub size_rejected: Vec<(BlockId, BlockId)>,
}

/// Ranks the simulation results and selects those worth duplicating,
/// tracking the running size budget. `visited` holds merges already
/// duplicated in previous iterations; fresh merges are preferred.
pub fn select<'a>(
    results: &'a [SimulationResult],
    cfg: &TradeoffConfig,
    mode: SelectionMode,
    initial_size: u64,
    current_size: u64,
    visited: &HashSet<BlockId>,
) -> Vec<&'a SimulationResult> {
    select_with_rejections(results, cfg, mode, initial_size, current_size, visited).accepted
}

/// Like [`select`], but also reports the candidates a size budget turned
/// away even though their benefit justified the cost.
pub fn select_with_rejections<'a>(
    results: &'a [SimulationResult],
    cfg: &TradeoffConfig,
    mode: SelectionMode,
    initial_size: u64,
    current_size: u64,
    visited: &HashSet<BlockId>,
) -> Selection<'a> {
    let mut ranked: Vec<&SimulationResult> = results.iter().collect();
    // New merges first, then descending probability-weighted benefit;
    // break ties deterministically by block ids. `total_cmp` keeps the
    // comparator a total order even for NaN benefits (0-frequency
    // predecessors, estimator bugs) — an inconsistent comparator can
    // panic inside `sort_by` and silently scrambles acceptance order
    // otherwise.
    ranked.sort_by(|a, b| {
        let fresh = |r: &SimulationResult| !visited.contains(&r.merge);
        fresh(b)
            .cmp(&fresh(a))
            .then_with(|| b.weighted_benefit().total_cmp(&a.weighted_benefit()))
            .then_with(|| (a.merge, a.pred).cmp(&(b.merge, b.pred)))
    });

    let mut selection = Selection::default();
    let mut size = current_size;
    for r in ranked {
        let worth_it = match mode {
            SelectionMode::CostBenefit => {
                benefit_clears_cost(cfg, r.cycles_saved, r.probability, r.size_cost)
            }
            SelectionMode::Dupalot => r.cycles_saved > 0.0,
        };
        let fits = match mode {
            SelectionMode::CostBenefit => size_budget_allows(cfg, r.size_cost, size, initial_size),
            SelectionMode::Dupalot => size < cfg.max_unit_size,
        };
        if worth_it && fits {
            selection.accepted.push(r);
            // Accrue the *signed* cost: a duplication that shrinks code
            // (dissolved allocations) reclaims budget for later candidates.
            size = size.saturating_add_signed(r.size_cost);
        } else if worth_it {
            selection.size_rejected.push((r.pred, r.merge));
        }
    }
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{CandidateKind, SimulationResult};

    fn result(pred: u32, merge: u32, benefit: f64, prob: f64, cost: i64) -> SimulationResult {
        SimulationResult {
            pred: BlockId(pred),
            merge: BlockId(merge),
            path: vec![BlockId(merge)],
            probability: prob,
            cycles_saved: benefit,
            size_cost: cost,
            opportunities: Vec::new(),
            kind: CandidateKind::MergeDup,
        }
    }

    #[test]
    fn should_duplicate_formula() {
        let cfg = TradeoffConfig::default();
        // b × p × 256 > c (sizes chosen so the growth budget is slack).
        assert!(should_duplicate(&cfg, 1.0, 1.0, 255, 1000, 1000));
        assert!(!should_duplicate(&cfg, 1.0, 1.0, 256, 1000, 1000));
        // Probability scales the benefit down.
        assert!(!should_duplicate(&cfg, 1.0, 0.001, 255, 1000, 1000));
        // Hard unit-size limit.
        assert!(!should_duplicate(&cfg, 100.0, 1.0, 10, 655_360, 655_360));
        // Growth budget: cs + c < is × 1.5.
        assert!(!should_duplicate(&cfg, 100.0, 1.0, 60, 140, 100));
        assert!(should_duplicate(&cfg, 100.0, 1.0, 9, 140, 100));
    }

    #[test]
    fn zero_benefit_never_selected() {
        let cfg = TradeoffConfig::default();
        let results = vec![result(1, 2, 0.0, 1.0, 0)];
        let visited = HashSet::new();
        assert!(select(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited
        )
        .is_empty());
        assert!(select(&results, &cfg, SelectionMode::Dupalot, 100, 100, &visited).is_empty());
    }

    #[test]
    fn dupalot_ignores_cost() {
        let cfg = TradeoffConfig::default();
        // Enormous cost, tiny benefit.
        let results = vec![result(1, 2, 0.1, 0.01, 100_000)];
        let visited = HashSet::new();
        assert!(select(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited
        )
        .is_empty());
        assert_eq!(
            select(&results, &cfg, SelectionMode::Dupalot, 100, 100, &visited).len(),
            1
        );
    }

    #[test]
    fn ranking_prefers_weighted_benefit() {
        let cfg = TradeoffConfig::default();
        let results = vec![
            result(1, 10, 5.0, 0.1, 1),  // weighted 0.5
            result(2, 11, 3.0, 1.0, 1),  // weighted 3.0
            result(3, 12, 50.0, 0.9, 1), // weighted 45
        ];
        let visited = HashSet::new();
        let sel = select(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited,
        );
        let order: Vec<u32> = sel.iter().map(|r| r.pred.0).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn fresh_merges_rank_before_visited_ones() {
        let cfg = TradeoffConfig::default();
        let results = vec![
            result(1, 10, 50.0, 1.0, 1), // visited, high benefit
            result(2, 11, 5.0, 1.0, 1),  // fresh, lower benefit
        ];
        let mut visited = HashSet::new();
        visited.insert(BlockId(10));
        let sel = select(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited,
        );
        let order: Vec<u32> = sel.iter().map(|r| r.merge.0).collect();
        assert_eq!(order, vec![11, 10]);
    }

    #[test]
    fn budget_is_consumed_in_rank_order() {
        let cfg = TradeoffConfig {
            benefit_scale: 256.0,
            size_increase_budget: 1.5,
            max_unit_size: 655_360,
        };
        // Initial size 100 → budget allows < 150 total.
        let results = vec![
            result(1, 10, 100.0, 1.0, 30), // accepted: 100+30 < 150
            result(2, 11, 90.0, 1.0, 30),  // rejected: 130+30 ≥ 150
            result(3, 12, 80.0, 1.0, 10),  // accepted: 130+10 < 150
        ];
        let visited = HashSet::new();
        let sel = select(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited,
        );
        let order: Vec<u32> = sel.iter().map(|r| r.pred.0).collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn negative_cost_counts_as_free() {
        let cfg = TradeoffConfig::default();
        assert!(should_duplicate(&cfg, 0.1, 0.5, -10, 100, 100));
    }

    #[test]
    fn nan_benefit_candidate_does_not_scramble_ranking() {
        // A 0-frequency predecessor can yield `probability = 0.0` while an
        // estimator bug yields `cycles_saved = NaN`; the ranking comparator
        // must stay a total order so the finite candidates keep their
        // descending-weighted-benefit acceptance order. With the old
        // `partial_cmp(..).unwrap_or(Equal)` comparator the NaN candidate
        // compares Equal to everything, falls through to the id tie-break,
        // and creates a comparison cycle (B < X < A but A < B) that
        // scrambles the sort.
        let cfg = TradeoffConfig::default();
        let mut nan = result(2, 5, f64::NAN, 1.0, 1);
        nan.cycles_saved = f64::NAN;
        let results = vec![
            result(1, 1, 2.0, 1.0, 1),  // B: weighted 2.0
            nan,                        // X: weighted NaN
            result(3, 20, 3.0, 1.0, 1), // A: weighted 3.0
        ];
        let visited = HashSet::new();
        let sel = select(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited,
        );
        // The NaN candidate never clears the cost heuristic (NaN > c is
        // false), so only the finite two are accepted — higher weighted
        // benefit first.
        let order: Vec<u32> = sel.iter().map(|r| r.pred.0).collect();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn shrinking_candidate_reclaims_size_budget() {
        // Initial size 100 → the growth budget allows < 150. The middle
        // candidate *shrinks* code by 20 (e.g. a dissolved allocation), so
        // after applying it the running size must drop back to 125 and the
        // final candidate fit again. Clamping the accrual at 0 kept the
        // running size at 145 and wrongly size-rejected the last one.
        let cfg = TradeoffConfig::default();
        let results = vec![
            result(1, 10, 100.0, 1.0, 45), // accepted: 100+45 = 145 < 150
            result(2, 11, 90.0, 1.0, -20), // accepted: shrinks to 125
            result(3, 12, 80.0, 1.0, 20),  // accepted: 125+20 = 145 < 150
        ];
        let visited = HashSet::new();
        let sel = select_with_rejections(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited,
        );
        let order: Vec<u32> = sel.accepted.iter().map(|r| r.pred.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(sel.size_rejected.is_empty(), "{:?}", sel.size_rejected);
    }

    #[test]
    fn size_rejections_are_reported_without_changing_acceptance() {
        let cfg = TradeoffConfig::default();
        // Same shape as `budget_is_consumed_in_rank_order`: pred 2's
        // candidate clears the cost heuristic but the growth budget
        // blocks it.
        let results = vec![
            result(1, 10, 100.0, 1.0, 30),
            result(2, 11, 90.0, 1.0, 30),
            result(3, 12, 80.0, 1.0, 10),
        ];
        let visited = HashSet::new();
        let sel = select_with_rejections(
            &results,
            &cfg,
            SelectionMode::CostBenefit,
            100,
            100,
            &visited,
        );
        let order: Vec<u32> = sel.accepted.iter().map(|r| r.pred.0).collect();
        assert_eq!(order, vec![1, 3]);
        assert_eq!(sel.size_rejected, vec![(BlockId(2), BlockId(11))]);
        // A candidate that fails the cost heuristic is NOT a size
        // rejection.
        let weak = vec![result(4, 13, 0.0, 1.0, 50)];
        let sel =
            select_with_rejections(&weak, &cfg, SelectionMode::CostBenefit, 100, 100, &visited);
        assert!(sel.accepted.is_empty());
        assert!(sel.size_rejected.is_empty());
    }
}
