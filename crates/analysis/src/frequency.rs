//! Relative basic-block execution frequencies.
//!
//! The paper scales each duplication candidate's benefit by "a basic
//! block's execution frequency relative to the maximum frequency of a
//! compilation unit" (§5.3), derived from HotSpot branch profiles. We
//! reproduce that with the classic Wu–Larus-style estimate: branch
//! probabilities stored on [`dbds_ir::Terminator::Branch`] are propagated
//! forward through the CFG in reverse postorder with back edges ignored,
//! and every natural-loop header is scaled by its expected trip count.
//! The trip count is derived from the profile itself — a loop whose
//! header exits with probability `q` runs `1/q` iterations in expectation
//! — clamped to [`MIN_TRIP`]..=[`MAX_TRIP`]; loops that exit elsewhere
//! fall back to [`LOOP_FACTOR`]. Scaling *during* propagation keeps the
//! flow conserved: the code after a loop runs as often as the code before
//! it, no matter how hot the loop body is.

use crate::loops::LoopForest;
use dbds_ir::{BlockId, DomTree, Graph, Terminator};

/// Assumed iterations per loop when the profile gives no exit estimate.
pub const LOOP_FACTOR: f64 = 10.0;

/// Lower clamp for profile-derived trip counts.
pub const MIN_TRIP: f64 = 1.0;

/// Upper clamp for profile-derived trip counts.
pub const MAX_TRIP: f64 = 100.0;

/// Cap on the total frequency of any block.
pub const MAX_FREQUENCY: f64 = 1.0e12;

/// Estimated execution frequencies for every reachable block.
#[derive(Clone, Debug)]
pub struct BlockFrequencies {
    freq: Vec<f64>,
    max: f64,
}

impl BlockFrequencies {
    /// Computes frequencies for `g` from its branch probabilities.
    pub fn compute(g: &Graph, dt: &DomTree, loops: &LoopForest) -> Self {
        let n = g.block_count();

        // Expected trip count per loop header.
        let mut trip = vec![1.0f64; n];
        for l in loops.loops() {
            let in_loop = |b: BlockId| l.blocks.contains(&b);
            let exit_prob: f64 = g
                .succs(l.header)
                .into_iter()
                .filter(|&s| !in_loop(s))
                .map(|s| edge_probability(g, l.header, s))
                .sum();
            let t = if exit_prob > 0.0 {
                (1.0 / exit_prob).clamp(MIN_TRIP, MAX_TRIP)
            } else {
                LOOP_FACTOR
            };
            // Nested loops multiply: each enclosing loop already scaled
            // the header's incoming frequency, so the per-header factor
            // composes naturally during propagation.
            trip[l.header.index()] = t;
        }

        let mut freq = vec![0.0f64; n];
        freq[g.entry().index()] = 1.0;
        for &b in dt.reverse_postorder().iter().skip(1) {
            let mut f = 0.0;
            for &p in g.preds(b) {
                if !dt.is_reachable(p) || dt.rpo_index(p) >= dt.rpo_index(b) {
                    continue; // back edge or dead predecessor
                }
                f += freq[p.index()] * edge_probability(g, p, b);
            }
            // Loop headers run once per entry times the expected trips;
            // exits then see freq(header) × exit_prob ≈ the entry
            // frequency, conserving flow through the loop.
            f *= trip[b.index()];
            freq[b.index()] = f.min(MAX_FREQUENCY);
        }
        let max = dt
            .reverse_postorder()
            .iter()
            .map(|&b| freq[b.index()])
            .fold(0.0f64, f64::max);
        BlockFrequencies { freq, max }
    }

    /// Estimated execution frequency of `b` (the entry block is 1.0).
    /// Returns 0 for unreachable blocks.
    pub fn freq(&self, b: BlockId) -> f64 {
        self.freq[b.index()]
    }

    /// The maximum frequency in the compilation unit.
    pub fn max_freq(&self) -> f64 {
        self.max
    }

    /// Frequency of `b` relative to the unit's maximum, in `[0, 1]`. This
    /// is the probability term `p` of the paper's `shouldDuplicate`
    /// heuristic.
    pub fn relative(&self, b: BlockId) -> f64 {
        if self.max == 0.0 {
            0.0
        } else {
            self.freq[b.index()] / self.max
        }
    }
}

/// The probability of taking the edge `from → to`.
pub fn edge_probability(g: &Graph, from: BlockId, to: BlockId) -> f64 {
    match g.terminator(from) {
        Terminator::Jump { .. } => 1.0,
        Terminator::Branch {
            then_bb,
            else_bb,
            prob_then,
            ..
        } => {
            // Successors are guaranteed distinct.
            if *then_bb == to {
                *prob_then
            } else if *else_bb == to {
                1.0 - *prob_then
            } else {
                0.0
            }
        }
        Terminator::Return { .. } | Terminator::Deopt => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    fn analyze(g: &Graph) -> BlockFrequencies {
        let dt = DomTree::compute(g);
        let lf = LoopForest::compute(g, &dt);
        BlockFrequencies::compute(g, &dt, &lf)
    }

    /// Builds `entry → header{branch body 0.9 / exit 0.1} ← body` and
    /// returns `(graph, header, body, exit)`.
    fn simple_loop(prob_body: f64) -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("l", &[Type::Int], empty_table());
        let n = b.param(0);
        let zero = b.iconst(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit, prob_body);
        b.switch_to(exit);
        b.ret(Some(i));
        (b.finish(), header, body, exit)
    }

    #[test]
    fn diamond_splits_by_probability() {
        let mut b = GraphBuilder::new("d", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.9);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        b.ret(None);
        let g = b.finish();
        let f = analyze(&g);
        assert!((f.freq(g.entry()) - 1.0).abs() < 1e-12);
        assert!((f.freq(bt) - 0.9).abs() < 1e-12);
        assert!((f.freq(bf) - 0.1).abs() < 1e-12);
        assert!((f.freq(bm) - 1.0).abs() < 1e-12);
        assert!((f.relative(bf) - 0.1).abs() < 1e-12);
        assert!((f.max_freq() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loop_trip_count_follows_exit_probability() {
        let (g, header, body, exit) = simple_loop(0.9);
        let f = analyze(&g);
        // Exit probability 0.1 → expected 10 trips.
        assert!((f.freq(header) - 10.0).abs() < 1e-9);
        assert!((f.freq(body) - 9.0).abs() < 1e-9);
        // Flow conservation: the exit runs once per function entry.
        assert!((f.freq(exit) - 1.0).abs() < 1e-9);
        assert_eq!(f.max_freq(), f.freq(header));
    }

    #[test]
    fn code_after_a_hot_loop_is_not_starved() {
        // The bug this guards against: propagating the raw exit-edge
        // probability makes everything after a loop look nearly dead.
        let (g, _, _, exit) = simple_loop(0.99);
        let f = analyze(&g);
        assert!(
            (f.freq(exit) - 1.0).abs() < 1e-9,
            "exit frequency {} must equal the entry frequency",
            f.freq(exit)
        );
    }

    #[test]
    fn trip_counts_are_clamped() {
        let (g, header, _, _) = simple_loop(0.9999); // 10000 expected trips
        let f = analyze(&g);
        assert!((f.freq(header) - MAX_TRIP).abs() < 1e-9);
    }

    #[test]
    fn nested_loops_compose() {
        // outer header oh (exit 0.1) contains inner header ih (exit 0.1):
        // ih runs ≈ 10 × 10 per entry.
        let mut b = GraphBuilder::new("n", &[Type::Bool, Type::Bool], empty_table());
        let c1 = b.param(0);
        let c2 = b.param(1);
        let oh = b.new_block();
        let ih = b.new_block();
        let ibody = b.new_block();
        let olatch = b.new_block();
        let exit = b.new_block();
        b.jump(oh);
        b.switch_to(olatch);
        b.jump(oh);
        b.switch_to(oh);
        b.branch(c1, ih, exit, 0.9);
        b.switch_to(ibody);
        b.jump(ih);
        b.switch_to(ih);
        b.branch(c2, ibody, olatch, 0.9);
        b.switch_to(exit);
        b.ret(None);
        let g = b.finish();
        let f = analyze(&g);
        assert!((f.freq(oh) - 10.0).abs() < 1e-9);
        assert!((f.freq(ih) - 90.0).abs() < 1e-9);
        // Flow returns to the outer latch once per outer iteration…
        assert!((f.freq(olatch) - 9.0).abs() < 1e-9);
        // …and leaves the nest exactly once per entry.
        assert!((f.freq(exit) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loop_exiting_outside_header_uses_fallback_factor() {
        // header jumps into body; body decides: continue (back edge) or
        // exit. The header has no exit edge, so the fallback applies.
        let mut b = GraphBuilder::new("f", &[Type::Bool], empty_table());
        let c = b.param(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        b.jump(body);
        b.switch_to(body);
        b.branch(c, header, exit, 0.9);
        b.switch_to(exit);
        b.ret(None);
        let g = b.finish();
        let f = analyze(&g);
        assert!((f.freq(header) - LOOP_FACTOR).abs() < 1e-9);
    }

    #[test]
    fn edge_probabilities() {
        let mut b = GraphBuilder::new("e", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.7);
        b.switch_to(bt);
        b.ret(None);
        b.switch_to(bf);
        b.ret(None);
        let g = b.finish();
        assert!((edge_probability(&g, g.entry(), bt) - 0.7).abs() < 1e-12);
        assert!((edge_probability(&g, g.entry(), bf) - 0.3).abs() < 1e-12);
        assert_eq!(edge_probability(&g, bt, bf), 0.0);
    }
}
