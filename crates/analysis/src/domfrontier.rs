//! Dominance frontiers and post-dominance frontiers.
//!
//! Both directions use the Cooper–Harvey–Kennedy frontier construction:
//! for every join block, walk each predecessor's idom chain up to the
//! join's immediate dominator, adding the join to every frontier on the
//! way. The post-dominance frontier is the exact dual, computed over the
//! reversed CFG via [`PostDomTree`] (so every *split* block contributes,
//! walking immediate post-dominator chains from each successor; chains
//! may terminate at the virtual exit).
//!
//! `DF(b)` is where dominance of `b` ends — the blocks needing φs for
//! definitions in `b` (the SSA-repair placement set); `PDF(b)` is the set
//! of branches that decide whether `b` executes, which is exactly the
//! control-dependence relation read the other way around.

use crate::postdom::PostDomTree;
use dbds_ir::{BlockId, DomTree, Graph};

/// Dominance and post-dominance frontiers over the reachable blocks of a
/// [`Graph`]. Frontier sets are sorted by block index and deduplicated.
#[derive(Clone, Debug)]
pub struct DomFrontiers {
    df: Vec<Vec<BlockId>>,
    pdf: Vec<Vec<BlockId>>,
}

impl DomFrontiers {
    /// Computes both frontiers of `g` from its dominator and
    /// post-dominator trees.
    pub fn compute(g: &Graph, dt: &DomTree, pd: &PostDomTree) -> Self {
        DomFrontiers {
            df: Self::forward(g, dt),
            pdf: Self::reverse(g, dt, pd),
        }
    }

    /// The forward step alone: the dominance frontier of every block,
    /// indexed by block. Callers that never read `pdf` use it to skip
    /// the post-dominator tree.
    pub fn forward(g: &Graph, dt: &DomTree) -> Vec<Vec<BlockId>> {
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); g.block_count()];
        // Join blocks push themselves up each predecessor's idom chain.
        for &b in dt.reverse_postorder() {
            if g.preds(b).len() < 2 {
                continue;
            }
            let target = dt.idom(b);
            for &p in g.preds(b) {
                if !dt.is_reachable(p) {
                    continue;
                }
                let mut runner = Some(p);
                while runner != target {
                    let Some(r) = runner else { break };
                    df[r.index()].push(b);
                    runner = dt.idom(r);
                }
            }
        }
        sort_sets(&mut df);
        df
    }

    /// The reverse step: the post-dominance frontier of every reachable
    /// block. Split blocks push themselves up each successor's ipdom
    /// chain (`None` is the virtual exit).
    fn reverse(g: &Graph, dt: &DomTree, pd: &PostDomTree) -> Vec<Vec<BlockId>> {
        let mut pdf: Vec<Vec<BlockId>> = vec![Vec::new(); g.block_count()];
        for &b in dt.reverse_postorder() {
            if g.succs(b).len() < 2 || !pd.in_domain(b) {
                continue;
            }
            let target = pd.ipdom(b);
            for s in g.succs(b) {
                if !pd.in_domain(s) {
                    continue;
                }
                let mut runner = Some(s);
                while runner != target {
                    let Some(r) = runner else { break };
                    pdf[r.index()].push(b);
                    runner = pd.ipdom(r);
                }
            }
        }
        sort_sets(&mut pdf);
        pdf
    }

    /// The dominance frontier of `b` (sorted, deduplicated).
    pub fn df(&self, b: BlockId) -> &[BlockId] {
        &self.df[b.index()]
    }

    /// The post-dominance frontier of `b` (sorted, deduplicated).
    pub fn pdf(&self, b: BlockId) -> &[BlockId] {
        &self.pdf[b.index()]
    }
}

/// Sorts and deduplicates every frontier set.
fn sort_sets(sets: &mut [Vec<BlockId>]) {
    for set in sets {
        set.sort_unstable();
        set.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, Graph, GraphBuilder, Type};
    use std::sync::Arc;

    fn frontiers(g: &Graph) -> DomFrontiers {
        DomFrontiers::compute(g, &DomTree::compute(g), &PostDomTree::compute(g))
    }

    fn diamond() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("d", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        b.ret(None);
        (b.finish(), bt, bf, bm)
    }

    #[test]
    fn diamond_frontiers() {
        let (g, bt, bf, bm) = diamond();
        let f = frontiers(&g);
        let e = g.entry();
        // The arms' dominance ends at the merge; entry and merge dominate
        // everything below themselves.
        assert_eq!(f.df(bt), &[bm]);
        assert_eq!(f.df(bf), &[bm]);
        assert!(f.df(e).is_empty());
        assert!(f.df(bm).is_empty());
        // Dually, the arms' post-dominance ends at the split.
        assert_eq!(f.pdf(bt), &[e]);
        assert_eq!(f.pdf(bf), &[e]);
        assert!(f.pdf(e).is_empty());
        assert!(f.pdf(bm).is_empty());
    }

    #[test]
    fn loop_header_is_in_its_own_frontier() {
        let mut b = GraphBuilder::new("l", &[Type::Int], Arc::new(ClassTable::new()));
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
        b.branch(c, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(Some(i));
        let g = b.finish();
        let f = frontiers(&g);
        // The back edge puts the header in its own frontier and the
        // body's.
        assert_eq!(f.df(header), &[header]);
        assert_eq!(f.df(body), &[header]);
        // The loop breaks post-dominance at the header's branch.
        assert_eq!(f.pdf(body), &[header]);
        assert_eq!(f.pdf(header), &[header]);
    }
}
