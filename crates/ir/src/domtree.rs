//! Dominator tree construction and queries.
//!
//! Uses the Cooper–Harvey–Kennedy iterative algorithm over a reverse
//! postorder of the CFG, then numbers the dominator tree in preorder:
//! every block owns the interval `[pre, pre + size)` of its subtree, so
//! [`DomTree::dominates`] is two comparisons. The DBDS simulation tier
//! (§4.1 of the paper) is a depth-first traversal of this tree, and the
//! verifier's SSA-dominance check queries it.
//!
//! The tree is also built on graphs the verifier is about to reject, so
//! it tolerates predecessor and successor lists that disagree: a block
//! whose idom chain does not follow reverse postorder stays outside the
//! numbering, and its dominance queries walk the idom chain instead.

use crate::{BlockId, Graph};

/// A dominator tree over the reachable blocks of a [`Graph`].
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the entry block and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree, flattened: the children of `b`
    /// are `child_list[child_start[b]..child_start[b + 1]]`.
    child_start: Vec<usize>,
    child_list: Vec<BlockId>,
    /// Reverse postorder of the reachable blocks.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    rpo_index: Vec<usize>,
    /// Dominator-tree preorder number (`usize::MAX` outside the tree).
    pre: Vec<usize>,
    /// Number of blocks in the dominator subtree.
    size: Vec<usize>,
}

impl DomTree {
    /// Computes the dominator tree of `g`.
    pub fn compute(g: &Graph) -> Self {
        let n = g.block_count();
        let rpo = reverse_postorder(g);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[g.entry().index()] = Some(g.entry());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in g.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // The entry's self-idom is an algorithmic artifact; expose None.
        idom[g.entry().index()] = None;

        // Children in reverse postorder, counted first and then filled.
        let mut child_start = vec![0; n + 1];
        for &b in &rpo {
            if let Some(p) = idom[b.index()] {
                child_start[p.index() + 1] += 1;
            }
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut cursor = child_start.clone();
        let mut child_list = vec![g.entry(); child_start[n]];
        for &b in &rpo {
            if let Some(p) = idom[b.index()] {
                child_list[cursor[p.index()]] = b;
                cursor[p.index()] += 1;
            }
        }

        // Preorder intervals. A tree parent must precede its child in
        // reverse postorder; that holds for every reachable block unless
        // the pred and succ lists disagree, and a block whose idom chain
        // breaks it stays outside the tree (its queries walk the chain).
        // Subtree sizes accumulate bottom-up over the reversed order, and
        // each parent hands its children consecutive slots after its own,
        // in reverse postorder: the depth-first preorder that visits
        // children in [`DomTree::children`] order.
        let parent = |b: BlockId| match idom[b.index()] {
            Some(p) if rpo_index[p.index()] < rpo_index[b.index()] => Some(p),
            _ => None,
        };
        let mut in_tree = vec![false; n];
        in_tree[g.entry().index()] = true;
        for &b in rpo.iter().skip(1) {
            in_tree[b.index()] = parent(b).is_some_and(|p| in_tree[p.index()]);
        }
        let mut size = vec![0; n];
        for &b in rpo.iter().rev().filter(|b| in_tree[b.index()]) {
            size[b.index()] += 1;
            if let Some(p) = parent(b) {
                size[p.index()] += size[b.index()];
            }
        }
        let mut pre = vec![usize::MAX; n];
        let mut next_slot = vec![0; n];
        for &b in rpo.iter().filter(|b| in_tree[b.index()]) {
            let slot = parent(b).map_or(0, |p| {
                let slot = next_slot[p.index()];
                next_slot[p.index()] += size[b.index()];
                slot
            });
            pre[b.index()] = slot;
            next_slot[b.index()] = slot + 1;
        }

        DomTree {
            idom,
            child_start,
            child_list,
            rpo,
            rpo_index,
            pre,
            size,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry block or an
    /// unreachable block).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// The children of `b` in the dominator tree, ordered by reverse
    /// postorder of the CFG.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.child_list[self.child_start[b.index()]..self.child_start[b.index() + 1]]
    }

    /// Does `a` dominate `b` (reflexively)? O(1) for blocks inside the
    /// preorder numbering. Unreachable blocks neither dominate nor are
    /// dominated.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let (pa, pb) = (self.pre[a.index()], self.pre[b.index()]);
        if pb == usize::MAX {
            return self.dominates_by_walk(a, b);
        }
        // Every ancestor of a tree block is in the tree, so `a` outside
        // it (`pa == usize::MAX`) dominates nothing here.
        pa <= pb && pb < pa + self.size[a.index()]
    }

    /// [`DomTree::dominates`] by walking `b`'s idom chain: the answer
    /// for blocks outside the preorder numbering.
    fn dominates_by_walk(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(i) if i != cur => cur = i,
                _ => return false,
            }
        }
    }

    /// Does `a` strictly dominate `b`?
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Is `b` reachable from the entry block?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// The reverse postorder of the reachable blocks (entry first).
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder.
    ///
    /// # Panics
    ///
    /// Panics if `b` is unreachable.
    pub fn rpo_index(&self, b: BlockId) -> usize {
        let i = self.rpo_index[b.index()];
        assert_ne!(i, usize::MAX, "{b} is unreachable");
        i
    }

    /// Depth-first preorder of the dominator tree (entry first). This is
    /// the traversal order of the DBDS simulation tier.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut order: Vec<BlockId> = self.rpo.clone();
        order.sort_by_key(|b| self.pre[b.index()]);
        order
    }
}

fn intersect(idom: &[Option<BlockId>], rpo_index: &[usize], a: BlockId, b: BlockId) -> BlockId {
    let (mut a, mut b) = (a, b);
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

/// Computes a reverse postorder of the blocks reachable from the entry.
pub fn reverse_postorder(g: &Graph) -> Vec<BlockId> {
    let n = g.block_count();
    let mut visited = vec![false; n];
    let mut post: Vec<BlockId> = Vec::new();
    let mut stack: Vec<(BlockId, usize)> = vec![(g.entry(), 0)];
    visited[g.entry().index()] = true;
    while let Some(&mut (b, ref mut child)) = stack.last_mut() {
        let succs = g.succs(b);
        if *child < succs.len() {
            let s = succs[*child];
            *child += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassTable, CmpOp, GraphBuilder, Terminator, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    /// entry → {bt, bf} → bm → exit
    fn diamond() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("d", &[Type::Int], empty_table());
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
    fn diamond_idoms() {
        let (g, bt, bf, bm) = diamond();
        let dt = DomTree::compute(&g);
        let e = g.entry();
        assert_eq!(dt.idom(e), None);
        assert_eq!(dt.idom(bt), Some(e));
        assert_eq!(dt.idom(bf), Some(e));
        assert_eq!(dt.idom(bm), Some(e)); // merge dominated by split, not branches
        assert!(dt.dominates(e, bm));
        assert!(!dt.dominates(bt, bm));
        assert!(!dt.dominates(bt, bf));
        assert!(dt.dominates(bt, bt));
        assert!(dt.strictly_dominates(e, bt));
        assert!(!dt.strictly_dominates(e, e));
    }

    #[test]
    fn chain_dominance() {
        let mut b = GraphBuilder::new("c", &[], empty_table());
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let g = b.finish();
        let dt = DomTree::compute(&g);
        assert!(dt.dominates(g.entry(), b2));
        assert!(dt.dominates(b1, b2));
        assert_eq!(dt.idom(b2), Some(b1));
        assert_eq!(dt.children(g.entry()), &[b1]);
    }

    #[test]
    fn loop_header_dominates_body() {
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
        b.branch(c, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(Some(i));
        let g = b.finish();
        let dt = DomTree::compute(&g);
        assert!(dt.dominates(header, body));
        assert!(dt.dominates(header, exit));
        assert!(!dt.dominates(body, header));
        assert_eq!(dt.idom(body), Some(header));
    }

    #[test]
    fn unreachable_blocks_are_outside() {
        let (mut g, _, _, _) = diamond();
        let orphan = g.add_block();
        let dt = DomTree::compute(&g);
        assert!(!dt.is_reachable(orphan));
        assert!(!dt.dominates(g.entry(), orphan));
        assert!(!dt.dominates(orphan, g.entry()));
        assert_eq!(dt.idom(orphan), None);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_forward_edges() {
        let (g, bt, bf, bm) = diamond();
        let dt = DomTree::compute(&g);
        let rpo = dt.reverse_postorder();
        assert_eq!(rpo[0], g.entry());
        assert!(dt.rpo_index(bt) < dt.rpo_index(bm));
        assert!(dt.rpo_index(bf) < dt.rpo_index(bm));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn preorder_visits_parents_before_children() {
        let (g, ..) = diamond();
        let dt = DomTree::compute(&g);
        let pre = dt.preorder();
        assert_eq!(pre[0], g.entry());
        let pos = |b: BlockId| pre.iter().position(|&x| x == b).unwrap();
        for &b in &pre {
            if let Some(p) = dt.idom(b) {
                assert!(pos(p) < pos(b));
            }
        }
    }

    /// A random CFG over `n` blocks, built from a small LCG: returns,
    /// jumps and branches to arbitrary blocks, so back edges (loops),
    /// edges into the entry and blocks no path reaches all occur.
    fn random_cfg(seed: u64, n: usize) -> Graph {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let mut g = Graph::new("r", &[Type::Bool], empty_table());
        let cond = g.param_values()[0];
        let blocks: Vec<BlockId> = std::iter::once(g.entry())
            .chain((1..n).map(|_| g.add_block()))
            .collect();
        for &b in &blocks {
            let term = match next(4) {
                0 => Terminator::Return { value: None },
                1 => Terminator::Jump {
                    target: blocks[next(n)],
                },
                _ => {
                    let then_bb = blocks[next(n)];
                    let else_bb = blocks[(then_bb.index() + 1 + next(n - 1)) % n];
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                        prob_then: 0.5,
                    }
                }
            };
            g.set_terminator(b, term);
        }
        g
    }

    #[test]
    fn interval_dominance_agrees_with_the_idom_chain_walk() {
        let (mut loops, mut unreachable) = (0, 0);
        for seed in 0..300 {
            let g = random_cfg(seed, 2 + seed as usize % 14);
            let dom = DomTree::compute(&g);
            for a in g.blocks() {
                if !dom.is_reachable(a) {
                    unreachable += 1;
                    continue;
                }
                // Pred and succ lists agree here, so every reachable
                // block is answered from its interval, not the fallback.
                assert_ne!(dom.pre[a.index()], usize::MAX, "seed {seed}: {a}");
                loops += g
                    .succs(a)
                    .iter()
                    .filter(|&&s| dom.rpo_index[s.index()] <= dom.rpo_index[a.index()])
                    .count();
            }
            for a in g.blocks() {
                for b in g.blocks() {
                    assert_eq!(
                        dom.dominates(a, b),
                        dom.dominates_by_walk(a, b),
                        "seed {seed}: does {a} dominate {b}?\n{g}"
                    );
                }
            }
        }
        assert!(loops > 0 && unreachable > 0, "generator must produce both");
    }

    #[test]
    fn preorder_is_the_depth_first_walk_over_children() {
        for seed in 0..300 {
            let g = random_cfg(seed, 2 + seed as usize % 14);
            let dom = DomTree::compute(&g);
            let mut walk = Vec::new();
            let mut stack = vec![g.entry()];
            while let Some(b) = stack.pop() {
                walk.push(b);
                stack.extend(dom.children(b).iter().rev());
            }
            assert_eq!(dom.preorder(), walk, "seed {seed}\n{g}");
            for &b in dom.reverse_postorder() {
                let kids = dom.children(b);
                assert!(kids.iter().all(|&c| dom.idom(c) == Some(b)));
                assert!(kids
                    .windows(2)
                    .all(|w| dom.rpo_index(w[0]) < dom.rpo_index(w[1])));
            }
        }
    }
}
