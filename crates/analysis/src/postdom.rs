//! Post-dominator tree construction and queries.
//!
//! The post-dominator tree is the dominator tree of the *reversed* CFG
//! rooted at a virtual exit node. Because [`Graph`] terminators have at
//! most two successors, the reversed graph cannot be materialized as a
//! real `Graph`; instead the Cooper–Harvey–Kennedy iteration runs
//! directly over reversed edge queries (`succs` become predecessors and
//! vice versa), with the virtual exit held at an internal index past the
//! real blocks. Every reachable block with no successors is an exit; a
//! region that cannot reach any exit (an infinite loop) is handled by
//! deterministically attaching its earliest block (in forward reverse
//! postorder) to the virtual exit as a pseudo-exit, so the tree always
//! covers every entry-reachable block.

use dbds_ir::{reverse_postorder, BlockId, Graph};

/// The internal parent index of a block whose immediate post-dominator is
/// the virtual exit.
const VIRTUAL: usize = usize::MAX - 1;
/// Marker for blocks outside the analysis domain (unreachable from the
/// entry block).
const OUTSIDE: usize = usize::MAX;

/// A post-dominator tree over the entry-reachable blocks of a [`Graph`].
#[derive(Clone, Debug)]
pub struct PostDomTree {
    /// Immediate post-dominator per block: a real block index, [`VIRTUAL`]
    /// when the parent is the virtual exit, or [`OUTSIDE`].
    ipdom: Vec<usize>,
    /// Children in the post-dominator tree, per real block.
    children: Vec<Vec<BlockId>>,
    /// Children of the virtual exit: real exits first (in forward RPO
    /// order), then pseudo-exits of infinite regions.
    roots: Vec<BlockId>,
    /// Pseudo-exits chosen for regions that cannot reach a real exit.
    pseudo_exits: Vec<BlockId>,
    /// Euler-tour entry time per block (virtual exit excluded; roots are
    /// tour roots).
    pre: Vec<usize>,
    /// Euler-tour exit time per block.
    post: Vec<usize>,
}

impl PostDomTree {
    /// Computes the post-dominator tree of `g`.
    pub fn compute(g: &Graph) -> Self {
        let n = g.block_count();
        let forward_rpo = reverse_postorder(g);
        let mut in_domain = vec![false; n];
        for &b in &forward_rpo {
            in_domain[b.index()] = true;
        }

        // Exit set: reachable blocks with no successors, then pseudo-exits
        // until every reachable block can reach the (virtual) exit.
        let mut exits: Vec<BlockId> = forward_rpo
            .iter()
            .copied()
            .filter(|&b| g.succs(b).is_empty())
            .collect();
        let mut pseudo_exits = Vec::new();
        loop {
            let covered = can_reach(g, n, &exits, &in_domain);
            match forward_rpo.iter().find(|b| !covered[b.index()]) {
                None => break,
                Some(&b) => {
                    pseudo_exits.push(b);
                    exits.push(b);
                }
            }
        }

        // Reverse postorder of the reversed graph, starting at the virtual
        // exit whose reversed successors are the exit set.
        let rev_rpo = reversed_rpo(g, n, &exits, &in_domain);
        let mut rev_index = vec![OUTSIDE; n];
        for (i, &b) in rev_rpo.iter().enumerate() {
            rev_index[b.index()] = i + 1; // index 0 is the virtual exit
        }

        // CHK iteration over the reversed graph. `ipdom` is indexed by
        // real block; the virtual exit is its own fixed point.
        let is_exit = {
            let mut v = vec![false; n];
            for &e in &exits {
                v[e.index()] = true;
            }
            v
        };
        let mut ipdom = vec![OUTSIDE; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rev_rpo {
                // Reversed predecessors of `b` are its forward successors,
                // plus the virtual exit when `b` is an exit.
                let mut new_ipdom = if is_exit[b.index()] {
                    Some(VIRTUAL)
                } else {
                    None
                };
                for s in g.succs(b) {
                    if ipdom[s.index()] == OUTSIDE {
                        continue;
                    }
                    new_ipdom = Some(match new_ipdom {
                        None => s.index(),
                        Some(cur) => intersect(&ipdom, &rev_index, s.index(), cur),
                    });
                }
                if let Some(ni) = new_ipdom {
                    if ipdom[b.index()] != ni {
                        ipdom[b.index()] = ni;
                        changed = true;
                    }
                }
            }
        }

        let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for &b in &rev_rpo {
            match ipdom[b.index()] {
                VIRTUAL => roots.push(b),
                OUTSIDE => {}
                p => children[p].push(b),
            }
        }

        // Euler tour rooted at the virtual exit (each root starts a
        // subtree) for O(1) post-dominance queries.
        let mut pre = vec![OUTSIDE; n];
        let mut post = vec![OUTSIDE; n];
        let mut clock = 0;
        for &r in &roots {
            let mut stack: Vec<(BlockId, usize)> = vec![(r, 0)];
            pre[r.index()] = clock;
            clock += 1;
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                let ch = &children[b.index()];
                if *next < ch.len() {
                    let c = ch[*next];
                    *next += 1;
                    pre[c.index()] = clock;
                    clock += 1;
                    stack.push((c, 0));
                } else {
                    post[b.index()] = clock;
                    clock += 1;
                    stack.pop();
                }
            }
        }

        PostDomTree {
            ipdom,
            children,
            roots,
            pseudo_exits,
            pre,
            post,
        }
    }

    /// The immediate post-dominator of `b`: `None` when `b`'s parent is
    /// the virtual exit (a real or pseudo exit) or `b` is unreachable.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        match self.ipdom[b.index()] {
            VIRTUAL | OUTSIDE => None,
            p => Some(BlockId::from_index(p)),
        }
    }

    /// Is `b`'s immediate post-dominator the virtual exit?
    pub fn is_root(&self, b: BlockId) -> bool {
        self.ipdom[b.index()] == VIRTUAL
    }

    /// The children of `b` in the post-dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// The children of the virtual exit: real exits first, then
    /// pseudo-exits of infinite regions.
    pub fn roots(&self) -> &[BlockId] {
        &self.roots
    }

    /// Blocks deterministically attached to the virtual exit because
    /// their region cannot reach a real exit.
    pub fn pseudo_exits(&self) -> &[BlockId] {
        &self.pseudo_exits
    }

    /// Does `a` post-dominate `b` (reflexively)? O(1). Blocks outside the
    /// domain neither post-dominate nor are post-dominated.
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.in_domain(a) || !self.in_domain(b) {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Does `a` strictly post-dominate `b`?
    pub fn strictly_post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.post_dominates(a, b)
    }

    /// Is `b` in the analysis domain (reachable from the entry block)?
    pub fn in_domain(&self, b: BlockId) -> bool {
        self.ipdom[b.index()] != OUTSIDE
    }
}

/// Which blocks can reach a member of `exits` (forward edges), restricted
/// to `in_domain` blocks — a backward BFS over predecessor edges.
fn can_reach(g: &Graph, n: usize, exits: &[BlockId], in_domain: &[bool]) -> Vec<bool> {
    let mut covered = vec![false; n];
    let mut work: Vec<BlockId> = Vec::new();
    for &e in exits {
        if in_domain[e.index()] && !covered[e.index()] {
            covered[e.index()] = true;
            work.push(e);
        }
    }
    while let Some(b) = work.pop() {
        for &p in g.preds(b) {
            if in_domain[p.index()] && !covered[p.index()] {
                covered[p.index()] = true;
                work.push(p);
            }
        }
    }
    covered
}

/// Reverse postorder of the reversed graph from the virtual exit (whose
/// reversed successors are `exits`; every other block's reversed
/// successors are its forward predecessors). The virtual exit itself is
/// omitted from the returned order.
fn reversed_rpo(g: &Graph, n: usize, exits: &[BlockId], in_domain: &[bool]) -> Vec<BlockId> {
    let mut visited = vec![false; n];
    let mut post: Vec<BlockId> = Vec::new();
    // Drive the DFS from each exit in order, as if they were the virtual
    // exit's successor list.
    for &e in exits {
        if visited[e.index()] || !in_domain[e.index()] {
            continue;
        }
        visited[e.index()] = true;
        let mut stack: Vec<(BlockId, usize)> = vec![(e, 0)];
        while let Some(&mut (b, ref mut child)) = stack.last_mut() {
            let preds = g.preds(b);
            if *child < preds.len() {
                let p = preds[*child];
                *child += 1;
                if in_domain[p.index()] && !visited[p.index()] {
                    visited[p.index()] = true;
                    stack.push((p, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

fn intersect(ipdom: &[usize], rev_index: &[usize], a: usize, b: usize) -> usize {
    // Indices into `rev_index` space: the virtual exit is position 0.
    let pos = |x: usize| {
        if x == VIRTUAL {
            0
        } else {
            rev_index[x]
        }
    };
    let (mut a, mut b) = (a, b);
    while a != b {
        while pos(a) > pos(b) {
            a = ipdom[a];
        }
        while pos(b) > pos(a) {
            b = ipdom[b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    /// entry → {bt, bf} → bm (return)
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
    fn diamond_ipdoms() {
        let (g, bt, bf, bm) = diamond();
        let pd = PostDomTree::compute(&g);
        let e = g.entry();
        assert_eq!(pd.ipdom(bm), None);
        assert!(pd.is_root(bm));
        assert_eq!(pd.ipdom(bt), Some(bm));
        assert_eq!(pd.ipdom(bf), Some(bm));
        assert_eq!(pd.ipdom(e), Some(bm)); // merge post-dominates the split
        assert!(pd.post_dominates(bm, e));
        assert!(!pd.post_dominates(bt, e));
        assert!(!pd.post_dominates(bt, bf));
        assert!(pd.post_dominates(bt, bt));
        assert!(pd.strictly_post_dominates(bm, bt));
        assert!(!pd.strictly_post_dominates(bm, bm));
        assert_eq!(pd.roots(), &[bm]);
        assert!(pd.pseudo_exits().is_empty());
    }

    #[test]
    fn chain_post_dominance() {
        let mut b = GraphBuilder::new("c", &[], empty_table());
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let g = b.finish();
        let pd = PostDomTree::compute(&g);
        assert!(pd.post_dominates(b2, g.entry()));
        assert!(pd.post_dominates(b1, g.entry()));
        assert_eq!(pd.ipdom(g.entry()), Some(b1));
        assert_eq!(pd.ipdom(b1), Some(b2));
        assert_eq!(pd.ipdom(b2), None);
        assert_eq!(pd.children(b2), &[b1]);
    }

    #[test]
    fn loop_exit_post_dominates_loop() {
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
        let pd = PostDomTree::compute(&g);
        assert!(pd.post_dominates(exit, header));
        assert!(pd.post_dominates(exit, body));
        assert!(pd.post_dominates(header, body));
        assert!(!pd.post_dominates(body, header));
        assert_eq!(pd.ipdom(body), Some(header));
        assert_eq!(pd.ipdom(header), Some(exit));
        assert_eq!(pd.roots(), &[exit]);
    }

    #[test]
    fn infinite_loop_gets_a_pseudo_exit() {
        // entry → {spin, done}; spin → spin (never exits); done returns.
        let mut b = GraphBuilder::new("inf", &[Type::Bool], empty_table());
        let c = b.param(0);
        let spin = b.new_block();
        let done = b.new_block();
        b.branch(c, spin, done, 0.5);
        b.switch_to(spin);
        b.jump(spin);
        b.switch_to(done);
        b.ret(None);
        let g = b.finish();
        let pd = PostDomTree::compute(&g);
        assert_eq!(pd.pseudo_exits(), &[spin]);
        assert!(pd.in_domain(spin));
        assert!(pd.is_root(spin));
        // The entry reaches both the spin region and the real exit, so
        // nothing below the virtual exit post-dominates it.
        assert_eq!(pd.ipdom(g.entry()), None);
        assert!(!pd.post_dominates(done, g.entry()));
        assert!(!pd.post_dominates(spin, g.entry()));
    }

    #[test]
    fn unreachable_blocks_are_outside() {
        let (mut g, _, _, _) = diamond();
        let orphan = g.add_block();
        let pd = PostDomTree::compute(&g);
        assert!(!pd.in_domain(orphan));
        assert!(!pd.post_dominates(orphan, g.entry()));
        assert!(!pd.post_dominates(g.entry(), orphan));
        assert_eq!(pd.ipdom(orphan), None);
        assert!(!pd.is_root(orphan));
    }
}
