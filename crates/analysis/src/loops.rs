//! Natural-loop detection.
//!
//! Finds back edges (`latch → header` where the header dominates the
//! latch), the blocks of each natural loop, and the per-block loop depth.
//! Block frequencies use the depth to scale loop bodies the way HotSpot
//! profiles would.

use dbds_ir::{BlockId, DomTree, Graph};

/// One natural loop.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Sources of the back edges into `header`.
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, including the header.
    pub blocks: Vec<BlockId>,
}

/// All natural loops of a graph, plus per-block nesting depth.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<LoopInfo>,
    depth: Vec<u32>,
}

impl LoopForest {
    /// Detects the natural loops of `g`.
    ///
    /// Loops sharing a header are merged into one [`LoopInfo`] with
    /// multiple latches (the usual convention).
    pub fn compute(g: &Graph, dt: &DomTree) -> Self {
        let n = g.block_count();
        let mut loops: Vec<LoopInfo> = Vec::new();
        // Group back edges by header, in RPO order for determinism.
        for &b in dt.reverse_postorder() {
            for s in g.succs(b) {
                if dt.dominates(s, b) {
                    // b -> s is a back edge with header s.
                    match loops.iter_mut().find(|l| l.header == s) {
                        Some(l) => l.latches.push(b),
                        None => loops.push(LoopInfo {
                            header: s,
                            latches: vec![b],
                            blocks: Vec::new(),
                        }),
                    }
                }
            }
        }
        // Collect loop bodies: backwards reachability from the latches,
        // stopping at the header.
        for l in &mut loops {
            let mut in_loop = vec![false; n];
            in_loop[l.header.index()] = true;
            let mut stack: Vec<BlockId> = l.latches.clone();
            for &latch in &l.latches {
                in_loop[latch.index()] = true;
            }
            while let Some(b) = stack.pop() {
                for &p in g.preds(b) {
                    if dt.is_reachable(p) && !in_loop[p.index()] {
                        in_loop[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            l.blocks = (0..n)
                .map(BlockId::from_index)
                .filter(|b| in_loop[b.index()])
                .collect();
        }
        let mut depth = vec![0u32; n];
        for l in &loops {
            for &b in &l.blocks {
                depth[b.index()] += 1;
            }
        }
        LoopForest { loops, depth }
    }

    /// The detected loops, outermost-header-first in RPO order.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Loop nesting depth of `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Returns `true` if `b` is a loop header.
    pub fn is_header(&self, b: BlockId) -> bool {
        self.loops.iter().any(|l| l.header == b)
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

    fn simple_loop() -> (Graph, BlockId, BlockId, BlockId) {
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
        (b.finish(), header, body, exit)
    }

    #[test]
    fn finds_single_loop() {
        let (g, header, body, exit) = simple_loop();
        let dt = DomTree::compute(&g);
        let lf = LoopForest::compute(&g, &dt);
        assert_eq!(lf.loops().len(), 1);
        let l = &lf.loops()[0];
        assert_eq!(l.header, header);
        assert_eq!(l.latches, vec![body]);
        assert!(l.blocks.contains(&header) && l.blocks.contains(&body));
        assert!(!l.blocks.contains(&exit));
        assert_eq!(lf.depth(header), 1);
        assert_eq!(lf.depth(body), 1);
        assert_eq!(lf.depth(exit), 0);
        assert_eq!(lf.depth(g.entry()), 0);
        assert!(lf.is_header(header));
        assert!(!lf.is_header(body));
    }

    #[test]
    fn straightline_has_no_loops() {
        let mut b = GraphBuilder::new("s", &[], empty_table());
        b.ret(None);
        let g = b.finish();
        let dt = DomTree::compute(&g);
        let lf = LoopForest::compute(&g, &dt);
        assert!(lf.loops().is_empty());
    }

    #[test]
    fn nested_loops_have_depth_two() {
        // entry -> oh; oh -> ih | exit; ih -> ibody | oh_latch(back to oh);
        // ibody -> ih (back edge)
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
        let dt = DomTree::compute(&g);
        let lf = LoopForest::compute(&g, &dt);
        assert_eq!(lf.loops().len(), 2);
        assert_eq!(lf.depth(ih), 2);
        assert_eq!(lf.depth(ibody), 2);
        assert_eq!(lf.depth(oh), 1);
        assert_eq!(lf.depth(olatch), 1);
        assert_eq!(lf.depth(exit), 0);
    }

    #[test]
    fn two_latches_one_header() {
        // header with two back edges from distinct latches.
        let mut b = GraphBuilder::new("t", &[Type::Bool, Type::Bool], empty_table());
        let c1 = b.param(0);
        let c2 = b.param(1);
        let h = b.new_block();
        let l1 = b.new_block();
        let l2 = b.new_block();
        let mid = b.new_block();
        let exit = b.new_block();
        b.jump(h);
        b.switch_to(l1);
        b.jump(h);
        b.switch_to(l2);
        b.jump(h);
        b.switch_to(h);
        b.branch(c1, mid, exit, 0.9);
        b.switch_to(mid);
        b.branch(c2, l1, l2, 0.5);
        b.switch_to(exit);
        b.ret(None);
        let g = b.finish();
        let dt = DomTree::compute(&g);
        let lf = LoopForest::compute(&g, &dt);
        assert_eq!(lf.loops().len(), 1);
        let l = &lf.loops()[0];
        assert_eq!(l.header, h);
        assert_eq!(l.latches.len(), 2);
        assert_eq!(lf.depth(mid), 1);
    }
}
