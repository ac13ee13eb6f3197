//! The DBDS simulation tier (§4.1).
//!
//! A depth-first traversal of the dominator tree carries a [`FactEnv`]
//! (synonyms, condition-refined stamps, memory caches, virtual objects).
//! Whenever the traversal sits on a block `b_pi` with a merge successor
//! `b_m`, it pauses and starts a *duplication simulation traversal* (DST):
//! the instructions of `b_m` are evaluated as if they had been appended to
//! `b_pi`, with every φ mapped to its input on the `b_pi` edge through the
//! synonym map. Applicability checks that fire during the DST become
//! [`Opportunity`] records; the static performance estimator (the node
//! cost model) prices each one in *cycles saved* and *code size delta*.
//! No IR is copied or mutated at any point — that is the entire argument
//! for simulation over backtracking (§3).
//!
//! The tier is one sequential walk: each DST runs in place at the block
//! where the walk pauses, charging the phase's [`Budget`] directly (one
//! fuel unit per instruction visited plus one per block). Budget
//! exhaustion stops the walk with whatever was found so far; a DST that
//! panics is isolated and only loses its own predecessor→merge pair.

use crate::bailout::{isolate, BailoutReason, Budget};
use crate::faultinject::fault_point;
use dbds_analysis::{AnalysisCache, BlockFrequencies, DomTree};
use dbds_costmodel::CostModel;
use dbds_ir::{BlockId, ConstValue, Graph, Inst, InstId, InstKind, Terminator};
use dbds_opt::{evaluate, record_effects, FactEnv, OptKind, Synonym, Verdict};

/// One optimization opportunity discovered during a DST.
#[derive(Clone, Debug, PartialEq)]
pub struct Opportunity {
    /// The merge-block instruction that becomes optimizable (or the
    /// allocation, for a predicted scalar replacement).
    pub inst: InstId,
    /// The optimization class that fires.
    pub kind: OptKind,
    /// Estimated cycles saved on this path.
    pub cycles_saved: f64,
    /// Estimated code-size change (negative shrinks the copy).
    pub size_delta: i64,
}

/// How a candidate's duplication path was formed, and therefore which
/// transform sequence the optimization tier applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CandidateKind {
    /// Classic DBDS tail duplication: the path covers merge blocks
    /// connected by unconditional jumps.
    MergeDup,
    /// Branch splitting (Breitner-style conditional elimination through
    /// duplication): the DST continued *through* a branch terminator it
    /// decided statically on this path, so the final path element is the
    /// statically-taken successor rather than a jump target. Applying it
    /// duplicates the merge into the predecessor and then threads the
    /// copy through the decided branch.
    BranchSplit,
}

impl CandidateKind {
    /// Stable kebab-case name (used by reports).
    pub fn name(self) -> &'static str {
        match self {
            CandidateKind::MergeDup => "merge-dup",
            CandidateKind::BranchSplit => "branch-split",
        }
    }
}

/// The simulation result for one predecessor→merge pair.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationResult {
    /// The predecessor block `b_pi`.
    pub pred: BlockId,
    /// The merge block `b_m`.
    pub merge: BlockId,
    /// How the path was formed (and how to apply it).
    pub kind: CandidateKind,
    /// The merge blocks covered, in order; `path[0] == merge`. Longer
    /// paths come from the §8 path-based extension: the DST continued
    /// through a jump into a further merge — or, for
    /// [`CandidateKind::BranchSplit`], through a statically-decided
    /// branch (the last element is then the taken successor).
    pub path: Vec<BlockId>,
    /// Relative execution probability of the duplicated code (the
    /// `p` of the `shouldDuplicate` heuristic): the frequency of the
    /// `pred → merge` edge relative to the unit's hottest block.
    pub probability: f64,
    /// Total estimated cycles saved by the enabled optimizations.
    pub cycles_saved: f64,
    /// Estimated code-size increase of performing the duplication (copy
    /// size after the enabled optimizations, minus any eliminated
    /// allocations elsewhere).
    pub size_cost: i64,
    /// The individual opportunities.
    pub opportunities: Vec<Opportunity>,
}

impl SimulationResult {
    /// Probability-weighted benefit used for candidate ranking.
    pub fn weighted_benefit(&self) -> f64 {
        self.cycles_saved * self.probability
    }
}

/// What the simulation tier produced, including any guardrail events.
///
/// Produced by [`simulate_paths_budgeted`]; `results` holds whatever was
/// discovered before a budget stop, so a partial simulation still feeds
/// the trade-off tier.
#[derive(Clone, Debug)]
pub struct SimulationOutcome {
    /// The per-pair simulation results discovered so far, in walk order.
    pub results: Vec<SimulationResult>,
    /// `Some` when the walk stopped early on budget exhaustion.
    pub stopped: Option<BailoutReason>,
    /// DSTs whose evaluation panicked, as `(pred, merge, message)`; the
    /// pair is simply skipped (no candidate, no result).
    pub panicked: Vec<(BlockId, BlockId, String)>,
}

/// Simulates every predecessor→merge duplication in `g` and returns the
/// per-pair results in walk order. Dominators and frequencies are pulled
/// through `cache`, so repeated simulations of an unchanged graph cost no
/// analysis recomputation.
pub fn simulate(g: &Graph, model: &CostModel, cache: &mut AnalysisCache) -> Vec<SimulationResult> {
    simulate_paths(g, model, cache, 1)
}

/// Whether DSTs may continue through a statically-decided branch (the
/// branch-splitting extension). The convenience wrappers enable it; the
/// phase threads its `enable_branch_splitting` config knob through
/// [`simulate_paths_budgeted`].
pub const BRANCH_SPLIT_DEFAULT: bool = true;

/// Like [`simulate`], but lets the DST continue across up to
/// `max_path_len` consecutive merges connected by jumps — the §8
/// "duplication over multiple merges along paths" extension. Every
/// prefix of a path is reported as its own candidate, so the trade-off
/// tier can stop at the profitable length.
pub fn simulate_paths(
    g: &Graph,
    model: &CostModel,
    cache: &mut AnalysisCache,
    max_path_len: usize,
) -> Vec<SimulationResult> {
    simulate_paths_budgeted(
        g,
        model,
        cache,
        max_path_len,
        &Budget::unlimited(),
        BRANCH_SPLIT_DEFAULT,
    )
    .results
}

/// Like [`simulate_paths`], but charges `budget` as it walks and isolates
/// each DST behind a panic guard; `branch_split` gates the
/// branch-splitting continuation. Budget exhaustion stops the walk and
/// reports what was found so far; a panicking DST only loses that one
/// predecessor→merge pair.
pub fn simulate_paths_budgeted(
    g: &Graph,
    model: &CostModel,
    cache: &mut AnalysisCache,
    max_path_len: usize,
    budget: &Budget,
    branch_split: bool,
) -> SimulationOutcome {
    let dt = cache.domtree(g);
    // The reports gate on the cache counters, so this lookup sequence
    // (dominators, loops, frequencies) is part of the deterministic
    // output.
    let _loops_warm = cache.loops(g);
    let freqs = cache.frequencies(g);
    let mut walk = Walk {
        g,
        model,
        dt: &dt,
        freqs: &freqs,
        budget,
        max_path_len: max_path_len.max(1),
        branch_split,
        results: Vec::new(),
        panicked: Vec::new(),
    };
    let stopped = walk.visit(g.entry(), FactEnv::new()).err();
    SimulationOutcome {
        results: walk.results,
        stopped,
        panicked: walk.panicked,
    }
}

/// State of the simulation tier's dominator-tree walk.
struct Walk<'a> {
    g: &'a Graph,
    model: &'a CostModel,
    dt: &'a DomTree,
    freqs: &'a BlockFrequencies,
    budget: &'a Budget,
    max_path_len: usize,
    branch_split: bool,
    results: Vec<SimulationResult>,
    panicked: Vec<(BlockId, BlockId, String)>,
}

impl Walk<'_> {
    /// Visits `b` under `env` (the facts valid on entry to `b`), runs a
    /// DST for every merge successor, then recurses into the dominator
    /// tree children. Mirrors the canonicalization pass's fact
    /// propagation; never mutates the graph. Errs on budget exhaustion.
    fn visit(&mut self, b: BlockId, mut env: FactEnv) -> Result<(), BailoutReason> {
        let g = self.g;
        self.budget.consume(g.block_insts(b).len() as u64 + 1)?;

        // Evaluate this block's instructions to accumulate facts. Fresh
        // allocations become virtual objects so PEA-style reasoning can
        // see through them; `record_effects` materializes them on any
        // escape.
        for &i in g.block_insts(b) {
            let eval = evaluate(g, &env, i);
            if let Inst::New { class } = g.inst(i) {
                env.add_virtual(i, *class);
            }
            record_effects(g, &mut env, i, &eval);
        }

        // Pause for a DST at every merge successor (the gray blocks of
        // Figure 2 in the paper).
        for s in g.succs(b) {
            if s != b && g.is_merge(s) {
                let mut dst_env = env.clone();
                assume_edge(g, &mut dst_env, b, s);
                self.budget.check()?;
                let dst = isolate(|| {
                    fault_point("simulation/dst", None);
                    run_dst(
                        g,
                        self.model,
                        self.freqs,
                        self.budget,
                        dst_env,
                        b,
                        s,
                        self.max_path_len,
                        self.branch_split,
                    )
                });
                match dst {
                    Ok(results) => self.results.extend(results?),
                    Err(BailoutReason::TransformPanicked(msg)) => self.panicked.push((b, s, msg)),
                    // `isolate` only errs with `TransformPanicked`; keep
                    // the message rather than losing it if that contract
                    // ever changes.
                    Err(other) => self.panicked.push((b, s, format!("{other:?}"))),
                }
            }
        }

        let dt = self.dt;
        for &child in dt.children(b) {
            if g.preds(child) == [b] {
                let mut child_env = env.clone();
                assume_edge(g, &mut child_env, b, child);
                self.visit(child, child_env)?;
            } else {
                self.visit(child, env.clone_pure())?;
            }
        }
        Ok(())
    }
}

/// The immediate-dominator chain entry → … → `b` on the current cached
/// dominator tree, in walk order. `None` when `b` is unreachable. The
/// chain is exactly the set of blocks whose contents determine the fact
/// environment the simulation tier saw at `b`, which makes it the
/// interference footprint the optimization tier checks candidates
/// against.
pub(crate) fn dominator_chain(
    g: &Graph,
    cache: &mut AnalysisCache,
    b: BlockId,
) -> Option<Vec<BlockId>> {
    let dt = cache.domtree(g);
    if !dt.is_reachable(b) {
        return None;
    }
    let mut chain = vec![b];
    let mut cur = b;
    while cur != g.entry() {
        cur = dt.idom(cur)?;
        chain.push(cur);
    }
    chain.reverse();
    Some(chain)
}

/// Re-runs the applicability analysis of one recorded candidate against
/// the *current* graph — the optimization tier's prediction audit.
///
/// The simulation tier promises that every recorded [`Opportunity`] will
/// still fire when the optimization tier finally duplicates (§4.1's
/// simulation → §5's application contract). Between recording and
/// application, though, earlier accepted candidates have already mutated
/// the graph. This function replays the dominator-path fact accumulation
/// for `s.pred` on the graph as it stands *now* and runs the DST again,
/// returning the opportunities the analysis would record today.
///
/// The replay is exact, not approximate: during the walk, the fact
/// environment at a block depends only on its dominator-tree path from
/// entry (each child either extends the parent's facts through its sole
/// incoming edge or starts from [`FactEnv::clone_pure`]), so walking the
/// immediate-dominator chain linearly reproduces the facts the DST saw.
/// On an unmutated graph the result always equals the recorded
/// opportunities; any mismatch after mutation is a genuine misprediction.
///
/// Returns `None` when the candidate no longer exists at all (`s.pred`
/// became unreachable). Runs against a local unlimited budget: auditing
/// never charges the phase's fuel.
pub fn audit_opportunities(
    g: &Graph,
    model: &CostModel,
    cache: &mut AnalysisCache,
    s: &SimulationResult,
) -> Option<Vec<Opportunity>> {
    let chain = dominator_chain(g, cache, s.pred)?;
    let freqs = cache.frequencies(g);
    // Accumulate facts along the chain exactly like `Walk::visit`:
    // a child with its parent as sole predecessor extends the parent's
    // facts through the edge condition; any other child starts pure.
    let mut env = FactEnv::new();
    for (k, &b) in chain.iter().enumerate() {
        if k > 0 {
            let parent = chain[k - 1];
            if g.preds(b) == [parent] {
                assume_edge(g, &mut env, parent, b);
            } else {
                env = env.clone_pure();
            }
        }
        for &i in g.block_insts(b) {
            let eval = evaluate(g, &env, i);
            if let Inst::New { class } = g.inst(i) {
                env.add_virtual(i, *class);
            }
            record_effects(g, &mut env, i, &eval);
        }
    }
    assume_edge(g, &mut env, s.pred, s.merge);

    let results = run_dst(
        g,
        model,
        &freqs,
        &Budget::unlimited(),
        env,
        s.pred,
        s.merge,
        s.path.len().max(1),
        // Always allow the fold continuation during audit: whether a
        // recorded BranchSplit path still walks must depend on the graph,
        // not on the phase's enablement knob.
        true,
    )
    .ok()?;
    // The DST emits one result per path prefix; pick the longest prefix
    // of the recorded path that is still walkable.
    results
        .into_iter()
        .filter(|r| s.path.starts_with(&r.path))
        .max_by_key(|r| r.path.len())
        .map(|r| r.opportunities)
}

/// Counts the recorded opportunities the re-run analysis no longer
/// predicts, matching on `(inst, kind)`. The cost estimates are allowed
/// to drift (frequencies change as the graph grows); the *applicability*
/// is what the simulation tier promised.
pub fn count_mispredictions(recorded: &[Opportunity], rerun: &[Opportunity]) -> usize {
    recorded
        .iter()
        .filter(|o| !rerun.iter().any(|r| r.inst == o.inst && r.kind == o.kind))
        .count()
}

/// Refines `env` with the branch condition implied by the edge `b → s`.
fn assume_edge(g: &Graph, env: &mut FactEnv, b: BlockId, s: BlockId) {
    if let Terminator::Branch {
        cond,
        then_bb,
        else_bb,
        ..
    } = g.terminator(b)
    {
        if s == *then_bb {
            let _ = env.assume_condition(g, *cond, true);
        } else if s == *else_bb {
            let _ = env.assume_condition(g, *cond, false);
        }
    }
}

/// Runs one duplication simulation traversal for `(pred, merge)` under
/// `env` (the facts valid at the end of `pred` plus the edge condition).
#[allow(clippy::too_many_arguments)]
fn run_dst(
    g: &Graph,
    model: &CostModel,
    freqs: &BlockFrequencies,
    budget: &Budget,
    mut env: FactEnv,
    pred: BlockId,
    merge: BlockId,
    max_path_len: usize,
    branch_split: bool,
) -> Result<Vec<SimulationResult>, BailoutReason> {
    let probability = if freqs.max_freq() > 0.0 {
        freqs.freq(pred) * dbds_analysis::edge_probability(g, pred, merge) / freqs.max_freq()
    } else {
        0.0
    };

    let mut acc = SegmentAcc {
        opportunities: Vec::new(),
        cycles_saved: 0.0,
        size_cost: 0,
    };
    let mut results = Vec::new();
    let mut path: Vec<BlockId> = Vec::new();
    let mut cur_pred = pred;
    let mut cur_merge = merge;
    // Set once the walk continues *through* a statically-decided branch
    // (the branch-splitting hop); the segment after it is the last.
    let mut via_fold = false;
    loop {
        path.push(cur_merge);
        budget.consume(g.block_insts(cur_merge).len() as u64 + 1)?;
        let saved_before = acc.cycles_saved;
        let continuation = simulate_segment(g, model, &mut env, cur_pred, cur_merge, &mut acc);
        // The trade-off tier ranks by `probability * cycles_saved`;
        // non-finite estimates would poison that total order (the NaN
        // comparator bug), so reject them at construction.
        debug_assert!(
            probability.is_finite() && acc.cycles_saved.is_finite(),
            "non-finite simulation estimate for ({pred} -> {merge}): \
             p={probability}, cycles_saved={}",
            acc.cycles_saved
        );
        // A split extension only earns its keep when the hop itself
        // uncovered further savings — otherwise the shorter merge-dup
        // prefix (already emitted) subsumes it and the candidate list
        // stays free of no-op split variants.
        if !via_fold || acc.cycles_saved > saved_before {
            results.push(SimulationResult {
                pred,
                merge,
                kind: if via_fold {
                    CandidateKind::BranchSplit
                } else {
                    CandidateKind::MergeDup
                },
                path: path.clone(),
                probability,
                cycles_saved: acc.cycles_saved,
                size_cost: acc.size_cost,
                opportunities: acc.opportunities.clone(),
            });
        }
        if via_fold {
            break; // a single hop through a decided branch
        }
        // §8 path extension: continue through an unconditional jump into a
        // further merge (each prefix was already emitted above) — or, when
        // branch splitting is on, through a branch this path decided
        // statically (the probability is unchanged: the branch has exactly
        // one live successor on this path).
        match continuation {
            SegmentCont::Jump(next)
                if path.len() < max_path_len
                    && g.is_merge(next)
                    && next != cur_merge
                    && !path.contains(&next)
                    && next != pred =>
            {
                cur_pred = cur_merge;
                cur_merge = next;
            }
            SegmentCont::Folded(next)
                if branch_split && next != cur_merge && !path.contains(&next) && next != pred =>
            {
                via_fold = true;
                cur_pred = cur_merge;
                cur_merge = next;
            }
            _ => break,
        }
    }
    Ok(results)
}

/// Running totals while a DST walks one or more merge segments.
struct SegmentAcc {
    opportunities: Vec<Opportunity>,
    cycles_saved: f64,
    size_cost: i64,
}

/// How one simulated segment ended: stop, an unconditional jump the §8
/// path extension may follow, or a branch the path's facts decided
/// statically (the branch-splitting continuation may follow its taken
/// successor).
enum SegmentCont {
    Stop,
    Jump(BlockId),
    Folded(BlockId),
}

/// Evaluates one merge block of a DST path under `env` (facts valid at
/// the end of `pred`), accumulating into `acc`. Returns how the
/// (possibly folded) terminator allows the path to continue.
fn simulate_segment(
    g: &Graph,
    model: &CostModel,
    env: &mut FactEnv,
    pred: BlockId,
    merge: BlockId,
    acc: &mut SegmentAcc,
) -> SegmentCont {
    let k = g.pred_index(merge, pred);

    // Seed the synonym map: every φ of the merge maps to its input on the
    // `pred` edge ("the synonym of relation" of Figure 3d).
    let phis: Vec<InstId> = g.phis(merge).to_vec();
    for &phi in &phis {
        let input = match g.inst(phi) {
            Inst::Phi { inputs } => inputs[k],
            _ => unreachable!(),
        };
        // A φ that is its own input on this edge (a loop φ carrying its
        // value around the back edge) needs no synonym. Test the raw
        // input too: the walk may already have aliased the φ (φ(x, φ) =
        // x), so resolving the input yields the alias, not the φ.
        if input == phi || env.resolve(input).id == phi {
            continue;
        }
        env.set_synonym(phi, Synonym::Value(input));

        // Predicted scalar replacement (Listing 3/4): if the φ input is an
        // allocation whose only escape is this φ, duplicating removes the
        // escape and the allocation dissolves.
        let rep = env.resolve(input).id;
        if let Inst::New { class } = g.inst(rep) {
            if escapes_only_via_merge_phis(g, rep, merge) {
                env.add_virtual(rep, *class);
                let saved = f64::from(model.cycles(InstKind::New));
                acc.cycles_saved += saved;
                acc.size_cost -= i64::from(model.size(InstKind::New));
                acc.opportunities.push(Opportunity {
                    inst: rep,
                    kind: OptKind::ScalarReplace,
                    cycles_saved: saved,
                    size_delta: -i64::from(model.size(InstKind::New)),
                });
            }
        }
    }

    // Walk the merge block's body as if appended to `pred`.
    for &i in &g.block_insts(merge)[phis.len()..] {
        let kind = g.inst(i).kind();
        let old_cycles = f64::from(model.cycles(kind));
        let old_size = i64::from(model.size(kind));
        let eval = evaluate(g, env, i);
        if let Inst::New { class } = g.inst(i) {
            env.add_virtual(i, *class);
        }
        match &eval.verdict {
            Verdict::Keep => {
                acc.size_cost += old_size;
            }
            Verdict::Const(_) => {
                acc.cycles_saved += old_cycles;
                acc.size_cost += i64::from(model.size(InstKind::Const));
                acc.opportunities.push(Opportunity {
                    inst: i,
                    kind: eval.kind.expect("progress has a kind"),
                    cycles_saved: old_cycles,
                    size_delta: i64::from(model.size(InstKind::Const)) - old_size,
                });
            }
            Verdict::Alias(_) | Verdict::Eliminated => {
                acc.cycles_saved += old_cycles;
                acc.opportunities.push(Opportunity {
                    inst: i,
                    kind: eval.kind.expect("progress has a kind"),
                    cycles_saved: old_cycles,
                    size_delta: -old_size,
                });
            }
            Verdict::Rewrite { op, .. } => {
                let new_kind = InstKind::from(*op);
                let saved = old_cycles - f64::from(model.cycles(new_kind));
                let new_size =
                    i64::from(model.size(new_kind)) + i64::from(model.size(InstKind::Const));
                acc.cycles_saved += saved;
                acc.size_cost += new_size;
                acc.opportunities.push(Opportunity {
                    inst: i,
                    kind: eval.kind.expect("progress has a kind"),
                    cycles_saved: saved,
                    size_delta: new_size - old_size,
                });
            }
        }
        record_effects(g, env, i, &eval);
    }

    // The copied terminator: a branch whose condition became a constant
    // folds to a jump.
    match g.terminator(merge) {
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            ..
        } => {
            let known = env
                .resolve_full(g, *cond)
                .konst
                .and_then(ConstValue::as_bool)
                .or_else(|| env.stamp_of(g, *cond).as_bool_constant());
            match known {
                Some(taken) => {
                    let saved = f64::from(model.cycles(InstKind::Branch))
                        - f64::from(model.cycles(InstKind::Jump));
                    acc.cycles_saved += saved;
                    acc.size_cost += i64::from(model.size(InstKind::Jump));
                    acc.opportunities.push(Opportunity {
                        inst: *cond,
                        kind: OptKind::ConditionalElim,
                        cycles_saved: saved,
                        size_delta: i64::from(model.size(InstKind::Jump))
                            - i64::from(model.size(InstKind::Branch)),
                    });
                    SegmentCont::Folded(if taken { *then_bb } else { *else_bb })
                }
                None => {
                    acc.size_cost += i64::from(model.size(InstKind::Branch));
                    SegmentCont::Stop
                }
            }
        }
        Terminator::Jump { target } => {
            acc.size_cost += i64::from(model.size(InstKind::Jump));
            SegmentCont::Jump(*target)
        }
        term => {
            acc.size_cost += i64::from(model.size(term.kind()));
            SegmentCont::Stop
        }
    }
}

/// Returns `true` when every use of `alloc` is a field access, a foldable
/// test, or an input of a φ belonging to `merge` — i.e. duplicating
/// `merge` removes the only escape.
fn escapes_only_via_merge_phis(g: &Graph, alloc: InstId, merge: BlockId) -> bool {
    for b in g.blocks() {
        for &i in g.block_insts(b) {
            let mut mentions = false;
            g.inst(i).for_each_input(|input| mentions |= input == alloc);
            if !mentions {
                continue;
            }
            let ok = match g.inst(i) {
                Inst::LoadField { object, .. } => *object == alloc,
                Inst::StoreField { object, value, .. } => *object == alloc && *value != alloc,
                Inst::InstanceOf { object, .. } => *object == alloc,
                Inst::Phi { .. } => g.block_of(i) == Some(merge),
                _ => false,
            };
            if !ok {
                return false;
            }
        }
        let mut in_term = false;
        g.terminator(b)
            .for_each_input(|input| in_term |= input == alloc);
        if in_term {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    fn model() -> CostModel {
        CostModel::new()
    }

    /// Figure 3's program f: x / φ(a>b ? x : 2) — on the false path the
    /// division strength-reduces to a shift, CS = 31.
    fn figure3() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("f", &[Type::Int, Type::Int, Type::Int], empty_table());
        let a = b.param(0);
        let bb = b.param(1);
        let x = b.param(2);
        // Give x a non-negative stamp via a dominating guard: x >= 0.
        let zero = b.iconst(0);
        let guard = b.cmp(CmpOp::Ge, x, zero);
        let (bg, bdeopt) = (b.new_block(), b.new_block());
        b.branch(guard, bg, bdeopt, 0.999);
        b.switch_to(bdeopt);
        b.deopt();
        b.switch_to(bg);
        let two = b.iconst(2);
        let c = b.cmp(CmpOp::Gt, a, bb);
        let (bp1, bp2, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bp1, bp2, 0.5);
        b.switch_to(bp1);
        b.jump(bm);
        b.switch_to(bp2);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, two], Type::Int);
        let div = b.div(x, phi);
        b.ret(Some(div));
        (b.finish(), bp1, bp2, bm)
    }

    #[test]
    fn figure3_division_saves_31_cycles_on_constant_path() {
        let (g, bp1, bp2, bm) = figure3();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let r2 = results
            .iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair (bp2, bm) simulated");
        // φ → 2, so x / 2 → x >> 1: CS = 32 − 1 = 31 (§4.1).
        assert!(
            (r2.cycles_saved - 31.0).abs() < 1e-9,
            "expected CS 31, got {}",
            r2.cycles_saved
        );
        assert_eq!(r2.opportunities.len(), 1);
        assert_eq!(r2.opportunities[0].kind, OptKind::StrengthReduce);

        // On the x path the φ becomes x: x / x is NOT reduced by our rules
        // (x may be 0), so no benefit.
        let r1 = results
            .iter()
            .find(|r| r.pred == bp1 && r.merge == bm)
            .expect("pair (bp1, bm) simulated");
        assert!(r1.cycles_saved < 31.0);
    }

    #[test]
    fn figure1_constant_folding_detected() {
        let mut b = GraphBuilder::new("foo", &[Type::Int], empty_table());
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
        let phi = b.phi(vec![x, zero], Type::Int);
        let two = b.iconst(2);
        let sum = b.add(two, phi);
        b.ret(Some(sum));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        assert_eq!(results.len(), 2);
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        // 2 + 0 constant-folds: CS = cycles(Add) = 1.
        assert!(rf.cycles_saved >= 1.0);
        assert!(rf
            .opportunities
            .iter()
            .any(|o| o.kind == OptKind::ConstantFold));
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        // 2 + x does not fold.
        assert!(rt.opportunities.is_empty());
    }

    #[test]
    fn listing1_conditional_elimination_detected() {
        // if (i > 0) p = i else p = 13; if (p > 12) return 12; return i.
        let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, b12, bi) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, b12, bi, 0.5);
        b.switch_to(b12);
        b.ret(Some(twelve));
        b.switch_to(bi);
        b.ret(Some(i));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        // On the false path p = 13 > 12 is true: compare folds + branch
        // folds.
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        let kinds: Vec<OptKind> = rf.opportunities.iter().map(|o| o.kind).collect();
        // The compare of two pinned constants folds (classified as CF) and
        // the branch on it disappears (classified as CE).
        assert!(
            kinds.contains(&OptKind::ConditionalElim) && kinds.len() >= 2,
            "expected compare + branch fold, got {kinds:?}"
        );
        // On the true path i > 0 does not pin i > 12: no fold.
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        assert!(rt.opportunities.len() < rf.opportunities.len());
    }

    #[test]
    fn listing3_pea_detected() {
        // if (a == null) p = new A(0) else p = a; return p.x.
        let mut t = ClassTable::new();
        let acls = t.add_class("A");
        let fx = t.add_field(acls, "x", Type::Int);
        let mut b = GraphBuilder::new("pea", &[Type::Ref(acls)], Arc::new(t));
        let a = b.param(0);
        let null = b.null(acls);
        let isnull = b.cmp(CmpOp::Eq, a, null);
        let (balloc, bpass, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(isnull, balloc, bpass, 0.5);
        b.switch_to(balloc);
        let fresh = b.new_object(acls);
        let zero = b.iconst(0);
        b.store(fresh, fx, zero);
        b.jump(bm);
        b.switch_to(bpass);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![fresh, a], Type::Ref(acls));
        let load = b.load(p, fx);
        b.ret(Some(load));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let ralloc = results.iter().find(|r| r.pred == balloc).unwrap();
        // Allocation elimination (8 cycles) + load from virtual (2 cycles).
        assert!(
            ralloc.cycles_saved >= 10.0,
            "expected ≥10 cycles saved, got {}",
            ralloc.cycles_saved
        );
        assert!(ralloc
            .opportunities
            .iter()
            .any(|o| o.kind == OptKind::ScalarReplace));
        // Negative size contribution from the removed allocation.
        let rpass = results.iter().find(|r| r.pred == bpass).unwrap();
        assert!(ralloc.size_cost < rpass.size_cost);
    }

    #[test]
    fn listing5_read_elimination_detected() {
        // if (i > 0) { s = a.x } else { s = 0 }; return a.x.
        let mut t = ClassTable::new();
        let acls = t.add_class("A");
        let fx = t.add_field(acls, "x", Type::Int);
        let scls = t.add_class("S");
        let fs = t.add_field(scls, "s", Type::Int);
        let mut b = GraphBuilder::new(
            "re",
            &[Type::Ref(acls), Type::Int, Type::Ref(scls)],
            Arc::new(t),
        );
        let a = b.param(0);
        let i = b.param(1);
        let s = b.param(2);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let read1 = b.load(a, fx);
        b.store(s, fs, read1);
        b.jump(bm);
        b.switch_to(bf);
        b.store(s, fs, zero);
        b.jump(bm);
        b.switch_to(bm);
        let read2 = b.load(a, fx);
        b.ret(Some(read2));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        // Read2 becomes fully redundant on the true path.
        assert!(rt.opportunities.iter().any(|o| o.kind == OptKind::ReadElim));
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        assert!(!rf.opportunities.iter().any(|o| o.kind == OptKind::ReadElim));
    }

    /// Listing 1 extended with a payload behind the second test: on the
    /// false path p = 13, so `p > 12` folds *and* the taken successor's
    /// `p + 1` folds too — which only branch splitting can reach.
    fn split_payoff() -> (Graph, BlockId, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("bs", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, b12, bi) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, b12, bi, 0.5);
        b.switch_to(b12);
        let one = b.iconst(1);
        let q = b.add(p, one);
        b.ret(Some(q));
        b.switch_to(bi);
        b.ret(Some(i));
        (b.finish(), bt, bf, bm, b12)
    }

    #[test]
    fn branch_split_continues_through_a_decided_branch() {
        let (g, bt, bf, bm, b12) = split_payoff();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        // The false path decides c2: the DST threads through it into b12
        // where p + 1 folds, producing a strictly better split candidate
        // on top of the plain merge-dup prefix.
        let dup = results
            .iter()
            .find(|r| r.pred == bf && r.kind == CandidateKind::MergeDup)
            .expect("merge-dup prefix emitted");
        let split = results
            .iter()
            .find(|r| r.pred == bf && r.kind == CandidateKind::BranchSplit)
            .expect("split extension emitted");
        assert_eq!(split.path, vec![bm, b12]);
        assert_eq!(dup.path, vec![bm]);
        assert!(
            split.cycles_saved > dup.cycles_saved,
            "the hop must add savings ({} vs {})",
            split.cycles_saved,
            dup.cycles_saved
        );
        assert!(split
            .opportunities
            .iter()
            .any(|o| o.kind == OptKind::ConstantFold));
        // The true path decides nothing: no split candidate.
        assert!(!results
            .iter()
            .any(|r| r.pred == bt && r.kind == CandidateKind::BranchSplit));
    }

    #[test]
    fn trim_rule_drops_payoff_free_splits() {
        // Plain Listing 1: the taken successor only returns a constant —
        // the hop adds no cycles, so no BranchSplit variant is emitted
        // and the candidate list matches the pre-split corpus.
        let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, b12, bi) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, b12, bi, 0.5);
        b.switch_to(b12);
        b.ret(Some(twelve));
        b.switch_to(bi);
        b.ret(Some(i));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        assert!(results
            .iter()
            .all(|r| r.kind == CandidateKind::MergeDup && r.path.len() == 1));
    }

    #[test]
    fn disabling_branch_split_suppresses_split_candidates() {
        let (g, _, _, _, _) = split_payoff();
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &Budget::unlimited(),
            false,
        );
        assert!(!outcome.results.is_empty());
        assert!(outcome
            .results
            .iter()
            .all(|r| r.kind == CandidateKind::MergeDup));
    }

    #[test]
    fn probability_reflects_edge_frequency() {
        let mut b = GraphBuilder::new("p", &[Type::Int], empty_table());
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
        let phi = b.phi(vec![x, zero], Type::Int);
        b.ret(Some(phi));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        assert!((rt.probability - 0.9).abs() < 1e-9);
        assert!((rf.probability - 0.1).abs() < 1e-9);
    }

    #[test]
    fn no_merges_no_results() {
        let mut b = GraphBuilder::new("s", &[Type::Int], empty_table());
        let x = b.param(0);
        b.ret(Some(x));
        let g = b.finish();
        assert!(simulate(&g, &model(), &mut AnalysisCache::new()).is_empty());
    }

    #[test]
    fn budgeted_simulation_matches_unbudgeted_when_unlimited() {
        use crate::bailout::Budget;
        let (g, _, _, _) = figure3();
        let plain = simulate(&g, &model(), &mut AnalysisCache::new());
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &Budget::unlimited(),
            BRANCH_SPLIT_DEFAULT,
        );
        assert!(outcome.stopped.is_none());
        assert!(outcome.panicked.is_empty());
        assert_eq!(outcome.results.len(), plain.len());
        for (a, b) in plain.iter().zip(&outcome.results) {
            assert_eq!((a.pred, a.merge), (b.pred, b.merge));
            assert_eq!(a.cycles_saved, b.cycles_saved);
        }
    }

    #[test]
    fn tiny_fuel_stops_the_walk_with_fuel_exhausted() {
        use crate::bailout::{BailoutReason, Budget, GuardConfig};
        let (g, _, _, _) = figure3();
        let guard = GuardConfig {
            fuel: Some(1),
            ..GuardConfig::default()
        };
        let budget = Budget::new(&guard);
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &budget,
            BRANCH_SPLIT_DEFAULT,
        );
        assert_eq!(outcome.stopped, Some(BailoutReason::FuelExhausted));
        // Partial results are still usable (possibly empty).
        assert!(outcome.results.len() <= 4);
    }

    #[test]
    fn fuel_pressure_yields_a_prefix_of_the_full_walk() {
        use crate::bailout::GuardConfig;
        let (g, _, _, _) = figure3();
        let full = simulate(&g, &model(), &mut AnalysisCache::new());
        for fuel in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            let budget = Budget::new(&GuardConfig {
                fuel: Some(fuel),
                ..GuardConfig::default()
            });
            let outcome = simulate_paths_budgeted(
                &g,
                &model(),
                &mut AnalysisCache::new(),
                1,
                &budget,
                BRANCH_SPLIT_DEFAULT,
            );
            assert!(full.starts_with(&outcome.results), "fuel {fuel}");
            if outcome.stopped.is_none() {
                assert_eq!(outcome.results, full, "fuel {fuel}");
            }
        }
    }

    #[test]
    fn loop_phi_on_its_own_back_edge_is_simulated() {
        // The walk aliases φ(x, φ) to x; the back edge's DST then sees
        // the φ as its own input. It used to map the φ to itself, panic
        // in `FactEnv::set_synonym` and silently lose the candidate.
        let g = dbds_ir::parse_module(
            "func @selfloop(x: int) {\n\
             entry:\n  zero: int = const 0\n  jump header\n\
             header:\n  p: int = phi [entry: x, latch: p]\n  c: bool = cmp gt p, zero\n  \
             branch c, latch, exit, prob 0.5\n\
             latch:\n  jump header\n\
             exit:\n  return p\n}",
        )
        .expect("parses")
        .graphs
        .remove(0);
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &Budget::unlimited(),
            BRANCH_SPLIT_DEFAULT,
        );
        assert!(outcome.panicked.is_empty(), "{:?}", outcome.panicked);
        let (header, latch) = (BlockId(1), BlockId(2));
        let back = outcome
            .results
            .iter()
            .find(|r| r.pred == latch && r.merge == header)
            .expect("back-edge candidate simulated");
        // p > 0 holds on the back edge, so the compare and branch fold.
        assert!(back.cycles_saved > 0.0, "{back:?}");
    }

    #[test]
    fn audit_reproduces_recorded_opportunities_on_unchanged_graph() {
        // The contract the prediction audit relies on: replaying the
        // dominator chain gives back exactly the collect-time facts, so
        // on an unmutated graph the audit confirms every opportunity of
        // every candidate.
        let (g, _, _, _) = figure3();
        let mut cache = AnalysisCache::new();
        let results = simulate(&g, &model(), &mut cache);
        assert!(!results.is_empty());
        for r in &results {
            let rerun = audit_opportunities(&g, &model(), &mut cache, r)
                .expect("candidate exists on the unchanged graph");
            assert_eq!(
                rerun, r.opportunities,
                "audit diverged for ({} -> {})",
                r.pred, r.merge
            );
            assert_eq!(count_mispredictions(&r.opportunities, &rerun), 0);
        }
    }

    #[test]
    fn audit_detects_fabricated_misprediction() {
        // Fail-first for LintId::Misprediction: tamper a recorded
        // opportunity so its applicability check cannot re-fire, and the
        // audit must flag it.
        let (g, _, bp2, bm) = figure3();
        let mut cache = AnalysisCache::new();
        let results = simulate(&g, &model(), &mut cache);
        let mut r = results
            .iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair simulated")
            .clone();
        assert!(!r.opportunities.is_empty());
        // Point the opportunity at an instruction the DST never visits.
        r.opportunities[0].inst = InstId(0);
        r.opportunities[0].kind = OptKind::ScalarReplace;
        let rerun =
            audit_opportunities(&g, &model(), &mut cache, &r).expect("candidate still exists");
        assert!(
            count_mispredictions(&r.opportunities, &rerun) >= 1,
            "tampered opportunity must be reported as mispredicted"
        );
    }

    #[test]
    fn audit_returns_none_for_unreachable_pred() {
        let (g, _, bp2, bm) = figure3();
        let mut cache = AnalysisCache::new();
        let results = simulate(&g, &model(), &mut cache);
        let mut r = results
            .iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair simulated")
            .clone();
        // A detached block is unreachable; the candidate is gone.
        let mut g2 = g.clone();
        let orphan = g2.add_block();
        r.pred = orphan;
        assert!(audit_opportunities(&g2, &model(), &mut AnalysisCache::new(), &r).is_none());
    }

    #[test]
    fn size_cost_matches_copy_size_when_nothing_fires() {
        // A merge whose body can't be optimized: the size cost is the full
        // copy (body + terminator).
        let mut b = GraphBuilder::new("sz", &[Type::Int, Type::Int], empty_table());
        let x = b.param(0);
        let y = b.param(1);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, y], Type::Int);
        let s = b.add(phi, y);
        let m = b.mul(s, s);
        b.ret(Some(m));
        let g = b.finish();
        let model = model();
        let results = simulate(&g, &model, &mut AnalysisCache::new());
        for r in &results {
            // add(1) + mul(1) + return(2) = 4 size units.
            assert_eq!(r.size_cost, 4, "pred {}", r.pred);
            assert!(r.opportunities.is_empty());
        }
    }
}
