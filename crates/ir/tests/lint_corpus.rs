//! Fail-first corpus for the lint framework: every graph-level
//! [`LintId`] is triggered by a purpose-built malformed (or merely
//! unhygienic) graph, proving each pass actually fires on the defect it
//! is named for. The non-graph lints have fail-first coverage next to
//! their implementations: `StaleAnalysis` in `dbds-analysis`'s cache
//! audit tests, `NonFiniteBenefit`/`NegativeAccruedSize` in
//! `dbds-core`'s `lint_simulation` tests, `Misprediction` in
//! `dbds-core`'s prediction-audit tests, and `FrontierViolation` in
//! `dbds-core`'s post-duplication frontier-check tests.
//!
//! The same corpus pins `verify` to the lint report: `verify` skips the
//! warn-severity work, and its problems must still be exactly the
//! messages of `lint(g).errors()`, in order.

use dbds_ir::{
    lint, BinOp, ClassTable, CmpOp, ConstValue, Graph, GraphBuilder, Inst, InstId, LintId,
    LintReport, Severity, Terminator, Type,
};
use std::sync::Arc;

fn empty_table() -> Arc<ClassTable> {
    Arc::new(ClassTable::new())
}

/// The well-formed diamond every broken variant starts from.
fn diamond() -> Graph {
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
    let phi = b.phi(vec![x, zero], Type::Int);
    b.ret(Some(phi));
    b.finish()
}

/// Asserts the defect shows up under exactly the expected lint, with the
/// severity the lint declares.
fn expect_lint(report: &LintReport, lint: LintId) {
    assert!(
        report.count_of(lint) > 0,
        "expected {} to fire, got:\n{report}",
        lint.name()
    );
    for d in report.diagnostics() {
        assert_eq!(d.severity, d.lint.severity(), "{report}");
    }
}

#[test]
fn clean_diamond_is_clean() {
    let report = lint(&diamond());
    assert!(report.is_clean(), "{report}");
}

/// Retargets bt's jump to the entry block: entry gains a predecessor.
fn entry_with_predecessors() -> Graph {
    let mut g = diamond();
    let bt = g.blocks().nth(1).expect("bt exists");
    g.set_terminator(bt, Terminator::Jump { target: g.entry() });
    g
}

#[test]
fn graph_consistency_fires_on_entry_with_predecessors() {
    expect_lint(&lint(&entry_with_predecessors()), LintId::GraphConsistency);
}

/// The diamond with its branch probability set to `prob`.
fn diamond_with_probability(prob: f64) -> Graph {
    let mut g = diamond();
    g.set_branch_probability(g.entry(), prob);
    g
}

const BAD_PROBABILITIES: [f64; 3] = [2.0, -0.5, f64::NAN];

#[test]
fn branch_probability_fires_outside_unit_interval() {
    for bad in BAD_PROBABILITIES {
        expect_lint(
            &lint(&diamond_with_probability(bad)),
            LintId::BranchProbability,
        );
    }
}

/// Drops one φ input behind the builder's back: one input left, two
/// predecessors.
fn phi_arity_mismatch() -> Graph {
    let mut g = diamond();
    let bm = g.blocks().nth(3).expect("bm exists");
    let phi = g.phis(bm)[0];
    if let Inst::Phi { inputs } = g.inst_mut(phi) {
        inputs.pop();
    }
    g
}

#[test]
fn phi_placement_fires_on_arity_mismatch() {
    expect_lint(&lint(&phi_arity_mismatch()), LintId::PhiPlacement);
}

fn param_outside_entry() -> Graph {
    let mut g = diamond();
    let bt = g.blocks().nth(1).expect("bt exists");
    g.append_inst(bt, Inst::Param(0), Type::Int);
    g
}

#[test]
fn param_placement_fires_outside_entry() {
    expect_lint(&lint(&param_outside_entry()), LintId::ParamPlacement);
}

fn out_of_range_operand() -> Graph {
    let mut g = diamond();
    let e = g.entry();
    g.append_inst(
        e,
        Inst::Binary {
            op: BinOp::Add,
            lhs: g.param_values()[0],
            rhs: InstId(999),
        },
        Type::Int,
    );
    g
}

#[test]
fn dangling_use_fires_on_out_of_range_operand() {
    expect_lint(&lint(&out_of_range_operand()), LintId::DanglingUse);
}

fn boolean_arithmetic() -> Graph {
    let mut g = Graph::new("t", &[Type::Bool], empty_table());
    let e = g.entry();
    let p = g.param_values()[0];
    let bad = g.append_inst(
        e,
        Inst::Binary {
            op: BinOp::Add,
            lhs: p,
            rhs: p,
        },
        Type::Int,
    );
    g.set_terminator(e, Terminator::Return { value: Some(bad) });
    g
}

#[test]
fn type_error_fires_on_boolean_arithmetic() {
    expect_lint(&lint(&boolean_arithmetic()), LintId::TypeError);
}

fn use_before_def() -> Graph {
    let mut g = Graph::new("u", &[], empty_table());
    let e = g.entry();
    let c1 = g.append_inst(e, Inst::Const(ConstValue::Int(1)), Type::Int);
    // rhs references the constant appended below.
    let add = g.append_inst(
        e,
        Inst::Binary {
            op: BinOp::Add,
            lhs: c1,
            rhs: InstId(2),
        },
        Type::Int,
    );
    let _c2 = g.append_inst(e, Inst::Const(ConstValue::Int(2)), Type::Int);
    g.set_terminator(e, Terminator::Return { value: Some(add) });
    g
}

#[test]
fn ssa_dominance_fires_on_use_before_def() {
    expect_lint(&lint(&use_before_def()), LintId::SsaDominance);
}

/// The diamond plus an unreachable block that still holds code.
fn orphan_with_instructions() -> Graph {
    let mut g = diamond();
    let orphan = g.add_block();
    let c = g.append_inst(orphan, Inst::Const(ConstValue::Int(7)), Type::Int);
    g.set_terminator(orphan, Terminator::Return { value: Some(c) });
    g
}

#[test]
fn unreachable_block_fires_on_orphan_with_instructions() {
    let report = lint(&orphan_with_instructions());
    expect_lint(&report, LintId::UnreachableBlock);
    // Hygiene only: the graph still verifies.
    assert_eq!(report.error_count(), 0, "{report}");
}

fn trivial_phi() -> Graph {
    let mut b = GraphBuilder::new("tp", &[Type::Int], empty_table());
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
    let phi = b.phi(vec![x, x], Type::Int); // both edges deliver x
    b.ret(Some(phi));
    b.finish()
}

#[test]
fn trivial_phi_fires_when_every_input_agrees() {
    let report = lint(&trivial_phi());
    expect_lint(&report, LintId::TrivialPhi);
    assert_eq!(report.error_count(), 0, "{report}");
}

/// entry branches to bt and directly to bm; bt falls through to bm, so
/// the entry→bm edge leaves a multi-successor block and enters a
/// multi-predecessor block: a critical edge.
fn critical_edge() -> Graph {
    let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
    let x = b.param(0);
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, x, zero);
    let (bt, bm) = (b.new_block(), b.new_block());
    b.branch(c, bt, bm, 0.5);
    b.switch_to(bt);
    b.jump(bm);
    b.switch_to(bm);
    let phi = b.phi(vec![zero, x], Type::Int);
    b.ret(Some(phi));
    b.finish()
}

#[test]
fn critical_edge_fires_on_branch_into_merge() {
    let report = lint(&critical_edge());
    expect_lint(&report, LintId::CriticalEdge);
    assert_eq!(report.error_count(), 0, "{report}");
}

/// entry → {spin, done}; spin never reaches a return.
fn infinite_region() -> Graph {
    let mut b = GraphBuilder::new("inf", &[Type::Bool], empty_table());
    let c = b.param(0);
    let spin = b.new_block();
    let done = b.new_block();
    b.branch(c, spin, done, 0.5);
    b.switch_to(spin);
    b.jump(spin);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

#[test]
fn no_exit_path_fires_on_an_infinite_region() {
    let report = lint(&infinite_region());
    expect_lint(&report, LintId::NoExitPath);
    assert_eq!(report.error_count(), 0, "{report}");
}

/// bt holds an instruction but is control dependent on an edge whose
/// probability is exactly 0: the profile and the control-dependence
/// structure contradict each other.
fn never_taken_dependent_code() -> Graph {
    let mut b = GraphBuilder::new("cd", &[Type::Int], empty_table());
    let x = b.param(0);
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, x, zero);
    let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(c, bt, bf, 0.0);
    b.switch_to(bt);
    let y = b.add(x, x);
    b.jump(bm);
    b.switch_to(bf);
    b.jump(bm);
    b.switch_to(bm);
    let phi = b.phi(vec![y, zero], Type::Int);
    b.ret(Some(phi));
    b.finish()
}

#[test]
fn control_dep_violation_fires_on_never_taken_dependent_code() {
    expect_lint(
        &lint(&never_taken_dependent_code()),
        LintId::ControlDepViolation,
    );
}

#[test]
fn hygiene_lints_are_warnings_and_do_not_fail_verify() {
    for warn_only in [
        LintId::UnreachableBlock,
        LintId::TrivialPhi,
        LintId::CriticalEdge,
        LintId::Misprediction,
        LintId::NoExitPath,
    ] {
        assert_eq!(warn_only.severity(), Severity::Warn);
    }
    // A graph with only hygiene findings still passes verify().
    dbds_ir::verify(&orphan_with_instructions())
        .expect("warn-severity findings must not fail verification");
}

/// Every graph above, clean and broken alike.
fn corpus() -> Vec<Graph> {
    let mut graphs = vec![
        diamond(),
        entry_with_predecessors(),
        phi_arity_mismatch(),
        param_outside_entry(),
        out_of_range_operand(),
        boolean_arithmetic(),
        use_before_def(),
        orphan_with_instructions(),
        trivial_phi(),
        critical_edge(),
        infinite_region(),
        never_taken_dependent_code(),
    ];
    graphs.extend(BAD_PROBABILITIES.map(diamond_with_probability));
    graphs
}

/// The first breakage the fault injector's `corrupt` applies: widen the
/// first φ past its block's predecessor count.
fn widen_first_phi(g: &Graph) -> Option<Graph> {
    let mut g = g.clone();
    let phi = g.blocks().find_map(|b| g.phis(b).first().copied())?;
    if let Inst::Phi { inputs } = g.inst_mut(phi) {
        let first = *inputs.first()?;
        inputs.push(first);
    }
    Some(g)
}

/// The injector's fallback breakage: detach the first instruction that
/// another instruction or a terminator still uses.
fn detach_used_instruction(g: &Graph) -> Option<Graph> {
    let mut g = g.clone();
    let mut used = vec![false; g.inst_count()];
    for b in g.reachable_blocks() {
        let mut mark = |input: InstId| {
            if let Some(u) = used.get_mut(input.index()) {
                *u = true;
            }
        };
        for &i in g.block_insts(b) {
            g.inst(i).for_each_input(&mut mark);
        }
        g.terminator(b).for_each_input(&mut mark);
    }
    let victim = g
        .reachable_blocks()
        .into_iter()
        .flat_map(|b| g.block_insts(b).to_vec())
        .find(|i| used[i.index()])?;
    g.remove_inst(victim);
    Some(g)
}

#[test]
fn verify_reports_exactly_the_lint_errors() {
    let mut graphs = corpus();
    let broken: Vec<Graph> = graphs
        .iter()
        .flat_map(|g| [widen_first_phi(g), detach_used_instruction(g)])
        .flatten()
        .collect();
    assert!(broken.len() >= graphs.len(), "both breakages must apply");
    graphs.extend(broken);
    let mut failing = 0;
    for g in &graphs {
        let expected: Vec<String> = lint(g).errors().map(|d| d.message.clone()).collect();
        let problems = dbds_ir::verify(g)
            .err()
            .map_or_else(Vec::new, |e| e.problems);
        assert_eq!(problems, expected, "verify and lint disagree on\n{g}");
        failing += usize::from(!problems.is_empty());
    }
    assert!(failing > graphs.len() / 2, "the corpus must mostly fail");
}

#[test]
fn every_graph_level_lint_has_a_corpus_entry() {
    // The four non-graph lints are exercised in their home crates (see
    // the module docs); everything else must fire somewhere above. This
    // keeps the corpus honest when a new LintId lands.
    let graph_level = [
        LintId::GraphConsistency,
        LintId::BranchProbability,
        LintId::PhiPlacement,
        LintId::ParamPlacement,
        LintId::DanglingUse,
        LintId::TypeError,
        LintId::SsaDominance,
        LintId::UnreachableBlock,
        LintId::TrivialPhi,
        LintId::CriticalEdge,
        LintId::NoExitPath,
        LintId::ControlDepViolation,
    ];
    let elsewhere = [
        LintId::StaleAnalysis,
        LintId::NonFiniteBenefit,
        LintId::NegativeAccruedSize,
        LintId::Misprediction,
        LintId::FrontierViolation,
    ];
    for id in LintId::ALL {
        assert!(
            graph_level.contains(id) || elsewhere.contains(id),
            "{} has no fail-first coverage",
            id.name()
        );
    }
}
