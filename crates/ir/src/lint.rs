//! Structured static-analysis framework for the IR.
//!
//! Where [`crate::verify`] answers "is this graph sound?" with a flat
//! list of strings, this module gives every check an identity
//! ([`LintId`]), a severity ([`Severity`]) and a location, so bailout
//! records, the harness and CI can reason about *which* invariant broke
//! and how often. The pieces:
//!
//! - [`Diagnostic`]: one finding — lint id, severity, optional block /
//!   instruction anchor and the human-readable message.
//! - [`lint`]: runs the built-in graph passes in a fixed order — edge
//!   bookkeeping, block layout, types, SSA dominance, CFG hygiene and
//!   reverse-CFG structure. Higher layers (dbds-analysis' cached-analysis
//!   audit, dbds-core's cost-sanity and prediction audits) contribute
//!   [`Diagnostic`]s for the non-graph lints of [`LintId`] through
//!   [`LintReport::extend`].
//! - [`LintReport`]: the sorted, deterministic result. Diagnostics are
//!   ordered by (block, instruction, lint, message) regardless of the
//!   order passes emitted them, so two runs over the same graph render
//!   byte-identical output.
//!
//! [`crate::verify`] is a thin wrapper over this module: it runs the
//! same passes minus the warn-severity work (no hygiene pass, no
//! [`LintId::NoExitPath`]) and reports their messages, so every call
//! site (including the bailout checkpoint path) runs the lint
//! framework's error-severity checks without paying for the
//! warn-severity ones. [`crate::verify_with`] takes a [`DomTree`] the
//! caller already built, so a checkpoint that also needs the tree
//! builds it once.
//!
//! # Examples
//!
//! ```
//! use dbds_ir::{lint, parse_module, LintId};
//!
//! let m = parse_module(
//!     "func @f(c: bool) {\n\
//!      entry:\n  branch c, bt, bf, prob 0.5\n\
//!      bt:\n  jump bm\n\
//!      bf:\n  jump bm\n\
//!      bm:\n  return\n}",
//! )?;
//! let report = lint(&m.graphs[0]);
//! assert!(report.is_clean());
//! assert_eq!(report.count_of(LintId::SsaDominance), 0);
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

use crate::ids::{BlockId, InstId};
use crate::inst::{CmpOp, Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::{DomTree, Graph};
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A hygiene or quality finding; the graph is still sound.
    Warn,
    /// A broken invariant; the graph must not be compiled further.
    Error,
}

impl Severity {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares [`LintId`] in one place: the variant (with its doc), its
/// stable kebab-case name and its fixed severity. The `ALL` slice,
/// `name()` and `severity()` are generated from the same list, so adding
/// a lint cannot desync the per-lint counters that iterate `ALL` — the
/// compiler derives the slice length from the declaration itself.
macro_rules! declare_lints {
    ($( $(#[$meta:meta])* $variant:ident = $name:literal => $sev:ident ),+ $(,)?) => {
        /// The identity of one lint. Every diagnostic the workspace
        /// produces carries one of these, and the per-lint counters of
        /// the harness report iterate [`LintId::ALL`] in this (stable)
        /// order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintId {
            $( $(#[$meta])* $variant, )+
        }

        impl LintId {
            /// Every lint, in report order. Generated alongside the enum,
            /// so the slice can never go out of sync with the variants.
            pub const ALL: &'static [LintId] = &[ $(LintId::$variant),+ ];

            /// Stable kebab-case name (used by reports and the CI gate).
            pub fn name(self) -> &'static str {
                match self { $(LintId::$variant => $name),+ }
            }

            /// The fixed severity of this lint.
            pub fn severity(self) -> Severity {
                match self { $(LintId::$variant => Severity::$sev),+ }
            }
        }
    };
}

declare_lints! {
    /// Edge / listing bookkeeping: pred–succ symmetry, entry
    /// predecessors, duplicate branch targets, unreachable predecessors
    /// of reachable blocks, instruction↔block record mismatches.
    GraphConsistency = "graph-consistency" => Error,
    /// Branch probability outside `[0, 1]` or NaN.
    BranchProbability = "branch-probability" => Error,
    /// φ after a non-φ, φ arity vs. predecessor count, φ in a block
    /// without predecessors.
    PhiPlacement = "phi-placement" => Error,
    /// Param outside the entry block, index out of range, or type
    /// mismatch with the signature.
    ParamPlacement = "param-placement" => Error,
    /// A use of an out-of-range value or a removed instruction.
    DanglingUse = "dangling-use" => Error,
    /// An instruction whose operand or result types violate its rules.
    TypeError = "type-error" => Error,
    /// A use not dominated by its definition (including φ inputs that do
    /// not dominate their predecessor).
    SsaDominance = "ssa-dominance" => Error,
    /// A block unreachable from entry that still holds instructions —
    /// the cleanup pass should have emptied it.
    UnreachableBlock = "unreachable-block" => Warn,
    /// A φ whose inputs are all the same value (or itself): a synonym
    /// the simplifier should have folded.
    TrivialPhi = "trivial-phi" => Warn,
    /// A critical edge into a merge: the source has several successors
    /// and the target several predecessors, so nothing can be sunk onto
    /// the edge without splitting it.
    CriticalEdge = "critical-edge" => Warn,
    /// A versioned [`AnalysisCache`](https://docs.rs/) entry that claims
    /// to be current but differs from a from-scratch recomputation
    /// (emitted by dbds-analysis' audit).
    StaleAnalysis = "stale-analysis" => Error,
    /// A simulation result with a non-finite (or negative) probability
    /// or cycles-saved estimate (emitted by dbds-core).
    NonFiniteBenefit = "non-finite-benefit" => Error,
    /// A candidate sequence whose accrued size would go below zero
    /// (emitted by dbds-core).
    NegativeAccruedSize = "negative-accrued-size" => Error,
    /// A recorded opportunity whose applicability check no longer fires
    /// on the graph it is about to be applied to (emitted by the
    /// optimization tier's prediction audit).
    Misprediction = "misprediction" => Warn,
    /// A reachable block with no path to any exit block: an infinite
    /// region the profile-driven tiers cannot attenuate.
    NoExitPath = "no-exit-path" => Warn,
    /// Code that is control dependent on a statically-dead branch edge
    /// (probability exactly 0 toward it): the profile and the
    /// control-dependence structure contradict each other.
    ControlDepViolation = "control-dep-violation" => Error,
    /// A duplication left the dominance frontiers structurally broken:
    /// a frontier disagrees with a definition-based recomputation over
    /// the forward edges, or the copy's and merge's frontiers diverge
    /// although neither block dominates the other (emitted by
    /// dbds-core's post-duplication check).
    FrontierViolation = "frontier-violation" => Error,
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of a lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: LintId,
    /// The lint's severity (always `lint.severity()`).
    pub severity: Severity,
    /// The block the finding anchors to, if any.
    pub block: Option<BlockId>,
    /// The instruction the finding anchors to, if any.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity comes from the lint.
    pub fn new(
        lint: LintId,
        block: Option<BlockId>,
        inst: Option<InstId>,
        message: String,
    ) -> Self {
        Diagnostic {
            lint,
            severity: lint.severity(),
            block,
            inst,
            message,
        }
    }

    /// The deterministic report order: (block, inst, lint); anchorless
    /// diagnostics sort last within their group.
    fn sort_key(&self) -> (u64, u64, LintId, &str) {
        (
            self.block.map_or(u64::MAX, |b| b.index() as u64),
            self.inst.map_or(u64::MAX, |i| i.index() as u64),
            self.lint,
            &self.message,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.lint, self.message)
    }
}

/// The sorted result of running lint passes.
///
/// Diagnostics are kept ordered by (block, inst, lint, message), so the
/// rendered form is identical across runs no matter which pass emitted
/// what first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report from unordered diagnostics.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        LintReport { diagnostics }
    }

    /// All diagnostics, in report order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Merges further diagnostics (e.g. from a non-graph pass) into the
    /// report, restoring the sorted order.
    pub fn extend(&mut self, more: Vec<Diagnostic>) {
        self.diagnostics.extend(more);
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// The error-severity diagnostics, in report order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warn-severity diagnostics, in report order.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warn-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// `true` when no *error*-severity diagnostics were found (warnings
    /// are hygiene, not soundness).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// How many diagnostics carry `lint`.
    pub fn count_of(&self, lint: LintId) -> usize {
        self.diagnostics.iter().filter(|d| d.lint == lint).count()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Runs every built-in pass over `g`.
pub fn lint(g: &Graph) -> LintReport {
    run_passes(g, &DomTree::compute(g), true)
}

/// Runs the built-in passes in their fixed order. Without `warnings`
/// every warn-severity finding is skipped: the hygiene pass is left out
/// and the reverse-CFG pass skips [`LintId::NoExitPath`], so the report
/// equals the error-severity part of [`lint`]'s, which is all
/// [`crate::verify_with`] reads. `dt` must be the dominator tree of `g`.
pub(crate) fn run_passes(g: &Graph, dt: &DomTree, warnings: bool) -> LintReport {
    let mut out = Vec::new();
    edges(g, &mut out);
    blocks(g, &mut out);
    types(g, &mut out);
    dominance(g, dt, &mut out);
    if warnings {
        hygiene(g, &mut out);
    }
    reverse_cfg(g, warnings, &mut out);
    LintReport::from_diagnostics(out)
}

/// Shared emit helper for the built-in passes.
struct Sink<'a> {
    out: &'a mut Vec<Diagnostic>,
}

impl Sink<'_> {
    fn emit(
        &mut self,
        lint: LintId,
        block: Option<BlockId>,
        inst: Option<InstId>,
        message: String,
    ) {
        self.out.push(Diagnostic::new(lint, block, inst, message));
    }
}

/// Edge bookkeeping: pred/succ symmetry, entry predecessors, duplicate
/// branch targets, branch probabilities, unreachable predecessors.
fn edges(g: &Graph, out: &mut Vec<Diagnostic>) {
    let mut s = Sink { out };
    if !g.preds(g.entry()).is_empty() {
        s.emit(
            LintId::GraphConsistency,
            Some(g.entry()),
            None,
            format!("entry {} has predecessors", g.entry()),
        );
    }
    for b in g.blocks() {
        let succs = g.succs(b);
        if succs.len() == 2 && succs[0] == succs[1] {
            s.emit(
                LintId::GraphConsistency,
                Some(b),
                None,
                format!("{b} branches to the same block twice"),
            );
        }
        for succ in &succs {
            let n = g.preds(*succ).iter().filter(|&&p| p == b).count();
            if n != 1 {
                s.emit(
                        LintId::GraphConsistency,
                        Some(b),
                        None,
                        format!(
                            "edge {b} -> {succ}: successor records {n} matching pred entries, expected 1"
                        ),
                    );
            }
        }
        for &p in g.preds(b) {
            if !g.succs(p).contains(&b) {
                s.emit(
                    LintId::GraphConsistency,
                    Some(b),
                    None,
                    format!("{b} lists pred {p}, but {p} does not branch to {b}"),
                );
            }
        }
        if let Terminator::Branch { prob_then, .. } = g.terminator(b) {
            if !(0.0..=1.0).contains(prob_then) || prob_then.is_nan() {
                s.emit(
                    LintId::BranchProbability,
                    Some(b),
                    None,
                    format!("{b}: branch probability {prob_then} outside [0,1]"),
                );
            }
        }
    }
    // Reachable blocks must not have unreachable predecessors: the
    // cleanup pass must disconnect dead code before verification.
    let mut reachable = vec![false; g.block_count()];
    for b in g.reachable_blocks() {
        reachable[b.index()] = true;
    }
    for b in g.blocks().filter(|b| reachable[b.index()]) {
        for &p in g.preds(b) {
            if !reachable[p.index()] {
                s.emit(
                    LintId::GraphConsistency,
                    Some(b),
                    None,
                    format!("reachable {b} has unreachable predecessor {p}"),
                );
            }
        }
    }
}

/// Block layout: instruction↔block records, φ placement and arity, param
/// placement, dangling value references.
fn blocks(g: &Graph, out: &mut Vec<Diagnostic>) {
    let mut s = Sink { out };
    for b in g.blocks() {
        let mut seen_non_phi = false;
        for &i in g.block_insts(b) {
            if g.block_of(i) != Some(b) {
                s.emit(
                    LintId::GraphConsistency,
                    Some(b),
                    Some(i),
                    format!("{i} listed in {b} but records block {:?}", g.block_of(i)),
                );
            }
            match g.inst(i) {
                Inst::Phi { inputs } => {
                    if seen_non_phi {
                        s.emit(
                            LintId::PhiPlacement,
                            Some(b),
                            Some(i),
                            format!("{b}: phi {i} appears after non-phi instructions"),
                        );
                    }
                    if inputs.len() != g.preds(b).len() {
                        s.emit(
                            LintId::PhiPlacement,
                            Some(b),
                            Some(i),
                            format!(
                                "{b}: phi {i} has {} inputs but the block has {} predecessors",
                                inputs.len(),
                                g.preds(b).len()
                            ),
                        );
                    }
                    if g.preds(b).is_empty() {
                        s.emit(
                            LintId::PhiPlacement,
                            Some(b),
                            Some(i),
                            format!("{b}: phi {i} in a block without predecessors"),
                        );
                    }
                }
                Inst::Param(idx) => {
                    if b != g.entry() {
                        s.emit(
                            LintId::ParamPlacement,
                            Some(b),
                            Some(i),
                            format!("param {i} outside the entry block"),
                        );
                    }
                    if *idx as usize >= g.param_types().len() {
                        s.emit(
                            LintId::ParamPlacement,
                            Some(b),
                            Some(i),
                            format!("param {i} index {idx} out of range"),
                        );
                    } else if g.ty(i) != g.param_types()[*idx as usize] {
                        s.emit(
                            LintId::ParamPlacement,
                            Some(b),
                            Some(i),
                            format!("param {i} type mismatch with signature"),
                        );
                    }
                    seen_non_phi = true;
                }
                _ => seen_non_phi = true,
            }
            g.inst(i).for_each_input(|input| {
                if input.index() >= g.inst_count() {
                    s.emit(
                        LintId::DanglingUse,
                        Some(b),
                        Some(i),
                        format!("{i} references out-of-range value {input}"),
                    );
                } else if g.block_of(input).is_none() {
                    s.emit(
                        LintId::DanglingUse,
                        Some(b),
                        Some(i),
                        format!("{i} in {b} uses removed instruction {input}"),
                    );
                }
            });
        }
        g.terminator(b).for_each_input(|input| {
            if g.block_of(input).is_none() {
                s.emit(
                    LintId::DanglingUse,
                    Some(b),
                    None,
                    format!("terminator of {b} uses removed instruction {input}"),
                );
            }
        });
    }
}

fn comparable(a: Type, b: Type) -> bool {
    matches!(
        (a, b),
        (Type::Int, Type::Int)
            | (Type::Bool, Type::Bool)
            | (Type::Arr, Type::Arr)
            | (Type::Ref(_), Type::Ref(_))
    )
}

fn check_receiver(
    s: &mut Sink<'_>,
    g: &Graph,
    b: BlockId,
    at: InstId,
    object: InstId,
    field: crate::ids::FieldId,
) {
    let table = g.class_table();
    if !table.contains_field(field) {
        s.emit(
            LintId::TypeError,
            Some(b),
            Some(at),
            format!("{at}: unknown field {field}"),
        );
        return;
    }
    match g.ty(object) {
        Type::Ref(c) => {
            if !table.field_belongs_to(field, c) {
                s.emit(
                    LintId::TypeError,
                    Some(b),
                    Some(at),
                    format!("{at}: field {field} does not belong to class {c}"),
                );
            }
        }
        other => s.emit(
            LintId::TypeError,
            Some(b),
            Some(at),
            format!("{at}: field access on {other}"),
        ),
    }
}

fn expect_type(s: &mut Sink<'_>, g: &Graph, b: BlockId, at: InstId, v: InstId, ty: Type) {
    let actual = g.ty(v);
    if actual != ty {
        s.emit(
            LintId::TypeError,
            Some(b),
            Some(at),
            format!("{at}: operand {v} has type {actual}, expected {ty}"),
        );
    }
}

/// Per-instruction type rules plus branch-condition typing.
#[allow(clippy::too_many_lines)]
fn types(g: &Graph, out: &mut Vec<Diagnostic>) {
    let mut s = Sink { out };
    let table = g.class_table().clone();
    for b in g.blocks() {
        for &i in g.block_insts(b) {
            // Out-of-range operands are DanglingUse findings; typing
            // them would index past the instruction table.
            let mut out_of_range = false;
            g.inst(i).for_each_input(|input| {
                if input.index() >= g.inst_count() {
                    out_of_range = true;
                }
            });
            if out_of_range {
                continue;
            }
            let ty = g.ty(i);
            let err =
                |s: &mut Sink<'_>, msg: String| s.emit(LintId::TypeError, Some(b), Some(i), msg);
            match g.inst(i) {
                Inst::Const(c) => {
                    if c.ty() != ty {
                        err(&mut s, format!("{i}: constant {c} typed {ty}"));
                    }
                    if let ConstValue::Null(cl) = c {
                        if !table.contains_class(*cl) {
                            err(&mut s, format!("{i}: null of unknown class {cl}"));
                        }
                    }
                }
                Inst::Param(_) => {}
                Inst::Binary { lhs, rhs, .. } => {
                    expect_type(&mut s, g, b, i, *lhs, Type::Int);
                    expect_type(&mut s, g, b, i, *rhs, Type::Int);
                    if ty != Type::Int {
                        err(&mut s, format!("{i}: binary op typed {ty}"));
                    }
                }
                Inst::Compare { op, lhs, rhs } => {
                    let lt = g.ty(*lhs);
                    let rt = g.ty(*rhs);
                    let ordered = matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
                    if ordered && (lt != Type::Int || rt != Type::Int) {
                        err(&mut s, format!("{i}: ordered comparison of {lt} and {rt}"));
                    }
                    if !ordered && !comparable(lt, rt) {
                        err(&mut s, format!("{i}: equality comparison of {lt} and {rt}"));
                    }
                    if ty != Type::Bool {
                        err(&mut s, format!("{i}: comparison typed {ty}"));
                    }
                }
                Inst::Not(x) => {
                    expect_type(&mut s, g, b, i, *x, Type::Bool);
                    if ty != Type::Bool {
                        err(&mut s, format!("{i}: not typed {ty}"));
                    }
                }
                Inst::Neg(x) => {
                    expect_type(&mut s, g, b, i, *x, Type::Int);
                    if ty != Type::Int {
                        err(&mut s, format!("{i}: neg typed {ty}"));
                    }
                }
                Inst::Phi { inputs } => {
                    for &input in inputs {
                        if g.ty(input) != ty {
                            err(
                                &mut s,
                                format!(
                                    "{i}: phi typed {ty} has input {input} of type {}",
                                    g.ty(input)
                                ),
                            );
                        }
                    }
                }
                Inst::New { class } => {
                    if !table.contains_class(*class) {
                        err(&mut s, format!("{i}: new of unknown class {class}"));
                    } else if ty != Type::Ref(*class) {
                        err(&mut s, format!("{i}: new {class} typed {ty}"));
                    }
                }
                Inst::LoadField { object, field } => {
                    check_receiver(&mut s, g, b, i, *object, *field);
                    if table.contains_field(*field) && ty != table.field(*field).ty {
                        err(&mut s, format!("{i}: load of {field} typed {ty}"));
                    }
                }
                Inst::StoreField {
                    object,
                    field,
                    value,
                } => {
                    check_receiver(&mut s, g, b, i, *object, *field);
                    if table.contains_field(*field) && g.ty(*value) != table.field(*field).ty {
                        err(
                            &mut s,
                            format!("{i}: store of {} into {field}", g.ty(*value)),
                        );
                    }
                    if ty != Type::Void {
                        err(&mut s, format!("{i}: store typed {ty}"));
                    }
                }
                Inst::InstanceOf { object, class } => {
                    if !matches!(g.ty(*object), Type::Ref(_)) {
                        err(&mut s, format!("{i}: instanceof on {}", g.ty(*object)));
                    }
                    if !table.contains_class(*class) {
                        err(&mut s, format!("{i}: instanceof unknown class {class}"));
                    }
                    if ty != Type::Bool {
                        err(&mut s, format!("{i}: instanceof typed {ty}"));
                    }
                }
                Inst::NewArray { length } => {
                    expect_type(&mut s, g, b, i, *length, Type::Int);
                    if ty != Type::Arr {
                        err(&mut s, format!("{i}: newarray typed {ty}"));
                    }
                }
                Inst::ArrayLoad { array, index } => {
                    expect_type(&mut s, g, b, i, *array, Type::Arr);
                    expect_type(&mut s, g, b, i, *index, Type::Int);
                    if ty != Type::Int {
                        err(&mut s, format!("{i}: aload typed {ty}"));
                    }
                }
                Inst::ArrayStore {
                    array,
                    index,
                    value,
                } => {
                    expect_type(&mut s, g, b, i, *array, Type::Arr);
                    expect_type(&mut s, g, b, i, *index, Type::Int);
                    expect_type(&mut s, g, b, i, *value, Type::Int);
                    if ty != Type::Void {
                        err(&mut s, format!("{i}: astore typed {ty}"));
                    }
                }
                Inst::ArrayLength(a) => {
                    expect_type(&mut s, g, b, i, *a, Type::Arr);
                    if ty != Type::Int {
                        err(&mut s, format!("{i}: alength typed {ty}"));
                    }
                }
                Inst::Invoke { args } => {
                    for &a in args {
                        if g.ty(a) == Type::Void {
                            err(&mut s, format!("{i}: invoke passes void value {a}"));
                        }
                    }
                    if ty != Type::Int {
                        err(&mut s, format!("{i}: invoke typed {ty}"));
                    }
                }
            }
        }
        if let Terminator::Branch { cond, .. } = g.terminator(b) {
            if cond.index() < g.inst_count() && g.ty(*cond) != Type::Bool {
                s.emit(
                    LintId::TypeError,
                    Some(b),
                    None,
                    format!("terminator of {b}: branch on {}", g.ty(*cond)),
                );
            }
        }
    }
}

/// The SSA dominance property: every use is dominated by its definition,
/// and every φ input dominates (the end of) its predecessor.
fn dominance(g: &Graph, dom: &DomTree, out: &mut Vec<Diagnostic>) {
    let mut s = Sink { out };
    // Position of each instruction within its block for same-block
    // checks (`usize::MAX` for instructions no block lists).
    let mut pos = vec![usize::MAX; g.inst_count()];
    for b in g.blocks() {
        for (k, &i) in g.block_insts(b).iter().enumerate() {
            if let Some(p) = pos.get_mut(i.index()) {
                *p = k;
            }
        }
    }
    let available_at_end = |v: InstId, b: BlockId| {
        if v.index() >= g.inst_count() {
            return false;
        }
        match g.block_of(v) {
            Some(db) => dom.dominates(db, b),
            None => false,
        }
    };
    let dominates_use = |v: InstId, b: BlockId, use_pos: usize| {
        if v.index() >= g.inst_count() {
            return false;
        }
        match g.block_of(v) {
            Some(db) if db == b => pos[v.index()] < use_pos,
            Some(db) => dom.dominates(db, b),
            None => false,
        }
    };
    for &b in dom.reverse_postorder() {
        for (k, &i) in g.block_insts(b).iter().enumerate() {
            match g.inst(i) {
                Inst::Phi { inputs } => {
                    for (input, &pred) in inputs.iter().zip(g.preds(b)) {
                        if !available_at_end(*input, pred) {
                            s.emit(
                                    LintId::SsaDominance,
                                    Some(b),
                                    Some(i),
                                    format!(
                                        "{i} in {b}: phi input {input} does not dominate predecessor {pred}"
                                    ),
                                );
                        }
                    }
                }
                inst => {
                    let mut bad = Vec::new();
                    inst.for_each_input(|input| {
                        if !dominates_use(input, b, k) {
                            bad.push(input);
                        }
                    });
                    for input in bad {
                        s.emit(
                            LintId::SsaDominance,
                            Some(b),
                            Some(i),
                            format!("{i} in {b}: use of {input} not dominated by its definition"),
                        );
                    }
                }
            }
        }
        let term = g.terminator(b);
        let end = g.block_insts(b).len();
        let mut bad = Vec::new();
        term.for_each_input(|input| {
            if !dominates_use(input, b, end) {
                bad.push(input);
            }
        });
        for input in bad {
            s.emit(
                LintId::SsaDominance,
                Some(b),
                None,
                format!("terminator of {b}: use of {input} not dominated by its definition"),
            );
        }
    }
}

/// CFG hygiene: findings the soundness checks cannot express — populated
/// dead blocks, trivial φs, critical edges into merges. All warn-severity.
fn hygiene(g: &Graph, out: &mut Vec<Diagnostic>) {
    let mut s = Sink { out };
    let mut reachable = vec![false; g.block_count()];
    for b in g.reachable_blocks() {
        reachable[b.index()] = true;
    }
    for b in g.blocks() {
        if !reachable[b.index()] && !g.block_insts(b).is_empty() {
            s.emit(
                LintId::UnreachableBlock,
                Some(b),
                None,
                format!(
                    "unreachable {b} still holds {} instructions",
                    g.block_insts(b).len()
                ),
            );
        }
        for &i in g.phis(b) {
            if let Inst::Phi { inputs } = g.inst(i) {
                let mut distinct: Option<InstId> = None;
                let mut trivial = true;
                for &input in inputs {
                    if input == i {
                        continue; // self-reference through a back edge
                    }
                    match distinct {
                        None => distinct = Some(input),
                        Some(d) if d == input => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial && !inputs.is_empty() {
                    s.emit(
                        LintId::TrivialPhi,
                        Some(b),
                        Some(i),
                        format!("{b}: phi {i} is trivial (every input is the same value)"),
                    );
                }
            }
        }
        let succs = g.succs(b);
        if succs.len() > 1 {
            for succ in succs {
                if g.preds(succ).len() > 1 {
                    s.emit(
                            LintId::CriticalEdge,
                            Some(b),
                            None,
                            format!(
                                "critical edge {b} -> {succ} into a merge ({} successors, {} predecessors)",
                                g.succs(b).len(),
                                g.preds(succ).len()
                            ),
                        );
                }
            }
        }
    }
}

/// Reverse-CFG structure: exit reachability ([`LintId::NoExitPath`],
/// emitted only when `warnings` is set) and the cross-check of branch
/// probabilities against control dependence
/// ([`LintId::ControlDepViolation`]), walked on a [`SimplePostDom`].
fn reverse_cfg(g: &Graph, warnings: bool, out: &mut Vec<Diagnostic>) {
    let mut s = Sink { out };
    let n = g.block_count();
    let mut reachable = vec![false; n];
    for b in g.reachable_blocks() {
        reachable[b.index()] = true;
    }
    // Backward reachability from the exit blocks.
    let mut reaches_exit = vec![false; n];
    let mut work: Vec<BlockId> = Vec::new();
    for b in g.blocks() {
        if reachable[b.index()] && g.succs(b).is_empty() {
            reaches_exit[b.index()] = true;
            work.push(b);
        }
    }
    while let Some(b) = work.pop() {
        for &p in g.preds(b) {
            if reachable[p.index()] && !reaches_exit[p.index()] {
                reaches_exit[p.index()] = true;
                work.push(p);
            }
        }
    }
    if warnings {
        for b in g.blocks() {
            if reachable[b.index()] && !reaches_exit[b.index()] {
                s.emit(
                    LintId::NoExitPath,
                    Some(b),
                    None,
                    format!("reachable {b} has no path to any exit block"),
                );
            }
        }
    }

    // Control-dependence vs. probability cross-check: code that is
    // control dependent on a branch edge the profile says never
    // executes (probability exactly 0 toward it) contradicts the
    // profile the whole trade-off tier prices with. The chain walk is
    // Ferrante's: everything from the dead successor up to (exclusive)
    // the branch's immediate post-dominator is decided by that edge.
    // Only a branch with probability exactly 0 or 1 has a dead edge,
    // so the post-dominator tree is built on the first one found.
    let mut pd: Option<SimplePostDom> = None;
    for a in g.blocks() {
        if !reaches_exit[a.index()] {
            continue;
        }
        let Terminator::Branch {
            then_bb,
            else_bb,
            prob_then,
            ..
        } = g.terminator(a)
        else {
            continue;
        };
        let dead_succ = if *prob_then == 0.0 {
            Some(*then_bb)
        } else if *prob_then == 1.0 {
            Some(*else_bb)
        } else {
            None
        };
        let Some(dead) = dead_succ else { continue };
        let pd = &*pd.get_or_insert_with(|| SimplePostDom::compute(g, &reaches_exit));
        let target = pd.ipdom(a);
        let mut runner = Some(dead);
        while runner != target {
            let Some(r) = runner else { break };
            if !reaches_exit[r.index()] {
                break;
            }
            if !g.block_insts(r).is_empty() {
                s.emit(
                    LintId::ControlDepViolation,
                    Some(r),
                    None,
                    format!(
                        "{r} is control dependent on the never-taken edge {a} -> {dead} \
                             (probability {prob_then} branch)"
                    ),
                );
            }
            runner = pd.ipdom(r);
        }
    }
}

/// A post-dominator tree restricted to blocks that reach an exit, used
/// only by [`reverse_cfg`] (which warns about the other blocks
/// separately). It stays next to `dbds_analysis::PostDomTree` because
/// the two disagree where the check reads them: `PostDomTree` attaches
/// infinite regions to pseudo-exits, so when a never-taken edge leads
/// both to an exit and to an infinite loop, its ipdom chains — and so
/// the [`LintId::ControlDepViolation`] walks — differ from the ones
/// over this restricted domain.
struct SimplePostDom {
    /// `None` for roots of the post-dominator forest (exit blocks) and
    /// for blocks outside the restricted domain.
    ipdom: Vec<Option<BlockId>>,
}

impl SimplePostDom {
    fn compute(g: &Graph, in_domain: &[bool]) -> Self {
        let n = g.block_count();
        // Postorder of the reversed graph from each exit over pred edges.
        let mut visited = vec![false; n];
        let mut post: Vec<BlockId> = Vec::new();
        for e in g.blocks() {
            if !in_domain[e.index()] || !g.succs(e).is_empty() || visited[e.index()] {
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
        let rev_rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut order = vec![usize::MAX; n];
        for (i, &b) in rev_rpo.iter().enumerate() {
            order[b.index()] = i + 1; // 0 is the virtual exit
        }
        // CHK over reversed edges; `Some(b) == b` encodes "root" during
        // the iteration (the virtual exit is every exit's parent).
        let mut ipdom: Vec<Option<BlockId>> = vec![None; n];
        let mut is_root = vec![false; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rev_rpo {
                // Reversed preds of `b` = forward succs, plus the virtual
                // exit when `b` is an exit block.
                let mut new_parent: Option<Option<BlockId>> = if g.succs(b).is_empty() {
                    Some(None) // parent is the virtual exit
                } else {
                    None
                };
                for s in g.succs(b) {
                    if ipdom[s.index()].is_none() && !is_root[s.index()] {
                        continue; // not yet processed or outside
                    }
                    new_parent = Some(match new_parent {
                        None => Some(s),
                        Some(cur) => Self::intersect(&ipdom, &is_root, &order, Some(s), cur),
                    });
                }
                if let Some(np) = new_parent {
                    let root = np.is_none();
                    if ipdom[b.index()] != np || is_root[b.index()] != root {
                        ipdom[b.index()] = np;
                        is_root[b.index()] = root;
                        changed = true;
                    }
                }
            }
        }
        SimplePostDom { ipdom }
    }

    /// Intersection in the reversed-RPO order; `None` is the virtual exit
    /// at position 0.
    fn intersect(
        ipdom: &[Option<BlockId>],
        is_root: &[bool],
        order: &[usize],
        a: Option<BlockId>,
        b: Option<BlockId>,
    ) -> Option<BlockId> {
        let pos = |x: Option<BlockId>| x.map_or(0, |b| order[b.index()]);
        let up = |x: Option<BlockId>| {
            let b = x.expect("virtual exit has no parent");
            if is_root[b.index()] {
                None
            } else {
                ipdom[b.index()]
            }
        };
        let (mut a, mut b) = (a, b);
        while a != b {
            while pos(a) > pos(b) {
                a = up(a);
            }
            while pos(b) > pos(a) {
                b = up(b);
            }
        }
        a
    }

    /// The immediate post-dominator of `b` (`None` for exit blocks and
    /// blocks outside the restricted domain).
    fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::classes::ClassTable;
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

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

    #[test]
    fn clean_graph_yields_clean_report() {
        let report = lint(&diamond());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn report_order_is_deterministic_and_sorted() {
        // A graph with several problems across blocks: use-before-def and
        // a type error in the entry block.
        let mut g = Graph::new("multi", &[], empty_table());
        let e = g.entry();
        let t = g.append_inst(e, Inst::Const(ConstValue::Bool(true)), Type::Bool);
        let neg = g.append_inst(e, Inst::Neg(t), Type::Int);
        let add = g.append_inst(
            e,
            Inst::Binary {
                op: crate::inst::BinOp::Add,
                lhs: neg,
                rhs: InstId(9),
            },
            Type::Int,
        );
        let _late = g.append_inst(e, Inst::Const(ConstValue::Int(1)), Type::Int);
        g.set_terminator(e, Terminator::Return { value: Some(add) });
        let a = lint(&g);
        let b = lint(&g);
        assert_eq!(a, b);
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "two runs must render identically"
        );
        let keys: Vec<_> = a
            .diagnostics()
            .iter()
            .map(|d| (d.block, d.inst, d.lint))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by_key(|(b, i, l)| {
            (
                b.map_or(u64::MAX, |b| b.index() as u64),
                i.map_or(u64::MAX, |i| i.index() as u64),
                *l,
            )
        });
        assert_eq!(keys, sorted, "diagnostics must come out in sort order");
        assert!(a.error_count() >= 2);
    }

    #[test]
    fn severity_tracks_lint() {
        for &id in LintId::ALL {
            let d = Diagnostic::new(id, None, None, "x".into());
            assert_eq!(d.severity, id.severity());
        }
    }

    #[test]
    fn lint_names_are_unique_and_kebab() {
        let mut names: Vec<_> = LintId::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn no_exit_path_warns_on_infinite_regions() {
        let mut b = GraphBuilder::new("inf", &[Type::Bool], empty_table());
        let c = b.param(0);
        let spin = b.new_block();
        let done = b.new_block();
        b.branch(c, spin, done, 0.5);
        b.switch_to(spin);
        b.jump(spin);
        b.switch_to(done);
        b.ret(None);
        let report = lint(&b.finish());
        assert_eq!(report.count_of(LintId::NoExitPath), 1);
        assert!(report.is_clean(), "no-exit-path is hygiene, not soundness");
    }

    #[test]
    fn control_dep_violation_fires_on_dead_edge_code() {
        // bt holds real code but is control dependent on an edge the
        // profile says is never taken (prob_then = 0).
        let mut b = GraphBuilder::new("dead", &[Type::Int], empty_table());
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
        let report = lint(&b.finish());
        assert_eq!(report.count_of(LintId::ControlDepViolation), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn live_edges_do_not_trip_the_control_dep_check() {
        // The shared diamond has both edges live (prob 0.5): clean.
        let report = lint(&diamond());
        assert_eq!(report.count_of(LintId::ControlDepViolation), 0);
        assert_eq!(report.count_of(LintId::NoExitPath), 0);
    }

    #[test]
    fn extend_restores_sorted_order() {
        let mut report = lint(&diamond());
        report.extend(vec![Diagnostic::new(
            LintId::StaleAnalysis,
            Some(BlockId(0)),
            None,
            "injected".into(),
        )]);
        assert_eq!(report.count_of(LintId::StaleAnalysis), 1);
        let keys: Vec<_> = report
            .diagnostics()
            .iter()
            .map(Diagnostic::sort_key)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
