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
//! - [`LintPass`] / [`LintRegistry`]: graph-level passes and the registry
//!   that runs them. [`LintRegistry::default`] holds every built-in pass;
//!   higher layers (dbds-analysis' cached-analysis audit, dbds-core's
//!   cost-sanity and prediction audits) contribute [`Diagnostic`]s for
//!   the non-graph lints of [`LintId`] through [`LintReport::extend`].
//! - [`LintReport`]: the sorted, deterministic result. Diagnostics are
//!   ordered by (block, instruction, lint, message) regardless of the
//!   order passes emitted them, so two runs over the same graph render
//!   byte-identical output.
//!
//! [`crate::verify`] is a thin wrapper over this module: it runs the
//! built-in passes minus the warn-severity work and reports their
//! messages, so every existing call site (including the bailout
//! checkpoint path) runs the lint framework's error-severity checks
//! without paying for the warn-severity ones.
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
use crate::Graph;
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

/// One registered graph-level lint pass.
pub trait LintPass {
    /// Stable pass name (for listings and debugging).
    fn name(&self) -> &'static str;
    /// Runs the pass over `g`, pushing findings into `out`.
    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>);
}

/// The ordered collection of graph-level passes to run.
pub struct LintRegistry {
    passes: Vec<Box<dyn LintPass>>,
}

impl fmt::Debug for LintRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LintRegistry")
            .field("passes", &self.pass_names())
            .finish()
    }
}

impl Default for LintRegistry {
    /// Every built-in pass: the four soundness checks the verifier always
    /// ran, plus the CFG-hygiene pass.
    fn default() -> Self {
        LintRegistry {
            passes: vec![
                Box::new(EdgePass),
                Box::new(BlockPass),
                Box::new(TypePass),
                Box::new(DominancePass),
                Box::new(HygienePass),
                Box::new(ReverseCfgPass { warnings: true }),
            ],
        }
    }
}

impl LintRegistry {
    /// An empty registry (add passes with [`LintRegistry::register`]).
    pub fn new() -> Self {
        LintRegistry { passes: Vec::new() }
    }

    /// The built-in passes minus every warn-severity finding: the
    /// hygiene pass is left out and the reverse-CFG pass skips
    /// [`LintId::NoExitPath`]. Its report equals the error-severity part
    /// of [`LintRegistry::default`]'s, which is all [`crate::verify`]
    /// reads.
    pub(crate) fn errors_only() -> Self {
        LintRegistry {
            passes: vec![
                Box::new(EdgePass),
                Box::new(BlockPass),
                Box::new(TypePass),
                Box::new(DominancePass),
                Box::new(ReverseCfgPass { warnings: false }),
            ],
        }
    }

    /// Appends a pass to the run order.
    pub fn register(&mut self, pass: Box<dyn LintPass>) {
        self.passes.push(pass);
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every registered pass over `g`.
    pub fn run(&self, g: &Graph) -> LintReport {
        let mut out = Vec::new();
        for pass in &self.passes {
            pass.run(g, &mut out);
        }
        LintReport::from_diagnostics(out)
    }
}

/// Runs the default registry (all built-in passes) over `g`.
pub fn lint(g: &Graph) -> LintReport {
    LintRegistry::default().run(g)
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
struct EdgePass;

impl LintPass for EdgePass {
    fn name(&self) -> &'static str {
        "edges"
    }

    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
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
}

/// Block layout: instruction↔block records, φ placement and arity, param
/// placement, dangling value references.
struct BlockPass;

impl LintPass for BlockPass {
    fn name(&self) -> &'static str {
        "blocks"
    }

    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
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
}

/// Per-instruction type rules plus branch-condition typing.
struct TypePass;

impl TypePass {
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

    fn expect(s: &mut Sink<'_>, g: &Graph, b: BlockId, at: InstId, v: InstId, ty: Type) {
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
}

impl LintPass for TypePass {
    fn name(&self) -> &'static str {
        "types"
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
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
                let err = |s: &mut Sink<'_>, msg: String| {
                    s.emit(LintId::TypeError, Some(b), Some(i), msg)
                };
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
                        Self::expect(&mut s, g, b, i, *lhs, Type::Int);
                        Self::expect(&mut s, g, b, i, *rhs, Type::Int);
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
                        if !ordered && !Self::comparable(lt, rt) {
                            err(&mut s, format!("{i}: equality comparison of {lt} and {rt}"));
                        }
                        if ty != Type::Bool {
                            err(&mut s, format!("{i}: comparison typed {ty}"));
                        }
                    }
                    Inst::Not(x) => {
                        Self::expect(&mut s, g, b, i, *x, Type::Bool);
                        if ty != Type::Bool {
                            err(&mut s, format!("{i}: not typed {ty}"));
                        }
                    }
                    Inst::Neg(x) => {
                        Self::expect(&mut s, g, b, i, *x, Type::Int);
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
                        Self::check_receiver(&mut s, g, b, i, *object, *field);
                        if table.contains_field(*field) && ty != table.field(*field).ty {
                            err(&mut s, format!("{i}: load of {field} typed {ty}"));
                        }
                    }
                    Inst::StoreField {
                        object,
                        field,
                        value,
                    } => {
                        Self::check_receiver(&mut s, g, b, i, *object, *field);
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
                        Self::expect(&mut s, g, b, i, *length, Type::Int);
                        if ty != Type::Arr {
                            err(&mut s, format!("{i}: newarray typed {ty}"));
                        }
                    }
                    Inst::ArrayLoad { array, index } => {
                        Self::expect(&mut s, g, b, i, *array, Type::Arr);
                        Self::expect(&mut s, g, b, i, *index, Type::Int);
                        if ty != Type::Int {
                            err(&mut s, format!("{i}: aload typed {ty}"));
                        }
                    }
                    Inst::ArrayStore {
                        array,
                        index,
                        value,
                    } => {
                        Self::expect(&mut s, g, b, i, *array, Type::Arr);
                        Self::expect(&mut s, g, b, i, *index, Type::Int);
                        Self::expect(&mut s, g, b, i, *value, Type::Int);
                        if ty != Type::Void {
                            err(&mut s, format!("{i}: astore typed {ty}"));
                        }
                    }
                    Inst::ArrayLength(a) => {
                        Self::expect(&mut s, g, b, i, *a, Type::Arr);
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
}

/// The SSA dominance property: every use is dominated by its definition,
/// and every φ input dominates (the end of) its predecessor.
struct DominancePass;

impl LintPass for DominancePass {
    fn name(&self) -> &'static str {
        "dominance"
    }

    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
        let mut s = Sink { out };
        let dom = SimpleDomTree::compute(g);
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
        for &b in &dom.rpo {
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
                                format!(
                                    "{i} in {b}: use of {input} not dominated by its definition"
                                ),
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
}

/// CFG hygiene: findings the soundness checks cannot express — populated
/// dead blocks, trivial φs, critical edges into merges. All warn-severity.
struct HygienePass;

impl LintPass for HygienePass {
    fn name(&self) -> &'static str {
        "hygiene"
    }

    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
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
}

/// Reverse-CFG structure: exit reachability ([`LintId::NoExitPath`]) and
/// the cross-check of branch probabilities against control dependence
/// ([`LintId::ControlDepViolation`]). The full-featured analyses
/// (post-dominator tree with virtual exit, frontiers, control-dependence
/// graph) live in `dbds-analysis`; this pass reimplements just enough on
/// a [`SimplePostDom`] to stay dependency-cycle-free, mirroring how
/// [`DominancePass`] relates to the cached `DomTree`.
struct ReverseCfgPass {
    /// Whether to emit the warn-severity [`LintId::NoExitPath`].
    warnings: bool,
}

impl LintPass for ReverseCfgPass {
    fn name(&self) -> &'static str {
        "reverse-cfg"
    }

    fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
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
        if self.warnings {
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
}

/// A minimal post-dominator tree used only by [`ReverseCfgPass`],
/// restricted to blocks that reach an exit (the pass warns about the rest
/// separately, so no virtual-exit/pseudo-exit machinery is needed here).
/// The full analysis lives in `dbds-analysis`; this one avoids a
/// dependency cycle, like [`SimpleDomTree`] below.
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

/// A minimal dominator tree used only by the lint passes. The
/// full-featured analysis (queries, children, traversal) lives in
/// `dbds-analysis`; this one avoids a dependency cycle.
///
/// Every block of the tree owns the preorder interval
/// `[pre, pre + size)` of its dominator subtree, so
/// [`SimpleDomTree::dominates`] is two comparisons, like the O(1) query
/// of `dbds_analysis::DomTree`.
struct SimpleDomTree {
    idom: Vec<Option<BlockId>>,
    rpo_index: Vec<usize>,
    rpo: Vec<BlockId>,
    /// Dominator-tree preorder number (`usize::MAX` outside the tree).
    pre: Vec<usize>,
    /// Number of blocks in the dominator subtree.
    size: Vec<usize>,
}

impl SimpleDomTree {
    fn compute(g: &Graph) -> Self {
        // Reverse postorder over reachable blocks.
        let n = g.block_count();
        let mut visited = vec![false; n];
        let mut post: Vec<BlockId> = Vec::new();
        // Iterative DFS computing postorder.
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
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        // Cooper–Harvey–Kennedy iteration.
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
                        Some(cur) => Self::intersect(&idom, &rpo_index, p, cur),
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

        // Preorder intervals. A tree parent must precede its child in
        // reverse postorder; that holds for every reachable block unless
        // the pred and succ lists disagree, and a block whose idom chain
        // breaks it stays outside the tree (its queries walk the chain).
        // Subtree sizes accumulate bottom-up over the reversed order, and
        // each parent hands its children consecutive slots after its own.
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
        SimpleDomTree {
            idom,
            rpo_index,
            rpo,
            pre,
            size,
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

    /// Does `a` dominate `b`? Blocks unreachable from entry dominate
    /// nothing and are dominated by nothing.
    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[a.index()] == usize::MAX || self.rpo_index[b.index()] == usize::MAX {
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

    /// [`SimpleDomTree::dominates`] by walking `b`'s idom chain: the
    /// answer for blocks outside the preorder numbering.
    fn dominates_by_walk(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[a.index()] == usize::MAX || self.rpo_index[b.index()] == usize::MAX {
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
            let dom = SimpleDomTree::compute(&g);
            for a in g.blocks() {
                if dom.rpo_index[a.index()] == usize::MAX {
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
    fn registry_can_register_custom_pass() {
        struct Always;
        impl LintPass for Always {
            fn name(&self) -> &'static str {
                "always"
            }
            fn run(&self, g: &Graph, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::new(
                    LintId::UnreachableBlock,
                    Some(g.entry()),
                    None,
                    "custom pass fired".into(),
                ));
            }
        }
        let mut reg = LintRegistry::new();
        reg.register(Box::new(Always));
        let report = reg.run(&diamond());
        assert_eq!(report.warning_count(), 1);
        assert!(report.is_clean());
        assert!(reg.pass_names().contains(&"always"));
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
