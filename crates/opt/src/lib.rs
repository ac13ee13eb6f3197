//! # dbds-opt — optimizations as applicability checks and action steps
//!
//! The optimization substrate of the DBDS reproduction. §2 of the paper
//! lists the optimizations that code duplication enables — constant
//! folding, conditional elimination, partial escape analysis with scalar
//! replacement, read elimination, and strength reduction. This crate
//! implements all of them, split (per §4.1, after Chang et al.) into
//!
//! - **applicability checks** (ACs): predicates deciding whether a pattern
//!   can be optimized under a set of facts, and
//! - **action steps**: descriptions of the replacement, returned as
//!   [`Verdict`]s rather than graph mutations.
//!
//! The shared fact container is [`FactEnv`] (synonym maps, stamps, read
//! caches, virtual objects). The DBDS simulation tier evaluates ACs
//! against it without touching the graph; the real passes in this crate
//! apply the verdicts:
//!
//! - [`canonicalize`] — dominator-order CF/SR/CE/read-elim with branch
//!   folding,
//! - [`scalar_replace`] — escape analysis + scalar replacement,
//! - [`remove_dead_code`] / [`simplify_cfg`] — cleanup,
//! - [`optimize_full`] — everything to a fixpoint (the baseline pipeline).
//!
//! [`SsaBuilder`] provides the on-demand φ construction both scalar
//! replacement and the duplication transform need.
//!
//! # Examples
//!
//! Figure 1's constant-folding opportunity, detected without mutating the
//! graph:
//!
//! ```
//! use dbds_ir::{parse_module, ConstValue};
//! use dbds_opt::{evaluate, FactEnv, Synonym, Verdict};
//!
//! let m = parse_module(
//!     "func @foo(x: int) {\n\
//!      entry:\n  two: int = const 2\n  sum: int = add two, x\n  return sum\n}",
//! )?;
//! let g = &m.graphs[0];
//! let sum = g.block_insts(g.entry())[2];
//! let x = g.param_values()[0];
//!
//! // Pretend x is the constant 0 on this path (a φ synonym).
//! let mut env = FactEnv::new();
//! env.set_synonym(x, Synonym::Const(ConstValue::Int(0)));
//! assert_eq!(
//!     evaluate(g, &env, sum).verdict,
//!     Verdict::Const(ConstValue::Int(2)),
//! );
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod env;
mod evaluate;
mod passes;
mod ssa_repair;

pub use env::{FactEnv, Resolved, Synonym, VirtualObject};
pub use evaluate::{evaluate, record_effects, Evaluation, OptKind, Verdict};
pub use passes::canonicalize::{canonicalize, CanonStats};
pub use passes::dce::{remove_dead_code, remove_dead_instructions, remove_unreachable_blocks};
pub use passes::gvn::global_value_numbering;
pub use passes::pipeline::{optimize_full, optimize_once, OptimizeStats};
pub use passes::scalar_replace::scalar_replace;
pub use passes::simplify::{merge_straightline_blocks, remove_single_input_phis, simplify_cfg};
pub use ssa_repair::{SsaBuilder, SsaRepairError};
