//! # dbds-analysis — control-flow analyses
//!
//! The analysis substrate of the DBDS reproduction: dominator trees
//! ([`DomTree`], the backbone of the paper's dominance-based simulation
//! traversal), natural-loop detection ([`LoopForest`]), profile-derived
//! block execution frequencies ([`BlockFrequencies`], the `p` of the
//! `shouldDuplicate` heuristic), and value [`Stamp`]s with the refinement
//! rules conditional elimination applies along dominating conditions.
//! The reverse-CFG structure is equally first-class: post-dominator
//! trees ([`PostDomTree`], over the reversed CFG with a virtual exit),
//! dominance/post-dominance frontiers ([`DomFrontiers`]) and the
//! control-dependence graph ([`ControlDepGraph`]) drive the
//! branch-splitting candidates and the reverse-CFG lints.
//!
//! # Examples
//!
//! ```
//! use dbds_analysis::DomTree;
//! use dbds_ir::parse_module;
//!
//! let m = parse_module(
//!     "func @f(c: bool) {\n\
//!      entry:\n  branch c, bt, bf, prob 0.5\n\
//!      bt:\n  jump bm\n\
//!      bf:\n  jump bm\n\
//!      bm:\n  return\n}",
//! )?;
//! let g = &m.graphs[0];
//! let dt = DomTree::compute(g);
//! let merge = g.merge_blocks()[0];
//! assert_eq!(dt.idom(merge), Some(g.entry()));
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod controldep;
mod domfrontier;
mod domtree;
mod frequency;
mod loops;
mod postdom;
mod stamps;

pub use cache::{AnalysisCache, CacheStats};
pub use controldep::ControlDepGraph;
pub use domfrontier::DomFrontiers;
pub use domtree::{reverse_postorder, DomTree};
pub use frequency::{edge_probability, BlockFrequencies, LOOP_FACTOR, MAX_FREQUENCY};
pub use loops::{LoopForest, LoopInfo};
pub use postdom::PostDomTree;
pub use stamps::{
    initial_stamp, refine_by_cmp, refine_by_instanceof, try_fold_cmp, try_fold_instanceof,
    IntRange, Nullness, RefStamp, Stamp,
};
