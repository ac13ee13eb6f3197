//! # dbds-bench — Criterion benchmarks for the DBDS reproduction
//!
//! This crate's library is intentionally empty; all content lives in
//! `benches/`:
//!
//! | bench | paper artifact |
//! |---|---|
//! | `figure5_java_dacapo` … `figure8_octane` | the compile-time axis of Figures 5–8 (baseline vs DBDS vs dupalot per suite) |
//! | `backtracking_vs_simulation` | §3.1's "copying increased compilation time by a factor of 10" |
//! | `ablations` | sweeps of the §5.4 constants (BS, IB, iteration bound) |
//! | `simulation_throughput` | how fast the simulation tier prices all predecessor→merge pairs (§3.2's economics) |
//! | `transform_throughput` | one duplication + SSA repair vs Algorithm 1's whole-graph clone |
//!
//! Run everything with `cargo bench --workspace`; individual benches with
//! `cargo bench -p dbds-bench --bench <name>`.

#![forbid(unsafe_code)]
