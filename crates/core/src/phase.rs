//! The iterative DBDS phase driver (§5.2) and the compilation entry
//! point used by the evaluation harness.
//!
//! The phase runs simulate → trade-off → optimize for up to three
//! iterations (one duplication can expose an opportunity at the next
//! merge, but the optimization tier does not duplicate across multiple
//! merges at once). Another iteration only runs when the previous one's
//! cumulative benefit clears a threshold, and later iterations prefer
//! merges not yet duplicated.

use crate::bailout::{
    checkpoint, isolate, transact, BailoutReason, BailoutRecord, Budget, GuardConfig, Tier,
};
use crate::faultinject::fault_point;
use crate::simulation::{
    audit_opportunities, count_mispredictions, dominator_chain, simulate_paths_budgeted,
    CandidateKind, SimulationResult,
};
use crate::tradeoff::{select_with_rejections, SelectionMode, TradeoffConfig};
use crate::transform::{duplicate, try_duplicate, Duplication};
use dbds_analysis::{AnalysisCache, CacheStats};
use dbds_costmodel::CostModel;
use dbds_ir::{BlockId, Graph};
use dbds_opt::{optimize_full, optimize_once, OptKind};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The compiler configuration under evaluation — the paper's benchmark
/// configurations plus the backtracking strategy of §3.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptLevel {
    /// Standard optimizations only, duplication disabled.
    Baseline,
    /// The full DBDS algorithm (simulation + trade-off + optimization).
    Dbds,
    /// Simulation without the cost/benefit trade-off: every beneficial
    /// duplication is performed.
    Dupalot,
    /// The backtracking strategy: tentatively duplicate, fully optimize,
    /// keep only if the static estimate improved.
    Backtracking,
}

impl OptLevel {
    /// Stable lowercase name (used by the harness CLI).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::Dbds => "dbds",
            OptLevel::Dupalot => "dupalot",
            OptLevel::Backtracking => "backtracking",
        }
    }
}

/// Tunables of the DBDS phase. Defaults follow the paper.
#[derive(Clone, Debug)]
pub struct DbdsConfig {
    /// Trade-off parameters (§5.4).
    pub tradeoff: TradeoffConfig,
    /// Maximum simulate→trade-off→optimize iterations (§5.2: 3).
    pub max_iterations: usize,
    /// Minimum cumulative probability-weighted benefit of an iteration
    /// for another one to run (§5.2: "only … if the cumulative benefit of
    /// the previous one is above a certain threshold").
    pub iteration_benefit_threshold: f64,
    /// Maximum number of consecutive merges a single candidate may cover.
    /// 1 reproduces the paper's shipped implementation; larger values
    /// enable the §8 future-work *path-based duplication*: the DST
    /// simulates through jump-connected merges and the optimization tier
    /// duplicates each merge of the accepted path in turn.
    pub max_path_length: usize,
    /// Bailout-and-recovery guardrails: fuel / deadline budgets, verified
    /// checkpoints and panic isolation.
    pub guard: GuardConfig,
    /// Ignored. The simulation and trade-off tiers are sequential within
    /// a unit; the field only remains so existing callers keep building,
    /// and will be removed.
    pub sim_threads: usize,
    /// Worker threads for the *unit-level* compilation queue: how many
    /// independent compilation units the harness overlaps on the
    /// [`crate::par`] pool (`0` = one per hardware thread, see
    /// [`DbdsConfig::pool_plan`]). Mirrors the paper's setting of DBDS
    /// as a per-unit phase inside a compiler that compiles units
    /// concurrently (§6). Results are committed in submission order, so
    /// reports are byte-identical for every value. The default honors
    /// `DBDS_UNIT_THREADS` and falls back to 1.
    pub unit_threads: usize,
    /// Whether the simulation tier may continue a DST *through* a branch
    /// terminator it decided statically, producing
    /// [`CandidateKind::BranchSplit`] candidates (conditional elimination
    /// through duplication). Priced by the same `shouldDuplicate` tier
    /// and applied through the same transactional machinery as classic
    /// merge duplication. The default honors `DBDS_BRANCH_SPLIT`
    /// (`0`/`false` disables) and falls back to
    /// [`BRANCH_SPLIT_DEFAULT`](crate::BRANCH_SPLIT_DEFAULT).
    pub enable_branch_splitting: bool,
}

/// The `unit_threads` default: `DBDS_UNIT_THREADS` when set to a number,
/// else 1 (sequential).
fn unit_threads_from_env() -> usize {
    std::env::var("DBDS_UNIT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// The `enable_branch_splitting` default: `DBDS_BRANCH_SPLIT` when set
/// to a recognizable boolean, else
/// [`BRANCH_SPLIT_DEFAULT`](crate::BRANCH_SPLIT_DEFAULT).
fn branch_split_from_env() -> bool {
    match std::env::var("DBDS_BRANCH_SPLIT").as_deref().map(str::trim) {
        Ok("0") | Ok("false") | Ok("off") => false,
        Ok("1") | Ok("true") | Ok("on") => true,
        _ => crate::simulation::BRANCH_SPLIT_DEFAULT,
    }
}

impl Default for DbdsConfig {
    fn default() -> Self {
        DbdsConfig {
            tradeoff: TradeoffConfig::default(),
            max_iterations: 3,
            // Calibrated so that only a minority of units run a second
            // iteration, matching §5.2's "this only applies for about 20%
            // of all compilation units".
            iteration_benefit_threshold: 48.0,
            max_path_length: 1,
            guard: GuardConfig::default(),
            sim_threads: 1,
            unit_threads: unit_threads_from_env(),
            enable_branch_splitting: branch_split_from_env(),
        }
    }
}

/// The schedule for a batch of independent compilation units: how many
/// workers the [`crate::par::run_units`] pool runs, plus the
/// configuration each unit compiles with. Built by
/// [`DbdsConfig::pool_plan`].
///
/// The plan is purely a *scheduling* artifact: results are bit-identical
/// at every worker count, so none of these fields participate in
/// [`DbdsConfig::fingerprint`].
#[derive(Clone, Debug)]
pub struct PoolPlan {
    /// Workers that claim whole compilation units off the shared cursor.
    pub unit_workers: usize,
    /// Always 0: units compile sequentially inside. Kept so existing
    /// callers keep building; will be removed.
    pub sim_workers: usize,
    /// The configuration each unit compiles with.
    pub per_unit: DbdsConfig,
}

impl DbdsConfig {
    /// Plans the fan-out over `units` independent compilations: an
    /// explicit `unit_threads` is honored, `0` means one worker per
    /// [`crate::par::hardware_threads`]; either way the pool is never
    /// wider than the queue. Each unit still owns its own
    /// [`dbds_analysis::AnalysisCache`] and fuel/deadline
    /// [`Budget`](crate::Budget) — both are created per
    /// [`run_dbds`]/[`compile`] call — so one unit's bailout never
    /// poisons a neighbor.
    pub fn pool_plan(&self, units: usize) -> PoolPlan {
        let wanted = match self.unit_threads {
            0 => crate::par::hardware_threads(),
            n => n,
        };
        PoolPlan {
            unit_workers: wanted.clamp(1, units.max(1)),
            sim_workers: 0,
            per_unit: self.clone(),
        }
    }

    /// A stable fingerprint of every configuration field that can
    /// change the *result* of a compilation under `level` — the config
    /// half of the compilation service's content-addressed store key
    /// (the graph half is [`dbds_ir::content_hash`]).
    ///
    /// Included: the opt level, the trade-off parameters, the iteration
    /// limits, the path length, the fuel budget and the checkpoint
    /// switch. Deliberately excluded, because results are proven
    /// invariant under them: `unit_threads` (bit-identical at any width),
    /// the ignored `sim_threads`, and `guard.deadline` (a deadline is wall-clock
    /// nondeterminism — the service never caches a compilation that a
    /// deadline cut short, see [`PhaseStats::stopped_early`]).
    pub fn fingerprint(&self, level: OptLevel) -> u64 {
        let mut h = dbds_ir::Fnv64::new();
        h.write_str("dbds-config-fingerprint-v2");
        h.write_str(level.name());
        h.write_u64(self.tradeoff.benefit_scale.to_bits());
        h.write_u64(self.tradeoff.size_increase_budget.to_bits());
        h.write_u64(self.tradeoff.max_unit_size);
        h.write_u64(self.max_iterations as u64);
        h.write_u64(self.iteration_benefit_threshold.to_bits());
        h.write_u64(self.max_path_length as u64);
        h.write_u64(self.guard.fuel.map_or(u64::MAX, |f| f));
        h.write_u64(u64::from(self.guard.checkpoints));
        h.write_u64(u64::from(self.enable_branch_splitting));
        h.finish()
    }
}

/// Statistics of one compilation.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// DBDS iterations executed.
    pub iterations: usize,
    /// Predecessor→merge pairs simulated (across iterations).
    pub candidates: usize,
    /// Duplications performed.
    pub duplications: usize,
    /// Opportunities recorded by the simulation for the performed
    /// duplications, per optimization class.
    pub opportunities: HashMap<OptKind, usize>,
    /// Estimated code size before the phase.
    pub initial_size: u64,
    /// Estimated code size after the phase.
    pub final_size: u64,
    /// Work measure: instructions visited by simulation and rewriting
    /// (deterministic compile-effort proxy).
    pub work: u64,
    /// Wall-clock nanoseconds spent in the simulation tier.
    pub sim_ns: u128,
    /// Wall-clock nanoseconds spent performing duplications.
    pub transform_ns: u128,
    /// Wall-clock nanoseconds spent in the optimization pipeline
    /// (pre-pass, per-iteration cleanup and final fixpoint).
    pub opt_ns: u128,
    /// Wall-clock nanoseconds spent on guardrail bookkeeping (undo-log
    /// transactions, checkpoint verification, rollbacks) — kept out of
    /// `sim_ns` / `opt_ns` / `transform_ns` so those stay comparable to
    /// unguarded runs.
    pub guard_ns: u128,
    /// Primitive IR mutations recorded by the undo log while a
    /// transaction was open. Deterministic.
    pub undo_edits: u64,
    /// Undo-log transactions rolled back (contained candidate failures,
    /// rejected backtracking attempts, final-checkpoint recoveries).
    /// Deterministic.
    pub undo_rollbacks: u64,
    /// Peak number of backed-up arena slots the undo log held at any
    /// point — the O(edit) analog of a whole-graph snapshot's size.
    /// Deterministic.
    pub undo_peak: usize,
    /// Wall-clock nanoseconds spent on undo-log bookkeeping
    /// (begin/commit/rollback). A subset of `guard_ns`; timing only.
    pub undo_ns: u128,
    /// Analysis-cache counters accumulated over the compilation
    /// (dominators, loops, frequencies served from / recomputed into the
    /// [`AnalysisCache`]).
    pub cache: CacheStats,
    /// Accepted opportunities whose applicability check no longer fired
    /// when re-run against the graph immediately before application (the
    /// prediction audit) even though *nothing the candidate depends on*
    /// — its dominator chain, merge or path — was mutated earlier in the
    /// round. Each such candidate was downgraded to a skip instead of
    /// being applied on a stale promise. A nonzero count is an alarm: the
    /// simulation tier broke its §4.1→§5 prediction contract.
    pub mispredictions: usize,
    /// Accepted candidates skipped because earlier duplications in the
    /// same round touched a block they depend on, invalidating their
    /// recorded facts. Ordinary intra-round staleness, not a contract
    /// violation: the next iteration re-simulates them with fresh facts.
    pub stale_skips: usize,
    /// [`CandidateKind::BranchSplit`] candidates the simulation tier
    /// produced, across iterations (whether or not selected).
    pub split_candidates: usize,
    /// Accepted branch-split candidates actually applied (the merge
    /// duplication plus the hop through the statically-decided branch).
    pub split_applied: usize,
    /// Post-duplication dominance-frontier invariant violations: a fresh
    /// copy and its source merge whose frontiers diverged immediately
    /// after the transform. Each one rolled its transaction back; a
    /// nonzero count is an alarm on the SSA/CFG repair.
    pub frontier_violations: usize,
    /// Every bailout incident of this compilation, in order.
    pub bailouts: Vec<BailoutRecord>,
}

impl PhaseStats {
    /// The reason the phase stopped *early* (a budget exhaustion that
    /// was not contained), if any: the first bailout record whose
    /// failure was not recovered. The graph is still verified in that
    /// case, but the result reflects how far the wall clock or fuel
    /// tank let the phase get — a deadline-truncated compilation is
    /// wall-clock-dependent, so the compilation service treats such a
    /// result as non-cacheable and answers with a typed error instead.
    pub fn stopped_early(&self) -> Option<&BailoutReason> {
        self.bailouts
            .iter()
            .find(|b| !b.recovered)
            .map(|b| &b.reason)
    }

    /// `true` when [`PhaseStats::stopped_early`] reports a missed
    /// wall-clock deadline — the per-request deadline plumbing of the
    /// compilation service.
    pub fn hit_deadline(&self) -> bool {
        matches!(self.stopped_early(), Some(BailoutReason::DeadlineExceeded))
    }

    /// Copies the cache counters accumulated between `base` and `cache`'s
    /// current state into these stats (delta form, so callers may share
    /// one long-lived cache across compilations).
    fn record_cache(&mut self, cache: &AnalysisCache, base: CacheStats) {
        let now = cache.stats();
        self.cache = CacheStats {
            hits: now.hits - base.hits,
            misses: now.misses - base.misses,
            invalidations: now.invalidations - base.invalidations,
            rev_hits: now.rev_hits - base.rev_hits,
            rev_misses: now.rev_misses - base.rev_misses,
            rev_invalidations: now.rev_invalidations - base.rev_invalidations,
        };
    }
}

/// Compiles `g` under the given configuration: the duplication phase
/// according to `level`, bracketed by the standard optimization pipeline.
pub fn compile(g: &mut Graph, model: &CostModel, level: OptLevel, cfg: &DbdsConfig) -> PhaseStats {
    let mut cache = AnalysisCache::new();
    match level {
        OptLevel::Baseline => {
            let mut stats = PhaseStats {
                initial_size: model.graph_size(g),
                ..PhaseStats::default()
            };
            optimize_full(g, &mut cache);
            stats.final_size = model.graph_size(g);
            stats.work = g.live_inst_count() as u64;
            stats.record_cache(&cache, CacheStats::default());
            stats
        }
        OptLevel::Dbds => run_dbds(g, model, cfg, SelectionMode::CostBenefit, &mut cache),
        OptLevel::Dupalot => run_dbds(g, model, cfg, SelectionMode::Dupalot, &mut cache),
        OptLevel::Backtracking => {
            let mut stats: PhaseStats =
                crate::backtracking::run_backtracking(g, model, cfg, &mut cache).into();
            stats.record_cache(&cache, CacheStats::default());
            stats
        }
    }
}

/// Runs the full three-tier DBDS phase on `g`, pulling every CFG analysis
/// through `cache`.
///
/// The phase is guarded (see [`GuardConfig`]): fuel / deadline exhaustion
/// stops it early with a [`BailoutRecord`], a failing candidate rolls
/// its undo-log transaction back to the last verified state and the
/// remaining candidates continue — the returned graph always verifies.
pub fn run_dbds(
    g: &mut Graph,
    model: &CostModel,
    cfg: &DbdsConfig,
    mode: SelectionMode,
    cache: &mut AnalysisCache,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let cache_base = cache.stats();
    let undo_base = g.undo_stats();
    let budget = Budget::new(&cfg.guard);
    let checkpoints = cfg.guard.checkpoints;
    run_opt_tier(g, cache, &mut stats, checkpoints, true);
    let initial_size = model.graph_size(g);
    stats.initial_size = initial_size;
    let mut visited: HashSet<BlockId> = HashSet::new();
    // Whether the phase-level recovery transaction is open. Its
    // `begin_txn` marks are the states known to verify — recommitted and
    // reopened at every refresh point where the old snapshot-based
    // recovery took a whole-graph copy — and the final checkpoint rolls
    // back to the latest mark if the compilation ends on a broken graph.
    let mut recovery_open = false;

    for _ in 0..cfg.max_iterations {
        stats.iterations += 1;
        if cfg.enable_branch_splitting {
            // Pre-warm the reverse-CFG analyses at the exact graph
            // version the DSTs are about to analyze: the control-
            // dependence cross-check and the interference frontiers
            // below then revalidate as pure cache hits.
            cache.postdom(g);
            cache.frontiers(g);
            cache.control_dep(g);
        }
        let t = Instant::now();
        let sim = simulate_paths_budgeted(
            g,
            model,
            cache,
            cfg.max_path_length,
            &budget,
            cfg.enable_branch_splitting,
        );
        stats.sim_ns += t.elapsed().as_nanos();
        stats.candidates += sim.results.len();
        stats.split_candidates += sim
            .results
            .iter()
            .filter(|r| r.kind == CandidateKind::BranchSplit)
            .count();
        stats.work += g.live_inst_count() as u64 * 2; // simulation visit
        for (pred, merge, msg) in sim.panicked {
            stats.bailouts.push(BailoutRecord {
                reason: BailoutReason::TransformPanicked(msg),
                tier: Tier::Simulation,
                candidate: Some((pred, merge)),
                recovered: true,
            });
        }
        if let Some(reason) = sim.stopped {
            stats.bailouts.push(BailoutRecord {
                reason,
                tier: Tier::Simulation,
                candidate: None,
                recovered: false,
            });
            break;
        }
        let current_size = model.graph_size(g);
        let selection = select_with_rejections(
            &sim.results,
            &cfg.tradeoff,
            mode,
            initial_size,
            current_size,
            &visited,
        );
        for candidate in selection.size_rejected {
            stats.bailouts.push(BailoutRecord {
                reason: BailoutReason::SizeBudgetExceeded,
                tier: Tier::Tradeoff,
                candidate: Some(candidate),
                recovered: true,
            });
        }
        // The transform invalidates the borrow of `sim.results`; take
        // owned copies of what we need. Branch-split candidates carry a
        // simulation-time claim — "the final path element is selected by
        // the branch we are about to fold" — that must agree with the
        // control-dependence graph of the exact graph the DSTs analyzed
        // (a pure cache hit after the pre-warm above). A disagreement
        // means the fold would not eliminate a real control dependence;
        // the candidate is dropped as a recovered bailout.
        let mut plan: Vec<SimulationResult> = Vec::with_capacity(selection.accepted.len());
        for s in selection.accepted {
            if s.kind == CandidateKind::BranchSplit {
                let agreed = s.path.len() >= 2 && {
                    let taken = s.path[s.path.len() - 1];
                    let split = s.path[s.path.len() - 2];
                    cache.control_dep(g).depends_on(taken, split)
                };
                if !agreed {
                    stats.bailouts.push(BailoutRecord {
                        reason: BailoutReason::VerifierRejected(format!(
                            "control-dependence cross-check rejected branch-split ({} -> {})",
                            s.pred, s.merge
                        )),
                        tier: Tier::Tradeoff,
                        candidate: Some((s.pred, s.merge)),
                        recovered: true,
                    });
                    continue;
                }
            }
            plan.push(s.clone());
        }
        if plan.is_empty() {
            break;
        }
        // Sim-time dominator chains of the accepted candidates, taken
        // before any duplication this round (the graph is still exactly
        // the one the simulation tier analyzed). The prediction audit
        // compares them against the post-mutation chains to tell
        // ordinary intra-round staleness from a broken simulation
        // contract.
        let plan_chains: Vec<Option<Vec<BlockId>>> = plan
            .iter()
            .map(|s| dominator_chain(g, cache, s.pred))
            .collect();
        // Dominance frontiers of the accepted merges, still at the pre-
        // mutation version (pure cache hits after the pre-warm): a
        // duplication's SSA repair can insert φs anywhere in DF(merge),
        // so those blocks join the round's interference footprint once
        // the candidate is applied.
        let plan_frontiers: Vec<Vec<BlockId>> = if cfg.enable_branch_splitting {
            plan.iter()
                .map(|s| cache.frontiers(g).df(s.merge).to_vec())
                .collect()
        } else {
            vec![Vec::new(); plan.len()]
        };
        let mut cumulative = 0.0;
        let t = Instant::now();
        let mut guard_here: u128 = 0;
        let mut undo_here: u128 = 0;
        if checkpoints {
            // Refresh the recovery mark: everything up to here verified.
            let tg = Instant::now();
            if recovery_open {
                g.commit_txn();
            }
            g.begin_txn();
            recovery_open = true;
            let ns = tg.elapsed().as_nanos();
            guard_here += ns;
            undo_here += ns;
        }
        let mut stopped = None;
        // Blocks mutated by duplications applied earlier this round: the
        // interference footprint the prediction audit classifies failed
        // re-checks against.
        let mut mutated: HashSet<BlockId> = HashSet::new();
        for (i, (s, sim_chain)) in plan.iter().zip(&plan_chains).enumerate() {
            // Re-validate: earlier duplications this round may have
            // restructured the pair.
            if !g.is_merge(s.merge) || !g.succs(s.pred).contains(&s.merge) {
                continue;
            }
            if let Err(reason) = budget.check() {
                stopped = Some(reason);
                break;
            }
            // Prediction audit: re-run the applicability analysis against
            // the graph as it stands *now* (earlier candidates this round
            // already mutated it). A recorded opportunity that no longer
            // fires means the candidate is skipped rather than applied on
            // a stale promise — classified as an ordinary stale skip when
            // an earlier duplication this round touched a block the
            // candidate depends on, and as a misprediction (a simulation-
            // tier contract violation) otherwise. The audit runs against a
            // local budget, so it never charges the phase's fuel, and
            // behind a panic guard: a panicking re-check skips the
            // candidate as a recovered bailout.
            if checkpoints && !s.opportunities.is_empty() {
                let tg = Instant::now();
                let rerun = match isolate(|| audit_opportunities(g, model, cache, s)) {
                    Ok(rerun) => rerun,
                    Err(reason) => {
                        stats.bailouts.push(BailoutRecord {
                            reason,
                            tier: Tier::Optimization,
                            candidate: Some((s.pred, s.merge)),
                            recovered: true,
                        });
                        guard_here += tg.elapsed().as_nanos();
                        continue;
                    }
                };
                let missed = match &rerun {
                    Some(ops) => count_mispredictions(&s.opportunities, ops),
                    None => s.opportunities.len(),
                };
                if missed > 0 {
                    // Stale when a duplication this round touched a
                    // block the candidate's facts flow through (its
                    // sim-time dominator chain, merge or path), or when
                    // the chain itself drifted — either way the recorded
                    // facts describe a graph that no longer exists. A
                    // failed re-check on an *undisturbed* candidate is a
                    // genuine misprediction.
                    let stale = !mutated.is_empty()
                        && match (sim_chain, dominator_chain(g, cache, s.pred)) {
                            (Some(old), Some(now)) => {
                                *old != now
                                    || old
                                        .iter()
                                        .chain(std::iter::once(&s.merge))
                                        .chain(&s.path)
                                        .any(|b| mutated.contains(b))
                            }
                            _ => true,
                        };
                    if stale {
                        stats.stale_skips += 1;
                    } else {
                        stats.mispredictions += missed;
                    }
                    guard_here += tg.elapsed().as_nanos();
                    continue;
                }
                guard_here += tg.elapsed().as_nanos();
            }
            match apply_chain(g, s, checkpoints, &mut guard_here, &mut undo_here) {
                Ok(chain) => {
                    stats.duplications += chain.duplications;
                    stats.work += chain.work;
                    mutated.extend(chain.touched.iter().copied());
                    mutated.extend(plan_frontiers[i].iter().copied());
                    visited.extend(chain.visited);
                    if s.kind == CandidateKind::BranchSplit {
                        stats.split_applied += 1;
                    }
                    cumulative += s.weighted_benefit();
                    for o in &s.opportunities {
                        *stats.opportunities.entry(o.kind).or_insert(0) += 1;
                    }
                    if checkpoints {
                        // The candidate verified: move the recovery mark
                        // forward past it.
                        let tg = Instant::now();
                        g.commit_txn();
                        g.begin_txn();
                        let ns = tg.elapsed().as_nanos();
                        guard_here += ns;
                        undo_here += ns;
                    }
                }
                Err(reason) => {
                    // Contained failure: `apply_chain`'s transaction
                    // already rolled the graph back to the last verified
                    // state; move on to the next candidate.
                    if matches!(&reason, BailoutReason::VerifierRejected(m)
                        if m.starts_with("frontier-violation"))
                    {
                        stats.frontier_violations += 1;
                    }
                    stats.bailouts.push(BailoutRecord {
                        reason,
                        tier: Tier::Optimization,
                        candidate: Some((s.pred, s.merge)),
                        recovered: true,
                    });
                }
            }
        }
        stats.transform_ns += t.elapsed().as_nanos().saturating_sub(guard_here);
        stats.guard_ns += guard_here;
        stats.undo_ns += undo_here;
        if let Some(reason) = stopped {
            stats.bailouts.push(BailoutRecord {
                reason,
                tier: Tier::Optimization,
                candidate: None,
                recovered: false,
            });
            break;
        }
        // The optimization tier: apply the enabled optimizations. One
        // pipeline round suffices between iterations (the paper applies
        // the recorded action steps locally); the full fixpoint runs once
        // at the end.
        run_opt_tier(g, cache, &mut stats, checkpoints, false);
        if cumulative < cfg.iteration_benefit_threshold {
            break;
        }
    }
    run_opt_tier(g, cache, &mut stats, checkpoints, true);
    // Final checkpoint: the per-step verifications already covered the
    // happy path, so the extra whole-phase verify only runs when faults
    // are compiled in or something already went wrong this compilation.
    if checkpoints
        && (cfg!(feature = "fault-injection")
            || stats.bailouts.iter().any(|b| b.tier != Tier::Tradeoff))
    {
        let tg = Instant::now();
        if let Err(reason) = checkpoint(g) {
            let recovered = recovery_open;
            if recovery_open {
                let tu = Instant::now();
                g.rollback_txn();
                stats.undo_ns += tu.elapsed().as_nanos();
                recovery_open = false;
            }
            stats.bailouts.push(BailoutRecord {
                reason,
                tier: Tier::Optimization,
                candidate: None,
                recovered,
            });
        }
        // Cached-analysis audit: any cache entry stamped with the current
        // CFG epoch must match a from-scratch recomputation. A divergence
        // is a stamping-discipline bug; recovery drops the cache so the
        // next lookup recomputes honestly.
        let stale = cache.audit(g);
        if let Some(first) = stale.first() {
            let reason = if stale.len() == 1 {
                first.message.clone()
            } else {
                format!("{} (+{} more)", first.message, stale.len() - 1)
            };
            cache.clear();
            stats.bailouts.push(BailoutRecord {
                reason: BailoutReason::VerifierRejected(reason),
                tier: Tier::Optimization,
                candidate: None,
                recovered: true,
            });
        }
        stats.guard_ns += tg.elapsed().as_nanos();
    }
    if recovery_open {
        // The compilation ends on a verified graph: retire the recovery
        // transaction.
        let tg = Instant::now();
        g.commit_txn();
        let ns = tg.elapsed().as_nanos();
        stats.guard_ns += ns;
        stats.undo_ns += ns;
    }
    stats.final_size = model.graph_size(g);
    stats.record_cache(cache, cache_base);
    let undo_now = g.undo_stats();
    stats.undo_edits = undo_now.edits - undo_base.edits;
    stats.undo_rollbacks = undo_now.rollbacks - undo_base.rollbacks;
    stats.undo_peak = undo_now.peak_entries;
    stats
}

/// What one applied candidate (a merge plus the rest of its accepted
/// path) contributed.
#[derive(Default)]
struct ChainOutcome {
    duplications: usize,
    work: u64,
    visited: Vec<BlockId>,
    /// Every block the chain mutated: the predecessor (retargeted
    /// terminator), the merge (φs and predecessor list shrank), the
    /// fresh copy, and the successors of both (their φs gained the
    /// copy's edge). Feeds the round's interference footprint.
    touched: Vec<BlockId>,
}

fn record_step(out: &mut ChainOutcome, g: &Graph, dup: &Duplication) {
    out.visited.push(dup.merge);
    out.duplications += 1;
    out.work += g.block_insts(dup.merge).len() as u64;
    out.touched.push(dup.pred);
    out.touched.push(dup.merge);
    out.touched.push(dup.copy);
    out.touched.extend(g.succs(dup.copy));
    out.touched.extend(g.succs(dup.merge));
}

/// Applies one accepted candidate: the `(pred, merge)` duplication plus
/// the path-based extension into the freshly created copies. With
/// checkpoints on, the chain runs inside an undo-log transaction
/// ([`transact`]): each applied duplication is verified, both typed
/// transform errors and panics become bailout reasons, and a failing
/// chain is rolled back to its starting state before this returns. With
/// checkpoints off this is the pre-guardrail behavior (failures panic).
fn apply_chain(
    g: &mut Graph,
    s: &SimulationResult,
    checkpoints: bool,
    guard_ns: &mut u128,
    undo_ns: &mut u128,
) -> Result<ChainOutcome, BailoutReason> {
    if !checkpoints {
        let mut out = ChainOutcome::default();
        let mut dup = duplicate(g, s.pred, s.merge);
        record_step(&mut out, g, &dup);
        for &m in &s.path[1..] {
            if !g.is_merge(m) || !g.succs(dup.copy).contains(&m) {
                break;
            }
            dup = duplicate(g, dup.copy, m);
            record_step(&mut out, g, &dup);
        }
        return Ok(out);
    }
    let mut guard: u128 = 0;
    let (result, txn_ns) = transact(g, |g| {
        let verified = |g: &Graph, dup: &Duplication, guard: &mut u128| {
            let tg = Instant::now();
            let ck = checkpoint(g).and_then(|()| {
                // Structural frontier check on top of the verifier: the
                // copy's and merge's dominance frontiers must be
                // consistent with the edge mirrors, and equal whenever
                // neither block dominates the other (see `lint_frontier`).
                match crate::lint::lint_frontier(g, dup.copy, dup.merge) {
                    Some(d) => Err(BailoutReason::VerifierRejected(d.message)),
                    None => Ok(()),
                }
            });
            *guard += tg.elapsed().as_nanos();
            ck
        };
        let reject =
            |e: crate::transform::TransformError| BailoutReason::VerifierRejected(e.to_string());
        let mut out = ChainOutcome::default();
        let mut dup = try_duplicate(g, s.pred, s.merge).map_err(reject)?;
        record_step(&mut out, g, &dup);
        verified(g, &dup, &mut guard)?;
        // Path-based extension: duplicate the remaining merges of the
        // accepted path into the freshly created copies. For a
        // branch-split candidate the last path element is the successor
        // selected by the copy's statically-decided branch — it became a
        // merge the moment the copy's terminator targeted it, so the
        // same guard and transform handle the hop.
        for &m in &s.path[1..] {
            if !g.is_merge(m) || !g.succs(dup.copy).contains(&m) {
                break;
            }
            dup = try_duplicate(g, dup.copy, m).map_err(reject)?;
            record_step(&mut out, g, &dup);
            verified(g, &dup, &mut guard)?;
        }
        Ok(out)
    });
    *guard_ns += guard + txn_ns;
    *undo_ns += txn_ns;
    result
}

/// Runs the optimization pipeline (`optimize_once`, or the full fixpoint
/// when `full`) behind the guardrails: the pipeline runs inside an
/// undo-log transaction, so a panicking pass is caught and the graph
/// rolled back to its pre-pass state. With faults compiled in, the
/// result is also verified (a corrupted graph rolls back the same way).
fn run_opt_tier(
    g: &mut Graph,
    cache: &mut AnalysisCache,
    stats: &mut PhaseStats,
    checkpoints: bool,
    full: bool,
) {
    if !checkpoints {
        fault_point("phase/optimize", Some(g));
        let t = Instant::now();
        if full {
            optimize_full(g, cache);
        } else {
            optimize_once(g, cache);
        }
        stats.opt_ns += t.elapsed().as_nanos();
        return;
    }
    let mut opt_ns: u128 = 0;
    let mut verify_ns: u128 = 0;
    let (result, txn_ns) = transact(g, |g| {
        // Inside the guard so an injected panic here is contained.
        fault_point("phase/optimize", Some(g));
        let t = Instant::now();
        if full {
            optimize_full(g, cache);
        } else {
            optimize_once(g, cache);
        }
        opt_ns = t.elapsed().as_nanos();
        if cfg!(feature = "fault-injection") {
            // Production builds skip this verify: optimizer bugs surface
            // as panics (caught by the transaction), injected corruption
            // only exists with the feature on.
            let tv = Instant::now();
            let ck = checkpoint(g);
            verify_ns = tv.elapsed().as_nanos();
            ck?;
        }
        Ok(())
    });
    stats.opt_ns += opt_ns;
    stats.guard_ns += verify_ns + txn_ns;
    stats.undo_ns += txn_ns;
    if let Err(reason) = result {
        stats.bailouts.push(BailoutRecord {
            reason,
            tier: Tier::Optimization,
            candidate: None,
            recovered: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::simulate_paths;
    use dbds_ir::{
        execute, verify, ClassTable, CmpOp, ConstValue, GraphBuilder, Inst, Terminator, Type, Value,
    };
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    fn figure1() -> Graph {
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
        b.finish()
    }

    #[test]
    fn dbds_reproduces_figure1c() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        verify(&g).unwrap();
        assert!(stats.duplications >= 1, "stats: {stats:?}");
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-1)]).outcome, Ok(Value::Int(2)));
        // Figure 1c: the false path returns the constant 2 — no add on
        // that path anymore. Find the return blocks.
        let mut const_return_found = false;
        for b in g.reachable_blocks() {
            if let Terminator::Return { value: Some(v) } = g.terminator(b) {
                if matches!(g.inst(*v), Inst::Const(ConstValue::Int(2))) {
                    const_return_found = true;
                }
            }
        }
        assert!(const_return_found, "expected a `return 2` path:\n{g}");
    }

    #[test]
    fn baseline_does_not_duplicate() {
        let mut g = figure1();
        let model = CostModel::new();
        let before_blocks = g.reachable_blocks().len();
        let stats = compile(&mut g, &model, OptLevel::Baseline, &DbdsConfig::default());
        assert_eq!(stats.duplications, 0);
        verify(&g).unwrap();
        // The diamond with the φ remains (no duplication happened).
        assert_eq!(g.reachable_blocks().len(), before_blocks);
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
    }

    #[test]
    fn dupalot_duplicates_at_least_as_much_as_dbds() {
        let mut g1 = figure1();
        let mut g2 = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let dbds = compile(&mut g1, &model, OptLevel::Dbds, &cfg);
        let dupalot = compile(&mut g2, &model, OptLevel::Dupalot, &cfg);
        assert!(dupalot.duplications >= dbds.duplications);
        verify(&g1).unwrap();
        verify(&g2).unwrap();
    }

    #[test]
    fn all_levels_preserve_semantics_on_listing1() {
        let build = || {
            let mut b = GraphBuilder::new("l1", &[Type::Int], empty_table());
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
            b.finish()
        };
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let reference = build();
        for level in [
            OptLevel::Baseline,
            OptLevel::Dbds,
            OptLevel::Dupalot,
            OptLevel::Backtracking,
        ] {
            let mut g = build();
            compile(&mut g, &model, level, &cfg);
            // Route through the phase's own checkpoint API so this test
            // exercises the same verification path the guardrails use.
            checkpoint(&g).unwrap_or_else(|e| panic!("level {level:?} broke the graph: {e}"));
            for v in [-7i64, 0, 1, 12, 13, 100] {
                assert_eq!(
                    execute(&g, &[Value::Int(v)]).outcome,
                    execute(&reference, &[Value::Int(v)]).outcome,
                    "level {level:?}, input {v}"
                );
            }
        }
    }

    #[test]
    fn dbds_improves_static_estimate_on_figure1() {
        let model = CostModel::new();
        let measure = |g: &Graph| model.weighted_cycles(g, &mut AnalysisCache::new());
        let mut base = figure1();
        compile(
            &mut base,
            &model,
            OptLevel::Baseline,
            &DbdsConfig::default(),
        );
        let mut opt = figure1();
        compile(&mut opt, &model, OptLevel::Dbds, &DbdsConfig::default());
        assert!(
            measure(&opt) <= measure(&base),
            "DBDS should not regress the static estimate"
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            max_iterations: 1,
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn pool_plan_honors_explicit_widths() {
        let with = |u: usize| DbdsConfig {
            unit_threads: u,
            ..DbdsConfig::default()
        };
        for u in [1, 2, 4, 8] {
            let plan = with(u).pool_plan(45);
            assert_eq!((plan.unit_workers, plan.sim_workers), (u, 0));
        }
        // Never wider than the unit count, never zero.
        assert_eq!(with(16).pool_plan(3).unit_workers, 3);
        assert_eq!(with(16).pool_plan(0).unit_workers, 1);
    }

    #[test]
    fn pool_plan_adapts_to_hardware() {
        let hw = crate::par::hardware_threads();
        let auto = DbdsConfig {
            unit_threads: 0,
            ..DbdsConfig::default()
        };
        let plan = auto.pool_plan(45);
        assert_eq!(plan.unit_workers, hw.min(45));
        assert_eq!(plan.sim_workers, 0);
        // Queue depth still clamps the adaptive width.
        assert_eq!(auto.pool_plan(1).unit_workers, 1);
    }

    #[test]
    fn size_budget_limits_duplications() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            tradeoff: TradeoffConfig {
                size_increase_budget: 1.0, // no growth allowed
                ..TradeoffConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        // Figure 1's duplication shrinks one path but the heuristic sees a
        // positive cost on the kept path only via budget; with zero budget
        // only negative/zero-cost candidates pass.
        assert!(stats.final_size <= stats.initial_size);
        verify(&g).unwrap();
    }

    #[test]
    fn phase_stats_report_cache_counters() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        // Every compilation computes dominators at least once (cold cache)
        // and the simulate → optimize loop revisits them.
        assert!(stats.cache.misses > 0, "stats: {stats:?}");
        assert!(stats.cache.hits > 0, "stats: {stats:?}");
        assert!(stats.cache.invalidations <= stats.cache.misses);
    }

    #[test]
    fn happy_path_records_no_bailouts() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        assert!(stats.duplications >= 1);
        assert!(stats.bailouts.is_empty(), "bailouts: {:?}", stats.bailouts);
    }

    #[test]
    fn happy_path_prediction_audit_confirms_every_candidate() {
        // The audit runs before every applied candidate (checkpoints are
        // on by default); on the happy path it must confirm each one —
        // a nonzero count here would mean the simulation tier's promises
        // don't survive to application even without interference.
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        assert!(stats.duplications >= 1);
        assert_eq!(stats.mispredictions, 0, "stats: {stats:?}");
    }

    #[test]
    fn fuel_exhaustion_bails_out_with_a_verified_graph() {
        let mut g = figure1();
        let reference = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            guard: GuardConfig {
                fuel: Some(1),
                ..GuardConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert!(
            stats
                .bailouts
                .iter()
                .any(|b| b.reason == BailoutReason::FuelExhausted && !b.recovered),
            "bailouts: {:?}",
            stats.bailouts
        );
        checkpoint(&g).unwrap();
        for v in [-3i64, 0, 5] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
            );
        }
    }

    #[test]
    fn zero_deadline_bails_out_with_a_verified_graph() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            guard: GuardConfig {
                deadline: Some(std::time::Duration::ZERO),
                ..GuardConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert!(
            stats
                .bailouts
                .iter()
                .any(|b| b.reason == BailoutReason::DeadlineExceeded),
            "bailouts: {:?}",
            stats.bailouts
        );
        checkpoint(&g).unwrap();
    }

    #[test]
    fn size_budget_rejections_are_recorded() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            tradeoff: TradeoffConfig {
                size_increase_budget: 1.0, // no growth allowed
                ..TradeoffConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        // The false-path candidate's benefit clears the cost heuristic
        // but the zero growth budget blocks it — that exact incident
        // must be visible in the stats.
        assert!(
            stats.bailouts.iter().any(|b| {
                b.reason == BailoutReason::SizeBudgetExceeded
                    && b.tier == Tier::Tradeoff
                    && b.recovered
            }),
            "bailouts: {:?}",
            stats.bailouts
        );
        assert_eq!(stats.duplications, 0);
        checkpoint(&g).unwrap();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_transform_panic_is_contained() {
        use crate::faultinject::{arm, disarm, FaultKind, FaultPlan};
        let reference = figure1();
        let mut g = figure1();
        let model = CostModel::new();
        arm(FaultPlan {
            site: "transform/copy-body",
            kind: FaultKind::Panic,
            nth: 0,
            seed: 0,
        });
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        let (_, fired) = disarm();
        assert!(fired, "the fault must have been reached");
        assert!(
            stats.bailouts.iter().any(|b| {
                matches!(b.reason, BailoutReason::TransformPanicked(_)) && b.recovered
            }),
            "bailouts: {:?}",
            stats.bailouts
        );
        checkpoint(&g).unwrap();
        for v in [-3i64, 0, 5] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
            );
        }
    }

    /// Listing 1 shaped so the cold path decides the second conditional:
    /// on the `bf` edge the merge's φ is the constant 13, so `13 > 12`
    /// folds and the DST continues through the decided branch into
    /// `b12` — a branch-split candidate.
    fn split_listing() -> Graph {
        let mut b = GraphBuilder::new("split", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let one = b.iconst(1);
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
        let q = b.add(p, one);
        b.ret(Some(q));
        b.switch_to(bi);
        b.ret(Some(i));
        b.finish()
    }

    #[test]
    fn branch_splitting_eliminates_the_decided_conditional() {
        let mut g = split_listing();
        let reference = split_listing();
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert!(stats.split_candidates > 0, "stats: {stats:?}");
        assert!(stats.split_applied >= 1, "stats: {stats:?}");
        assert_eq!(stats.frontier_violations, 0, "stats: {stats:?}");
        checkpoint(&g).unwrap();
        for v in [-7i64, 0, 1, 12, 13, 100] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
                "input {v}"
            );
        }
    }

    #[test]
    fn merge_only_ablation_is_dominated_on_split_shapes() {
        let model = CostModel::new();
        let measure = |enable: bool| {
            let cfg = DbdsConfig {
                enable_branch_splitting: enable,
                ..DbdsConfig::default()
            };
            let mut g = split_listing();
            let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
            let cycles = model.weighted_cycles(&g, &mut AnalysisCache::new());
            (stats, cycles)
        };
        let (combined, combined_cycles) = measure(true);
        let (merge_only, merge_only_cycles) = measure(false);
        assert_eq!(merge_only.split_candidates, 0);
        assert_eq!(merge_only.split_applied, 0);
        assert!(combined.split_applied >= 1, "stats: {combined:?}");
        assert!(
            combined_cycles <= merge_only_cycles,
            "combined ({combined_cycles}) must not lose to merge-only ({merge_only_cycles})"
        );
    }

    #[test]
    fn reverse_analyses_hit_the_cache_during_the_phase() {
        // The pre-warm computes postdom/frontiers/control-dep once per
        // iteration; the CDG cross-check and the interference frontiers
        // then revalidate as pure hits at the same version.
        let mut g = split_listing();
        let stats = compile(
            &mut g,
            &CostModel::new(),
            OptLevel::Dbds,
            &DbdsConfig::default(),
        );
        assert!(stats.cache.rev_misses > 0, "stats: {stats:?}");
        assert!(stats.cache.rev_hits > 0, "stats: {stats:?}");
    }

    #[test]
    fn fingerprint_distinguishes_branch_splitting() {
        let on = DbdsConfig {
            enable_branch_splitting: true,
            ..DbdsConfig::default()
        };
        let off = DbdsConfig {
            enable_branch_splitting: false,
            ..DbdsConfig::default()
        };
        assert_ne!(
            on.fingerprint(OptLevel::Dbds),
            off.fingerprint(OptLevel::Dbds)
        );
    }

    #[test]
    fn unchanged_iteration_recomputes_no_dominators() {
        // An already-optimal straight-line graph: the phase's fixpoint
        // pipeline and the simulation tier run repeatedly without any
        // structural change, so after the first (cold) computation every
        // analysis lookup must be a cache hit.
        let mut b = GraphBuilder::new("line", &[Type::Int], empty_table());
        let x = b.param(0);
        b.ret(Some(x));
        let mut g = b.finish();
        let model = CostModel::new();
        let mut cache = AnalysisCache::new();
        // Warm the cache: one optimize pass (no structural change on this
        // graph) plus one simulation sweep.
        dbds_opt::optimize_full(&mut g, &mut cache);
        simulate_paths(&g, &model, &mut cache, 1);
        let warm = cache.stats();
        // A full no-change phase iteration on the warm cache.
        let stats = run_dbds(
            &mut g,
            &model,
            &DbdsConfig::default(),
            SelectionMode::CostBenefit,
            &mut cache,
        );
        assert_eq!(stats.duplications, 0);
        let now = cache.stats();
        assert_eq!(
            now.misses, warm.misses,
            "no-structural-change iteration must not recompute any analysis"
        );
        assert_eq!(now.invalidations, warm.invalidations);
        assert!(now.hits > warm.hits);
        // The delta recorded into PhaseStats agrees: all hits, no misses.
        assert_eq!(stats.cache.misses, 0);
        assert!(stats.cache.hits > 0);
    }
}
