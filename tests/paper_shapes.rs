//! Suite-level shape assertions: the qualitative claims of §6.2 that the
//! reproduction must uphold (who wins, and roughly how).

use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::harness::{format_summary, run_suite, IcacheModel, Metric, SuiteResult};
use dbds::workloads::Suite;
use std::sync::OnceLock;
use std::time::Instant;

/// Every suite at the default configuration — what `figures --summary`
/// runs — computed once and shared by the tests that need all four.
fn all_suites() -> &'static [SuiteResult] {
    static RESULTS: OnceLock<Vec<SuiteResult>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let ic = IcacheModel::default();
        Suite::ALL
            .iter()
            .map(|&s| run_suite(s, &model, &cfg, &ic))
            .collect()
    })
}

#[test]
fn micro_benefits_more_than_java_dacapo() {
    // §6.2: "The Octane suite and the micro benchmarks show the highest
    // peak performance increases … whereas benchmark suites such as Java
    // DaCapo benefit less from duplication."
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let ic = IcacheModel::default();
    let micro = run_suite(Suite::Micro, &model, &cfg, &ic);
    let java = run_suite(Suite::JavaDaCapo, &model, &cfg, &ic);
    let micro_peak = micro.geomean(OptLevel::Dbds, Metric::Peak);
    let java_peak = java.geomean(OptLevel::Dbds, Metric::Peak);
    assert!(
        micro_peak > java_peak,
        "micro {micro_peak:.2}% should beat java {java_peak:.2}%"
    );
    assert!(micro_peak > 0.0);

    // "not performing all duplication opportunities always results in
    // less code": dupalot grows code more than DBDS on both suites.
    for suite in [&micro, &java] {
        let dbds_size = suite.geomean(OptLevel::Dbds, Metric::CodeSize);
        let dup_size = suite.geomean(OptLevel::Dupalot, Metric::CodeSize);
        assert!(
            dup_size > dbds_size,
            "{:?}: dupalot size {dup_size:.2}% vs DBDS {dbds_size:.2}%",
            suite.suite
        );
    }
}

#[test]
fn suite_ordering_matches_the_paper() {
    // §6.2 orders the suites by DBDS peak improvement: Octane and micro
    // highest, Scala DaCapo in the middle, Java DaCapo least. Assert the
    // coarse ordering: {octane, micro} > scala > java.
    let peak = |s: Suite| {
        all_suites()
            .iter()
            .find(|r| r.suite == s)
            .expect("every suite was run")
            .geomean(OptLevel::Dbds, Metric::Peak)
    };
    let java = peak(Suite::JavaDaCapo);
    let scala = peak(Suite::ScalaDaCapo);
    let micro = peak(Suite::Micro);
    let octane = peak(Suite::Octane);
    assert!(
        scala > java,
        "scala {scala:.2}% should beat java {java:.2}%"
    );
    assert!(
        micro > scala && octane > scala,
        "micro {micro:.2}% / octane {octane:.2}% should beat scala {scala:.2}%"
    );
    assert!(java > 0.0 && octane > 0.0, "all suites improve");
}

/// The deterministic columns of the cross-suite headline, pinned to the
/// figures EXPERIMENTS.md reports: peak performance and code size of the
/// `dbds` and `dupalot` rows, and the maximum DBDS peak gain. The
/// compile-time column is wall clock and is left out. The simulation
/// tier walks the dominator tree in preorder, so a change to that order
/// shows up here.
#[test]
fn headline_summary_matches_experiments() {
    let text = format_summary(all_suites());
    let row = |name: &str| -> Vec<String> {
        text.lines()
            .find(|l| l.split('|').next().map(str::trim) == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` row in\n{text}"))
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let (dbds, dupalot) = (row("dbds"), row("dupalot"));
    assert_eq!(
        (dbds[1].as_str(), dbds[3].as_str()),
        ("12.14%", "14.26%"),
        "{text}"
    );
    assert_eq!(
        (dupalot[1].as_str(), dupalot[3].as_str()),
        ("10.79%", "27.01%"),
        "{text}"
    );
    assert!(
        text.contains("\nMaximum DBDS peak performance increase: 52.42%\n"),
        "{text}"
    );
}

#[test]
fn backtracking_costs_an_order_of_magnitude_more_compile_time() {
    // §3.1: "the copy operation increased compilation time by a factor of
    // 10". We require at least 5× on the micro suite (wall-clock, so
    // leave slack).
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let mut dbds_total = 0.0f64;
    let mut back_total = 0.0f64;
    for w in Suite::Micro.workloads() {
        let mut g1 = w.graph.clone();
        let t0 = Instant::now();
        compile(&mut g1, &model, OptLevel::Dbds, &cfg);
        dbds_total += t0.elapsed().as_secs_f64();

        let mut g2 = w.graph.clone();
        let t1 = Instant::now();
        compile(&mut g2, &model, OptLevel::Backtracking, &cfg);
        back_total += t1.elapsed().as_secs_f64();
    }
    let ratio = back_total / dbds_total;
    assert!(
        ratio > 5.0,
        "backtracking should be ≫ slower than simulation, got {ratio:.1}x"
    );
}

#[test]
fn dupalot_does_strictly_more_work_than_dbds() {
    // The paper's compile-time claim in robust (non-wall-clock) terms:
    // dupalot performs more duplications and ships more code on every
    // suite level, so it necessarily spends more compile effort.
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let ic = IcacheModel::default();
    let micro = run_suite(Suite::Micro, &model, &cfg, &ic);
    let dbds_dups: usize = micro.rows.iter().map(|r| r.dbds.stats.duplications).sum();
    let dup_dups: usize = micro
        .rows
        .iter()
        .map(|r| r.dupalot.stats.duplications)
        .sum();
    assert!(
        dup_dups > dbds_dups,
        "dupalot performed {dup_dups} duplications vs DBDS {dbds_dups}"
    );
    // Wall clock over the whole suite (aggregated to dampen noise): the
    // trade-off must not make DBDS slower to compile than dupalot.
    let dbds_ns: u128 = micro.rows.iter().map(|r| r.dbds.compile_ns).sum();
    let dup_ns: u128 = micro.rows.iter().map(|r| r.dupalot.compile_ns).sum();
    assert!(
        dup_ns as f64 > dbds_ns as f64 * 0.8,
        "dupalot total {dup_ns} ns vs DBDS {dbds_ns} ns"
    );
}

#[test]
fn every_configuration_preserves_outcomes_on_micro() {
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let ic = IcacheModel::default();
    let micro = run_suite(Suite::Micro, &model, &cfg, &ic);
    for row in &micro.rows {
        assert!(row.outcomes_agree(), "{} diverged", row.name);
    }
}
