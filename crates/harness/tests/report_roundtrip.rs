//! Report fidelity gates:
//!
//! 1. The harness `--json` report survives `serialize → parse →
//!    reserialize` byte-identically (so downstream tooling can safely
//!    rewrite reports through `dbds_server::json`).
//! 2. The committed `BENCH_suite.json` carries exactly the schema tag
//!    the `bench_suite` binary emits — a schema bump without a
//!    regenerated baseline fails here.
//! 3. The compile-cache session counters embedded in the report are
//!    byte-identical across unit-thread counts and show a full-hit
//!    second pass.

use dbds_core::{DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_harness::{format_json, run_suite, IcacheModel, BENCH_SUITE_SCHEMA};
use dbds_server::json::{parse, Json};
use dbds_server::{run_session, CompileService, MemStore, ServiceConfig, SessionReport};
use dbds_workloads::Suite;

fn micro_report(session: Option<&SessionReport>) -> String {
    let cfg = DbdsConfig::default();
    let results = vec![run_suite(
        Suite::Micro,
        &CostModel::new(),
        &cfg,
        &IcacheModel::default(),
    )];
    format_json(&results, cfg.unit_threads, session)
}

fn mem_session(unit_threads: usize) -> SessionReport {
    let cfg = DbdsConfig {
        unit_threads,
        ..DbdsConfig::default()
    };
    let svc = CompileService::new(Box::new(MemStore::new()), cfg, ServiceConfig::default());
    run_session(&svc, &[OptLevel::Dbds], 2)
}

#[test]
fn json_report_reserializes_byte_identically() {
    let text = micro_report(None);
    let tree = parse(&text).unwrap_or_else(|e| panic!("report does not parse: {e}"));
    assert_eq!(tree.pretty(), text, "parse → pretty is not the identity");
    // The null store placeholder keeps the schema stable without a
    // session.
    assert_eq!(tree.get("store"), Some(&Json::Null));
}

#[test]
fn json_report_with_store_session_reserializes_byte_identically() {
    let session = mem_session(1);
    let text = micro_report(Some(&session));
    let tree = parse(&text).unwrap_or_else(|e| panic!("report does not parse: {e}"));
    assert_eq!(tree.pretty(), text, "parse → pretty is not the identity");

    let store = tree.get("store").expect("store block missing");
    assert_eq!(store.get("backend").and_then(Json::as_str), Some("mem"));
    let counter = |name: &str| {
        store
            .get("totals")
            .and_then(|t| t.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing store counter {name}"))
    };
    // Every service counter the acceptance gate names is present.
    for name in [
        "hits",
        "misses",
        "quarantined",
        "shed",
        "retries",
        "degraded",
    ] {
        counter(name);
    }
    assert_eq!(
        counter("hits"),
        counter("misses"),
        "2-pass session: pass 2 all hits"
    );
}

#[test]
fn store_counters_identical_across_unit_thread_counts() {
    let one = mem_session(1);
    let four = mem_session(4);
    assert_eq!(one, four, "session counters depend on unit_threads");
}

#[test]
fn session_second_pass_hit_rate_exceeds_90_pct() {
    let session = mem_session(1);
    assert!(
        session.hit_rate(1) > 0.9,
        "second-pass hit rate {} ≤ 0.9",
        session.hit_rate(1)
    );
}

#[test]
fn committed_bench_baseline_matches_schema_const() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed BENCH_suite.json: {e}"));
    let tree = parse(&text).unwrap_or_else(|e| panic!("BENCH_suite.json does not parse: {e}"));
    assert_eq!(
        tree.get("schema").and_then(Json::as_str),
        Some(BENCH_SUITE_SCHEMA),
        "committed baseline schema drifted from BENCH_SUITE_SCHEMA"
    );
    // The sweep records the winning unit-pool width. The requested value
    // may be 0 (adaptive), but the resolved worker count is what the
    // machine actually ran.
    let chosen = tree.get("chosen").expect("baseline lacks a chosen block");
    for key in ["unit_threads", "wall_ms"] {
        assert!(chosen.get(key).is_some(), "chosen block lacks {key}");
    }
    let workers = |key: &str| {
        chosen
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("chosen block lacks {key}"))
    };
    assert!(
        workers("unit_workers") >= 1,
        "chosen plan has no unit worker"
    );
}
