//! Ablation for the unit-level compilation queue: the same suite
//! compiled at 1/2/4/8 unit workers. Results are bit-identical for every
//! width (the harness byte-identity tests), so the sweep isolates pure
//! wall-clock scaling.
//!
//! Scaling is hardware-bound: on a single-core container every width
//! degenerates to timeslicing and the interesting number is the
//! *overhead* of the threaded configuration over the inline 1-thread
//! path, which this sweep bounds instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbds_core::DbdsConfig;
use dbds_costmodel::CostModel;
use dbds_harness::{run_suite, IcacheModel};
use dbds_workloads::Suite;
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_unit_queue(c: &mut Criterion) {
    let model = CostModel::new();
    let icache = IcacheModel::default();
    let mut group = c.benchmark_group("unit_threads_suite");
    group.sample_size(10);
    for threads in THREADS {
        let cfg = DbdsConfig {
            unit_threads: threads,
            ..DbdsConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("run_suite", threads), &cfg, |b, cfg| {
            b.iter(|| {
                let result = run_suite(Suite::Micro, &model, cfg, &icache);
                black_box(result.rows.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_unit_queue);
criterion_main!(benches);
