//! Backend parity property tests: the in-memory and on-disk store
//! backends must expose identical get/put/evict/keys semantics under
//! arbitrary operation sequences — including after the on-disk backend
//! is "crashed" (dropped with a stray temp file planted, as a writer
//! dying mid-install would leave it) and reopened through its recovery
//! scan. The same holds with a [`BoundedStore`] over each backend,
//! eviction victims included.

use dbds_server::{BoundedStore, CompiledStore, DiskStore, MemStore, StoreKey};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of a random store script. Keys and payloads come from a
/// small alphabet so collisions (overwrites, double evicts) actually
/// happen.
#[derive(Clone, Debug)]
enum Op {
    Put(u8, u8),
    Get(u8),
    Evict(u8),
    Keys,
    /// Crash the disk backend (drop it, plant a stray temp file) and
    /// reopen it; the in-memory reference is untouched — installed
    /// entries must survive, the stray temp must not surface.
    CrashAndReopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (discriminant, key, payload version) — the vendored proptest
    // subset has no `prop_oneof`, so one mapped tuple picks the op.
    (0u8..10, 0u8..6, 0u8..255).prop_map(|(which, k, v)| match which {
        0..=3 => Op::Put(k, v),
        4..=6 => Op::Get(k),
        7 => Op::Evict(k),
        8 => Op::Keys,
        _ => Op::CrashAndReopen,
    })
}

fn key(k: u8) -> StoreKey {
    StoreKey {
        graph: u64::from(k) + 1,
        config: 0xC0FFEE,
    }
}

fn payload(k: u8, v: u8) -> Vec<u8> {
    format!("payload for key {k} version {v}\n").into_bytes()
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbds-store-parity-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a writer killed mid-install leaves behind.
fn plant_stray_tmp(dir: &Path) {
    std::fs::write(
        dir.join(format!("{}.tmp4242", key(0))),
        b"torn half-written entry",
    )
    .expect("plant stray tmp");
}

/// The bounded-store budget: payloads are about 31 bytes, so two
/// entries fit and puts under pressure run the eviction clock.
const BUDGET: u64 = 60;

fn open_bounded_disk(dir: &Path) -> BoundedStore {
    let disk = DiskStore::open(dir).expect("open disk store");
    BoundedStore::new(Box::new(disk), BUDGET).expect("bound disk store")
}

/// The in-memory side of a crash: a new bounded store over exactly the
/// live entries, the state the reopened disk side reseeds its clock
/// from.
fn reopen_bounded_mem(old: &mut BoundedStore) -> BoundedStore {
    let mut mem = MemStore::new();
    for k in old.keys().expect("mem keys") {
        let live = old.get(&k).expect("mem get").expect("listed entry");
        mem.put(&k, &live).expect("mem put");
    }
    BoundedStore::new(Box::new(mem), BUDGET).expect("bound mem store")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mem_and_disk_backends_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let dir = fresh_dir();
        let mut mem = MemStore::new();
        let mut disk = DiskStore::open(&dir).expect("open disk store");
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Put(k, v) => {
                    mem.put(&key(*k), &payload(*k, *v)).expect("mem put");
                    disk.put(&key(*k), &payload(*k, *v)).expect("disk put");
                }
                Op::Get(k) => {
                    let m = mem.get(&key(*k)).expect("mem get");
                    let d = disk.get(&key(*k)).expect("disk get");
                    prop_assert_eq!(m, d, "get({}) diverged at step {}", k, i);
                }
                Op::Evict(k) => {
                    let m = mem.evict(&key(*k)).expect("mem evict");
                    let d = disk.evict(&key(*k)).expect("disk evict");
                    prop_assert_eq!(m, d, "evict({}) diverged at step {}", k, i);
                }
                Op::Keys => {
                    prop_assert_eq!(
                        mem.keys().expect("mem keys"),
                        disk.keys().expect("disk keys"),
                        "keys() diverged at step {}", i
                    );
                }
                Op::CrashAndReopen => {
                    drop(disk);
                    plant_stray_tmp(&dir);
                    disk = DiskStore::open(&dir).expect("reopen disk store");
                    prop_assert_eq!(
                        disk.health().quarantined, 0,
                        "recovery scan quarantined a healthy entry at step {}", i
                    );
                }
            }
        }
        // Final state must agree in full.
        prop_assert_eq!(mem.keys().expect("mem keys"), disk.keys().expect("disk keys"));
        for k in 0u8..6 {
            prop_assert_eq!(
                mem.get(&key(k)).expect("mem get"),
                disk.get(&key(k)).expect("disk get"),
                "final get({}) diverged", k
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bounded disk store evicts exactly what a bounded memory store
    /// evicts: same hits, same victims after every put, same eviction
    /// counts, across crash-and-reopen (both clocks reseed from the
    /// sorted live keys).
    #[test]
    fn bounded_disk_and_bounded_mem_agree(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let dir = fresh_dir();
        let mut mem = BoundedStore::new(Box::new(MemStore::new()), BUDGET).expect("bound mem");
        let mut disk = open_bounded_disk(&dir);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Put(k, v) => {
                    mem.put(&key(*k), &payload(*k, *v)).expect("mem put");
                    disk.put(&key(*k), &payload(*k, *v)).expect("disk put");
                    prop_assert_eq!(
                        mem.keys().expect("mem keys"),
                        disk.keys().expect("disk keys"),
                        "victims diverged at step {}", i
                    );
                }
                Op::Get(k) => {
                    let m = mem.get(&key(*k)).expect("mem get");
                    let d = disk.get(&key(*k)).expect("disk get");
                    prop_assert_eq!(m, d, "get({}) diverged at step {}", k, i);
                }
                Op::Evict(k) => {
                    let m = mem.evict(&key(*k)).expect("mem evict");
                    let d = disk.evict(&key(*k)).expect("disk evict");
                    prop_assert_eq!(m, d, "evict({}) diverged at step {}", k, i);
                }
                Op::Keys => {
                    prop_assert_eq!(
                        mem.keys().expect("mem keys"),
                        disk.keys().expect("disk keys"),
                        "keys() diverged at step {}", i
                    );
                }
                Op::CrashAndReopen => {
                    drop(disk);
                    plant_stray_tmp(&dir);
                    disk = open_bounded_disk(&dir);
                    mem = reopen_bounded_mem(&mut mem);
                    prop_assert_eq!(
                        disk.health().quarantined, 0,
                        "recovery scan quarantined a healthy entry at step {}", i
                    );
                }
            }
            // Eviction counters restart on reopen, on both sides.
            prop_assert_eq!(
                mem.health().evictions,
                disk.health().evictions,
                "eviction count diverged at step {}", i
            );
        }
        prop_assert_eq!(mem.keys().expect("mem keys"), disk.keys().expect("disk keys"));
        for k in 0u8..6 {
            prop_assert_eq!(
                mem.get(&key(k)).expect("mem get"),
                disk.get(&key(k)).expect("disk get"),
                "final get({}) diverged", k
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
