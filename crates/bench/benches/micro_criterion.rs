//! Microbenchmarks of the substrates: the data-structure-level costs
//! underlying the paper's macro results.
//!
//! * zipfian sampling (workload-generation overhead sanity),
//! * version-chain install / visible-lookup,
//! * the CC thread's per-RMW body (probe, annotate, reclaim, take, install)
//!   over a table that does not fit the caches, three ways: un-fused and
//!   blocking, fused and blocking, fused behind the staged look-ahead,
//! * lock-table acquire/release,
//! * timestamp assignment: BOHM's sequencer (one uncontended add on the
//!   single sequencer thread) vs. a shared atomic counter hammered by many
//!   threads — the §2.1 bottleneck in isolation.
//!
//! (Formerly a `criterion` target; rewritten over a minimal local timing
//! harness because the hermetic build has no access to the criterion
//! crate. The target keeps its historical name.)

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measure `op` by timed batches until ~`window` elapses; prints ns/op.
fn bench(name: &str, mut op: impl FnMut()) {
    // Warm-up + batch sizing: aim for batches of ~1ms.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t0.elapsed() >= Duration::from_millis(1) || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let window = Duration::from_millis(300);
    let start = Instant::now();
    let mut iters = 0u64;
    let mut best = f64::INFINITY;
    while start.elapsed() < window {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        let ns = t0.elapsed().as_nanos() as f64 / batch as f64;
        best = best.min(ns);
        iters += batch;
    }
    println!("{name:<44} {best:>10.1} ns/op   ({iters} iters)");
}

fn bench_zipf() {
    use bohm_common::rng::FastRng;
    use bohm_common::zipf::Zipf;
    for theta in [0.0, 0.9] {
        let z = Zipf::new(1_000_000, theta);
        let mut rng = FastRng::seed_from(1);
        bench(&format!("zipf/sample_theta_{theta}"), || {
            black_box(z.sample(&mut rng));
        });
    }
}

fn bench_chain() {
    use bohm_mvstore::{Chain, Version};
    use crossbeam_epoch as epoch;
    bench("version_chain/install_64", || {
        let chain = Chain::new();
        let guard = epoch::pin();
        for ts in 1..=64u64 {
            chain.install(
                epoch::Owned::new(Version::ready(ts, bohm_common::value::of_u64(ts, 8))),
                &guard,
            );
        }
        black_box(&chain);
    });
    let chain = Chain::new();
    {
        let guard = epoch::pin();
        for ts in 1..=128u64 {
            chain.install(
                epoch::Owned::new(Version::ready(ts, bohm_common::value::of_u64(ts, 8))),
                &guard,
            );
        }
    }
    {
        let guard = epoch::pin();
        bench("version_chain/visible_latest", || {
            black_box(chain.visible(black_box(1_000), &guard));
        });
    }
    {
        let guard = epoch::pin();
        bench("version_chain/visible_deep", || {
            black_box(chain.visible(black_box(2), &guard));
        });
    }
}

/// The CC layer's standalone number: ns per RMW of a `micro_rmw10`-shaped
/// stream (ten uniform keys per transaction) against a preloaded 1M-key
/// index with 8-byte versions, the Condition-3 bound trailing the
/// timestamp by 8192 transactions — the work `cc::process_batch` does per
/// fused plan entry, without the engine around it.
///
/// * `unfused_blocking` — the loop before fusion: per transaction ten
///   `get` + annotate, then ten `get_or_insert` + reclaim/take/install of
///   the same keys. Twice the probes, but the ten read probes are
///   independent and overlap their own misses.
/// * `fused_blocking` — one probe per key. Fewer loads, yet *slower* on a
///   table this size: every probe is now followed by dependent work, so the
///   misses serialize.
/// * `fused_look_ahead` — the same body with `HashIndex::look_ahead`'s
///   stages run a fixed distance ahead, as the engine does.
fn bench_cc_body() {
    use bohm_common::rng::FastRng;
    use bohm_common::RecordId;
    use bohm_mvstore::{HashIndex, ProbeFor, Version, VersionIndex, VersionPool};
    use crossbeam_epoch as epoch;
    const KEYS: u64 = 1_000_000;
    const TXNS: usize = 100_000;
    const LAG: u64 = 8192;
    const DISTANCE: usize = 4;
    let index = HashIndex::with_capacity(KEYS as usize);
    let guard = epoch::pin();
    for row in 0..KEYS {
        let v = Version::ready(0, bohm_common::value::of_u64(row, 8));
        index
            .get_or_insert(RecordId::new(0, row), &guard)
            .install(epoch::Owned::new(v), &guard);
    }
    let mut rng = FastRng::seed_from(7);
    let keys: Vec<RecordId> = (0..TXNS * 10)
        .map(|_| RecordId::new(0, rng.below(KEYS)))
        .collect();
    let hashes: Vec<u64> = keys.iter().map(|k| k.stable_hash()).collect();
    let mut pool = VersionPool::new();
    let mut ts = 0u64;
    // The annotation slots of one transaction.
    let mut slots = [std::ptr::null::<Version>(); 10];
    let mut pass = |name: &str, fused: bool, look_ahead: bool| {
        let t0 = Instant::now();
        for (t, txn) in keys.chunks_exact(10).enumerate() {
            ts += 1;
            let bound = ts.saturating_sub(LAG);
            let mut install = |chain: &bohm_mvstore::Chain| {
                // SAFETY: single-threaded — this thread is every chain's
                // only writer and there are no readers at all.
                unsafe { pool.reclaim(chain, bound, &guard) };
                black_box(chain.install(pool.take(ts, 8), &guard));
            };
            if !fused {
                for (slot, &rid) in slots.iter_mut().zip(txn) {
                    let chain = index.get(rid, &guard).expect("preloaded");
                    *slot = chain.latest(&guard).map_or(std::ptr::null(), |v| v);
                }
                for &rid in txn {
                    install(index.get_or_insert(rid, &guard));
                }
            } else {
                for (i, (slot, &rid)) in slots.iter_mut().zip(txn).enumerate() {
                    let at = t * 10 + i;
                    if look_ahead {
                        for stage in 0..HashIndex::LOOK_AHEAD_STAGES {
                            let ahead = at + (HashIndex::LOOK_AHEAD_STAGES - stage) * DISTANCE;
                            if let Some(&h) = hashes.get(ahead) {
                                index.look_ahead(stage, h, ProbeFor::Install, &guard);
                            }
                        }
                    }
                    let chain = index.get_or_insert_hashed(rid, hashes[at], &guard);
                    *slot = chain.latest(&guard).map_or(std::ptr::null(), |v| v);
                    install(chain);
                }
            }
            black_box(&slots);
        }
        let ns = t0.elapsed().as_nanos() as f64 / (TXNS * 10) as f64;
        println!("{name:<44} {ns:>10.1} ns/op   ({} RMWs)", TXNS * 10);
    };
    // A warm-up pass brings every chain to its steady two-version shape.
    pass("cc_body/warm_up (unfused_blocking)", false, false);
    pass("cc_body/unfused_blocking", false, false);
    pass("cc_body/fused_blocking", true, false);
    pass("cc_body/fused_look_ahead", true, true);
}

fn bench_locks() {
    use bohm_lockmgr::{LockMode, LockRequest, LockTable};
    let table = LockTable::new(1 << 20);
    let mut reqs: Vec<LockRequest> = (0..10)
        .map(|i| LockRequest {
            slot: i * 1000,
            mode: if i < 2 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            },
        })
        .collect();
    LockTable::normalize(&mut reqs);
    bench("lock_table/acquire_release_10", || {
        table.acquire_raw(&reqs);
        table.release(&reqs);
    });
}

fn bench_timestamps() {
    use bohm_sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    // BOHM: the sequencer thread owns the log; assignment is an
    // uncontended add.
    let mut next = 0u64;
    bench("timestamp/sequencer_single_thread", || {
        next += 1;
        black_box(next);
    });
    // Hekaton/SI: every worker hits the same cache line.
    for threads in [1usize, 4, 16] {
        let counter = Arc::new(AtomicU64::new(0));
        let per: u64 = 200_000;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..per {
                        // RELAXED: measuring raw RMW cost; no ordering use.
                        black_box(c.fetch_add(1, Ordering::Relaxed));
                    }
                });
            }
        });
        let ns = t0.elapsed().as_nanos() as f64 / (per * threads as u64) as f64;
        println!(
            "{:<44} {ns:>10.1} ns/op",
            format!("timestamp/atomic_counter_{threads}_threads")
        );
    }
}

fn main() {
    println!("substrate microbenchmarks (best-of batch, ns/op)\n");
    bench_zipf();
    bench_chain();
    bench_cc_body();
    bench_locks();
    bench_timestamps();
}
