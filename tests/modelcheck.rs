//! Workspace-level model-check harnesses (`--cfg bohm_modelcheck` only).
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg bohm_modelcheck" cargo test --test modelcheck
//! ```
//!
//! Five groups:
//!
//! * **Detector self-tests** — the deliberately broken [`MiniRing`]
//!   variant (its consumer drops the Acquire load) must be reported as a
//!   data race with a stable, replayable seed; the correct variant must
//!   survive exploration; and identical seeds must replay identical
//!   schedules (the determinism contract the replay workflow rests on).
//! * **mvstore chain model** — single-writer install/truncate racing a
//!   reader's `visible` walks: the visibility predicate and the
//!   unlink-before-defer reclamation protocol hold in every explored
//!   schedule.
//! * **mvstore recycling model** — the owning writer truncates into a
//!   [`VersionPool`](bohm_mvstore::VersionPool) under a Condition-3
//!   watermark and reuses the version at once, next to a reader above the
//!   watermark and one that finished below it: the vector-clock detector
//!   stays silent. A twin whose low reader is *still running* when the
//!   watermark passes it (Condition 3 broken) must be reported as a data
//!   race on the recycled object, with a replayable seed.
//! * **mvstore look-ahead models** — the staged hint walk
//!   ([`HashIndex::look_ahead`](bohm_mvstore::HashIndex::look_ahead); the
//!   prefetch itself compiles to nothing here, the loads that compute its
//!   operand are real): a chain's owner walking its stages through a bucket
//!   a neighbour is being CAS-inserted into, swept out of and re-inserted
//!   into, and a reader's stages racing the owner's reclaim → take →
//!   install under a watermark held below the reader. Two twins must be
//!   reported as races: a stage that *keeps* the head reference it looked
//!   at and reads through it after the watermark has passed (on the
//!   recycled version), and a sweep that hands the neighbour's index slot
//!   back before the grace period, so the re-insert reuses it under the
//!   owner's walk (on the slot's key).
//! * **lock-manager model** — `RwSpin` guarding a facade
//!   [`UnsafeCell`](bohm_sync::cell::UnsafeCell) payload: the vector-clock
//!   detector proves the lock's Acquire/Release edges actually order the
//!   plain reads and writes.
//!
//! In-crate models live next to their structures:
//! `bohm::window::modelcheck` (push/retire vs. the vacancy condvar — a
//! lost wakeup surfaces as a model deadlock), `bohm::batch::modelcheck`
//! (the completion handshake: a completer that notifies only a registered
//! waiter) and `bohm_hekaton::store::modelcheck` (push vs. prune vs. scan).
#![cfg(bohm_modelcheck)]

use bohm_sync::model;
use bohm_sync::selftest::MiniRing;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn publish_consume(correct: bool) {
    let ring = Arc::new(MiniRing::new(correct));
    let w = {
        let ring = Arc::clone(&ring);
        bohm_sync::thread::spawn(move || ring.publish(7))
    };
    let r = {
        let ring = Arc::clone(&ring);
        bohm_sync::thread::spawn(move || {
            if let Some(v) = ring.try_consume() {
                assert_eq!(v, 7);
            }
        })
    };
    w.join().unwrap();
    r.join().unwrap();
}

/// The seeded-bug self-test: the detector must find the dropped-Acquire
/// race within a bounded seed scan, and the failing seed must fail again —
/// that is what makes `BOHM_MODEL_SEED=<n>` replay reports actionable.
#[test]
fn broken_ring_race_has_a_stable_replayable_seed() {
    let seed = (1..=256)
        .find(|&s| {
            catch_unwind(AssertUnwindSafe(|| {
                model::run(s, || publish_consume(false))
            }))
            .is_err()
        })
        .expect("no seed in 1..=256 exposed the dropped-Acquire race");
    for _ in 0..2 {
        let err = catch_unwind(AssertUnwindSafe(|| {
            model::run(seed, || publish_consume(false));
        }))
        .expect_err("the failing seed must fail deterministically");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("data race detected"), "got: {msg}");
        assert!(msg.contains(&format!("seed {seed}")), "got: {msg}");
    }
}

#[test]
fn correct_ring_survives_exploration() {
    model::explore(model::Options::default(), || publish_consume(true));
}

/// Same seed ⇒ same schedule fingerprint: every controlled execution is a
/// pure function of its seed, so a failure report is a reproduction recipe.
#[test]
fn identical_seeds_replay_identical_schedules() {
    for seed in [1u64, 7, 42, 1729] {
        let a = model::run(seed, || publish_consume(true));
        let b = model::run(seed, || publish_consume(true));
        assert_eq!(a, b, "seed {seed} replayed a different schedule");
    }
}

// ---------------------------------------------------------------------------
// mvstore: single-writer install/truncate vs. a racing reader
// ---------------------------------------------------------------------------

mod chain {
    use super::*;
    use bohm_mvstore::{Chain, Version};
    use crossbeam_epoch as epoch;

    fn payload(x: u64) -> Box<[u8]> {
        bohm_common::value::of_u64(x, 8)
    }

    /// The owning CC thread installs versions at ts 5 and 9 over a seeded
    /// ts-1 version, then truncates at bound 8 (unlinking the superseded
    /// ts-1 version). A reader walks `visible` at timestamps spanning the
    /// whole history — including below the bound, which is why this model
    /// stays on the epoch-deferred `truncate`. In every schedule a hit must
    /// satisfy the visibility predicate `begin < ts ≤ end`, and the walk
    /// must never touch freed memory (truncation unlinks before deferring
    /// destruction).
    ///
    /// The reader looks at `end` a second time, after `visible` decided,
    /// and this writer — unlike BOHM's CC phase — installs *below* some of
    /// the reader's timestamps while it reads. So the predicate is checked
    /// in the strongest form that holds in every schedule: exactly, for the
    /// reads at or below every racing install (ts 2 and the `ts = end`
    /// boundary 5, the BOHM-ordered reads); and for the reads above one
    /// (ts 6, 10, 100), `end` may have dropped since the decision, but only
    /// once, from ∞ to the begin of a racing install.
    fn install_truncate_scan() {
        const RACING_INSTALLS: [u64; 2] = [5, 9];
        let chain = Arc::new(Chain::new());
        {
            let g = epoch::pin();
            chain.install(epoch::Owned::new(Version::ready(1, payload(1))), &g);
        }
        let writer = {
            let chain = Arc::clone(&chain);
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                for ts in RACING_INSTALLS {
                    chain.install(epoch::Owned::new(Version::ready(ts, payload(ts))), &g);
                }
                chain.truncate(8, &g);
            })
        };
        let reader = {
            let chain = Arc::clone(&chain);
            bohm_sync::thread::spawn(move || {
                for ts in [2u64, 5, 6, 10, 100] {
                    let g = epoch::pin();
                    if let Some(v) = chain.visible(ts, &g) {
                        let (begin, end) = (v.begin(), v.end());
                        assert!(begin < ts, "visible({ts}) returned begin {begin}");
                        let superseded_since = RACING_INSTALLS
                            .iter()
                            .any(|&w| begin < w && w < ts && end == w);
                        assert!(
                            end >= ts || superseded_since,
                            "visible({ts}) returned begin {begin}, end {end}"
                        );
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Quiescent state: [9, 5] — ts 1 truncated, the rest intact.
        let g = epoch::pin();
        assert_eq!(chain.depth(&g), 2);
        let latest = chain.visible(100, &g).expect("latest version survives");
        assert_eq!(latest.begin(), 9);
        assert!(chain.visible(2, &g).is_none(), "ts-1 version was truncated");
    }

    #[test]
    fn install_truncate_vs_scan_explored() {
        model::explore(model::Options::default(), install_truncate_scan);
    }

    // -----------------------------------------------------------------------
    // Recycle under Condition 3: reclaim into a pool, reuse immediately
    // -----------------------------------------------------------------------

    use bohm_common::Timestamp;
    use bohm_mvstore::VersionPool;
    use bohm_sync::atomic::{AtomicU64, Ordering};

    /// One `visible(ts)` read the way an execution thread does it: resolve,
    /// and if the version is filled in, read the payload. Every version in
    /// these models carries its own begin timestamp as payload, so a read
    /// that lands on a recycled object's next life is also a wrong answer.
    fn read_at(chain: &Chain, ts: Timestamp) {
        let g = epoch::pin();
        if let Some(v) = chain.visible(ts, &g) {
            let begin = v.begin();
            assert!(begin < ts, "visible({ts}) returned begin {begin}");
            if v.is_resolved() {
                assert_eq!(bohm_common::value::get_u64(v.data(), 0), begin);
            }
        }
    }

    /// The engine's reclamation protocol in miniature. Batch 1 (ts 5 and
    /// ts 9 over a seeded ts-1 version) is already through the CC phase
    /// when the threads start — BOHM installs everything at or below a
    /// reader's timestamp before that reader runs.
    ///
    /// * The **low reader** is the batch-1 transaction at ts 3, whose read
    ///   resolves to the ts-1 version (end 5). It publishes the watermark 8
    ///   with Release — in the correct model *after* its read, as the
    ///   window's retirement cursor does once a batch is done.
    /// * The **writer** is the owning CC thread working on batch 2 (and the
    ///   producer of its placeholders): per write it Acquire-loads the
    ///   watermark, reclaims under it — only the ts-1 version has
    ///   end 5 ≤ 8 — and installs whatever `take` hands back: the
    ///   just-retired object if the watermark was up, a fresh one if not
    ///   (or on the second write, which the per-bound mark skips).
    /// * The **live reader** is batch 1 still executing above the
    ///   watermark, at ts 10 and ts 11: its walks may meet the recycled
    ///   object's next life at the head, never its previous one.
    ///
    /// `condition3_holds = false` moves the watermark store *before* the
    /// low reader's read: a reader at ts ≤ bound that has not finished,
    /// which is exactly what Condition 3 rules out.
    fn recycle_under_watermark(condition3_holds: bool) {
        let chain = Arc::new(Chain::new());
        let watermark = Arc::new(AtomicU64::new(0));
        {
            let g = epoch::pin();
            for ts in [1, 5, 9] {
                chain.install(epoch::Owned::new(Version::ready(ts, payload(ts))), &g);
            }
        }
        let writer = {
            let chain = Arc::clone(&chain);
            let watermark = Arc::clone(&watermark);
            bohm_sync::thread::spawn(move || {
                let mut pool = VersionPool::new();
                let g = epoch::pin();
                for ts in [12u64, 14] {
                    let bound = watermark.load(Ordering::Acquire);
                    // SAFETY: this thread is the chain's only writer, and
                    // `bound` is the Acquire-loaded watermark — the very
                    // contract under test (deliberately false in the twin).
                    unsafe { pool.reclaim(&chain, bound, &g) };
                    let v = chain.install(pool.take(ts, 8), &g);
                    // SAFETY: just installed under `g`; a version at the
                    // head is never truncated.
                    unsafe { v.as_ref() }.unwrap().fill(&ts.to_le_bytes());
                }
            })
        };
        let low_reader = {
            let chain = Arc::clone(&chain);
            let watermark = Arc::clone(&watermark);
            bohm_sync::thread::spawn(move || {
                if !condition3_holds {
                    watermark.store(8, Ordering::Release);
                }
                read_at(&chain, 3);
                if condition3_holds {
                    watermark.store(8, Ordering::Release);
                }
            })
        };
        let live_reader = {
            let chain = Arc::clone(&chain);
            bohm_sync::thread::spawn(move || {
                read_at(&chain, 10);
                read_at(&chain, 11);
            })
        };
        writer.join().unwrap();
        low_reader.join().unwrap();
        live_reader.join().unwrap();
        // Quiescent: [14, 12, 9, 5], plus ts 1 if the watermark arrived
        // after the writer's last look.
        let g = epoch::pin();
        assert_eq!(chain.visible(100, &g).map(|v| v.begin()), Some(14));
        assert!((4..=5).contains(&chain.depth(&g)));
    }

    #[test]
    fn recycle_under_condition3_explored() {
        model::explore(model::Options::default(), || recycle_under_watermark(true));
    }

    /// The broken twin: the detector must catch the still-running low
    /// reader racing the recycled object's reset/refill within a bounded
    /// seed scan, and the failing seed must fail identically on replay.
    #[test]
    fn recycle_below_the_watermark_is_a_replayable_race() {
        let failing = |seed| {
            catch_unwind(AssertUnwindSafe(|| {
                model::run(seed, || recycle_under_watermark(false));
            }))
        };
        let seed = (1..=256)
            .find(|&s| failing(s).is_err())
            .expect("no seed in 1..=256 exposed the reader below the watermark");
        for _ in 0..2 {
            let err = failing(seed).expect_err("the failing seed must fail deterministically");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("data race detected"), "got: {msg}");
            assert!(msg.contains(&format!("seed {seed}")), "got: {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// mvstore: staged look-ahead vs. bucket churn and version recycling
// ---------------------------------------------------------------------------

mod look_ahead {
    use super::*;
    use bohm_common::{RecordId, Timestamp};
    use bohm_mvstore::{HashIndex, ProbeFor, Version, VersionIndex, VersionPool};
    use bohm_sync::atomic::{AtomicU64, Ordering};
    use crossbeam_epoch as epoch;

    fn ready(ts: Timestamp) -> epoch::Owned<Version> {
        epoch::Owned::new(Version::ready(ts, bohm_common::value::of_u64(ts, 8)))
    }

    /// Two rows of table 0 that share a bucket of the smallest index.
    fn bucket_mates(index: &HashIndex) -> (RecordId, RecordId) {
        let mask = index.bucket_count() as u64 - 1;
        let a = RecordId::new(0, 0);
        let b = (1..)
            .map(|row| RecordId::new(0, row))
            .find(|b| b.stable_hash() & mask == a.stable_hash() & mask)
            .unwrap();
        (a, b)
    }

    /// Every stage, in order, the way a `LookAhead` runs them for one key.
    fn stages(index: &HashIndex, rid: RecordId, probe: ProbeFor, g: &epoch::Guard) {
        for stage in 0..HashIndex::LOOK_AHEAD_STAGES {
            index.look_ahead(stage, rid.stable_hash(), probe, g);
        }
    }

    /// The owner of `mine` runs its staged walk, probes and installs — twice
    /// — while another thread CAS-inserts `neighbour` at the head of the
    /// same bucket (so the owner's walk goes *through* the neighbour's
    /// entry), sweeps it out again and re-inserts it. The walk dereferences
    /// entries only under its pin, and a retired entry's slot goes back to
    /// the index's slab only after the grace period, so nothing it touches
    /// can be freed or reused under it; the owner's chain comes out intact
    /// and the neighbour back.
    ///
    /// `grace = false` is the bug the grace period exists to exclude: the
    /// sweep frees through the unprotected guard, so the slot goes back at
    /// once and the re-insert takes it — while the owner's walk may still be
    /// holding the neighbour's previous life.
    fn owner_walk_vs_neighbour_churn(grace: bool) {
        let index = Arc::new(HashIndex::with_capacity(1));
        let (mine, neighbour) = bucket_mates(&index);
        {
            let g = epoch::pin();
            index.get_or_insert(mine, &g).install(ready(1), &g);
        }
        let owner = {
            let index = Arc::clone(&index);
            bohm_sync::thread::spawn(move || {
                let mut pool = VersionPool::new();
                for ts in [5u64, 9] {
                    let g = epoch::pin();
                    stages(&index, mine, ProbeFor::Install, &g);
                    let chain = index.get_or_insert_hashed(mine, mine.stable_hash(), &g);
                    // SAFETY: this thread is the chain's only writer, and
                    // every reader below `ts - 1` has finished (there are
                    // none at all).
                    unsafe { pool.reclaim(chain, ts - 1, &g) };
                    let v = chain.install(pool.take(ts, 8), &g);
                    // SAFETY: just installed under `g`.
                    unsafe { v.as_ref() }.unwrap().fill(&ts.to_le_bytes());
                }
            })
        };
        let churn = {
            let index = Arc::clone(&index);
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                index.get_or_insert(neighbour, &g);
                let sweep_guard = if grace {
                    &g
                } else {
                    // SAFETY: deliberately unsound — this is the broken twin.
                    unsafe { epoch::unprotected() }
                };
                let n =
                    index.sweep_retire(0, index.bucket_count(), sweep_guard, &mut |rid, _, _| {
                        rid == neighbour
                    });
                assert_eq!(n, 1);
                index.get_or_insert(neighbour, &g);
            })
        };
        owner.join().unwrap();
        churn.join().unwrap();
        let g = epoch::pin();
        let back = index.get(neighbour, &g).expect("the neighbour is back");
        assert!(back.latest(&g).is_none(), "with a fresh chain");
        let chain = index.get(mine, &g).expect("the owner's key survives");
        assert_eq!(chain.latest(&g).map(|v| v.begin()), Some(9));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn owner_walk_through_a_churning_bucket_explored() {
        model::explore(model::Options::default(), || {
            owner_walk_vs_neighbour_churn(true)
        });
    }

    /// The broken twin: a slot handed back before the grace period is
    /// caught as a race between its next life's key and the owner's walk,
    /// within a bounded seed scan, and the failing seed fails identically
    /// on replay.
    #[test]
    fn a_slot_reused_before_the_grace_period_is_a_replayable_race() {
        let failing = |seed| {
            catch_unwind(AssertUnwindSafe(|| {
                model::run(seed, || owner_walk_vs_neighbour_churn(false));
            }))
        };
        let seed = (1..=256)
            .find(|&s| failing(s).is_err())
            .expect("no seed in 1..=256 exposed the early slot reuse");
        for _ in 0..2 {
            let err = failing(seed).expect_err("the failing seed must fail deterministically");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("data race detected"), "got: {msg}");
            assert!(msg.contains(&format!("seed {seed}")), "got: {msg}");
        }
    }

    /// A reader's look-ahead next to the owner's reclaim → take → install.
    ///
    /// The chain starts as `[5, 10]`, both produced. The **owner** (CC
    /// thread and producer in one) installs ts 20 and ts 30 — two batches,
    /// with a yield between them — each time reclaiming first under the
    /// watermark it Acquire-loads. The **reader** is an execution thread: it
    /// runs every look-ahead stage for the key and then its transaction at
    /// ts 15 — the stages dereference whatever head they find, which is
    /// sound because no head can end at or below a watermark that has not
    /// passed ts 15 — and publishes its batch's watermark, 19. Execution
    /// follows CC, so it waits for ts 20 to be on the chain, does the same
    /// for ts 25 and publishes 29. Under 29 the ts-10 version (end 20) dies,
    /// and an owner that gets to ts 30 late enough recycles it as that
    /// placeholder.
    ///
    /// `carry_nothing = false` is the bug the look-ahead's rule exists to
    /// exclude: a stage that *keeps* the head reference it looked at (here:
    /// before the first transaction) and reads through it later, after the
    /// watermarks went out — by which time it may be the recycled object.
    fn reader_stages_vs_recycling(carry_nothing: bool) {
        let index = Arc::new(HashIndex::with_capacity(1));
        let key = RecordId::new(0, 0);
        let watermark = Arc::new(AtomicU64::new(0));
        {
            let g = epoch::pin();
            let chain = index.get_or_insert(key, &g);
            for ts in [5, 10] {
                chain.install(ready(ts), &g);
            }
        }
        let owner = {
            let index = Arc::clone(&index);
            let watermark = Arc::clone(&watermark);
            bohm_sync::thread::spawn(move || {
                let mut pool = VersionPool::new();
                let g = epoch::pin();
                let chain = index.get(key, &g).unwrap();
                for ts in [20u64, 30] {
                    let bound = watermark.load(Ordering::Acquire);
                    // SAFETY: only writer of the chain; `bound` is the
                    // Acquire-loaded watermark, published only after every
                    // transaction at or below it finished.
                    unsafe { pool.reclaim(chain, bound, &g) };
                    let v = chain.install(pool.take(ts, 8), &g);
                    // SAFETY: just installed under `g`; heads are not
                    // truncated.
                    unsafe { v.as_ref() }.unwrap().fill(&ts.to_le_bytes());
                    bohm_sync::thread::yield_now();
                }
            })
        };
        let reader = {
            let index = Arc::clone(&index);
            let watermark = Arc::clone(&watermark);
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                let chain = index.get(key, &g).unwrap();
                let read_at = |ts: Timestamp| {
                    stages(&index, key, ProbeFor::Read, &g);
                    let v = chain.visible(ts, &g).expect("the key exists at every ts");
                    let begin = v.begin();
                    assert!(begin < ts);
                    if v.is_resolved() {
                        assert_eq!(bohm_common::value::get_u64(v.data(), 0), begin);
                    }
                    begin
                };
                let kept = chain.latest(&g);
                assert_eq!(read_at(15), 10);
                watermark.store(19, Ordering::Release);
                while chain.latest(&g).map(|v| v.begin()) < Some(20) {
                    bohm_sync::thread::yield_now();
                }
                assert_eq!(read_at(25), 20);
                watermark.store(29, Ordering::Release);
                if !carry_nothing {
                    // Reads through a reference carried across the
                    // watermarks instead of re-deriving it.
                    let _ = kept.map(|v| v.begin());
                }
            })
        };
        owner.join().unwrap();
        reader.join().unwrap();
        let g = epoch::pin();
        let chain = index.get(key, &g).unwrap();
        assert_eq!(chain.visible(100, &g).map(|v| v.begin()), Some(30));
    }

    #[test]
    fn reader_stages_beside_reclaim_take_install_explored() {
        model::explore(model::Options::default(), || {
            reader_stages_vs_recycling(true)
        });
    }

    /// The broken twin: a head reference carried across the owner's reclaim
    /// is caught as a race with the recycled object's reset, within a
    /// bounded seed scan, and the failing seed fails identically on replay.
    #[test]
    fn a_stage_that_keeps_its_head_reference_is_a_replayable_race() {
        let failing = |seed| {
            catch_unwind(AssertUnwindSafe(|| {
                model::run(seed, || reader_stages_vs_recycling(false));
            }))
        };
        let seed = (1..=256)
            .find(|&s| failing(s).is_err())
            .expect("no seed in 1..=256 exposed the carried head reference");
        for _ in 0..2 {
            let err = failing(seed).expect_err("the failing seed must fail deterministically");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("data race detected"), "got: {msg}");
            assert!(msg.contains(&format!("seed {seed}")), "got: {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// lockmgr: RwSpin ordering a plain payload
// ---------------------------------------------------------------------------

mod rwspin {
    use super::*;
    use bohm_lockmgr::RwSpin;
    use bohm_sync::cell::UnsafeCell;

    struct Guarded {
        lock: RwSpin,
        val: UnsafeCell<u64>,
    }

    // SAFETY: `val` is only accessed under `lock` (exclusive for writes,
    // shared for reads) — exactly the protocol the model run checks.
    unsafe impl Sync for Guarded {}

    /// Two incrementers under the exclusive lock, one reader under the
    /// shared lock. If `RwSpin`'s Acquire/Release edges were wrong the
    /// vector-clock detector would flag the plain `val` accesses as a
    /// race; if its mutual exclusion were wrong the final count would be 1.
    fn locked_increments() {
        let g = Arc::new(Guarded {
            lock: RwSpin::new(),
            val: UnsafeCell::new(0),
        });
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let g = Arc::clone(&g);
                bohm_sync::thread::spawn(move || {
                    g.lock.lock_exclusive();
                    // SAFETY: exclusive lock held.
                    unsafe { g.val.with_mut(|p| *p += 1) };
                    g.lock.unlock_exclusive();
                })
            })
            .collect();
        let reader = {
            let g = Arc::clone(&g);
            bohm_sync::thread::spawn(move || {
                g.lock.lock_shared();
                // SAFETY: shared lock held; writers are excluded.
                let v = unsafe { g.val.with(|p| *p) };
                assert!(v <= 2, "counter overshot: {v}");
                g.lock.unlock_shared();
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        g.lock.lock_shared();
        // SAFETY: shared lock held and all writers joined.
        let v = unsafe { g.val.with(|p| *p) };
        g.lock.unlock_shared();
        assert_eq!(v, 2, "an increment was lost");
    }

    #[test]
    fn rwspin_orders_payload_accesses() {
        model::explore(model::Options::default(), locked_increments);
    }
}
