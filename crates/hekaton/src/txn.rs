//! Transaction objects and the commit-dependency machinery.

use bohm_sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use bohm_sync::Mutex;

/// Transaction lifecycle states (Larson et al. §2, plus `ENDING`).
pub mod state {
    pub const ACTIVE: u32 = 0;
    /// End timestamp acquired, validating / waiting on dependencies.
    pub const PREPARING: u32 = 1;
    pub const COMMITTED: u32 = 2;
    pub const ABORTED: u32 = 3;
    /// About to draw an end timestamp (stored **before** the global-counter
    /// fetch-and-add). Closes a visibility race: once a reader has drawn a
    /// begin timestamp T, any transaction it still observes as `ACTIVE` is
    /// guaranteed to end with `e > T` (the counter RMWs are fences ordering
    /// this store before the draw); a transaction seen `ENDING` has an
    /// end timestamp of unknown order, so readers briefly wait for
    /// `PREPARING`. Without this state, an SI reader could skip a version
    /// whose writer had already drawn `e < T` but not yet published
    /// `PREPARING` — an inconsistent snapshot (caught by our audit tests).
    pub const ENDING: u32 = 4;
}

/// A running transaction. Heap-allocated; version words hold tagged
/// pointers to it while it is in flight. Once post-processing (or the
/// abort) has replaced every marker naming it, its worker retires it into
/// limbo and later reuses it for another attempt (`crate::recycle`).
pub struct HkTxn {
    pub begin_ts: u64,
    /// Valid once state ≥ PREPARING.
    pub end_ts: AtomicU64,
    state: AtomicU32,
    /// Outstanding commit dependencies (producers this txn speculatively
    /// read from that have not resolved yet).
    deps: AtomicI64,
    /// Set when any producer this txn depends on aborted (cascade).
    dep_aborted: AtomicBool,
    /// Transactions that speculatively read *our* uncommitted output and
    /// wait for us. Pointers stay valid because a dependent spins inside
    /// its own commit until we resolve it (see `resolve_dependents`).
    dependents: Mutex<Vec<usize>>,
}

impl HkTxn {
    pub fn new(begin_ts: u64) -> Self {
        Self {
            begin_ts,
            end_ts: AtomicU64::new(0),
            state: AtomicU32::new(state::ACTIVE),
            deps: AtomicI64::new(0),
            dep_aborted: AtomicBool::new(false),
            dependents: Mutex::new(Vec::new()),
        }
    }

    /// Ready a recycled object for an attempt that drew `begin_ts`. The
    /// `dependents` list is already empty (every attempt ends in
    /// [`resolve`](Self::resolve)) and keeps its capacity.
    pub(crate) fn reuse(&mut self, begin_ts: u64) {
        self.begin_ts = begin_ts;
        *self.end_ts.get_mut() = 0;
        *self.state.get_mut() = state::ACTIVE;
        *self.deps.get_mut() = 0;
        *self.dep_aborted.get_mut() = false;
        debug_assert!(self.dependents.get_mut().is_empty());
    }

    #[inline]
    pub fn state(&self) -> u32 {
        self.state.load(Ordering::Acquire)
    }

    #[inline]
    pub fn end_ts(&self) -> u64 {
        self.end_ts.load(Ordering::Acquire)
    }

    /// Announce the intent to acquire an end timestamp
    /// (`ACTIVE → ENDING`). Must be called before the counter draw; uses a
    /// sequentially-consistent store so it is ordered before the draw even
    /// on weakly-ordered hardware.
    pub fn set_ending(&self) {
        debug_assert_eq!(self.state(), state::ACTIVE);
        self.state.store(state::ENDING, Ordering::SeqCst);
    }

    /// Move `ENDING → PREPARING` with the acquired end timestamp.
    pub fn prepare(&self, end_ts: u64) {
        self.end_ts.store(end_ts, Ordering::Release);
        // Under the dependents lock so registration linearizes with state.
        let _g = self.dependents.lock();
        self.state.store(state::PREPARING, Ordering::Release);
    }

    /// Register `reader` as depending on this (Preparing) transaction.
    ///
    /// Returns `Ok(true)` if the dependency was registered (reader must wait
    /// for it), `Ok(false)` if this transaction already committed (no
    /// dependency needed), or `Err(())` if it aborted (the reader consumed
    /// poisoned data and must abort too).
    // The unit error is deliberate: "producer aborted" carries no payload
    // and the whole call graph is crate-internal.
    #[allow(clippy::result_unit_err)]
    pub fn register_dependent(&self, reader: &HkTxn) -> Result<bool, ()> {
        let mut deps = self.dependents.lock();
        match self.state.load(Ordering::Acquire) {
            state::PREPARING | state::ACTIVE | state::ENDING => {
                reader.deps.fetch_add(1, Ordering::AcqRel);
                deps.push(reader as *const HkTxn as usize);
                Ok(true)
            }
            state::COMMITTED => Ok(false),
            state::ABORTED => Err(()),
            _ => unreachable!(),
        }
    }

    /// Finalize state and wake dependents. `committed` selects the cascade
    /// behaviour: commit decrements dependents' counters, abort poisons
    /// them.
    pub fn resolve(&self, committed: bool) {
        let mut deps = self.dependents.lock();
        self.state.store(
            if committed {
                state::COMMITTED
            } else {
                state::ABORTED
            },
            Ordering::Release,
        );
        for &d in deps.iter() {
            // SAFETY: a registered dependent spins inside its own commit
            // (`wait_for_dependencies`) until its counter reaches zero, so
            // the pointed-to transaction is alive for the whole drain.
            let dep = unsafe { &*(d as *const HkTxn) };
            if !committed {
                dep.dep_aborted.store(true, Ordering::Release);
            }
            dep.deps.fetch_sub(1, Ordering::AcqRel);
        }
        deps.clear();
    }

    /// Spin until every producer this transaction speculatively read from
    /// has resolved. Returns `false` if any of them aborted (cascade).
    pub fn wait_for_dependencies(&self) -> bool {
        let backoff = crossbeam_utils::Backoff::new();
        while self.deps.load(Ordering::Acquire) > 0 {
            backoff.snooze();
        }
        !self.dep_aborted.load(Ordering::Acquire)
    }

    #[cfg(test)]
    pub fn outstanding_deps(&self) -> i64 {
        self.deps.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_publishes_end_ts() {
        let t = HkTxn::new(5);
        assert_eq!(t.state(), state::ACTIVE);
        t.prepare(9);
        assert_eq!(t.state(), state::PREPARING);
        assert_eq!(t.end_ts(), 9);
    }

    #[test]
    fn commit_resolution_releases_dependents() {
        let producer = HkTxn::new(1);
        let reader = HkTxn::new(2);
        producer.prepare(3);
        assert_eq!(producer.register_dependent(&reader), Ok(true));
        assert_eq!(reader.outstanding_deps(), 1);
        producer.resolve(true);
        assert_eq!(reader.outstanding_deps(), 0);
        assert!(reader.wait_for_dependencies());
    }

    #[test]
    fn abort_resolution_poisons_dependents() {
        let producer = HkTxn::new(1);
        let reader = HkTxn::new(2);
        producer.prepare(3);
        producer.register_dependent(&reader).unwrap();
        producer.resolve(false);
        assert!(!reader.wait_for_dependencies(), "cascaded abort expected");
    }

    #[test]
    fn registering_on_committed_producer_is_a_noop() {
        let producer = HkTxn::new(1);
        let reader = HkTxn::new(2);
        producer.prepare(3);
        producer.resolve(true);
        assert_eq!(producer.register_dependent(&reader), Ok(false));
        assert_eq!(reader.outstanding_deps(), 0);
    }

    #[test]
    fn registering_on_aborted_producer_fails() {
        let producer = HkTxn::new(1);
        let reader = HkTxn::new(2);
        producer.prepare(3);
        producer.resolve(false);
        assert_eq!(producer.register_dependent(&reader), Err(()));
    }

    #[test]
    fn waiter_blocks_until_resolution() {
        use std::sync::Arc;
        let producer = Arc::new(HkTxn::new(1));
        let reader = Arc::new(HkTxn::new(2));
        producer.prepare(3);
        producer.register_dependent(&reader).unwrap();
        let r2 = Arc::clone(&reader);
        let h = std::thread::spawn(move || r2.wait_for_dependencies());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!h.is_finished(), "waiter must block while dep outstanding");
        producer.resolve(true);
        assert!(h.join().unwrap());
    }
}
