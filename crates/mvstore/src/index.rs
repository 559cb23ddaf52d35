//! A latch-free hash index mapping [`RecordId`]s to version [`Chain`]s.
//!
//! **No engine uses it.** BOHM finds a record's chain at `table[row]` (the
//! record store in `bohm::store`); this index stays only because the
//! benchmark's `micro` phase measures it, so until that phase moves behind a
//! probe seam of its own, the `mvstore.index.*` figures measure a structure
//! outside every engine's path.
//!
//! Readers are lock-free and write nothing; inserts are CAS-pushes onto
//! bucket lists, safe for arbitrary concurrent inserters. Entries are never
//! removed, so they live until the index drops. The `Guard` in every
//! signature is the one the [`Chain`] methods take.

use crate::chain::Chain;
use bohm_common::RecordId;
use bohm_sync::atomic::{AtomicPtr, Ordering};
use crossbeam_epoch::Guard;
use std::ptr;

/// The index interface.
pub trait VersionIndex: Send + Sync {
    /// Chain for `rid`, if the key has ever been inserted.
    fn get<'g>(&'g self, rid: RecordId, guard: &'g Guard) -> Option<&'g Chain>;
    /// Chain for `rid`, inserting an empty chain if absent.
    fn get_or_insert<'g>(&'g self, rid: RecordId, guard: &'g Guard) -> &'g Chain;
}

/// One key of the index, one cache line.
#[repr(align(64))]
struct Entry {
    rid: RecordId,
    next: AtomicPtr<Entry>,
    chain: Chain,
}

/// Latch-free chained hash table: a power-of-two array of bucket heads over
/// singly linked entries (load factor ≤ 1 at the sized capacity).
pub struct HashIndex {
    buckets: Box<[AtomicPtr<Entry>]>,
    mask: u64,
}

impl HashIndex {
    /// Create with capacity for roughly `expected` keys (bucket count is the
    /// next power of two ≥ `expected`, i.e. load factor ≤ 1).
    pub fn with_capacity(expected: usize) -> Self {
        let n = expected.max(16).next_power_of_two();
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || AtomicPtr::new(ptr::null_mut()));
        Self {
            buckets: buckets.into_boxed_slice(),
            mask: (n - 1) as u64,
        }
    }

    #[inline]
    fn bucket(&self, rid: RecordId) -> &AtomicPtr<Entry> {
        &self.buckets[(rid.stable_hash() & self.mask) as usize]
    }

    /// The entry for `rid` in the list starting at `cur`.
    #[inline]
    fn find(&self, mut cur: *mut Entry, rid: RecordId) -> Option<&Entry> {
        // SAFETY: entries are published with Release CASes, reached through
        // Acquire loads, and freed only when the index drops.
        while let Some(e) = unsafe { cur.as_ref() } {
            if e.rid == rid {
                return Some(e);
            }
            cur = e.next.load(Ordering::Acquire);
        }
        None
    }
}

impl VersionIndex for HashIndex {
    fn get<'g>(&'g self, rid: RecordId, _guard: &'g Guard) -> Option<&'g Chain> {
        let head = self.bucket(rid).load(Ordering::Acquire);
        self.find(head, rid).map(|e| &e.chain)
    }

    fn get_or_insert<'g>(&'g self, rid: RecordId, _guard: &'g Guard) -> &'g Chain {
        let bucket = self.bucket(rid);
        let mut head = bucket.load(Ordering::Acquire);
        if let Some(e) = self.find(head, rid) {
            return &e.chain;
        }
        let new = Box::into_raw(Box::new(Entry {
            rid,
            next: AtomicPtr::new(head),
            chain: Chain::new(),
        }));
        loop {
            match bucket.compare_exchange(head, new, Ordering::Release, Ordering::Acquire) {
                // SAFETY: just published; freed only when the index drops.
                Ok(_) => return &unsafe { &*new }.chain,
                Err(now) => {
                    // Another insert got in first: it may have been `rid`'s.
                    if let Some(e) = self.find(now, rid) {
                        // SAFETY: `new` was never published.
                        drop(unsafe { Box::from_raw(new) });
                        return &e.chain;
                    }
                    head = now;
                    // SAFETY: `new` is still this thread's alone.
                    // RELAXED: the Release CAS above publishes `next`.
                    unsafe { &*new }.next.store(head, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for HashIndex {
    fn drop(&mut self) {
        for b in self.buckets.iter() {
            // RELAXED: `&mut self` in Drop proves exclusive access.
            let mut cur = b.load(Ordering::Relaxed);
            while !cur.is_null() {
                // SAFETY: exclusive access; every entry came from `Box`.
                let e = unsafe { Box::from_raw(cur) };
                // RELAXED: as above.
                cur = e.next.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Version;
    use crossbeam_epoch as epoch;
    use crossbeam_epoch::Owned;

    fn rid(t: u32, k: u64) -> RecordId {
        RecordId::new(t, k)
    }

    #[test]
    fn get_or_insert_is_idempotent_and_get_misses_absent_keys() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        let a = idx.get_or_insert(rid(0, 1), &g) as *const Chain;
        assert_eq!(idx.get_or_insert(rid(0, 1), &g) as *const Chain, a);
        assert_eq!(idx.get(rid(0, 1), &g).map(|c| c as *const Chain), Some(a));
        assert!(idx.get(rid(0, 2), &g).is_none());
        assert!(
            idx.get(rid(1, 1), &g).is_none(),
            "table id is part of the key"
        );
    }

    #[test]
    fn colliding_keys_stay_reachable_and_store_versions() {
        let idx = HashIndex::with_capacity(1); // 16 buckets: lists
        let g = epoch::pin();
        for k in 0..200 {
            idx.get_or_insert(rid(0, k), &g).install(
                Owned::new(Version::ready(1, bohm_common::value::of_u64(k, 8))),
                &g,
            );
        }
        for k in 0..200 {
            let v = idx.get(rid(0, k), &g).expect("inserted").visible(2, &g);
            assert_eq!(bohm_common::value::get_u64(v.unwrap().data(), 0), k);
        }
    }

    #[test]
    fn concurrent_inserters_agree_on_every_chain() {
        use std::sync::Arc;
        let idx = Arc::new(HashIndex::with_capacity(8)); // force collisions
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    let g = epoch::pin();
                    (0..300u64)
                        .map(|k| idx.get_or_insert(rid(0, k), &g) as *const Chain as usize)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all threads must agree on chain identity");
        }
    }
}
