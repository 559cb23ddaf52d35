//! Instrumented atomics: each type wraps the real `std::sync::atomic` twin
//! (so fallback/non-model threads stay correct) plus per-object
//! happens-before metadata. Every operation on a model thread is a
//! scheduling point, and its memory-ordering argument drives exactly the
//! vector-clock edges the C++11 model grants:
//!
//! * release store → publishes the storer's clock on the object;
//! * relaxed plain store → *clears* it (later acquire loads of that value
//!   synchronize with nothing — this is what makes dropped-`Release` bugs
//!   detectable);
//! * relaxed RMW → preserves it (the release-sequence rule);
//! * acquire load / successful acquire RMW → joins it;
//! * failed CAS → a load with the failure ordering.

use std::sync::atomic::Ordering;
use std::sync::Mutex as StdMutex;

use super::rt;
use super::rt::{AtomMeta, Op};

macro_rules! instrumented_int {
    ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$doc])*
        pub struct $name {
            v: std::sync::atomic::$std,
            meta: StdMutex<AtomMeta>,
        }

        impl $name {
            /// Create a new atomic.
            pub const fn new(v: $prim) -> Self {
                Self {
                    v: std::sync::atomic::$std::new(v),
                    meta: StdMutex::new(AtomMeta::new()),
                }
            }

            /// Atomic load.
            pub fn load(&self, ord: Ordering) -> $prim {
                rt::yield_point();
                if let Some(bits) = rt::stale_load(&self.meta, ord) {
                    return bits as $prim;
                }
                let r = self.v.load(ord);
                rt::atomic_edges(&self.meta, ord, Op::Load);
                r
            }

            /// Atomic store.
            pub fn store(&self, val: $prim, ord: Ordering) {
                rt::yield_point();
                // A swap, to learn the overwritten value (the stale-read
                // window); at least as strong as the store it stands for.
                let old = self.v.swap(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Store(old as u64));
            }

            /// Atomic swap.
            pub fn swap(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.swap(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic fetch-add.
            pub fn fetch_add(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.fetch_add(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic fetch-sub.
            pub fn fetch_sub(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.fetch_sub(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic fetch-or.
            pub fn fetch_or(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.fetch_or(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic fetch-and.
            pub fn fetch_and(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.fetch_and(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic fetch-max.
            pub fn fetch_max(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.fetch_max(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic fetch-min.
            pub fn fetch_min(&self, val: $prim, ord: Ordering) -> $prim {
                rt::yield_point();
                let r = self.v.fetch_min(val, ord);
                rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
                r
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                rt::yield_point();
                let r = self.v.compare_exchange(current, new, success, failure);
                match r {
                    Ok(old) => rt::atomic_edges(&self.meta, success, Op::Rmw(old as u64)),
                    Err(_) => rt::atomic_edges(&self.meta, failure, Op::Load),
                }
                r
            }

            /// Atomic compare-exchange (weak form).
            ///
            /// Implemented with the strong CAS so spurious hardware failures
            /// cannot make an execution diverge from its seed.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Exclusive in-place access (no instrumentation needed).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.v.get_mut()
            }

            /// Consume the atomic, returning the value.
            pub fn into_inner(self) -> $prim {
                self.v.into_inner()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(Default::default())
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    // RELAXED: uninstrumented diagnostic peek — Debug must
                    // not be a scheduling point; its output may race.
                    .field(&self.v.load(Ordering::Relaxed))
                    .finish()
            }
        }
    };
}

instrumented_int!(
    /// Instrumented [`std::sync::atomic::AtomicU8`].
    AtomicU8,
    AtomicU8,
    u8
);
instrumented_int!(
    /// Instrumented [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    AtomicU32,
    u32
);
instrumented_int!(
    /// Instrumented [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    AtomicU64,
    u64
);
instrumented_int!(
    /// Instrumented [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    AtomicUsize,
    usize
);
instrumented_int!(
    /// Instrumented [`std::sync::atomic::AtomicI64`].
    AtomicI64,
    AtomicI64,
    i64
);

/// Instrumented [`std::sync::atomic::AtomicBool`].
pub struct AtomicBool {
    v: std::sync::atomic::AtomicBool,
    meta: StdMutex<AtomMeta>,
}

impl AtomicBool {
    /// Create a new atomic.
    pub const fn new(v: bool) -> Self {
        Self {
            v: std::sync::atomic::AtomicBool::new(v),
            meta: StdMutex::new(AtomMeta::new()),
        }
    }

    /// Atomic load.
    pub fn load(&self, ord: Ordering) -> bool {
        rt::yield_point();
        if let Some(bits) = rt::stale_load(&self.meta, ord) {
            return bits != 0;
        }
        let r = self.v.load(ord);
        rt::atomic_edges(&self.meta, ord, Op::Load);
        r
    }

    /// Atomic store.
    pub fn store(&self, val: bool, ord: Ordering) {
        rt::yield_point();
        // A swap, as in the integer twins: fetches the overwritten value.
        let old = self.v.swap(val, ord);
        rt::atomic_edges(&self.meta, ord, Op::Store(old as u64));
    }

    /// Atomic swap.
    pub fn swap(&self, val: bool, ord: Ordering) -> bool {
        rt::yield_point();
        let r = self.v.swap(val, ord);
        rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
        r
    }

    /// Atomic fetch-or.
    pub fn fetch_or(&self, val: bool, ord: Ordering) -> bool {
        rt::yield_point();
        let r = self.v.fetch_or(val, ord);
        rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
        r
    }

    /// Atomic fetch-and.
    pub fn fetch_and(&self, val: bool, ord: Ordering) -> bool {
        rt::yield_point();
        let r = self.v.fetch_and(val, ord);
        rt::atomic_edges(&self.meta, ord, Op::Rmw(r as u64));
        r
    }

    /// Atomic compare-exchange.
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        rt::yield_point();
        let r = self.v.compare_exchange(current, new, success, failure);
        match r {
            Ok(old) => rt::atomic_edges(&self.meta, success, Op::Rmw(old as u64)),
            Err(_) => rt::atomic_edges(&self.meta, failure, Op::Load),
        }
        r
    }

    /// Atomic compare-exchange (weak form; strong underneath for
    /// seed-determinism).
    pub fn compare_exchange_weak(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.compare_exchange(current, new, success, failure)
    }

    /// Exclusive in-place access.
    pub fn get_mut(&mut self) -> &mut bool {
        self.v.get_mut()
    }

    /// Consume the atomic, returning the value.
    pub fn into_inner(self) -> bool {
        self.v.into_inner()
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicBool")
            // RELAXED: diagnostic peek; Debug output may race.
            .field(&self.v.load(Ordering::Relaxed))
            .finish()
    }
}

/// Instrumented [`std::sync::atomic::AtomicPtr`].
pub struct AtomicPtr<T> {
    v: std::sync::atomic::AtomicPtr<T>,
    meta: StdMutex<AtomMeta>,
}

impl<T> AtomicPtr<T> {
    /// Create a new atomic pointer.
    pub const fn new(p: *mut T) -> Self {
        Self {
            v: std::sync::atomic::AtomicPtr::new(p),
            meta: StdMutex::new(AtomMeta::new()),
        }
    }

    /// Atomic load.
    pub fn load(&self, ord: Ordering) -> *mut T {
        rt::yield_point();
        let r = self.v.load(ord);
        rt::atomic_edges(&self.meta, ord, Op::Load);
        r
    }

    /// Atomic store.
    pub fn store(&self, p: *mut T, ord: Ordering) {
        rt::yield_point();
        self.v.store(p, ord);
        rt::atomic_edges(&self.meta, ord, Op::Store(0));
    }

    /// Atomic swap.
    pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
        rt::yield_point();
        let r = self.v.swap(p, ord);
        rt::atomic_edges(&self.meta, ord, Op::Rmw(0));
        r
    }

    /// Atomic compare-exchange.
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        rt::yield_point();
        let r = self.v.compare_exchange(current, new, success, failure);
        match r {
            Ok(_) => rt::atomic_edges(&self.meta, success, Op::Rmw(0)),
            Err(_) => rt::atomic_edges(&self.meta, failure, Op::Load),
        }
        r
    }

    /// Atomic compare-exchange (weak form; strong underneath for
    /// seed-determinism).
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.compare_exchange(current, new, success, failure)
    }

    /// Exclusive in-place access.
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.v.get_mut()
    }

    /// Consume the atomic, returning the pointer.
    pub fn into_inner(self) -> *mut T {
        self.v.into_inner()
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicPtr")
            // RELAXED: diagnostic peek; Debug output may race.
            .field(&self.v.load(Ordering::Relaxed))
            .finish()
    }
}

/// Instrumented [`std::sync::atomic::fence`].
pub fn fence(ord: Ordering) {
    rt::yield_point();
    std::sync::atomic::fence(ord);
    rt::fence_edges(ord);
}
