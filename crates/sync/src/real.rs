//! Normal-build personality: `std` re-exports, plus thin std-backed locks.
//!
//! Every item here must stay API-compatible with the instrumented twins in
//! `model_impl` — code written against the facade compiles identically under
//! both personalities.

mod lock;
pub use lock::{Condvar, Mutex, MutexGuard};

/// `std::sync::atomic`, verbatim.
pub mod atomic {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
}

/// Spin hints (`std::hint`, verbatim) and the cache-line prefetch hint.
pub mod hint {
    pub use std::hint::spin_loop;

    /// Ask the memory system to start fetching the cache line holding `p`
    /// for reading. Purely a hint: it never faults and nothing may depend
    /// on it, so `p` can be any address — null, dangling, or memory another
    /// thread has since recycled. Compiles to `prefetcht0` on x86-64,
    /// `prfm pldl1keep` on aarch64, and to nothing elsewhere (and under
    /// `--cfg bohm_modelcheck`, where only the loads that *compute* `p`
    /// are of interest).
    #[inline(always)]
    pub fn prefetch_read<T>(p: *const T) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE is part of the x86-64 baseline, and a prefetch of an
        // invalid address is architecturally a no-op, not a fault.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `prfm` is a hint instruction; it touches no architectural
        // state and never faults, whatever the address.
        unsafe {
            std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, readonly, preserves_flags));
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let _ = p;
    }
}

/// Thread spawning and yielding (`std::thread`, verbatim).
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

/// Shared mutable payload cell.
///
/// In normal builds this is a transparent wrapper over
/// [`std::cell::UnsafeCell`]; under `--cfg bohm_modelcheck` the tracked
/// accessors feed the vector-clock race detector.
pub mod cell {
    /// Interior-mutable storage whose accesses the model checker audits.
    #[repr(transparent)]
    #[derive(Default)]
    pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> Self {
            Self(std::cell::UnsafeCell::new(value))
        }

        /// Unwrap the value.
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }

    impl<T: ?Sized> UnsafeCell<T> {
        /// Raw pointer to the payload (untracked escape hatch — prefer
        /// [`with`](Self::with) / [`with_mut`](Self::with_mut), which the
        /// race detector sees).
        pub const fn get(&self) -> *mut T {
            self.0.get()
        }

        /// Run `f` on a shared-read pointer to the payload. Counts as a
        /// *read access* for race detection under `bohm_modelcheck`.
        ///
        /// # Safety
        ///
        /// Callers uphold the usual `UnsafeCell` aliasing contract: no
        /// concurrent mutable access for the duration of `f`.
        pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Run `f` on an exclusive pointer to the payload. Counts as a
        /// *write access* for race detection under `bohm_modelcheck`.
        ///
        /// # Safety
        ///
        /// Callers uphold the usual `UnsafeCell` aliasing contract: no
        /// concurrent access of any kind for the duration of `f`.
        pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access through an exclusive reference (always safe).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }
    }
}

/// Model-check harness API (inert stub in normal builds).
///
/// The real implementation lives behind `--cfg bohm_modelcheck`; this stub
/// lets harness code compile (and run once, uncontrolled) in ordinary
/// builds so doc examples and shared helpers need no cfg of their own.
pub mod model {
    /// Summary of one controlled execution.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Execution {
        /// FNV fingerprint of every scheduling decision taken.
        pub fingerprint: u64,
        /// Scheduling points executed.
        pub steps: u64,
    }

    /// Exploration options. See the `bohm_modelcheck` docs for semantics;
    /// the stub ignores everything but runs the closure once.
    #[derive(Debug, Clone, Copy)]
    pub struct Options {
        /// Number of seeds to explore.
        pub seeds: u64,
        /// First seed.
        pub start_seed: u64,
        /// Per-execution scheduling-point budget.
        pub max_steps: u64,
        /// Use random scheduling instead of PCT priorities.
        pub random: bool,
    }

    impl Default for Options {
        fn default() -> Self {
            Self {
                seeds: 64,
                start_seed: 1,
                max_steps: 50_000,
                random: false,
            }
        }
    }

    /// Run `f` once (uncontrolled in normal builds).
    pub fn run(_seed: u64, f: impl FnOnce()) -> Execution {
        f();
        Execution {
            fingerprint: 0,
            steps: 0,
        }
    }

    /// Run `f` once (uncontrolled in normal builds).
    pub fn explore(_opts: Options, f: impl Fn()) {
        f();
    }

    /// Run `f` once (uncontrolled in normal builds). Returns executions run.
    pub fn exhaustive(_opts: Options, f: impl Fn()) -> u64 {
        f();
        1
    }
}
