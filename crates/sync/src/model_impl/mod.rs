//! Model-checking personality (`--cfg bohm_modelcheck`): instrumented
//! twins of everything `real` re-exports, driven by the controlled
//! scheduler in [`rt`].

mod api;
mod atomic_impl;
mod cell_impl;
mod lock;
mod rt;
mod thread_impl;

pub use lock::{Condvar, Mutex, MutexGuard};

/// Instrumented `std::sync::atomic` twins (orderings are the real enum).
pub mod atomic {
    pub use super::atomic_impl::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };
    pub use std::sync::atomic::Ordering;
}

/// Spin hints (scheduling points under the model).
pub mod hint {
    /// Instrumented [`std::hint::spin_loop`]: a scheduling point on a
    /// model thread, the real pause instruction otherwise.
    pub fn spin_loop() {
        if super::rt::on_model_thread() {
            super::rt::yield_point();
        } else {
            std::hint::spin_loop();
        }
    }

    /// The prefetch hint is a no-op under the model: it has no observable
    /// effect, so it is neither a scheduling point nor an access. The loads
    /// a look-ahead stage performs to *compute* the address are real and
    /// instrumented like any other.
    #[inline(always)]
    pub fn prefetch_read<T>(_p: *const T) {}
}

/// Model-aware thread spawning and yielding.
pub mod thread {
    pub use super::thread_impl::{spawn, yield_now, JoinHandle};
}

/// Tracked interior-mutability cell (the race detector's probe points).
pub mod cell {
    pub use super::cell_impl::UnsafeCell;
}

/// Model-check harness API.
pub mod model {
    pub use super::api::{exhaustive, explore, run, Execution, Options};
}
