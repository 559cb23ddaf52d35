//! The workspace's synchronization facade.
//!
//! Every sync-critical crate in this workspace imports its atomics, mutexes,
//! condvars and spin/yield hints from here instead of `std::sync` /
//! `parking_lot` (an invariant enforced by `cargo run -p analysis --
//! --check`). The facade has two personalities:
//!
//! * **Normal builds** — [`atomic`] is `std::sync::atomic` and
//!   [`hint::spin_loop`] is `std::hint::spin_loop`, re-exported: zero code,
//!   zero cost. [`Mutex`]/[`Condvar`] are `parking_lot`-shaped
//!   wrappers (guards handed out directly, no poisoning) a few lines deep
//!   over the `std::sync` locks. There are no timed waits in either
//!   personality: a [`Condvar`] waiter is woken by a notify, so under the
//!   model a lost wake-up is always reported as a deadlock.
//!
//! * **`--cfg bohm_modelcheck` builds** (`RUSTFLAGS="--cfg bohm_modelcheck"`)
//!   — every load, store, RMW, lock, unlock, wait and notify becomes a
//!   *scheduling point* of a deterministic controlled scheduler, and the
//!   runtime carries a vector-clock happens-before tracker that flags data
//!   races on [`cell::UnsafeCell`] payloads whose accesses are not ordered
//!   by the synchronization actually present in the execution. Values are
//!   sequentially consistent but for a one-store-deep *store-buffering*
//!   window on integer and bool atomics (a load the newest store does not
//!   happen-before may, by seeded choice, return the overwritten value
//!   unless both are `SeqCst`) — enough to tell a `SeqCst` Dekker
//!   handshake from a Release/Acquire one. See
//!   [`model`] for the harness API (seeded PCT-style and random scheduling,
//!   exhaustive small-bound DFS, replayable seeds).
//!
//! Outside an active [`model::run`] execution the instrumented types fall
//! back to the real primitives, so a `--cfg bohm_modelcheck` build still
//! runs the ordinary test suites correctly (just slower).
//!
//! # Facade rules (the short version)
//!
//! * Import `bohm_sync::atomic::*`, never `std::sync::atomic` — the lint
//!   gate fails the tree otherwise (shims and this crate excepted).
//! * `Ordering::Relaxed` on a sync-critical atomic needs a `// RELAXED:`
//!   justification comment; stronger orderings don't.
//! * Structures that want model-checkable payload-race detection store
//!   shared plain data in [`cell::UnsafeCell`] and access it through
//!   [`cell::UnsafeCell::with`] / [`cell::UnsafeCell::with_mut`].
//! * Spin-then-yield waits use [`Backoff`] (under the model it escalates to
//!   "completed" after two snoozes, so a spin-then-park loop reaches its
//!   park path inside a bounded exploration); hot per-thread or per-slot
//!   words sit in [`CachePadded`].

#[cfg(not(bohm_modelcheck))]
mod real;
#[cfg(not(bohm_modelcheck))]
pub use real::*;

#[cfg(bohm_modelcheck)]
mod model_impl;
#[cfg(bohm_modelcheck)]
pub use model_impl::*;

#[cfg(bohm_modelcheck)]
pub mod selftest;

mod backoff;
pub use backoff::{Backoff, CachePadded};
