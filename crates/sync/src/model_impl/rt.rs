//! The controlled-scheduler runtime.
//!
//! One model execution at a time (serialized by `Rt::run_lock`). The
//! calling thread of [`run_one`] becomes model thread 0; facade
//! `thread::spawn` registers further threads. All model threads are real OS
//! threads, but exactly **one** holds the "token" at any instant: every
//! instrumented operation calls [`yield_point`], which consults the
//! scheduler and, if a different thread is chosen, unparks it and parks the
//! caller. The whole execution is therefore a deterministic function of the
//! seed (plus the program itself), and any failure prints a replayable seed.
//!
//! Happens-before is tracked with vector clocks: thread `t` ticks its own
//! component at every scheduling point; release edges (release stores,
//! mutex unlocks) publish the releaser's clock on the object; acquire edges
//! (acquire loads, mutex locks) join it. Data-race checks on
//! `cell::UnsafeCell` payloads compare access stamps against the accessor's
//! current clock.

use std::cell::Cell;
use std::panic::Location;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, OnceLock, PoisonError};

/// FNV-1a basis / prime for the schedule fingerprint.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Mean scheduling points between PCT priority change points.
const PCT_CHANGE_EVERY: u64 = 61;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// Hard cap on threads per controlled execution. Model harnesses use 2–5;
/// the cap exists so [`VClock`] can be a fixed array.
pub(crate) const MAX_MODEL_THREADS: usize = 16;

/// A vector clock: component `i` is the last scheduling-point stamp of
/// model thread `i` that the owner has synchronized with.
///
/// Fixed-width rather than a `Vec` so that every facade object embedding
/// one (via `AtomMeta`/`CellMeta`) stays `!needs_drop` — instrumented
/// atomics live inside arena-allocated structures whose destructors never
/// run, and the arena asserts exactly that.
#[derive(Clone, Debug)]
pub(crate) struct VClock([u64; MAX_MODEL_THREADS]);

impl VClock {
    pub(crate) const fn new() -> Self {
        Self([0; MAX_MODEL_THREADS])
    }

    pub(crate) fn get(&self, i: usize) -> u64 {
        self.0[i]
    }

    pub(crate) fn set(&mut self, i: usize, v: u64) {
        self.0[i] = v;
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.0 = [0; MAX_MODEL_THREADS];
    }
}

// ---------------------------------------------------------------------------
// Per-object metadata (embedded in facade objects, reset per execution)
// ---------------------------------------------------------------------------

/// Metadata of one instrumented atomic: the clock released by the last
/// release-store (and carried forward by RMWs — the release sequence), and
/// the value that store overwrote while a load may still legally return it.
pub(crate) struct AtomMeta {
    pub gen: u64,
    pub release: VClock,
    pub stale: Option<Stale>,
}

impl AtomMeta {
    pub(crate) const fn new() -> Self {
        Self {
            gen: 0,
            release: VClock::new(),
            stale: None,
        }
    }
}

/// The store-buffering window of one atomic: the newest store has executed,
/// but a thread it does not happen-before may still read the old value (see
/// [`stale_load`]). One store deep.
pub(crate) struct Stale {
    /// The overwritten value and the release clock that travelled with it.
    bits: u64,
    release: VClock,
    /// The overwriting thread and its clock component at that store: a
    /// thread whose clock has reached it has synchronized past the store.
    writer: usize,
    stamp: u64,
    /// The overwriting store was `SeqCst` (no `SeqCst` load may miss it).
    sc: bool,
    /// Threads that read the new value or spent their one stale read.
    seen: u16,
}

/// What an instrumented atomic operation did, for [`atomic_edges`]; stores
/// and read-modify-writes carry the bits they overwrote.
pub(crate) enum Op {
    Load,
    Store(u64),
    Rmw(u64),
}

/// Metadata of one virtual mutex.
pub(crate) struct LockMeta {
    pub gen: u64,
    pub owner: Option<usize>,
    pub release: VClock,
}

impl LockMeta {
    pub(crate) const fn new() -> Self {
        Self {
            gen: 0,
            owner: None,
            release: VClock::new(),
        }
    }
}

/// One recorded access to a tracked cell.
#[derive(Clone, Copy)]
pub(crate) struct CellAccess {
    pub tid: usize,
    pub stamp: u64,
    pub loc: &'static Location<'static>,
}

/// Metadata of one tracked `cell::UnsafeCell`.
pub(crate) struct CellMeta {
    pub gen: u64,
    pub write: Option<CellAccess>,
    pub reads: Vec<CellAccess>,
}

impl CellMeta {
    pub(crate) const fn new() -> Self {
        Self {
            gen: 0,
            write: None,
            reads: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

pub(crate) struct Parker {
    token: StdMutex<bool>,
    cv: StdCondvar,
}

impl Parker {
    fn new() -> std::sync::Arc<Parker> {
        std::sync::Arc::new(Parker {
            token: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn unpark(&self) {
        let mut t = self.token.lock().unwrap_or_else(PoisonError::into_inner);
        *t = true;
        self.cv.notify_one();
    }

    fn park(&self) {
        let mut t = self.token.lock().unwrap_or_else(PoisonError::into_inner);
        while !*t {
            t = self.cv.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
        *t = false;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Block {
    /// Waiting on the virtual lock with this key.
    Lock(usize),
    /// Waiting on the condvar with this key.
    Condvar(usize),
    /// Waiting for thread `tid` to finish.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    Runnable,
    Blocked(Block),
    Finished,
}

pub(crate) struct Th {
    pub status: Status,
    pub prio: i64,
    pub clock: VClock,
    pub parker: std::sync::Arc<Parker>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mode {
    /// Seeded PCT-style priority scheduling with random change points.
    Pct,
    /// Uniformly random runnable choice per step.
    Random,
    /// Systematic DFS over scheduling choices (exhaustive small-bound).
    Dfs,
}

pub(crate) struct RtState {
    pub gen: u64,
    pub active: bool,
    /// Torn down after a failure: registered threads panic at their next
    /// instrumented operation instead of hanging.
    pub dead: bool,
    pub seed: u64,
    rng: u64,
    pub mode: Mode,
    pub steps: u64,
    pub max_steps: u64,
    pub fingerprint: u64,
    next_prio: i64,
    pub threads: Vec<Th>,
    pub failure: Option<String>,
    /// DFS: `(options, chosen)` per decision this execution.
    pub choices: Vec<(u8, u8)>,
    /// DFS: decision prefix to replay.
    pub replay: Vec<u8>,
    /// Clock released/joined by fences (coarse over-approximation: a fence
    /// synchronizes with every earlier fence, which can only *suppress*
    /// race reports, never fabricate them).
    pub fence_release: VClock,
}

pub(crate) struct Rt {
    pub state: StdMutex<RtState>,
    /// Serializes model executions process-wide.
    pub run_lock: StdMutex<()>,
}

static RT: OnceLock<Rt> = OnceLock::new();

pub(crate) fn rt() -> &'static Rt {
    RT.get_or_init(|| Rt {
        state: StdMutex::new(RtState {
            gen: 0,
            active: false,
            dead: false,
            seed: 0,
            rng: 0,
            mode: Mode::Pct,
            steps: 0,
            max_steps: 0,
            fingerprint: FNV_OFFSET,
            next_prio: 0,
            threads: Vec::new(),
            failure: None,
            choices: Vec::new(),
            replay: Vec::new(),
            fence_release: VClock::new(),
        }),
        run_lock: StdMutex::new(()),
    })
}

thread_local! {
    /// `(generation, tid)` of the model thread running on this OS thread.
    static CURRENT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// The current model thread, if this OS thread is registered in the live
/// execution. Clears stale registrations from older generations.
pub(crate) fn current() -> Option<(u64, usize)> {
    let cur = CURRENT.with(|c| c.get())?;
    Some(cur)
}

/// Whether the calling OS thread belongs to the live model execution
/// (validating — and clearing — stale registrations).
pub(crate) fn on_model_thread() -> bool {
    let Some((gen, _)) = current() else {
        return false;
    };
    let st = lock_state();
    if st.gen != gen {
        drop(st);
        set_current(None);
        return false;
    }
    true
}

/// PCT: push the calling model thread below every other priority (used by
/// explicit `yield_now`, which means "someone else should run").
pub(crate) fn deprioritize_current() {
    let Some((gen, me)) = current() else { return };
    let mut st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    st.deprioritize(me);
}

fn set_current(v: Option<(u64, usize)>) {
    CURRENT.with(|c| c.set(v));
}

impl RtState {
    fn rng_next(&mut self) -> u64 {
        // SplitMix64: deterministic, seedable, good enough for scheduling.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn mix(&mut self, v: u64) {
        self.fingerprint = (self.fingerprint ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Freshly deprioritize thread `tid` (PCT change point / yield).
    pub(crate) fn deprioritize(&mut self, tid: usize) {
        self.next_prio -= 1;
        self.threads[tid].prio = self.next_prio;
    }

    fn fresh_prio(&mut self) -> i64 {
        // Distinct positive priorities so fresh threads sit above anything
        // ever deprioritized; ties are impossible.
        (self.rng_next() >> 2) as i64 + 1
    }

    /// Pick the next thread to run, or `None` when every thread has
    /// finished. A state where every live thread is blocked is a deadlock,
    /// reported via `Err`: nothing in the model expires on its own.
    fn pick(&mut self) -> Result<Option<usize>, String> {
        let runnable: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if self.threads.iter().all(|t| t.status == Status::Finished) {
                return Ok(None);
            }
            let mut msg = format!(
                "deadlock: every live thread is blocked (seed {})",
                self.seed
            );
            for (i, t) in self.threads.iter().enumerate() {
                msg.push_str(&format!("\n  thread {i}: {:?}", t.status));
            }
            return Err(msg);
        }
        let idx = match self.mode {
            Mode::Pct => {
                let mut best = runnable[0];
                for &r in &runnable[1..] {
                    if self.threads[r].prio > self.threads[best].prio {
                        best = r;
                    }
                }
                runnable.iter().position(|&r| r == best).unwrap_or(0)
            }
            Mode::Random => (self.rng_next() % runnable.len() as u64) as usize,
            Mode::Dfs => {
                let depth = self.choices.len();
                let i = self
                    .replay
                    .get(depth)
                    .map_or(0, |&c| (c as usize).min(runnable.len() - 1));
                self.choices.push((runnable.len() as u8, i as u8));
                i
            }
        };
        let chosen = runnable[idx];
        self.mix(chosen as u64 + 1);
        Ok(Some(chosen))
    }
}

// ---------------------------------------------------------------------------
// Teardown / failure plumbing
// ---------------------------------------------------------------------------

/// Record `msg` as the primary failure (first wins), tear the execution
/// down so no thread can hang parked, and panic on the calling thread.
pub(crate) fn fail(mut st: std::sync::MutexGuard<'_, RtState>, msg: String) -> ! {
    if st.failure.is_none() {
        st.failure = Some(msg.clone());
    }
    teardown_locked(&mut st);
    drop(st);
    panic!("{msg}");
}

fn teardown_locked(st: &mut RtState) {
    st.dead = true;
    for t in &st.threads {
        t.parker.unpark();
    }
}

/// Leave a torn-down execution: panic, so the thread unwinds out of the
/// harness. A thread that is *already* unwinding — its destructors (epoch
/// guards, pooled objects) reach instrumented primitives on the way out —
/// must not panic a second time, which would abort the whole test process:
/// it detaches from the model instead and finishes on the real primitives.
/// Callers return right after this does.
fn dead_panic() {
    if std::thread::panicking() {
        set_current(None);
        return;
    }
    panic!("bohm-sync model: execution torn down after a failure (see the primary report)");
}

// ---------------------------------------------------------------------------
// Scheduling entry points
// ---------------------------------------------------------------------------

fn lock_state() -> std::sync::MutexGuard<'static, RtState> {
    rt().state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One scheduling point: advance the step counter, tick the thread's clock,
/// maybe preempt. Returns without effect on non-model threads.
pub(crate) fn yield_point() {
    let Some((gen, me)) = current() else { return };
    let mut st = lock_state();
    if gen != st.gen {
        set_current(None);
        return;
    }
    if st.dead {
        drop(st);
        return dead_panic();
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        let msg = format!(
            "scheduling-point budget exceeded ({} steps) — livelock or undersized bound (seed {})",
            st.max_steps, st.seed
        );
        fail(st, msg);
    }
    let stamp = st.steps;
    st.threads[me].clock.set(me, stamp);
    if st.mode == Mode::Pct && st.rng_next().is_multiple_of(PCT_CHANGE_EVERY) {
        st.deprioritize(me);
    }
    let next = match st.pick() {
        Ok(Some(n)) => n,
        Ok(None) => unreachable!("the caller is runnable"),
        Err(msg) => fail(st, msg),
    };
    switch_from(st, me, next);
}

/// Hand the token from `me` to `next` (parking `me` unless they're equal).
fn switch_from(st: std::sync::MutexGuard<'_, RtState>, me: usize, next: usize) {
    if next == me {
        return;
    }
    let next_parker = std::sync::Arc::clone(&st.threads[next].parker);
    let my_parker = std::sync::Arc::clone(&st.threads[me].parker);
    drop(st);
    next_parker.unpark();
    my_parker.park();
    let st = lock_state();
    if st.dead {
        drop(st);
        dead_panic();
    }
}

/// Block the current thread with `reason` and run something else. Returns
/// once a waker has made the thread runnable again (and it was scheduled).
pub(crate) fn block_current(mut st: std::sync::MutexGuard<'_, RtState>, me: usize, reason: Block) {
    st.threads[me].status = Status::Blocked(reason);
    let next = match st.pick() {
        Ok(Some(n)) => n,
        // Every *other* thread finished while we block: with no possible
        // waker this is a deadlock.
        Ok(None) => {
            let msg = format!(
                "all threads finished with thread {me} blocked (seed {})",
                st.seed
            );
            fail(st, msg)
        }
        Err(msg) => fail(st, msg),
    };
    switch_from(st, me, next);
}

/// Wake every thread blocked on virtual lock `key`.
pub(crate) fn wake_lock_waiters(st: &mut RtState, key: usize) {
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(Block::Lock(key)) {
            t.status = Status::Runnable;
        }
    }
}

/// Wake waiters of condvar `key`: all of them, or one chosen by the seeded
/// RNG (a scheduling decision in its own right).
pub(crate) fn notify_condvar(st: &mut RtState, key: usize, all: bool) {
    let waiters: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Blocked(Block::Condvar(key)))
        .map(|(i, _)| i)
        .collect();
    if waiters.is_empty() {
        return;
    }
    if all {
        for w in waiters {
            st.threads[w].status = Status::Runnable;
        }
    } else {
        let pick = match st.mode {
            Mode::Dfs => 0, // deterministic without extra choice points
            _ => (st.rng_next() % waiters.len() as u64) as usize,
        };
        st.threads[waiters[pick]].status = Status::Runnable;
    }
}

// ---------------------------------------------------------------------------
// Thread lifecycle
// ---------------------------------------------------------------------------

/// Register a child thread spawned by model thread `me`. Returns the child
/// tid and its parker (the child parks until first scheduled).
pub(crate) fn register_child(me: usize) -> (u64, usize, std::sync::Arc<Parker>) {
    let mut st = lock_state();
    if st.dead {
        drop(st);
        panic!("bohm-sync model: spawn in a torn-down execution (see the primary report)");
    }
    let tid = st.threads.len();
    assert!(
        tid < MAX_MODEL_THREADS,
        "model harness spawned more than {MAX_MODEL_THREADS} threads; \
         keep models small (or raise MAX_MODEL_THREADS)"
    );
    let prio = st.fresh_prio();
    let mut clock = st.threads[me].clock.clone();
    let stamp = st.steps;
    clock.set(tid, stamp);
    let parker = Parker::new();
    st.threads.push(Th {
        status: Status::Runnable,
        prio,
        clock,
        parker: std::sync::Arc::clone(&parker),
    });
    (st.gen, tid, parker)
}

/// Child-thread preamble: adopt the registration and wait to be scheduled.
pub(crate) fn child_start(gen: u64, tid: usize, parker: &Parker) {
    set_current(Some((gen, tid)));
    parker.park();
    let st = lock_state();
    if st.dead || st.gen != gen {
        drop(st);
        set_current(None);
        dead_panic();
    }
}

/// Child-thread epilogue: mark finished, wake joiners, hand the token on.
pub(crate) fn finish_thread(gen: u64, tid: usize, panicked: Option<String>) {
    set_current(None);
    let mut st = lock_state();
    if st.gen != gen {
        return;
    }
    st.threads[tid].status = Status::Finished;
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(Block::Join(tid)) {
            t.status = Status::Runnable;
        }
    }
    if let Some(msg) = panicked {
        if st.failure.is_none() {
            st.failure = Some(format!("{msg} (seed {})", st.seed));
        }
        teardown_locked(&mut st);
        return;
    }
    if st.dead {
        return;
    }
    match st.pick() {
        Ok(Some(n)) => {
            let p = std::sync::Arc::clone(&st.threads[n].parker);
            drop(st);
            p.unpark();
        }
        Ok(None) => {
            // Everyone finished: wake the drain waiter (thread 0's parker).
            let p = std::sync::Arc::clone(&st.threads[0].parker);
            drop(st);
            p.unpark();
        }
        Err(msg) => {
            // Deadlock discovered while exiting cleanly: record, tear down,
            // but don't panic this (already successful) thread.
            if st.failure.is_none() {
                st.failure = Some(msg);
            }
            teardown_locked(&mut st);
        }
    }
}

/// Model-aware join: wait for `tid` to finish, joining its final clock.
pub(crate) fn join_thread(target: usize) {
    loop {
        let Some((gen, me)) = current() else { return };
        let mut st = lock_state();
        if st.gen != gen {
            set_current(None);
            return;
        }
        if st.dead {
            drop(st);
            return dead_panic();
        }
        if st.threads[target].status == Status::Finished {
            let child_clock = st.threads[target].clock.clone();
            st.threads[me].clock.join(&child_clock);
            return;
        }
        block_current(st, me, Block::Join(target));
    }
}

// ---------------------------------------------------------------------------
// Execution driver
// ---------------------------------------------------------------------------

/// Outcome of one controlled execution (internal; `model::Execution` is the
/// public projection).
pub(crate) struct RunOutcome {
    pub fingerprint: u64,
    pub steps: u64,
    pub choices: Vec<(u8, u8)>,
}

/// Run `f` as model thread 0 under the scheduler. Panics (with the seed in
/// the message) on any race, deadlock, budget overrun or harness panic.
pub(crate) fn run_one(
    seed: u64,
    mode: Mode,
    max_steps: u64,
    replay: Vec<u8>,
    f: impl FnOnce(),
) -> RunOutcome {
    let rt = rt();
    let _run = rt.run_lock.lock().unwrap_or_else(PoisonError::into_inner);
    {
        let mut st = lock_state();
        st.gen += 1;
        st.active = true;
        st.dead = false;
        st.seed = seed;
        st.rng = seed ^ 0x5851_F42D_4C95_7F2D;
        st.mode = mode;
        st.steps = 0;
        st.max_steps = max_steps;
        st.fingerprint = FNV_OFFSET;
        st.next_prio = 0;
        st.threads.clear();
        st.failure = None;
        st.choices.clear();
        st.replay = replay;
        st.fence_release.clear();
        let prio = st.fresh_prio();
        st.threads.push(Th {
            status: Status::Runnable,
            prio,
            clock: VClock::new(),
            parker: Parker::new(),
        });
        set_current(Some((st.gen, 0)));
    }
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));

    // Drain: let any still-live threads run to completion (they were
    // spawned but not joined), or tear down after a harness panic.
    let wait_done = {
        let mut st = lock_state();
        st.threads[0].status = Status::Finished;
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(Block::Join(0)) {
                t.status = Status::Runnable;
            }
        }
        if let Err(p) = &r {
            if st.failure.is_none() {
                st.failure = Some(format!("{} (seed {seed})", panic_msg(p.as_ref())));
            }
            teardown_locked(&mut st);
            false
        } else if st.dead || st.threads.iter().all(|t| t.status == Status::Finished) {
            false
        } else {
            match st.pick() {
                Ok(Some(n)) => {
                    let p = std::sync::Arc::clone(&st.threads[n].parker);
                    drop(st);
                    p.unpark();
                    true
                }
                Ok(None) => false,
                Err(msg) => {
                    if st.failure.is_none() {
                        st.failure = Some(msg);
                    }
                    teardown_locked(&mut st);
                    false
                }
            }
        }
    };
    if wait_done {
        let parker = {
            let st = lock_state();
            std::sync::Arc::clone(&st.threads[0].parker)
        };
        parker.park();
    }

    let mut st = lock_state();
    st.active = false;
    set_current(None);
    let failure = st.failure.take();
    let outcome = RunOutcome {
        fingerprint: st.fingerprint,
        steps: st.steps,
        choices: std::mem::take(&mut st.choices),
    };
    drop(st);
    if let Some(msg) = failure {
        eprintln!("bohm-sync model: failing execution; replay with BOHM_MODEL_SEED={seed}");
        panic!("{msg}");
    }
    if let Err(p) = r {
        std::panic::resume_unwind(p);
    }
    outcome
}

pub(crate) fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("harness panicked under model: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("harness panicked under model: {s}")
    } else {
        "harness panicked under model".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Shared op helpers used by the instrumented types
// ---------------------------------------------------------------------------

use std::sync::atomic::Ordering;

pub(crate) fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

pub(crate) fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Clock effects of one atomic operation, applied after the real op ran.
/// Read-modify-write ops keep the existing release clock alive even when
/// relaxed (the release-sequence rule); plain relaxed stores kill it.
pub(crate) fn atomic_edges(meta: &StdMutex<AtomMeta>, ord: Ordering, op: Op) {
    let Some((gen, me)) = current() else { return };
    let mut st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    let mut m = meta.lock().unwrap_or_else(PoisonError::into_inner);
    if m.gen != st.gen {
        m.release.clear();
        m.stale = None;
        m.gen = st.gen;
    }
    let (old, rmw) = match op {
        Op::Load => {
            if let Some(s) = &mut m.stale {
                s.seen |= 1 << me;
            }
            (None, false)
        }
        Op::Store(old) => (Some(old), false),
        Op::Rmw(old) => (Some(old), true),
    };
    if is_acquire(ord) && (rmw || old.is_none()) {
        // Split-borrow: clone the release clock out first.
        let rel = m.release.clone();
        st.threads[me].clock.join(&rel);
    }
    let Some(bits) = old else { return };
    let clock = st.threads[me].clock.clone();
    m.stale = Some(Stale {
        bits,
        release: m.release.clone(),
        writer: me,
        stamp: clock.get(me),
        sc: ord == Ordering::SeqCst,
        seen: 1 << me,
    });
    if is_release(ord) {
        if rmw {
            m.release.join(&clock);
        } else {
            m.release = clock;
        }
    } else if !rmw {
        // A relaxed plain store: later acquire loads of the new value
        // synchronize with nothing.
        m.release.clear();
    }
}

/// Store buffering: may this load — and, by seeded choice, does it — return
/// the value the newest store overwrote? It may unless the store
/// happens-before the loading thread, both are `SeqCst` (the single total
/// order), or the thread already read the new value (coherence). Each thread
/// gets one stale read per store, so spin loops still make progress. Values
/// are otherwise sequentially consistent; this window is what makes a Dekker
/// handshake weakened to Release/Acquire lose its wake-up under the model as
/// it can on hardware. Integers and bools only: a stale *pointer* could
/// already be freed, because the epoch collector's fences that forbid such a
/// read on hardware are invisible to the model. Off under DFS, which
/// enumerates schedules, not weak behaviours.
pub(crate) fn stale_load(meta: &StdMutex<AtomMeta>, ord: Ordering) -> Option<u64> {
    let (gen, me) = current()?;
    let mut st = lock_state();
    let mut m = meta.lock().unwrap_or_else(PoisonError::into_inner);
    if st.gen != gen || m.gen != gen || st.mode == Mode::Dfs {
        return None;
    }
    let s = m.stale.as_mut()?;
    if s.seen & (1 << me) != 0
        || st.threads[me].clock.get(s.writer) >= s.stamp
        || (s.sc && ord == Ordering::SeqCst)
    {
        return None;
    }
    s.seen |= 1 << me;
    if st.rng_next() & 1 == 0 {
        return None;
    }
    st.mix(0x57A1E);
    if is_acquire(ord) {
        st.threads[me].clock.join(&s.release);
    }
    Some(s.bits)
}

/// Fence clock effects (coarse; see `RtState::fence_release`).
pub(crate) fn fence_edges(ord: Ordering) {
    let Some((gen, me)) = current() else { return };
    let mut st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    if is_acquire(ord) {
        let rel = st.fence_release.clone();
        st.threads[me].clock.join(&rel);
    }
    if ord == Ordering::SeqCst {
        // Coarse again: past a SeqCst fence a thread has seen every store
        // executed so far, which rules out the stale reads that a pair of
        // such fences forbids (and some that a lone one does not).
        for t in 0..st.threads.len() {
            let seen = st.threads[t].clock.clone();
            st.threads[me].clock.join(&seen);
        }
    }
    if is_release(ord) {
        let clock = st.threads[me].clock.clone();
        st.fence_release.join(&clock);
    }
}

/// Race-check a tracked-cell access and record it.
#[allow(clippy::needless_pass_by_value)]
pub(crate) fn cell_access(meta: &StdMutex<CellMeta>, write: bool, loc: &'static Location<'static>) {
    let Some((gen, me)) = current() else { return };
    let st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    let mut m = meta.lock().unwrap_or_else(PoisonError::into_inner);
    if m.gen != st.gen {
        m.write = None;
        m.reads.clear();
        m.gen = st.gen;
    }
    let clock = &st.threads[me].clock;
    let mut conflict: Option<(CellAccess, &str)> = None;
    if let Some(w) = m.write {
        if w.tid != me && clock.get(w.tid) < w.stamp {
            conflict = Some((w, "write"));
        }
    }
    if write && conflict.is_none() {
        for r in &m.reads {
            if r.tid != me && clock.get(r.tid) < r.stamp {
                conflict = Some((*r, "read"));
                break;
            }
        }
    }
    if let Some((prior, prior_kind)) = conflict {
        let kind = if write { "write" } else { "read" };
        let msg = format!(
            "data race detected (seed {}): {kind} at {loc} by thread {me} is unordered \
             (no happens-before) with {prior_kind} at {} by thread {}",
            st.seed, prior.loc, prior.tid
        );
        drop(m);
        fail(st, msg);
    }
    let stamp = clock.get(me);
    if write {
        m.write = Some(CellAccess {
            tid: me,
            stamp,
            loc,
        });
        m.reads.clear();
    } else {
        if let Some(r) = m.reads.iter_mut().find(|r| r.tid == me) {
            r.stamp = stamp;
            r.loc = loc;
        } else {
            m.reads.push(CellAccess {
                tid: me,
                stamp,
                loc,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Virtual mutexes
// ---------------------------------------------------------------------------

/// Acquire the virtual lock, blocking (as a scheduling decision) while
/// another thread owns it.
pub(crate) fn lock_acquire(meta: &StdMutex<LockMeta>, key: usize) {
    yield_point();
    loop {
        let Some((gen, me)) = current() else { return };
        let mut st = lock_state();
        if st.gen != gen {
            set_current(None);
            return;
        }
        if st.dead {
            drop(st);
            return dead_panic();
        }
        let mut m = meta.lock().unwrap_or_else(PoisonError::into_inner);
        if m.gen != st.gen {
            m.owner = None;
            m.release.clear();
            m.gen = st.gen;
        }
        if m.owner.is_none() {
            m.owner = Some(me);
            let rel = m.release.clone();
            st.threads[me].clock.join(&rel);
            return;
        }
        drop(m);
        block_current(st, me, Block::Lock(key));
    }
}

/// Try-acquire without blocking; returns whether the lock was taken.
pub(crate) fn lock_try_acquire(meta: &StdMutex<LockMeta>) -> bool {
    yield_point();
    let Some((gen, me)) = current() else {
        return true;
    };
    let mut st = lock_state();
    if st.gen != gen {
        set_current(None);
        return true;
    }
    let mut m = meta.lock().unwrap_or_else(PoisonError::into_inner);
    if m.gen != st.gen {
        m.owner = None;
        m.release.clear();
        m.gen = st.gen;
    }
    let free = m.owner.is_none();
    if free {
        m.owner = Some(me);
        let rel = m.release.clone();
        st.threads[me].clock.join(&rel);
    }
    free
}

/// Release the virtual lock and wake its waiters.
pub(crate) fn lock_release(meta: &StdMutex<LockMeta>, key: usize) {
    let Some((gen, me)) = current() else { return };
    let mut st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    if st.dead {
        // Post-teardown guard drops must not panic (they run during unwind).
        return;
    }
    let mut m = meta.lock().unwrap_or_else(PoisonError::into_inner);
    if m.gen != st.gen {
        return;
    }
    let clock = st.threads[me].clock.clone();
    m.release.join(&clock);
    m.owner = None;
    drop(m);
    wake_lock_waiters(&mut st, key);
}

/// Condvar wait (the mutex's virtual state is released around the block).
pub(crate) fn condvar_wait(mutex_meta: &StdMutex<LockMeta>, mutex_key: usize, cv_key: usize) {
    yield_point();
    let Some((gen, me)) = current() else {
        return;
    };
    // Release the mutex.
    lock_release(mutex_meta, mutex_key);
    let st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    if st.dead {
        drop(st);
        dead_panic();
        return;
    }
    block_current(st, me, Block::Condvar(cv_key));
    // Reacquire the mutex before returning to the waiter's critical section.
    lock_acquire(mutex_meta, mutex_key);
}

/// Condvar notify.
pub(crate) fn condvar_notify(cv_key: usize, all: bool) {
    yield_point();
    let Some((gen, _)) = current() else { return };
    let mut st = lock_state();
    if st.gen != gen {
        set_current(None);
        return;
    }
    notify_condvar(&mut st, cv_key, all);
}
