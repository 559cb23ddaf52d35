//! Load generation: the closed-loop window and the open-loop sender.
//!
//! Everything goes through the public `BatchEngine`/`Session` facade (and
//! `BohmSession::submit` + `TxnHandle::is_done` for the open loop). Threads
//! are never pinned: `bohm_bench::run_engine` pins drivers onto the cores
//! the engine threads run on, which is the thing ROADMAP item 1(c) asks to
//! stop doing, so it is not called.

use crate::hist::Histogram;
use crate::procfs::{self, TaskCounters, DRIVER_THREAD_PREFIX};
use crate::trace::{Tracer, NO_SLOT, SAMPLE_EVERY};
use bohm::{BohmSession, TxnHandle};
use bohm_common::engine::{BatchEngine, Session};
use bohm_workloads::TxnGen;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A `submit` call longer than this is counted as blocked on engine
/// backpressure (an unblocked BOHM submit is a queue push, well under a
/// microsecond; a synchronous baseline's submit *is* the transaction and is
/// reported but means nothing there).
const BLOCKED_SUBMIT_NS: u64 = 20_000;

/// What one closed-loop window did, summed over its sessions.
#[derive(Default)]
pub struct Window {
    pub elapsed: Duration,
    /// How long the slowest session took to drain after it stopped
    /// submitting; the next window's `drain_hint`.
    pub drain: Duration,
    pub submitted: u64,
    pub committed: u64,
    /// Not-committed outcomes. No workload here has a legitimate abort, so
    /// each one is a failure.
    pub aborted: u64,
    /// Records written by committed transactions (the sum audit's target).
    pub committed_writes: u64,
    pub cc_retries: u64,
    /// CPU and fault counters of the driver threads, read by themselves.
    pub driver: TaskCounters,
    /// Traced windows only.
    pub traced: Option<TracedWindow>,
}

pub struct TracedWindow {
    pub tracers: Vec<Tracer>,
    pub submit_ns: Histogram,
    pub submit_blocked_ns: u64,
    pub reap_ns: u64,
}

impl TracedWindow {
    /// Fold another session's or window's trace into this one.
    pub fn absorb(&mut self, other: TracedWindow) {
        self.tracers.extend(other.tracers);
        self.submit_ns.merge(&other.submit_ns);
        self.submit_blocked_ns += other.submit_blocked_ns;
        self.reap_ns += other.reap_ns;
    }
}

impl Window {
    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

struct SessionResult {
    submitted: u64,
    committed: u64,
    aborted: u64,
    committed_writes: u64,
    cc_retries: u64,
    drain: Duration,
    cpu: TaskCounters,
    traced: Option<TracedWindow>,
}

/// One session's closed loop: keep fewer than `depth` transactions
/// outstanding, stop submitting `drain_hint` before `dur` is up, then
/// drain.
fn drive<S: Session, const TRACE: bool>(
    mut session: S,
    gen: &mut dyn TxnGen,
    depth: usize,
    dur: Duration,
    drain_hint: Duration,
    origin: Instant,
) -> SessionResult {
    let cpu0 = procfs::snapshot_self_thread();
    let mut r = SessionResult {
        submitted: 0,
        committed: 0,
        aborted: 0,
        committed_writes: 0,
        cc_retries: 0,
        drain: Duration::ZERO,
        cpu: TaskCounters::default(),
        traced: None,
    };
    let mut tracer = Tracer::new(origin);
    let mut submit_ns = Histogram::new();
    let (mut blocked_ns, mut reap_ns) = (0u64, 0u64);
    // (declared writes, trace slot) per outstanding transaction, FIFO like
    // the session contract.
    let mut outstanding: VecDeque<(u32, u32)> = VecDeque::with_capacity(depth + 1);
    let start = Instant::now();
    let (mut stop, mut stopped_at) = (false, Duration::ZERO);
    loop {
        // The clock is read once per eight transactions: a baseline
        // transaction costs about as much as a few clock reads.
        if r.submitted.is_multiple_of(8) && start.elapsed() + drain_hint >= dur {
            stop = true;
            stopped_at = start.elapsed();
        }
        if !stop {
            if TRACE {
                let t0 = tracer.now();
                let txn = gen.next_txn();
                let writes = txn.writes.len() as u32;
                let t1 = tracer.now();
                session.submit(txn);
                let t2 = tracer.now();
                submit_ns.record(t2 - t1);
                if t2 - t1 > BLOCKED_SUBMIT_NS {
                    blocked_ns += t2 - t1;
                }
                let slot = if r.submitted.is_multiple_of(SAMPLE_EVERY) {
                    tracer.begin(r.submitted, t0, t1, t2)
                } else {
                    NO_SLOT
                };
                outstanding.push_back((writes, slot));
            } else {
                let txn = gen.next_txn();
                outstanding.push_back((txn.writes.len() as u32, NO_SLOT));
                session.submit(txn);
            }
            r.submitted += 1;
        }
        while session.in_flight() >= depth || (stop && session.in_flight() > 0) {
            let (writes, slot) = outstanding.pop_front().expect("one entry per submit");
            let out = if TRACE {
                let t0 = tracer.now();
                let out = session.reap();
                let t1 = tracer.now();
                reap_ns += t1 - t0;
                if slot != NO_SLOT {
                    tracer.end(slot, t0, t1);
                }
                out
            } else {
                session.reap()
            };
            if out.committed {
                r.committed += 1;
                r.committed_writes += writes as u64;
            } else {
                r.aborted += 1;
            }
            r.cc_retries += out.cc_retries;
        }
        if stop {
            break;
        }
    }
    r.drain = start.elapsed() - stopped_at;
    r.cpu = procfs::snapshot_self_thread().since(&cpu0);
    if TRACE {
        r.traced = Some(TracedWindow {
            tracers: vec![tracer],
            submit_ns,
            submit_blocked_ns: blocked_ns,
            reap_ns,
        });
    }
    r
}

/// Run one closed-loop window: one thread and one session per generator,
/// fewer than `depth` transactions outstanding per session, for `dur`
/// including the drain. `elapsed` runs from before the threads start
/// until the last one has drained, so committed/elapsed never flatters a
/// slow drain.
///
/// `drain_hint` is how long the previous window of this engine took to
/// drain (zero for the first): sessions stop submitting that long before
/// `dur` is up. With 8192 outstanding a slow workload drains for most of a
/// second, and the windows of a run must add up to `--seconds`.
pub fn closed_window<E: BatchEngine>(
    engine: &E,
    gens: &mut [Box<dyn TxnGen>],
    depth: usize,
    dur: Duration,
    drain_hint: Duration,
    trace: bool,
) -> Window {
    // A hint longer than the window would leave nothing to measure.
    let drain_hint = drain_hint.min(dur.mul_f64(0.75));
    let origin = Instant::now();
    let results: Vec<SessionResult> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, gen)| {
                std::thread::Builder::new()
                    .name(format!("{DRIVER_THREAD_PREFIX}-{i}"))
                    .spawn_scoped(s, move || {
                        let session = engine.open_session();
                        if trace {
                            drive::<_, true>(session, gen.as_mut(), depth, dur, drain_hint, origin)
                        } else {
                            drive::<_, false>(session, gen.as_mut(), depth, dur, drain_hint, origin)
                        }
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut w = Window {
        elapsed: origin.elapsed(),
        ..Window::default()
    };
    for r in results {
        w.submitted += r.submitted;
        w.committed += r.committed;
        w.aborted += r.aborted;
        w.committed_writes += r.committed_writes;
        w.cc_retries += r.cc_retries;
        w.drain = w.drain.max(r.drain);
        w.driver.add(&r.cpu);
        match (&mut w.traced, r.traced) {
            (Some(acc), Some(t)) => acc.absorb(t),
            (acc @ None, t) => *acc = t,
            (Some(_), None) => {}
        }
    }
    w
}

/// What one open-loop window saw.
pub struct OpenWindow {
    pub elapsed: Duration,
    pub sent: u64,
    pub aborted: u64,
    /// Records written by committed transactions (for the sum audit).
    pub committed_writes: u64,
    /// Sends issued more than one inter-arrival interval after they were due.
    pub late_sends: u64,
    /// Due instant → instant the handle was observed done, ns.
    pub latency_ns: Histogram,
}

/// Longest run of sends before the sender looks at completions again.
const BURST: usize = 32;

/// Open loop: transaction `i` is due at `i / rate` seconds and is sent as
/// soon after that as the sender gets to it — a due send is never skipped,
/// so a stall shows up as lateness and as latency of everything behind it.
/// Latency runs from the **due** instant to the instant `is_done` was first
/// seen true, polling oldest-first (a session's transactions finish in
/// order often enough that the head of the queue is the right one to ask).
pub fn open_window(
    session: &BohmSession,
    gen: &mut dyn TxnGen,
    rate: f64,
    dur: Duration,
) -> OpenWindow {
    let interval_ns = 1e9 / rate;
    let total = (dur.as_secs_f64() * rate).ceil() as u64;
    let due_ns = |i: u64| (i as f64 * interval_ns) as u64;
    let mut w = OpenWindow {
        elapsed: Duration::ZERO,
        sent: 0,
        aborted: 0,
        committed_writes: 0,
        late_sends: 0,
        latency_ns: Histogram::new(),
    };
    let mut pending: VecDeque<(u64, u32, TxnHandle)> = VecDeque::new();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    while w.sent < total || !pending.is_empty() {
        let mut busy = false;
        let mut burst = 0;
        while w.sent < total && burst < BURST {
            let due = due_ns(w.sent);
            let now = now_ns();
            if due > now {
                break;
            }
            if (now - due) as f64 > interval_ns {
                w.late_sends += 1;
            }
            let txn = gen.next_txn();
            let writes = txn.writes.len() as u32;
            pending.push_back((due, writes, session.submit(txn)));
            w.sent += 1;
            burst += 1;
            busy = true;
        }
        while pending.front().is_some_and(|(_, _, h)| h.is_done()) {
            let (due, writes, handle) = pending.pop_front().expect("front checked");
            w.latency_ns.record(now_ns().saturating_sub(due));
            if handle.wait().committed {
                w.committed_writes += writes as u64;
            } else {
                w.aborted += 1;
            }
            busy = true;
        }
        if !busy {
            // Four runnable threads share two cores on the reference host:
            // an idle sender must give its core to the engine.
            std::thread::yield_now();
        }
    }
    w.elapsed = start.elapsed();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, Stream};
    use bohm_bench::engines::EngineKind;
    use bohm_common::RecordId;
    use bohm_workloads::micro::{MicroConfig, MicroGen};

    fn small() -> MicroConfig {
        MicroConfig {
            records: 2_000,
            rmws_per_txn: 4,
        }
    }

    fn gens(n: usize) -> Vec<Box<dyn TxnGen>> {
        (0..n)
            .map(|i| Box::new(MicroGen::new(small(), 40 + i as u64)) as Box<dyn TxnGen>)
            .collect()
    }

    fn table_sum(e: &impl BatchEngine) -> u64 {
        e.quiesce();
        (0..2_000)
            .map(|k| e.read_u64(RecordId::new(0, k)).unwrap())
            .sum()
    }

    #[test]
    fn closed_window_accounts_for_every_transaction() {
        for (kind, depth, trace) in [
            (EngineKind::Tpl, 1, false),
            (EngineKind::Occ, 1, true),
            (EngineKind::Bohm, 512, false),
            (EngineKind::Bohm, 512, true),
        ] {
            let engine = kind.build(&small().spec(), 2);
            let mut g = gens(2);
            let none = Duration::ZERO;
            let w = closed_window(
                &engine,
                &mut g,
                depth,
                Duration::from_millis(60),
                none,
                trace,
            );
            assert!(w.committed > 0, "{kind:?}");
            assert_eq!(w.committed + w.aborted, w.submitted, "{kind:?} drained");
            assert_eq!(w.aborted, 0);
            assert_eq!(w.committed_writes, w.committed * 4);
            assert_eq!(table_sum(&engine), w.committed_writes, "{kind:?} sum audit");
            assert!(w.elapsed >= Duration::from_millis(60));
            assert!(w.drain <= w.elapsed);
            // The next window stops early by the measured drain.
            let next = closed_window(
                &engine,
                &mut g,
                depth,
                Duration::from_millis(60),
                w.drain,
                false,
            );
            assert_eq!(next.committed, next.submitted);
            assert_eq!(w.traced.is_some(), trace);
            if let Some(t) = &w.traced {
                assert_eq!(t.tracers.len(), 2);
                assert_eq!(t.submit_ns.count(), w.submitted);
                let sampled: usize = t.tracers.iter().map(|t| t.samples().count()).sum();
                assert!(sampled as u64 >= w.submitted / SAMPLE_EVERY);
                for s in t.tracers.iter().flat_map(|t| t.samples()) {
                    assert!(s.gen_start <= s.gen_end && s.gen_end <= s.submit_end);
                    assert!(s.submit_end <= s.reap_start && s.reap_start <= s.reap_end);
                }
            }
            engine.shutdown();
        }
    }

    #[test]
    fn open_window_sends_every_due_transaction_and_times_from_due() {
        let engine = EngineKind::Bohm.build(&small().spec(), 2);
        let session = engine.as_bohm().unwrap().session();
        let mut gen = MicroGen::new(small(), 5);
        let w = open_window(&session, &mut gen, 20_000.0, Duration::from_millis(100));
        assert_eq!(w.sent, 2_000, "never skips a due send");
        assert_eq!(w.latency_ns.count(), 2_000);
        assert_eq!(w.aborted, 0);
        assert_eq!(w.committed_writes, 2_000 * 4);
        assert!(w.late_sends <= w.sent);
        assert!(w.latency_ns.quantile(0.5) > 0.0);
        assert!(w.elapsed >= Duration::from_millis(99));
        assert_eq!(table_sum(&engine), 2_000 * 4);
        engine.shutdown();
    }

    #[test]
    fn workload_generators_drive_the_facade() {
        // The real tpcc_mix generators, one stripe per session.
        let w = find("tpcc_mix").unwrap();
        let engine = EngineKind::Hekaton.build(&w.spec(), 2);
        let mut g: Vec<_> = (0..2).map(|i| w.generator(1, Stream::Main, 0, i)).collect();
        let win = closed_window(
            &engine,
            &mut g,
            1,
            Duration::from_millis(50),
            Duration::ZERO,
            false,
        );
        assert!(win.committed > 0);
        assert_eq!(win.aborted, 0, "no tpcc_mix transaction may abort");
        engine.shutdown();
    }
}
