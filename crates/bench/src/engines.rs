//! Uniform engine construction over a [`DatabaseSpec`].
//!
//! [`AnyEngine`] erases the five concrete engine types behind the
//! [`BatchEngine`] facade, so the benchmark harness builds, drives and
//! tears down every system through identical code — BOHM included (its
//! batching happens inside the engine, where the submitting session seals
//! the batch it fills, not in the harness).

use bohm::{Bohm, BohmConfig, BohmSession, CatalogSpec};
use bohm_common::engine::{BatchEngine, ExecOutcome, Session, WorkerSession};
use bohm_common::{RecordId, Txn};
use bohm_hekaton::{Hekaton, HekatonStore};
use bohm_occ::SiloOcc;
use bohm_svstore::StoreBuilder;
use bohm_tpl::TwoPhaseLocking;
use bohm_workloads::DatabaseSpec;

/// The five systems of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    Bohm,
    Hekaton,
    Si,
    Occ,
    Tpl,
}

impl EngineKind {
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Tpl,
        EngineKind::Bohm,
        EngineKind::Occ,
        EngineKind::Si,
        EngineKind::Hekaton,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Bohm => "Bohm",
            EngineKind::Hekaton => "Hekaton",
            EngineKind::Si => "SI",
            EngineKind::Occ => "OCC",
            EngineKind::Tpl => "2PL",
        }
    }

    /// Build this engine over `spec`, giving it a total budget of
    /// `threads` engine-side threads (BOHM splits them between its CC and
    /// execution layers; the interactive engines are passive and use the
    /// driver's threads instead).
    pub fn build(self, spec: &DatabaseSpec, threads: usize) -> AnyEngine {
        match self {
            EngineKind::Bohm => {
                let (cc, exec) = bohm_split(threads);
                AnyEngine::Bohm(build_bohm(spec, cc, exec))
            }
            EngineKind::Tpl => AnyEngine::Tpl(build_tpl(spec)),
            EngineKind::Occ => AnyEngine::Occ(build_occ(spec)),
            EngineKind::Hekaton => AnyEngine::Hekaton(build_hekaton(spec)),
            EngineKind::Si => AnyEngine::Si(build_si(spec)),
        }
    }
}

/// Build a BOHM engine preloaded from `spec` with the given thread split.
pub fn build_bohm(spec: &DatabaseSpec, cc: usize, exec: usize) -> Bohm {
    build_bohm_with(spec, BohmConfig::with_threads(cc, exec))
}

/// Build a BOHM engine preloaded from `spec` with a full custom config
/// (the benchmark sets its thread split and durability this way). The
/// catalog declares only the seeded rows: a BOHM table addresses 2^32 rows
/// whatever it declares, so insert headroom needs no declaring.
pub fn build_bohm_with(spec: &DatabaseSpec, cfg: BohmConfig) -> Bohm {
    let mut catalog = CatalogSpec::new();
    for t in &spec.tables {
        let seed = t.seed;
        catalog = catalog.table(t.rows, t.record_size, seed);
    }
    Bohm::start(cfg, catalog)
}

/// Build a preloaded single-version store (OCC / 2PL substrate). Tables
/// with insert headroom get absent spare slots after the seeded prefix.
pub fn build_sv_store(spec: &DatabaseSpec) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    for t in &spec.tables {
        let id = b.add_table_with_spare(t.rows as usize, t.spare_rows as usize, t.record_size);
        b.seed_u64(id, t.seed);
    }
    b
}

/// Build a preloaded Hekaton store. Slots beyond the seeded prefix keep
/// null heads — records that exist only once inserted.
pub fn build_hekaton_store(spec: &DatabaseSpec) -> HekatonStore {
    let s = HekatonStore::new(&spec.shapes());
    for (i, t) in spec.tables.iter().enumerate() {
        s.seed_rows_u64(i as u32, t.rows, t.seed);
    }
    s
}

pub fn build_tpl(spec: &DatabaseSpec) -> TwoPhaseLocking {
    TwoPhaseLocking::from_builder(build_sv_store(spec))
}

pub fn build_occ(spec: &DatabaseSpec) -> SiloOcc {
    SiloOcc::from_builder(build_sv_store(spec))
}

pub fn build_hekaton(spec: &DatabaseSpec) -> Hekaton {
    Hekaton::serializable(build_hekaton_store(spec))
}

pub fn build_si(spec: &DatabaseSpec) -> Hekaton {
    Hekaton::snapshot_isolation(build_hekaton_store(spec))
}

/// Split a total thread budget between BOHM's CC and execution layers.
///
/// The paper treats the split as an administrator knob (Fig. 4); for the
/// headline comparisons we use a fixed 40/60 split, which Fig. 4 shows to
/// be near the knee for RMW-heavy workloads.
pub fn bohm_split(total: usize) -> (usize, usize) {
    let cc = ((total as f64) * 0.4).round().max(1.0) as usize;
    let exec = (total - cc).max(1);
    (cc, exec)
}

// ---------------------------------------------------------------------------
// Type-erased engine + session
// ---------------------------------------------------------------------------

/// Any of the five engines, behind one [`BatchEngine`] implementation.
pub enum AnyEngine {
    Bohm(Bohm),
    Tpl(TwoPhaseLocking),
    Occ(SiloOcc),
    Hekaton(Hekaton),
    Si(Hekaton),
}

impl AnyEngine {
    /// Tear the engine down (joins BOHM's pipeline threads; the passive
    /// engines just drop).
    pub fn shutdown(self) {
        if let AnyEngine::Bohm(b) = self {
            b.shutdown();
        }
    }

    /// The wrapped BOHM engine, if this is one (GC/diagnostic hooks).
    pub fn as_bohm(&self) -> Option<&Bohm> {
        match self {
            AnyEngine::Bohm(b) => Some(b),
            _ => None,
        }
    }

    /// Drive the engine through one session in submission order with a
    /// bounded pipeline and collect per-transaction outcomes. One session
    /// means submission order *is* the serialization order on BOHM (single
    /// ingest stream), so the result is comparable against the serial
    /// oracle transaction-for-transaction.
    pub fn run_stream(&self, txns: &[Txn]) -> Vec<ExecOutcome> {
        let mut session = self.open_session();
        let mut outcomes = Vec::with_capacity(txns.len());
        for t in txns {
            session.submit(t.clone());
            // Bounded pipeline: BOHM batches while order is preserved.
            while session.in_flight() > 256 {
                outcomes.push(session.reap());
            }
        }
        while session.in_flight() > 0 {
            outcomes.push(session.reap());
        }
        outcomes
    }
}

pub enum AnySession<'a> {
    Bohm(BohmSession),
    Tpl(WorkerSession<'a, TwoPhaseLocking>),
    Occ(WorkerSession<'a, SiloOcc>),
    Hekaton(WorkerSession<'a, Hekaton>),
}

impl Session for AnySession<'_> {
    fn submit(&mut self, txn: Txn) {
        match self {
            AnySession::Bohm(s) => Session::submit(s, txn),
            AnySession::Tpl(s) => s.submit(txn),
            AnySession::Occ(s) => s.submit(txn),
            AnySession::Hekaton(s) => s.submit(txn),
        }
    }

    fn in_flight(&self) -> usize {
        match self {
            AnySession::Bohm(s) => s.in_flight(),
            AnySession::Tpl(s) => s.in_flight(),
            AnySession::Occ(s) => s.in_flight(),
            AnySession::Hekaton(s) => s.in_flight(),
        }
    }

    fn reap(&mut self) -> ExecOutcome {
        match self {
            AnySession::Bohm(s) => s.reap(),
            AnySession::Tpl(s) => s.reap(),
            AnySession::Occ(s) => s.reap(),
            AnySession::Hekaton(s) => s.reap(),
        }
    }
}

impl BatchEngine for AnyEngine {
    type Session<'a> = AnySession<'a>;

    fn name(&self) -> &'static str {
        match self {
            AnyEngine::Bohm(_) => "Bohm",
            AnyEngine::Tpl(_) => "2PL",
            AnyEngine::Occ(_) => "OCC",
            AnyEngine::Hekaton(_) => "Hekaton",
            AnyEngine::Si(_) => "SI",
        }
    }

    fn open_session(&self) -> AnySession<'_> {
        match self {
            AnyEngine::Bohm(e) => AnySession::Bohm(e.session()),
            AnyEngine::Tpl(e) => AnySession::Tpl(e.open_session()),
            AnyEngine::Occ(e) => AnySession::Occ(e.open_session()),
            AnyEngine::Hekaton(e) | AnyEngine::Si(e) => AnySession::Hekaton(e.open_session()),
        }
    }

    fn read_record(&self, rid: RecordId) -> Option<bohm_common::Value> {
        match self {
            AnyEngine::Bohm(e) => e.read_record(rid),
            AnyEngine::Tpl(e) => BatchEngine::read_record(e, rid),
            AnyEngine::Occ(e) => BatchEngine::read_record(e, rid),
            AnyEngine::Hekaton(e) | AnyEngine::Si(e) => BatchEngine::read_record(e, rid),
        }
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        match self {
            AnyEngine::Bohm(e) => e.snapshot_records(f),
            AnyEngine::Tpl(e) => BatchEngine::snapshot_records(e, f),
            AnyEngine::Occ(e) => BatchEngine::snapshot_records(e, f),
            AnyEngine::Hekaton(e) | AnyEngine::Si(e) => BatchEngine::snapshot_records(e, f),
        }
    }

    /// Quiesce the engine so direct [`read_u64`](BatchEngine::read_u64)
    /// state audits are race-free. The interactive engines are quiescent
    /// between calls already; BOHM drains through its own barrier quiesce
    /// (one logged no-op, then a wait for batch retirement).
    fn quiesce(&self) {
        if let AnyEngine::Bohm(e) = self {
            BatchEngine::quiesce(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_workloads::TableDef;

    fn spec() -> DatabaseSpec {
        DatabaseSpec::new(vec![TableDef {
            rows: 32,
            spare_rows: 0,
            record_size: 8,
            seed: |r| r,
        }])
    }

    #[test]
    fn split_covers_budget() {
        for n in 2..=24 {
            let (cc, exec) = bohm_split(n);
            assert!(cc >= 1 && exec >= 1);
            assert_eq!(cc + exec, n);
        }
    }

    #[test]
    fn a_row_past_its_table_is_refused_before_it_can_lock_a_neighbours_row() {
        use std::sync::Arc;
        let two_tables = || {
            let table = |seed: fn(u64) -> u64| TableDef {
                rows: 4,
                spare_rows: 0,
                record_size: 8,
                seed,
            };
            DatabaseSpec::new(vec![table(|r| r), table(|r| 100 + r)])
        };
        let rmw = |rid| {
            let delta = bohm_common::Procedure::ReadModifyWrite { delta: 1 };
            Txn::new(vec![rid], vec![rid], delta)
        };
        for kind in [EngineKind::Tpl, EngineKind::Occ] {
            let engine = Arc::new(kind.build(&two_tables(), 2));
            // Row 4 of table 0 has the flat slot of table 1's row 0.
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.open_session().submit(rmw(RecordId::new(0, 4)));
            }));
            assert!(
                refused.is_err(),
                "{}: accepted a row past table 0",
                kind.name()
            );
            let (tx, rx) = std::sync::mpsc::channel();
            let e = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut session = e.open_session();
                session.submit(rmw(RecordId::new(1, 0)));
                tx.send(session.reap()).unwrap();
            });
            let out = rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{}: table 1's row 0 stayed locked", kind.name()));
            assert!(out.committed, "{}", kind.name());
            engine.quiesce();
            assert_eq!(
                engine.read_u64(RecordId::new(1, 0)),
                Some(101),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn all_engines_preload_identically() {
        let s = spec();
        for kind in EngineKind::ALL {
            let engine = kind.build(&s, 2);
            for row in 0..32 {
                let rid = RecordId::new(0, row);
                assert_eq!(
                    engine.read_u64(rid),
                    Some(row),
                    "{} preload mismatch at row {row}",
                    kind.name()
                );
            }
            engine.shutdown();
        }
    }

    #[test]
    fn every_engine_inserts_through_the_facade() {
        use bohm_workloads::TableDef;
        let s = DatabaseSpec::new(vec![TableDef {
            rows: 4,
            spare_rows: 4,
            record_size: 8,
            seed: |r| r,
        }]);
        let fresh = RecordId::new(0, 6);
        for kind in EngineKind::ALL {
            let engine = kind.build(&s, 2);
            assert_eq!(
                engine.read_u64(fresh),
                None,
                "{}: spare slot must start absent",
                kind.name()
            );
            let mut session = engine.open_session();
            session.submit(Txn::new(
                vec![],
                vec![fresh],
                bohm_common::Procedure::BlindWrite { value: 99 },
            ));
            assert!(session.reap().committed, "{}", kind.name());
            engine.quiesce();
            assert_eq!(engine.read_u64(fresh), Some(99), "{}", kind.name());
            engine.shutdown();
        }
    }

    #[test]
    fn every_engine_commits_through_the_facade() {
        let s = spec();
        let rid = RecordId::new(0, 3);
        let txn = Txn::new(
            vec![rid],
            vec![rid],
            bohm_common::Procedure::ReadModifyWrite { delta: 2 },
        );
        for kind in EngineKind::ALL {
            let engine = kind.build(&s, 2);
            let mut session = engine.open_session();
            for _ in 0..10 {
                session.submit(txn.clone());
            }
            let mut committed = 0;
            while session.in_flight() > 0 {
                if session.reap().committed {
                    committed += 1;
                }
            }
            assert_eq!(committed, 10, "{}", kind.name());
            engine.quiesce();
            assert_eq!(engine.read_u64(rid), Some(3 + 20), "{}", kind.name());
            engine.shutdown();
        }
    }
}
