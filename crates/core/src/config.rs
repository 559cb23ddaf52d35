//! Engine configuration and catalog declaration.

/// Tunables of a [`Bohm`](crate::Bohm) instance.
///
/// The split between concurrency-control and execution threads is the
/// paper's central operational knob (Fig. 4 sweeps both); batch size
/// controls how much coordination cost is amortized per barrier (§3.2.4).
#[derive(Clone, Debug)]
pub struct BohmConfig {
    /// Number of concurrency-control threads (`m` in the paper). Each owns
    /// `1/m` of the records, by a hash of their chains' cache lines.
    pub cc_threads: usize,
    /// Number of execution threads (`k`). Thread `i` is responsible for
    /// transactions `i, i+k, i+2k, …` of each batch.
    pub exec_threads: usize,
    /// The read-set optimization (§3.2.3): CC threads annotate each
    /// transaction whose read set is at most this size with direct pointers
    /// to the versions its reads resolve to, so execution never traverses
    /// version chains. Larger read sets are *not* annotated; their reads
    /// fall back to chain traversal at execution time. The annotation is an
    /// optimization aimed at short transactions — for a 10,000-record
    /// read-only transaction, having CC threads look up and store ten
    /// thousand version pointers costs more than traversing GC-trimmed
    /// chains at execution time. `0` turns annotation off (the ablation
    /// that measures the traversal cost).
    ///
    /// It is also the **read lane's threshold**: a transaction that is not
    /// annotated *and writes nothing* owes the CC phase nothing and produces
    /// no version anyone can wait on, so it leaves the execution threads'
    /// responsibility rotation and runs on the read lane instead (the
    /// `bohm-exec-ro` thread, helped by execution threads that have finished
    /// their own share of the batch — see [`exec`](crate::exec)). One
    /// decision, one threshold: "too long to annotate" and "long enough to
    /// get out of the writers' way" are the same property. At `0`, every
    /// read-only transaction that reads anything takes the lane.
    pub annotate_max_reads: usize,
    /// Has no effect. It sized the hash index BOHM once looked records up
    /// in; records now live at `table[row]`, and every table addresses
    /// 2^32 rows whatever it declares. The field stays only because the
    /// benchmark package still assigns it.
    pub index_capacity: usize,
    /// Transactions per batch (the §3.2.4 coordination-amortization knob):
    /// the submission that brings the open batch to this size seals it (see
    /// [`ingest`](crate::ingest)). A partly filled batch has no timer: a
    /// client waiting on (or polling) one of its transactions seals it once
    /// no batch is in flight, so it is held back only while the pipeline
    /// has work. Also the timestamp *stride* reserved per
    /// batch: batch `b` owns timestamps `1 + b·batch_size .. 1 +
    /// (b+1)·batch_size`, which is what makes the window's timestamp→batch
    /// lookup O(1) arithmetic.
    ///
    /// Size it for the pipeline it feeds: the CC and execution layers
    /// overlap only while two or more batches are in flight, so a client
    /// keeping `d` transactions outstanding wants batches well below `d / 2`
    /// (Little's law). The default, 2048, leaves four batches in flight at
    /// the benchmark's 8192 outstanding; 4096 left two, and CC waited.
    pub batch_size: usize,
    /// In-flight batch budget: the number of sealed-but-unretired batches
    /// the pipeline may hold (rounded up to a power of two — it is the
    /// window ring's capacity). When the budget is exhausted the submitter
    /// sealing the next batch blocks, holding the open batch's mutex, and
    /// every other submitter blocks behind it: the backpressure, bounded by
    /// one open batch.
    pub max_inflight_batches: usize,
    /// Opt-in durability: when set, sealing appends every batch's inputs to
    /// a write-ahead log ([`bohm_common::wal::Wal`]) and applies the
    /// configured fsync policy *before* releasing the batch to the CC
    /// threads — group commit riding the existing size/idle batching.
    /// `None` (the default) keeps the engine memory-only. Recover with
    /// [`Bohm::recover`](crate::Bohm::recover) on the same directory: the
    /// recovery routine every durable engine shares
    /// ([`durable::recover`](bohm_common::durable::recover)) restores the
    /// newest checkpoint, replays the log suffix into the engine before it
    /// has a log, then attaches the log, so nothing is logged twice.
    /// [`BatchEngine::replay`](bohm_common::engine::BatchEngine::replay)
    /// alone replays a log into some *other*, memory-only engine.
    pub durability: Option<bohm_common::wal::DurabilityConfig>,
}

impl Default for BohmConfig {
    fn default() -> Self {
        Self {
            cc_threads: 4,
            exec_threads: 4,
            annotate_max_reads: 64,
            index_capacity: 1 << 20,
            batch_size: 2048,
            max_inflight_batches: 8,
            durability: None,
        }
    }
}

impl BohmConfig {
    /// A tiny configuration for tests and doc examples (2 CC + 2 exec).
    pub fn small() -> Self {
        Self {
            cc_threads: 2,
            exec_threads: 2,
            ..Self::default()
        }
    }

    /// Configuration with explicit thread counts.
    pub fn with_threads(cc: usize, exec: usize) -> Self {
        Self {
            cc_threads: cc,
            exec_threads: exec,
            ..Self::default()
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.cc_threads >= 1, "need at least one CC thread");
        assert!(self.exec_threads >= 1, "need at least one execution thread");
        assert!(self.batch_size >= 1, "batch_size must be at least 1");
        assert!(
            self.max_inflight_batches >= 2,
            "max_inflight_batches must be at least 2 (CC and execution work \
             on different batches concurrently)"
        );
        if let Some(d) = &self.durability {
            d.validate();
        }
    }
}

/// Declarative catalog: tables with fixed record sizes and seed data.
///
/// Tables receive dense ids in declaration order, matching the
/// [`TableId`](bohm_common::TableId)s used in [`RecordId`](bohm_common::RecordId)s.
pub struct CatalogSpec {
    pub(crate) tables: Vec<TableSpec>,
}

pub(crate) struct TableSpec {
    pub rows: u64,
    pub record_size: usize,
    /// Seed value for the u64 prefix of each row.
    pub seed: Box<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl Default for CatalogSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl CatalogSpec {
    /// An empty catalog; chain [`table`](Self::table) calls to populate.
    pub fn new() -> Self {
        Self { tables: Vec::new() }
    }

    /// Declare a table of `rows` records of `record_size` bytes, each
    /// preloaded (at timestamp 0) with `seed(row)` in its u64 prefix. Rows
    /// past the preload start absent; any of them below 2^32 may be
    /// inserted.
    pub fn table(
        mut self,
        rows: u64,
        record_size: usize,
        seed: impl Fn(u64) -> u64 + Send + Sync + 'static,
    ) -> Self {
        assert!(record_size >= 8);
        self.tables.push(TableSpec {
            rows,
            record_size,
            seed: Box::new(seed),
        });
        self
    }

    /// Record size of table `t`.
    pub fn record_size(&self, t: usize) -> usize {
        self.tables[t].record_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        BohmConfig::default().validate();
        BohmConfig::small().validate();
        BohmConfig::with_threads(1, 1).validate();
    }

    #[test]
    #[should_panic(expected = "CC thread")]
    fn zero_cc_threads_rejected() {
        BohmConfig::with_threads(0, 1).validate();
    }

    #[test]
    #[should_panic(expected = "execution thread")]
    fn zero_exec_threads_rejected() {
        BohmConfig::with_threads(1, 0).validate();
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_rejected() {
        let mut cfg = BohmConfig::small();
        cfg.batch_size = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "max_inflight_batches")]
    fn too_small_inflight_budget_rejected() {
        let mut cfg = BohmConfig::small();
        cfg.max_inflight_batches = 1;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "segment_bytes")]
    fn invalid_durability_config_rejected() {
        let mut cfg = BohmConfig::small();
        let mut d = bohm_common::wal::DurabilityConfig::new("/tmp/never-created");
        d.segment_bytes = 0;
        cfg.durability = Some(d);
        cfg.validate();
    }

    #[test]
    fn catalog_assigns_dense_ids_and_sizes() {
        let c = CatalogSpec::new().table(10, 8, |_| 0).table(5, 1000, |r| r);
        assert_eq!(c.tables.len(), 2);
        assert_eq!(c.record_size(1), 1000);
        assert_eq!((c.tables[1].seed)(3), 3);
    }
}
