//! Quickstart: stand up a BOHM engine, run transactions, read results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bohm_suite::common::{Procedure, RecordId, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};

fn main() {
    // A catalog is declared up front: one table of 1,000 eight-byte
    // records, preloaded with zero.
    let catalog = CatalogSpec::new().table(1_000, 8, |_| 0);

    // Start the engine: 2 concurrency-control threads + 2 execution
    // threads (the paper's two separated phases, §3). There is no
    // sequencer thread: submitting sessions form the batches themselves.
    let engine = Bohm::start(BohmConfig::with_threads(2, 2), catalog);

    // Clients talk to the engine through *sessions*: submit single
    // transactions (with declared read/write sets — BOHM consumes whole
    // transactions), get back one handle per transaction. Sequencer
    // arrival order *is* the serialization order.
    let session = engine.session();
    let handles: Vec<_> = (0..100)
        .map(|i| {
            let rid = RecordId::new(0, i % 10);
            session.submit(Txn::new(
                vec![rid],
                vec![rid],
                Procedure::ReadModifyWrite { delta: 1 },
            ))
        })
        .collect();

    // Each handle completes the moment its transaction finishes executing
    // — no waiting for batch boundaries.
    let committed = handles.iter().filter(|h| h.wait().committed).count();
    println!("committed {committed}/100 transactions");

    // Group submission is still available; its handle waiting additionally
    // quiesces the pipeline (so direct state reads below are safe).
    let ro = Txn::new(
        (0..10).map(|k| RecordId::new(0, k)).collect(),
        vec![],
        Procedure::ReadOnly,
    );
    let out = engine.execute_sync(vec![ro]);
    println!("read-only fingerprint: {:#x}", out[0].fingerprint);

    // Each of the 10 records was incremented 10 times.
    for k in 0..10 {
        let v = engine.read_u64(RecordId::new(0, k)).unwrap();
        println!("record {k}: {v}");
        assert_eq!(v, 10);
    }

    engine.shutdown();
    println!("done");
}
