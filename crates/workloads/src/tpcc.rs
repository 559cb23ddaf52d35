//! TPC-C-lite workload: an insert-and-delete-heavy, multi-table
//! order-entry mix.
//!
//! The paper evaluates BOHM only on preloaded key sets; this family opens
//! the full record lifecycle end to end. Six tables — `warehouse`,
//! `district`, `customer`, `order`, the per-stripe `delivery` cursor, and
//! the **customer→orders secondary index** (a posting-list table lowered
//! by [`crate::spec::IndexDef`]) — and six procedures:
//!
//! * **NewOrder** (43%) — RMW of the district order counter plus an
//!   **insert** of a fresh order record, added to its customer's posting
//!   list in the same transaction ([`TpcCProc::NewOrder`]),
//! * **Payment** (36%) — a cross-table RMW touching warehouse, district
//!   and customer ([`TpcCProc::Payment`]),
//! * **Delivery** (5%) — batch-consume the oldest undelivered orders:
//!   each is read, **deleted**, and removed from its customer's posting
//!   list; the stripe's delivery cursor advances ([`TpcCProc::Delivery`]),
//! * **OrderStatus** (6%) — read-only; probes an order slot that may not
//!   exist (not yet inserted, or already delivered), exercising
//!   absence-tolerant reads ([`TpcCProc::OrderStatus`]),
//! * **OrderHistory** (4%) — read-only range scan of the stripe's
//!   oldest-live order window with phantom protection: its edges are
//!   exactly where Delivery deletes and NewOrder inserts land
//!   ([`TpcCProc::OrderHistory`]),
//! * **CustomerStatus** (6%) — read-only **secondary-index scan**: a
//!   customer's live orders reached through the posting list, each member
//!   row read at the same snapshot — a genuine multi-range transaction
//!   racing NewOrder inserts and Delivery deletes on the index key
//!   ([`TpcCProc::CustomerStatus`]).
//!
//! Write sets are declared up front (BOHM's model), so order ids are
//! **generator-assigned**: each generator owns a disjoint stripe of the
//! order table and runs it as a ring — NewOrder inserts at the head,
//! Delivery deletes at the tail, and a full stripe forces a Delivery in
//! place of the NewOrder. Every order the workload creates is therefore a
//! **true insert** into a currently-absent slot (the table is declared
//! with zero seeded rows and `spare_rows` headroom), and every delivered
//! slot is genuinely recycled — the insert→delete→reclaim loop the
//! engines' lifecycle machinery exists for.
//!
//! **Index sizing.** Posting lists are fixed-size
//! ([`TpccConfig::orders_per_customer`] members), so the generator must
//! bound each customer's live orders: NewOrder customers are drawn from a
//! per-stripe **partition** of the customer space (global customer row ≡
//! stripe mod `order_stripes`) — so one generator sees all orders of its
//! customers — and a NewOrder aimed at a full customer becomes a Delivery
//! instead, exactly like a full stripe ring.

use crate::spec::{DatabaseSpec, IndexDef, TableDef};
use crate::TxnGen;
use bohm_common::rng::FastRng;
use bohm_common::{IndexScan, Procedure, RecordId, TpcCProc, Txn};
use std::collections::VecDeque;

/// Dense table ids of the TPC-C-lite schema.
pub mod tables {
    pub const WAREHOUSE: u32 = 0;
    pub const DISTRICT: u32 = 1;
    pub const CUSTOMER: u32 = 2;
    pub const ORDER: u32 = 3;
    /// One row per generator stripe: the count of orders delivered
    /// (consumed + deleted) from that stripe, serializing Deliveries.
    pub const DELIVERY: u32 = 4;
    /// The customer→orders secondary index: one posting-list record per
    /// customer (row id = global customer row), holding the customer's
    /// live order rows.
    pub const CUSTOMER_ORDERS: u32 = 5;
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    pub warehouses: u64,
    pub districts_per_warehouse: u64,
    pub customers_per_district: u64,
    /// Order-table insert headroom (the table starts empty).
    pub order_capacity: u64,
    /// Generator stripes the order table is partitioned into; every
    /// session index passed to [`TpccGen::new`] must be below this.
    pub order_stripes: u64,
    /// Maximum orders one Delivery transaction consumes.
    pub delivery_batch: u64,
    /// Posting-list capacity of the customer→orders index: the maximum
    /// live orders any single customer may hold. The generator enforces
    /// the bound (a NewOrder aimed at a full customer delivers instead),
    /// so maintenance can never overflow a list.
    pub orders_per_customer: u64,
    /// Per-transaction busy-spin, µs.
    pub think_us: u32,
}

impl Default for TpccConfig {
    fn default() -> Self {
        Self {
            warehouses: 4,
            districts_per_warehouse: 10,
            customers_per_district: 96,
            order_capacity: 1 << 16,
            order_stripes: 64,
            delivery_batch: 4,
            orders_per_customer: 64,
            think_us: 0,
        }
    }
}

impl TpccConfig {
    pub fn districts(&self) -> u64 {
        self.warehouses * self.districts_per_warehouse
    }

    pub fn customers(&self) -> u64 {
        self.districts() * self.customers_per_district
    }

    /// Check the configuration for the mistakes that used to fail late and
    /// obscurely: a zero stripe count previously reached
    /// [`orders_per_stripe`](Self::orders_per_stripe) and panicked with a
    /// raw divide-by-zero, and a capacity that is not a multiple of the
    /// stripe count silently stranded the remainder slots (no stripe ring
    /// could ever reach them). [`spec`](Self::spec) and [`TpccGen::new`]
    /// call this and panic with the returned message on `Err`.
    pub fn validate(&self) -> Result<(), String> {
        if self.warehouses == 0 || self.districts_per_warehouse == 0 {
            return Err("warehouses and districts_per_warehouse must both be ≥ 1".into());
        }
        if self.customers_per_district == 0 {
            return Err("customers_per_district must be ≥ 1".into());
        }
        if self.order_stripes == 0 {
            return Err(
                "order_stripes must be ≥ 1 (the order table is partitioned into stripes; \
                 zero stripes would divide by zero)"
                    .into(),
            );
        }
        if self.delivery_batch == 0 {
            return Err(
                "delivery_batch must be ≥ 1 (a Delivery consumes at least one order)".into(),
            );
        }
        if self.order_capacity < self.order_stripes {
            return Err(format!(
                "order_capacity ({}) must cover order_stripes ({}): every stripe ring needs \
                 at least one slot",
                self.order_capacity, self.order_stripes
            ));
        }
        if !self.order_capacity.is_multiple_of(self.order_stripes) {
            return Err(format!(
                "order_capacity ({}) must be a multiple of order_stripes ({}): the remainder \
                 ({} slots) would be silently stranded — unreachable by any stripe ring",
                self.order_capacity,
                self.order_stripes,
                self.order_capacity % self.order_stripes
            ));
        }
        if self.orders_per_customer == 0 {
            return Err(
                "orders_per_customer must be ≥ 1 (it is the customer→orders posting-list \
                 capacity)"
                    .into(),
            );
        }
        if self.customers() < self.order_stripes {
            return Err(format!(
                "customers ({}) must be ≥ order_stripes ({}): NewOrder customers are \
                 partitioned by stripe so each posting list has a single maintaining \
                 generator, which needs at least one customer per stripe",
                self.customers(),
                self.order_stripes
            ));
        }
        Ok(())
    }

    fn assert_valid(&self) {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid TpccConfig: {e}"));
    }

    /// Order slots owned by one generator stripe.
    pub fn orders_per_stripe(&self) -> u64 {
        // Defensive twin of `validate` (callers that skip spec()/TpccGen
        // still get a clear message, not a raw divide-by-zero).
        assert!(
            self.order_stripes > 0,
            "order_stripes must be ≥ 1; see TpccConfig::validate"
        );
        let per = self.order_capacity / self.order_stripes;
        assert!(per >= 1, "order_capacity must cover order_stripes");
        per
    }

    /// Customers in `stripe`'s partition (global rows ≡ stripe mod
    /// `order_stripes`); ≥ 1 for every valid config.
    fn stripe_customers(&self, stripe: u64) -> u64 {
        let c = self.customers();
        if stripe >= c {
            0
        } else {
            (c - 1 - stripe) / self.order_stripes + 1
        }
    }

    /// Decompose a global customer row into `(warehouse, district,
    /// customer-in-district)` — the inverse of the `customer` addressing.
    /// Public so audits (e.g. a per-customer index sweep) can address
    /// every customer without duplicating the layout arithmetic.
    pub fn customer_coords(&self, global: u64) -> (u64, u64, u64) {
        let per_wh = self.districts_per_warehouse * self.customers_per_district;
        (
            global / per_wh,
            (global % per_wh) / self.customers_per_district,
            global % self.customers_per_district,
        )
    }

    pub fn spec(&self) -> DatabaseSpec {
        self.assert_valid();
        let base = DatabaseSpec::new(vec![
            TableDef {
                rows: self.warehouses,
                spare_rows: 0,
                record_size: 8,
                seed: |_| 0, // w_ytd
            },
            TableDef {
                rows: self.districts(),
                spare_rows: 0,
                record_size: 16,
                seed: |_| 0, // d_next_o_id counter / d_ytd share the prefix
            },
            TableDef {
                rows: self.customers(),
                spare_rows: 0,
                record_size: 16,
                seed: |_| 100_000, // c_balance (cents)
            },
            TableDef {
                rows: 0,
                spare_rows: self.order_capacity,
                record_size: 32,
                seed: |_| 0, // never invoked: the table starts empty
            },
            TableDef {
                rows: self.order_stripes,
                spare_rows: 0,
                record_size: 8,
                seed: |_| 0, // delivered-order count per stripe
            },
        ]);
        // The customer→orders index: one posting-list row per customer
        // (the index key is the global customer row), seeded empty.
        base.with_index(IndexDef {
            on_table: tables::ORDER,
            keys: self.customers(),
            max_entries: self.orders_per_customer,
        })
    }
}

fn warehouse(w: u64) -> RecordId {
    RecordId::new(tables::WAREHOUSE, w)
}

fn district(cfg: &TpccConfig, w: u64, d: u64) -> RecordId {
    RecordId::new(tables::DISTRICT, w * cfg.districts_per_warehouse + d)
}

fn customer(cfg: &TpccConfig, w: u64, d: u64, c: u64) -> RecordId {
    RecordId::new(
        tables::CUSTOMER,
        (w * cfg.districts_per_warehouse + d) * cfg.customers_per_district + c,
    )
}

fn order(row: u64) -> RecordId {
    RecordId::new(tables::ORDER, row)
}

fn delivery_cursor(stripe: u64) -> RecordId {
    RecordId::new(tables::DELIVERY, stripe)
}

/// Posting-list record of one customer's live orders (the index key is
/// the global customer row).
fn order_list(global_customer: u64) -> RecordId {
    RecordId::new(tables::CUSTOMER_ORDERS, global_customer)
}

/// Build a NewOrder transaction inserting order row `o_row`. The
/// customer's posting list is a third read/write pair — the transactional
/// index maintenance.
pub fn new_order(cfg: &TpccConfig, w: u64, d: u64, c: u64, o_row: u64, lines: u32) -> Txn {
    let cust = customer(cfg, w, d, c);
    let list = order_list(cust.row);
    let reads = vec![district(cfg, w, d), cust, list];
    let writes = vec![district(cfg, w, d), order(o_row), list];
    let mut t = Txn::new(reads, writes, Procedure::TpcC(TpcCProc::NewOrder { lines }));
    t.think_us = cfg.think_us;
    t
}

/// Build a CustomerStatus transaction: read the customer, then
/// secondary-index-scan their live orders (posting list + one point read
/// per member order) with phantom protection on the index key. Layout per
/// [`TpcCProc::CustomerStatus`]: reads = `[customer(c), order_list(c)]`,
/// index_scans = `[{list: 1, table: order}]`, writes = `[]`.
pub fn customer_status(cfg: &TpccConfig, w: u64, d: u64, c: u64) -> Txn {
    let cust = customer(cfg, w, d, c);
    let mut t = Txn::with_index_scans(
        vec![cust, order_list(cust.row)],
        vec![],
        vec![IndexScan::new(1, tables::ORDER)],
        Procedure::TpcC(TpcCProc::CustomerStatus),
    );
    t.think_us = cfg.think_us;
    t
}

/// Build a Payment transaction.
pub fn payment(cfg: &TpccConfig, w: u64, d: u64, c: u64, amount: u64) -> Txn {
    let rids = vec![warehouse(w), district(cfg, w, d), customer(cfg, w, d, c)];
    let mut t = Txn::new(
        rids.clone(),
        rids,
        Procedure::TpcC(TpcCProc::Payment { amount }),
    );
    t.think_us = cfg.think_us;
    t
}

/// Build a Delivery transaction for `stripe`, consuming `count` orders
/// starting at ring position `first` (the stripe's oldest undelivered
/// order). `customers[i]` is the global customer row of the i-th consumed
/// order — write sets are declared up front, so the posting lists the
/// deletes must unmaintain are part of the declared shape (deduplicated).
/// Reads = writes =
/// `[cursor, order…, list…]`, per the [`TpcCProc::Delivery`] layout.
pub fn delivery(cfg: &TpccConfig, stripe: u64, first: u64, count: u64, customers: &[u64]) -> Txn {
    let per = cfg.orders_per_stripe();
    let base = stripe * per;
    let mut rids = Vec::with_capacity(1 + 2 * count as usize);
    rids.push(delivery_cursor(stripe));
    rids.extend((0..count).map(|i| order(base + (first + i) % per)));
    assert_eq!(
        customers.len() as u64,
        count,
        "one customer per consumed order (declared write sets)"
    );
    let mut lists = customers.to_vec();
    lists.sort_unstable();
    lists.dedup();
    rids.extend(lists.into_iter().map(order_list));
    let mut t = Txn::new(rids.clone(), rids, Procedure::TpcC(TpcCProc::Delivery));
    t.think_us = cfg.think_us;
    t
}

/// Build an OrderStatus transaction probing order row `o_row`.
pub fn order_status(cfg: &TpccConfig, w: u64, d: u64, c: u64, o_row: u64) -> Txn {
    let mut t = Txn::new(
        vec![customer(cfg, w, d, c), order(o_row)],
        vec![],
        Procedure::TpcC(TpcCProc::OrderStatus),
    );
    t.think_us = cfg.think_us;
    t
}

/// Build an OrderHistory transaction: read the customer, then range-scan
/// order rows `lo..hi` (the customer's order-history window) with phantom
/// protection. Layout per [`TpcCProc::OrderHistory`]:
/// reads = `[customer(c)]`, scans = `[orders lo..hi]`, writes = `[]`.
pub fn order_history(cfg: &TpccConfig, w: u64, d: u64, c: u64, lo: u64, hi: u64) -> Txn {
    let mut t = Txn::with_scans(
        vec![customer(cfg, w, d, c)],
        vec![],
        vec![bohm_common::ScanRange::new(tables::ORDER, lo, hi)],
        Procedure::TpcC(TpcCProc::OrderHistory),
    );
    t.think_us = cfg.think_us;
    t
}

/// Per-session TPC-C-lite transaction generator.
///
/// The stripe is a ring: `created` counts NewOrders issued (head),
/// `delivered` counts orders consumed by Delivery (tail). The generator
/// keeps `created - delivered ≤ orders_per_stripe()` by forcing a Delivery
/// when the stripe is full, so every NewOrder inserts into a slot that is
/// currently absent (never inserted, or delivered and thus recycled).
pub struct TpccGen {
    cfg: TpccConfig,
    rng: FastRng,
    /// This generator's stripe index.
    stripe: u64,
    /// First order row of this generator's stripe.
    stripe_base: u64,
    /// Orders this generator has issued NewOrder transactions for.
    created: u64,
    /// Orders this generator has consumed via Delivery transactions.
    delivered: u64,
    /// Global customer row of each live order, oldest first (parallel to
    /// ring positions `delivered..created`) — the declared-write-set
    /// knowledge Delivery needs to name the posting lists it unmaintains.
    pending_custs: VecDeque<u64>,
    /// Live-order count per customer of this stripe's partition (ordinal
    /// `o` is global row `stripe + o·order_stripes`): the generator-side
    /// enforcement of the posting-list capacity.
    cust_live: Vec<u64>,
    /// Customers in this stripe's partition.
    partition: u64,
}

impl TpccGen {
    /// `stripe` must be below `cfg.order_stripes`; generators with distinct
    /// stripes insert into disjoint order-row ranges (and, with the
    /// customer→orders index, maintain disjoint customer partitions).
    pub fn new(cfg: TpccConfig, seed: u64, stripe: u64) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid TpccConfig: {e}"));
        assert!(stripe < cfg.order_stripes, "stripe beyond order_stripes");
        let stripe_base = stripe * cfg.orders_per_stripe();
        let partition = cfg.stripe_customers(stripe);
        let cust_live = vec![0u64; partition as usize];
        Self {
            cfg,
            rng: FastRng::seed_from(seed),
            stripe,
            stripe_base,
            created: 0,
            delivered: 0,
            pending_custs: VecDeque::new(),
            cust_live,
            partition,
        }
    }

    /// Orders this generator has created so far.
    pub fn orders_created(&self) -> u64 {
        self.created
    }

    /// Orders this generator has consumed (deleted) via Delivery.
    pub fn orders_delivered(&self) -> u64 {
        self.delivered
    }

    /// Order rows currently live (inserted and not yet delivered) — the
    /// expected `row_count` contribution of this stripe after the stream
    /// executes.
    pub fn orders_live(&self) -> u64 {
        self.created - self.delivered
    }

    fn wdc(&mut self) -> (u64, u64, u64) {
        (
            self.rng.below(self.cfg.warehouses),
            self.rng.below(self.cfg.districts_per_warehouse),
            self.rng.below(self.cfg.customers_per_district),
        )
    }

    /// Consume up to `delivery_batch` of the oldest undelivered orders.
    /// Callers guarantee at least one order is undelivered.
    fn next_delivery(&mut self) -> Txn {
        let undelivered = self.created - self.delivered;
        debug_assert!(undelivered > 0);
        let count = self.cfg.delivery_batch.min(undelivered);
        let custs: Vec<u64> = self.pending_custs.drain(..count as usize).collect();
        for &g in &custs {
            let ord = (g - self.stripe) / self.cfg.order_stripes;
            self.cust_live[ord as usize] -= 1;
        }
        let t = delivery(&self.cfg, self.stripe, self.delivered, count, &custs);
        self.delivered += count;
        t
    }

    /// Issue a NewOrder inserting at the stripe's ring head — or a
    /// Delivery when the ring is full or the chosen customer's posting list
    /// is at capacity, so the stream frees slots and list entries before
    /// growing again. The customer comes from this stripe's partition, so
    /// each posting list has a single maintaining generator.
    fn next_new_order(&mut self) -> Txn {
        let per = self.cfg.orders_per_stripe();
        if self.created - self.delivered == per {
            // Stripe full: deliver instead, so the next NewOrder inserts
            // into a genuinely recycled (absent) slot.
            return self.next_delivery();
        }
        let ord = self.rng.below(self.partition);
        if self.cust_live[ord as usize] >= self.cfg.orders_per_customer {
            // The customer's posting list is full: deliver instead (there
            // is at least one live order to consume).
            return self.next_delivery();
        }
        let g = self.stripe + ord * self.cfg.order_stripes;
        self.cust_live[ord as usize] += 1;
        self.pending_custs.push_back(g);
        let (w, d, c) = self.cfg.customer_coords(g);
        let o_row = self.stripe_base + self.created % per;
        self.created += 1;
        let lines = 1 + self.rng.below(10) as u32;
        new_order(&self.cfg, w, d, c, o_row, lines)
    }

    /// Index-scan a customer of this stripe's partition (the customers
    /// whose posting lists this generator's NewOrders/Deliveries churn).
    fn next_customer_status(&mut self) -> Txn {
        let ord = self.rng.below(self.partition);
        let g = self.stripe + ord * self.cfg.order_stripes;
        let (w, d, c) = self.cfg.customer_coords(g);
        customer_status(&self.cfg, w, d, c)
    }

    /// Scan the stripe's oldest-live order window (its front edge races
    /// Delivery deletes; its back edge races NewOrder inserts — the
    /// phantom-prone region by construction). Clamped to the contiguous
    /// chunk before the ring wrap.
    fn next_order_history(&mut self, w: u64, d: u64, c: u64) -> Txn {
        const WINDOW: u64 = 8;
        let per = self.cfg.orders_per_stripe();
        let first = self.delivered % per;
        let span = WINDOW.min(per - first);
        let lo = self.stripe_base + first;
        order_history(&self.cfg, w, d, c, lo, lo + span)
    }
}

impl TxnGen for TpccGen {
    fn next_txn(&mut self) -> Txn {
        let (w, d, c) = self.wdc();
        let per = self.cfg.orders_per_stripe();
        match self.rng.below(100) {
            0..=42 => self.next_new_order(),
            43..=78 => payment(&self.cfg, w, d, c, 1 + self.rng.below(5_000)),
            79..=83 => {
                if self.created == self.delivered {
                    // Nothing to deliver yet; keep the mix flowing.
                    return payment(&self.cfg, w, d, c, 1 + self.rng.below(5_000));
                }
                self.next_delivery()
            }
            84..=89 => {
                // Probe a live order most of the time; 1-in-8 probes the
                // next (not-yet-inserted) slot and 1-in-8 the most recently
                // delivered one — usually absent (the read-after-delete
                // case), though either ring position may hold a live order
                // again near the wrap. Absence-tolerant reads make every
                // outcome serializable; the oracle adjudicates.
                let live = self.created - self.delivered;
                let o_row = if live == 0 || self.rng.below(8) == 0 {
                    self.stripe_base + self.created % per
                } else if self.delivered > 0 && self.rng.below(8) == 0 {
                    self.stripe_base + (self.delivered - 1) % per
                } else {
                    self.stripe_base + (self.delivered + self.rng.below(live)) % per
                };
                order_status(&self.cfg, w, d, c, o_row)
            }
            90..=93 => self.next_order_history(w, d, c),
            _ => self.next_customer_status(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::TableId;

    fn small() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 8,
            order_capacity: 64,
            order_stripes: 4,
            delivery_batch: 3,
            orders_per_customer: 8,
            think_us: 0,
        }
    }

    #[test]
    fn spec_shapes_match_schema() {
        let s = small().spec();
        assert_eq!(s.tables.len(), 6);
        assert_eq!(s.tables[tables::ORDER as usize].rows, 0);
        assert_eq!(s.tables[tables::ORDER as usize].capacity(), 64);
        assert_eq!(s.tables[tables::DISTRICT as usize].rows, 4);
        assert_eq!(s.tables[tables::CUSTOMER as usize].rows, 32);
        assert_eq!(s.tables[tables::DELIVERY as usize].rows, 4);
        // The lowered customer→orders index: one posting list per customer,
        // sized by orders_per_customer.
        assert_eq!(s.indexes.len(), 1);
        assert_eq!(s.indexes[0].1, tables::CUSTOMER_ORDERS);
        assert_eq!(s.indexes[0].0.on_table, tables::ORDER);
        let lists = &s.tables[tables::CUSTOMER_ORDERS as usize];
        assert_eq!(lists.rows, 32, "one posting-list row per customer");
        assert_eq!(lists.record_size, 8 + 8 * 8);
        assert_eq!(s.total_rows() + 64, s.total_capacity());
    }

    #[test]
    fn validate_rejects_zero_stripes_with_a_clear_error() {
        // Regression: this used to reach orders_per_stripe() and die with a
        // raw divide-by-zero.
        let cfg = TpccConfig {
            order_stripes: 0,
            ..small()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("order_stripes"), "{err}");
        assert!(err.contains("divide"), "{err}");
        // spec() surfaces the same message instead of a divide-by-zero.
        let panic = match std::panic::catch_unwind(|| cfg.spec()) {
            Err(e) => e,
            Ok(_) => panic!("spec() must reject order_stripes = 0"),
        };
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("order_stripes"), "spec panic: {msg}");
        // TpccGen::new is guarded identically.
        assert!(std::panic::catch_unwind(|| TpccGen::new(cfg.clone(), 1, 0)).is_err());
    }

    #[test]
    fn validate_rejects_stranded_remainder_slots() {
        // Regression: order_capacity % order_stripes != 0 used to silently
        // strand the remainder (no stripe ring could reach those slots).
        let cfg = TpccConfig {
            order_capacity: 65, // 65 % 4 == 1 stranded slot
            ..small()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("stranded"), "{err}");
        assert!(err.contains("65"), "{err}");
        // And a capacity below the stripe count is caught separately.
        let cfg = TpccConfig {
            order_capacity: 2,
            ..small()
        };
        assert!(cfg.validate().unwrap_err().contains("cover"), "{cfg:?}");
        // The defaults stay valid.
        assert!(TpccConfig::default().validate().is_ok());
    }

    #[test]
    fn layouts_match_procedure_conventions() {
        let cfg = small();
        let t = new_order(&cfg, 1, 1, 3, 9, 4);
        assert_eq!(t.reads.len(), 3);
        assert_eq!(t.writes.len(), 3);
        assert_eq!(t.reads[0], t.writes[0], "district is the RMW");
        assert_eq!(t.writes[1], RecordId::new(tables::ORDER, 9));
        assert_eq!(t.reads[0].table, TableId(tables::DISTRICT));
        assert_eq!(t.reads[1].table, TableId(tables::CUSTOMER));
        // Index maintenance: the customer's posting list is the third RMW
        // pair, keyed by the global customer row (w=1, d=1, c=3 → 27).
        let g = 27;
        assert_eq!(t.reads[2], RecordId::new(tables::CUSTOMER_ORDERS, g));
        assert_eq!(t.reads[2], t.writes[2], "posting list is an RMW");

        let t = payment(&cfg, 0, 1, 2, 50);
        assert_eq!(t.reads, t.writes);
        assert_eq!(t.reads.len(), 3);

        let t = order_status(&cfg, 0, 0, 0, 5);
        assert!(t.writes.is_empty());
        assert_eq!(t.reads[1], RecordId::new(tables::ORDER, 5));

        // Delivery of 3 orders belonging to customers 27, 5, 27: the order
        // slots wrap the stripe-1 ring, and the posting lists are declared
        // deduplicated and sorted after them.
        let t = delivery(&cfg, 1, 15, 3, &[27, 5, 27]);
        assert_eq!(t.reads, t.writes);
        assert_eq!(t.reads.len(), 1 + 3 + 2);
        assert_eq!(t.reads[0], RecordId::new(tables::DELIVERY, 1));
        assert_eq!(t.reads[1], RecordId::new(tables::ORDER, 16 + 15));
        assert_eq!(t.reads[2], RecordId::new(tables::ORDER, 16), "ring wrap");
        assert_eq!(t.reads[3], RecordId::new(tables::ORDER, 17));
        assert_eq!(t.reads[4], RecordId::new(tables::CUSTOMER_ORDERS, 5));
        assert_eq!(t.reads[5], RecordId::new(tables::CUSTOMER_ORDERS, 27));

        // CustomerStatus: customer + posting list reads, one index scan
        // over the order table, no writes.
        let t = customer_status(&cfg, 1, 1, 3);
        assert!(t.writes.is_empty());
        assert_eq!(t.reads.len(), 2);
        assert_eq!(t.reads[0], RecordId::new(tables::CUSTOMER, g));
        assert_eq!(t.reads[1], RecordId::new(tables::CUSTOMER_ORDERS, g));
        assert_eq!(t.index_scans.len(), 1);
        assert_eq!(t.index_scans[0].list, 1);
        assert_eq!(t.index_scans[0].table, TableId(tables::ORDER));
    }

    #[test]
    fn stripes_are_disjoint_and_ring_never_overflows() {
        let cfg = small(); // 16 orders per stripe
        for stripe in 0..4 {
            let mut g = TpccGen::new(cfg.clone(), stripe, stripe);
            let lo = stripe * 16;
            for _ in 0..500 {
                let t = g.next_txn();
                for rid in t.reads.iter().chain(t.writes.iter()) {
                    if rid.table == TableId(tables::ORDER) {
                        assert!(
                            (lo..lo + 16).contains(&rid.row),
                            "stripe {stripe} leaked to order row {}",
                            rid.row
                        );
                    }
                }
                assert!(g.orders_live() <= 16, "ring invariant violated");
            }
            assert_eq!(g.orders_live(), g.orders_created() - g.orders_delivered());
            assert!(g.orders_delivered() > 0, "long streams must deliver");
        }
    }

    #[test]
    fn mix_covers_all_six_procedures() {
        let mut g = TpccGen::new(small(), 42, 0);
        let mut counts = [0usize; 6];
        for _ in 0..10_000 {
            match g.next_txn().proc {
                Procedure::TpcC(TpcCProc::NewOrder { .. }) => counts[0] += 1,
                Procedure::TpcC(TpcCProc::Payment { .. }) => counts[1] += 1,
                Procedure::TpcC(TpcCProc::Delivery) => counts[2] += 1,
                Procedure::TpcC(TpcCProc::OrderStatus) => counts[3] += 1,
                Procedure::TpcC(TpcCProc::OrderHistory) => counts[4] += 1,
                Procedure::TpcC(TpcCProc::CustomerStatus) => counts[5] += 1,
                _ => panic!("non-TPC-C txn generated"),
            }
        }
        assert!((3_200..4_600).contains(&counts[0]), "{counts:?}");
        assert!((3_000..4_300).contains(&counts[1]), "{counts:?}");
        assert!((300..1_800).contains(&counts[2]), "{counts:?}");
        assert!((350..1_000).contains(&counts[3]), "{counts:?}");
        assert!((200..800).contains(&counts[4]), "{counts:?}");
        assert!((350..1_000).contains(&counts[5]), "{counts:?}");
        // Deliveries consume in delivery_batch-sized bites, so the stream
        // stays net insert-positive but recycles constantly.
        assert!(g.orders_delivered() > 500, "mix must exercise deletes");
    }

    #[test]
    fn generator_bounds_posting_lists_and_keeps_partitions_disjoint() {
        use std::collections::HashMap;
        let cfg = small(); // 8 partition customers per stripe, cap 8 each
        for stripe in 0..4 {
            let mut g = TpccGen::new(cfg.clone(), 100 + stripe, stripe);
            // Exact replay of the stream: order row → owning customer.
            let mut owner: HashMap<u64, u64> = HashMap::new();
            let mut live: HashMap<u64, u64> = HashMap::new();
            for _ in 0..2_000 {
                let t = g.next_txn();
                match t.proc {
                    Procedure::TpcC(TpcCProc::NewOrder { .. }) => {
                        // The maintained posting list belongs to this
                        // stripe's customer partition.
                        let list = t.writes[2];
                        assert_eq!(list.table, TableId(tables::CUSTOMER_ORDERS));
                        assert_eq!(
                            list.row % cfg.order_stripes,
                            stripe,
                            "NewOrder customer escaped the stripe partition"
                        );
                        owner.insert(t.writes[1].row, list.row);
                        let n = live.entry(list.row).or_insert(0);
                        *n += 1;
                        assert!(
                            *n <= cfg.orders_per_customer,
                            "customer {} exceeded its posting-list capacity",
                            list.row
                        );
                    }
                    Procedure::TpcC(TpcCProc::Delivery) => {
                        // The declared lists are exactly the consumed
                        // orders' customers, deduplicated.
                        let mut want: Vec<u64> = t
                            .reads
                            .iter()
                            .filter(|r| r.table == TableId(tables::ORDER))
                            .map(|r| {
                                let cust = owner.remove(&r.row).expect("undelivered order");
                                *live.get_mut(&cust).unwrap() -= 1;
                                cust
                            })
                            .collect();
                        want.sort_unstable();
                        want.dedup();
                        let got: Vec<u64> = t
                            .reads
                            .iter()
                            .filter(|r| r.table == TableId(tables::CUSTOMER_ORDERS))
                            .map(|r| r.row)
                            .collect();
                        assert_eq!(got, want, "declared lists ≠ consumed customers");
                    }
                    _ => {}
                }
            }
            assert!(
                g.orders_delivered() > 0,
                "stream must recycle under the per-customer cap"
            );
        }
    }

    #[test]
    fn order_history_layout_and_window_stays_in_stripe() {
        use bohm_common::TableId;
        let cfg = small();
        let t = order_history(&cfg, 1, 1, 3, 20, 26);
        assert_eq!(t.reads.len(), 1);
        assert_eq!(t.reads[0].table, TableId(tables::CUSTOMER));
        assert!(t.writes.is_empty());
        assert_eq!(t.scans.len(), 1);
        assert_eq!(t.scans[0].table, TableId(tables::ORDER));
        assert_eq!((t.scans[0].lo, t.scans[0].hi), (20, 26));
        // Generated history scans stay inside the generator's stripe.
        for stripe in 0..4 {
            let mut g = TpccGen::new(cfg.clone(), stripe, stripe);
            let lo = stripe * 16;
            for _ in 0..500 {
                let t = g.next_txn();
                for s in &t.scans {
                    assert!(s.lo >= lo && s.hi <= lo + 16, "scan {s:?} leaked");
                    assert!(!s.is_empty());
                }
            }
        }
    }

    /// FNV-1a over `format!("{txn:?}")` of a generator's first 20,000
    /// transactions. The expected values pin the default-config streams
    /// (what `perfbench`'s `tpcc_mix` and the equivalence suites run) byte
    /// for byte across refactors of the generator.
    #[test]
    fn default_streams_are_pinned() {
        let digest = |mut g: TpccGen| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..20_000 {
                for b in format!("{:?}", g.next_txn()).bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        };
        let gen = |seed, stripe| TpccGen::new(TpccConfig::default(), seed, stripe);
        let got = [digest(gen(3, 0)), digest(gen(42, 7))];
        let want = [0xe78a_01b0_73ee_ebbe, 0xc599_e30c_fcb1_925f];
        assert_eq!(got, want);
    }

    #[test]
    fn generator_is_deterministic() {
        let mk = || {
            let mut g = TpccGen::new(small(), 7, 1);
            (0..100)
                .map(|_| {
                    let t = g.next_txn();
                    (t.reads.clone(), t.writes.clone())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
