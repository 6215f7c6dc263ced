//! A Vacation-like OLTP emulation (the paper's second real workload).
//!
//! Models the STAMP Vacation reservation system: three resource tables
//! (cars, flights, rooms) plus a customer table, all persistent arrays of
//! 64-byte tuples. A transaction emulates `make-reservation`: it reads a
//! handful of candidate resources (the volatile "query" phase that
//! dominates Vacation's runtime), then updates the chosen resource's
//! allocation, the customer's balance and reservation count. Write sets
//! match Table 3's Vacation shape (≈4 lines over ≈3 pages).

use rand::rngs::SmallRng;
use rand::Rng;
use ssp_simulator::addr::{VirtAddr, PAGE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_txn::engine::TxnEngine;
use ssp_txn::view;

use crate::runner::Workload;

const TUPLE_SIZE: u64 = 64;

// Resource tuple fields.
const OFF_TOTAL: u64 = 0;
const OFF_USED: u64 = 8;
const OFF_PRICE: u64 = 16;

// Customer tuple fields.
const OFF_BALANCE: u64 = 0;
const OFF_RESERVATIONS: u64 = 8;

/// One persistent table of fixed-size tuples.
#[derive(Debug, Clone, Copy)]
struct Table {
    base: VirtAddr,
    rows: u64,
}

impl Table {
    fn create(engine: &mut dyn TxnEngine, core: CoreId, rows: u64) -> Self {
        let pages = (rows * TUPLE_SIZE).div_ceil(PAGE_SIZE as u64);
        let first = engine.map_new_page(core);
        for _ in 1..pages {
            engine.map_new_page(core);
        }
        Self {
            base: first.base(),
            rows,
        }
    }

    fn row(&self, i: u64) -> VirtAddr {
        debug_assert!(i < self.rows);
        self.base.add(i * TUPLE_SIZE)
    }
}

/// The Vacation reservation emulator.
#[derive(Debug, Clone)]
pub struct VacationWorkload {
    rows: u64,
    queries_per_txn: usize,
    cars: Option<Table>,
    flights: Option<Table>,
    rooms: Option<Table>,
    customers: Option<Table>,
    /// Reservations made (sanity accounting).
    reservations: u64,
}

impl VacationWorkload {
    /// A workload with `rows` tuples per table (the paper uses 16 M on the
    /// real system; simulation runs scale this down) querying
    /// `queries_per_txn` candidates per transaction.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn new(rows: u64, queries_per_txn: usize) -> Self {
        assert!(rows > 0, "tables must be nonempty");
        Self {
            rows,
            queries_per_txn: queries_per_txn.max(1),
            cars: None,
            flights: None,
            rooms: None,
            customers: None,
            reservations: 0,
        }
    }

    /// Total reservations performed by committed transactions.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Sums reservation counters across customers (verification helper).
    pub fn total_customer_reservations(&self, engine: &mut dyn TxnEngine, core: CoreId) -> u64 {
        let t = self.customers.expect("setup ran");
        (0..t.rows)
            .map(|i| view::read_u64(engine, core, t.row(i).add(OFF_RESERVATIONS)))
            .sum()
    }
}

impl Workload for VacationWorkload {
    fn name(&self) -> &'static str {
        "Vacation"
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.cars = None;
        self.flights = None;
        self.rooms = None;
        self.customers = None;
        self.reservations = 0;
    }

    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        engine.begin(core);
        let cars = Table::create(engine, core, self.rows);
        let flights = Table::create(engine, core, self.rows);
        let rooms = Table::create(engine, core, self.rows);
        let customers = Table::create(engine, core, self.rows);
        engine.commit(core);

        // Initialise tuples in batches.
        for table in [cars, flights, rooms] {
            let mut i = 0;
            while i < self.rows {
                engine.begin(core);
                for _ in 0..32 {
                    if i >= self.rows {
                        break;
                    }
                    view::write_u64(engine, core, table.row(i).add(OFF_TOTAL), 100);
                    view::write_u64(engine, core, table.row(i).add(OFF_USED), 0);
                    view::write_u64(engine, core, table.row(i).add(OFF_PRICE), 50 + i % 100);
                    i += 1;
                }
                engine.commit(core);
            }
        }
        let mut i = 0;
        while i < self.rows {
            engine.begin(core);
            for _ in 0..32 {
                if i >= self.rows {
                    break;
                }
                view::write_u64(engine, core, customers.row(i).add(OFF_BALANCE), 1_000_000);
                view::write_u64(engine, core, customers.row(i).add(OFF_RESERVATIONS), 0);
                i += 1;
            }
            engine.commit(core);
        }
        self.cars = Some(cars);
        self.flights = Some(flights);
        self.rooms = Some(rooms);
        self.customers = Some(customers);
    }

    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        let table = match rng.gen_range(0..3) {
            0 => self.cars.expect("setup ran"),
            1 => self.flights.expect("setup ran"),
            _ => self.rooms.expect("setup ran"),
        };
        let customers = self.customers.expect("setup ran");

        // Query phase: scan a handful of candidates, pick the cheapest
        // with free capacity (reads only — the volatile bulk of Vacation).
        let mut best: Option<(u64, u64)> = None;
        for _ in 0..self.queries_per_txn {
            let i = rng.gen_range(0..self.rows);
            let total = view::read_u64(engine, core, table.row(i).add(OFF_TOTAL));
            let used = view::read_u64(engine, core, table.row(i).add(OFF_USED));
            let price = view::read_u64(engine, core, table.row(i).add(OFF_PRICE));
            if used < total && best.map_or(true, |(_, bp)| price < bp) {
                best = Some((i, price));
            }
        }
        let Some((resource, price)) = best else {
            return; // all candidates full: read-only transaction
        };

        // Update phase: allocate the resource and charge the customer.
        let cust = rng.gen_range(0..self.rows);
        let used = view::read_u64(engine, core, table.row(resource).add(OFF_USED));
        view::write_u64(engine, core, table.row(resource).add(OFF_USED), used + 1);
        let bal = view::read_u64(engine, core, customers.row(cust).add(OFF_BALANCE));
        view::write_u64(
            engine,
            core,
            customers.row(cust).add(OFF_BALANCE),
            bal.saturating_sub(price),
        );
        let res = view::read_u64(engine, core, customers.row(cust).add(OFF_RESERVATIONS));
        view::write_u64(
            engine,
            core,
            customers.row(cust).add(OFF_RESERVATIONS),
            res + 1,
        );
        self.reservations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;

    const C0: CoreId = CoreId::new(0);

    #[test]
    fn reservations_update_both_tables() {
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w = VacationWorkload::new(64, 4);
        w.setup(&mut e, C0);
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..50 {
            e.begin(C0);
            w.run_txn(&mut e, C0, &mut rng);
            e.commit(C0);
        }
        assert!(w.reservations() > 0);
        // Customer reservation counters account for every allocation.
        let cust_total = w.total_customer_reservations(&mut e, C0);
        assert_eq!(cust_total, w.reservations());
    }

    #[test]
    fn crash_preserves_accounting_invariant() {
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w = VacationWorkload::new(32, 4);
        w.setup(&mut e, C0);
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..20 {
            e.begin(C0);
            w.run_txn(&mut e, C0, &mut rng);
            e.commit(C0);
        }
        // Start a reservation but crash mid-way.
        e.begin(C0);
        w.run_txn(&mut e, C0, &mut rng);
        e.crash_and_recover();
        // Every committed reservation debits one customer counter; the
        // uncommitted one must have vanished entirely. The workload's
        // volatile counter may run ahead by the crashed transaction.
        let cust_total = w.total_customer_reservations(&mut e, C0);
        assert!(
            cust_total == w.reservations() || cust_total + 1 == w.reservations(),
            "counter {cust_total} vs {}",
            w.reservations()
        );
    }

    #[test]
    fn write_set_is_small() {
        // Table 3: Vacation writes ~4 lines over ~3 pages per transaction.
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w = VacationWorkload::new(256, 4);
        w.setup(&mut e, C0);
        let base = e.txn_stats().clone();
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..100 {
            e.begin(C0);
            w.run_txn(&mut e, C0, &mut rng);
            e.commit(C0);
        }
        let s = e.txn_stats();
        let txns = s.committed - base.committed;
        let lines = (s.lines_written_sum - base.lines_written_sum) as f64 / txns as f64;
        assert!(lines <= 5.0, "avg lines {lines}");
    }
}
