//! Differential testing of the cache hierarchy against a flat reference
//! memory: for any interleaving of reads, writes, flushes, retags and
//! discards across cores, coherent reads must return exactly what the
//! reference model predicts, and crash+drop must expose exactly the
//! flushed state.

use proptest::prelude::*;
use ssp_simulator::addr::PhysAddr;
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::machine::Machine;
use ssp_simulator::phys::NVRAM_PPN_BASE;
use ssp_simulator::stats::WriteClass;
use std::collections::HashMap;

const PAGES: u64 = 4;
const SLOTS_PER_PAGE: u64 = 64;

fn addr_of(page: u64, line: u64) -> PhysAddr {
    PhysAddr::new((NVRAM_PPN_BASE + page) * 4096 + line * 64)
}

#[derive(Debug, Clone)]
enum Op {
    Write {
        core: u8,
        page: u64,
        line: u64,
        byte: u8,
    },
    Read {
        core: u8,
        page: u64,
        line: u64,
    },
    Flush {
        core: u8,
        page: u64,
        line: u64,
    },
    Discard {
        page: u64,
        line: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0..PAGES, 0..SLOTS_PER_PAGE, any::<u8>()).prop_map(|(core, page, line, byte)| {
            Op::Write {
                core,
                page,
                line,
                byte,
            }
        }),
        (0u8..4, 0..PAGES, 0..SLOTS_PER_PAGE).prop_map(|(core, page, line)| Op::Read {
            core,
            page,
            line
        }),
        (0u8..4, 0..PAGES, 0..SLOTS_PER_PAGE).prop_map(|(core, page, line)| Op::Flush {
            core,
            page,
            line
        }),
        (0..PAGES, 0..SLOTS_PER_PAGE).prop_map(|(page, line)| Op::Discard { page, line }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coherent view: any core's read sees the most recent write to a
    /// line, regardless of which core wrote it and of flushes in between.
    #[test]
    fn reads_always_see_latest_write(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut machine = Machine::new(MachineConfig::default());
        // Reference: the latest written byte per line, plus the latest
        // *flushed or discard-exposed* byte per line.
        let mut latest: HashMap<(u64, u64), u8> = HashMap::new();
        let mut durable: HashMap<(u64, u64), u8> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Write { core, page, line, byte } => {
                    machine.write(CoreId::new(core as usize), addr_of(page, line), &[byte], false);
                    latest.insert((page, line), byte);
                    // A capacity eviction may already have made it durable;
                    // conservatively track only explicit flushes in
                    // `durable` and allow reads-after-crash to be either.
                }
                Op::Read { core, page, line } => {
                    let mut buf = [0u8; 1];
                    machine.read(CoreId::new(core as usize), addr_of(page, line), &mut buf);
                    let expect = latest.get(&(page, line)).copied().unwrap_or(0);
                    prop_assert_eq!(buf[0], expect, "page {} line {}", page, line);
                }
                Op::Flush { core, page, line } => {
                    machine.flush(Some(CoreId::new(core as usize)), addr_of(page, line), WriteClass::Data);
                    if let Some(&b) = latest.get(&(page, line)) {
                        durable.insert((page, line), b);
                    }
                }
                Op::Discard { page, line } => {
                    // Only discard lines whose latest value is already
                    // durable, otherwise data is legitimately lost (that is
                    // the engines' job to avoid; the hierarchy allows it).
                    let l = latest.get(&(page, line));
                    let d = durable.get(&(page, line));
                    if l == d || l.is_none() {
                        machine.discard_line(addr_of(page, line));
                    }
                }
            }
        }
        // Final coherent sweep.
        for ((page, line), byte) in &latest {
            let mut buf = [0u8; 1];
            machine.read(CoreId::new(0), addr_of(*page, *line), &mut buf);
            prop_assert_eq!(buf[0], *byte);
        }
    }

    /// Crash exposure: after dropping volatile state, every flushed line
    /// shows its flushed value; never-flushed lines show either zero (lost)
    /// or their value (capacity-evicted earlier) — but flushed lines must
    /// never regress.
    #[test]
    fn crash_preserves_all_flushed_lines(
        writes in proptest::collection::vec(
            (0u8..4, 0..PAGES, 0..SLOTS_PER_PAGE, any::<u8>()), 1..100),
    ) {
        let mut machine = Machine::new(MachineConfig::default());
        let mut flushed: HashMap<(u64, u64), u8> = HashMap::new();
        for (i, &(core, page, line, byte)) in writes.iter().enumerate() {
            let c = CoreId::new(core as usize);
            machine.write(c, addr_of(page, line), &[byte], false);
            if i % 2 == 0 {
                machine.flush(Some(c), addr_of(page, line), WriteClass::Data);
                flushed.insert((page, line), byte);
            }
        }
        machine.crash();
        for ((page, line), byte) in &flushed {
            let mut buf = [0u8; 1];
            machine.read(CoreId::new(0), addr_of(*page, *line), &mut buf);
            prop_assert_eq!(buf[0], *byte, "flushed line lost");
        }
    }

    /// Retag moves data without loss: a chain of retags across physical
    /// identities keeps the payload readable at the final identity only.
    #[test]
    fn retag_chain_preserves_payload(hops in 1usize..6, seed in any::<u8>()) {
        let mut machine = Machine::new(MachineConfig::default());
        let c = CoreId::new(0);
        let mut cur = addr_of(0, 0);
        machine.write(c, cur, &[seed], true);
        for hop in 0..hops {
            let next = addr_of((hop as u64 + 1) % PAGES, (hop as u64 * 7) % SLOTS_PER_PAGE);
            if next.line_base() == cur.line_base() {
                continue;
            }
            // The line must be in L1 for a retag; the write above (or the
            // re-read below) guarantees it.
            let mut buf = [0u8; 1];
            machine.read(c, cur, &mut buf);
            prop_assert_eq!(buf[0], seed);
            prop_assert!(machine.retag(c, cur, next));
            cur = next;
        }
        let mut buf = [0u8; 1];
        machine.read(c, cur, &mut buf);
        prop_assert_eq!(buf[0], seed);
    }

    /// install_line_cached leaves the line readable both before and after
    /// a crash (it writes NVRAM and warms L3).
    #[test]
    fn install_cached_is_durable_and_warm(page in 0..PAGES, line in 0..SLOTS_PER_PAGE, byte in any::<u8>()) {
        let mut machine = Machine::new(MachineConfig::default());
        let mut data = [0u8; 64];
        data[0] = byte;
        machine.install_line_cached(addr_of(page, line), data, WriteClass::Consolidation);
        let mut buf = [0u8; 1];
        machine.read(CoreId::new(1), addr_of(page, line), &mut buf);
        prop_assert_eq!(buf[0], byte);
        machine.crash();
        machine.read(CoreId::new(1), addr_of(page, line), &mut buf);
        prop_assert_eq!(buf[0], byte);
    }
}
