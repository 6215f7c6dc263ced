//! Layer kernels: each drives one layer directly — a bare `Machine`, an
//! `Interconnect`, an `Oracle`, `validate_epoch` — with a seeded input
//! stream, and times it from outside. They run in the traced pass only and
//! feed the per-layer metrics a whole-workload run cannot separate.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssp_bench::{AnyEngine, EngineKind, Scale, SspConfig};
use ssp_simulator::addr::{PhysAddr, VirtAddr, LINE_SIZE, PAGE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::{InterconnectConfig, MachineConfig};
use ssp_simulator::interconnect::{Interconnect, LlcEvent, MemEvent};
use ssp_simulator::machine::Machine;
use ssp_simulator::phys::NVRAM_PPN_BASE;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::timing::MemKind;
use ssp_txn::engine::TxnEngine;
use ssp_txn::occ::{validate_epoch, CommitIntent, SpecTxn, VersionedHeap};
use ssp_workloads::dist::KeyDist;
use ssp_workloads::runner::Workload;
use ssp_workloads::storm::OracleEngine;
use ssp_workloads::Sps;

use crate::metrics::{median, Values};
use crate::trace::{Call, Collector};
use crate::workloads::{CLIENTS, STORM_TXNS};

const CORE: CoreId = CoreId::new(0);
const NVRAM_BASE: u64 = NVRAM_PPN_BASE * PAGE_SIZE as u64;
const LINE: u64 = LINE_SIZE as u64;

fn machine() -> Machine {
    Machine::new(MachineConfig::default().shard_slice(CLIENTS))
}

fn line_addr(i: u64) -> PhysAddr {
    PhysAddr::new(NVRAM_BASE + i * LINE)
}

/// Nanoseconds per iteration of `f` over `n` iterations.
fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `simulator.*` kernels over a bare `Machine` / `Interconnect`.
pub fn simulator(seed: u64, out: &mut Values) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = [0u8; 8];

    // Reads that hit in L1: a quarter of its capacity, warmed first.
    let mut m = machine();
    let hot = m.config().l1.size_bytes as u64 / LINE / 4;
    let hits: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..hot)).collect();
    for i in 0..hot {
        m.read(CORE, line_addr(i), &mut buf);
    }
    let read_hit = ns_per(2_000_000, |i| {
        m.read(CORE, line_addr(hits[i as usize % hits.len()]), &mut buf);
    });
    out.set("simulator.read_hit_ns", read_hit);

    // Reads that miss every level: random lines over 16x the L3 slice.
    let mut m = machine();
    let cold = m.config().l3.size_bytes as u64 / LINE * 16;
    let misses: Vec<u64> = (0..200_000).map(|_| rng.gen_range(0..cold)).collect();
    let read_miss = ns_per(misses.len() as u64, |i| {
        m.read(CORE, line_addr(misses[i as usize]), &mut buf);
    });
    out.set("simulator.read_miss_ns", read_miss);

    // Transactional writes to L1-resident lines (no TX eviction).
    let mut m = machine();
    for i in 0..hot {
        m.write(CORE, line_addr(i), &buf, true);
    }
    let write_tx = ns_per(2_000_000, |i| {
        m.write(CORE, line_addr(hits[i as usize % hits.len()]), &buf, true);
    });
    out.set("simulator.write_tx_ns", write_tx);

    // Flushes of dirty lines: dirty a batch untimed, flush it timed.
    let mut m = machine();
    let (batch, rounds) = (256u64, 400u64);
    let mut flush_ns = 0u128;
    for r in 0..rounds {
        for i in 0..batch {
            m.write(CORE, line_addr(r * batch + i), &buf, false);
        }
        let t0 = Instant::now();
        for i in 0..batch {
            black_box(m.flush(Some(CORE), line_addr(r * batch + i), WriteClass::Data));
        }
        flush_ns += t0.elapsed().as_nanos();
    }
    out.set(
        "simulator.flush_ns",
        flush_ns as f64 / (batch * rounds) as f64,
    );

    // Power failure of a machine with warm caches and resident frames.
    let mut crash_ms = Vec::new();
    for _ in 0..9 {
        let mut m = machine();
        // Half the lines in DRAM (low addresses), whose frames a crash
        // drops, half in NVRAM, whose frames it keeps.
        for i in 0..50_000u64 {
            let line = rng.gen_range(0..cold);
            let addr = if i % 2 == 0 {
                PhysAddr::new(line * LINE)
            } else {
                line_addr(line)
            };
            m.write(CORE, addr, &buf, false);
        }
        let t0 = Instant::now();
        m.crash();
        crash_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(m.resident_nvram_frames());
    }
    out.set("simulator.crash_ms", median(&crash_ms));

    // Epoch arbitration: two shards' seeded memory and LLC streams merged
    // through the full shared hierarchy.
    let mut cfg = MachineConfig::default().shard_slice(CLIENTS);
    cfg.interconnect = InterconnectConfig::shared_hierarchy();
    let mut ic = Interconnect::new(&cfg, CLIENTS);
    let (epochs, per_epoch) = (200u64, 500u64);
    let mut events = 0u64;
    let mut arbitrate_ns = 0u128;
    let mut now = [0u64; CLIENTS];
    for _ in 0..epochs {
        let mut mem: Vec<Vec<MemEvent>> = vec![Vec::new(); CLIENTS];
        let mut llc: Vec<Vec<LlcEvent>> = vec![Vec::new(); CLIENTS];
        for s in 0..CLIENTS {
            for _ in 0..per_epoch {
                now[s] += rng.gen_range(20..120u64);
                let kind = if rng.gen_bool(0.5) {
                    MemKind::Nvram
                } else {
                    MemKind::Dram
                };
                let write = rng.gen_bool(0.3);
                mem[s].push(MemEvent {
                    at: now[s],
                    mem: kind,
                    row: rng.gen_range(0..4096u64),
                    write,
                });
                llc[s].push(LlcEvent {
                    at: now[s],
                    line: rng.gen_range(0..(1u64 << 20)),
                    mem: kind,
                    write,
                    private_hit: rng.gen_bool(0.6),
                });
            }
        }
        events += (CLIENTS as u64) * per_epoch * 2;
        let t0 = Instant::now();
        black_box(ic.arbitrate_epoch(&mem, &llc));
        arbitrate_ns += t0.elapsed().as_nanos();
    }
    out.set(
        "simulator.arbitrate_ns_per_event",
        arbitrate_ns as f64 / events as f64,
    );
}

/// `txn.oracle_*`: the oracle of one `crash_storm` shard, rebuilt to the
/// state that shard reaches by its last transaction (SSP, SPS, the shard's
/// share of [`STORM_TXNS`]), then cloned and verified the way every power
/// cut does.
pub fn oracle(seed: u64, out: &mut Values) {
    let cfg = MachineConfig::default().shard_slice_for(CLIENTS, 0);
    let engine = AnyEngine::build(EngineKind::Ssp, &cfg, &SspConfig::default());
    let mut engine = OracleEngine::new(engine);
    let n = Scale::DEFAULT.per_shard(CLIENTS).sps_elems;
    let mut sps = Sps::new(n, KeyDist::uniform(n));
    sps.setup(&mut engine, CORE);
    engine.set_recording(true);
    let mut rng = SmallRng::seed_from_u64(seed);
    let txns = STORM_TXNS / CLIENTS as u64;
    let mut on_commit_ns = 0u128;
    for _ in 0..txns {
        engine.begin(CORE);
        sps.run_txn(&mut engine, CORE, &mut rng);
        engine.commit(CORE);
        let t0 = Instant::now();
        engine.oracle_mut().on_commit(CORE);
        on_commit_ns += t0.elapsed().as_nanos();
    }
    out.set(
        "txn.oracle_committed_bytes",
        engine.oracle().committed_len() as f64,
    );
    out.set("txn.oracle_on_commit_ns", on_commit_ns as f64 / txns as f64);

    let oracle = engine.oracle().clone();
    let mut clone_ms = Vec::new();
    let mut verify_ms = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        black_box(oracle.clone());
        clone_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let ok = oracle.verify(&mut engine, CORE).is_ok();
        verify_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(ok, "oracle kernel: engine diverged without a crash");
    }
    out.set("txn.oracle_clone_ms", median(&clone_ms));
    out.set("txn.oracle_verify_ms", median(&verify_ms));
}

/// `txn.occ_validate_ns_per_intent`: `validate_epoch` over two workers'
/// seeded swap intents on a zipf-skewed 4096-element heap.
pub fn occ_validate(seed: u64, out: &mut Values) {
    const ELEMS: u64 = 4096;
    // About what one 50k-cycle epoch of `shared_occ` deposits per worker.
    const INTENTS: u64 = 32;
    const EPOCHS: u64 = 600;
    let base = VirtAddr::new(1 << 30);
    let mut heap = VersionedHeap::new();
    for i in 0..ELEMS {
        heap.seed_store(base.add(i * 8), &i.to_le_bytes());
    }
    let dist = KeyDist::paper_zipf(ELEMS);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut validate_ns = 0u128;
    for _ in 0..EPOCHS {
        let snapshot = heap.seq();
        let per_worker: Vec<Vec<CommitIntent>> = (0..CLIENTS as u32)
            .map(|w| {
                (0..INTENTS)
                    .map(|seq| {
                        let mut txn = SpecTxn::new();
                        for _ in 0..2 {
                            let addr = base.add(dist.sample(&mut rng) * 8);
                            txn.record_read(addr, 8);
                            txn.buffer_store(addr, &seq.to_le_bytes());
                        }
                        txn.take_intent(seq * 100 + u64::from(w), w, seq, 0, snapshot, 100)
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        black_box(validate_epoch(&mut heap, &per_worker));
        validate_ns += t0.elapsed().as_nanos();
    }
    out.set(
        "txn.occ_validate_ns_per_intent",
        validate_ns as f64 / (EPOCHS * INTENTS * CLIENTS as u64) as f64,
    );
}

/// `trace_overhead_ns_per_span`: what one decorated call costs when the
/// call itself does nothing — two clock reads, the lock, the bookkeeping.
/// A parent span's self time carries about this much per nested call.
pub fn span_overhead(out: &mut Values) {
    let collector = Collector::new();
    let sink = collector.cell("kernel", "span_overhead", "core", 1).sink(0);
    let per_span = ns_per(1_000_000, |i| {
        sink.time(Call::Load, || black_box(i));
    });
    out.set("trace_overhead_ns_per_span", per_span);
}
