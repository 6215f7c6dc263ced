//! Chrome trace-event exporter: turns per-shard [`ObsRing`] contents into
//! a JSON document loadable in `chrome://tracing` (or Perfetto's legacy
//! importer).
//!
//! The mapping is one trace *thread* per shard (worker index = `tid`),
//! with timestamps in **virtual cycles** (the tools display them as
//! microseconds; 1 displayed µs = 1 simulated cycle):
//!
//! * `TxnBegin → Commit`/`Abort` pairs become complete (`"ph": "X"`)
//!   duration events, so each shard's timeline shows its transactions
//!   end-to-end;
//! * everything else (epoch merges, bank grants/deferrals, shared-LLC
//!   shortfalls, coherence invalidations, faults, recovery replays)
//!   becomes thread-scoped instant (`"ph": "i"`) events;
//! * metadata (`"ph": "M"`) events name the process and the shard
//!   threads.
//!
//! [`write_shared_sweep_trace`] records the Figure 5b *shared*
//! configuration — four SSP/SPS clients contending for one memory-channel
//! group — with tracing on, and exports the shard timelines; `bench_all
//! --trace out.json` calls it after the targets run.

use std::path::{Path, PathBuf};

use ssp_simulator::config::{InterconnectConfig, MachineConfig};
use ssp_simulator::obs::{ObsConfig, ObsKind, ObsRing};
use ssp_txn::engine::TxnEngine;
use ssp_workloads::runner::{run_parallel, ExecMode, RunConfig};

use crate::json::Json;
use crate::{make_workload, AnyEngine, EngineKind, Scale, SspConfig, WorkloadKind};

/// Display name of an event kind in the exported trace.
pub fn kind_name(kind: ObsKind) -> &'static str {
    match kind {
        ObsKind::TxnBegin => "txn_begin",
        ObsKind::ReadSpan => "read",
        ObsKind::WriteSpan => "write",
        ObsKind::Validate => "validate",
        ObsKind::Commit => "txn",
        ObsKind::Abort => "abort",
        ObsKind::Fault => "fault",
        ObsKind::RecoveryReplay => "recovery_replay",
        ObsKind::EpochMerge => "epoch_merge",
        ObsKind::BankGrant => "bank_grant",
        ObsKind::BankDefer => "bank_defer",
        ObsKind::LlcShortfall => "llc_shortfall",
        ObsKind::CohInvalidate => "coh_invalidate",
        ObsKind::OccValidate => "occ_validate",
        ObsKind::OccAbort => "occ_abort",
        ObsKind::OccRetry => "occ_retry",
        ObsKind::SvcEnqueue => "svc_enqueue",
        ObsKind::SvcShed => "svc_shed",
        ObsKind::SvcExpire => "svc_expire",
        ObsKind::SvcFlush => "svc_flush",
    }
}

fn event(name: &str, ph: &str, ts: u64, tid: u32) -> Json {
    let mut e = Json::obj();
    e.set("name", Json::Str(name.to_string()));
    e.set("ph", Json::Str(ph.to_string()));
    e.set("ts", Json::U64(ts));
    e.set("pid", Json::U64(0));
    e.set("tid", Json::U64(tid as u64));
    e
}

/// Builds the trace-event document (`{"traceEvents": [...]}`) from one
/// ring per shard. Rings are read oldest-first; an open transaction with
/// no commit/abort before the ring ends (or one whose begin was already
/// overwritten) is dropped rather than emitted half-open.
pub fn chrome_trace(rings: &[&ObsRing]) -> Json {
    let mut events = Vec::new();
    let mut meta = event("process_name", "M", 0, 0);
    let mut args = Json::obj();
    args.set(
        "name",
        Json::Str("ssp simulator (ts = virtual cycles)".to_string()),
    );
    meta.set("args", args);
    events.push(meta);

    for ring in rings {
        let tid = ring.worker();
        let mut thread_meta = event("thread_name", "M", 0, tid);
        let mut targs = Json::obj();
        targs.set("name", Json::Str(format!("shard {tid}")));
        thread_meta.set("args", targs);
        events.push(thread_meta);

        // One simulated core per shard: at most one transaction is open
        // at any instant, so a single (begin cycle, tid) slot suffices.
        let mut open: Option<(u64, u64)> = None;
        for ev in ring.iter() {
            match ev.kind {
                ObsKind::TxnBegin => open = Some((ev.at, ev.arg)),
                ObsKind::Commit | ObsKind::Abort => {
                    if let Some((begin_at, txn_id)) = open.take() {
                        let mut x = event(kind_name(ev.kind), "X", begin_at, tid);
                        x.set("dur", Json::U64(ev.at.saturating_sub(begin_at)));
                        let mut xargs = Json::obj();
                        xargs.set("txn", Json::U64(txn_id));
                        x.set("args", xargs);
                        events.push(x);
                    }
                }
                // Loads/stores/validates are sub-transaction detail; the
                // paired X event already spans them. Skipping keeps the
                // trace readable at epoch zoom levels.
                ObsKind::ReadSpan | ObsKind::WriteSpan | ObsKind::Validate => {}
                _ => {
                    let mut i = event(kind_name(ev.kind), "i", ev.at, tid);
                    i.set("s", Json::Str("t".to_string()));
                    let mut iargs = Json::obj();
                    iargs.set("arg", Json::U64(ev.arg));
                    i.set("args", iargs);
                    events.push(i);
                }
            }
        }
    }

    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc
}

/// Clients in the traced sweep (the Figure 5b shared configuration's
/// most-contended half).
pub const TRACE_CLIENTS: usize = 4;

/// Runs the Figure 5b *shared-hierarchy* configuration — [`TRACE_CLIENTS`]
/// SSP/SPS clients contending for one memory-channel group — with tracing
/// enabled, and writes the shard timelines to `path` as Chrome trace JSON.
///
/// The run is deterministic (fixed seed, virtual-time stamps), so the
/// exported trace is bit-identical across hosts and repeats.
pub fn write_shared_sweep_trace(path: &Path) -> std::io::Result<PathBuf> {
    let mut client_cfg = MachineConfig::default().shard_slice(8);
    client_cfg.interconnect = InterconnectConfig::shared_hierarchy();
    client_cfg.obs = ObsConfig {
        enabled: true,
        // Large enough to hold the whole sweep: ~150 txns/client at a
        // dozen-odd events each is well under 64 Ki.
        ring_capacity: 1 << 16,
        ..ObsConfig::tracing()
    };
    let cfgs: Vec<MachineConfig> = (0..TRACE_CLIENTS)
        .map(|w| {
            let mut c = client_cfg.clone();
            c.obs.worker = w as u32;
            c
        })
        .collect();
    let ssp_cfg = SspConfig::default();
    let scale = Scale {
        sps_elems: 8_192,
        ..Scale::SMOKE
    };
    let run_cfg = RunConfig {
        txns: 150 * TRACE_CLIENTS as u64,
        warmup: 50 * TRACE_CLIENTS as u64,
        threads: TRACE_CLIENTS,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    };
    let proto = make_workload(WorkloadKind::Sps, scale);
    let run = run_parallel(
        |w| AnyEngine::build(EngineKind::Ssp, &cfgs[w], &ssp_cfg),
        |_w| proto.clone(),
        &run_cfg,
    );
    let rings: Vec<&ObsRing> = run
        .shards
        .iter()
        .map(|s| s.engine.machine().obs())
        .collect();
    let doc = chrome_trace(&rings);
    std::fs::write(path, doc.render())?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(kinds: &[(u64, ObsKind, u64)]) -> ObsRing {
        let cfg = ObsConfig {
            worker: 3,
            ..ObsConfig::tracing()
        };
        let mut r = ObsRing::new(&cfg);
        for &(at, kind, arg) in kinds {
            r.record(at, kind, arg);
        }
        r
    }

    #[test]
    fn pairs_begin_commit_into_complete_events() {
        let ring = ring_with(&[
            (100, ObsKind::TxnBegin, 7),
            (110, ObsKind::WriteSpan, 0xdead),
            (150, ObsKind::Commit, 7),
            (200, ObsKind::TxnBegin, 8),
            (260, ObsKind::Abort, 8),
            (300, ObsKind::EpochMerge, 42),
            // An open transaction with no terminator must not be emitted.
            (400, ObsKind::TxnBegin, 9),
        ]);
        let doc = chrome_trace(&[&ring]);
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let of_kind = |ph: &str, name: &str| -> Vec<&Json> {
            events
                .iter()
                .filter(|e| {
                    e.get("ph") == Some(&Json::Str(ph.to_string()))
                        && e.get("name") == Some(&Json::Str(name.to_string()))
                })
                .collect()
        };
        let txns = of_kind("X", "txn");
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].get("ts"), Some(&Json::U64(100)));
        assert_eq!(txns[0].get("dur"), Some(&Json::U64(50)));
        assert_eq!(txns[0].get("tid"), Some(&Json::U64(3)));
        assert_eq!(of_kind("X", "abort").len(), 1);
        assert_eq!(of_kind("i", "epoch_merge").len(), 1);
        // Two metadata events: process name + one thread name.
        assert_eq!(
            events
                .iter()
                .filter(|e| e.get("ph") == Some(&Json::Str("M".to_string())))
                .count(),
            2
        );
        // The document round-trips through the JSON parser.
        let parsed = Json::parse(&doc.render()).expect("valid JSON");
        assert_eq!(parsed, doc);
    }
}
