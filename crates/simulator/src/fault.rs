//! Deterministic fault injection: scheduled power cuts at exact virtual
//! times or named engine sites.
//!
//! A crash point is *armed* on a [`Machine`](crate::machine::Machine) and
//! *trips* when the trigger fires: either the core-cycle clock reaching a
//! target ([`CrashPoint::AtCycle`]) or an engine passing a named hook the
//! n-th time ([`CrashPoint::AtSite`]). Tripping models a power cut at the
//! memory controller: it sets the memory port's power-cut latch (every
//! subsequent write is silently dropped — NVRAM holds exactly the bytes it
//! held at the cut instant) while the engine *keeps executing*
//! obliviously, exactly like a real machine whose capacitors die
//! mid-instruction. Cycle and event accounting continue after the trip,
//! so a tripped run's counters stay bit-identical across execution modes;
//! the driver polls
//! [`Machine::power_lost`](crate::machine::Machine::power_lost) at
//! transaction granularity and then performs the actual
//! [`crash`](crate::machine::Machine::crash)/recover sequence.
//!
//! Because the trigger reads only the machine's own deterministic clock
//! and the engine's own deterministic hook sequence, a fixed seed plus a
//! crash schedule reproduces the identical cut point in threaded,
//! sequential, and repeated runs.

use crate::phys::MemPort;

/// Named engine hook sites a crash can be scheduled at.
///
/// Each site is a semantic point in an engine's commit/recovery protocol;
/// all four engines place [`CommitData`](FaultSite::CommitData) *before*
/// their durable commit mark and [`CommitMark`](FaultSite::CommitMark)
/// *after* it, so an identical site schedule produces the identical
/// keep/drop decision on every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Commit path, after the transaction's data has been flushed but
    /// before the commit record is durable: the transaction must roll
    /// back on recovery.
    CommitData,
    /// Commit path, just after the commit mark became durable: the
    /// transaction must survive recovery.
    CommitMark,
    /// Inside SSP's consolidation drain, before lines are copied home.
    Consolidation,
    /// Inside `recover()`, after the persistent state has been read but
    /// before recovery writes anything back — a crash *during recovery*.
    Recovery,
    /// Immediately after an interconnect epoch charge lands on the shard.
    EpochBoundary,
}

/// A scheduled crash trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Trip the first time the machine's maximum per-core cycle count
    /// reaches (or passes) this virtual time.
    AtCycle(u64),
    /// Trip the `hits`-th time the engine passes `site` (1-based:
    /// `hits: 1` trips on the first pass).
    AtSite {
        /// The engine hook to trip at.
        site: FaultSite,
        /// Which pass of the hook trips (1-based).
        hits: u32,
    },
}

/// The machine-resident fault state: at most one armed crash point. A
/// trip sets the latch of the memory port it is checked against, which is
/// the one record of the cut.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultState {
    armed: Option<CrashPoint>,
    site_hits: u32,
}

impl FaultState {
    /// Arms `point`, replacing any previously armed point and restarting
    /// the site-hit counter. Does not clear a set latch.
    pub fn arm(&mut self, point: CrashPoint) {
        self.armed = Some(point);
        self.site_hits = 0;
    }

    /// Disarms without clearing a set latch.
    pub fn disarm(&mut self) {
        self.armed = None;
        self.site_hits = 0;
    }

    /// The currently armed crash point, if any.
    pub fn armed(&self) -> Option<CrashPoint> {
        self.armed
    }

    /// Checks an [`CrashPoint::AtCycle`] trigger against the clock.
    /// Returns `true` exactly once, at the first call with `now` at or
    /// past the target, having cut `port`'s power.
    pub fn check_cycle(&mut self, now: u64, port: &mut MemPort) -> bool {
        if port.power_lost() {
            return false;
        }
        match self.armed {
            Some(CrashPoint::AtCycle(t)) if now >= t => {
                self.trip(port);
                true
            }
            _ => false,
        }
    }

    /// Checks an [`CrashPoint::AtSite`] trigger at a hook pass. Counts
    /// the pass when the site matches the armed point and returns `true`
    /// exactly once, on the `hits`-th matching pass, having cut `port`'s
    /// power.
    pub fn check_site(&mut self, site: FaultSite, port: &mut MemPort) -> bool {
        if port.power_lost() {
            return false;
        }
        match self.armed {
            Some(CrashPoint::AtSite { site: s, hits }) if s == site => {
                self.site_hits += 1;
                if self.site_hits >= hits {
                    self.trip(port);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn trip(&mut self, port: &mut MemPort) {
        self.disarm();
        port.cut_power();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn port() -> MemPort {
        MemPort::new(&MachineConfig::default())
    }

    #[test]
    fn at_cycle_trips_once_at_or_past_target() {
        let (mut f, mut p) = (FaultState::default(), port());
        f.arm(CrashPoint::AtCycle(100));
        assert!(!f.check_cycle(99, &mut p));
        assert!(f.check_cycle(100, &mut p));
        assert!(p.power_lost());
        // Latched: no second trip, even past the target or re-armed.
        assert!(!f.check_cycle(1000, &mut p));
        f.arm(CrashPoint::AtCycle(0));
        assert!(!f.check_cycle(1000, &mut p));
    }

    #[test]
    fn at_site_counts_hits() {
        let (mut f, mut p) = (FaultState::default(), port());
        f.arm(CrashPoint::AtSite {
            site: FaultSite::CommitMark,
            hits: 3,
        });
        assert!(!f.check_site(FaultSite::CommitMark, &mut p));
        // Non-matching sites don't count.
        assert!(!f.check_site(FaultSite::CommitData, &mut p));
        assert!(!f.check_site(FaultSite::CommitMark, &mut p));
        assert!(f.check_site(FaultSite::CommitMark, &mut p));
        assert!(p.power_lost());
    }

    #[test]
    fn rearm_restarts_hit_counter() {
        let (mut f, mut p) = (FaultState::default(), port());
        f.arm(CrashPoint::AtSite {
            site: FaultSite::Recovery,
            hits: 2,
        });
        assert!(!f.check_site(FaultSite::Recovery, &mut p));
        f.arm(CrashPoint::AtSite {
            site: FaultSite::Recovery,
            hits: 2,
        });
        assert!(!f.check_site(FaultSite::Recovery, &mut p));
        assert!(f.check_site(FaultSite::Recovery, &mut p));
    }

    #[test]
    fn disarm_prevents_trip_and_reset_clears_latch() {
        let (mut f, mut p) = (FaultState::default(), port());
        f.arm(CrashPoint::AtCycle(10));
        f.disarm();
        assert!(!f.check_cycle(u64::MAX, &mut p));
        f.arm(CrashPoint::AtCycle(10));
        assert!(f.check_cycle(10, &mut p));
        assert!(f.armed().is_none());
        // The power cycle clears the latch; the point stays consumed.
        p.crash();
        assert!(!p.power_lost());
        assert!(!f.check_cycle(u64::MAX, &mut p));
    }
}
