//! Shared mitigation-interface types.
//!
//! Every Rowhammer mitigation scheme in this repository (AQUA, RRS,
//! victim-refresh, Blockhammer, and the no-op baseline) plugs into the system
//! simulator through the [`Mitigation`] trait. The trait lives here — in the
//! substrate crate all schemes already depend on — so the scheme crates do not
//! need to depend on the simulator or on each other.
//!
//! The protocol per memory request is:
//!
//! 1. The simulator calls [`Mitigation::translate`] with the *install-time*
//!    (OS-visible) row id. The scheme consults its indirection state and
//!    returns the physical row to access plus any extra lookup cost
//!    (in-DRAM table reads for AQUA's memory-mapped tables).
//! 2. The simulator performs the bank access. If it caused a row activation,
//!    it calls [`Mitigation::on_activation`] with the *physical* location
//!    (paper property P3: the tracker is indexed post-translation).
//! 3. The scheme returns zero or more [`MitigationAction`]s — channel-blocking
//!    row migrations, victim refreshes, or request throttling — which the
//!    simulator applies to the channel/bank/oracle state.
//! 4. At each 64 ms boundary the simulator calls [`Mitigation::end_epoch`].

use crate::{Duration, GlobalRowId, RowAddr, Time};
use aqua_faults::{FaultHealth, FaultKind, InjectOutcome};
use serde::{Deserialize, Serialize};

/// How degraded a scheme currently is, as a structured outcome the simulator
/// can report instead of aborting the run.
///
/// When a fault leaves a mitigation's tables unrecoverably inconsistent for
/// some bank, the engine stops relying on indirection there and falls back to
/// victim-refresh-style protection — weaker against Half-Double-class
/// attacks, but it preserves data integrity and keeps the run alive.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// All tables consistent; the scheme operates as designed.
    #[default]
    Normal,
    /// The listed banks (sorted global bank indices) run under the
    /// victim-refresh fallback instead of row migration.
    VictimRefresh {
        /// Degraded bank indices, ascending.
        banks: Vec<u32>,
    },
}

/// Why a channel-blocking row transfer happened (for per-kind accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationKind {
    /// AQUA: a row moved from its original location into the quarantine area.
    QuarantineInstall,
    /// AQUA: a quarantined row moved to a new slot within the quarantine area.
    QuarantineInternal,
    /// AQUA: a stale quarantined row moved back to its original location.
    QuarantineEvict,
    /// RRS: half of a swap (each swap is two migrations: two reads, two writes).
    Swap,
    /// RRS: half of an unswap (restoring a previously swapped pair).
    Unswap,
}

/// The data movement carried by a channel-blocking transfer, so the
/// simulator's shadow memory can track where every row's contents live and
/// verify that translation always resolves to the owning physical row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMovement {
    /// Timing-only reservation (its data movement is carried by a sibling
    /// action of the same mitigation).
    None,
    /// Contents of `from` move to `to` (`to` must be vacant).
    Move {
        /// Source physical row.
        from: RowAddr,
        /// Destination physical row (vacant before the move).
        to: RowAddr,
    },
    /// Contents of `a` and `b` are exchanged through the copy-buffer.
    Swap {
        /// First physical row.
        a: RowAddr,
        /// Second physical row.
        b: RowAddr,
    },
}

/// An action the mitigation scheme asks the memory controller to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitigationAction {
    /// Reserve the channel exclusively for a row transfer of `duration`
    /// (row migrations block all other requests; paper section IV-G).
    BlockChannel {
        /// Transfer length (1.37 us per migration at Table I parameters).
        duration: Duration,
        /// What the transfer was for.
        kind: MigrationKind,
        /// The data movement this transfer performs.
        movement: DataMovement,
    },
    /// Refresh (activate) the given physical rows — victim refresh. These
    /// count as activations for disturbance purposes, which is the mechanism
    /// the Half-Double attack exploits.
    RefreshRows(Vec<RowAddr>),
    /// Delay the triggering request by `delay` (Blockhammer-style throttling).
    Throttle {
        /// How long the request must wait before its activation may issue.
        delay: Duration,
    },
    /// Perform `count` extra in-DRAM mapping-table writes (memory-mapped FPT
    /// and RPT updates accompanying a migration).
    TableWrites {
        /// Number of table-write accesses on the channel.
        count: u32,
    },
}

/// Result of an address translation through the scheme's indirection tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical row to access.
    pub phys: RowAddr,
    /// Latency added on the critical path of this access by table lookups
    /// (SRAM lookups are a few cycles; in-DRAM FPT reads are a full access).
    pub lookup_latency: Duration,
    /// Number of extra in-DRAM table reads this lookup required (they also
    /// consume channel bandwidth).
    pub dram_table_reads: u32,
    /// The physical DRAM row holding the table entry that was read, if the
    /// lookup went to DRAM. The simulator accesses this row for real, so
    /// mapping-table rows are themselves hammerable (and protected — the
    /// PTHammer defence of section VI-B).
    pub table_row: Option<RowAddr>,
}

impl Translation {
    /// A translation that found the row at its original location with no
    /// extra cost (identity mapping).
    pub fn identity(phys: RowAddr) -> Self {
        Translation {
            phys,
            lookup_latency: Duration::ZERO,
            dram_table_reads: 0,
            table_row: None,
        }
    }
}

aqua_telemetry::stat_struct! {
    /// Per-scheme migration statistics reported to the experiment harness.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct MitigationStats {
        /// Total row transfers (each 1.37 us). An RRS swap counts 2; an AQUA
        /// install counts 1 (plus 1 more if it required an eviction).
        pub row_migrations: u64,
        /// Mitigations triggered by the tracker.
        pub mitigations_triggered: u64,
        /// Victim-refresh rows issued.
        pub victim_refreshes: u64,
        /// Requests throttled (Blockhammer).
        pub throttled: u64,
        /// Security violations detected (e.g. RQA slot reuse within an epoch).
        pub violations: u64,
    }
}

/// A Rowhammer mitigation scheme, as seen by the memory controller.
///
/// `Send` is a supertrait so a whole `Simulation<M>` can be handed to a
/// worker thread: the bench harness fans the scheme × workload experiment
/// matrix out across a thread pool, constructing and running one engine per
/// job. Schemes hold only owned state (tables, RNGs, telemetry handles), so
/// the bound costs implementors nothing.
pub trait Mitigation: Send {
    /// Short scheme name for reports (e.g. `"aqua-sram"`).
    fn name(&self) -> &'static str;

    /// Translates an OS-visible row id to the physical row to access.
    ///
    /// Called once per request. It may count and record events, but must
    /// not record telemetry spans: the simulator batches the serve path's
    /// leaf spans and commits them only before the calls that may record
    /// spans (activation, refresh tick, fault injection, epoch end), so a
    /// span recorded here would take an id ahead of pending leaves.
    fn translate(&mut self, row: GlobalRowId, now: Time) -> Translation;

    /// Notifies the scheme that `phys` was activated at `now`, appending the
    /// mitigative actions to apply onto `actions`.
    ///
    /// This is the hot-path entry point: the simulator calls it once per row
    /// activation with a reused scratch buffer, so implementations must only
    /// *push* onto `actions` (never clear it) and should not allocate on the
    /// no-action path. The allocating [`on_activation`](Self::on_activation)
    /// wrapper exists for tests and one-shot callers.
    fn on_activation_into(&mut self, phys: RowAddr, now: Time, actions: &mut Vec<MitigationAction>);

    /// Allocating convenience wrapper around
    /// [`on_activation_into`](Self::on_activation_into): returns the actions
    /// as a fresh `Vec`. Prefer the `_into` form anywhere called per access.
    fn on_activation(&mut self, phys: RowAddr, now: Time) -> Vec<MitigationAction> {
        let mut actions = Vec::new();
        self.on_activation_into(phys, now, &mut actions);
        actions
    }

    /// Called at every 64 ms epoch boundary (tracker reset point).
    fn end_epoch(&mut self);

    /// Called at every refresh command (`tREFI`); schemes may piggyback
    /// background work (AQUA's optional stale-entry draining), pushing the
    /// actions to apply at the tick time `now` onto `actions`. Like
    /// [`on_activation_into`](Self::on_activation_into) this runs with a
    /// reused scratch buffer — push, don't clear.
    fn on_refresh_tick_into(&mut self, now: Time, actions: &mut Vec<MitigationAction>) {
        let _ = (now, actions);
    }

    /// Allocating convenience wrapper around
    /// [`on_refresh_tick_into`](Self::on_refresh_tick_into).
    fn on_refresh_tick(&mut self, now: Time) -> Vec<MitigationAction> {
        let mut actions = Vec::new();
        self.on_refresh_tick_into(now, &mut actions);
        actions
    }

    /// Hands the scheme a telemetry hub so it can register its counters and
    /// emit trace events. The default keeps schemes telemetry-free.
    fn attach_telemetry(&mut self, telemetry: aqua_telemetry::Telemetry) {
        let _ = telemetry;
    }

    /// Scheme-specific gauges sampled at each epoch boundary (before
    /// [`Mitigation::end_epoch`] resets per-epoch state), e.g. AQUA's RQA
    /// occupancy or its FPT-cache hit rate over the closing epoch.
    fn epoch_gauges(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Physical rows the scheme reserves for itself (invisible to software
    /// and initially holding no program data), e.g. AQUA's quarantine area.
    /// The simulator's shadow memory marks them vacant at start-up.
    fn reserved_rows(&self) -> Vec<RowAddr> {
        Vec::new()
    }

    /// Cumulative mitigation statistics.
    fn mitigation_stats(&self) -> MitigationStats;

    /// Applies one injected fault to the scheme's internal state and reports
    /// what happened. Schemes without state of the given kind return
    /// [`InjectOutcome::Unsupported`]; schemes that accept the fault must
    /// keep simulating afterwards — a fault may degrade protection, but it
    /// must never panic the process.
    fn inject_fault(&mut self, fault: &FaultKind, now: Time) -> InjectOutcome {
        let _ = (fault, now);
        InjectOutcome::Unsupported
    }

    /// Cumulative fault-handling counters (injections accepted, recoveries,
    /// audit repairs, degraded bank-epochs).
    fn fault_health(&self) -> FaultHealth {
        FaultHealth::default()
    }

    /// The scheme's current degradation state.
    fn degraded_mode(&self) -> DegradedMode {
        DegradedMode::Normal
    }
}

/// The no-mitigation baseline: identity translation, no actions.
#[derive(Debug, Clone)]
pub struct NoMitigation {
    geometry: crate::DramGeometry,
}

impl NoMitigation {
    /// Creates the baseline for a given geometry.
    pub fn new(geometry: crate::DramGeometry) -> Self {
        NoMitigation { geometry }
    }
}

impl Mitigation for NoMitigation {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn translate(&mut self, row: GlobalRowId, _now: Time) -> Translation {
        Translation::identity(
            self.geometry
                .expand(row)
                .expect("workload row ids must be within geometry"),
        )
    }

    fn on_activation_into(
        &mut self,
        _phys: RowAddr,
        _now: Time,
        _actions: &mut Vec<MitigationAction>,
    ) {
    }

    fn end_epoch(&mut self) {}

    fn mitigation_stats(&self) -> MitigationStats {
        MitigationStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramGeometry;

    #[test]
    fn no_mitigation_is_identity() {
        let g = DramGeometry::tiny();
        let mut m = NoMitigation::new(g);
        let row = GlobalRowId::new(1025);
        let t = m.translate(row, Time::ZERO);
        assert_eq!(g.flatten(t.phys).unwrap(), row);
        assert_eq!(t.lookup_latency, Duration::ZERO);
        assert!(m.on_activation(t.phys, Time::ZERO).is_empty());
        assert_eq!(m.mitigation_stats(), MitigationStats::default());
    }
}
