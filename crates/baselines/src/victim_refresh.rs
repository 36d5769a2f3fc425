//! Victim-refresh mitigation (and its Half-Double weakness).

use aqua_dram::mitigation::{Mitigation, MitigationAction, MitigationStats, Translation};
use aqua_dram::{DramGeometry, GlobalRowId, RowAddr, Time};
use aqua_telemetry::{Counter, Telemetry};
use aqua_tracker::{AggressorTracker, MisraGriesTracker, TrackerConfig};
use serde::{Deserialize, Serialize};

/// Victim-refresh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VictimRefreshConfig {
    /// Refresh neighbours up to this distance (1 = classic; 2 also refreshes
    /// distance-2 rows, which merely *moves* the Half-Double frontier out by
    /// one row — it does not close it).
    pub blast_radius: u32,
    /// Refresh the victims every `threshold` activations of the aggressor
    /// (`T_RH / 2` accounts for tracker reset, like AQUA).
    pub threshold: u64,
    /// Misra-Gries entries per bank.
    pub tracker_entries_per_bank: usize,
}

impl VictimRefreshConfig {
    /// The lowest Rowhammer threshold
    /// [`VictimRefreshConfig::for_rowhammer_threshold`] accepts: below it
    /// the refresh threshold `t_rh / 2` is 0.
    pub const MIN_T_RH: u64 = 2;

    /// Classic distance-1 victim refresh for a Rowhammer threshold.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is below [`VictimRefreshConfig::MIN_T_RH`].
    pub fn for_rowhammer_threshold(t_rh: u64) -> Self {
        assert!(
            t_rh >= Self::MIN_T_RH,
            "Rowhammer threshold must be at least {}",
            Self::MIN_T_RH
        );
        let a = t_rh / 2;
        const ACT_MAX: u64 = 1_360_000;
        VictimRefreshConfig {
            blast_radius: 1,
            threshold: a,
            tracker_entries_per_bank: (ACT_MAX / a).max(1) as usize,
        }
    }

    /// Extends the refresh radius (distance-2 victim refresh).
    pub fn with_blast_radius(mut self, radius: u32) -> Self {
        self.blast_radius = radius;
        self
    }
}

/// The victim-refresh mitigation engine.
///
/// Identity address translation (no indirection tables at all); the only
/// mitigative action is refreshing the aggressor's neighbours. The refreshes
/// are *row activations* of the victims — the simulator's disturbance oracle
/// therefore observes the Half-Double amplification without any special
/// modelling.
#[derive(Debug)]
pub struct VictimRefresh {
    config: VictimRefreshConfig,
    geometry: DramGeometry,
    tracker: MisraGriesTracker,
    stats: MitigationStats,
    refresh_counter: Counter,
}

impl VictimRefresh {
    /// Creates the engine for a module geometry.
    pub fn new(config: VictimRefreshConfig, geometry: DramGeometry) -> Self {
        let tracker_cfg = TrackerConfig::with_mitigation_threshold(config.threshold)
            .entries_per_bank(config.tracker_entries_per_bank);
        VictimRefresh {
            config,
            geometry,
            tracker: MisraGriesTracker::new(tracker_cfg, geometry.total_banks()),
            stats: MitigationStats::default(),
            refresh_counter: Counter::default(),
        }
    }

    /// The neighbours refreshed when `phys` is flagged.
    pub fn victims_of(&self, phys: RowAddr) -> Vec<RowAddr> {
        let mut rows = Vec::new();
        for d in 1..=self.config.blast_radius {
            if let Some(below) = phys.row.checked_sub(d) {
                rows.push(RowAddr {
                    bank: phys.bank,
                    row: below,
                });
            }
            let above = phys.row + d;
            if above < self.geometry.rows_per_bank {
                rows.push(RowAddr {
                    bank: phys.bank,
                    row: above,
                });
            }
        }
        rows
    }
}

impl Mitigation for VictimRefresh {
    fn name(&self) -> &'static str {
        "victim-refresh"
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
        phys: RowAddr,
        _now: Time,
        actions: &mut Vec<MitigationAction>,
    ) {
        if !self.tracker.on_activation(phys).mitigate() {
            return;
        }
        self.stats.mitigations_triggered += 1;
        let victims = self.victims_of(phys);
        self.stats.victim_refreshes += victims.len() as u64;
        self.refresh_counter.add(victims.len() as u64);
        actions.push(MitigationAction::RefreshRows(victims));
    }

    fn end_epoch(&mut self) {
        self.tracker.end_epoch();
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.refresh_counter = telemetry.counter("victim_refresh.rows_refreshed");
    }

    fn mitigation_stats(&self) -> MitigationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BankId;

    fn engine(radius: u32) -> VictimRefresh {
        let mut cfg = VictimRefreshConfig::for_rowhammer_threshold(20);
        cfg.tracker_entries_per_bank = 32;
        VictimRefresh::new(cfg.with_blast_radius(radius), DramGeometry::tiny())
    }

    fn addr(row: u32) -> RowAddr {
        RowAddr {
            bank: BankId::new(0),
            row,
        }
    }

    #[test]
    fn refreshes_both_neighbours_at_threshold() {
        let mut e = engine(1);
        let mut actions = Vec::new();
        for _ in 0..10 {
            actions.extend(e.on_activation(addr(100), Time::ZERO));
        }
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            MitigationAction::RefreshRows(rows) => {
                assert_eq!(rows.as_slice(), &[addr(99), addr(101)]);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(e.mitigation_stats().victim_refreshes, 2);
    }

    #[test]
    fn blast_radius_two_covers_four_rows() {
        let e = engine(2);
        let v = e.victims_of(addr(100));
        assert_eq!(v.len(), 4);
        assert!(v.contains(&addr(98)) && v.contains(&addr(102)));
    }

    #[test]
    fn edge_rows_clip_victims() {
        let e = engine(1);
        assert_eq!(e.victims_of(addr(0)), vec![addr(1)]);
        let last = DramGeometry::tiny().rows_per_bank - 1;
        assert_eq!(e.victims_of(addr(last)), vec![addr(last - 1)]);
    }

    #[test]
    fn translation_is_identity() {
        let mut e = engine(1);
        let g = DramGeometry::tiny();
        let t = e.translate(GlobalRowId::new(77), Time::ZERO);
        assert_eq!(g.flatten(t.phys).unwrap(), GlobalRowId::new(77));
    }
}
