//! Blockhammer-style activation rate limiting.

use aqua_dram::mitigation::{Mitigation, MitigationAction, MitigationStats, Translation};
use aqua_dram::{DramGeometry, Duration, GlobalRowId, RowAddr, Time};
use aqua_fastmap::FxHashMap;
use aqua_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

/// Blockhammer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockhammerConfig {
    /// A row is blacklisted once it reaches this many activations in the
    /// current window (the paper's comparison uses 256).
    pub blacklist_threshold: u64,
    /// Total activations a row may receive per refresh window (`T_RH / 2`).
    pub quota: u64,
    /// The refresh window over which the quota applies.
    pub window: Duration,
}

impl BlockhammerConfig {
    /// The lowest Rowhammer threshold
    /// [`BlockhammerConfig::for_rowhammer_threshold`] accepts: below it the
    /// quota `t_rh / 2` is 0.
    pub const MIN_T_RH: u64 = 2;

    /// The section VII-B comparison point: blacklist at 256, quota
    /// `t_rh / 2` per 64 ms window.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is below [`BlockhammerConfig::MIN_T_RH`].
    pub fn for_rowhammer_threshold(t_rh: u64) -> Self {
        assert!(
            t_rh >= Self::MIN_T_RH,
            "Rowhammer threshold must be at least {}",
            Self::MIN_T_RH
        );
        BlockhammerConfig {
            blacklist_threshold: 256.min(t_rh / 2),
            quota: t_rh / 2,
            window: Duration::from_ms(64),
        }
    }

    /// The minimum spacing between activations of a blacklisted row that
    /// keeps it within quota: `window / quota`.
    pub fn throttle_interval(&self) -> Duration {
        self.window / self.quota
    }
}

/// Blockhammer-style mitigation: identity translation plus per-row
/// activation throttling (an idealized exact tracker, as in the paper's
/// comparison).
///
/// Secure by construction — a row physically cannot exceed its quota — but
/// the delay injected on blacklisted rows reaches `window / quota` per
/// activation, a worst-case slowdown of ~1280x at `T_RH` = 1K for a
/// row-conflict pattern (section VII-B).
#[derive(Debug)]
pub struct Blockhammer {
    config: BlockhammerConfig,
    geometry: DramGeometry,
    counts: FxHashMap<RowAddr, u64>,
    /// Earliest time each blacklisted row's next activation may take effect.
    /// Cumulative scheduling: each activation books the next slot, so the
    /// quota holds even when several requests are in flight concurrently.
    next_allowed: FxHashMap<RowAddr, Time>,
    stats: MitigationStats,
    telemetry: Telemetry,
}

impl Blockhammer {
    /// Creates the engine for a module geometry.
    pub fn new(config: BlockhammerConfig, geometry: DramGeometry) -> Self {
        Blockhammer {
            config,
            geometry,
            counts: FxHashMap::default(),
            next_allowed: FxHashMap::default(),
            stats: MitigationStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BlockhammerConfig {
        &self.config
    }

    /// Current activation count of `row` in this window.
    pub fn count(&self, row: RowAddr) -> u64 {
        self.counts.get(&row).copied().unwrap_or(0)
    }
}

impl Mitigation for Blockhammer {
    fn name(&self) -> &'static str {
        "blockhammer"
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
        now: Time,
        actions: &mut Vec<MitigationAction>,
    ) {
        let count = self.counts.entry(phys).or_insert(0);
        *count += 1;
        let count = *count;
        if count <= self.config.blacklist_threshold {
            return;
        }
        // Blacklisted: book the next allowed slot on the row's schedule.
        let interval = self.config.throttle_interval();
        let slot = self.next_allowed.entry(phys).or_insert(now);
        let delay = slot.saturating_since(now);
        *slot = (*slot).max(now) + interval;
        if delay > Duration::ZERO {
            self.stats.throttled += 1;
            self.stats.mitigations_triggered += 1;
            self.telemetry.record(
                now.as_ps(),
                EventKind::ThrottleStall {
                    row: self
                        .geometry
                        .flatten(phys)
                        .map(|g| g.index())
                        .unwrap_or(u64::MAX),
                    delay_ps: delay.as_ps(),
                },
            );
            actions.push(MitigationAction::Throttle { delay });
        }
    }

    fn end_epoch(&mut self) {
        self.counts.clear();
        self.next_allowed.clear();
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn mitigation_stats(&self) -> MitigationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BankId;

    fn addr(row: u32) -> RowAddr {
        RowAddr {
            bank: BankId::new(0),
            row,
        }
    }

    fn engine(t_rh: u64) -> Blockhammer {
        Blockhammer::new(
            BlockhammerConfig::for_rowhammer_threshold(t_rh),
            DramGeometry::tiny(),
        )
    }

    #[test]
    fn below_blacklist_runs_free() {
        let mut e = engine(1000);
        let mut now = Time::ZERO;
        for _ in 0..256 {
            assert!(e.on_activation(addr(1), now).is_empty());
            now += Duration::from_ns(45);
        }
        assert_eq!(e.mitigation_stats().throttled, 0);
    }

    #[test]
    fn blacklisted_row_is_throttled() {
        let mut e = engine(1000);
        let mut now = Time::ZERO;
        for _ in 0..257 {
            e.on_activation(addr(1), now);
            now += Duration::from_ns(45);
        }
        let actions = e.on_activation(addr(1), now);
        match actions.as_slice() {
            [MitigationAction::Throttle { delay }] => {
                // Delay approaches window / quota = 64 ms / 500 = 128 us.
                assert!(delay.as_us_f64() > 100.0, "delay = {delay}");
            }
            other => panic!("expected throttle, got {other:?}"),
        }
    }

    #[test]
    fn worst_case_slowdown_is_1280x() {
        // Section VII-B: a two-row conflict pattern takes ~100 ns per round
        // unthrottled, but only quota rounds fit in the window.
        let cfg = BlockhammerConfig::for_rowhammer_threshold(1000);
        let unthrottled_round = Duration::from_ns(100);
        let rounds_possible = cfg.window.div_duration(unthrottled_round); // 640K
        let rounds_allowed = cfg.quota; // 500
        let slowdown = rounds_possible as f64 / rounds_allowed as f64;
        assert!((1275.0..=1285.0).contains(&slowdown), "slowdown {slowdown}");
        // The per-activation throttle interval implies the same bound.
        assert_eq!(cfg.throttle_interval().as_us_f64(), 128.0);
    }

    #[test]
    fn quota_is_enforced_within_window() {
        // Even a maximally aggressive pattern cannot exceed quota effective
        // activations within the window.
        let cfg = BlockhammerConfig {
            blacklist_threshold: 4,
            quota: 8,
            window: Duration::from_us(100),
        };
        let mut e = Blockhammer::new(cfg, DramGeometry::tiny());
        let mut now = Time::ZERO;
        let mut effective_acts_in_window = 0u64;
        while now < Time::ZERO + cfg.window {
            let actions = e.on_activation(addr(1), now);
            let delay = actions
                .iter()
                .map(|a| match a {
                    MitigationAction::Throttle { delay } => *delay,
                    _ => Duration::ZERO,
                })
                .max()
                .unwrap_or(Duration::ZERO);
            now = now + delay + Duration::from_ns(45);
            if now < Time::ZERO + cfg.window {
                effective_acts_in_window += 1;
            }
        }
        assert!(
            effective_acts_in_window <= cfg.quota + cfg.blacklist_threshold,
            "{effective_acts_in_window} activations exceeded the quota"
        );
    }

    #[test]
    fn window_reset_clears_blacklist() {
        let mut e = engine(1000);
        let mut now = Time::ZERO;
        for _ in 0..300 {
            e.on_activation(addr(1), now);
            now += Duration::from_ns(45);
        }
        e.end_epoch();
        assert_eq!(e.count(addr(1)), 0);
        assert!(e.on_activation(addr(1), now).is_empty());
    }
}
