//! Baseline system configuration (paper Table I).

use crate::{DdrTiming, DramGeometry, Duration, PagePolicy};
use serde::{Deserialize, Serialize};

/// The complete baseline memory-system configuration from Table I of the
/// paper, plus the simulator's core-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Independent DRAM channels. Each channel replicates `geometry` (its
    /// own ranks, banks, and rows) and, in the sharded simulator, runs as
    /// its own shard with a private mitigation-engine instance. The paper's
    /// Table I baseline is single-channel.
    pub channels: u32,
    /// Per-channel DRAM geometry (ranks, banks, rows, row size).
    pub geometry: DramGeometry,
    /// DDR4 timing parameters.
    pub timing: DdrTiming,
    /// Number of out-of-order cores sharing the channel.
    pub cores: u32,
    /// Core clock frequency in GHz (3 GHz in Table I).
    pub core_ghz: f64,
    /// Memory-level parallelism per core: maximum outstanding misses the core
    /// model allows before stalling (proxy for ROB/MSHR capacity).
    pub mlp: u32,
    /// Refresh window treated as one tracker epoch (64 ms).
    pub epoch: Duration,
    /// Row-buffer management policy of the memory controller.
    pub page_policy: PagePolicy,
}

impl BaselineConfig {
    /// The paper's Table I configuration: 4 cores at 3 GHz, 16 GB DDR4-2400,
    /// 16 banks x 1 rank x 1 channel.
    pub fn paper_table1() -> Self {
        BaselineConfig {
            channels: 1,
            geometry: DramGeometry::paper_table1(),
            timing: DdrTiming::ddr4_2400(),
            cores: 4,
            core_ghz: 3.0,
            mlp: 8,
            epoch: Duration::from_ms(64),
            page_policy: PagePolicy::Open,
        }
    }

    /// A scaled-down configuration for fast unit/property tests.
    pub fn tiny() -> Self {
        BaselineConfig {
            channels: 1,
            geometry: DramGeometry::tiny(),
            timing: DdrTiming::ddr4_2400(),
            cores: 1,
            core_ghz: 3.0,
            mlp: 4,
            epoch: Duration::from_ms(1),
            page_policy: PagePolicy::Open,
        }
    }
}

impl BaselineConfig {
    /// Sets the channel count (each channel replicates `geometry`).
    pub fn with_channels(mut self, channels: u32) -> Self {
        self.channels = channels.max(1);
        self
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = BaselineConfig::paper_table1();
        assert_eq!(c.cores, 4);
        assert_eq!(c.geometry.total_banks(), 16);
        assert_eq!(c.geometry.capacity_bytes(), 16 << 30);
        assert_eq!(c.epoch, Duration::from_ms(64));
    }

    #[test]
    fn tiny_is_smaller() {
        let c = BaselineConfig::tiny();
        assert!(c.geometry.total_rows() < BaselineConfig::paper_table1().geometry.total_rows());
    }
}
