//! Storage-overhead accounting (sections IV-C, V-G; Tables VI and VII).

use crate::{AquaConfig, TableMode};
use serde::{Deserialize, Serialize};

/// Breakdown of the SRAM and DRAM storage an AQUA instance requires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageReport {
    /// SRAM for the mapping tables (FPT+RPT, or bloom+cache+pins), bytes.
    pub mapping_sram_bytes: u64,
    /// SRAM for the copy-buffer (one row, 8 KB), bytes.
    pub copy_buffer_bytes: u64,
    /// DRAM for the quarantine area, bytes.
    pub rqa_dram_bytes: u64,
    /// DRAM for in-DRAM tables (mapped mode), bytes.
    pub table_dram_bytes: u64,
}

impl StorageReport {
    /// Computes the report for a configuration.
    pub fn for_config(config: &AquaConfig) -> Self {
        let row_bytes = config.geometry.row_bytes as u64;
        let mapping_sram_bits = match config.table_mode {
            TableMode::Sram => {
                // FPT: 27 bits x fpt_entries (108 KB at the paper's 32K);
                // RPT: 23 bits x rqa_rows (~64 KB at 23K).
                config.fpt_entries as u64 * 27 + config.rqa_rows * 23
            }
            TableMode::Mapped {
                bloom_bits,
                cache_entries,
            } => {
                // Bloom (1 bit/entry) + FPT-Cache (32 bits/entry) + pinned
                // FPT entries for table-storing rows (16 bits each).
                let pins = config.fpt_table_rows() + config.rpt_table_rows();
                bloom_bits as u64 + cache_entries as u64 * 32 + pins * 16
            }
        };
        let table_dram_bytes = match config.table_mode {
            TableMode::Sram => 0,
            TableMode::Mapped { .. } => {
                (config.fpt_table_rows() + config.rpt_table_rows()) * row_bytes
            }
        };
        StorageReport {
            mapping_sram_bytes: mapping_sram_bits / 8,
            copy_buffer_bytes: row_bytes,
            rqa_dram_bytes: config.rqa_rows * row_bytes,
            table_dram_bytes,
        }
    }

    /// Total SRAM (mapping structures + copy buffer), bytes.
    pub fn total_sram_bytes(&self) -> u64 {
        self.mapping_sram_bytes + self.copy_buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BaselineConfig;

    #[test]
    fn sram_tables_cost_172kb() {
        // Section IV-C: FPT 108 KB + RPT ~64 KB = 172 KB.
        let c = AquaConfig::for_rowhammer_threshold(1000, &BaselineConfig::paper_table1());
        let r = StorageReport::for_config(&c);
        let kb = r.mapping_sram_bytes / 1024;
        assert!((168..=176).contains(&kb), "SRAM tables = {kb} KB");
    }

    #[test]
    fn mapped_tables_cost_about_41kb_total() {
        // Section V-G: 16 KB bloom + 16 KB cache + 8 KB copy-buffer +
        // ~0.6 KB pins ~= 41 KB.
        let c = AquaConfig::for_rowhammer_threshold(1000, &BaselineConfig::paper_table1())
            .with_mapped_tables();
        let r = StorageReport::for_config(&c);
        let kb = r.total_sram_bytes() as f64 / 1024.0;
        assert!((40.0..=44.0).contains(&kb), "mapped SRAM = {kb} KB");
    }

    #[test]
    fn rqa_is_180mb() {
        // Section IV-E: 23K rows x 8 KB ~= 180 MB per rank.
        let c = AquaConfig::for_rowhammer_threshold(1000, &BaselineConfig::paper_table1());
        let r = StorageReport::for_config(&c);
        let mb = r.rqa_dram_bytes / (1024 * 1024);
        assert!((178..=182).contains(&mb), "RQA = {mb} MB");
    }

    #[test]
    fn mapped_dram_tables_are_about_4mb() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &BaselineConfig::paper_table1())
            .with_mapped_tables();
        let r = StorageReport::for_config(&c);
        let mb = r.table_dram_bytes as f64 / (1024.0 * 1024.0);
        assert!((4.0..=4.5).contains(&mb), "in-DRAM tables = {mb} MB");
    }
}
