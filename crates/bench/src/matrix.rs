//! The deterministic scheme × workload experiment matrix.

use crate::supervise::RunError;
use crate::Scheme;
use aqua_sim::RunReport;

/// One `(scheme, workload)` cell of an experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// The scheme this cell ran.
    pub scheme: Scheme,
    /// The workload this cell ran.
    pub workload: String,
    /// The run report, or the classified error of a cell with no result.
    pub outcome: Result<RunReport, RunError>,
    /// Attempts the supervised runner spent on the cell (>1 = it was
    /// retried; see [`RunError`] for the retry contract).
    pub attempts: u32,
    /// True when the outcome was replayed from a checkpoint journal
    /// instead of simulated by this run.
    pub resumed: bool,
}

/// Results of [`crate::Harness::run_matrix`], in deterministic input order:
/// workload-major, i.e. every scheme of workload 0, then workload 1, and so
/// on — independent of how the worker pool scheduled the jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResults {
    cells: Vec<MatrixCell>,
}

impl MatrixResults {
    pub(crate) fn new(cells: Vec<MatrixCell>) -> Self {
        MatrixResults { cells }
    }

    /// All cells, in input (workload-major) order.
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// The report of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was never part of the matrix or its job failed
    /// (the panic message names the cell and relays the job's own message).
    pub fn get(&self, scheme: Scheme, workload: &str) -> &RunReport {
        match self.try_get(scheme, workload) {
            Ok(report) => report,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// The report of one cell, or a description of why it is unavailable.
    pub fn try_get(&self, scheme: Scheme, workload: &str) -> Result<&RunReport, String> {
        let cell = self
            .cells
            .iter()
            .find(|c| c.scheme == scheme && c.workload == workload)
            .ok_or_else(|| format!("no matrix cell for {} / {workload}", scheme.name()))?;
        cell.outcome
            .as_ref()
            .map_err(|e| format!("matrix cell {} / {workload} failed: {e}", scheme.name()))
    }

    /// The cells with no trustworthy result — failed or quarantined — if
    /// any.
    pub fn failures(&self) -> impl Iterator<Item = &MatrixCell> {
        self.cells.iter().filter(|c| c.outcome.is_err())
    }

    /// The successful reports, in input order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().ok())
    }

    /// Deterministic alert firings summed over every successful report's
    /// `sim.alerts_fired` counter (0 for runs without telemetry);
    /// `fault_campaign --fail-on-alert` gates on it.
    pub fn alerts_fired(&self) -> u64 {
        self.reports()
            .filter_map(|r| r.telemetry.as_ref()?.counter("sim.alerts_fired"))
            .sum()
    }

    /// Panics if any cell failed, listing every failed cell. Figure binaries
    /// call this right after the matrix so one bad cell does not silently
    /// produce a partial CSV.
    pub fn expect_complete(&self) -> &Self {
        let failed: Vec<String> = self
            .failures()
            .map(|c| format!("{} / {}: {}", c.scheme.name(), c.workload, flat(c)))
            .collect();
        assert!(
            failed.is_empty(),
            "{} matrix cell(s) failed:\n  {}",
            failed.len(),
            failed.join("\n  ")
        );
        self
    }
}

fn flat(cell: &MatrixCell) -> String {
    match &cell.outcome {
        Err(e) => e.to_string(),
        Ok(_) => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> MatrixResults {
        MatrixResults::new(vec![
            MatrixCell {
                scheme: Scheme::Baseline,
                workload: "lbm".into(),
                outcome: Ok(RunReport {
                    workload: "lbm".into(),
                    requests_done: 7,
                    ..Default::default()
                }),
                attempts: 1,
                resumed: false,
            },
            MatrixCell {
                scheme: Scheme::Rrs,
                workload: "lbm".into(),
                outcome: Err(RunError::Panic("boom".into())),
                attempts: 2,
                resumed: false,
            },
        ])
    }

    #[test]
    fn get_resolves_successful_cells() {
        assert_eq!(results().get(Scheme::Baseline, "lbm").requests_done, 7);
    }

    #[test]
    fn failed_and_missing_cells_report_why() {
        let r = results();
        let err = r.try_get(Scheme::Rrs, "lbm").unwrap_err();
        assert!(err.contains("boom"), "{err}");
        assert!(err.contains("panic"), "the taxonomy kind is visible: {err}");
        let err = r.try_get(Scheme::Rrs, "mcf").unwrap_err();
        assert!(err.contains("no matrix cell"), "{err}");
        assert_eq!(r.failures().count(), 1);
        assert_eq!(r.reports().count(), 1);
    }

    #[test]
    #[should_panic(expected = "matrix cell(s) failed")]
    fn expect_complete_panics_on_failures() {
        results().expect_complete();
    }

    #[test]
    fn alerts_fired_sums_successful_reports() {
        let mut r = results();
        // Two successful reports that carry alert firings next to the
        // fixture's report without telemetry and its failed cell.
        for (workload, fired) in [("mcf", 2), ("xz", 3)] {
            r.cells.push(MatrixCell {
                scheme: Scheme::AquaSram,
                workload: workload.into(),
                outcome: Ok(RunReport {
                    workload: workload.into(),
                    telemetry: Some(aqua_telemetry::TelemetrySummary {
                        counters: vec![("sim.alerts_fired".into(), fired)],
                        ..Default::default()
                    }),
                    ..Default::default()
                }),
                attempts: 1,
                resumed: false,
            });
        }
        assert_eq!(r.alerts_fired(), 5);
    }
}
