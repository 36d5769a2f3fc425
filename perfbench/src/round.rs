//! One round: every cell of a workload, run the way the repository's own
//! binaries run it, timed as a whole.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use aqua_bench::{output, Harness};
use aqua_dram::mitigation::Mitigation;
use aqua_sim::{RunReport, ShardedSimulation};
use aqua_telemetry::{Telemetry, TelemetryConfig};

use crate::cells::{Cell, EngineVisitor, Workload, ALL_SCHEMES, QUIET_WORKLOADS};

/// What one cell of a round produced.
#[derive(Debug)]
pub struct CellRun {
    /// The report, or the message of the panic that ended the cell.
    pub report: Result<RunReport, String>,
    /// Attempts the supervised matrix spent on the cell (1 elsewhere).
    pub attempts: u32,
}

/// A finished round.
#[derive(Debug)]
pub struct Round {
    /// One entry per cell, in `Workload::cells` order.
    pub runs: Vec<CellRun>,
    /// Host seconds of the whole round.
    pub seconds: f64,
}

impl Round {
    /// Simulated requests served by every cell that finished.
    pub fn requests(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.report.as_ref().ok())
            .map(|r| r.requests_done)
            .sum()
    }
}

/// Header of the cells' CSV.
pub const CSV_HEADER: [&str; 6] = [
    "scheme",
    "workload",
    "requests_done",
    "row_migrations",
    "max_window_activations",
    "integrity_violations",
];

/// Runs `cells` of `workload` once, one after another; suite-quiet's
/// `cells` must be all of its cells, which `run_matrix` runs together.
/// `out` holds the round's journal.
pub fn run(workload: Workload, h: &Harness, cells: &[Cell], out: &Path) -> Round {
    match workload {
        Workload::SpecHot => timed(|| {
            cells
                .iter()
                .map(|&cell| single(|| h.run(cell.scheme(), cell.workload())))
                .collect()
        }),
        Workload::SuiteQuiet => {
            assert_eq!(cells, workload.cells(), "suite-quiet runs its whole matrix");
            let journal = out.join("suite-quiet.journal.jsonl");
            // A fresh journal, so no cell is replayed from an earlier round.
            remove_if_present(&journal);
            let h = Harness {
                journal: Some(journal.clone()),
                ..h.clone()
            };
            let workloads: Vec<String> = QUIET_WORKLOADS.iter().map(|w| w.to_string()).collect();
            let round = timed(|| {
                let results = h.run_matrix(&ALL_SCHEMES, &workloads);
                let rows: Vec<Vec<String>> = results.reports().map(csv_row).collect();
                output::write_csv("perfbench-suite-quiet", &CSV_HEADER, &rows);
                results
                    .cells()
                    .iter()
                    .map(|c| CellRun {
                        report: c.outcome.clone().map_err(|e| e.to_string()),
                        attempts: c.attempts,
                    })
                    .collect()
            });
            remove_if_present(&journal);
            round
        }
        Workload::AttackFlood => timed(|| {
            cells
                .iter()
                .map(|&cell| {
                    single(|| {
                        run_flood(
                            cell,
                            h,
                            h.shard_workers,
                            Some(Telemetry::new(TelemetryConfig::default())),
                        )
                    })
                })
                .collect()
        }),
    }
}

/// Runs one flood cell on the sharded runner with `workers` shard workers
/// and, when given, a telemetry hub, as `simulate --trace-out` attaches one.
pub fn run_flood(cell: Cell, h: &Harness, workers: usize, hub: Option<Telemetry>) -> RunReport {
    struct Flood<'a> {
        cell: Cell,
        h: &'a Harness,
        workers: usize,
        hub: Option<Telemetry>,
    }
    impl EngineVisitor for Flood<'_> {
        type Out = RunReport;
        fn visit<M: Mitigation + 'static>(self, mut engine: impl FnMut() -> M) -> RunReport {
            let mut sim = ShardedSimulation::new(
                self.h
                    .sim_config(self.cell.scheme().name(), self.cell.workload()),
                |_channel| engine(),
                |channel| self.cell.generators(self.h, channel),
            )
            .shard_workers(self.workers);
            if let Some(hub) = self.hub {
                sim.attach_telemetry(hub);
            }
            sim.run()
        }
    }
    cell.with_engine(
        h,
        Flood {
            cell,
            h,
            workers,
            hub,
        },
    )
}

pub fn csv_row(r: &RunReport) -> Vec<String> {
    vec![
        r.scheme.clone(),
        r.workload.clone(),
        r.requests_done.to_string(),
        r.mitigation.row_migrations.to_string(),
        r.oracle.max_window_activations.to_string(),
        r.integrity_violations.to_string(),
    ]
}

/// Runs one cell on the calling thread.
fn single(f: impl FnOnce() -> RunReport) -> CellRun {
    CellRun {
        report: guarded(f),
        attempts: 1,
    }
}

fn timed(f: impl FnOnce() -> Vec<CellRun>) -> Round {
    let start = Instant::now();
    let runs = f();
    Round {
        runs,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

fn remove_if_present(path: &Path) {
    if let Err(e) = std::fs::remove_file(path) {
        assert!(
            e.kind() == std::io::ErrorKind::NotFound,
            "cannot remove {}: {e}",
            path.display()
        );
    }
}
