//! Shared experiment harness for the figure/table reproduction binaries.
//!
//! Every `src/bin/*` binary regenerates one table or figure of the paper:
//! it runs the required simulations (or analytical models), prints a
//! paper-vs-measured comparison to stdout, and writes a CSV into
//! `target/experiments/`.
//!
//! Simulations in a figure are independent of each other (each owns its
//! cores, banks, engine, and RNG state), so the harness fans the scheme ×
//! workload matrix out across a bounded worker pool ([`Harness::run_matrix`]
//! / [`pool::run_indexed`]). Results are index-tagged and telemetry is
//! merged in job order after the pool drains, so a parallel run is
//! **byte-identical** to a serial one — `AQUA_BENCH_JOBS=1` recovers the
//! strictly serial behaviour on the caller's thread.
//!
//! Matrix cells run under a supervision layer ([`supervise`]): failures
//! are classified into a typed [`RunError`] taxonomy, watchdog expiries
//! are retried from the same seed, other panics get a determinism probe
//! (an unreproducible failure is quarantined), and with a checkpoint
//! journal attached ([`journal`]) an interrupted campaign resumes where it
//! stopped — byte-identical to an uninterrupted run.
//!
//! Environment knobs (all optional):
//!
//! - `AQUA_BENCH_EPOCHS`: simulated 64 ms epochs per run (default 2).
//! - `AQUA_BENCH_CHANNELS`: DRAM channels to simulate (default: the
//!   baseline's channel count, 1). Multi-channel runs shard per channel
//!   (see [`aqua_sim::ShardedSimulation`]) and merge deterministically.
//! - `AQUA_BENCH_SHARD_WORKERS`: worker threads *per simulation* for the
//!   channel shards (`0` = auto: one per channel bounded by the host's
//!   cores; `1` = serial shards). Never changes results, only wallclock.
//! - `AQUA_BENCH_WORKLOADS`: comma-separated subset of workload names
//!   (default: all 18 SPEC + 16 mixes). Names are validated eagerly;
//!   empty entries (e.g. a trailing comma) are ignored.
//! - `AQUA_BENCH_JOBS`: worker threads for the experiment matrix
//!   (default: all available cores; `1` = serial; `0` = auto, same as
//!   unset).
//! - `AQUA_BENCH_RETRIES`: seeded re-runs granted to a watchdog-expired
//!   cell (default 1; the determinism probe after an ordinary panic is
//!   separate and always exactly one).
//! - `AQUA_BENCH_DEADLINE_MS`: soft per-cell deadline in milliseconds; a
//!   cell past it prints one straggler report, and the hard watchdog
//!   fires at [`Deadline::HARD_FACTOR`]× unless `Harness::watchdog`
//!   overrides it.
//! - `AQUA_BENCH_JOURNAL`: path of the checkpoint/resume journal
//!   (equivalent to the campaign binaries' `--resume`).
//! - `AQUA_METRICS_ADDR`: serve live `/metrics` + `/healthz` on this
//!   address for the whole process ([`aqua_telemetry::MetricsPlane`];
//!   port 0 = ephemeral, observer-only — outputs stay byte-identical).
//!   `AQUA_METRICS_PORT_FILE` receives the bound address and
//!   `AQUA_METRICS_LINGER_MS` keeps the endpoint up after the run;
//!   `AQUA_ALERT_RULES` overrides the alert rules (DESIGN.md §16).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod gate;
pub mod journal;
mod matrix;
pub mod output;
pub use aqua_sim::pool;
pub mod supervise;

pub use matrix::{MatrixCell, MatrixResults};
pub use supervise::{Attempted, RunError, Supervisor};

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use journal::CellKey;

use aqua::{AquaConfig, AquaEngine};
use aqua_baselines::{Blockhammer, BlockhammerConfig, VictimRefresh, VictimRefreshConfig};
use aqua_dram::mitigation::{Mitigation, NoMitigation};
use aqua_dram::BaselineConfig;
use aqua_faults::{derive_cell_seed, FaultSpec};
use aqua_rrs::{RrsConfig, RrsEngine};
use aqua_sim::{CostAblation, RunReport, ShardedSimulation, SimConfig};
use aqua_telemetry::{
    AlertEngine, AlertNotice, MetricsPlane, Snapshot, SnapshotTracker, Telemetry, TelemetryConfig,
    TelemetrySummary,
};
use aqua_workload::{channel_seed, mix_table, spec, AddressSpace, RequestGenerator};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The mitigation schemes the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No mitigation (the normalization baseline).
    Baseline,
    /// AQUA with SRAM tables (section IV).
    AquaSram,
    /// AQUA with memory-mapped tables (section V).
    AquaMapped,
    /// Randomized Row-Swap.
    Rrs,
    /// Classic distance-1 victim refresh.
    VictimRefresh,
    /// Blockhammer-style throttling.
    Blockhammer,
}

impl Scheme {
    /// Every scheme, in the order the name lists print them.
    const ALL: [Scheme; 6] = [
        Scheme::Baseline,
        Scheme::AquaSram,
        Scheme::AquaMapped,
        Scheme::Rrs,
        Scheme::VictimRefresh,
        Scheme::Blockhammer,
    ];

    /// The scheme [`Scheme::name`] calls `name`, or an error listing every
    /// valid name.
    pub fn from_name(name: &str) -> Result<Scheme, String> {
        let names = Self::ALL.map(Scheme::name).join(", ");
        let found = Self::ALL.into_iter().find(|s| s.name() == name);
        found.ok_or_else(|| format!("unknown scheme; valid names: {names}"))
    }

    /// Scheme name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::AquaSram => "aqua-sram",
            Scheme::AquaMapped => "aqua-mapped",
            Scheme::Rrs => "rrs",
            Scheme::VictimRefresh => "victim-refresh",
            Scheme::Blockhammer => "blockhammer",
        }
    }

    /// The lowest Rowhammer threshold the scheme's configuration accepts
    /// (0 for the baseline, which has none).
    pub fn min_t_rh(self) -> u64 {
        match self {
            Scheme::Baseline => 0,
            Scheme::AquaSram | Scheme::AquaMapped => AquaConfig::MIN_T_RH,
            Scheme::Rrs => RrsConfig::MIN_T_RH,
            Scheme::VictimRefresh => VictimRefreshConfig::MIN_T_RH,
            Scheme::Blockhammer => BlockhammerConfig::MIN_T_RH,
        }
    }
}

/// Soft/hard per-cell wall-clock deadlines, both derivable from the one
/// `AQUA_BENCH_DEADLINE_MS` knob.
///
/// The *soft* deadline is an escalation step: a cell that outlives it
/// prints one straggler report to stderr (see `SimConfig::soft_watchdog`)
/// and keeps running. The *hard* deadline is the cell's watchdog budget —
/// exceeding it kills the cell with [`RunError::WatchdogExpired`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Straggler-report threshold.
    pub soft: std::time::Duration,
    /// Watchdog budget (ignored when [`Harness::watchdog`] is set
    /// explicitly).
    pub hard: std::time::Duration,
}

impl Deadline {
    /// `hard = soft × HARD_FACTOR` when derived from the shared knob.
    pub const HARD_FACTOR: u32 = 4;

    /// Derives both deadlines from one `AQUA_BENCH_DEADLINE_MS` value.
    pub fn from_ms(ms: u64) -> Deadline {
        let soft = std::time::Duration::from_millis(ms);
        Deadline {
            soft,
            hard: soft * Self::HARD_FACTOR,
        }
    }
}

/// Deterministic sabotage of one matrix cell, for exercising the
/// supervision layer itself (`fault_campaign --chaos-cell`): the named
/// cell panics on its first `fail_attempts` attempts and then succeeds,
/// so the determinism probe observes a flaky cell and quarantines it as
/// [`RunError::Nondeterministic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chaos {
    /// `scheme/workload` label of the cell to sabotage.
    pub cell: String,
    /// How many leading attempts panic (1 = flaky, quarantined).
    pub fail_attempts: u32,
}

/// Experiment harness configuration.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Baseline system (Table I).
    pub base: BaselineConfig,
    /// Rowhammer threshold under study.
    pub t_rh: u64,
    /// Simulated epochs per run.
    pub epochs: u64,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads for [`Harness::run_matrix`] (1 = strictly serial).
    pub jobs: usize,
    /// Worker threads for the per-channel shards of one multi-channel
    /// simulation (`AQUA_BENCH_SHARD_WORKERS`; `0` = auto, `1` = serial).
    /// A host-parallelism knob like `jobs`: it never changes results and
    /// is excluded from [`Harness::cell_key`].
    pub shard_workers: usize,
    /// Optional fault campaign. The spec's `seed` is the campaign base
    /// seed; every `(scheme, workload)` cell derives its own plan seed via
    /// [`derive_cell_seed`], so cells stay independent of matrix shape and
    /// scheduling while the whole campaign replays from one number.
    pub faults: Option<FaultSpec>,
    /// Optional per-cell wall-clock budget. A cell that exceeds it panics
    /// inside its pool job (`DramError::WatchdogExpired`) and surfaces as a
    /// failed matrix cell instead of hanging the campaign. Takes precedence
    /// over `deadline.hard` when both are set.
    pub watchdog: Option<std::time::Duration>,
    /// Soft/hard deadline escalation (`AQUA_BENCH_DEADLINE_MS`).
    pub deadline: Option<Deadline>,
    /// Seeded re-runs granted to watchdog-expired cells
    /// (`AQUA_BENCH_RETRIES`, default 1).
    pub retries: u32,
    /// Checkpoint/resume journal path (`AQUA_BENCH_JOURNAL` or the
    /// campaign binaries' `--resume`). When set, [`Harness::run_matrix`]
    /// appends one durable record per concluded cell and replays cells
    /// already concluded by an earlier run.
    pub journal: Option<PathBuf>,
    /// Deterministic supervision-layer sabotage (tests and ci.sh only).
    pub chaos: Option<Chaos>,
    /// Cost-ablation knobs applied to every simulation this harness runs
    /// (the attribution report's what-if re-runs). `CostAblation::NONE`
    /// is the normal, fully-costed configuration.
    pub ablate: CostAblation,
    /// Live metrics plane (`AQUA_METRICS_ADDR` or `--metrics-addr`).
    /// Observer-only and excluded from [`Harness::cell_key`], like every
    /// host-parallelism knob: results are byte-identical with it on or
    /// off.
    pub metrics: Option<Arc<MetricsPlane>>,
}

/// Parses an integer environment value, warning — instead of silently
/// falling back — when a value is present but unparsable.
fn env_parse<T>(name: &str, raw: Option<&str>, default: T) -> T
where
    T: std::str::FromStr + std::fmt::Display + Copy,
{
    let Some(raw) = raw else { return default };
    match raw.trim().parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("warning: ignoring unparsable {name}={raw:?}; using default {default}");
            default
        }
    }
}

/// Worker count used when `AQUA_BENCH_JOBS` is unset: all available cores.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Harness {
    /// Creates the default harness at `t_rh`, honouring `AQUA_BENCH_EPOCHS`,
    /// `AQUA_BENCH_JOBS`, `AQUA_BENCH_RETRIES`, `AQUA_BENCH_DEADLINE_MS`,
    /// and `AQUA_BENCH_JOURNAL` (see the crate docs).
    pub fn new(t_rh: u64) -> Self {
        let epochs = env_parse(
            "AQUA_BENCH_EPOCHS",
            std::env::var("AQUA_BENCH_EPOCHS").ok().as_deref(),
            2,
        );
        // 0 means "auto" (all available cores), same as leaving it unset —
        // it used to silently fall back to serial.
        let jobs = match env_parse(
            "AQUA_BENCH_JOBS",
            std::env::var("AQUA_BENCH_JOBS").ok().as_deref(),
            default_jobs(),
        ) {
            0 => default_jobs(),
            n => n,
        };
        let retries = env_parse(
            "AQUA_BENCH_RETRIES",
            std::env::var("AQUA_BENCH_RETRIES").ok().as_deref(),
            1u32,
        );
        let base = BaselineConfig::paper_table1();
        let channels = env_parse(
            "AQUA_BENCH_CHANNELS",
            std::env::var("AQUA_BENCH_CHANNELS").ok().as_deref(),
            base.channels,
        );
        let shard_workers = env_parse(
            "AQUA_BENCH_SHARD_WORKERS",
            std::env::var("AQUA_BENCH_SHARD_WORKERS").ok().as_deref(),
            0usize,
        );
        let deadline = std::env::var("AQUA_BENCH_DEADLINE_MS")
            .ok()
            .and_then(|raw| match raw.trim().parse::<u64>() {
                Ok(0) | Err(_) => {
                    eprintln!(
                        "warning: ignoring AQUA_BENCH_DEADLINE_MS={raw:?}; \
                         expected a positive integer of milliseconds"
                    );
                    None
                }
                Ok(ms) => Some(Deadline::from_ms(ms)),
            });
        let journal = std::env::var("AQUA_BENCH_JOURNAL")
            .ok()
            .filter(|p| !p.trim().is_empty())
            .map(PathBuf::from);
        Harness {
            base: base.with_channels(channels),
            t_rh,
            epochs,
            seed: 42,
            jobs,
            shard_workers,
            faults: None,
            watchdog: None,
            deadline,
            retries,
            journal,
            chaos: None,
            ablate: CostAblation::NONE,
            metrics: MetricsPlane::from_env(),
        }
    }

    /// The OS-visible address space (97% of rows; AQUA reserves ~1.2%).
    pub fn space(&self) -> AddressSpace {
        AddressSpace::new(self.base.geometry, 0.97)
    }

    /// All 34 known workload names (18 SPEC + 16 mixes), unfiltered.
    pub fn known_workloads() -> Vec<String> {
        spec::TABLE2
            .iter()
            .map(|w| w.name.to_string())
            .chain(mix_table().iter().map(|m| m.name.clone()))
            .collect()
    }

    /// `name` if it is one of [`Harness::known_workloads`], or an error
    /// listing every valid name.
    pub fn known_workload(name: &str) -> Result<String, String> {
        let known = Self::known_workloads();
        if known.iter().any(|w| w == name) {
            return Ok(name.to_string());
        }
        Err(format!(
            "unknown workload; valid names: {}",
            known.join(", ")
        ))
    }

    /// The workloads to run: all 34 names, or the validated subset selected
    /// by `AQUA_BENCH_WORKLOADS`.
    ///
    /// A selection that names an unknown workload, or is not UTF-8, ends
    /// the process with exit code 2 and one line (listing every valid name
    /// for an unknown one), as a bad argument does, so a binary calls this
    /// before it does any work.
    pub fn workloads(&self) -> Vec<String> {
        let selection = match std::env::var("AQUA_BENCH_WORKLOADS") {
            Ok(raw) => Self::select_workloads(Some(&raw)),
            Err(std::env::VarError::NotPresent) => Self::select_workloads(None),
            Err(std::env::VarError::NotUnicode(raw)) => {
                Err(format!("AQUA_BENCH_WORKLOADS {raw:?} is not UTF-8"))
            }
        };
        selection.unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Resolves an `AQUA_BENCH_WORKLOADS`-style selection (`None` = unset).
    ///
    /// Empty entries — a bare empty string, doubled or trailing commas —
    /// are filtered out rather than becoming a bogus `""` workload, and
    /// every surviving name is validated eagerly so a typo fails here with
    /// the full list of valid names instead of panicking mid-figure.
    fn select_workloads(raw: Option<&str>) -> Result<Vec<String>, String> {
        let known = Self::known_workloads();
        let Some(raw) = raw else { return Ok(known) };
        let picked: Vec<String> = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        if picked.is_empty() {
            eprintln!(
                "warning: AQUA_BENCH_WORKLOADS={raw:?} selects nothing; \
                 running all {} workloads",
                known.len()
            );
            return Ok(known);
        }
        for name in &picked {
            Self::known_workload(name)
                .map_err(|e| format!("AQUA_BENCH_WORKLOADS entry {name:?}: {e}"))?;
        }
        Ok(picked)
    }

    /// The per-core generators of one channel shard for a workload name (a
    /// SPEC name or `mixNN`): the same workload shape, seeded with
    /// [`channel_seed`] so each channel hammers its own rows. Channel 0
    /// keeps the harness seed unchanged.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    pub fn generators_for_channel(
        &self,
        workload: &str,
        channel: u32,
    ) -> Vec<Box<dyn RequestGenerator>> {
        let space = self.space();
        let seed = channel_seed(self.seed, channel);
        if let Some(w) = spec::by_name(workload) {
            return (0..self.base.cores)
                .map(|c| {
                    Box::new(w.generator(&space, c, self.base.cores, seed))
                        as Box<dyn RequestGenerator>
                })
                .collect();
        }
        if let Some(m) = mix_table().iter().find(|m| m.name == workload) {
            return (0..self.base.cores)
                .map(|c| Box::new(m.generator(&space, c, seed)) as Box<dyn RequestGenerator>)
                .collect();
        }
        panic!(
            "unknown workload {workload}; valid names: {}",
            Self::known_workloads().join(", ")
        );
    }

    /// Simulator configuration for one `(scheme, workload)` cell: the shared
    /// base plus, when a fault campaign is active, that cell's derived fault
    /// plan seed and the optional soft/hard wall-clock deadlines.
    pub fn sim_config(&self, scheme_name: &str, workload: &str) -> SimConfig {
        let mut cfg = SimConfig::new(self.base)
            .epochs(self.epochs)
            .t_rh(self.t_rh)
            .ablate(self.ablate);
        if let Some(spec) = self.faults {
            cfg = cfg.faults(FaultSpec {
                seed: derive_cell_seed(spec.seed, scheme_name, workload),
                ..spec
            });
        }
        if let Some(deadline) = self.deadline {
            cfg = cfg.soft_watchdog(deadline.soft);
        }
        if let Some(budget) = self.watchdog.or(self.deadline.map(|d| d.hard)) {
            cfg = cfg.watchdog(budget);
        }
        cfg
    }

    /// The checkpoint key of one cell: a digest of everything that
    /// determines its result — experiment label, scheme, workload, seed,
    /// epochs, threshold, geometry, fault spec, and ablation. Host-time
    /// knobs (watchdog, deadline, jobs) are excluded on purpose, so a run
    /// may be resumed under different time budgets (see [`journal`]).
    pub fn cell_key(&self, experiment: &str, scheme: &str, workload: &str) -> CellKey {
        CellKey::digest(&[
            experiment,
            scheme,
            workload,
            &self.seed.to_string(),
            &self.epochs.to_string(),
            &self.t_rh.to_string(),
            &format!("{:?}", self.base),
            &format!("{:?}", self.faults),
            &format!("{:?}", self.ablate),
        ])
    }

    /// Opens this harness's checkpoint journal, if one is configured.
    ///
    /// A journal that cannot be opened or read (a path that cannot be
    /// created, an unreadable file, an unsupported format version) ends the
    /// process with exit code 2 and one line naming it, as a bad argument
    /// does, and leaves the file as it was: resuming against a journal we
    /// cannot honour must not silently restart the campaign from zero.
    /// Every caller opens the journal before its first cell runs.
    pub fn open_journal(&self) -> Option<journal::Journal> {
        let path = self.journal.as_ref()?;
        Some(journal::Journal::open(path).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        }))
    }

    /// Trips the configured chaos sabotage for a matching cell/attempt.
    fn chaos_check(&self, scheme: Scheme, workload: &str, attempt: u32) {
        if let Some(chaos) = &self.chaos {
            if chaos.cell == format!("{}/{workload}", scheme.name())
                && attempt <= chaos.fail_attempts
            {
                panic!(
                    "chaos: injected failure for {} (attempt {attempt})",
                    chaos.cell
                );
            }
        }
    }

    /// AQUA configuration at this harness's threshold.
    pub fn aqua_config(&self) -> AquaConfig {
        AquaConfig::for_rowhammer_threshold(self.t_rh, &self.base)
    }

    /// The one simulation path every run goes through: one engine per
    /// channel from `engines`, per-channel generator streams seeded with
    /// [`channel_seed`], fanned out on [`ShardedSimulation`] with
    /// `self.shard_workers` workers. Returns the merged report and the
    /// engines in channel order, for callers that read scheme-specific
    /// statistics (tracker SRAM bits, lookup breakdowns, ...) after the
    /// run. `scheme_name` seeds the cell's fault plan and labels its
    /// metrics-plane source. A single-channel harness passes through to
    /// the plain [`aqua_sim::Simulation`] byte-identically.
    pub fn run_engines<M: Mitigation>(
        &self,
        scheme_name: &str,
        engines: impl FnMut(u32) -> M,
        workload: &str,
        telemetry: Option<&Telemetry>,
    ) -> (RunReport, Vec<M>) {
        let mut sim =
            ShardedSimulation::new(self.sim_config(scheme_name, workload), engines, |channel| {
                self.generators_for_channel(workload, channel)
            })
            .shard_workers(self.shard_workers);
        if let Some(hub) = telemetry {
            sim.attach_telemetry(hub.clone());
        }
        if let Some(plane) = &self.metrics {
            sim.attach_metrics_plane(Arc::clone(plane), format!("{scheme_name}/{workload}"));
        }
        let (mut report, engines) = sim.run_engines();
        report.workload = workload.to_string();
        (report, engines)
    }

    /// Runs one `(scheme, workload)` pair and returns its report.
    pub fn run(&self, scheme: Scheme, workload: &str) -> RunReport {
        self.run_instrumented(scheme, workload, None)
    }

    /// Runs one `(scheme, workload)` pair with an optional telemetry hub
    /// attached to the whole stack (simulator, channel, and mitigation).
    ///
    /// The hub keeps its event trace, histograms, and per-epoch time-series
    /// after the run, so callers can export them (`simulate --trace-out`).
    ///
    /// Every scheme runs through [`Harness::run_engines`]: one private
    /// engine instance per channel (built here, per channel, from the same
    /// scheme config), merged deterministically in channel order.
    pub fn run_instrumented(
        &self,
        scheme: Scheme,
        workload: &str,
        telemetry: Option<&Telemetry>,
    ) -> RunReport {
        let geometry = self.base.geometry;
        let name = scheme.name();
        match scheme {
            Scheme::Baseline => {
                self.run_engines(name, |_c| NoMitigation::new(geometry), workload, telemetry)
                    .0
            }
            Scheme::AquaSram | Scheme::AquaMapped => {
                let cfg = if scheme == Scheme::AquaMapped {
                    self.aqua_config().with_mapped_tables()
                } else {
                    self.aqua_config()
                };
                self.run_engines(
                    name,
                    |_c| AquaEngine::new(cfg).expect("valid AQUA config"),
                    workload,
                    telemetry,
                )
                .0
            }
            Scheme::Rrs => {
                let cfg = RrsConfig::for_rowhammer_threshold(self.t_rh, &self.base);
                self.run_engines(name, |_c| RrsEngine::new(cfg), workload, telemetry)
                    .0
            }
            Scheme::VictimRefresh => {
                let cfg = VictimRefreshConfig::for_rowhammer_threshold(self.t_rh);
                self.run_engines(
                    name,
                    |_c| VictimRefresh::new(cfg, geometry),
                    workload,
                    telemetry,
                )
                .0
            }
            Scheme::Blockhammer => {
                let cfg = BlockhammerConfig::for_rowhammer_threshold(self.t_rh);
                self.run_engines(
                    name,
                    |_c| Blockhammer::new(cfg, geometry),
                    workload,
                    telemetry,
                )
                .0
            }
        }
    }

    /// Runs the full `schemes` × `workloads` matrix on the worker pool
    /// (`self.jobs` workers) and returns every cell in deterministic
    /// workload-major input order.
    ///
    /// Each job is index-tagged, so scheduling order never changes the
    /// result; a job that panics becomes a failed cell (see
    /// [`MatrixResults::expect_complete`]) instead of aborting the figure.
    pub fn run_matrix(&self, schemes: &[Scheme], workloads: &[String]) -> MatrixResults {
        self.run_matrix_instrumented(schemes, workloads, None)
    }

    /// [`Harness::run_matrix`] with an optional telemetry hub.
    ///
    /// Every job records into its own [`Telemetry::fork`] of `telemetry`;
    /// after the pool drains, the forks are merged back with
    /// [`Telemetry::merge_from`] in job-index order, so the aggregate
    /// counters, histograms, and epoch series are identical whether the
    /// matrix ran on one worker or sixteen.
    ///
    /// Cells run under the supervision layer: `self.retries` seeded
    /// re-runs for watchdog expiries, a determinism probe for other
    /// panics, and — when `self.journal` is set — a durable checkpoint
    /// record per concluded cell plus replay of cells an earlier run
    /// already concluded. A replayed cell's report carries
    /// `telemetry: None` and merges nothing into the parent hub.
    pub fn run_matrix_instrumented(
        &self,
        schemes: &[Scheme],
        workloads: &[String],
        telemetry: Option<&Telemetry>,
    ) -> MatrixResults {
        // A live metrics plane needs per-epoch snapshots, which only an
        // enabled hub can feed. When the caller brought none, create an
        // internal one just for observation: the journal codec drops
        // telemetry and no CSV writer reads it, so deterministic outputs
        // are unchanged (the metrics-plane determinism tests diff the
        // bytes).
        let auto_hub = (telemetry.is_none() && self.metrics.is_some())
            .then(|| Telemetry::new(TelemetryConfig::default()));
        let telemetry = telemetry.or(auto_hub.as_ref());
        // Wallclock phases on the *parent* hub bracket the coordinator's
        // three stages; per-job sim phases land in the per-job forks and
        // merge back underneath.
        let parent = telemetry.cloned().unwrap_or_default();
        let setup_phase = parent.phase("bench.setup");
        let jobs: Vec<(Scheme, &String)> = workloads
            .iter()
            .flat_map(|w| schemes.iter().map(move |&s| (s, w)))
            .collect();
        let total = jobs.len();
        let done = AtomicUsize::new(0);
        let journal = self.open_journal();
        let keys: Vec<CellKey> = jobs
            .iter()
            .map(|&(s, w)| self.cell_key("matrix", s.name(), w))
            .collect();
        let labels: Vec<String> = jobs
            .iter()
            .map(|&(s, w)| format!("{}/{w}", s.name()))
            .collect();
        if let Some(plane) = &self.metrics {
            // Accumulate (not overwrite): campaigns run several matrices
            // back to back and the board is one run-wide rollup.
            plane.update_cells(|c| c.total += total as u64);
        }
        let supervisor = Supervisor {
            max_retries: self.retries,
            telemetry: parent.clone(),
            plane: self.metrics.clone(),
        };
        let binding = journal.as_ref().map(|j| supervise::JournalBinding {
            journal: j,
            keys: &keys,
            labels: &labels,
            codec: supervise::Codec {
                encode: encode_matrix_outcome,
                decode: decode_matrix_outcome,
            },
        });
        setup_phase.finish();
        let heartbeat = self
            .metrics
            .as_ref()
            .map(|plane| Heartbeat::start(Arc::clone(plane), parent.clone()));
        let run_phase = parent.phase("bench.run");
        let outcomes = supervise::run_supervised(
            self.jobs,
            &jobs,
            &supervisor,
            binding.as_ref(),
            |_, &(scheme, workload), attempt| {
                self.chaos_check(scheme, workload, attempt);
                let hub = telemetry.map(Telemetry::fork);
                let report = self.run_instrumented(scheme, workload, hub.as_ref());
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{finished}/{total}] {}/{workload} done", scheme.name());
                (report, hub)
            },
        );
        run_phase.finish();
        // Stop the heartbeat before forks merge into the parent: once the
        // parent hub carries the merged `sim.*` counters, republishing it
        // as the `bench` source would double-count them in the plane's
        // aggregates.
        if let Some(hb) = heartbeat {
            hb.stop();
        }
        let merge_phase = parent.phase("bench.merge");
        let cells = jobs
            .into_iter()
            .zip(outcomes)
            .map(|((scheme, workload), attempted)| {
                let outcome = match attempted.outcome {
                    Ok((report, hub)) => {
                        if let (Some(parent), Some(job_hub)) = (telemetry, hub) {
                            parent.merge_from(&job_hub);
                        }
                        Ok(report)
                    }
                    Err(err) => {
                        eprintln!(
                            "[matrix] {}/{workload} FAILED ({}): {err}",
                            scheme.name(),
                            err.kind()
                        );
                        Err(err)
                    }
                };
                MatrixCell {
                    scheme,
                    workload: workload.clone(),
                    outcome,
                    attempts: attempted.attempts,
                    resumed: attempted.resumed,
                }
            })
            .collect();
        merge_phase.finish();
        MatrixResults::new(cells)
    }
}

/// Host-time heartbeat of one matrix run: every 200 ms it publishes the
/// coordinator hub's snapshot under the `bench` source and evaluates the
/// host-time (`rate`) alert rules over the aggregate `sim.requests` of
/// every sim source published on the plane. Host-only by construction:
/// firings warn on stderr and surface on `/healthz`, but never enter the
/// deterministic event ring (see [`aqua_telemetry::alerts`]).
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    const INTERVAL: std::time::Duration = std::time::Duration::from_millis(200);

    fn start(plane: Arc<MetricsPlane>, parent: Telemetry) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("aqua-heartbeat".into())
            .spawn(move || Self::beat(&plane, &parent, &stop_flag))
            .expect("spawn heartbeat thread");
        Heartbeat { stop, handle }
    }

    fn beat(plane: &MetricsPlane, parent: &Telemetry, stop: &AtomicBool) {
        let mut engine = AlertEngine::from_env();
        let mut tracker = SnapshotTracker::new();
        let mut prev_requests = 0u64;
        let mut last = std::time::Instant::now();
        let mut seq = 0u64;
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Self::INTERVAL);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if let Some(snap) = tracker.capture(parent) {
                plane.publish("bench", snap);
            }
            let requests = plane.aggregate_counter("sim.requests");
            let now = std::time::Instant::now();
            let elapsed_ns = now.duration_since(last).as_nanos() as u64;
            last = now;
            seq += 1;
            // Rate rules only make sense once traffic has been observed:
            // before the first sim source publishes, every rate is 0 and a
            // collapse alert would be pure startup noise.
            if prev_requests > 0 {
                let snap = Snapshot {
                    seq,
                    summary: TelemetrySummary {
                        counters: vec![("sim.requests".to_string(), requests)],
                        ..TelemetrySummary::default()
                    },
                    counter_deltas: vec![(
                        "sim.requests".to_string(),
                        requests.saturating_sub(prev_requests),
                    )],
                    host_elapsed_ns: elapsed_ns,
                    ..Snapshot::default()
                };
                for firing in engine.evaluate_host(&snap) {
                    eprintln!(
                        "warning: [alert] {} fired on the bench heartbeat: \
                         observed {} vs threshold {}",
                        firing.rule, firing.value, firing.threshold
                    );
                    plane.note_alert(AlertNotice {
                        rule: firing.rule.to_string(),
                        value: firing.value,
                        threshold: firing.threshold,
                        source: "bench".to_string(),
                        host_time: true,
                    });
                }
            }
            prev_requests = requests;
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// Journal payload codec for matrix cells: the report alone is durable;
/// the per-job telemetry fork is a live host-side object and is dropped
/// (a replayed cell merges nothing into the parent hub).
fn encode_matrix_outcome(cell: &(RunReport, Option<Telemetry>)) -> String {
    journal::report_to_json(&cell.0)
}

fn decode_matrix_outcome(
    value: &gate::JsonValue,
) -> Result<(RunReport, Option<Telemetry>), String> {
    journal::report_from_json(value).map(|report| (report, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness {
            base: BaselineConfig::paper_table1(),
            t_rh: 1000,
            epochs: 1,
            seed: 1,
            jobs: 1,
            shard_workers: 0,
            faults: None,
            watchdog: None,
            deadline: None,
            retries: 1,
            journal: None,
            chaos: None,
            ablate: CostAblation::NONE,
            metrics: None,
        }
    }

    /// A harness small enough to run whole simulations in a unit test.
    fn sim_harness(jobs: usize) -> Harness {
        Harness {
            base: BaselineConfig::tiny(),
            t_rh: 1000,
            epochs: 2,
            seed: 1,
            jobs,
            shard_workers: 0,
            faults: None,
            watchdog: None,
            deadline: None,
            retries: 1,
            journal: None,
            chaos: None,
            ablate: CostAblation::NONE,
            metrics: None,
        }
    }

    fn tmp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("aqua-bench-lib-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn workload_list_has_34_entries() {
        let h = tiny_harness();
        // (Unless the env var narrows it; tests run with a clean env.)
        if std::env::var("AQUA_BENCH_WORKLOADS").is_err() {
            assert_eq!(h.workloads().len(), 34);
        }
    }

    #[test]
    fn generators_exist_for_spec_and_mixes() {
        let h = tiny_harness();
        assert_eq!(h.generators_for_channel("povray", 0).len(), 4);
        assert_eq!(h.generators_for_channel("mix00", 0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        tiny_harness().generators_for_channel("nope", 0);
    }

    #[test]
    fn scheme_names_are_distinct() {
        let names: std::collections::HashSet<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 6);
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::from_name(scheme.name()), Ok(scheme));
        }
        let err = Scheme::from_name("nope").unwrap_err();
        assert!(err.contains("aqua-sram, aqua-mapped"), "{err}");
    }

    // -- env-var parsing (regression tests for the silent-fallback bugs) --

    #[test]
    fn env_parse_accepts_valid_and_warns_on_garbage() {
        assert_eq!(env_parse("X", None, 2u64), 2);
        assert_eq!(env_parse("X", Some("7"), 2u64), 7);
        assert_eq!(env_parse("X", Some(" 7 "), 2u64), 7);
        // Unparsable values fall back to the default (with a warning on
        // stderr) instead of being silently swallowed.
        assert_eq!(env_parse("X", Some("abc"), 2u64), 2);
        assert_eq!(env_parse("X", Some(""), 2u64), 2);
        assert_eq!(env_parse("X", Some("7.5"), 4usize), 4);
    }

    #[test]
    fn workload_selection_filters_empties_and_validates_eagerly() {
        // Unset: the full list.
        assert_eq!(Harness::select_workloads(None).unwrap().len(), 34);
        // Empty entries (trailing comma, doubled comma, whitespace) vanish.
        assert_eq!(
            Harness::select_workloads(Some("povray,,mcf,")).unwrap(),
            vec!["povray".to_string(), "mcf".to_string()]
        );
        assert_eq!(
            Harness::select_workloads(Some(" lbm , mix03 ")).unwrap(),
            vec!["lbm".to_string(), "mix03".to_string()]
        );
        // An all-empty selection falls back to the full list.
        assert_eq!(Harness::select_workloads(Some("")).unwrap().len(), 34);
        assert_eq!(Harness::select_workloads(Some(",,")).unwrap().len(), 34);
        // Unknown names fail eagerly and the error lists the valid names.
        let err = Harness::select_workloads(Some("povray,nope")).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        assert!(err.contains("valid names"), "{err}");
        assert!(err.contains("povray") && err.contains("mix15"), "{err}");
    }

    // -- parallel runner ----------------------------------------------------

    fn small_matrix(jobs: usize, telemetry: Option<&Telemetry>) -> MatrixResults {
        // Schemes whose configs are geometry-agnostic (AQUA's paper-scale
        // table sizing does not fit BaselineConfig::tiny).
        let schemes = [Scheme::Baseline, Scheme::VictimRefresh, Scheme::Blockhammer];
        let workloads = vec!["povray".to_string(), "namd".to_string()];
        sim_harness(jobs).run_matrix_instrumented(&schemes, &workloads, telemetry)
    }

    #[test]
    fn parallel_matrix_is_identical_to_serial() {
        let serial = small_matrix(1, None);
        let parallel = small_matrix(4, None);
        assert_eq!(serial.failures().count(), 0);
        assert_eq!(serial, parallel);
        // Cells come back workload-major regardless of scheduling.
        let order: Vec<(&str, &str)> = parallel
            .cells()
            .iter()
            .map(|c| (c.scheme.name(), c.workload.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("baseline", "povray"),
                ("victim-refresh", "povray"),
                ("blockhammer", "povray"),
                ("baseline", "namd"),
                ("victim-refresh", "namd"),
                ("blockhammer", "namd"),
            ]
        );
    }

    #[test]
    fn merged_telemetry_is_scheduling_independent() {
        let hub_serial = Telemetry::new(Default::default());
        let hub_parallel = Telemetry::new(Default::default());
        small_matrix(1, Some(&hub_serial));
        small_matrix(4, Some(&hub_parallel));
        assert_eq!(hub_serial.summary(), hub_parallel.summary());
        assert_eq!(hub_serial.epochs(), hub_parallel.epochs());
        assert!(hub_serial.summary().unwrap().counter("sim.activations") > Some(0));
    }

    /// Hot-loop campaign regression: after the hasher/container swap and
    /// the allocation-free serve path, JOBS=1 and JOBS=2 must still emit
    /// **byte-identical** artifacts — both the rendered CSV rows and the
    /// merged span stream, not just summary-level equality.
    #[test]
    fn jobs_one_vs_two_emit_byte_identical_csv_and_spans() {
        fn render_csv(results: &MatrixResults) -> String {
            let mut out = String::from("scheme,workload,requests_done,migrations\n");
            for report in results.reports() {
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    report.scheme,
                    report.workload,
                    report.requests_done,
                    report.mitigation.row_migrations
                ));
            }
            out
        }
        let hub_serial = Telemetry::new(Default::default());
        let hub_parallel = Telemetry::new(Default::default());
        let serial = small_matrix(1, Some(&hub_serial));
        let parallel = small_matrix(2, Some(&hub_parallel));
        assert_eq!(serial.failures().count(), 0);
        let csv_serial = render_csv(&serial);
        assert_eq!(csv_serial.as_bytes(), render_csv(&parallel).as_bytes());
        assert!(csv_serial.lines().count() > 1, "matrix produced no rows");

        // The quiet matrix above exercises the CSV path but emits no spans;
        // span byte-identity needs cells that actually mitigate. Same
        // fault-heavy tiny-AQUA campaign as the degraded-epoch test.
        fn span_run(jobs: usize) -> Telemetry {
            let mut h = sim_harness(jobs);
            h.faults = Some(FaultSpec {
                seed: 11,
                events_per_epoch: 24,
            });
            let hub = Telemetry::new(Default::default());
            let workloads = ["povray", "namd", "leela"];
            let outcomes = pool::run_indexed(jobs, &workloads, |_, w| {
                let fork = hub.fork();
                h.run_engines("aqua-sram", |_| tiny_aqua_engine(&h.base), w, Some(&fork));
                fork
            });
            for outcome in outcomes {
                hub.merge_from(&outcome.expect("cell completes"));
            }
            hub
        }
        let hub_serial = span_run(1);
        let hub_parallel = span_run(2);
        let spans_serial = format!("{:?}", hub_serial.spans());
        let spans_parallel = format!("{:?}", hub_parallel.spans());
        assert!(!hub_serial.spans().is_empty(), "no spans recorded");
        assert_eq!(spans_serial.as_bytes(), spans_parallel.as_bytes());
    }

    /// The tentpole's bench-level determinism contract: a 4-channel
    /// campaign — matrix CSV rows, merged telemetry spans, checkpoint
    /// journal bytes, and fault-heavy sharded AQUA cells that pass through
    /// degraded-mode epochs — must be **byte-identical** at 1, 2, and 8
    /// shard workers. Only wallclock may change with the worker count.
    #[test]
    fn shard_workers_one_two_eight_emit_byte_identical_artifacts() {
        fn run(shard_workers: usize) -> (String, String, String, Vec<RunReport>) {
            let path = tmp_journal(&format!("shard-det-{shard_workers}"));
            let mut h = sim_harness(1); // serial matrix: isolate shard_workers
            h.base = h.base.with_channels(4);
            h.shard_workers = shard_workers;
            h.faults = Some(FaultSpec {
                seed: 11,
                events_per_epoch: 24,
            });
            h.journal = Some(path.clone());
            let hub = Telemetry::new(Default::default());
            let schemes = [Scheme::Baseline, Scheme::VictimRefresh, Scheme::Blockhammer];
            let workloads = vec!["povray".to_string(), "namd".to_string()];
            let results = h.run_matrix_instrumented(&schemes, &workloads, Some(&hub));
            results.expect_complete();
            let mut csv = String::from("scheme,workload,requests_done,migrations\n");
            for report in results.reports() {
                csv.push_str(&format!(
                    "{},{},{},{}\n",
                    report.scheme,
                    report.workload,
                    report.requests_done,
                    report.mitigation.row_migrations
                ));
            }
            let journal_bytes = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            // Degraded-bank leg: fault-heavy tiny-AQUA cells on the same
            // sharded path (paper-scale AQUA does not fit tiny geometry).
            let aqua: Vec<RunReport> = ["povray", "namd"]
                .iter()
                .map(|w| {
                    h.run_engines("aqua-sram", |_| tiny_aqua_engine(&h.base), w, Some(&hub))
                        .0
                })
                .collect();
            let spans = format!("{:?}", hub.spans());
            (csv, journal_bytes, spans, aqua)
        }
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert!(one.0.lines().count() > 1, "matrix produced no rows");
        assert!(!one.1.is_empty(), "journal recorded nothing");
        assert!(one.2 != "[]", "no spans recorded");
        // The AQUA leg exercised what it claims: every channel of every
        // cell dispatched its plan (2 epochs x 24 events x 4 channels x 2
        // workloads) and at least one bank passed through degraded mode.
        let injected: u64 = one.3.iter().map(|r| r.faults.injected).sum();
        assert_eq!(injected, 2 * 24 * 4 * 2);
        let degraded: u64 = one.3.iter().map(|r| r.faults.degraded_epochs).sum();
        assert!(
            degraded > 0,
            "no degraded-mode epochs; raise the fault rate"
        );
        // Channel shards concatenate per-core counts channel-major.
        assert_eq!(
            one.3[0].per_core.len(),
            4 * BaselineConfig::tiny().cores as usize
        );
    }

    /// The metrics plane's determinism contract (DESIGN.md section 16):
    /// matrix CSV rows, checkpoint journal bytes, merged span and event
    /// dumps must be **byte-identical** whether or not a live plane is
    /// attached, at 1 and at 4 shard workers — the plane is an observer,
    /// never a participant.
    #[test]
    fn metrics_plane_never_changes_deterministic_artifacts() {
        fn run(with_plane: bool, shard_workers: usize) -> (String, String, String) {
            let path = tmp_journal(&format!("plane-det-{with_plane}-{shard_workers}"));
            let mut h = sim_harness(1); // serial matrix: isolate the plane
            h.base = h.base.with_channels(4);
            h.shard_workers = shard_workers;
            h.faults = Some(FaultSpec {
                seed: 11,
                events_per_epoch: 24,
            });
            h.journal = Some(path.clone());
            if with_plane {
                h.metrics = Some(MetricsPlane::bind("127.0.0.1:0").expect("bind ephemeral"));
            }
            let hub = Telemetry::new(Default::default());
            let schemes = [Scheme::Baseline, Scheme::VictimRefresh, Scheme::Blockhammer];
            let workloads = vec!["povray".to_string(), "namd".to_string()];
            let results = h.run_matrix_instrumented(&schemes, &workloads, Some(&hub));
            results.expect_complete();
            let mut csv = String::from("scheme,workload,requests_done,migrations\n");
            for report in results.reports() {
                csv.push_str(&format!(
                    "{},{},{},{}\n",
                    report.scheme,
                    report.workload,
                    report.requests_done,
                    report.mitigation.row_migrations
                ));
            }
            let journal_bytes = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let dumps = format!("{:?}{:?}", hub.spans(), hub.trace_events());
            if let Some(plane) = &h.metrics {
                // The observer actually observed: per-channel shard
                // snapshots landed on the board.
                assert!(
                    plane.aggregate_counter("sim.requests") > 0,
                    "plane saw no published snapshots"
                );
                plane.shutdown();
            }
            (csv, journal_bytes, dumps)
        }
        let off = run(false, 1);
        assert_eq!(off, run(true, 1), "plane on/off must not change bytes");
        assert_eq!(off, run(true, 4), "plane + 4 shard workers changed bytes");
        assert!(off.0.lines().count() > 1, "matrix produced no rows");
        assert!(!off.1.is_empty(), "journal recorded nothing");
    }

    /// Deterministic alerting is part of the run, not the plane: a
    /// fault-heavy campaign trips the default `degraded_rising` /
    /// `integrity_escape` rules, counts them on `sim.alerts_fired`, and
    /// records `AlertFired` events in the ring — with no plane attached.
    #[test]
    fn alert_rules_fire_on_faulted_runs_without_a_plane() {
        let mut h = sim_harness(1);
        h.faults = Some(FaultSpec {
            seed: 11,
            events_per_epoch: 24,
        });
        let hub = Telemetry::new(Default::default());
        let mut fired = 0;
        for w in ["povray", "namd", "leela"] {
            let fork = hub.fork();
            let (report, _) =
                h.run_engines("aqua-sram", |_| tiny_aqua_engine(&h.base), w, Some(&fork));
            fired += report
                .telemetry
                .as_ref()
                .and_then(|t| t.counter("sim.alerts_fired"))
                .unwrap_or(0);
            hub.merge_from(&fork);
        }
        assert!(fired > 0, "no alert rule fired on a fault-heavy campaign");
        let ring_alerts = hub
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, aqua_telemetry::EventKind::AlertFired { .. }))
            .count() as u64;
        assert_eq!(ring_alerts, fired, "every firing lands in the event ring");
    }

    /// The one run path hands back every channel's engine, and the merged
    /// report is exactly their sum.
    #[test]
    fn run_engines_returns_one_engine_per_channel() {
        let mut h = sim_harness(1);
        h.base = h.base.with_channels(2);
        // A threshold low enough that namd's rows migrate on both channels.
        let mut cfg = AquaConfig::for_rowhammer_threshold(4, &h.base);
        cfg.tracker_entries_per_bank = 64;
        cfg.rqa_rows = 64;
        cfg.fpt_entries = 256;
        let (report, engines) = h.run_engines(
            "aqua-sram",
            |_| AquaEngine::new(cfg).expect("valid AQUA config"),
            "namd",
            None,
        );
        assert_eq!(engines.len(), 2);
        let per_channel: Vec<u64> = engines
            .iter()
            .map(|e| e.mitigation_stats().row_migrations)
            .collect();
        assert!(per_channel.iter().all(|&m| m > 0), "{per_channel:?}");
        assert_eq!(
            per_channel.iter().sum::<u64>(),
            report.mitigation.row_migrations
        );
    }

    /// A reduced AQUA configuration that fits `BaselineConfig::tiny` (the
    /// paper-scale table sizing does not), so whole fault campaigns run in
    /// a unit test.
    fn tiny_aqua_engine(base: &BaselineConfig) -> AquaEngine {
        let mut cfg = AquaConfig::for_rowhammer_threshold(20, base);
        cfg.tracker_entries_per_bank = 64;
        cfg.rqa_rows = 8;
        cfg.fpt_entries = 64;
        AquaEngine::new(cfg).expect("tiny AQUA config is valid")
    }

    /// Satellite check for the span layer: span **and** fault telemetry
    /// recorded through per-job [`Telemetry::fork`]s and merged back with
    /// [`Telemetry::merge_from`] must be identical whether the campaign ran
    /// serially or on two workers — while the engines actually pass through
    /// degraded-mode epochs (fault-heavy tiny AQUA cells).
    #[test]
    fn span_and_fault_telemetry_merge_survives_degraded_epochs() {
        fn run(jobs: usize) -> (Telemetry, Vec<RunReport>) {
            let mut h = sim_harness(jobs);
            h.faults = Some(FaultSpec {
                seed: 11,
                events_per_epoch: 24,
            });
            let hub = Telemetry::new(Default::default());
            // Workloads without Table II hot rows: their hot-row indices
            // would fall outside BaselineConfig::tiny's address space.
            let workloads = ["povray", "namd", "leela"];
            let outcomes = pool::run_indexed(jobs, &workloads, |_, w| {
                let fork = hub.fork();
                let (report, _) =
                    h.run_engines("aqua-sram", |_| tiny_aqua_engine(&h.base), w, Some(&fork));
                (report, fork)
            });
            let reports = outcomes
                .into_iter()
                .map(|outcome| {
                    let (report, fork) = outcome.expect("cell completes");
                    hub.merge_from(&fork);
                    report
                })
                .collect();
            (hub, reports)
        }
        let (hub_serial, reports_serial) = run(1);
        let (hub_parallel, reports_parallel) = run(2);
        assert_eq!(reports_serial, reports_parallel);
        // The campaign actually exercised what it claims to: faults were
        // injected and at least one bank spent epochs in degraded mode.
        let degraded: u64 = reports_serial
            .iter()
            .map(|r| r.faults.degraded_epochs)
            .sum();
        let injected: u64 = reports_serial.iter().map(|r| r.faults.injected).sum();
        assert!(injected > 0, "no faults dispatched");
        assert!(
            degraded > 0,
            "no degraded-mode epochs; raise the fault rate"
        );
        let serial = hub_serial.summary().unwrap();
        assert_eq!(Some(&serial), hub_parallel.summary().as_ref());
        assert!(serial.spans_recorded > 0, "no spans crossed the merge");
        assert!(
            serial.histogram("span.sim.mitigation").is_some(),
            "merged span stats must keep per-name histograms"
        );
        assert!(serial.counter("aqua.faults_injected") > Some(0));
    }

    #[test]
    fn faulted_matrix_replays_deterministically() {
        let mut h = sim_harness(2);
        h.faults = Some(FaultSpec {
            seed: 5,
            events_per_epoch: 8,
        });
        h.watchdog = Some(std::time::Duration::from_secs(600));
        let schemes = [Scheme::Baseline, Scheme::VictimRefresh, Scheme::Blockhammer];
        let workloads = vec!["povray".to_string()];
        let first = h.run_matrix(&schemes, &workloads);
        let replay = h.run_matrix(&schemes, &workloads);
        assert_eq!(first.failures().count(), 0);
        assert_eq!(first, replay);
        for report in first.reports() {
            // 2 epochs x 8 events, fully dispatched and fully accounted.
            assert_eq!(report.faults.injected, 16);
            assert_eq!(report.faults.unaccounted, 0);
        }
    }

    #[test]
    fn zero_rate_faults_leave_the_matrix_unchanged() {
        let mut faulted = sim_harness(1);
        faulted.faults = Some(FaultSpec {
            seed: 9,
            events_per_epoch: 0,
        });
        let schemes = [Scheme::Baseline, Scheme::VictimRefresh];
        let workloads = vec!["namd".to_string()];
        let with_plumbing = faulted.run_matrix(&schemes, &workloads);
        let plain = sim_harness(1).run_matrix(&schemes, &workloads);
        assert_eq!(with_plumbing, plain);
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let schemes = [Scheme::Baseline];
        // Bypasses workloads()'s eager validation on purpose: the unknown
        // name panics inside the job, which must surface as a failed cell
        // while the valid cell still completes.
        let workloads = vec!["povray".to_string(), "not-a-workload".to_string()];
        let results = sim_harness(2).run_matrix(&schemes, &workloads);
        assert!(results.try_get(Scheme::Baseline, "povray").is_ok());
        let err = results
            .try_get(Scheme::Baseline, "not-a-workload")
            .unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert_eq!(results.failures().count(), 1);
        // The probe re-ran the panicking cell once from its seed and saw
        // the identical message: a classified, deterministic panic.
        let bad = &results.cells()[1];
        assert_eq!(bad.attempts, 2);
        assert!(
            matches!(bad.outcome, Err(RunError::Panic(_))),
            "{:?}",
            bad.outcome
        );
    }

    // -- supervision layer ---------------------------------------------------

    /// Satellite e2e check: a zero-budget watchdog must surface as the
    /// typed `RunError::WatchdogExpired` (not a bare panic string), leave
    /// sibling cells intact, and land in the journal as retriable.
    #[test]
    fn watchdog_zero_surfaces_typed_error_and_journals_retriable() {
        let path = tmp_journal("watchdog-zero");
        let schemes = [Scheme::Baseline, Scheme::VictimRefresh];
        let workloads = vec!["povray".to_string()];
        let mut strangled = sim_harness(2);
        strangled.watchdog = Some(std::time::Duration::ZERO);
        strangled.journal = Some(path.clone());
        let results = strangled.run_matrix(&schemes, &workloads);
        assert_eq!(results.failures().count(), 2);
        for cell in results.cells() {
            assert_eq!(
                cell.outcome,
                Err(RunError::WatchdogExpired { budget_ms: 0 }),
                "{}/{}",
                cell.scheme.name(),
                cell.workload
            );
            // One configured retry, both attempts expired.
            assert_eq!(cell.attempts, 2);
        }
        let j = journal::Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 2);
        for cell in results.cells() {
            let key = strangled.cell_key("matrix", cell.scheme.name(), &cell.workload);
            let rec = j.lookup(&key).expect("expired cell is journaled");
            assert_eq!(rec.status, "watchdog");
            assert!(rec.retriable, "watchdog expiry must be retriable on resume");
        }
        drop(j);

        // Resuming without the strangling watchdog re-runs (not replays)
        // the retriable cells and completes them...
        let mut resumed = sim_harness(1);
        resumed.journal = Some(path.clone());
        let second = resumed.run_matrix(&schemes, &workloads);
        second.expect_complete();
        assert!(second.cells().iter().all(|c| !c.resumed));
        // ...after which a further resume replays every cell, and the
        // replayed reports are identical to a fresh, journal-free run.
        let mut replayer = sim_harness(1);
        replayer.journal = Some(path.clone());
        let third = replayer.run_matrix(&schemes, &workloads);
        assert!(third.cells().iter().all(|c| c.resumed));
        let fresh = sim_harness(1).run_matrix(&schemes, &workloads);
        let replayed: Vec<&RunReport> = third.reports().collect();
        let rerun: Vec<&RunReport> = fresh.reports().collect();
        assert_eq!(replayed, rerun, "replay is byte-identical to a fresh run");
        std::fs::remove_file(&path).unwrap();
    }

    /// The tentpole resume contract at the matrix level: interrupting a
    /// campaign after some cells (here: simulated by running a narrower
    /// matrix first) and resuming must produce reports byte-identical to
    /// an uninterrupted run, replaying exactly the journaled cells.
    #[test]
    fn partial_journal_resume_is_byte_identical_to_uninterrupted() {
        let path = tmp_journal("partial-resume");
        let schemes = [Scheme::Baseline, Scheme::VictimRefresh, Scheme::Blockhammer];
        let first_half = vec!["povray".to_string()];
        let all = vec!["povray".to_string(), "namd".to_string()];
        let mut h = sim_harness(2);
        h.journal = Some(path.clone());
        // "Interrupted" run: only the first workload's cells conclude.
        h.run_matrix(&schemes, &first_half).expect_complete();
        // Resume over the full matrix: povray cells replay, namd cells run.
        let resumed = h.run_matrix(&schemes, &all);
        resumed.expect_complete();
        let resumed_flags: Vec<bool> = resumed.cells().iter().map(|c| c.resumed).collect();
        assert_eq!(resumed_flags, [true, true, true, false, false, false]);
        let uninterrupted = sim_harness(2).run_matrix(&schemes, &all);
        let a: Vec<&RunReport> = resumed.reports().collect();
        let b: Vec<&RunReport> = uninterrupted.reports().collect();
        assert_eq!(a, b);
        std::fs::remove_file(&path).unwrap();
    }

    /// A chaos-sabotaged cell panics on attempt 1 and succeeds on the
    /// probe: the supervisor must quarantine it as nondeterministic (the
    /// ci.sh `--strict` must-fail path).
    #[test]
    fn chaos_cell_is_quarantined_as_nondeterministic() {
        let schemes = [Scheme::Baseline, Scheme::VictimRefresh];
        let workloads = vec!["povray".to_string()];
        let mut h = sim_harness(2);
        h.chaos = Some(Chaos {
            cell: "baseline/povray".to_string(),
            fail_attempts: 1,
        });
        let results = h.run_matrix(&schemes, &workloads);
        let bad = &results.cells()[0];
        match &bad.outcome {
            Err(RunError::Nondeterministic { detail }) => {
                assert!(detail.contains("chaos"), "{detail}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The sibling cell is untouched.
        assert!(results.try_get(Scheme::VictimRefresh, "povray").is_ok());
    }

    #[test]
    fn deadline_knob_derives_soft_and_hard_budgets() {
        let d = Deadline::from_ms(250);
        assert_eq!(d.soft, std::time::Duration::from_millis(250));
        assert_eq!(d.hard, std::time::Duration::from_millis(1000));
        // A generous deadline changes nothing about the results.
        let mut h = sim_harness(1);
        h.deadline = Some(Deadline::from_ms(600_000));
        let schemes = [Scheme::Baseline];
        let workloads = vec!["povray".to_string()];
        let with_deadline = h.run_matrix(&schemes, &workloads);
        with_deadline.expect_complete();
        let plain = sim_harness(1).run_matrix(&schemes, &workloads);
        assert_eq!(
            with_deadline.reports().collect::<Vec<_>>(),
            plain.reports().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cell_keys_separate_experiments_and_cells() {
        let h = sim_harness(1);
        let a = h.cell_key("matrix", "baseline", "povray");
        assert_eq!(a, h.cell_key("matrix", "baseline", "povray"));
        assert_ne!(a, h.cell_key("matrix", "baseline", "namd"));
        assert_ne!(a, h.cell_key("dos_worstcase", "baseline", "povray"));
        let mut other_seed = sim_harness(1);
        other_seed.seed = 2;
        assert_ne!(a, other_seed.cell_key("matrix", "baseline", "povray"));
        // Host-time knobs do not change the key: resume survives new budgets.
        let mut budgeted = sim_harness(4);
        budgeted.watchdog = Some(std::time::Duration::from_secs(1));
        budgeted.deadline = Some(Deadline::from_ms(5));
        assert_eq!(a, budgeted.cell_key("matrix", "baseline", "povray"));
    }
}
