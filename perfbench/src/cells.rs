//! The benchmark's three workloads and the cells each one runs.
//!
//! A cell is one simulation: a mitigation scheme on one request stream.
//! Every cell is built from the repository's public constructors, the same
//! way `simulate`, the figure binaries and `dos_worstcase` build theirs.

use aqua::AquaEngine;
use aqua_baselines::{Blockhammer, BlockhammerConfig, VictimRefresh, VictimRefreshConfig};
use aqua_bench::{Harness, Scheme};
use aqua_dram::mitigation::{Mitigation, NoMitigation};
use aqua_dram::BaselineConfig;
use aqua_rrs::{RrsConfig, RrsEngine};
use aqua_sim::{CostAblation, SimConfig, Simulation};
use aqua_workload::attack::MigrationFlood;
use aqua_workload::{channel_seed, AddressSpace, MemoryRequest, RequestGenerator};

/// Rowhammer threshold of every cell.
pub const T_RH: u64 = 1000;

/// The six Table II workloads with the lowest MPKI.
pub const QUIET_WORKLOADS: [&str; 6] = ["povray", "exchange2", "wrf", "leela", "parest", "bwaves"];

/// Every scheme the harness knows, in report order.
pub const ALL_SCHEMES: [Scheme; 6] = [
    Scheme::Baseline,
    Scheme::AquaSram,
    Scheme::AquaMapped,
    Scheme::Rrs,
    Scheme::VictimRefresh,
    Scheme::Blockhammer,
];

/// Banks the migration flood spreads over (all 16 of Table I).
const FLOOD_BANKS: u32 = 16;

/// Pool workers of the suite-quiet matrix (bounded by the host's cores).
const SUITE_JOBS: usize = 2;

/// Channels and shard workers of the attack-flood topology.
const FLOOD_CHANNELS: u32 = 2;
const FLOOD_SHARD_WORKERS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four schemes on Table II `mcf`: the per-access path.
    SpecHot,
    /// Six quiet workloads x six schemes through `run_matrix`: per-cell cost.
    SuiteQuiet,
    /// The section VI-C migration flood on two sharded channels with a hub.
    AttackFlood,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SpecHot,
        Workload::SuiteQuiet,
        Workload::AttackFlood,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecHot => "spec-hot",
            Workload::SuiteQuiet => "suite-quiet",
            Workload::AttackFlood => "attack-flood",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The harness this workload runs under. Every knob is written out
    /// here instead of taken from `Harness::new`, which reads `AQUA_*`
    /// environment variables and may bind a metrics listener; a struct
    /// literal also makes any knob added later a compile error here until
    /// the benchmark pins it.
    pub fn harness(self, seed: u64) -> Harness {
        let (channels, epochs, jobs, shard_workers) = match self {
            Workload::SpecHot => (1, 1, 1, 1),
            Workload::SuiteQuiet => (1, 1, SUITE_JOBS.min(host_cores()), 1),
            Workload::AttackFlood => (FLOOD_CHANNELS, 1, 1, FLOOD_SHARD_WORKERS.min(host_cores())),
        };
        Harness {
            base: BaselineConfig::paper_table1().with_channels(channels),
            t_rh: T_RH,
            epochs,
            seed,
            jobs,
            shard_workers,
            faults: None,
            watchdog: None,
            deadline: None,
            retries: 0,
            journal: None,
            chaos: None,
            ablate: CostAblation::NONE,
            metrics: None,
        }
    }

    /// The workload's cells, in the order they run and are reported.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::SpecHot => [
                Scheme::Baseline,
                Scheme::AquaSram,
                Scheme::AquaMapped,
                Scheme::Rrs,
            ]
            .into_iter()
            .map(|scheme| Cell::Spec {
                scheme,
                workload: "mcf",
            })
            .collect(),
            // Workload-major, the order `run_matrix` returns.
            Workload::SuiteQuiet => QUIET_WORKLOADS
                .into_iter()
                .flat_map(|workload| ALL_SCHEMES.map(|scheme| Cell::Spec { scheme, workload }))
                .collect(),
            Workload::AttackFlood => vec![
                Cell::Flood {
                    scheme: Scheme::AquaMapped,
                    threshold: 500,
                },
                Cell::Flood {
                    scheme: Scheme::Rrs,
                    threshold: 166,
                },
            ],
        }
    }
}

/// Host cores, the upper bound of every worker count.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One simulation of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// A scheme on a Table II workload, seeded by the harness.
    Spec {
        /// Mitigation scheme.
        scheme: Scheme,
        /// Table II workload name.
        workload: &'static str,
    },
    /// A scheme under `MigrationFlood` at the given pair threshold.
    Flood {
        /// Mitigation scheme.
        scheme: Scheme,
        /// Activations per row before the flood moves to a fresh pair.
        threshold: u64,
    },
}

impl Cell {
    /// The cell's mitigation scheme.
    pub fn scheme(self) -> Scheme {
        match self {
            Cell::Spec { scheme, .. } | Cell::Flood { scheme, .. } => scheme,
        }
    }

    /// `scheme/workload`, the label of the expected-values file.
    pub fn label(self) -> String {
        match self {
            Cell::Spec { scheme, workload } => format!("{}/{workload}", scheme.name()),
            Cell::Flood { scheme, threshold } => format!("{}/flood-{threshold}", scheme.name()),
        }
    }

    /// Whether the scheme claims Rowhammer protection, so the oracle must
    /// find no row over `T_RH`.
    pub fn protects(self) -> bool {
        self.scheme() != Scheme::Baseline
    }

    /// The per-core request streams of one channel of this cell.
    pub fn generators(self, h: &Harness, channel: u32) -> Vec<Box<dyn RequestGenerator>> {
        match self {
            Cell::Spec { workload, .. } => h.generators_for_channel(workload, channel),
            Cell::Flood { threshold, .. } => flood_generators(h, threshold, channel),
        }
    }

    /// The workload name of the cell's configuration and reports.
    pub fn workload(self) -> &'static str {
        match self {
            Cell::Spec { workload, .. } => workload,
            Cell::Flood { .. } => "dos-flood",
        }
    }

    /// The simulator configuration of one channel shard of this cell.
    pub fn shard_config(self, h: &Harness) -> SimConfig {
        let mut cfg = h.sim_config(self.scheme().name(), self.workload());
        cfg.base.channels = 1;
        cfg
    }

    /// Hands `visit` a factory for this cell's engine (one engine per
    /// channel), built exactly as `Harness::run` builds it. Callers stay
    /// generic over the concrete engine type: the simulator's hot loop is
    /// monomorphised per engine, and a boxed engine would time a different
    /// program.
    pub fn with_engine<V: EngineVisitor>(self, h: &Harness, visit: V) -> V::Out {
        let geometry = h.base.geometry;
        let t_rh = h.t_rh;
        match self.scheme() {
            Scheme::Baseline => visit.visit(|| NoMitigation::new(geometry)),
            Scheme::AquaSram => {
                let cfg = h.aqua_config();
                visit.visit(move || AquaEngine::new(cfg).expect("valid AQUA config"))
            }
            Scheme::AquaMapped => {
                let cfg = h.aqua_config().with_mapped_tables();
                visit.visit(move || AquaEngine::new(cfg).expect("valid AQUA config"))
            }
            Scheme::Rrs => {
                let cfg = RrsConfig::for_rowhammer_threshold(t_rh, &h.base);
                visit.visit(move || RrsEngine::new(cfg))
            }
            Scheme::VictimRefresh => {
                let cfg = VictimRefreshConfig::for_rowhammer_threshold(t_rh);
                visit.visit(move || VictimRefresh::new(cfg, geometry))
            }
            Scheme::Blockhammer => {
                let cfg = BlockhammerConfig::for_rowhammer_threshold(t_rh);
                visit.visit(move || Blockhammer::new(cfg, geometry))
            }
        }
    }

    /// Constructs every channel of the cell (engine, generators and
    /// `Simulation::new`) and returns the host seconds it took. The
    /// simulations are dropped after the clock stops.
    pub fn construct_seconds(self, h: &Harness) -> f64 {
        struct Construct<'a> {
            cell: Cell,
            h: &'a Harness,
        }
        impl EngineVisitor for Construct<'_> {
            type Out = Vec<Box<dyn std::any::Any>>;
            fn visit<M: Mitigation + 'static>(self, mut engine: impl FnMut() -> M) -> Self::Out {
                (0..self.h.base.channels)
                    .map(|channel| {
                        Box::new(Simulation::new(
                            self.cell.shard_config(self.h),
                            engine(),
                            self.cell.generators(self.h, channel),
                        )) as Box<dyn std::any::Any>
                    })
                    .collect()
            }
        }
        let start = std::time::Instant::now();
        let sims = self.with_engine(h, Construct { cell: self, h });
        let seconds = start.elapsed().as_secs_f64();
        drop(std::hint::black_box(sims));
        seconds
    }
}

/// A computation generic over the concrete mitigation engine.
pub trait EngineVisitor {
    /// What the computation returns.
    type Out;
    /// Runs the computation with a factory of fresh engines.
    fn visit<M: Mitigation + 'static>(self, engine: impl FnMut() -> M) -> Self::Out;
}

/// `dos_worstcase`'s flood streams for one channel: the same
/// `MigrationFlood` on every core over all 16 banks. The seed rotates the
/// rows within each bank (`channel_seed` serves as the mixing function),
/// so each seed floods other rows with the same pattern and cost.
fn flood_generators(h: &Harness, threshold: u64, channel: u32) -> Vec<Box<dyn RequestGenerator>> {
    let space = h.space();
    let seed = channel_seed(h.seed, channel);
    // The flood uses the bottom `2 * budget` rows of each bank, as
    // `MigrationFlood::new` sizes them.
    let span = (space.len() / u64::from(space.geometry().total_banks()) / 2 * 2) as u32;
    let offsets: Vec<u32> = (0..FLOOD_BANKS)
        .map(|bank| (channel_seed(seed, bank + 1) % u64::from(span)) as u32)
        .collect();
    (0..h.base.cores)
        .map(|_| {
            Box::new(RotatedFlood {
                flood: MigrationFlood::new(&space, FLOOD_BANKS, threshold),
                space,
                offsets: offsets.clone(),
                span,
            }) as Box<dyn RequestGenerator>
        })
        .collect()
}

/// A `MigrationFlood` whose rows are rotated by a per-bank offset.
struct RotatedFlood {
    flood: MigrationFlood,
    space: AddressSpace,
    offsets: Vec<u32>,
    span: u32,
}

impl RequestGenerator for RotatedFlood {
    fn next_request(&mut self) -> MemoryRequest {
        let mut req = self.flood.next_request();
        let addr = self
            .space
            .geometry()
            .expand(req.row)
            .expect("flood rows lie inside the geometry");
        let bank = addr.bank.index();
        let row = (addr.row + self.offsets[bank as usize]) % self.span;
        req.row = self.space.at(bank, row);
        req
    }

    fn label(&self) -> String {
        self.flood.label()
    }
}
