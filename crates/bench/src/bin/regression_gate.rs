//! Performance-regression gate over a deterministic canary matrix.
//!
//! ```text
//! regression_gate [--baseline FILE] [--out FILE] [--write-baseline]
//!                 [--inject-slowdown PP] [--inject-throttle FACTOR]
//!                 [--resume JOURNAL]
//! ```
//!
//! Runs three schemes (aqua-sram, aqua-mapped, rrs) x two workloads
//! (mcf, povray) at pinned `epochs=1`, `T_RH=1000`, `seed=42`. For every
//! cell it measures:
//!
//! - **slowdown** vs the unmitigated baseline (same seeded streams);
//! - **migrations per epoch** (behavioral drift canary);
//! - the **causal attribution decomposition** — three extra what-if
//!   re-runs with one cost ablated each (`CostAblation`), decomposed by
//!   `aqua_analysis::attribution` into migration-blocking, lookup-latency,
//!   table-traffic, and residual components that sum to the slowdown;
//! - **span-derived phase latencies** (p50/p99 of every `span.*` duration
//!   histogram).
//!
//! After the behavioral matrix it also times a **throughput canary**:
//! `THROUGHPUT_REPEATS` (>= 5) serial repeats of the aqua-sram/mcf cell
//! against the host clock, reporting the median/min/max accesses per
//! wallclock second. The gate fails only when the median collapses below
//! `baseline / THROUGHPUT_FACTOR` — a hot-loop floor, not a noise detector.
//!
//! Then a **scaling canary**: the same cell on a `SCALING_CHANNELS`-channel
//! topology. First determinism — the run is repeated at 1, 2, and
//! host-parallel shard workers and the reports must be *identical* (a hard
//! assert, not a tolerance) — then wallclock: the cell is timed at
//! `shard_workers=1` and at one worker per channel, and the ratio of
//! medians is recorded as `scaling_efficiency`. The gate enforces
//! `SCALING_MIN_SPEEDUP` only when the measuring host has at least
//! `SCALING_CHANNELS` cores; a smaller host records honest numbers and
//! skips that check (shards time-slicing one core cannot speed up).
//!
//! The result is written to `--out` (default
//! `target/experiments/BENCH_8.json`) and compared against the committed
//! baseline (`--baseline`, default `BENCH_8.json`) with the per-metric
//! tolerances of `aqua_bench::gate::tolerance`. A baseline without its
//! throughput or scaling block is malformed. The baseline is read before
//! the canary runs, so a missing or malformed one fails at once. Exit
//! status: 0 = pass, 1 = regression (one line per violated tolerance on
//! stderr), 2 = usage or I/O error.
//!
//! `--write-baseline` re-measures and overwrites the baseline file
//! instead of comparing (use after an intentional perf change); when
//! `--out` is also given the new baseline is written there instead.
//! `--inject-slowdown PP` adds PP percentage points to every cell's
//! slowdown and residual after measurement — a synthetic regression used
//! by CI to prove the gate actually fails. `--inject-throttle FACTOR`
//! divides the measured throughput canary by FACTOR after measurement,
//! the synthetic hot-loop collapse CI uses to prove the throughput floor
//! is a must-fail check, not advisory.
//!
//! The behavioral part of the report is deterministic (seeded streams, no
//! wall-clock in results), so a re-run on unchanged code reproduces the
//! baseline numbers exactly; only the throughput block carries host-time
//! noise, which is why its tolerance is a factor, not a percentage.
//! `AQUA_BENCH_JOBS` only changes wall-clock time. Setting
//! `AQUA_METRICS_ADDR` serves a live `/metrics`+`/healthz` plane via the
//! harness while the gate runs; it is observer-only and never moves the
//! measured numbers or the pass/fail verdict.
//!
//! The behavioral matrix runs under the supervision layer; `--resume
//! JOURNAL` (or `AQUA_BENCH_JOURNAL`) checkpoints every canary cell as it
//! concludes and replays concluded cells on a re-run (DESIGN.md section
//! 14). The throughput canary is host-time and is therefore re-measured on
//! every run, never journaled.

use aqua_analysis::attribution::{AblationCounts, Attribution};
use aqua_bench::cli::Args;
use aqua_bench::gate::{
    self, CellAttribution, CellMetrics, GateReport, PhaseLatency, ScalingMetrics, ThroughputMetrics,
};
use aqua_bench::{journal, supervise, Harness, Scheme};
use aqua_sim::CostAblation;
use aqua_telemetry::json::push_str as push_json_str;
use aqua_telemetry::Telemetry;

const T_RH: u64 = 1000;
const EPOCHS: u64 = 1;
const SEED: u64 = 42;
const SCHEMES: [Scheme; 3] = [Scheme::AquaSram, Scheme::AquaMapped, Scheme::Rrs];
const WORKLOADS: [&str; 2] = ["mcf", "povray"];

/// Timed repeats of the throughput canary cell. Odd and >= 5 so the median
/// is a real sample and shrugs off a couple of noisy repeats.
const THROUGHPUT_REPEATS: u64 = 5;
const THROUGHPUT_SCHEME: Scheme = Scheme::AquaSram;
const THROUGHPUT_WORKLOAD: &str = "mcf";

/// Channel count of the scaling canary: the same cell as the throughput
/// canary but sharded across this many per-channel engines.
const SCALING_CHANNELS: u32 = 4;

/// One simulation of the canary: the unmitigated baseline for a workload,
/// or a scheme cell under some ablation. Only the fully-costed scheme run
/// (`ablate == NONE`) carries a telemetry hub for span latencies.
#[derive(Clone, Copy)]
struct Job {
    scheme: Option<Scheme>,
    workload: &'static str,
    ablate: CostAblation,
}

struct JobResult {
    requests_done: u64,
    migrations_per_epoch: f64,
    phases: Vec<PhaseLatency>,
}

/// Human-readable tag for the cell's ablation variant (journal labels).
fn ablate_tag(a: CostAblation) -> &'static str {
    if a == CostAblation::NONE {
        "full"
    } else if a == CostAblation::FREE_MIGRATION {
        "free-migration"
    } else if a == CostAblation::FREE_LOOKUP {
        "free-lookup"
    } else if a == CostAblation::FREE_TABLE_TRAFFIC {
        "free-table-traffic"
    } else {
        "custom"
    }
}

/// Journal key for one canary job. The shared `cell_key` digest folds in
/// `Harness::ablate`, so the key is computed on a clone carrying the job's
/// own ablation variant.
fn job_key(harness: &Harness, job: &Job) -> journal::CellKey {
    let mut h = harness.clone();
    h.ablate = job.ablate;
    h.cell_key(
        "regression_gate",
        job.scheme.map_or("baseline", Scheme::name),
        job.workload,
    )
}

/// Encodes a [`JobResult`] as a compact journal payload. `f64` metrics use
/// Rust's shortest-roundtrip formatting, so decode-then-encode is a
/// byte-level fixpoint and resumed gate reports diff clean.
fn encode_job(r: &JobResult) -> String {
    assert!(
        r.requests_done < (1 << 53),
        "requests_done exceeds f64 precision"
    );
    let mut out = format!(
        "{{\"requests_done\":{},\"migrations_per_epoch\":{},\"phases\":[",
        r.requests_done, r.migrations_per_epoch
    );
    for (i, p) in r.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, &p.name);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(",\"p50_ps\":{},\"p99_ps\":{}}}", p.p50_ps, p.p99_ps),
        );
    }
    out.push_str("]}");
    out
}

/// Decodes an [`encode_job`] payload back into a [`JobResult`].
fn decode_job(value: &gate::JsonValue) -> Result<JobResult, String> {
    let obj = value.as_obj().ok_or("payload is not an object")?;
    let num = |o: &[(String, gate::JsonValue)], name: &str| {
        gate::json::get(o, name)
            .and_then(gate::JsonValue::as_f64)
            .ok_or_else(|| format!("payload field {name:?} missing or not a number"))
    };
    let requests = num(obj, "requests_done")?;
    if requests < 0.0 || requests.fract() != 0.0 {
        return Err(format!("requests_done = {requests} is not an integer"));
    }
    let phases = gate::json::get(obj, "phases")
        .and_then(gate::JsonValue::as_arr)
        .ok_or("payload field \"phases\" missing or not an array")?
        .iter()
        .map(|p| {
            let o = p
                .as_obj()
                .ok_or_else(|| "phase is not an object".to_string())?;
            Ok(PhaseLatency {
                name: gate::json::get(o, "name")
                    .and_then(gate::JsonValue::as_str)
                    .ok_or_else(|| "phase field \"name\" missing or not a string".to_string())?
                    .to_string(),
                p50_ps: num(o, "p50_ps")?,
                p99_ps: num(o, "p99_ps")?,
            })
        })
        .collect::<Result<Vec<PhaseLatency>, String>>()?;
    Ok(JobResult {
        requests_done: requests as u64,
        migrations_per_epoch: num(obj, "migrations_per_epoch")?,
        phases,
    })
}

fn run_job(harness: &Harness, job: &Job) -> JobResult {
    let mut h = harness.clone();
    h.ablate = job.ablate;
    let Some(scheme) = job.scheme else {
        let report = h.run(Scheme::Baseline, job.workload);
        return JobResult {
            requests_done: report.requests_done,
            migrations_per_epoch: 0.0,
            phases: Vec::new(),
        };
    };
    let hub = (!job.ablate.any()).then(|| Telemetry::new(Default::default()));
    let report = h.run_instrumented(scheme, job.workload, hub.as_ref());
    let phases = hub
        .and_then(|hub| hub.summary())
        .map(|summary| {
            summary
                .histograms
                .iter()
                .filter(|(name, h)| name.starts_with("span.") && h.count > 0)
                .map(|(name, h)| PhaseLatency {
                    name: name.clone(),
                    p50_ps: h.p50,
                    p99_ps: h.p99,
                })
                .collect()
        })
        .unwrap_or_default();
    JobResult {
        requests_done: report.requests_done,
        migrations_per_epoch: report.migrations_per_epoch(),
        phases,
    }
}

/// Times `THROUGHPUT_REPEATS` serial runs of the canary cell against the
/// host clock. Serial on purpose: concurrent cells would contend for cores
/// and shift the timing for no benefit. The simulated work is identical
/// every repeat (deterministic seed), so only the denominator varies.
fn measure_throughput(harness: &Harness) -> ThroughputMetrics {
    let mut per_sec = Vec::with_capacity(THROUGHPUT_REPEATS as usize);
    let mut accesses = 0u64;
    for _ in 0..THROUGHPUT_REPEATS {
        let mut h = harness.clone();
        h.ablate = CostAblation::NONE;
        let start = std::time::Instant::now();
        let report = h.run(THROUGHPUT_SCHEME, THROUGHPUT_WORKLOAD);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        accesses = report.requests_done;
        per_sec.push(report.requests_done as f64 / secs);
    }
    let min = per_sec.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_sec.iter().cloned().fold(0.0f64, f64::max);
    ThroughputMetrics {
        scheme: THROUGHPUT_SCHEME.name().to_string(),
        workload: THROUGHPUT_WORKLOAD.to_string(),
        repeats: THROUGHPUT_REPEATS,
        accesses_per_run: accesses,
        median_accesses_per_sec: gate::median_of(per_sec),
        min_accesses_per_sec: min,
        max_accesses_per_sec: max,
    }
}

/// Measures the multi-channel scaling canary.
///
/// Determinism comes first and is non-negotiable: the `SCALING_CHANNELS`-
/// channel cell is run at 1, 2, and host-parallel shard workers and the
/// three [`aqua_sim::RunReport`]s must be field-for-field identical — a
/// panic here means the sharded merge leaked scheduling order into results
/// and no timing number would be trustworthy. Only then does the stopwatch
/// start: `THROUGHPUT_REPEATS` serial repeats at `shard_workers = 1`
/// (every shard on one worker, the parallelism-free reference) and at one
/// worker per channel, with `scaling_efficiency` the ratio of the two
/// medians. `host_parallelism` is recorded so the gate can tell a genuine
/// scaling collapse from a host that simply has no cores to scale onto.
fn measure_scaling(harness: &Harness) -> ScalingMetrics {
    let mut h = harness.clone();
    h.ablate = CostAblation::NONE;
    h.journal = None;
    h.base = h.base.with_channels(SCALING_CHANNELS);
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel_workers = (SCALING_CHANNELS as usize).min(host_parallelism).max(2);

    h.shard_workers = 1;
    let reference = h.run(THROUGHPUT_SCHEME, THROUGHPUT_WORKLOAD);
    for workers in [2, parallel_workers] {
        h.shard_workers = workers;
        let report = h.run(THROUGHPUT_SCHEME, THROUGHPUT_WORKLOAD);
        assert_eq!(
            reference, report,
            "scaling canary: {workers} shard workers changed the report"
        );
    }

    let mut time_at = |workers: usize| -> Vec<f64> {
        h.shard_workers = workers;
        (0..THROUGHPUT_REPEATS)
            .map(|_| {
                let start = std::time::Instant::now();
                let report = h.run(THROUGHPUT_SCHEME, THROUGHPUT_WORKLOAD);
                report.requests_done as f64 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .collect()
    };
    let single = gate::median_of(time_at(1));
    let sharded = gate::median_of(time_at(parallel_workers));

    ScalingMetrics {
        scheme: THROUGHPUT_SCHEME.name().to_string(),
        workload: THROUGHPUT_WORKLOAD.to_string(),
        channels: u64::from(SCALING_CHANNELS),
        repeats: THROUGHPUT_REPEATS,
        accesses_per_run: reference.requests_done,
        single_accesses_per_sec: single,
        sharded_accesses_per_sec: sharded,
        shard_workers: parallel_workers as u64,
        host_parallelism: host_parallelism as u64,
        scaling_efficiency: if single > 0.0 { sharded / single } else { 0.0 },
    }
}

fn measure(inject_pp: f64, journal: Option<String>) -> Result<GateReport, String> {
    let mut harness = Harness::new(T_RH);
    harness.epochs = EPOCHS;
    harness.seed = SEED;
    if let Some(path) = journal {
        harness.journal = Some(path.into());
    }

    // Job list: one unmitigated baseline per workload, then four runs
    // (full + three single-cost ablations) per scheme x workload cell.
    let variants = [
        CostAblation::NONE,
        CostAblation::FREE_MIGRATION,
        CostAblation::FREE_LOOKUP,
        CostAblation::FREE_TABLE_TRAFFIC,
    ];
    let mut jobs = Vec::new();
    for &workload in &WORKLOADS {
        jobs.push(Job {
            scheme: None,
            workload,
            ablate: CostAblation::NONE,
        });
        for &scheme in &SCHEMES {
            for &ablate in &variants {
                jobs.push(Job {
                    scheme: Some(scheme),
                    workload,
                    ablate,
                });
            }
        }
    }
    eprintln!(
        "regression gate: {} canary runs on {} workers...",
        jobs.len(),
        harness.jobs
    );
    let journal = harness.open_journal();
    let keys: Vec<journal::CellKey> = jobs.iter().map(|j| job_key(&harness, j)).collect();
    let labels: Vec<String> = jobs
        .iter()
        .map(|j| {
            format!(
                "{}/{}@{}",
                j.scheme.map_or("baseline", Scheme::name),
                j.workload,
                ablate_tag(j.ablate)
            )
        })
        .collect();
    let binding = journal.as_ref().map(|j| supervise::JournalBinding {
        journal: j,
        keys: &keys,
        labels: &labels,
        codec: supervise::Codec {
            encode: encode_job,
            decode: decode_job,
        },
    });
    let supervisor = supervise::Supervisor::default();
    let outcomes = supervise::run_supervised(
        harness.jobs,
        &jobs,
        &supervisor,
        binding.as_ref(),
        |_, job, _attempt| run_job(&harness, job),
    );
    let mut results = Vec::with_capacity(jobs.len());
    for (job, outcome) in jobs.iter().zip(outcomes) {
        let name = job.scheme.map_or("baseline", Scheme::name);
        results.push(
            outcome
                .outcome
                .map_err(|e| format!("{name}/{} failed: {e}", job.workload))?,
        );
    }

    let find = |scheme: Option<Scheme>, workload: &str, ablate: CostAblation| -> &JobResult {
        let idx = jobs
            .iter()
            .position(|j| j.scheme == scheme && j.workload == workload && j.ablate == ablate)
            .expect("job exists by construction");
        &results[idx]
    };

    let mut cells = Vec::new();
    for &workload in &WORKLOADS {
        let base = find(None, workload, CostAblation::NONE).requests_done;
        for &scheme in &SCHEMES {
            let full = find(Some(scheme), workload, CostAblation::NONE);
            let attribution = Attribution::from_counts(AblationCounts {
                baseline: base,
                full: full.requests_done,
                free_migration: find(Some(scheme), workload, CostAblation::FREE_MIGRATION)
                    .requests_done,
                free_lookup: find(Some(scheme), workload, CostAblation::FREE_LOOKUP).requests_done,
                free_table_traffic: find(Some(scheme), workload, CostAblation::FREE_TABLE_TRAFFIC)
                    .requests_done,
            });
            cells.push(CellMetrics {
                scheme: scheme.name().to_string(),
                workload: workload.to_string(),
                slowdown_pct: attribution.slowdown_pct + inject_pp,
                migrations_per_epoch: full.migrations_per_epoch,
                attribution: CellAttribution {
                    migration_pct: attribution.migration_pct,
                    lookup_pct: attribution.lookup_pct,
                    table_traffic_pct: attribution.table_traffic_pct,
                    residual_pct: attribution.residual_pct + inject_pp,
                },
                phases: full.phases.clone(),
            });
        }
    }
    eprintln!(
        "regression gate: timing throughput canary ({THROUGHPUT_REPEATS} repeats, serial)..."
    );
    let throughput = measure_throughput(&harness);
    eprintln!(
        "regression gate: timing scaling canary ({SCALING_CHANNELS} channels, \
         {THROUGHPUT_REPEATS}+{THROUGHPUT_REPEATS} repeats)..."
    );
    let scaling = measure_scaling(&harness);

    Ok(GateReport {
        t_rh: T_RH,
        epochs: EPOCHS,
        seed: SEED,
        throughput,
        scaling,
        cells,
    })
}

fn print_report(report: &GateReport) {
    println!(
        "\n== regression gate canary (T_RH={}, epochs={}, seed={}) ==",
        report.t_rh, report.epochs, report.seed
    );
    println!(
        "{:<12} {:<8} {:>9} {:>10} | {:>7} {:>7} {:>7} {:>8}",
        "scheme", "workload", "slow(%)", "migr/ep", "M(%)", "L(%)", "Q(%)", "resid(%)"
    );
    for c in &report.cells {
        println!(
            "{:<12} {:<8} {:>9.3} {:>10.1} | {:>7.3} {:>7.3} {:>7.3} {:>8.3}",
            c.scheme,
            c.workload,
            c.slowdown_pct,
            c.migrations_per_epoch,
            c.attribution.migration_pct,
            c.attribution.lookup_pct,
            c.attribution.table_traffic_pct,
            c.attribution.residual_pct
        );
    }
    for c in &report.cells {
        for p in &c.phases {
            println!(
                "  {}/{} {:<26} p50={:>12.0} ps  p99={:>12.0} ps",
                c.scheme, c.workload, p.name, p.p50_ps, p.p99_ps
            );
        }
    }
    let t = &report.throughput;
    println!(
        "throughput canary: {}/{} x{} repeats, {} accesses/run -> \
         median {:.0} accesses/sec (min {:.0}, max {:.0})",
        t.scheme,
        t.workload,
        t.repeats,
        t.accesses_per_run,
        t.median_accesses_per_sec,
        t.min_accesses_per_sec,
        t.max_accesses_per_sec
    );
    let s = &report.scaling;
    println!(
        "scaling canary: {}/{} on {} channels, {} shard workers \
         ({} host cores) -> {:.0} vs {:.0} accesses/sec = {:.2}x",
        s.scheme,
        s.workload,
        s.channels,
        s.shard_workers,
        s.host_parallelism,
        s.sharded_accesses_per_sec,
        s.single_accesses_per_sec,
        s.scaling_efficiency
    );
    if s.host_parallelism < s.channels {
        println!(
            "  (host has fewer cores than channels; the {}x floor is not enforced)",
            gate::tolerance::SCALING_MIN_SPEEDUP
        );
    }
}

/// Reads and parses the committed baseline; exits 2 when it cannot.
fn read_baseline(path: &str) -> GateReport {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "regression gate: cannot read baseline {path}: {e}\n\
                 (generate one with `regression_gate --write-baseline`)"
            );
            std::process::exit(2);
        }
    };
    match GateReport::from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("regression gate: malformed baseline {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args = Args::from_env();
    let baseline_path = args
        .value("--baseline", "FILE")
        .unwrap_or_else(|| "BENCH_8.json".into());
    let out = args.value("--out", "FILE");
    let write_baseline = args.switch("--write-baseline");
    let inject_pp: f64 = args.parse("--inject-slowdown", "PP").unwrap_or(0.0);
    let inject_throttle: f64 = args
        .parse_with("--inject-throttle", "FACTOR", |raw| match raw.parse() {
            Ok(v) if v > 0.0 => Ok(v),
            _ => Err("takes a positive throughput divisor".into()),
        })
        .unwrap_or(1.0);
    let journal = args.value("--resume", "JOURNAL");
    args.finish();

    // Read the baseline before the canary, so a missing or malformed one
    // fails at once instead of after the whole measurement.
    let baseline = (!write_baseline).then(|| read_baseline(&baseline_path));
    let mut report = match measure(inject_pp, journal) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regression gate: canary run failed: {e}");
            std::process::exit(2);
        }
    };
    let t = &mut report.throughput;
    t.median_accesses_per_sec /= inject_throttle;
    t.min_accesses_per_sec /= inject_throttle;
    t.max_accesses_per_sec /= inject_throttle;
    print_report(&report);

    let Some(baseline) = baseline else {
        // An explicit --out redirects the new baseline (e.g. writing
        // BENCH_8.json at the repo root without clobbering the old file).
        let dest = out.unwrap_or(baseline_path);
        if let Err(e) = std::fs::write(&dest, report.to_json()) {
            eprintln!("regression gate: cannot write {dest}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote new baseline to {dest}");
        return;
    };

    let out_path = out.unwrap_or_else(|| "target/experiments/BENCH_8.json".into());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("regression gate: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote current metrics to {out_path}");

    let failures = gate::compare(&baseline, &report);
    if failures.is_empty() {
        println!(
            "\nregression gate: PASS ({} cells within tolerance)",
            baseline.cells.len()
        );
        return;
    }
    eprintln!("\nregression gate: FAIL");
    for f in &failures {
        eprintln!("  - {f}");
    }
    std::process::exit(1);
}
