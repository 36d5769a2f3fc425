//! Performance-regression gate: canary metrics, baseline file format, and
//! tolerance-based comparison.
//!
//! The `regression_gate` binary runs a small canary matrix (three schemes x
//! two workloads at pinned epochs/threshold/seed), measures slowdown,
//! migration rate, the causal attribution decomposition, and span-derived
//! phase latencies, and compares them against the committed baseline
//! (`BENCH_8.json` at the repo root). The simulator is fully deterministic,
//! so an identical re-run reproduces the baseline exactly; the tolerances
//! below exist to absorb intentional small drift (a retuned constant, an
//! extra bookkeeping access) while still catching real regressions.
//!
//! On top of the behavioral metrics, the gate times repeated runs of one
//! canary cell against the host clock and gates on the **median accesses
//! per wallclock second** ([`ThroughputMetrics`]): a performance floor for
//! the hot loop, with a tolerance generous enough
//! ([`tolerance::THROUGHPUT_FACTOR`]) to survive machine-to-machine noise.
//! The multi-channel scaling canary ([`ScalingMetrics`]) gates the sharded
//! engine's parallel speedup the same way, adaptively: the
//! [`tolerance::SCALING_MIN_SPEEDUP`] floor arms only on hosts with at
//! least as many cores as canary channels. Pre-throughput (v1) and
//! pre-scaling (v3) baselines parse fine and simply skip those gates.
//!
//! The baseline file is JSON. The workspace has no JSON dependency, so this
//! module carries a small recursive-descent parser for the subset the gate
//! emits (objects, arrays, strings, finite numbers, booleans, null).

use aqua_telemetry::json::push_str as push_json_str;
use std::fmt::Write as _;

/// Gate tolerances (documented in DESIGN.md section 11).
pub mod tolerance {
    /// Slowdown may grow by at most this many percentage points.
    pub const SLOWDOWN_PP: f64 = 2.0;
    /// Migrations per epoch may deviate (either direction) by this relative
    /// fraction — behavioral drift, not just a perf change.
    pub const MIGRATIONS_REL: f64 = 0.10;
    /// The attribution residual (interaction terms + drift) must stay
    /// within this many percentage points of zero.
    pub const RESIDUAL_PP: f64 = 1.0;
    /// A span-phase p50/p99 latency may grow by this relative fraction.
    pub const PHASE_REL: f64 = 0.25;
    /// Phase latencies below this floor (in ps) are never compared: at
    /// sub-nanosecond scale a one-bucket histogram shift is pure noise.
    pub const PHASE_FLOOR_PS: f64 = 1_000.0;
    /// Median canary throughput (accesses per host wallclock second) may
    /// fall to no less than `baseline / THROUGHPUT_FACTOR`. Host wallclock
    /// varies across machines, schedulers, and build flags far more than
    /// any simulated metric, so the factor stays well above percent-level
    /// noise — but after the hot-loop speed campaign (allocation-free
    /// per-access path, deterministic fast hashing, single-lock leaf
    /// spans) it is tightened from the original 4x to 2x: losing half the
    /// canary's throughput now means a real hot-path regression (a
    /// reintroduced per-access allocation or lock), not machine drift.
    /// Faster-than-baseline is always fine.
    pub const THROUGHPUT_FACTOR: f64 = 2.0;
    /// Minimum shard-scaling speedup of the 4-channel canary: the sharded
    /// run's median accesses/sec must be at least this multiple of the
    /// single-worker run's. Only enforced when the measuring host has at
    /// least as many cores as the canary has channels
    /// ([`ScalingMetrics::host_parallelism`]) — on a smaller host the
    /// shards time-slice one core and no parallel speedup can physically
    /// exist, so the numbers are recorded honestly but not gated.
    pub const SCALING_MIN_SPEEDUP: f64 = 2.5;
}

/// Span-derived latency of one migration phase, from the full run's
/// telemetry summary (`span.<name>` histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLatency {
    /// Histogram name (e.g. `span.migration.install`).
    pub name: String,
    /// Median duration in picoseconds.
    pub p50_ps: f64,
    /// 99th-percentile duration in picoseconds.
    pub p99_ps: f64,
}

/// Attribution components for one cell, in percent of baseline throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAttribution {
    /// Slowdown recovered by zeroing migration channel-blocking.
    pub migration_pct: f64,
    /// Slowdown recovered by zeroing table-lookup latency.
    pub lookup_pct: f64,
    /// Slowdown recovered by zeroing table bus traffic.
    pub table_traffic_pct: f64,
    /// `slowdown - (migration + lookup + table_traffic)`.
    pub residual_pct: f64,
}

/// All gated metrics for one `(scheme, workload)` canary cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Scheme name (`aqua-sram`, `aqua-mapped`, `rrs`).
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// Measured slowdown vs the unmitigated baseline, percent.
    pub slowdown_pct: f64,
    /// Row migrations per 64 ms epoch in the fully-costed run.
    pub migrations_per_epoch: f64,
    /// Causal slowdown decomposition from the ablation re-runs.
    pub attribution: CellAttribution,
    /// Span-derived phase latencies.
    pub phases: Vec<PhaseLatency>,
}

/// Host-throughput measurement of the timing canary: one cell run
/// repeatedly under a wallclock timer. Medians over `repeats >= 5` runs
/// absorb scheduler noise; [`compare`] gates with the generous
/// [`tolerance::THROUGHPUT_FACTOR`] on top of that.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputMetrics {
    /// Scheme of the timed canary cell.
    pub scheme: String,
    /// Workload of the timed canary cell.
    pub workload: String,
    /// Timed repetitions the median was taken over.
    pub repeats: u64,
    /// Accesses simulated by one canary run (deterministic).
    pub accesses_per_run: u64,
    /// Median accesses per host wallclock second — the gated metric.
    pub median_accesses_per_sec: f64,
    /// Slowest repetition's accesses/sec (diagnostic only).
    pub min_accesses_per_sec: f64,
    /// Fastest repetition's accesses/sec (diagnostic only).
    pub max_accesses_per_sec: f64,
}

/// Shard-scaling measurement of the multi-channel canary: one cell on a
/// `channels`-channel topology, timed once with a single shard worker and
/// once with one worker per channel (bounded by the host). The runs are
/// asserted byte-identical by the `regression_gate` binary before timing;
/// this block records only the wallclock side.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingMetrics {
    /// Scheme of the scaling canary cell.
    pub scheme: String,
    /// Workload of the scaling canary cell.
    pub workload: String,
    /// Channels simulated (= maximum useful shard workers).
    pub channels: u64,
    /// Timed repetitions each median was taken over.
    pub repeats: u64,
    /// Accesses simulated by one canary run, summed over channels.
    pub accesses_per_run: u64,
    /// Median accesses/sec with `shard_workers = 1` (serial shards).
    pub single_accesses_per_sec: f64,
    /// Median accesses/sec with `shard_workers` parallel workers.
    pub sharded_accesses_per_sec: f64,
    /// Shard workers the parallel leg actually used
    /// (`min(channels, host_parallelism)`).
    pub shard_workers: u64,
    /// `available_parallelism()` of the measuring host — the gate only
    /// enforces [`tolerance::SCALING_MIN_SPEEDUP`] when this covers every
    /// channel.
    pub host_parallelism: u64,
    /// `sharded_accesses_per_sec / single_accesses_per_sec` — the gated
    /// scaling efficiency.
    pub scaling_efficiency: f64,
}

/// The whole gate report / baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Rowhammer threshold the canary ran at.
    pub t_rh: u64,
    /// Simulated epochs per run.
    pub epochs: u64,
    /// Workload seed.
    pub seed: u64,
    /// Host-throughput measurement, `None` in baselines produced before
    /// the throughput gate existed (they still parse and gate on the
    /// behavioral metrics alone).
    pub throughput: Option<ThroughputMetrics>,
    /// Shard-scaling measurement of the multi-channel canary, `None` in
    /// baselines produced before the sharded simulator existed (they
    /// still parse and skip the scaling gate).
    pub scaling: Option<ScalingMetrics>,
    /// One entry per canary cell, in matrix order.
    pub cells: Vec<CellMetrics>,
}

/// Median of a sample set (mean of the middle pair for even sizes; 0 for
/// an empty set).
pub fn median_of(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Formats a float so that parsing it back yields the identical `f64`
/// (Rust's shortest-roundtrip `Display`). Non-finite values — which valid
/// gate metrics never produce — serialize as 0 to keep the JSON parseable.
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl GateReport {
    /// Renders the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"aqua-bench-gate-v1\",\n  \"t_rh\": {},\n  \
             \"epochs\": {},\n  \"seed\": {},\n  \"throughput\": ",
            self.t_rh, self.epochs, self.seed
        );
        match &self.throughput {
            None => out.push_str("null"),
            Some(t) => {
                out.push_str("{\n    \"scheme\": ");
                push_json_str(&mut out, &t.scheme);
                out.push_str(",\n    \"workload\": ");
                push_json_str(&mut out, &t.workload);
                let _ = write!(
                    out,
                    ",\n    \"repeats\": {},\n    \"accesses_per_run\": {},\n    \
                     \"median_accesses_per_sec\": {},\n    \"min_accesses_per_sec\": {},\n    \
                     \"max_accesses_per_sec\": {}\n  }}",
                    t.repeats,
                    t.accesses_per_run,
                    num(t.median_accesses_per_sec),
                    num(t.min_accesses_per_sec),
                    num(t.max_accesses_per_sec)
                );
            }
        }
        out.push_str(",\n  \"scaling\": ");
        match &self.scaling {
            None => out.push_str("null"),
            Some(s) => {
                out.push_str("{\n    \"scheme\": ");
                push_json_str(&mut out, &s.scheme);
                out.push_str(",\n    \"workload\": ");
                push_json_str(&mut out, &s.workload);
                let _ = write!(
                    out,
                    ",\n    \"channels\": {},\n    \"repeats\": {},\n    \
                     \"accesses_per_run\": {},\n    \"single_accesses_per_sec\": {},\n    \
                     \"sharded_accesses_per_sec\": {},\n    \"shard_workers\": {},\n    \
                     \"host_parallelism\": {},\n    \"scaling_efficiency\": {}\n  }}",
                    s.channels,
                    s.repeats,
                    s.accesses_per_run,
                    num(s.single_accesses_per_sec),
                    num(s.sharded_accesses_per_sec),
                    s.shard_workers,
                    s.host_parallelism,
                    num(s.scaling_efficiency)
                );
            }
        }
        out.push_str(",\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"scheme\": ");
            push_json_str(&mut out, &c.scheme);
            out.push_str(",\n      \"workload\": ");
            push_json_str(&mut out, &c.workload);
            let _ = write!(
                out,
                ",\n      \"slowdown_pct\": {},\n      \"migrations_per_epoch\": {},\n      \
                 \"attribution\": {{\"migration_pct\": {}, \"lookup_pct\": {}, \
                 \"table_traffic_pct\": {}, \"residual_pct\": {}}},\n      \"phases\": [",
                num(c.slowdown_pct),
                num(c.migrations_per_epoch),
                num(c.attribution.migration_pct),
                num(c.attribution.lookup_pct),
                num(c.attribution.table_traffic_pct),
                num(c.attribution.residual_pct)
            );
            for (j, p) in c.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"name\": ");
                push_json_str(&mut out, &p.name);
                let _ = write!(
                    out,
                    ", \"p50_ps\": {}, \"p99_ps\": {}}}",
                    num(p.p50_ps),
                    num(p.p99_ps)
                );
            }
            if !c.phases.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a baseline file produced by [`GateReport::to_json`].
    pub fn from_json(text: &str) -> Result<GateReport, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("top level is not an object")?;
        match json::get(obj, "schema").and_then(JsonValue::as_str) {
            Some("aqua-bench-gate-v1") => {}
            Some(other) => return Err(format!("unknown schema {other:?}")),
            None => return Err("missing \"schema\"".into()),
        }
        let field_u64 = |name: &str| -> Result<u64, String> {
            json::get(obj, name)
                .and_then(JsonValue::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let cells_v = json::get(obj, "cells")
            .and_then(JsonValue::as_arr)
            .ok_or("missing \"cells\" array")?;
        let mut cells = Vec::new();
        for cv in cells_v {
            let co = cv.as_obj().ok_or("cell is not an object")?;
            let sfield = |name: &str| -> Result<String, String> {
                json::get(co, name)
                    .and_then(JsonValue::as_str)
                    .map(String::from)
                    .ok_or_else(|| format!("cell missing string field {name:?}"))
            };
            let nfield = |name: &str| -> Result<f64, String> {
                json::get(co, name)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("cell missing numeric field {name:?}"))
            };
            let ao = json::get(co, "attribution")
                .and_then(JsonValue::as_obj)
                .ok_or("cell missing \"attribution\"")?;
            let afield = |name: &str| -> Result<f64, String> {
                json::get(ao, name)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("attribution missing field {name:?}"))
            };
            let mut phases = Vec::new();
            for pv in json::get(co, "phases")
                .and_then(JsonValue::as_arr)
                .ok_or("cell missing \"phases\"")?
            {
                let po = pv.as_obj().ok_or("phase is not an object")?;
                let pget = |name: &str| -> Result<f64, String> {
                    json::get(po, name)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("phase missing field {name:?}"))
                };
                phases.push(PhaseLatency {
                    name: json::get(po, "name")
                        .and_then(JsonValue::as_str)
                        .ok_or("phase missing \"name\"")?
                        .to_string(),
                    p50_ps: pget("p50_ps")?,
                    p99_ps: pget("p99_ps")?,
                });
            }
            cells.push(CellMetrics {
                scheme: sfield("scheme")?,
                workload: sfield("workload")?,
                slowdown_pct: nfield("slowdown_pct")?,
                migrations_per_epoch: nfield("migrations_per_epoch")?,
                attribution: CellAttribution {
                    migration_pct: afield("migration_pct")?,
                    lookup_pct: afield("lookup_pct")?,
                    table_traffic_pct: afield("table_traffic_pct")?,
                    residual_pct: afield("residual_pct")?,
                },
                phases,
            });
        }
        // Absent or null in pre-throughput (v1) baselines: still parses,
        // and [`compare`] simply skips the throughput gate.
        let throughput = match json::get(obj, "throughput") {
            None | Some(JsonValue::Null) => None,
            Some(tv) => {
                let to = tv.as_obj().ok_or("\"throughput\" is not an object")?;
                let tnum = |name: &str| -> Result<f64, String> {
                    json::get(to, name)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("throughput missing numeric field {name:?}"))
                };
                let tstr = |name: &str| -> Result<String, String> {
                    json::get(to, name)
                        .and_then(JsonValue::as_str)
                        .map(String::from)
                        .ok_or_else(|| format!("throughput missing string field {name:?}"))
                };
                Some(ThroughputMetrics {
                    scheme: tstr("scheme")?,
                    workload: tstr("workload")?,
                    repeats: tnum("repeats")? as u64,
                    accesses_per_run: tnum("accesses_per_run")? as u64,
                    median_accesses_per_sec: tnum("median_accesses_per_sec")?,
                    min_accesses_per_sec: tnum("min_accesses_per_sec")?,
                    max_accesses_per_sec: tnum("max_accesses_per_sec")?,
                })
            }
        };
        // Absent or null in pre-sharding (v1-v3) baselines: still parses,
        // and [`compare`] simply skips the scaling gate.
        let scaling = match json::get(obj, "scaling") {
            None | Some(JsonValue::Null) => None,
            Some(sv) => {
                let so = sv.as_obj().ok_or("\"scaling\" is not an object")?;
                let snum = |name: &str| -> Result<f64, String> {
                    json::get(so, name)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("scaling missing numeric field {name:?}"))
                };
                let sstr = |name: &str| -> Result<String, String> {
                    json::get(so, name)
                        .and_then(JsonValue::as_str)
                        .map(String::from)
                        .ok_or_else(|| format!("scaling missing string field {name:?}"))
                };
                Some(ScalingMetrics {
                    scheme: sstr("scheme")?,
                    workload: sstr("workload")?,
                    channels: snum("channels")? as u64,
                    repeats: snum("repeats")? as u64,
                    accesses_per_run: snum("accesses_per_run")? as u64,
                    single_accesses_per_sec: snum("single_accesses_per_sec")?,
                    sharded_accesses_per_sec: snum("sharded_accesses_per_sec")?,
                    shard_workers: snum("shard_workers")? as u64,
                    host_parallelism: snum("host_parallelism")? as u64,
                    scaling_efficiency: snum("scaling_efficiency")?,
                })
            }
        };
        Ok(GateReport {
            t_rh: field_u64("t_rh")?,
            epochs: field_u64("epochs")?,
            seed: field_u64("seed")?,
            throughput,
            scaling,
            cells,
        })
    }
}

/// Compares `current` against the committed `baseline` and returns one
/// human-readable line per violated tolerance (empty = gate passes).
pub fn compare(baseline: &GateReport, current: &GateReport) -> Vec<String> {
    use tolerance::*;
    let mut failures = Vec::new();
    if (baseline.t_rh, baseline.epochs, baseline.seed)
        != (current.t_rh, current.epochs, current.seed)
    {
        failures.push(format!(
            "canary configuration changed: baseline (t_rh={}, epochs={}, seed={}) \
             vs current (t_rh={}, epochs={}, seed={}) — regenerate the baseline",
            baseline.t_rh,
            baseline.epochs,
            baseline.seed,
            current.t_rh,
            current.epochs,
            current.seed
        ));
        return failures;
    }
    // The throughput gate is downward-only (slower fails, faster is fine)
    // and needs both sides: a pre-throughput baseline, or a current run
    // that skipped the timing canary, gates on behavior alone.
    if let (Some(bt), Some(ct)) = (&baseline.throughput, &current.throughput) {
        let floor = bt.median_accesses_per_sec / THROUGHPUT_FACTOR;
        if bt.median_accesses_per_sec > 0.0 && ct.median_accesses_per_sec < floor {
            failures.push(format!(
                "throughput: median {:.0} accesses/sec fell below {:.0} \
                 (baseline {:.0} / tolerance factor {THROUGHPUT_FACTOR}) on {}/{}",
                ct.median_accesses_per_sec,
                floor,
                bt.median_accesses_per_sec,
                bt.scheme,
                bt.workload
            ));
        }
    }
    // The scaling gate is host-parallelism-adaptive: a host with fewer
    // cores than the canary has channels cannot show a parallel speedup,
    // so its honest numbers are recorded but never gated. The baseline's
    // own efficiency is not a bound — the floor is absolute.
    if let Some(cs) = &current.scaling {
        if cs.host_parallelism >= cs.channels
            && cs.single_accesses_per_sec > 0.0
            && cs.scaling_efficiency < SCALING_MIN_SPEEDUP
        {
            failures.push(format!(
                "scaling: {}-channel canary reached only {:.2}x single-shard throughput \
                 ({:.0} vs {:.0} accesses/sec) on a {}-core host; the floor is \
                 {SCALING_MIN_SPEEDUP}x on {}/{}",
                cs.channels,
                cs.scaling_efficiency,
                cs.sharded_accesses_per_sec,
                cs.single_accesses_per_sec,
                cs.host_parallelism,
                cs.scheme,
                cs.workload
            ));
        }
    }
    for b in &baseline.cells {
        let id = format!("{}/{}", b.scheme, b.workload);
        let Some(c) = current
            .cells
            .iter()
            .find(|c| c.scheme == b.scheme && c.workload == b.workload)
        else {
            failures.push(format!("{id}: cell missing from current run"));
            continue;
        };
        if c.slowdown_pct > b.slowdown_pct + SLOWDOWN_PP {
            failures.push(format!(
                "{id}: slowdown {:.2}% exceeds baseline {:.2}% by more than {SLOWDOWN_PP} pp",
                c.slowdown_pct, b.slowdown_pct
            ));
        }
        let mig_bound = b.migrations_per_epoch.abs().max(1.0) * MIGRATIONS_REL;
        if (c.migrations_per_epoch - b.migrations_per_epoch).abs() > mig_bound {
            failures.push(format!(
                "{id}: migrations/epoch {:.1} drifted from baseline {:.1} by more than {:.0}%",
                c.migrations_per_epoch,
                b.migrations_per_epoch,
                MIGRATIONS_REL * 100.0
            ));
        }
        if c.attribution.residual_pct.abs() > RESIDUAL_PP {
            failures.push(format!(
                "{id}: attribution residual {:.2} pp exceeds the {RESIDUAL_PP} pp tolerance \
                 (components no longer explain the slowdown)",
                c.attribution.residual_pct
            ));
        }
        for bp in &b.phases {
            let Some(cp) = c.phases.iter().find(|p| p.name == bp.name) else {
                failures.push(format!("{id}: phase {} missing from current run", bp.name));
                continue;
            };
            for (metric, bv, cv) in [("p50", bp.p50_ps, cp.p50_ps), ("p99", bp.p99_ps, cp.p99_ps)] {
                if bv < PHASE_FLOOR_PS && cv < PHASE_FLOOR_PS {
                    continue;
                }
                if cv > bv * (1.0 + PHASE_REL) + PHASE_FLOOR_PS {
                    failures.push(format!(
                        "{id}: {} {metric} {cv:.0} ps exceeds baseline {bv:.0} ps \
                         by more than {:.0}%",
                        bp.name,
                        PHASE_REL * 100.0
                    ));
                }
            }
        }
    }
    failures
}

/// Minimal JSON value for the baseline parser.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as an object's field list, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The hand-rolled JSON-subset parser (no external dependencies).
pub mod json {
    use super::JsonValue;

    /// Looks up `name` in an object's field list.
    pub fn get<'a>(obj: &'a [(String, JsonValue)], name: &str) -> Option<&'a JsonValue> {
        obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Deepest array/object nesting [`parse`] accepts. The gate's own
    /// documents nest four levels; the limit keeps outside input (journal
    /// lines, a baseline file, a `/healthz` body) from recursing the stack
    /// away.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn eat_keyword(&mut self, word: &str) -> bool {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<JsonValue, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(JsonValue::Str(self.string()?)),
                Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
                Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
                Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        /// Parses one array or object with `parse_one`, one level deeper.
        fn nested(
            &mut self,
            parse_one: fn(&mut Self) -> Result<JsonValue, String>,
        ) -> Result<JsonValue, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let value = parse_one(self);
            self.depth -= 1;
            value
        }

        fn object(&mut self) -> Result<JsonValue, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                                // Surrogate pairs are not emitted by the gate
                                // writer; map them to the replacement char.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!(
                                    "bad escape {:?} at byte {}",
                                    other.map(|c| c as char),
                                    self.pos
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str, so
                        // byte boundaries are safe to find this way).
                        let start = self.pos;
                        self.pos += 1;
                        while self.pos < self.bytes.len()
                            && (self.bytes[self.pos] & 0b1100_0000) == 0b1000_0000
                        {
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| "invalid UTF-8 in string")?,
                        );
                    }
                }
            }
        }

        fn number(&mut self) -> Result<JsonValue, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "invalid number bytes")?;
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GateReport {
        GateReport {
            t_rh: 1000,
            epochs: 1,
            seed: 42,
            throughput: Some(ThroughputMetrics {
                scheme: "aqua-sram".into(),
                workload: "mcf".into(),
                repeats: 5,
                accesses_per_run: 1_400_000,
                median_accesses_per_sec: 2_000_000.0,
                min_accesses_per_sec: 1_800_000.0,
                max_accesses_per_sec: 2_200_000.0,
            }),
            scaling: Some(ScalingMetrics {
                scheme: "aqua-sram".into(),
                workload: "mcf".into(),
                channels: 4,
                repeats: 5,
                accesses_per_run: 5_600_000,
                single_accesses_per_sec: 2_000_000.0,
                sharded_accesses_per_sec: 6_400_000.0,
                shard_workers: 4,
                host_parallelism: 8,
                scaling_efficiency: 3.2,
            }),
            cells: vec![CellMetrics {
                scheme: "aqua-sram".into(),
                workload: "mcf".into(),
                slowdown_pct: 1.25,
                migrations_per_epoch: 37.0,
                attribution: CellAttribution {
                    migration_pct: 0.9,
                    lookup_pct: 0.2,
                    table_traffic_pct: 0.1,
                    residual_pct: 0.05,
                },
                phases: vec![PhaseLatency {
                    name: "span.migration.install".into(),
                    p50_ps: 1_372_000.0,
                    p99_ps: 1_372_000.0,
                }],
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_json_exactly() {
        let r = sample();
        let parsed = GateReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let v = json::parse(r#"{"a\n\"b":[1,-2.5e3,true,null,{"x":[]}]}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let arr = json::get(obj, "a\n\"b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3], JsonValue::Null);
        assert!(json::parse("{\"a\":1}x").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("").is_err());
        assert_eq!(
            json::parse("\"caf\\u00e9\"").unwrap().as_str(),
            Some("café")
        );
    }

    #[test]
    fn parser_rejects_nesting_past_the_limit() {
        let deepest = "[".repeat(json::MAX_DEPTH) + &"]".repeat(json::MAX_DEPTH);
        assert!(json::parse(&deepest).is_ok());
        let too_deep = format!("{{\"a\":{deepest}}}");
        assert!(json::parse(&too_deep).unwrap_err().contains("nesting"));
        // A 100 KB line of brackets is an error, not a stack overflow.
        let err = json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = sample();
        assert!(compare(&r, &r).is_empty());
    }

    #[test]
    fn injected_slowdown_and_residual_fail_the_gate() {
        let base = sample();
        let mut cur = base.clone();
        cur.cells[0].slowdown_pct += 10.0;
        cur.cells[0].attribution.residual_pct += 10.0;
        let failures = compare(&base, &cur);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("slowdown"), "{failures:?}");
        assert!(failures[1].contains("residual"), "{failures:?}");
    }

    #[test]
    fn migration_drift_fails_in_both_directions() {
        let base = sample();
        for factor in [0.5, 2.0] {
            let mut cur = base.clone();
            cur.cells[0].migrations_per_epoch *= factor;
            let failures = compare(&base, &cur);
            assert!(
                failures.iter().any(|f| f.contains("migrations/epoch")),
                "factor {factor}: {failures:?}"
            );
        }
    }

    #[test]
    fn phase_latencies_gate_only_when_both_sides_have_telemetry() {
        let base = sample();
        let mut cur = base.clone();
        cur.cells[0].phases[0].p99_ps *= 2.0;
        assert!(compare(&base, &cur)
            .iter()
            .any(|f| f.contains("span.migration.install")));
    }

    #[test]
    fn missing_cell_and_changed_config_fail() {
        let base = sample();
        let mut empty = base.clone();
        empty.cells.clear();
        assert!(compare(&base, &empty)[0].contains("missing"));
        let mut retuned = base.clone();
        retuned.t_rh = 500;
        assert!(compare(&base, &retuned)[0].contains("configuration changed"));
    }

    #[test]
    fn median_of_handles_odd_even_and_empty() {
        assert_eq!(median_of(vec![]), 0.0);
        assert_eq!(median_of(vec![3.0]), 3.0);
        assert_eq!(median_of(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median_of(vec![4.0, 1.0, 2.0, 8.0]), 3.0);
    }

    #[test]
    fn throughput_gates_on_collapse_only() {
        let base = sample();
        // Modest slowdown (within the generous factor): passes.
        let mut slower = base.clone();
        slower.throughput.as_mut().unwrap().median_accesses_per_sec /= 2.0;
        assert!(compare(&base, &slower).is_empty());
        // Faster: always passes.
        let mut faster = base.clone();
        faster.throughput.as_mut().unwrap().median_accesses_per_sec *= 10.0;
        assert!(compare(&base, &faster).is_empty());
        // Collapse beyond the factor: fails, and says by how much.
        let mut collapsed = base.clone();
        collapsed
            .throughput
            .as_mut()
            .unwrap()
            .median_accesses_per_sec /= 10.0;
        let failures = compare(&base, &collapsed);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("throughput"), "{failures:?}");
        assert!(failures[0].contains("aqua-sram/mcf"), "{failures:?}");
    }

    #[test]
    fn throughput_gate_skips_when_either_side_lacks_it() {
        let base = sample();
        let mut old_baseline = base.clone();
        old_baseline.throughput = None;
        let mut collapsed = base.clone();
        collapsed
            .throughput
            .as_mut()
            .unwrap()
            .median_accesses_per_sec = 1.0;
        // v1 baseline without throughput: current's numbers are reported
        // but not gated.
        assert!(compare(&old_baseline, &collapsed).is_empty());
        // Current run skipped the timing canary: also no gate.
        let mut no_timing = base.clone();
        no_timing.throughput = None;
        assert!(compare(&base, &no_timing).is_empty());
    }

    #[test]
    fn throughput_roundtrips_and_null_parses_as_none() {
        let with = sample();
        assert_eq!(GateReport::from_json(&with.to_json()).unwrap(), with);
        let mut without = sample();
        without.throughput = None;
        let j = without.to_json();
        assert!(j.contains("\"throughput\": null"), "{j}");
        assert_eq!(GateReport::from_json(&j).unwrap(), without);
    }

    #[test]
    fn parser_tolerates_unknown_fields() {
        // A future schema revision may add fields; today's parser must
        // look up what it knows and ignore the rest — at every level.
        let mut r = sample();
        r.throughput = None;
        let j = r
            .to_json()
            .replacen("\"t_rh\"", "\"future_top\": {\"x\": [1,2]},\n  \"t_rh\"", 1)
            .replacen("\"scheme\"", "\"future_cell\": true,\n      \"scheme\"", 1)
            .replacen("\"p50_ps\"", "\"future_phase\": null, \"p50_ps\"", 1);
        assert_eq!(GateReport::from_json(&j).unwrap(), r);
    }

    #[test]
    fn v1_committed_baseline_still_parses() {
        // BENCH_5.json predates the throughput block; it must keep parsing
        // (backward compatibility for old baselines and external readers).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_5.json");
        let r = GateReport::from_json(&text).expect("v1 baseline parses");
        assert_eq!((r.t_rh, r.epochs, r.seed), (1000, 1, 42));
        assert!(r.throughput.is_none());
        assert!(!r.cells.is_empty());
        // And it still gates cleanly against itself.
        assert!(compare(&r, &r).is_empty());
    }

    #[test]
    fn v2_committed_baseline_still_parses() {
        // BENCH_6.json is the last pre-campaign throughput baseline; it is
        // kept committed as a parser fixture for the v2 (with-throughput)
        // format after BENCH_7.json became the gated baseline.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_6.json");
        let r = GateReport::from_json(&text).expect("v2 baseline parses");
        assert_eq!((r.t_rh, r.epochs, r.seed), (1000, 1, 42));
        let t = r.throughput.as_ref().expect("v2 baseline has throughput");
        assert!(t.median_accesses_per_sec > 0.0);
        assert!(!r.cells.is_empty());
        // And it still gates cleanly against itself.
        assert!(compare(&r, &r).is_empty());
    }

    #[test]
    fn v3_committed_baseline_still_parses() {
        // BENCH_7.json is the last pre-sharding baseline (throughput but
        // no scaling block); it is kept committed as a parser fixture for
        // the v3 format after BENCH_8.json became the gated baseline.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_7.json");
        let r = GateReport::from_json(&text).expect("v3 baseline parses");
        assert_eq!((r.t_rh, r.epochs, r.seed), (1000, 1, 42));
        assert!(r.throughput.is_some());
        assert!(
            r.scaling.is_none(),
            "v3 baselines predate the scaling block"
        );
        assert!(!r.cells.is_empty());
        // And it still gates cleanly against itself.
        assert!(compare(&r, &r).is_empty());
    }

    #[test]
    fn scaling_roundtrips_and_null_parses_as_none() {
        let with = sample();
        assert_eq!(GateReport::from_json(&with.to_json()).unwrap(), with);
        let mut without = sample();
        without.scaling = None;
        let j = without.to_json();
        assert!(j.contains("\"scaling\": null"), "{j}");
        assert_eq!(GateReport::from_json(&j).unwrap(), without);
    }

    #[test]
    fn scaling_gate_is_host_parallelism_adaptive() {
        let base = sample();
        // Healthy scaling on a parallel host: passes.
        assert!(compare(&base, &base).is_empty());
        // Collapse on a parallel host: fails and names the cell.
        let mut flat = base.clone();
        {
            let s = flat.scaling.as_mut().unwrap();
            s.sharded_accesses_per_sec = s.single_accesses_per_sec * 1.1;
            s.scaling_efficiency = 1.1;
        }
        let failures = compare(&base, &flat);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("scaling"), "{failures:?}");
        assert!(failures[0].contains("aqua-sram/mcf"), "{failures:?}");
        // The same flat numbers on a 1-core host are recorded, not gated:
        // four shards time-slicing one core cannot speed anything up.
        let mut starved = flat.clone();
        starved.scaling.as_mut().unwrap().host_parallelism = 1;
        assert!(compare(&base, &starved).is_empty());
        // A baseline or current without the block skips the gate entirely.
        let mut old = base.clone();
        old.scaling = None;
        assert!(compare(&base, &old).is_empty());
    }

    #[test]
    fn sub_nanosecond_phases_are_never_compared() {
        let mut base = sample();
        base.cells[0].phases[0].p50_ps = 10.0;
        base.cells[0].phases[0].p99_ps = 10.0;
        let mut cur = base.clone();
        cur.cells[0].phases[0].p50_ps = 900.0; // 90x, but below the floor
        cur.cells[0].phases[0].p99_ps = 900.0;
        assert!(compare(&base, &cur).is_empty());
    }
}
