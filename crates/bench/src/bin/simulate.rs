//! General-purpose simulation CLI.
//!
//! ```text
//! simulate [--scheme NAME] [--workload NAME] [--trh N] [--epochs N]
//!          [--trace-out FILE] [--timeseries-out FILE] [--histograms FILE]
//!          [--spans-out FILE] [--trace-activates] [--trace-capacity N]
//!          [--metrics-addr HOST:PORT]
//! ```
//!
//! - `--scheme`: baseline | aqua-sram | aqua-mapped | rrs | victim-refresh |
//!   blockhammer (default aqua-sram)
//! - `--workload`: any Table II name or `mixNN` (default mcf)
//! - `--trh`: Rowhammer threshold (default 1000, at least the scheme's
//!   minimum)
//! - `--epochs`: 64 ms epochs to simulate (default 2)
//! - `--trace-out`: write the event trace **and causal migration spans** as
//!   a Chrome-loadable JSON file (open in `chrome://tracing` or Perfetto;
//!   spans render as duration bars, events as instants)
//! - `--spans-out`: write the completed spans as JSONL (one record per
//!   span: id, parent, name, start/end/duration in ps)
//! - `--timeseries-out`: write the per-epoch time series as JSONL (one
//!   record per epoch: migrations, RQA occupancy, FPT-cache hit rate, ...)
//! - `--histograms`: write the latency histograms (memory access, migration
//!   stall, table lookup) as JSONL
//! - `--trace-activates`: include per-access `Activate` events in the trace
//!   (high volume; off by default)
//! - `--trace-capacity`: ring-buffer size of the event trace (default 65536;
//!   oldest events are dropped first)
//! - `--metrics-addr`: serve live `/metrics` (Prometheus text) and
//!   `/healthz` on this address while the run is in flight (port 0 binds an
//!   ephemeral port; equivalent to setting `AQUA_METRICS_ADDR`). Watch it
//!   with the `monitor` binary. Deterministic outputs are byte-identical
//!   with the plane on or off.
//!
//! Prints the full run report, including the security-oracle verdict, the
//! shadow-memory integrity check, and — when a hub is attached — a
//! host-throughput section (accesses per wallclock second; see DESIGN.md
//! §12 on host vs simulated time). An argument it does not read, an
//! unknown scheme or workload, an unparsable number, or a `--trh` below
//! the scheme's minimum ends the program with exit code 2 before anything
//! runs. Every output file is created before the simulation starts, and
//! none is truncated until all of them open; one that cannot be created,
//! written or flushed ends the program with exit code 2 and a line naming
//! its flag and path.

use aqua_bench::cli::{self, Args};
use aqua_bench::output::OutputFile;
use aqua_bench::{Harness, Scheme};
use aqua_telemetry::export::{
    write_chrome_trace_full, write_epochs_jsonl, write_histogram_jsonl, write_spans_jsonl,
};
use aqua_telemetry::{Telemetry, TelemetryConfig};

/// The histogram names `Simulation::attach_telemetry` registers.
const HISTOGRAMS: [&str; 3] = ["mem.access_ps", "migration.stall_ps", "table.lookup_ps"];

fn main() {
    let mut args = Args::from_env();
    let scheme = args
        .parse_with("--scheme", "NAME", Scheme::from_name)
        .unwrap_or(Scheme::AquaSram);
    let workload = args
        .parse_with("--workload", "NAME", Harness::known_workload)
        .unwrap_or_else(|| "mcf".into());
    let t_rh = args.t_rh(&[scheme]);
    let epochs: Option<u64> = args.parse("--epochs", "N");
    let outputs = [
        "--trace-out",
        "--timeseries-out",
        "--histograms",
        "--spans-out",
    ]
    .map(|flag| (flag, args.value(flag, "FILE")));
    let trace_activates = args.switch("--trace-activates");
    let trace_capacity: Option<usize> = args.parse("--trace-capacity", "N");
    let metrics_addr = args.value("--metrics-addr", "HOST:PORT");
    args.finish();

    let mut harness = Harness::new(t_rh);
    harness.epochs = epochs.unwrap_or(harness.epochs);
    cli::bind_metrics(&mut harness, metrics_addr);
    // A live plane needs an enabled hub to snapshot, so it implies one
    // even when no export file was asked for.
    let want_telemetry =
        outputs.iter().any(|(_, path)| path.is_some()) || harness.metrics.is_some();
    let [trace_out, timeseries_out, histograms_out, spans_out] = OutputFile::create_all(outputs);
    let telemetry = want_telemetry.then(|| {
        let mut cfg = TelemetryConfig {
            trace_activates,
            ..TelemetryConfig::default()
        };
        if let Some(cap) = trace_capacity {
            cfg.trace_capacity = cap;
        }
        Telemetry::new(cfg)
    });

    println!(
        "running {} on {workload} at T_RH={t_rh} for {} epochs...",
        scheme.name(),
        harness.epochs
    );
    let baseline = harness.run(Scheme::Baseline, &workload);
    let report = if scheme == Scheme::Baseline && telemetry.is_none() {
        baseline.clone()
    } else {
        harness.run_instrumented(scheme, &workload, telemetry.as_ref())
    };

    println!("\nworkload             : {}", report.workload);
    println!("scheme               : {}", report.scheme);
    println!("requests completed   : {}", report.requests_done);
    println!(
        "normalized perf      : {:.4}",
        report.normalized_perf(&baseline)
    );
    println!(
        "row migrations/epoch : {:.1}",
        report.migrations_per_epoch()
    );
    println!(
        "victim refreshes     : {}",
        report.mitigation.victim_refreshes
    );
    println!("throttled requests   : {}", report.mitigation.throttled);
    println!("channel busy (data)  : {}", report.data_busy);
    println!("channel busy (migr.) : {}", report.migration_busy);
    println!("channel busy (table) : {}", report.table_busy);
    println!(
        "max row acts (window): {}",
        report.oracle.max_window_activations
    );
    println!("rows over T_RH       : {}", report.oracle.rows_over_trh);
    println!("rows flippable       : {}", report.oracle.rows_flippable);
    println!("scheme violations    : {}", report.mitigation.violations);
    println!("integrity violations : {}", report.integrity_violations);

    let Some(hub) = telemetry else { return };

    if let Some(summary) = &report.telemetry {
        println!("\n-- telemetry --");
        println!(
            "events               : {} recorded, {} dropped (ring full)",
            summary.events_recorded, summary.events_dropped
        );
        for (name, h) in &summary.histograms {
            if h.count == 0 {
                continue;
            }
            println!(
                "{name:<21}: n={} p50={:.0} p95={:.0} p99={:.0} max={} (ps)",
                h.count, h.p50, h.p95, h.p99, h.max
            );
        }
        // Host-time throughput (wallclock seconds, not simulated time —
        // see DESIGN.md §12). Present whenever the run opened phases.
        if let Some(w) = &summary.wallclock {
            println!("\n-- host throughput --");
            println!("accesses simulated   : {}", w.accesses_simulated);
            println!(
                "host wallclock       : {:.3} ms",
                w.host_wallclock_ns as f64 / 1e6
            );
            println!("accesses/sec (host)  : {:.0}", w.accesses_per_sec);
        }
    }

    if let Some(mut out) = trace_out {
        let events = hub.trace_events();
        let spans = hub.spans();
        out.write(|w| write_chrome_trace_full(w, events.iter(), &spans));
        println!(
            "wrote {} trace events and {} spans to {}",
            events.len(),
            spans.len(),
            out.path
        );
    }
    if let Some(mut out) = spans_out {
        let spans = hub.spans();
        out.write(|w| write_spans_jsonl(w, &spans));
        println!("wrote {} span records to {}", spans.len(), out.path);
    }
    if let Some(mut out) = timeseries_out {
        let series = hub.epochs();
        out.write(|w| write_epochs_jsonl(w, &series));
        println!("wrote {} epoch records to {}", series.len(), out.path);
    }
    if let Some(mut out) = histograms_out {
        out.write(|w| {
            HISTOGRAMS.iter().try_for_each(|&name| {
                write_histogram_jsonl(w, name, &hub.histogram(name).snapshot())
            })
        });
        println!("wrote {} histograms to {}", HISTOGRAMS.len(), out.path);
    }
    // Keep the endpoint up for late scrapers (AQUA_METRICS_LINGER_MS).
    if let Some(plane) = &harness.metrics {
        plane.linger_from_env();
    }
}
