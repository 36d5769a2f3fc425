//! Host-time profiler over a canary simulation matrix.
//!
//! ```text
//! profile [--scheme NAME] [--workload NAME] [--trh N] [--epochs N]
//!         [--channels N] [--shard-workers N] [--folded FILE] [--jsonl FILE]
//! ```
//!
//! Runs the selected `(scheme, workload)` cell through the instrumented
//! matrix runner with a telemetry hub attached, then reports **where the
//! host wallclock went** — not simulated time, see DESIGN.md §12 — across
//! the coarse phases the stack instruments (`bench.setup`/`run`/`merge`,
//! `sim.run` > `sim.epoch`, `sim.refresh_drain`, `sim.epoch_end` >
//! `aqua.end_epoch`, `bench.csv`):
//!
//! - a per-phase table on stdout: call count, total/self time, min/max,
//!   and share of the total host wallclock;
//! - **folded-stacks** text (default `target/experiments/profile.folded`),
//!   one `path self_ns` line per phase path, directly consumable by
//!   `flamegraph.pl` or `inferno-flamegraph`;
//! - the same data as JSONL (default `target/experiments/profile.jsonl`)
//!   plus a trailer record with the throughput metrics;
//! - a CSV via the instrumented writer, so the CSV write itself lands in
//!   the hub as a `bench.csv` phase.
//!
//! With `--channels N > 1` the cell runs through the sharded engine
//! (`--shard-workers` caps the worker pool, 0 = one per core) and every
//! shard's phases come back under `sim.sharded;shard<i>;…`, so the table
//! shows each channel's hot loop separately. A **shard-imbalance summary**
//! follows: per-shard wallclock (summed over that shard's merged root
//! phases), min/median/max, and the max/median ratio — the number that says
//! whether a parallel run is gated on one slow channel.
//!
//! Defaults: aqua-sram on mcf, `T_RH=1000`, 1 epoch, 1 channel. Arguments
//! are checked as `simulate` checks them: one it does not read, an unknown
//! scheme or workload, an unparsable number, or a `--trh` below the
//! scheme's minimum exits 2 before anything runs. Both output files are
//! created before the simulation starts, as `simulate` creates its
//! outputs: neither is truncated until both open, and only
//! `target/experiments` is made if missing, so a flag naming a path in a
//! missing directory, or any file that cannot be created, written or
//! flushed, ends the program with exit code 2 and a line naming its flag
//! and path.

use aqua_bench::cli::Args;
use aqua_bench::output::{write_csv_instrumented, OutputFile};
use aqua_bench::{Harness, Scheme};
use aqua_telemetry::{PhaseStats, Telemetry};

/// Nesting depth of a `;`-joined phase path (root = 0).
fn depth(path: &str) -> usize {
    path.matches(';').count()
}

/// The leaf phase name of a `;`-joined path.
fn leaf(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_phase_table(paths: &[(String, PhaseStats)], host_ns: u64) {
    println!(
        "\n{:<34} {:>8} {:>12} {:>12} {:>11} {:>11} {:>7}",
        "phase", "count", "total(ms)", "self(ms)", "min(us)", "max(us)", "self%"
    );
    for (path, stats) in paths {
        let label = format!("{}{}", "  ".repeat(depth(path)), leaf(path));
        let share = if host_ns > 0 {
            stats.self_ns() as f64 / host_ns as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<34} {:>8} {:>12.3} {:>12.3} {:>11.1} {:>11.1} {:>6.1}%",
            label,
            stats.count,
            ms(stats.total_ns),
            ms(stats.self_ns()),
            stats.min_ns as f64 / 1e3,
            stats.max_ns as f64 / 1e3,
            share
        );
    }
}

fn main() {
    let mut args = Args::from_env();
    let scheme = args
        .parse_with("--scheme", "NAME", Scheme::from_name)
        .unwrap_or(Scheme::AquaSram);
    let workload = args
        .parse_with("--workload", "NAME", Harness::known_workload)
        .unwrap_or_else(|| "mcf".into());
    let t_rh = args.t_rh(&[scheme]);
    let epochs: u64 = args.parse("--epochs", "N").unwrap_or(1);
    let channels: u32 = args
        .parse_with("--channels", "N", |raw| match raw.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err("takes a positive channel count".into()),
        })
        .unwrap_or(1);
    let shard_workers: usize = args.parse("--shard-workers", "N").unwrap_or(0);
    let outputs = [("--folded", "profile.folded"), ("--jsonl", "profile.jsonl")];
    let outputs = outputs.map(|(flag, file)| {
        let default = format!("target/experiments/{file}");
        (flag, Some(args.value(flag, "FILE").unwrap_or(default)))
    });
    args.finish();

    // The default outputs and the CSV live here; a directory a flag names
    // must already exist.
    let _ = std::fs::create_dir_all("target/experiments");
    let [mut folded, mut jsonl] =
        OutputFile::create_all(outputs).map(|out| out.expect("every output has a default path"));

    let mut harness = Harness::new(t_rh);
    harness.epochs = epochs;
    harness.base = harness.base.with_channels(channels);
    harness.shard_workers = shard_workers;

    let hub = Telemetry::new(Default::default());
    println!(
        "profiling {} on {workload} at T_RH={t_rh} for {} epoch(s), {channels} channel(s)...",
        scheme.name(),
        harness.epochs
    );
    let results =
        harness.run_matrix_instrumented(&[scheme], std::slice::from_ref(&workload), Some(&hub));
    let report = results
        .expect_complete()
        .reports()
        .next()
        .expect("one cell");
    println!(
        "simulation done: {} requests completed",
        report.requests_done
    );

    let wall = hub
        .summary()
        .and_then(|summary| summary.wallclock)
        .expect("a live hub records the run's phases");

    print_phase_table(&wall.paths, wall.host_wallclock_ns);
    // Per-job sim phases merge back as *sibling* roots of the coordinator's
    // bench.* phases, so — exactly like perf samples folded across threads —
    // root totals sum CPU-side time and can exceed elapsed wallclock.
    println!(
        "\nhost time      : {:.3} ms across {} phase paths (summed over threads)",
        ms(wall.host_wallclock_ns),
        wall.paths.len()
    );
    println!("accesses       : {}", wall.accesses_simulated);
    println!(
        "throughput     : {:.0} accesses per host-second",
        wall.accesses_per_sec
    );
    print_shard_imbalance(&wall.paths);

    // CSV through the instrumented writer: the write itself records a
    // `bench.csv` phase into the hub (visible on the *next* profile run or
    // to any longer-lived consumer of this hub).
    let rows: Vec<Vec<String>> = wall
        .paths
        .iter()
        .map(|(path, s)| {
            vec![
                path.clone(),
                s.count.to_string(),
                s.total_ns.to_string(),
                s.self_ns().to_string(),
                s.min_ns.to_string(),
                s.max_ns.to_string(),
            ]
        })
        .collect();
    write_csv_instrumented(
        &hub,
        "profile",
        &["path", "count", "total_ns", "self_ns", "min_ns", "max_ns"],
        &rows,
    );

    folded.write(|w| wall.write_folded(w));
    println!("wrote {}", folded.path);

    jsonl.write(|w| wall.write_jsonl(w));
    println!("wrote {}", jsonl.path);

    println!(
        "render a flamegraph with: flamegraph.pl {} > profile.svg",
        folded.path
    );
}

/// Per-shard wallclock and imbalance from the merged phase tree.
///
/// Each shard's phases come back under `sim.sharded;shard<i>;…`; a shard's
/// wallclock is the sum of its merged *root* phases (direct children of the
/// shard prefix), which is how the coordinator's own `sim.sharded` span
/// would see it if the shards ran serially. Prints nothing on a
/// single-channel profile (no shard prefixes in the tree).
fn print_shard_imbalance(paths: &[(String, PhaseStats)]) {
    let mut per_shard: Vec<(String, u64)> = Vec::new();
    for (path, stats) in paths {
        let Some(rest) = path.strip_prefix("sim.sharded;") else {
            continue;
        };
        let Some((shard, tail)) = rest.split_once(';') else {
            continue;
        };
        if tail.contains(';') {
            continue; // not a shard-root phase; already counted in its root
        }
        match per_shard.iter_mut().find(|(name, _)| name == shard) {
            Some((_, ns)) => *ns += stats.total_ns,
            None => per_shard.push((shard.to_string(), stats.total_ns)),
        }
    }
    if per_shard.is_empty() {
        return;
    }
    println!("\nshard imbalance ({} shards):", per_shard.len());
    for (shard, ns) in &per_shard {
        println!("  {:<10} {:>12.3} ms", shard, ms(*ns));
    }
    let mut sorted: Vec<u64> = per_shard.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let ratio = if median > 0 {
        max as f64 / median as f64
    } else {
        0.0
    };
    println!(
        "  min {:.3} ms, median {:.3} ms, max {:.3} ms -> max/median {:.2}x",
        ms(min),
        ms(median),
        ms(max),
        ratio
    );
}
