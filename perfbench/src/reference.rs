//! A fixed reference kernel that measures how fast the host runs at the
//! moment, so that the untraced run can state its times at one nominal
//! host speed.
//!
//! On a shared host the same deterministic cell takes up to twice as long
//! from one stretch of seconds to the next, and whole minutes run faster
//! or slower than others, because other tenants contend for the cores and
//! their caches. The kernel is the benchmark's own code, so a change to
//! the simulator leaves it alone. Like the simulator, it is bound by the
//! core's load, store and branch units, not by one chain of dependent
//! instructions: it updates random entries of a table that fits the
//! core's L2 cache and branches on what it reads, and its time rises and
//! falls with the cells'. A dependent-chain ALU loop and pointer chases
//! over 1-128 MiB hardly moved while the cells slowed, and do not serve.
//! `perfbench/README.md` gives the spreads with and without scaling.

use std::time::Instant;

/// Table entries of one thread's kernel (256 KiB, inside a core's L2).
const TABLE_ENTRIES: usize = 1 << 16;

/// Loop iterations per thread of one reference run, 0.05-0.1 s on a
/// 2-vCPU Xeon VM.
const ITERATIONS: u64 = 12_000_000;

/// Seconds one reference run is taken to last at nominal host speed.
/// Scaled times are stated at this speed; it is a fixed unit, chosen near
/// the kernel's median time on a 2-vCPU Xeon VM, not a measurement.
pub const NOMINAL_S: f64 = 0.08;

/// Runs the kernel on `threads` threads at once (as many as the work it is
/// set against keeps busy) and returns their mean host seconds.
fn run(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|t| s.spawn(move || kernel(t as u64)))
            .collect();
        let own = kernel(0);
        own + others
            .into_iter()
            .map(|h| h.join().expect("reference kernel panicked"))
            .sum::<f64>()
    });
    total / threads as f64
}

/// One thread's kernel: host seconds of [`ITERATIONS`] random
/// read-modify-writes and data-dependent branches over a private table.
fn kernel(stream: u64) -> f64 {
    let mut table = vec![0u32; TABLE_ENTRIES];
    let mask = TABLE_ENTRIES - 1;
    let (mut a, mut b) = (1 + stream, 2 + stream);
    let (mut c, mut d) = (3u64, 4u64);
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..ITERATIONS {
        a = a
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b = b
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963409);
        c ^= c << 13;
        c ^= c >> 7;
        c ^= c << 17;
        d ^= d << 5;
        d ^= d >> 9;
        d ^= d << 11;
        let (i, j) = ((a >> 33) as usize & mask, (b >> 33) as usize & mask);
        table[i] = table[i].wrapping_add(1);
        if table[j] & 7 == c as u32 & 7 {
            acc = acc.wrapping_add(d);
        } else {
            table[j] ^= c as u32;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box((acc, table));
    seconds
}

/// Scales each timed piece of work by the reference runs just before and
/// just after it.
pub struct Scaler {
    threads: usize,
    last: f64,
    /// Every reference run's seconds, in order.
    pub runs: Vec<f64>,
}

impl Scaler {
    /// Takes the first reference run, the one before the first piece of work.
    pub fn new(threads: usize) -> Scaler {
        let last = run(threads);
        Scaler {
            threads,
            last,
            runs: vec![last],
        }
    }

    /// Seconds of the latest reference run.
    pub fn last(&self) -> f64 {
        self.last
    }

    /// `seconds` of work that just ended, stated at nominal host speed:
    /// multiplied by [`NOMINAL_S`] over the mean of the reference runs on
    /// either side of it. Takes the run after it, which is also the run
    /// before the next piece.
    pub fn scale(&mut self, seconds: f64) -> f64 {
        let after = run(self.threads);
        let around = (self.last + after) / 2.0;
        self.last = after;
        self.runs.push(after);
        seconds * NOMINAL_S / around
    }
}
