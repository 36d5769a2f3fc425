//! Facts about the host and the build that every result records, so a
//! noisy set of runs can be told apart from a slow change afterwards.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aqua_bench::journal::CellKey;

/// Aggregate CPU tick counters from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran something else while this guest wanted a CPU.
    pub steal: u64,
    /// All ticks, steal included.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the `cpu` line of `/proc/stat` (zeros where it is missing).
    pub fn read() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Ticks elapsed since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

/// A `/proc/self/status` field in kB (`VmHWM`, `Threads`, ...).
fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(name))?;
    line[name.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Samples this process's thread count while work runs.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    const INTERVAL: Duration = Duration::from_millis(20);

    /// Starts sampling on a thread of its own (counted in the peak).
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (stop_flag, peak_seen) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || loop {
            peak_seen.fetch_max(status_field("Threads").unwrap_or(0), Ordering::Relaxed);
            if stop_flag.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Self::INTERVAL);
        });
        ThreadSampler { stop, peak, handle }
    }

    /// Stops sampling and returns the highest thread count seen.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked");
        self.peak.load(Ordering::Relaxed)
    }
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `None` outside a git checkout.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
}

/// Digest of the simulator's sources (`Cargo.*` and every file
/// under `crates/` and `vendor/`), which names the code measured even in
/// a checkout without `.git`.
pub fn source_digest() -> String {
    let mut files: Vec<PathBuf> = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for dir in ["crates", "vendor"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.sort();
    let parts: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let bytes = std::fs::read(path).unwrap_or_default();
            [
                path.to_string_lossy().into_owned(),
                String::from_utf8_lossy(&bytes).into_owned(),
            ]
        })
        .collect();
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    CellKey::digest(&parts).hex()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        // Build outputs are not sources.
        if path.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
