//! Host steal: the share of CPU time the hypervisor of a virtual machine
//! gave to other tenants while this machine's CPUs wanted to run. It is
//! set by the host, not by the program, and it is what makes a shared
//! machine read slow in bursts. A sampler thread records the machine-wide
//! counters every [`PERIOD`], so any interval of the run can be asked how
//! much of it was stolen.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::now_s;

const PERIOD: Duration = Duration::from_millis(50);

/// `(timestamp, steal ticks, total ticks)`, in time order.
fn series() -> &'static Mutex<Vec<(f64, u64, u64)>> {
    static SERIES: OnceLock<Mutex<Vec<(f64, u64, u64)>>> = OnceLock::new();
    SERIES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Machine-wide `(steal, total)` CPU time from `/proc/stat`, in ticks;
/// zeros where the file is missing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

fn sample() {
    let (steal, total) = cpu_ticks();
    series()
        .lock()
        .expect("steal series poisoned")
        .push((now_s(), steal, total));
}

/// The running sampler; [`Sampler::finish`] stops and joins it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// Starts the sampler. It sleeps between reads.
pub fn start_sampler() -> Sampler {
    sample();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(PERIOD);
            sample();
        }
    });
    Sampler { stop, thread }
}

impl Sampler {
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("steal sampler panicked");
    }
}

/// Percent of machine CPU time stolen over `[t0, t1]` (seconds on the
/// sample clock), widened to the sampler readings around it; 0 when the
/// sampler has no readings there.
pub fn steal_pct(t0: f64, t1: f64) -> f64 {
    let s = series().lock().expect("steal series poisoned");
    let lo = s.iter().rev().find(|r| r.0 <= t0).or(s.first());
    let hi = s.iter().find(|r| r.0 >= t1).or(s.last());
    match (lo, hi) {
        (Some(a), Some(b)) if b.2 > a.2 => 100.0 * (b.1 - a.1) as f64 / (b.2 - a.2) as f64,
        _ => 0.0,
    }
}
