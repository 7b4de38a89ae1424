//! The open-loop load generator: arrivals from independent sources, each
//! a seeded Poisson process on the repo's splitmix stream, merged through
//! an event heap — pop the earliest scheduled arrival, schedule that
//! source's next one. Senders take arrivals in order, sleep until each is
//! due, and time every request from its intended send time, so a stall
//! is charged to every request it delays; how late the senders ran is
//! reported beside the latencies.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netsim::rng::DetRng;

/// One scheduled arrival: when it is due (from the generator's start)
/// and from which source.
struct Scheduled {
    due_ns: u64,
    source: usize,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Earliest first out of the max-heap; ties by source so the
        // schedule is a pure function of the seed.
        other
            .due_ns
            .cmp(&self.due_ns)
            .then(other.source.cmp(&self.source))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due_ns == other.due_ns && self.source == other.source
    }
}

impl Eq for Scheduled {}

struct Heap {
    heap: BinaryHeap<Scheduled>,
    rng: DetRng,
    /// Mean gap between one source's arrivals, in ns.
    mean_gap_ns: f64,
    seq: u64,
}

impl Heap {
    fn gap(&mut self) -> u64 {
        // Exponential interarrival: -ln(U) * mean, U in (0, 1].
        let u = 1.0 - self.rng.f64();
        (-u.ln() * self.mean_gap_ns) as u64
    }
}

/// An arrival handed to a sender: its sequence number (which request of
/// the population to send) and its intended send instant.
pub struct Arrival {
    pub seq: u64,
    pub due: Instant,
}

/// The shared schedule senders draw from.
pub struct OpenLoop {
    inner: Mutex<Heap>,
    origin: Instant,
    horizon_ns: u64,
    /// Offered rate, requests per second.
    pub rate: f64,
}

/// Independent arrival sources merged by the heap.
const SOURCES: usize = 8;

impl OpenLoop {
    /// A schedule offering `rate` requests/s for `horizon`, starting
    /// now.
    pub fn new(seed: u64, rate: f64, horizon: Duration) -> OpenLoop {
        let mut h = Heap {
            heap: BinaryHeap::with_capacity(SOURCES),
            rng: DetRng::new(seed ^ 0x4f50_454e_4c4f_4f50),
            mean_gap_ns: 1e9 * SOURCES as f64 / rate,
            seq: 0,
        };
        for source in 0..SOURCES {
            let due_ns = h.gap();
            h.heap.push(Scheduled { due_ns, source });
        }
        OpenLoop {
            inner: Mutex::new(h),
            origin: Instant::now(),
            horizon_ns: horizon.as_nanos() as u64,
            rate,
        }
    }

    /// The next arrival, or `None` past the horizon.
    pub fn next(&self) -> Option<Arrival> {
        let mut h = self.inner.lock().expect("schedule poisoned");
        let ev = h
            .heap
            .pop()
            .expect("every source always has a next arrival");
        if ev.due_ns > self.horizon_ns {
            h.heap.push(ev);
            return None;
        }
        let due_ns = ev.due_ns + h.gap();
        h.heap.push(Scheduled {
            due_ns,
            source: ev.source,
        });
        let seq = h.seq;
        h.seq += 1;
        Some(Arrival {
            seq,
            due: self.origin + Duration::from_nanos(ev.due_ns),
        })
    }

    /// The schedule's length.
    pub fn horizon(&self) -> Duration {
        Duration::from_nanos(self.horizon_ns)
    }
}

/// Sleeps until `due`, waking every millisecond to look at `stop`.
/// Returns how late the wake-up ran, or `None` once `stop` is raised.
pub fn wait_until(due: Instant, stop: Option<&AtomicBool>) -> Option<Duration> {
    loop {
        if stop.is_some_and(|f| f.load(AtomicOrdering::Relaxed)) {
            return None;
        }
        let now = Instant::now();
        if now >= due {
            return Some(now - due);
        }
        std::thread::sleep((due - now).min(Duration::from_millis(1)));
    }
}
