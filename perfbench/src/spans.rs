//! The benchmark's own spans: one around each call it makes into a
//! layer's public functions. Kept in memory and written out when the run
//! ends; a layer's self time is its span minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::report::esc;

/// One completed span. `parent` is 0 for a root; spans of one request
/// share its root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The span store. Disabled, it only times: `time` still returns the
/// duration, and nothing is kept.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, to pass as `parent` to the children of a span
    /// recorded later with [`Spans::record`].
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that ran from `start` for `dur`.
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let id = self.id();
        self.record(id, parent, name, start, dur);
        (out, dur)
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is
    /// a span's duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for sp in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(sp.parent).or_insert(0) += sp.dur_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for sp in spans.iter() {
            let e = out.entry(sp.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += sp.dur_ns;
            e.2 += sp
                .dur_ns
                .saturating_sub(child_ns.get(&sp.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for sp in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                sp.id,
                sp.parent,
                esc(sp.name),
                sp.start_ns,
                sp.dur_ns
            )?;
        }
        f.flush()
    }
}
