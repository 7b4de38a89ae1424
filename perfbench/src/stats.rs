//! Sample summaries: exact quantiles over raw samples (never histogram
//! buckets, so two runs never read the same by rounding), statistics
//! taken per time slice of a run and reported as the median over the
//! slices the host disturbed least, and deltas of the program's own
//! cumulative histograms.

use std::sync::OnceLock;
use std::time::Instant;

use obsplane::{HistogramSnapshot, RegistrySnapshot};

/// The instant sample timestamps count from.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Seconds since [`origin`]: the clock samples are stamped with.
pub fn now_s() -> f64 {
    origin().elapsed().as_secs_f64()
}

/// Slices a run's samples are cut into, in time order, for the sliced
/// statistics.
const SLICES: usize = 20;
/// Fewest samples a slice may hold; runs with fewer than
/// `SLICES * MIN_PER_SLICE` samples use fewer, larger slices.
const MIN_PER_SLICE: usize = 20;

/// Raw samples of one quantity, each stamped with when it was taken (in
/// seconds).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    v: Vec<(f64, f64)>,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.push_at(now_s(), x);
    }

    pub fn push_at(&mut self, t: f64, x: f64) {
        self.v.push((t, x));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.v.extend_from_slice(&other.v);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    fn values(&self) -> Vec<f64> {
        self.v.iter().map(|&(_, x)| x).collect()
    }

    /// The `q`-quantile by linear interpolation between closest ranks;
    /// 0 when empty.
    pub fn q(&self, q: f64) -> f64 {
        quantile(&mut self.values(), q)
    }

    pub fn median(&self) -> f64 {
        self.q(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().map(|&(_, x)| x).sum::<f64>() / self.v.len() as f64
        }
    }

    /// `f` of each time slice — up to [`SLICES`] consecutive runs of
    /// equal count, each of at least [`MIN_PER_SLICE`] samples, given as
    /// `(timestamp, value)` in time order — and the median over the
    /// quieter half of the slices: those whose host steal (see
    /// [`crate::steal`]) is at most the median slice's. Steal is the
    /// hypervisor's doing, not the program's, and it comes in bursts: a
    /// burst moves the slices it covers, which are then left out, while a
    /// change to the program's own cost — steady, or recurring faster
    /// than a slice — moves every slice.
    pub fn sliced(&self, f: impl Fn(&[(f64, f64)]) -> f64) -> f64 {
        self.sliced_by(&crate::steal::steal_pct, f)
    }

    /// [`Samples::sliced`] with the steal of an interval from `steal`.
    fn sliced_by(&self, steal: &dyn Fn(f64, f64) -> f64, f: impl Fn(&[(f64, f64)]) -> f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        let mut v = self.v.clone();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (n, k) = (v.len(), (v.len() / MIN_PER_SLICE).clamp(1, SLICES));
        let slices: Vec<(f64, f64)> = (0..k)
            .map(|j| {
                let s = &v[j * n / k..(j + 1) * n / k];
                (steal(s[0].0, s[s.len() - 1].0), f(s))
            })
            .collect();
        let cut = quantile(&mut slices.iter().map(|s| s.0).collect::<Vec<_>>(), 0.5);
        let mut kept: Vec<f64> = slices.iter().filter(|s| s.0 <= cut).map(|s| s.1).collect();
        quantile(&mut kept, 0.5)
    }

    /// The sliced `q`-quantile.
    pub fn sliced_q(&self, q: f64) -> f64 {
        self.sliced(|s| slice_quantile(s, q))
    }

    /// The highest of p99, p99.9, p99.99 that has at least ten samples
    /// beyond it, as `(label, value)`; `None` below 1000 samples.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.v.len() as f64;
        let mut best = None;
        for (label, q) in [("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999)] {
            if n * (1.0 - q) >= 10.0 {
                best = Some((label, self.q(q)));
            }
        }
        best
    }
}

fn slice_quantile(s: &[(f64, f64)], q: f64) -> f64 {
    quantile(&mut s.iter().map(|&(_, x)| x).collect::<Vec<_>>(), q)
}

/// Self-test of the sliced statistics: open-loop latencies of 1 ms sent
/// at 1 kHz for 20 s, against the same with a 60 ms stall every 500 ms
/// (each request sent during a stall waits it out), with the host
/// stealing 20% of the first and last 5 s. The stall delays about one
/// request in eight, so it must lift the sliced p90 as it lifts the
/// whole-run p90. Returns a problem, if any.
pub fn check_sliced_sees_stalls() -> Option<String> {
    let (mut plain, mut stalled) = (Samples::default(), Samples::default());
    for i in 0..20_000u32 {
        let t = f64::from(i) * 1e-3;
        let base = 1000.0 + f64::from(i % 97);
        let into_period = t % 0.5;
        let wait = if into_period < 0.06 {
            (0.06 - into_period) * 1e6
        } else {
            0.0
        };
        plain.push_at(t, base);
        stalled.push_at(t, base + wait);
    }
    let steal = |t0: f64, t1: f64| if t0 < 5.0 || t1 > 15.0 { 20.0 } else { 0.0 };
    let p90 = |s: &Samples| s.sliced_by(&steal, |x| slice_quantile(x, 0.9));
    let (p, s, whole) = (p90(&plain), p90(&stalled), stalled.q(0.9));
    if s > 2.0 * p && (s - whole).abs() < 0.1 * whole {
        None
    } else {
        Some(format!(
            "sliced p90 missed an injected stall: {p:.0} us without, {s:.0} us with (whole-run {whole:.0} us)"
        ))
    }
}

/// The `q`-quantile of `v` by linear interpolation between closest
/// ranks; 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `after - before` of one cumulative histogram: bucket counts, count
/// and sum subtract exactly; `max` is the later snapshot's (an upper
/// bound).
pub fn hist_delta(
    after: Option<&HistogramSnapshot>,
    before: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let Some(after) = after else {
        return HistogramSnapshot::default();
    };
    let Some(before) = before else {
        return after.clone();
    };
    let mut counts = Vec::with_capacity(after.counts.len());
    for &(i, n) in &after.counts {
        let old = before
            .counts
            .iter()
            .find(|&&(j, _)| j == i)
            .map_or(0, |&(_, m)| m);
        if n > old {
            counts.push((i, n - old));
        }
    }
    HistogramSnapshot {
        grid_bits: after.grid_bits,
        counts,
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
    }
}

/// Mean of the samples a histogram gained between two registry
/// snapshots, summed over every histogram whose name starts with
/// `prefix`; 0 when none were recorded.
pub fn mean_delta(after: &RegistrySnapshot, before: &RegistrySnapshot, prefix: &str) -> f64 {
    let (mut count, mut sum) = (0u64, 0u64);
    for (name, h) in &after.hists {
        if name.starts_with(prefix) {
            let d = hist_delta(Some(h), before.hist(name));
            count += d.count;
            sum = sum.wrapping_add(d.sum);
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Merged `after - before` of every histogram whose name starts with
/// `prefix`.
pub fn merged_delta(
    after: &RegistrySnapshot,
    before: &RegistrySnapshot,
    prefix: &str,
) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for (name, h) in &after.hists {
        if name.starts_with(prefix) {
            out.merge(&hist_delta(Some(h), before.hist(name)));
        }
    }
    out
}

/// `after - before` of a counter summed over every name starting with
/// `prefix`.
pub fn counter_delta(after: &RegistrySnapshot, before: &RegistrySnapshot, prefix: &str) -> u64 {
    after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, &v)| v - before.counter(name))
        .sum()
}

/// Folds labelled per-process scrapes into one snapshot.
pub fn merge_all(scrape: &[(String, RegistrySnapshot)]) -> RegistrySnapshot {
    let mut out = RegistrySnapshot::default();
    for (_, s) in scrape {
        out.merge(s);
    }
    out
}
