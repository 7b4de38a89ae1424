//! Load shapes over wire clients: the open loop (seeded arrivals, timed
//! from the intended send) and the closed loop (each connection sends
//! its next request when the previous reply arrives). Each runs one
//! thread per client; callers pass at most `nproc` clients. Every reply
//! is checked as soon as its clock has stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use switchpointer::query::QueryRequest;
use wireplane::WireClient;

use crate::common::{checked_query, Expected};
use crate::gen::{wait_until, OpenLoop};
use crate::report::Report;
use crate::stats::Samples;

pub struct OpenResult {
    /// Latency from the intended send time of each correct reply, µs.
    pub lat_us: Samples,
    /// How late each send left against its schedule, µs.
    pub late_us: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Requests the schedule offered over the measured span.
    pub offered: f64,
}

impl OpenResult {
    /// Correct replies over the requests the schedule offered.
    pub fn achieved_over_offered(&self) -> f64 {
        self.lat_us.len() as f64 / self.offered.max(1.0)
    }

    pub fn record(&self, rep: &mut Report) {
        rep.ops(self.attempted, self.failed);
    }
}

/// Offers `rate` requests/s, cycling through `reqs` in schedule order,
/// for `horizon` or until `stop` is raised.
pub fn open_loop(
    clients: &mut [WireClient],
    reqs: &[QueryRequest],
    expected: &Expected,
    seed: u64,
    rate: f64,
    horizon: Duration,
    stop: Option<&AtomicBool>,
) -> OpenResult {
    let schedule = OpenLoop::new(seed, rate, horizon);
    let started = Instant::now();
    let parts: Vec<(Samples, Samples, u64, u64, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let schedule = &schedule;
                s.spawn(move || {
                    let (mut lat, mut late) = (Samples::default(), Samples::default());
                    let (mut attempted, mut failed) = (0, 0);
                    // When this sender stopped offering: the horizon, or
                    // the moment it saw `stop` (an arrival due after that
                    // is not sent).
                    let mut ended = started + schedule.horizon();
                    while let Some(a) = schedule.next() {
                        let Some(lateness) = wait_until(a.due, stop) else {
                            ended = Instant::now();
                            break;
                        };
                        late.push(lateness.as_secs_f64() * 1e6);
                        let i = a.seq as usize % reqs.len();
                        attempted += 1;
                        match checked_query(client, reqs, i, expected, a.due) {
                            Some(d) => lat.push(d.as_secs_f64() * 1e6),
                            None => failed += 1,
                        }
                    }
                    (lat, late, attempted, failed, ended)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    let ended = parts.iter().map(|p| p.4).min().unwrap_or(started);
    let mut out = OpenResult {
        lat_us: Samples::default(),
        late_us: Samples::default(),
        attempted: 0,
        failed: 0,
        offered: schedule.rate * ended.duration_since(started).as_secs_f64(),
    };
    for (lat, late, attempted, failed, _) in parts {
        out.lat_us.extend(&lat);
        out.late_us.extend(&late);
        out.attempted += attempted;
        out.failed += failed;
    }
    out
}

pub struct ClosedResult {
    /// Latency of each correct reply, µs.
    pub lat_us: Samples,
    /// Each complete round of `round` requests on one connection: its
    /// requests' summed latency, ms.
    pub round_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// From the first send to the last connection's final reply.
    pub elapsed: Duration,
}

impl ClosedResult {
    /// Replies per second: the correct replies over the wall-clock they
    /// took, per time slice, as the median over slices.
    pub fn capacity(&self) -> f64 {
        self.lat_us.sliced(|s| {
            let span = s[s.len() - 1].0 - s[0].0;
            (s.len() - 1) as f64 / span.max(1e-9)
        })
    }

    pub fn record(&self, rep: &mut Report) {
        rep.ops(self.attempted, self.failed);
    }
}

/// Every client sends back to back for `duration` (or until `stop` is
/// raised), walking `reqs` from its own offset, in rounds of `round`
/// requests.
pub fn closed_loop(
    clients: &mut [WireClient],
    reqs: &[QueryRequest],
    expected: &Expected,
    round: usize,
    duration: Duration,
    stop: Option<&AtomicBool>,
) -> ClosedResult {
    let started = Instant::now();
    let deadline = started + duration;
    let done =
        move || Instant::now() >= deadline || stop.is_some_and(|f| f.load(Ordering::Relaxed));
    let stride = reqs.len() / clients.len().max(1);
    let parts: Vec<(Samples, Samples, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let (mut lat, mut rounds) = (Samples::default(), Samples::default());
                    let (mut attempted, mut failed) = (0, 0);
                    let mut i = t * stride;
                    'run: while !done() {
                        let mut round_time = Duration::ZERO;
                        for _ in 0..round {
                            let idx = i % reqs.len();
                            i += 1;
                            attempted += 1;
                            match checked_query(client, reqs, idx, expected, Instant::now()) {
                                Some(d) => {
                                    round_time += d;
                                    lat.push(d.as_secs_f64() * 1e6);
                                }
                                None => failed += 1,
                            }
                            if done() {
                                break 'run;
                            }
                        }
                        rounds.push(round_time.as_secs_f64() * 1e3);
                    }
                    (lat, rounds, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut out = ClosedResult {
        lat_us: Samples::default(),
        round_ms: Samples::default(),
        attempted: 0,
        failed: 0,
        elapsed: started.elapsed(),
    };
    for (lat, rounds, attempted, failed) in parts {
        out.lat_us.extend(&lat);
        out.round_ms.extend(&rounds);
        out.attempted += attempted;
        out.failed += failed;
    }
    out
}
