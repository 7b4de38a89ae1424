//! What the workloads share: the run context, repeated set-up, verdict
//! checking, and the exact one-query-at-a-time layer pass over a wire
//! deployment.

use std::time::{Duration, Instant};

use obsplane::{MetricsRegistry, RegistrySnapshot};
use queryplane::Snapshot;
use switchpointer::query::{QueryRequest, QueryResponse, QUERY_CLASS_NAMES};
use switchpointer::Analyzer;
use wireplane::{FrontEnd, WireClient, WireCluster, WireConfig};

use crate::fixture::{self, Fixture};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{mean_delta, merge_all, merged_delta, Samples};

/// A reply slower than this is a timeout: a failed operation, never a
/// latency sample.
pub const TIMEOUT: Duration = Duration::from_secs(2);

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    /// Measured time, split across the run's phases.
    pub seconds: f64,
    pub traced: bool,
    /// Load-generating threads and connections: never more than the
    /// machine's cores.
    pub nproc: usize,
    /// Self-test hook: corrupt one expected verdict, which the run must
    /// then count as a failed operation.
    pub corrupt_expected: bool,
    pub spans: Spans,
}

impl Ctx {
    /// Every end-to-end run keeps tracing off; a traced run turns it on
    /// only for its traced phase. The front-end's execution pool gets one
    /// worker per core.
    pub fn wire_config(&self) -> WireConfig {
        WireConfig {
            trace_sample_rate: 0,
            front_workers: self.nproc,
            ..WireConfig::default()
        }
    }

    pub fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Wall-clock of one set-up's parts.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    /// Fixture simulation and analyzer construction.
    pub sim: Duration,
    /// A standalone snapshot capture of the same state (the launch
    /// captures again internally; this isolates that share).
    pub capture: Duration,
    /// Cluster or plane launch, capture included.
    pub launch: Duration,
}

/// Set-up samples across a run's repetitions.
#[derive(Default)]
pub struct SetupStats {
    total: Samples,
    sim: Samples,
    capture: Samples,
    launch: Samples,
}

impl SetupStats {
    pub fn add(&mut self, t: SetupTimes) {
        self.total.push((t.sim + t.launch).as_secs_f64());
        self.sim.push(t.sim.as_secs_f64());
        self.capture.push(t.capture.as_secs_f64());
        self.launch.push(t.launch.as_secs_f64());
    }

    pub fn report(&self, rep: &mut Report) {
        rep.set("setup_s", self.total.median());
        rep.set("setup.sim_s", self.sim.median());
        rep.set("setup.capture_s", self.capture.median());
        rep.set("setup.launch_s", self.launch.median());
        rep.note(format!("setup: {} repetitions", self.total.len()));
    }
}

/// Runs the storm fixture's set-up [`SETUP_REPEATS`] times — simulate,
/// capture a snapshot over `shards` directory shards, `launch` — and
/// keeps the last deployment; each earlier one goes to `retire`.
pub fn repeated_setup<T>(
    shards: usize,
    stats: &mut SetupStats,
    launch: impl Fn(&Analyzer) -> T,
    retire: impl Fn(T),
) -> (Fixture, Analyzer, T) {
    let mut kept: Option<(Fixture, Analyzer, T)> = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let fx = fixture::storm();
        let analyzer = fx.tb.analyzer();
        let sim = t.elapsed();
        let t = Instant::now();
        drop(Snapshot::capture_with(&analyzer, 8, shards));
        let capture = t.elapsed();
        let t = Instant::now();
        let deployed = launch(&analyzer);
        let launch = t.elapsed();
        stats.add(SetupTimes {
            sim,
            capture,
            launch,
        });
        if let Some((_, _, old)) = kept.replace((fx, analyzer, deployed)) {
            retire(old);
        }
    }
    kept.expect("at least one set-up")
}

/// [`repeated_setup`] of a wire cluster over `shards` shard servers.
pub fn storm_cluster(
    ctx: &Ctx,
    shards: usize,
    stats: &mut SetupStats,
) -> (Fixture, Analyzer, WireCluster) {
    repeated_setup(
        shards,
        stats,
        |a| WireCluster::launch(a, shards, ctx.wire_config()).expect("launch the wire cluster"),
        WireCluster::shutdown,
    )
}

/// In-process verdicts computed untimed at set-up: the bit-identical
/// contract compares each timed reply's `Debug` rendering with these.
pub struct Expected {
    answers: Vec<String>,
}

impl Expected {
    pub fn compute(analyzer: &Analyzer, reqs: &[QueryRequest], corrupt: bool) -> Expected {
        let mut answers: Vec<String> = reqs
            .iter()
            .map(|r| format!("{:?}", analyzer.execute(r)))
            .collect();
        if corrupt {
            answers[0].push_str(" (deliberately wrong)");
        }
        Expected { answers }
    }

    pub fn matches(&self, i: usize, resp: &QueryResponse) -> bool {
        format!("{resp:?}") == self.answers[i % self.answers.len()]
    }
}

/// One blocking query over the wire, timed from `from`. Returns the
/// latency and the reply (`None` on a transport error or timeout).
pub fn timed_query(
    client: &mut WireClient,
    req: &QueryRequest,
    from: Instant,
) -> (Duration, Option<QueryResponse>) {
    let resp = client.query(req).ok();
    let lat = from.elapsed();
    if lat > TIMEOUT {
        (lat, None)
    } else {
        (lat, resp)
    }
}

/// [`timed_query`] for population entry `i`, checked against its expected
/// verdict once the clock has stopped: the latency of a correct reply,
/// or `None` for a mismatch, a transport error or a timeout (a failed
/// operation, never a latency sample).
pub fn checked_query(
    client: &mut WireClient,
    reqs: &[QueryRequest],
    i: usize,
    expected: &Expected,
    from: Instant,
) -> Option<Duration> {
    let (lat, resp) = timed_query(client, &reqs[i], from);
    resp.is_some_and(|r| expected.matches(i, &r)).then_some(lat)
}

/// Reports a latency distribution's median and p90, each taken per time
/// slice of the run and reported as the median over slices, with the
/// sample count, the whole-run percentiles and the highest supported
/// tail printed beside them.
pub fn report_latency(rep: &mut Report, prefix: &str, unit: &str, s: &Samples) {
    rep.set(&format!("{prefix}_p50_{unit}"), s.sliced_q(0.5));
    rep.set(&format!("{prefix}_p90_{unit}"), s.sliced_q(0.9));
    let tail = s
        .tail()
        .map_or("no p99 (fewer than 1000 samples)".to_string(), |(l, v)| {
            format!("{l} {v:.1} {unit}")
        });
    rep.note(format!(
        "{prefix}: n={}; whole-run p50 {:.1} p90 {:.1} {unit}; {tail} (not gated)",
        s.len(),
        s.median(),
        s.q(0.9)
    ));
}

/// Reports how an open loop at `offered` requests/s ran: `gen.*` — the
/// latency from the intended send (median and p90 over time slices, as
/// for the end-to-end percentiles), how late the senders left, and the
/// share of the offered load completed.
pub fn report_open_loop(
    rep: &mut Report,
    offered: f64,
    lat_us: &Samples,
    late_us: &Samples,
    achieved_over_offered: f64,
) {
    rep.set("gen.open_p50_us", lat_us.sliced_q(0.5));
    rep.set("gen.open_p90_us", lat_us.sliced_q(0.9));
    rep.set("gen.late_p99_us", late_us.q(0.99));
    rep.set("gen.achieved_over_offered", achieved_over_offered);
    rep.note(format!(
        "open loop: offered {offered} qps, n={}, achieved/offered {achieved_over_offered:.3}, \
         send lateness p50 {:.0} us p99 {:.0} us",
        lat_us.len(),
        late_us.median(),
        late_us.q(0.99)
    ));
}

/// Peak resident set of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn front_snapshot(front: &FrontEnd) -> (RegistrySnapshot, RegistrySnapshot) {
    let scrape = front.scrape().expect("scrape the deployment");
    let front_snap = scrape
        .iter()
        .find(|(l, _)| l == "front")
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    let shards: Vec<(String, RegistrySnapshot)> =
        scrape.into_iter().filter(|(l, _)| l != "front").collect();
    (front_snap, merge_all(&shards))
}

/// The exact layer pass over a wire deployment: the distinct requests
/// one at a time, `repeats` times, each through the client, then
/// straight into `FrontEnd::execute`, then into the in-process
/// `Analyzer::execute` — so per-class router counts are exact and every
/// layer's time is its own call's. Sets `core.*`, `router.*` and
/// `wire.*`. Every reply is checked; a mismatch is a failed operation.
#[allow(clippy::too_many_arguments)]
pub fn wire_layer_pass(
    ctx: &Ctx,
    rep: &mut Report,
    front: &FrontEnd,
    front_reg: &MetricsRegistry,
    client: &mut WireClient,
    analyzer: &Analyzer,
    reqs: &[QueryRequest],
    expected: &Expected,
    repeats: usize,
) {
    let n = QUERY_CLASS_NAMES.len();
    let mut core: Vec<Samples> = vec![Samples::default(); n];
    let mut front_exec: Vec<Samples> = vec![Samples::default(); n];
    let (mut rpcs, mut rounds, mut seen) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut wave_rpcs = 0u64;
    let mut hop = Samples::default();
    let (front_before, shards_before) = front_snapshot(front);
    for _ in 0..repeats {
        for (i, req) in reqs.iter().enumerate() {
            let c = req.class_index();
            let root = ctx.spans.id();
            let start = Instant::now();
            let exec_before = front_reg.snapshot();
            let ((lat, resp), _) = ctx.spans.time("client.query", root, || {
                timed_query(client, req, Instant::now())
            });
            rep.op(resp.as_ref().is_some_and(|r| expected.matches(i, r)));
            // The front's own execution time for this very query, from
            // its per-class histogram: the rest of the client's latency
            // is the client-front hop.
            let served = merged_delta(&front_reg.snapshot(), &exec_before, "queryplane.exec_ns.");
            let ((resp, _, counters), fe) =
                ctx.spans.time("front.execute", root, || front.execute(req));
            rep.op(expected.matches(i, &resp));
            let (resp, ce) = ctx
                .spans
                .time("analyzer.execute", root, || analyzer.execute(req));
            rep.op(expected.matches(i, &resp));
            ctx.spans.record(root, 0, "request", start, start.elapsed());
            core[c].push(ce.as_secs_f64() * 1e6);
            front_exec[c].push(fe.as_secs_f64() * 1e6);
            hop.push(lat.as_secs_f64() * 1e6 - served.sum as f64 / 1e3);
            rpcs[c] += counters.rpcs;
            rounds[c] += counters.rounds;
            wave_rpcs += counters.wave_rpcs;
            seen[c] += 1;
        }
    }
    let (front_after, shards_after) = front_snapshot(front);
    for (c, class) in QUERY_CLASS_NAMES.iter().enumerate() {
        let per = |x: u64| {
            if seen[c] == 0 {
                0.0
            } else {
                x as f64 / seen[c] as f64
            }
        };
        rep.set(&format!("core.exec_us.{class}"), core[c].median());
        rep.set(
            &format!("wire.front_exec_us.{class}"),
            front_exec[c].median(),
        );
        rep.set(&format!("router.rpcs_per_query.{class}"), per(rpcs[c]));
        rep.set(&format!("router.rounds_per_query.{class}"), per(rounds[c]));
    }
    let total: u64 = seen.iter().sum();
    rep.set(
        "router.wave_rpcs_per_query",
        wave_rpcs as f64 / total.max(1) as f64,
    );
    rep.set("wire.client_hop_us", hop.median());
    let rtt = merged_delta(&front_after, &front_before, "wire.rtt_ns.");
    rep.set("wire.rtt_p50_us", rtt.quantile(0.5) as f64 / 1e3);
    rep.set("wire.rtt_p90_us", rtt.quantile(0.9) as f64 / 1e3);
    let decode = mean_delta(&shards_after, &shards_before, "wire.decode_ns") / 1e3;
    let serve = mean_delta(&shards_after, &shards_before, "wire.serve_ns") / 1e3;
    let encode = mean_delta(&shards_after, &shards_before, "wire.encode_ns") / 1e3;
    rep.set("wire.decode_us", decode);
    rep.set("wire.serve_us", serve);
    rep.set("wire.encode_us", encode);
    let rtt_mean = if rtt.count == 0 {
        0.0
    } else {
        rtt.sum as f64 / rtt.count as f64 / 1e3
    };
    rep.set(
        "wire.unattributed_pct",
        if rtt_mean > 0.0 {
            100.0 * (rtt_mean - decode - serve - encode) / rtt_mean
        } else {
            0.0
        },
    );
    rep.set(
        "wire.frames_per_wave",
        mean_delta(&front_after, &front_before, "wire.frames_per_wave"),
    );
    rep.set(
        "wire.bytes_per_query",
        mean_delta(&front_after, &front_before, "wire.bytes_per_query"),
    );
    rep.note(format!(
        "layer pass: {total} requests x 3 paths one at a time; {} RPCs timed, mean RTT {rtt_mean:.1} us",
        rtt.count
    ));
}

/// Reports the traced phase's cost against the untraced one for a
/// lower-is-better end-to-end value.
pub fn report_overhead(rep: &mut Report, what: &str, untraced: f64, traced: f64) {
    let pct = if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    };
    rep.set("trace.overhead_pct", pct);
    rep.note(format!(
        "trace overhead on {what}: untraced {untraced:.2}, traced {traced:.2} ({pct:+.1}%)"
    ));
}
