//! `inproc`: the six-class storm, presence sweeps included, closed-loop
//! through `QueryPlane::execute_batch` with `nproc` workers over the same
//! 4-way directory partition as `adhoc`. The wire is bypassed, so the
//! worker pool, the snapshot memo and the modelled accounting pass are
//! the cost; this is the only workload that measures them.

use std::time::{Duration, Instant};

use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::query::QUERY_CLASS_NAMES;

use crate::common::*;
use crate::fixture;
use crate::report::Report;
use crate::stats::{counter_delta, Samples};

const DIRECTORY_SHARDS: usize = 4;
/// Rounds of 16 requests in the seeded population; one round is one
/// batch.
const ROUNDS: usize = 32;
const BATCH: usize = 16;
/// Consecutive batches per `window_*` unit.
const WINDOW_BATCHES: usize = 4;

struct Phase {
    /// Batch wall-clock, µs: a query's latency is its batch's.
    batch_us: Samples,
    /// Each run of [`WINDOW_BATCHES`] consecutive batches: their summed
    /// wall-clock, ms.
    window_ms: Samples,
    queries: u64,
    /// Summed batch wall-clock.
    busy: Duration,
}

impl Phase {
    /// Queries per second: every query executed over the batches'
    /// summed wall-clock (the untimed checks between batches left out),
    /// per time slice, as the median over slices.
    fn capacity(&self) -> f64 {
        self.batch_us.sliced(|s| {
            let busy_us: f64 = s.iter().map(|&(_, x)| x).sum();
            (BATCH * s.len()) as f64 * 1e6 / busy_us.max(1e-9)
        })
    }
}

/// Closed loop: whole passes over `storm`, batch after batch, until
/// `duration` has gone by (one pass when it is zero). Each reply is
/// checked after its batch's timing.
fn closed(
    ctx: &Ctx,
    plane: &mut QueryPlane,
    storm: &[switchpointer::query::QueryRequest],
    expected: &Expected,
    duration: Duration,
    rep: &mut Report,
) -> Phase {
    let mut p = Phase {
        batch_us: Samples::default(),
        window_ms: Samples::default(),
        queries: 0,
        busy: Duration::ZERO,
    };
    let deadline = Instant::now() + duration;
    let mut window = Duration::ZERO;
    loop {
        for (b, batch) in storm.chunks(BATCH).enumerate() {
            let (outcomes, dt) = ctx
                .spans
                .time("queryplane.execute_batch", 0, || plane.execute_batch(batch));
            window += dt;
            p.busy += dt;
            p.queries += batch.len() as u64;
            p.batch_us.push(dt.as_secs_f64() * 1e6);
            if (b + 1) % WINDOW_BATCHES == 0 {
                p.window_ms.push(window.as_secs_f64() * 1e3);
                window = Duration::ZERO;
            }
            for (i, o) in outcomes.iter().enumerate() {
                rep.op(expected.matches(b * BATCH + i, &o.response));
            }
        }
        if Instant::now() >= deadline {
            return p;
        }
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let cfg = QueryPlaneConfig {
        workers: ctx.nproc,
        directory_shards: DIRECTORY_SHARDS,
        ..QueryPlaneConfig::default()
    };
    let mut setup_stats = SetupStats::default();
    let (fx, analyzer, mut plane) = repeated_setup(
        DIRECTORY_SHARDS,
        &mut setup_stats,
        |a| QueryPlane::from_analyzer(a, cfg),
        drop,
    );
    setup_stats.report(rep);
    plane.metrics().tracer().set_sample_rate(0);
    let storm = fixture::inproc_storm(&fx, ctx.seed, ROUNDS);
    let expected = Expected::compute(&analyzer, &storm, ctx.corrupt_expected);
    // One warm-up pass: the pointer cache and union memos fill before
    // timing.
    closed(ctx, &mut plane, &storm, &expected, Duration::ZERO, rep);

    if !ctx.traced {
        let p = closed(ctx, &mut plane, &storm, &expected, ctx.secs(1.0), rep);
        report_latency(rep, "query", "us", &p.batch_us);
        rep.set("capacity_qps", p.capacity());
        report_latency(rep, "window", "ms", &p.window_ms);
        rep.note(format!(
            "closed loop: batches of {BATCH} over {} workers, {} queries",
            ctx.nproc, p.queries
        ));
        return;
    }
    let plain = closed(ctx, &mut plane, &storm, &expected, ctx.secs(0.4), rep);
    plane.metrics().tracer().set_sample_rate(1);
    let before = plane.metrics().snapshot();
    let traced = closed(ctx, &mut plane, &storm, &expected, ctx.secs(0.4), rep);
    let after = plane.metrics().snapshot();
    plane.metrics().tracer().set_sample_rate(0);
    // Capacity is higher-is-better: overhead is the untraced rate over
    // the traced one, less one.
    let (a, b) = (plain.capacity(), traced.capacity());
    let pct = 100.0 * (a / b.max(1e-9) - 1.0);
    rep.set("trace.overhead_pct", pct);
    rep.note(format!(
        "trace overhead on capacity_qps: untraced {a:.0}, traced {b:.0} ({pct:+.1}%)"
    ));

    let workers = ctx.nproc as f64;
    let wall_ns = traced.busy.as_nanos() as f64;
    let busy = counter_delta(&after, &before, "pool.worker") as f64;
    let busy_ns: f64 = (0..ctx.nproc)
        .map(|w| counter_delta(&after, &before, &format!("pool.worker{w}.busy_ns")) as f64)
        .sum();
    let idle_ns = busy - busy_ns;
    rep.set("pool.busy_pct", 100.0 * busy_ns / (workers * wall_ns));
    rep.set("pool.idle_pct", 100.0 * idle_ns / (workers * wall_ns));
    let batches = counter_delta(&after, &before, "pool.batches").max(1) as f64;
    rep.set(
        "pool.steals_per_batch",
        counter_delta(&after, &before, "pool.steals") as f64 / batches,
    );
    let exec_ns: f64 = QUERY_CLASS_NAMES
        .iter()
        .map(|c| {
            let name = format!("queryplane.exec_ns.{c}");
            crate::stats::hist_delta(after.hist(&name), before.hist(&name)).sum as f64
        })
        .sum();
    rep.set("queryplane.exec_share", exec_ns / (workers * wall_ns));

    // The executor alone, single-threaded, one query at a time.
    let mut core: Vec<Samples> = vec![Samples::default(); QUERY_CLASS_NAMES.len()];
    for _ in 0..3 {
        for (i, req) in storm.iter().enumerate() {
            let (resp, d) = ctx
                .spans
                .time("analyzer.execute", 0, || analyzer.execute(req));
            rep.op(expected.matches(i, &resp));
            core[req.class_index()].push(d.as_secs_f64() * 1e6);
        }
    }
    for (c, class) in QUERY_CLASS_NAMES.iter().enumerate() {
        rep.set(&format!("core.exec_us.{class}"), core[c].median());
    }
    rep.zero_unexercised(&["setup.", "core.", "pool.", "queryplane.", "trace."]);
}
