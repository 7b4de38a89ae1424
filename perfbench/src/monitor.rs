//! `monitor`: writes beside reads on a `ReplicaCluster` of 2 shards x 2
//! replicas. Each 2 ms window advances the simulator (untimed), then
//! publishes the delta to the replicas (`refresh`), closes the window
//! and has the subscribing `WireClient` drain it. A second thread sends
//! adhoc-style reads beside the windows: back to back on one connection
//! in the end-to-end run, at a low fixed open-loop rate in the traced
//! run. The only workload that exercises standing-query evaluation and
//! replica publish/apply.
//!
//! The run is a sequence of identical episodes (fresh fixture and
//! cluster, [`WINDOWS`] windows each), so every run repeats the same
//! per-window work however many episodes its time allows, and the
//! history the reads query stays inside its pointer level.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use netsim::prelude::SimTime;
use queryplane::{QueryPlaneConfig, Snapshot};
use replicaplane::ReplicaCluster;
use streamplane::{Incident, StandingQuery, StreamConfig, StreamPlane};
use switchpointer::query::QueryRequest;
use telemetry::EpochRange;
use wireplane::WireEvent;

use crate::common::*;
use crate::fixture::{self, Fixture, MONITOR_START_MS};
use crate::load::{closed_loop, open_loop};
use crate::report::Report;
use crate::stats::{mean_delta, merge_all, Samples};

const SHARDS: usize = 2;
const REPLICAS: usize = 2;
/// Windows per episode.
const WINDOWS: u64 = 25;
/// Simulated milliseconds per window.
const WINDOW_MS: u64 = 2;
/// The traced run's open-loop side reads, requests/s.
const READ_QPS: f64 = 100.0;
/// Distinct side reads in the seeded population.
const READS: usize = 256;

/// The standing queries: sliding aggregates over switches the live
/// traffic crosses, a fixed query over the history, and a contention
/// watch on the starved victim.
fn subscriptions(fx: &Fixture) -> Vec<StandingQuery> {
    let n = |s: &str| fx.tb.node(s);
    vec![
        StandingQuery::TopKSliding {
            switch: n("edge1_0"),
            k: 5,
            epochs_back: 8,
        },
        StandingQuery::LoadImbalanceSliding {
            switch: n("agg1_0"),
            epochs_back: 8,
        },
        StandingQuery::Fixed(QueryRequest::TopK {
            switch: n("edge2_0"),
            k: 5,
            range: EpochRange { lo: 2, hi: 9 },
        }),
        StandingQuery::ContentionWatch {
            victim: fx.victim,
            victim_dst: fx.victim_dst,
            trigger_window: fx.tb.cfg.trigger.window,
        },
    ]
}

#[derive(Clone, Copy)]
enum Reads {
    /// Open loop at [`READ_QPS`], in the traced run: `gen.*`.
    Open,
    /// Closed loop on one connection: the end-to-end `query_*` and
    /// `capacity_qps` under writes.
    Closed,
}

/// What the episodes of one phase add up to.
#[derive(Default)]
struct Acc {
    window_ms: Samples,
    publish_ms: Samples,
    close_ms: Samples,
    drain_us: Samples,
    evaluations: Samples,
    incidents: Samples,
    cloned: Samples,
    apply_us: Samples,
    bootstraps: u64,
    lag_end: i64,
    read_us: Samples,
    late_us: Samples,
    reads_done: u64,
    reads_offered: f64,
    /// Closed-loop reads per second, one value per episode.
    closed_qps: Samples,
    episodes: u64,
}

/// Splits one window's incidents per subscription, in arrival order.
fn by_sub(incidents: &[Incident]) -> Vec<(u64, Vec<&Incident>)> {
    let mut out: Vec<(u64, Vec<&Incident>)> = Vec::new();
    for i in incidents {
        match out.iter_mut().find(|(s, _)| *s == i.sub.0) {
            Some((_, v)) => v.push(i),
            None => out.push((i.sub.0, vec![i])),
        }
    }
    out.sort_by_key(|(s, _)| *s);
    out
}

/// One episode: set-up (timed into `setup`), [`WINDOWS`] windows with
/// reads beside them, then teardown. With `layer_pass`, the exact
/// per-class pass runs over the reads before teardown.
fn episode(
    ctx: &Ctx,
    rep: &mut Report,
    setup: &mut SetupStats,
    acc: &mut Acc,
    reads_mode: Reads,
    traced: bool,
    layer_pass: bool,
) {
    let t = Instant::now();
    let mut fx = fixture::monitor(MONITOR_START_MS + WINDOW_MS * WINDOWS + 2);
    let analyzer = fx.tb.analyzer();
    let sim = t.elapsed();
    let t = Instant::now();
    drop(Snapshot::capture_with(&analyzer, 8, SHARDS));
    let capture = t.elapsed();
    let t = Instant::now();
    let cluster = ReplicaCluster::launch(&analyzer, SHARDS, REPLICAS, ctx.wire_config())
        .expect("launch the replica cluster");
    let launch = t.elapsed();
    setup.add(SetupTimes {
        sim,
        capture,
        launch,
    });
    if traced {
        cluster.front_metrics().tracer().set_sample_rate(1);
    }

    // The in-process replay the incident stream is checked against.
    let mut replay = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 1,
                directory_shards: SHARDS,
                ..QueryPlaneConfig::default()
            },
            result_cache_capacity: 1024,
        },
    );
    replay.metrics().tracer().set_sample_rate(0);
    let mut subscriber = cluster.client().expect("connect the subscriber");
    for q in subscriptions(&fx) {
        replay.subscribe(q);
        subscriber.subscribe(q, 0).expect("subscribe");
    }
    let reads = fixture::adhoc_mix(&fx, ctx.seed, READS, fixture::Ranges::History);
    let expected = Expected::compute(&analyzer, &reads, ctx.corrupt_expected);
    let mut reader = vec![cluster.client().expect("connect the reader")];
    let stop = AtomicBool::new(false);
    let owner_before = cluster.owner_metrics().snapshot();
    let shards_before = merge_all(&cluster.front().scrape().expect("scrape").split_off(1));

    let read_out = std::thread::scope(|s| {
        let (reader, reads, expected, stop) = (&mut reader, &reads, &expected, &stop);
        let handle = s.spawn(move || match reads_mode {
            Reads::Open => Ok(open_loop(
                reader,
                reads,
                expected,
                ctx.seed,
                READ_QPS,
                Duration::from_secs(3600),
                Some(stop),
            )),
            Reads::Closed => Err(closed_loop(
                reader,
                reads,
                expected,
                16,
                Duration::from_secs(3600),
                Some(stop),
            )),
        });
        for w in 1..=WINDOWS {
            fx.tb
                .sim
                .run_until(SimTime::from_ms(MONITOR_START_MS + WINDOW_MS * w));
            let root = ctx.spans.id();
            let boundary = Instant::now();
            let (delta, publish) = ctx
                .spans
                .time("replicaplane.refresh", root, || cluster.refresh(&analyzer));
            let (summary, close) = ctx
                .spans
                .time("frontend.close_window", root, || cluster.close_window());
            let drain_start = Instant::now();
            let mut got: Vec<Incident> = Vec::new();
            let mut last = None;
            let digest = loop {
                match subscriber.next_event() {
                    Ok(WireEvent::Incident { incident, .. }) => {
                        last = Some(Instant::now());
                        got.push(incident);
                    }
                    Ok(WireEvent::Window(d)) => break Some(d),
                    Err(_) => break None,
                }
            };
            let drained = drain_start.elapsed();
            ctx.spans.record(
                ctx.spans.id(),
                root,
                "client.drain_window",
                drain_start,
                drained,
            );
            let delivered = last.unwrap_or_else(Instant::now).duration_since(boundary);
            ctx.spans
                .record(root, 0, "window", boundary, boundary.elapsed());

            // Untimed: replay the same window in process and compare.
            let before = replay.incidents().len();
            replay.run_window(&analyzer);
            let local = &replay.incidents()[before..];
            let ok = digest.is_some_and(|d| d.window == w - 1)
                && by_sub(&got) == by_sub(local)
                && delivered <= TIMEOUT;
            rep.op(ok);
            if !ok {
                rep.check_failures.push(format!(
                    "window {w}: incident stream diverged from the in-process replay"
                ));
            }
            if ok {
                acc.window_ms.push(delivered.as_secs_f64() * 1e3);
                acc.publish_ms.push(publish.as_secs_f64() * 1e3);
                acc.close_ms.push(close.as_secs_f64() * 1e3);
                acc.drain_us.push(drained.as_secs_f64() * 1e6);
                acc.evaluations.push(summary.evaluated as f64);
                acc.incidents.push(summary.incidents as f64);
                acc.cloned.push(delta.cloned_records as f64);
            }
        }
        stop.store(true, Ordering::Relaxed);
        handle.join().expect("reader thread panicked")
    });
    match read_out {
        Ok(open) => {
            open.record(rep);
            acc.read_us.extend(&open.lat_us);
            acc.late_us.extend(&open.late_us);
            acc.reads_done += open.lat_us.len() as u64;
            acc.reads_offered += open.offered;
        }
        Err(closed) => {
            closed.record(rep);
            acc.read_us.extend(&closed.lat_us);
            acc.reads_done += closed.lat_us.len() as u64;
            acc.closed_qps
                .push(closed.lat_us.len() as f64 / closed.elapsed.as_secs_f64().max(1e-9));
        }
    }
    let shards_after = merge_all(&cluster.front().scrape().expect("scrape").split_off(1));
    acc.apply_us
        .push(mean_delta(&shards_after, &shards_before, "repl.apply_ns") / 1e3);
    let owner = cluster.owner_metrics().snapshot();
    acc.bootstraps += owner.counter("repl.bootstraps") - owner_before.counter("repl.bootstraps");
    acc.lag_end = acc
        .lag_end
        .max(owner.gauges.get("repl.lag").copied().unwrap_or(0));
    acc.episodes += 1;
    if layer_pass {
        wire_layer_pass(
            ctx,
            rep,
            cluster.front(),
            cluster.front_metrics(),
            &mut reader[0],
            &analyzer,
            &reads,
            &expected,
            1,
        );
    }
    drop(reader);
    drop(subscriber);
    cluster.shutdown();
}

/// Runs episodes until `until`, or at least one.
fn phase(
    ctx: &Ctx,
    rep: &mut Report,
    setup: &mut SetupStats,
    until: Instant,
    reads: Reads,
    traced: bool,
) -> Acc {
    let mut acc = Acc::default();
    while acc.episodes == 0 || Instant::now() < until {
        episode(ctx, rep, setup, &mut acc, reads, traced, false);
    }
    acc
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let start = Instant::now();
    let mut setup = SetupStats::default();
    if !ctx.traced {
        let acc = phase(
            ctx,
            rep,
            &mut setup,
            start + ctx.secs(1.0),
            Reads::Closed,
            false,
        );
        setup.report(rep);
        report_latency(rep, "query", "us", &acc.read_us);
        // One sample per episode: its reads over its wall-clock.
        rep.set("capacity_qps", acc.closed_qps.sliced_q(0.5));
        report_latency(rep, "window", "ms", &acc.window_ms);
        rep.note(format!(
            "episodes: {} ({} windows), {} closed-loop reads",
            acc.episodes,
            acc.window_ms.len(),
            acc.reads_done
        ));
        return;
    }
    let plain = phase(
        ctx,
        rep,
        &mut setup,
        start + ctx.secs(0.4),
        Reads::Open,
        false,
    );
    let traced = phase(
        ctx,
        rep,
        &mut setup,
        start + ctx.secs(0.8),
        Reads::Open,
        true,
    );
    let mut last = Acc::default();
    episode(ctx, rep, &mut setup, &mut last, Reads::Open, true, true);
    setup.report(rep);
    report_open_loop(
        rep,
        READ_QPS,
        &plain.read_us,
        &plain.late_us,
        plain.reads_done as f64 / plain.reads_offered.max(1.0),
    );
    report_overhead(
        rep,
        "window_p50_ms",
        plain.window_ms.median(),
        traced.window_ms.median(),
    );
    let t = &traced;
    rep.set("stream.close_ms", t.close_ms.median());
    rep.set("stream.drain_us", t.drain_us.median());
    rep.set("stream.evaluations_per_window", t.evaluations.mean());
    rep.set("stream.incidents_per_window", t.incidents.mean());
    rep.set("repl.publish_p50_ms", t.publish_ms.median());
    rep.set("repl.publish_p90_ms", t.publish_ms.q(0.9));
    rep.set("repl.apply_us", t.apply_us.median());
    rep.set("repl.cloned_records_per_window", t.cloned.mean());
    rep.set("repl.bootstraps", (t.bootstraps + plain.bootstraps) as f64);
    rep.set("repl.lag_end", t.lag_end.max(plain.lag_end) as f64);
    rep.zero_unexercised(&[
        "setup.", "core.", "router.", "wire.", "stream.", "repl.", "trace.", "gen.",
    ]);
}
