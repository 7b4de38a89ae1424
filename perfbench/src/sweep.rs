//! `sweep`: closed-loop `SilentDrop` presence sweeps over the full
//! retention span against a 2-shard cluster with one client. The
//! executor makes one remote presence read per epoch per path switch,
//! and every probe goes to a single owner shard, so the executor and the
//! per-RPC cost do all the work; fan-out width barely matters.

use switchpointer::query::{QueryRequest, QueryResponse};

use crate::common::*;
use crate::fixture::{self, RETENTION};
use crate::load::closed_loop;
use crate::report::Report;

const SHARDS: usize = 2;
/// Rounds of four probes in the seeded population.
const ROUNDS: usize = 8;
/// Probes per round (the `window_*` unit here): one live, three vanished.
const ROUND: usize = 4;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut setup_stats = SetupStats::default();
    let (fx, analyzer, cluster) = storm_cluster(ctx, SHARDS, &mut setup_stats);
    setup_stats.report(rep);
    // Live probes are running flows the sweep finds on every path
    // switch (so it exits early everywhere).
    let live: Vec<_> = fx
        .flows
        .iter()
        .copied()
        .filter(|&(flow, src, dst)| {
            let req = QueryRequest::SilentDrop {
                flow,
                src,
                dst,
                range: RETENTION,
            };
            matches!(analyzer.execute(&req), QueryResponse::SilentDrop(d)
                if !d.per_switch.is_empty() && d.per_switch.iter().all(|&(_, seen)| seen))
        })
        .collect();
    assert!(
        !live.is_empty(),
        "no background flow is seen on its whole path"
    );
    let probes = fixture::sweep_probes(&fx, &live, ctx.seed, ROUNDS);
    let expected = Expected::compute(&analyzer, &probes, ctx.corrupt_expected);
    let mut clients = vec![cluster.client().expect("connect a client")];
    let warm = closed_loop(
        &mut clients,
        &probes[..ROUND],
        &expected,
        ROUND,
        ctx.secs(0.01),
        None,
    );
    warm.record(rep);

    if !ctx.traced {
        let closed = closed_loop(
            &mut clients,
            &probes,
            &expected,
            ROUND,
            ctx.secs(0.97),
            None,
        );
        closed.record(rep);
        report_latency(rep, "query", "us", &closed.lat_us);
        rep.set("capacity_qps", closed.capacity());
        report_latency(rep, "window", "ms", &closed.round_ms);
    } else {
        let plain = closed_loop(&mut clients, &probes, &expected, ROUND, ctx.secs(0.4), None);
        cluster.front_metrics().tracer().set_sample_rate(1);
        let traced = closed_loop(&mut clients, &probes, &expected, ROUND, ctx.secs(0.4), None);
        cluster.front_metrics().tracer().set_sample_rate(0);
        plain.record(rep);
        traced.record(rep);
        report_overhead(
            rep,
            "query_p50_us",
            plain.lat_us.median(),
            traced.lat_us.median(),
        );
        wire_layer_pass(
            ctx,
            rep,
            cluster.front(),
            cluster.front_metrics(),
            &mut clients[0],
            &analyzer,
            &probes[..ROUND],
            &expected,
            1,
        );
        rep.zero_unexercised(&["setup.", "core.", "router.", "wire.", "trace."]);
    }
    drop(clients);
    cluster.shutdown();
}
