//! `adhoc`: the operator debugging mix over the wire — `WireClient`
//! through `FrontEnd` to four `ShardServer`s. The end-to-end run is a
//! closed loop at `nproc` connections; the traced run adds an open-loop
//! phase at a fixed offered rate. The transport and the fan-out dominate
//! here, and four shards expose the router's per-shard calls; no presence
//! sweeps.

use wireplane::WireClient;

use crate::common::*;
use crate::fixture;
use crate::load::{closed_loop, open_loop};
use crate::report::Report;

/// Directory shards (one `ShardServer` each).
const SHARDS: usize = 4;
/// Distinct requests in the seeded population.
const POPULATION: usize = 400;
/// Requests per closed-loop round (the `window_*` unit here).
const ROUND: usize = 16;
/// The traced run's open-loop offered rate, requests/s, fixed so every
/// run offers the same load. It sits near a tenth of the closed-loop
/// capacity measured on a 2-core machine (about 2,000 qps) rather than
/// half of it: at 400-800 qps the open-loop median and p90 swung two- to
/// three-fold between identical runs there.
const OFFERED_QPS: f64 = 200.0;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut setup_stats = SetupStats::default();
    let (fx, analyzer, cluster) = storm_cluster(ctx, SHARDS, &mut setup_stats);
    setup_stats.report(rep);
    let reqs = fixture::adhoc_mix(&fx, ctx.seed, POPULATION, fixture::Ranges::Wide);
    let expected = Expected::compute(&analyzer, &reqs, ctx.corrupt_expected);
    let mut clients: Vec<WireClient> = (0..ctx.nproc)
        .map(|_| cluster.client().expect("connect a client"))
        .collect();
    // Warm-up: connections, allocator and the shards' union memos reach
    // steady state before anything is timed. Its replies are checked too.
    let warm = closed_loop(&mut clients, &reqs, &expected, ROUND, ctx.secs(0.03), None);
    warm.record(rep);

    if !ctx.traced {
        let closed = closed_loop(&mut clients, &reqs, &expected, ROUND, ctx.secs(1.0), None);
        closed.record(rep);
        report_latency(rep, "query", "us", &closed.lat_us);
        rep.set("capacity_qps", closed.capacity());
        report_latency(rep, "window", "ms", &closed.round_ms);
        rep.note(format!(
            "closed loop: {} connections, {} replies",
            clients.len(),
            closed.lat_us.len()
        ));
    } else {
        let open = open_loop(
            &mut clients,
            &reqs,
            &expected,
            ctx.seed,
            OFFERED_QPS,
            ctx.secs(0.3),
            None,
        );
        open.record(rep);
        report_open_loop(
            rep,
            OFFERED_QPS,
            &open.lat_us,
            &open.late_us,
            open.achieved_over_offered(),
        );
        let plain = closed_loop(&mut clients, &reqs, &expected, ROUND, ctx.secs(0.3), None);
        cluster.front_metrics().tracer().set_sample_rate(1);
        let traced = closed_loop(&mut clients, &reqs, &expected, ROUND, ctx.secs(0.3), None);
        cluster.front_metrics().tracer().set_sample_rate(0);
        plain.record(rep);
        traced.record(rep);
        report_overhead(
            rep,
            "query_p50_us",
            plain.lat_us.sliced_q(0.5),
            traced.lat_us.sliced_q(0.5),
        );
        wire_layer_pass(
            ctx,
            rep,
            cluster.front(),
            cluster.front_metrics(),
            &mut clients[0],
            &analyzer,
            &reqs,
            &expected,
            1,
        );
        rep.zero_unexercised(&["setup.", "core.", "router.", "wire.", "trace.", "gen."]);
    }
    drop(clients);
    cluster.shutdown();
}
