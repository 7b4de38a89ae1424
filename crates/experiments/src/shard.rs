//! `spexp shard` — the directory-sharding ablation.
//!
//! Not a paper figure: sweeps the sharded analyzer directory over
//! 1/2/4/8 instances on the fat-tree storm deployment and reports, per
//! shard count, the modelled pointer-decode cost (per-shard decode runs
//! concurrently, the cross-shard merge is serial), the decode/host-read
//! balance across shards, and the per-instance directory metadata. The
//! load-bearing shape checks double as the CI smoke: verdicts are
//! bit-identical to the sequential analyzer at every shard count, and
//! the 4-shard modelled decode cost undercuts the single coordinator.

use netsim::prelude::*;
use switchpointer::query::QueryRequest;
use switchpointer::shard::{RouterCounters, ShardedAnalyzer};
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

use crate::common::{FigureData, Series};

/// The storm deployment: a k=4 fat tree under mixed traffic with a
/// starved victim (the queryplane fixture).
fn testbed() -> (Testbed, FlowId, NodeId) {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let (da, db) = (tb.node("h2_0_0"), tb.node("h2_0_1"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(40),
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        db,
        Priority::HIGH,
        SimTime::from_ms(15),
        SimTime::from_ms(2),
        GBPS,
    ));
    // A wide storm: 12 flows to 12 distinct destinations across all pods,
    // so pointer unions decode many hosts and the decode work has
    // something to spread across directory shards.
    for (s, d) in [
        ("h0_0_0", "h2_0_0"),
        ("h0_0_1", "h2_0_1"),
        ("h0_1_0", "h2_1_0"),
        ("h0_1_1", "h2_1_1"),
        ("h1_0_0", "h3_0_0"),
        ("h1_0_1", "h3_0_1"),
        ("h1_1_0", "h3_1_0"),
        ("h1_1_1", "h3_1_1"),
        ("h2_0_0", "h0_0_0"),
        ("h2_1_0", "h0_1_0"),
        ("h3_0_0", "h1_0_0"),
        ("h3_1_0", "h1_1_0"),
    ] {
        let (s, d) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: s,
            dst: d,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(30),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
    }
    tb.sim.run_until(SimTime::from_ms(40));
    (tb, victim, da)
}

fn queries(tb: &Testbed, victim: FlowId, victim_dst: NodeId) -> Vec<QueryRequest> {
    let window = EpochRange { lo: 10, hi: 20 };
    let mut reqs = Vec::new();
    // Decode-heavy sweep over every layer of the fabric: pointer unions
    // decode to several hosts each, which is the work sharding splits.
    for name in [
        "edge0_0", "edge0_1", "edge1_0", "edge1_1", "edge2_0", "edge2_1", "edge3_0", "edge3_1",
        "agg0_0", "agg0_1", "agg1_0", "agg1_1", "agg2_0", "agg2_1", "agg3_0", "agg3_1", "core0_0",
        "core0_1", "core1_0", "core1_1",
    ] {
        reqs.push(QueryRequest::TopK {
            switch: tb.node(name),
            k: 10,
            range: window,
        });
        reqs.push(QueryRequest::LoadImbalance {
            switch: tb.node(name),
            range: window,
        });
    }
    // One probe-shaped query rides along: its exact-epoch presence probes
    // target a single address, i.e. a single owning shard — the honest
    // worst case sharding cannot parallelize.
    reqs.push(QueryRequest::SilentDrop {
        flow: victim,
        src: tb.node("h0_0_0"),
        dst: victim_dst,
        range: window,
    });
    reqs
}

pub fn shard() -> Vec<FigureData> {
    let (tb, victim, victim_dst) = testbed();
    let analyzer = tb.analyzer();
    let reqs = queries(&tb, victim, victim_dst);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();

    let mut fig = FigureData::new(
        "shard",
        "directory sharding ablation: modelled decode cost and fan-out balance vs shard count",
        "directory_shards",
        "per-sweep counters",
    );
    let mut decode_us = Series::new("modelled_decode_us");
    let mut max_shard_bits = Series::new("max_shard_decode_bits");
    let mut total_bits = Series::new("total_decode_bits");
    let mut merge_bits = Series::new("cross_shard_merge_bits");
    let mut meta_bytes = Series::new("max_shard_metadata_bytes");

    let mut decode_at: Vec<(usize, u64)> = Vec::new();
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let mut fanout = RouterCounters::default();
        let mut decode_total_ns = 0u64;
        for (i, req) in reqs.iter().enumerate() {
            let (resp, _trace, f) = sharded.execute_traced(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "verdict diverged at {n_shards} shards (query {i})"
            );
            decode_total_ns += f.modelled_decode(analyzer.cost()).as_ns();
            fanout.absorb(&f);
        }
        let x = n_shards as f64;
        decode_us.push(x, decode_total_ns as f64 / 1e3);
        max_shard_bits.push(
            x,
            fanout.decode_bits.iter().copied().max().unwrap_or(0) as f64,
        );
        total_bits.push(x, fanout.decode_bits.iter().sum::<u64>() as f64);
        merge_bits.push(x, fanout.merged_bits as f64);
        meta_bytes.push(
            x,
            sharded
                .directory()
                .shards()
                .iter()
                .map(|s| s.metadata_bytes())
                .max()
                .unwrap_or(0) as f64,
        );
        decode_at.push((n_shards, decode_total_ns));
    }

    let at = |n: usize| decode_at.iter().find(|&&(s, _)| s == n).unwrap().1;
    fig.series = vec![
        decode_us,
        max_shard_bits,
        total_bits,
        merge_bits,
        meta_bytes,
    ];
    fig.note(format!(
        "modelled decode: {:.1}us at 1 shard vs {:.1}us at 4 shards ({:.2}x) — \
         per-shard decode is concurrent, the cross-shard merge is serial",
        at(1) as f64 / 1e3,
        at(4) as f64 / 1e3,
        at(1) as f64 / at(4).max(1) as f64,
    ));
    fig.note(
        "verdicts bit-identical to the sequential analyzer at every shard count \
         (asserted per query; see tests/sharded_directory.rs for the property suite)"
            .to_string(),
    );
    // Shape checks the CI smoke run relies on.
    assert!(
        at(4) < at(1),
        "4-shard modelled decode must undercut the single coordinator"
    );
    vec![fig]
}
