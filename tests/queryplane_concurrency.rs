//! The query plane's contract: (a) verdicts are bit-identical to the
//! sequential analyzer's no matter how many workers execute the batch;
//! (b) outcomes depend only on the snapshot and the requests; (c) the
//! post-hoc modelled pricing (`price_batch`) is deterministic and matches
//! a hand-computed pointer-cache schedule; (d) the snapshot's union memo
//! reports its hits and misses.

use netsim::prelude::*;
use queryplane::{
    price_batch, BatchPrice, PointerCache, QueryOutcome, QueryPlane, QueryPlaneConfig,
};
use switchpointer::query::QueryRequest;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

/// The fat-tree contention fixture: a low-priority TCP victim sharing its
/// edge uplink with a high-priority UDP burst, plus steady cross-pod UDP
/// background so pointers light up across layers.
fn fat_tree_testbed() -> (Testbed, FlowId) {
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
    // Background pair in another pod.
    let (c, dc) = (tb.node("h1_0_0"), tb.node("h3_1_1"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: c,
        dst: dc,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(30),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(40));
    (tb, victim)
}

/// A mixed query set over the fixture. Trigger-driven applications are
/// included only when the victim actually triggered (ECMP decides whether
/// the two pod-0 flows share an egress beyond the edge switch — the run is
/// deterministic, so either way the comparison below is too).
fn query_set(tb: &Testbed, victim: FlowId) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    let window = EpochRange { lo: 10, hi: 20 };
    for name in ["edge0_0", "agg0_0", "agg0_1", "core0_0", "edge2_0"] {
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
    // Repeat the first TopK so the cache has something to hit.
    reqs.push(QueryRequest::TopK {
        switch: tb.node("edge0_0"),
        k: 10,
        range: window,
    });
    reqs.push(QueryRequest::SilentDrop {
        flow: victim,
        src: tb.node("h0_0_0"),
        dst: tb.node("h2_0_0"),
        range: window,
    });

    // Trigger-driven queries, if the victim starved.
    let da = tb.node("h2_0_0");
    let triggered = tb.hosts[&da].borrow().first_trigger_for(victim).is_some();
    if triggered {
        let w = tb.cfg.trigger.window;
        reqs.push(QueryRequest::Contention {
            victim,
            victim_dst: da,
            trigger_window: w,
        });
        reqs.push(QueryRequest::RedLights {
            victim,
            victim_dst: da,
            trigger_window: w,
        });
        reqs.push(QueryRequest::Cascade {
            victim,
            victim_dst: da,
            trigger_window: w,
            max_depth: 3,
        });
    }
    reqs
}

#[test]
fn verdicts_identical_across_worker_counts() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let reqs = query_set(&tb, victim);
    assert!(reqs.len() >= 12, "fixture produced too few queries");

    // The sequential ground truth straight off the live analyzer.
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();

    let mut per_worker_costs = Vec::new();
    for workers in [1usize, 2, 8] {
        let plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers,
                shards: 8,
                directory_shards: 1,
                retention: None,
            },
        );
        let outcomes = plane.execute_batch(&reqs);
        assert_eq!(outcomes.len(), reqs.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                format!("{:?}", o.response),
                baseline[i],
                "query {i} diverged from the sequential analyzer at {workers} workers"
            );
        }
        // Modelled pricing must be deterministic too, not just verdicts.
        let price = price(&analyzer, &outcomes, 4096);
        // The repeated TopK hit every pointer key of its round.
        assert!(price.pointer_hits >= 1);
        per_worker_costs.push(format!("{:?}", price.queries));
    }
    assert_eq!(per_worker_costs[0], per_worker_costs[1]);
    assert_eq!(per_worker_costs[0], per_worker_costs[2]);
}

#[test]
fn sharding_choice_does_not_change_answers() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let reqs = query_set(&tb, victim);
    let mut renders = Vec::new();
    for shards in [1usize, 3, 16] {
        let plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 4,
                shards,
                directory_shards: 1,
                retention: None,
            },
        );
        renders.push(
            plane
                .execute_batch(&reqs)
                .iter()
                .map(|o| format!("{:?}", o.response))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[0], renders[2]);
}

#[test]
fn pointer_cache_accounting_matches_hand_computed_schedule() {
    // A tiny deployment: the queries' pointer rounds are all single-key
    // (TopK pulls exactly one (switch, window) union), so the cache
    // schedule can be verified by hand.
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(2),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let (s1, s2) = (tb.node("S1"), tb.node("S2"));
    let (r1, r2) = (EpochRange { lo: 0, hi: 2 }, EpochRange { lo: 0, hi: 3 });
    let topk = |switch, range| QueryRequest::TopK {
        switch,
        k: 5,
        range,
    };

    // Submission order:        key        roomy cache     capacity-1 cache
    //   q0: (s1, r1)                      miss            miss
    //   q1: (s1, r1)                      HIT             HIT
    //   q2: (s2, r1)                      miss            miss (evicts s1r1)
    //   q3: (s1, r2)                      miss            miss (evicts s2r1)
    //   q4: (s1, r1)                      HIT             miss (was evicted)
    let reqs = vec![
        topk(s1, r1),
        topk(s1, r1),
        topk(s2, r1),
        topk(s1, r2),
        topk(s1, r1),
    ];

    let plane = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers: 2,
            shards: 4,
            directory_shards: 1,
            retention: None,
        },
    );
    let outcomes = plane.execute_batch(&reqs);
    let hit_pattern = |p: &BatchPrice| -> Vec<(u32, u32)> {
        p.queries
            .iter()
            .map(|c| (c.pointer_hits, c.pointer_misses))
            .collect()
    };

    let roomy = price(&analyzer, &outcomes, 64);
    assert_eq!(
        hit_pattern(&roomy),
        vec![(0, 1), (1, 0), (0, 1), (0, 1), (1, 0)],
        "roomy cache schedule"
    );
    assert_eq!(roomy.pointer_hits, 2);
    assert_eq!(roomy.pointer_misses, 3);
    assert_eq!(roomy.rounds_skipped, 2);

    // Cache-served rounds skip the ≈7.5 ms retrieval: the two hit queries
    // must be billed far less than their sequential baseline.
    for (i, c) in roomy.queries.iter().enumerate() {
        if c.pointer_hits > 0 {
            assert!(
                c.batched + analyzer.cost().pointer_retrieval(1)
                    < c.sequential + analyzer.cost().pointer_cache_hit,
                "query {i} should have skipped its retrieval round"
            );
        }
    }

    let tiny = price(&analyzer, &outcomes, 1);
    assert_eq!(
        hit_pattern(&tiny),
        vec![(0, 1), (1, 0), (0, 1), (0, 1), (0, 1)],
        "capacity-1 LRU schedule"
    );
    assert_eq!(tiny.pointer_hits, 1);
    assert_eq!(tiny.pointer_misses, 4);
}

#[test]
fn batching_and_caching_beat_sequential_accounting() {
    let (tb, _victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    // A hot incident window: many tenants ask overlapping questions.
    let mut reqs = Vec::new();
    let window = EpochRange { lo: 10, hi: 20 };
    for round in 0..8 {
        for name in ["edge0_0", "agg0_0", "edge2_0"] {
            reqs.push(QueryRequest::TopK {
                switch: tb.node(name),
                k: 10,
                range: window,
            });
            if round % 2 == 0 {
                reqs.push(QueryRequest::LoadImbalance {
                    switch: tb.node(name),
                    range: window,
                });
            }
        }
    }
    let plane = QueryPlane::from_analyzer(&analyzer, QueryPlaneConfig::default());
    let outcomes = plane.execute_batch(&reqs);
    let stats = price(&analyzer, &outcomes, 4096);
    assert_eq!(stats.queries.len(), reqs.len());
    assert!(
        stats.cache_hit_rate() > 0.5,
        "repeat-heavy workload must hit"
    );
    assert!(
        stats.rpcs_saved() > 0,
        "overlapping fan-outs must coalesce ({} requests, {} rpcs)",
        stats.host_requests,
        stats.host_rpcs_issued
    );
    assert!(
        stats.modelled_speedup() >= 2.0,
        "batched+cached should be ≥2× cheaper, got {:.2}× (seq {}, batched {})",
        stats.modelled_speedup(),
        stats.sequential_total,
        stats.batched_total
    );
    // Batch-level invariant: the coalesced accounting never exceeds the
    // sequential baseline.
    assert!(stats.batched_total <= stats.sequential_total);
    assert_eq!(outcomes.len(), reqs.len());
}

/// Prices `outcomes` (submission order) against a fresh pointer cache of
/// `capacity` keys.
fn price(
    analyzer: &switchpointer::Analyzer,
    outcomes: &[QueryOutcome],
    capacity: usize,
) -> BatchPrice {
    let traces: Vec<_> = outcomes.iter().map(|o| &o.trace).collect();
    price_batch(analyzer.cost(), &mut PointerCache::new(capacity), &traces)
}

#[test]
fn outcomes_depend_only_on_snapshot_and_requests() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let reqs = query_set(&tb, victim);
    let cfg = |workers| QueryPlaneConfig {
        workers,
        shards: 8,
        directory_shards: 1,
        retention: None,
    };
    let render = |outcomes: &[QueryOutcome]| format!("{outcomes:?}");

    // A plane with history: it already ran the batch, then took an idle
    // incremental refresh (nothing changed since its freeze).
    let mut used = QueryPlane::from_analyzer(&analyzer, cfg(4));
    used.execute_batch(&reqs);
    assert!(used.refresh_delta(&analyzer).is_empty());
    let replayed = used.execute_batch(&reqs);
    let fresh = QueryPlane::from_analyzer(&analyzer, cfg(4)).execute_batch(&reqs);
    assert_eq!(render(&replayed), render(&fresh));

    // Pricing is a pure function of the traces: 1-worker and 8-worker
    // outcomes price identically.
    let one = QueryPlane::from_analyzer(&analyzer, cfg(1)).execute_batch(&reqs);
    let eight = QueryPlane::from_analyzer(&analyzer, cfg(8)).execute_batch(&reqs);
    assert_eq!(price(&analyzer, &one, 4096), price(&analyzer, &eight, 4096));
}

#[test]
fn union_memo_reports_hits_and_misses() {
    let (mut tb, _victim) = fat_tree_testbed();
    let mut plane = QueryPlane::from_analyzer(&tb.analyzer(), QueryPlaneConfig::default());
    let memo = |plane: &QueryPlane| {
        let reg = plane.metrics();
        (
            reg.counter("queryplane.union_memo.hits").get(),
            reg.counter("queryplane.union_memo.misses").get(),
        )
    };
    let edge = tb.node("edge0_0");
    let batch = vec![
        QueryRequest::TopK {
            switch: edge,
            k: 10,
            range: EpochRange { lo: 10, hi: 20 },
        };
        4
    ];

    // The first batch fills the memo; the identical repeat hits it.
    plane.execute_batch(&batch);
    let (hits0, misses0) = memo(&plane);
    assert!(misses0 >= 1, "a cold memo must miss");
    plane.execute_batch(&batch);
    let (hits1, misses1) = memo(&plane);
    assert!(hits1 >= hits0 + 4, "a repeated batch must hit the memo");
    assert_eq!(misses1, misses0, "a warm memo must not miss");

    // Traffic through the switch dirties it; after the delta refresh its
    // next union read misses.
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        a,
        b,
        Priority::LOW,
        SimTime::from_ms(40),
        SimTime::from_ms(1),
        GBPS,
    ));
    tb.sim.run_until(SimTime::from_ms(42));
    let delta = plane.refresh_delta(&tb.analyzer());
    assert!(
        delta.dirty_switches.contains(&edge),
        "the burst crosses {edge:?}"
    );
    plane.execute(batch[0]);
    let (_, misses2) = memo(&plane);
    assert!(misses2 > misses1, "a dirtied switch's union must miss");
}
