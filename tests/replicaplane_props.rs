//! The replication subsystem's contract:
//!
//! (a) **No divergence, ever.** Under any random interleaving of delta
//!     appends, retention sweeps, primary kills, and fresh-standby
//!     bootstraps — at 1/2/4/8 shards — every live replica's served
//!     state equals the owner's authoritative slice **bit for bit** at
//!     every applied seq, and its log position equals the owner's head.
//! (b) **Gaps are typed, never silent.** A replica refuses an
//!     out-of-sequence append with [`WireError::SeqGap`] naming exactly
//!     the seq it expects; the in-sequence append then succeeds.
//! (c) **Publication is observable.** The owner's `repl.*` metrics
//!     account one publish per refresh, every bootstrap, and a lag of
//!     zero once every live replica acked the head.

use netsim::prelude::*;
use proptest::rng_for;
use queryplane::{DeltaRecord, RetentionPolicy};
use replicaplane::ReplicaCluster;
use switchpointer::retention;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::frame::WireError;
use wireplane::{ReplicaWriter, RetryPolicy, WireCluster, WireConfig};

/// A chain with steady cross-traffic, so every few-ms advance journals a
/// non-trivial delta (new epochs on every switch, record growth on the
/// endpoints' hosts).
fn replication_testbed() -> Testbed {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("A"), tb.node("B"));
    let (d, f) = (tb.node("D"), tb.node("F"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(60),
        rate_bps: 80_000_000,
        payload_bytes: 1458,
    });
    tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        d,
        b,
        Priority::LOW,
        SimTime::ZERO,
        400_000,
    ));
    tb
}

/// Asserts every live replica of every shard sits at the owner's head
/// and serves a state bit-identical to the owner's slice.
fn assert_no_divergence(cluster: &ReplicaCluster, n_shards: usize, ctx: &str) {
    let heads = cluster.heads();
    let applied = cluster.applied_seqs();
    for s in 0..n_shards {
        let owner = cluster.owner_slice(s);
        let mut live = 0;
        for (r, a) in applied[s].iter().enumerate() {
            let Some(a) = a else { continue };
            live += 1;
            assert_eq!(*a, heads[s], "{ctx}: shard {s} replica {r} lagging");
            let state = cluster.replica_state(s, r).expect("live replica");
            assert!(
                state.view == owner,
                "{ctx}: shard {s} replica {r} diverged from owner"
            );
        }
        assert!(live >= 1, "{ctx}: shard {s} lost every replica");
    }
}

/// (a) — the tentpole pin. Random walks over {advance+publish, sweep,
/// add fresh standby, kill a replica}, at every shard count, with the
/// log capacity small enough that a bootstrap is forced whenever a
/// standby joins late.
#[test]
fn replicas_bit_identical_at_every_applied_seq_under_random_interleavings() {
    for n_shards in [1usize, 2, 4, 8] {
        let mut rng = rng_for("replica divergence");
        let mut tb = replication_testbed();
        tb.sim.run_until(SimTime::from_ms(5));
        let analyzer = tb.analyzer();
        let cluster =
            ReplicaCluster::launch_with(&analyzer, n_shards, 2, WireConfig::default(), 3).unwrap();
        assert_no_divergence(&cluster, n_shards, "at launch");

        let mut now_ms = 5u64;
        let mut killed_one = false;
        for step in 0..14 {
            match rng.below(4) {
                // Advance the deployment and publish the delta.
                0 | 1 => {
                    now_ms += 1 + rng.below(3);
                    tb.sim.run_until(SimTime::from_ms(now_ms));
                }
                // Retention sweep: mutates the live deployment; the
                // reclamation must ride the next published record.
                2 => {
                    let policy = RetentionPolicy {
                        keep_epochs: 4 + rng.below(12),
                        shard_record_budget: usize::MAX,
                    };
                    retention::sweep(&analyzer, policy, n_shards, &[]);
                }
                // A fresh standby joins mid-flight: spawned from the
                // owner's current slice, snapshot-bootstrapped to the
                // head, then fed in sequence like everyone else.
                _ => {
                    let shard = rng.below(n_shards as u64) as usize;
                    cluster.add_standby(shard).unwrap();
                }
            }
            // Kill one primary exactly once, mid-walk: the standbys must
            // carry the shard alone from then on.
            if step == 7 {
                let shard = rng.below(n_shards as u64) as usize;
                assert!(cluster.kill_primary(shard));
                killed_one = true;
            }
            cluster.refresh(&analyzer);
            assert_no_divergence(&cluster, n_shards, &format!("step {step}"));
        }
        assert!(killed_one);

        // (c) Publication accounting: one publish per refresh, at least
        // one bootstrap per standby added, zero lag at rest.
        let owner = cluster.owner_metrics().snapshot();
        assert_eq!(owner.counter("repl.published"), 14);
        assert_eq!(
            owner.gauges.get("repl.lag").copied(),
            Some(0),
            "lag must be zero once every live replica acked the head"
        );
        cluster.shutdown();
    }
}

/// (b) — the seq protocol, driven raw: a writer that skips ahead gets a
/// typed `SeqGap` naming the seq the replica expects; supplying exactly
/// that seq succeeds.
#[test]
fn out_of_sequence_appends_refuse_with_a_typed_gap() {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();

    // One in-band refresh: the shard's replication log is at seq 1.
    tb.sim.run_until(SimTime::from_ms(8));
    cluster.refresh(&analyzer);
    assert_eq!(cluster.applied_seqs(), vec![1]);

    // A second writer skips to seq 7: typed refusal, position unmoved.
    let addr = cluster.shard_addrs()[0];
    let w = ReplicaWriter::connect(
        0,
        addr,
        WireConfig::default().max_frame,
        RetryPolicy::immediate(1),
    )
    .unwrap();
    match w.append(7, &DeltaRecord::default()) {
        Err(WireError::SeqGap { expected, got }) => {
            assert_eq!((expected, got), (2, 7));
        }
        other => panic!("expected SeqGap, got {other:?}"),
    }
    assert_eq!(
        cluster.applied_seqs(),
        vec![1],
        "refused append must not move the log"
    );

    // The seq it asked for lands (an empty record is a valid no-op).
    assert_eq!(w.append(2, &DeltaRecord::default()).unwrap(), 2);
    assert_eq!(cluster.applied_seqs(), vec![2]);

    // Status probe agrees.
    assert_eq!(w.status().unwrap(), 2);
    cluster.shutdown();
}

/// The server survives a malformed replication payload: a frame whose
/// record bytes are garbage yields a typed error reply on that
/// connection, and the replica's state and log position are untouched.
#[test]
fn corrupt_replication_frames_never_move_the_log() {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let before = format!("{:?}", cluster.applied_seqs());

    // A snapshot install whose view bytes are garbage: typed error.
    let addr = cluster.shard_addrs()[0];
    let w = ReplicaWriter::connect(
        0,
        addr,
        WireConfig::default().max_frame,
        RetryPolicy::immediate(1),
    )
    .unwrap();
    assert!(w.install(1, vec![0xA5; 32]).is_err());
    assert_eq!(format!("{:?}", cluster.applied_seqs()), before);

    // The same connection still serves well-formed traffic afterwards.
    assert_eq!(w.status().unwrap(), 0);
    cluster.shutdown();
}

/// The deployment's trace sample rate reaches the publisher: at rate 0 a
/// refresh records no replicate-stage span on the owner and no
/// apply-stage span on any replica — while rate 1 records both, so the
/// check is not vacuous.
#[test]
fn rate_zero_cluster_refresh_records_no_replication_spans() {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let (n_shards, n_replicas) = (2usize, 2usize);
    for rate in [0u32, 1] {
        let cfg = WireConfig {
            trace_sample_rate: rate,
            ..WireConfig::default()
        };
        let cluster = ReplicaCluster::launch(&analyzer, n_shards, n_replicas, cfg).unwrap();
        tb.sim.run_until(SimTime::from_ms(8));
        cluster.refresh(&analyzer);
        assert_no_divergence(&cluster, n_shards, &format!("rate {rate}"));

        let owner = cluster.owner_spans();
        let applies: usize = (0..n_shards)
            .flat_map(|s| (0..n_replicas).map(move |r| (s, r)))
            .map(|(s, r)| {
                let reg = cluster.replica_metrics(s, r).expect("live replica");
                let events = reg.tracer().events();
                events.iter().filter(|e| e.stage == "apply").count()
            })
            .sum();
        if rate == 0 {
            assert!(owner.is_empty(), "rate 0 recorded owner spans: {owner:?}");
            assert_eq!(applies, 0, "rate 0 recorded replica apply spans");
        } else {
            assert_eq!(owner.len(), n_shards * n_replicas, "one root per append");
            assert_eq!(applies, n_shards * n_replicas, "one apply per append");
        }
        cluster.shutdown();
    }
}
