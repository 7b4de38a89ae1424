//! Fixtures: the simulated deployments and the seeded request
//! populations every workload draws from. The simulated traffic is the
//! same on every run (drawn once from [`TRAFFIC_SEED`]), so every run asks
//! about the same network; the benchmark's seed picks which switches,
//! windows and probes the requests name and in what order. The class mix
//! and how often each switch is asked about are fixed, so the work a run
//! does is the same for every seed and only its shape moves.

use netsim::prelude::*;
use netsim::rng::DetRng;
use switchpointer::query::QueryRequest;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

/// Fat-tree arity every fixture uses (16 hosts, 20 switches).
const K: usize = 4;
/// Simulated milliseconds the storm fixture runs before it is queried.
const STORM_MS: u64 = 40;
/// The pointer retention span at the default 10x3 hierarchy, in epochs:
/// the range a presence sweep scans.
pub const RETENTION: EpochRange = EpochRange { lo: 0, hi: 999 };

fn host(pod: usize, edge: usize, x: usize) -> String {
    format!("h{pod}_{edge}_{x}")
}

/// Every host name of the k=4 fat tree.
fn hosts() -> Vec<(usize, String)> {
    let mut v = Vec::new();
    for pod in 0..K {
        for edge in 0..K / 2 {
            for x in 0..K / 2 {
                v.push((pod, host(pod, edge, x)));
            }
        }
    }
    v
}

/// The last host of every pod (`h{pod}_1_1`) stays quiet in the storm:
/// no flow reaches it, so a presence sweep for it finds nothing and
/// reads every epoch.
fn quiet(pod: usize) -> String {
    host(pod, K / 2 - 1, K / 2 - 1)
}

/// The non-quiet hosts of the pods `keep` admits.
fn busy_hosts(keep: impl Fn(usize) -> bool) -> Vec<(usize, String)> {
    hosts()
        .into_iter()
        .filter(|(p, h)| keep(*p) && *h != quiet(*p))
        .collect()
}

/// One cross-pod `(src, dst)` pair per host of `from`, with every host
/// of `to` a destination equally often: a shuffled round-robin pairing,
/// redrawn until no pair stays inside one pod, so every edge switch
/// carries the same number of flows.
fn cross_pod_pairing(
    rng: &mut DetRng,
    from: &[(usize, String)],
    to: &[(usize, String)],
) -> Vec<(String, String)> {
    loop {
        let mut dst: Vec<&(usize, String)> = to.iter().cycle().take(from.len()).collect();
        shuffle(rng, &mut dst);
        if from.iter().zip(&dst).all(|(a, b)| a.0 != b.0) {
            return from
                .iter()
                .zip(dst)
                .map(|(a, b)| (a.1.clone(), b.1.clone()))
                .collect();
        }
    }
}

fn udp(tb: &mut Testbed, s: &str, d: &str, start_ms: u64, ms: u64) -> FlowId {
    let (s, d) = (tb.node(s), tb.node(d));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: s,
        dst: d,
        priority: Priority::LOW,
        start: SimTime::from_ms(start_ms),
        duration: SimTime::from_ms(ms),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    })
}

/// A simulated deployment plus the handles the request generators need.
pub struct Fixture {
    pub tb: Testbed,
    /// The starved TCP victim and its destination (the anchor of the
    /// trigger-keyed diagnoses).
    pub victim: FlowId,
    pub victim_dst: NodeId,
    /// Background flows, as `(flow, src, dst)`.
    pub flows: Vec<(FlowId, NodeId, NodeId)>,
}

/// Builds the victim/burst core every fixture shares: a TCP victim from
/// `h0_0_0` to `h2_0_0` and a HIGH-priority burst from `h0_0_1` aimed at
/// the victim's own destination, so the two share the last-hop link
/// whatever ECMP does and the victim's starvation trigger fires at
/// 15 ms for every seed.
fn victim_core(tb: &mut Testbed, until_ms: u64) -> (FlowId, NodeId) {
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let da = tb.node("h2_0_0");
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(until_ms),
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        da,
        Priority::HIGH,
        SimTime::from_ms(15),
        SimTime::from_ms(2),
        GBPS,
    ));
    (victim, da)
}

/// Where the simulated traffic's random choices come from. Seeding the
/// traffic from the benchmark's seed too moved the work per query by up
/// to a fifth between seeds (how many hosts each switch's pointers name
/// follows who talks to whom and the routes their flows hash onto).
const TRAFFIC_SEED: u64 = 1;

/// The query-storm deployment: the victim core plus 24 cross-pod
/// 100 Mb/s background flows (every non-quiet host sends two and
/// receives two), simulated for [`STORM_MS`].
pub fn storm() -> Fixture {
    let mut rng = DetRng::new(TRAFFIC_SEED ^ 0x5354_4f52_4d00_0000);
    let mut tb = Testbed::new(Topology::fat_tree(K, GBPS), TestbedConfig::default_ms());
    let (victim, victim_dst) = victim_core(&mut tb, STORM_MS);
    let hs = busy_hosts(|_| true);
    let mut flows = Vec::new();
    for _ in 0..2 {
        for (s, d) in cross_pod_pairing(&mut rng, &hs, &hs) {
            let start = rng.next_below(5);
            let f = udp(&mut tb, &s, &d, start, 25);
            flows.push((f, tb.node(&s), tb.node(&d)));
        }
    }
    tb.sim.run_until(SimTime::from_ms(STORM_MS));
    Fixture {
        tb,
        victim,
        victim_dst,
        flows,
    }
}

/// Simulated milliseconds the monitor fixture runs before its first
/// window: past the victim's end, so the history the side reads query
/// is closed.
pub const MONITOR_START_MS: u64 = 45;

/// The monitoring deployment, in two disjoint halves. The history: the
/// victim core plus six flows from pods 0-1 into pods 2-3 (one from each
/// non-quiet host, one to each) over the first 30 ms. The live half, from
/// [`MONITOR_START_MS`] on: six flows inside pod 1 that outlive the run and a churn train of
/// short ones, one starting every 4 simulated ms, so every window's
/// delta carries new records. Live traffic never reaches a host or a
/// switch the victim's diagnoses read, and reads over the history use
/// ranges aligned to whole level-2 pointer slots, so their answers stay
/// fixed while the live half grows. Simulated only to
/// [`MONITOR_START_MS`]; the workload advances it window by window up to
/// `horizon_ms`.
pub fn monitor(horizon_ms: u64) -> Fixture {
    let mut rng = DetRng::new(TRAFFIC_SEED ^ 0x4d4f_4e49_544f_5200);
    let mut tb = Testbed::new(Topology::fat_tree(K, GBPS), TestbedConfig::default_ms());
    let (victim, victim_dst) = victim_core(&mut tb, 40);
    let mut flows = Vec::new();
    let pairs = cross_pod_pairing(&mut rng, &busy_hosts(|p| p < 2), &busy_hosts(|p| p >= 2));
    for (s, d) in pairs {
        let f = udp(&mut tb, &s, &d, rng.next_below(5), 25);
        flows.push((f, tb.node(&s), tb.node(&d)));
    }
    // A pod-1 pair across its two edge switches.
    let inside = |rng: &mut DetRng| {
        let (e, x, y) = (
            rng.next_below(2) as usize,
            rng.next_below(2) as usize,
            rng.next_below(2) as usize,
        );
        (host(1, e, x), host(1, 1 - e, y))
    };
    let live = horizon_ms - MONITOR_START_MS;
    for _ in 0..6 {
        let (s, d) = inside(&mut rng);
        udp(&mut tb, &s, &d, MONITOR_START_MS, live);
    }
    let mut start = MONITOR_START_MS;
    while start < horizon_ms {
        let (s, d) = inside(&mut rng);
        udp(&mut tb, &s, &d, start, 3);
        start += 4;
    }
    tb.sim.run_until(SimTime::from_ms(MONITOR_START_MS));
    Fixture {
        tb,
        victim,
        victim_dst,
        flows,
    }
}

/// Switch names by fat-tree layer.
fn edges() -> Vec<String> {
    (0..K)
        .flat_map(|p| (0..K / 2).map(move |e| format!("edge{p}_{e}")))
        .collect()
}
fn aggs() -> Vec<String> {
    (0..K)
        .flat_map(|p| (0..K / 2).map(move |j| format!("agg{p}_{j}")))
        .collect()
}
fn cores() -> Vec<String> {
    (0..K / 2)
        .flat_map(|g| (0..K / 2).map(move |c| format!("core{g}_{c}")))
        .collect()
}

/// How an aggregate's epoch range is drawn.
#[derive(Clone, Copy)]
pub enum Ranges {
    /// A 20-29 epoch window starting in the first 6 epochs.
    Wide,
    /// The monitor fixture's closed history: whole level-2 pointer slots
    /// inside the first 30 epochs (`[0|10, 19|29]`), on switches outside
    /// pod 1, which the live traffic never reaches, so no pointer or
    /// host record the answer reads changes while the run goes on.
    History,
}

/// One wide-window aggregate (TopK or LoadImbalance) with a seeded
/// range; `i` cycles the layer (edge, agg, core), the switch within it
/// and the class, so every seed asks the same number of times about each
/// switch.
fn aggregate(fx: &Fixture, rng: &mut DetRng, i: usize, ranges: Ranges) -> QueryRequest {
    let mut layer = match i % 3 {
        0 => edges(),
        1 => aggs(),
        _ => cores(),
    };
    if let Ranges::History = ranges {
        layer.retain(|s| !s.starts_with("edge1_") && !s.starts_with("agg1_"));
    }
    // `c` counts this layer's aggregates: each switch in turn gets one of
    // each class.
    let c = i / 3;
    let switch = fx.tb.node(&layer[(c / 2) % layer.len()]);
    let range = match ranges {
        Ranges::Wide => {
            let lo = rng.next_below(6);
            EpochRange {
                lo,
                hi: lo + 20 + rng.next_below(10),
            }
        }
        Ranges::History => EpochRange {
            lo: 10 * rng.next_below(2),
            hi: 10 * (2 + rng.next_below(2)) - 1,
        },
    };
    if c.is_multiple_of(2) {
        QueryRequest::TopK {
            switch,
            k: 10,
            range,
        }
    } else {
        QueryRequest::LoadImbalance { switch, range }
    }
}

/// The trigger-anchored diagnoses on the starved victim; `i` cycles the
/// class.
fn diagnosis(fx: &Fixture, i: usize) -> QueryRequest {
    let (victim, victim_dst) = (fx.victim, fx.victim_dst);
    let trigger_window = fx.tb.cfg.trigger.window;
    match i % 3 {
        0 => QueryRequest::Contention {
            victim,
            victim_dst,
            trigger_window,
        },
        1 => QueryRequest::RedLights {
            victim,
            victim_dst,
            trigger_window,
        },
        _ => QueryRequest::Cascade {
            victim,
            victim_dst,
            trigger_window,
            max_depth: 3,
        },
    }
}

/// The operator debugging mix: `n` requests, fifteen in sixteen
/// wide-window aggregates over edge, agg and core switches, the rest
/// diagnoses of the starved victim. No presence sweeps. The diagnoses
/// take several times an aggregate's round trips; keeping them rarer than
/// one in ten holds the 90th percentile inside the aggregates' tail
/// instead of on the edge between the two classes.
pub fn adhoc_mix(fx: &Fixture, seed: u64, n: usize, ranges: Ranges) -> Vec<QueryRequest> {
    let mut rng = DetRng::new(seed ^ 0x4144_484f_4300_0000);
    let mut reqs: Vec<QueryRequest> = (0..n)
        .map(|i| {
            if i % 16 == 15 {
                diagnosis(fx, i / 16)
            } else {
                aggregate(fx, &mut rng, i, ranges)
            }
        })
        .collect();
    shuffle(&mut rng, &mut reqs);
    reqs
}

/// A probe for a flow that vanished: a flow id that never ran, towards a
/// quiet host no flow reached, so every epoch of every path switch is
/// read. `rack` sends it from the quiet host's rack neighbour (a
/// one-switch path); otherwise from a host in another pod (five
/// switches, through the core).
fn vanished_probe(fx: &Fixture, rng: &mut DetRng, flow: FlowId, rack: bool) -> QueryRequest {
    let pod = rng.next_below(K as u64) as usize;
    let src = if rack {
        host(pod, K / 2 - 1, 0)
    } else {
        let other = (pod + 1 + rng.next_below(K as u64 - 1) as usize) % K;
        host(other, rng.next_below(K as u64 / 2) as usize, 0)
    };
    QueryRequest::SilentDrop {
        flow,
        src: fx.tb.node(&src),
        dst: fx.tb.node(&quiet(pod)),
        range: RETENTION,
    }
}

/// Presence sweeps over the whole retention span, in rounds of four: one
/// live probe (a running flow's own path and destination, drawn from
/// `live`, so the sweep finds it in the first epochs and exits) and
/// three vanished rack-local probes (1000 reads each). The order within
/// a round is seeded; the 1:3 ratio is fixed, so the median and p90 both
/// measure full sweeps.
pub fn sweep_probes(
    fx: &Fixture,
    live: &[(FlowId, NodeId, NodeId)],
    seed: u64,
    rounds: usize,
) -> Vec<QueryRequest> {
    let mut rng = DetRng::new(seed ^ 0x5357_4545_5000_0000);
    let mut out = Vec::with_capacity(rounds * 4);
    for r in 0..rounds {
        let (flow, src, dst) = live[rng.next_below(live.len() as u64) as usize];
        let mut round = vec![QueryRequest::SilentDrop {
            flow,
            src,
            dst,
            range: RETENTION,
        }];
        for v in 0..3 {
            round.push(vanished_probe(
                fx,
                &mut rng,
                FlowId(1_000_000 + 3 * r as u64 + v),
                true,
            ));
        }
        shuffle(&mut rng, &mut round);
        out.extend(round);
    }
    out
}

/// The six-class in-process storm: per round of 16, eleven aggregates,
/// one of each diagnosis and two presence sweeps over the retention span
/// (vanished probes: the compute-heavy tail), so every class is present
/// in every round.
pub fn inproc_storm(fx: &Fixture, seed: u64, rounds: usize) -> Vec<QueryRequest> {
    let mut rng = DetRng::new(seed ^ 0x494e_5052_4f43_0000);
    let mut out = Vec::with_capacity(rounds * 16);
    for r in 0..rounds {
        let mut round = Vec::with_capacity(16);
        for i in 0..11 {
            round.push(aggregate(fx, &mut rng, r * 11 + i, Ranges::Wide));
        }
        for d in 0..3 {
            round.push(diagnosis(fx, d));
        }
        for p in 0..2u64 {
            let flow = FlowId(2_000_000 + r as u64 * 2 + p);
            round.push(vanished_probe(fx, &mut rng, flow, false));
        }
        shuffle(&mut rng, &mut round);
        out.extend(round);
    }
    out
}

/// Fisher-Yates over the repo's splitmix stream.
fn shuffle<T>(rng: &mut DetRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}
