//! A shard server's thread count does not grow with the request rate.
//!
//! Read-only requests are served by a fixed pool behind a bounded queue,
//! so however many callers multiplex over however many connections, the
//! server runs its accept thread, its [`SERVE_WORKERS`] pool threads and
//! one reader per connection — nothing per request. This file holds one
//! test on purpose: `/proc/self/task` then counts only the threads this
//! test starts.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsim::prelude::*;
use queryplane::Snapshot;
use switchpointer::shard::ShardedDirectory;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::frame::MAX_FRAME;
use wireplane::proto::Frame;
use wireplane::server::SERVE_WORKERS;
use wireplane::{MuxConn, ServeDelay, ShardServer, ShardState, WireConfig};

/// Multiplexed connections to the one server.
const CONNS: usize = 8;
/// Concurrent callers sharing each connection.
const CALLERS: usize = 32;
/// Requests each caller issues per rate.
const ROUNDS: usize = 12;

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .expect("/proc/self/task is readable")
}

#[test]
fn serve_threads_stay_bounded_at_any_request_rate() {
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
    tb.sim.run_until(SimTime::from_ms(3));
    let analyzer = tb.analyzer();
    let dir = ShardedDirectory::new(
        analyzer.directory().mphf().clone(),
        &analyzer.all_hosts(),
        1,
    );
    let shard = dir.shards()[0].clone();
    let keep: BTreeSet<_> = shard.hosts().iter().copied().collect();
    let view = Snapshot::capture_with(&analyzer, 8, 1).shard_slice(&keep);
    let host = a;

    let idle = task_count();
    let server = ShardServer::spawn(ShardState { shard, view }, 1, WireConfig::default()).unwrap();
    // Every read sits in the server for a while, so at any request rate
    // many are in flight at once.
    let delay: ServeDelay = Arc::new(|req: &Frame| match req {
        Frame::StoreLenReq { .. } => Duration::from_millis(1),
        _ => Duration::ZERO,
    });
    server.set_serve_delay(Some(delay));
    let conns: Vec<Arc<MuxConn>> = (0..CONNS)
        .map(|_| MuxConn::connect(server.local_addr(), MAX_FRAME).unwrap().0)
        .collect();
    let expected = format!("{:?}", conns[0].call(&Frame::StoreLenReq { host }).unwrap());

    // Server: accept + pool. Per connection: the server's reader and the
    // connection's demux reader. Test side: the callers and the sampler.
    let bound = idle + 1 + SERVE_WORKERS + 2 * CONNS + CONNS * CALLERS + 1;
    // Closed loop flat out, then paced callers.
    for pause in [Duration::ZERO, Duration::from_millis(2)] {
        let done = AtomicBool::new(false);
        let peak = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut peak = 0;
                while !done.load(Ordering::Relaxed) {
                    peak = peak.max(task_count());
                    std::thread::sleep(Duration::from_micros(200));
                }
                peak
            });
            let callers: Vec<_> = conns
                .iter()
                .flat_map(|c| std::iter::repeat_n(c, CALLERS))
                .map(|c| {
                    let expected = &expected;
                    s.spawn(move || {
                        for _ in 0..ROUNDS {
                            let reply = c.call(&Frame::StoreLenReq { host }).unwrap();
                            assert_eq!(format!("{reply:?}"), *expected, "reply crossed wires");
                            std::thread::sleep(pause);
                        }
                    })
                })
                .collect();
            for h in callers {
                h.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            sampler.join().unwrap()
        });
        assert!(
            peak >= idle + CONNS * CALLERS,
            "the sampler never saw the callers running (peak {peak}, idle {idle})"
        );
        assert!(
            peak <= bound,
            "{peak} threads at pause {pause:?}: above idle {idle} + accept + pool \
             {SERVE_WORKERS} + {CONNS} connections' readers + {} callers + sampler = {bound} \
             — serving spawns threads per request",
            CONNS * CALLERS
        );
    }
    drop(conns);
    server.shutdown();
}
