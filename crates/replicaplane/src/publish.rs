//! The owner side of replication: journal one delta per refresh, append
//! it to every shard's [`ReplicationLog`], and feed each replica of each
//! shard over its [`ReplicaWriter`] — replaying the retained suffix when
//! a replica answers with a [`WireError::SeqGap`], and falling back to a
//! full [`Frame::SnapshotInstall`](wireplane::Frame) bootstrap when the
//! suffix was truncated (or a replay refuses to apply).
//!
//! Publisher-side observability rides the owner's registry:
//!
//! | metric              | kind      | meaning                                   |
//! |---------------------|-----------|-------------------------------------------|
//! | `repl.published`    | counter   | deltas journaled (one per refresh)        |
//! | `repl.appends`      | counter   | acked sequenced appends, all replicas     |
//! | `repl.replays`      | counter   | `SeqGap` answers that triggered a replay  |
//! | `repl.bootstraps`   | counter   | full snapshot installs                    |
//! | `repl.bootstrap_ns` | histogram | install round-trip wall clock             |
//! | `repl.lag`          | gauge     | max over shards of `head − min(applied)`  |

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use netsim::packet::NodeId;
use obsplane::{Counter, Gauge, Histogram, MetricsRegistry, SpanEvent, Tracer};
use queryplane::{Snapshot, SnapshotDelta};
use switchpointer::Analyzer;
use telemetry::frame::{Enc, WireError};
use wireplane::ReplicaWriter;

use crate::log::ReplicationLog;

/// One replica as the publisher sees it: the wire to it, the last seq it
/// acked, and whether it still answers at all.
struct ReplicaSlot {
    writer: ReplicaWriter,
    /// Last acked seq; `None` until the first ack (a freshly registered
    /// standby, or a replica declared dead).
    applied: Option<u64>,
    /// Cleared when even a bootstrap fails — the publisher stops dialing
    /// a dead replica every refresh.
    alive: bool,
}

struct PubMetrics {
    published: Arc<Counter>,
    appends: Arc<Counter>,
    replays: Arc<Counter>,
    bootstraps: Arc<Counter>,
    bootstrap_ns: Arc<Histogram>,
    lag: Arc<Gauge>,
}

impl PubMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        PubMetrics {
            published: reg.counter("repl.published"),
            appends: reg.counter("repl.appends"),
            replays: reg.counter("repl.replays"),
            bootstraps: reg.counter("repl.bootstraps"),
            bootstrap_ns: reg.histogram("repl.bootstrap_ns"),
            lag: reg.gauge("repl.lag"),
        }
    }
}

/// The owner's replication engine: authoritative [`Snapshot`], one
/// bounded [`ReplicationLog`] per shard, and the replica wires fed from
/// it.
pub struct DeltaPublisher {
    snapshot: Snapshot,
    /// Per shard, the host set its slice keeps (the directory
    /// partition).
    keeps: Vec<BTreeSet<NodeId>>,
    logs: Vec<ReplicationLog>,
    replicas: Vec<Vec<ReplicaSlot>>,
    metrics: PubMetrics,
    /// Mints one trace per sequenced append, so each replica's
    /// apply-stage span links back to an owner-side replicate-stage
    /// root. Owned here because the registry is only borrowed at
    /// construction; dump it via [`DeltaPublisher::tracer`].
    tracer: Tracer,
}

impl DeltaPublisher {
    /// A publisher over `snapshot`, partitioned by `keeps` (one host set
    /// per shard), with `writers[s]` the replica wires of shard `s` and
    /// each shard's log retaining `log_cap` records. Metrics register
    /// into `registry`, and the publisher's traces sample at its
    /// tracer's rate.
    pub fn new(
        snapshot: Snapshot,
        keeps: Vec<BTreeSet<NodeId>>,
        writers: Vec<Vec<ReplicaWriter>>,
        log_cap: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        assert_eq!(keeps.len(), writers.len(), "one writer set per shard");
        let logs = keeps.iter().map(|_| ReplicationLog::new(log_cap)).collect();
        let replicas = writers
            .into_iter()
            .map(|ws| {
                ws.into_iter()
                    .map(|writer| ReplicaSlot {
                        writer,
                        // Spawned from the same slice the owner holds, so
                        // it is current as of seq 0.
                        applied: Some(0),
                        alive: true,
                    })
                    .collect()
            })
            .collect();
        // A fixed owner-side seed, distinct from the per-shard server
        // perturbations, so span ids stay unique across the deployment.
        let tracer = Tracer::new();
        tracer.set_id_seed(0x4F57_4E45_5253_4944); // "OWNERSID"
        tracer.set_sample_rate(registry.tracer().sample_rate());
        DeltaPublisher {
            snapshot,
            keeps,
            logs,
            replicas,
            metrics: PubMetrics::new(registry),
            tracer,
        }
    }

    /// The publisher's span tracer (replicate-stage roots).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records the owner-side replicate-stage root span for one acked
    /// sequenced append.
    fn record_replicate(
        tracer: &Tracer,
        ctx: Option<obsplane::TraceContext>,
        s: usize,
        seq: u64,
        started: Instant,
    ) {
        if let Some(c) = ctx {
            tracer.submit(
                SpanEvent {
                    class: "DeltaAppend",
                    stage: "replicate",
                    epoch: seq,
                    shard: s as u32,
                    start_ns: tracer.offset_ns(started),
                    dur_ns: started.elapsed().as_nanos() as u64,
                    trace_id: c.trace_id,
                    span_id: c.span_id,
                    parent_id: 0,
                    steals: 0,
                },
                c.sampled,
            );
        }
    }

    /// Journals one delta against the owner snapshot, appends each
    /// shard's slice to its log, and feeds every live replica. Empty
    /// records are appended too — seqs advance uniformly, so a replica's
    /// applied seq always names an exact owner state.
    pub fn publish(&mut self, analyzer: &Analyzer) -> SnapshotDelta {
        let (delta, record) = self.snapshot.apply_delta_journaled(analyzer);
        for s in 0..self.logs.len() {
            let sliced = record.slice_for(&self.keeps[s]);
            self.logs[s].append(sliced);
            for r in 0..self.replicas[s].len() {
                self.feed(s, r);
            }
        }
        self.metrics.published.inc();
        self.metrics.lag.set(self.lag());
        delta
    }

    /// Brings replica `r` of shard `s` up to the log head: append the
    /// head record, replay the suffix on a `SeqGap`, bootstrap on a
    /// truncated suffix or a refused replay, declare the replica dead
    /// when even the bootstrap cannot be delivered.
    fn feed(&mut self, s: usize, r: usize) {
        let Self {
            logs,
            replicas,
            metrics,
            tracer,
            ..
        } = self;
        let slot = &mut replicas[s][r];
        if !slot.alive {
            return;
        }
        let log = &logs[s];
        // Fast path: the replica acked the previous seq, so the head
        // record is exactly the one it expects next.
        if slot.applied == Some(log.head().saturating_sub(1)) {
            if let Some(suffix) = log.since(log.head().saturating_sub(1)) {
                if let Some(e) = suffix.first() {
                    let (seq, rec) = (e.0, &e.1);
                    let ctx = tracer.mint_trace();
                    let started = Instant::now();
                    match slot.writer.append_traced(seq, rec, ctx) {
                        Ok(applied) => {
                            slot.applied = Some(applied);
                            metrics.appends.inc();
                            Self::record_replicate(tracer, ctx, s, seq, started);
                            return;
                        }
                        Err(WireError::SeqGap { .. }) => {
                            metrics.replays.inc();
                        }
                        Err(_) => {}
                    }
                }
            }
        }
        // Slow path: replay the retained suffix from where the replica
        // actually is; bootstrap when that is impossible or refused.
        if self.replay(s, r) {
            return;
        }
        self.bootstrap(s, r);
    }

    /// Replays the log suffix past the replica's acked position. `true`
    /// when the replica reached the head this way.
    fn replay(&mut self, s: usize, r: usize) -> bool {
        let Self {
            logs,
            replicas,
            metrics,
            tracer,
            ..
        } = self;
        let slot = &mut replicas[s][r];
        let after = match slot.applied {
            Some(a) => a,
            None => match slot.writer.status() {
                Ok(a) => a,
                Err(_) => return false,
            },
        };
        let Some(suffix) = logs[s].since(after) else {
            return false; // truncated: bootstrap territory
        };
        for e in suffix {
            let (seq, rec) = (e.0, &e.1);
            let ctx = tracer.mint_trace();
            let started = Instant::now();
            match slot.writer.append_traced(seq, rec, ctx) {
                Ok(applied) => {
                    slot.applied = Some(applied);
                    metrics.appends.inc();
                    Self::record_replicate(tracer, ctx, s, seq, started);
                }
                Err(_) => return false,
            }
        }
        slot.applied == Some(logs[s].head())
    }

    /// Installs the owner's full current slice at the log head. A
    /// replica that cannot even take a bootstrap is declared dead.
    fn bootstrap(&mut self, s: usize, r: usize) {
        let mut e = Enc::new();
        self.snapshot.shard_slice(&self.keeps[s]).wire_enc(&mut e);
        let slot = &mut self.replicas[s][r];
        match slot.writer.install(self.logs[s].head(), e.into_bytes()) {
            Ok((applied, took)) => {
                slot.applied = Some(applied);
                slot.alive = true;
                self.metrics.bootstraps.inc();
                self.metrics.bootstrap_ns.record_duration(took);
            }
            Err(_) => {
                slot.applied = None;
                slot.alive = false;
            }
        }
    }

    /// Registers a standby spawned *now* (serving the owner's current
    /// slice) as replica of shard `s`, and immediately bootstraps it so
    /// its log position matches the head. Returns its replica index.
    pub fn register_replica(&mut self, s: usize, writer: ReplicaWriter) -> usize {
        self.replicas[s].push(ReplicaSlot {
            writer,
            applied: None,
            alive: true,
        });
        let r = self.replicas[s].len() - 1;
        self.bootstrap(s, r);
        r
    }

    /// Stops feeding replica `r` of shard `s` (it was killed on
    /// purpose); its slot stays so replica indices keep their meaning.
    pub fn retire_replica(&mut self, s: usize, r: usize) {
        if let Some(slot) = self.replicas.get_mut(s).and_then(|v| v.get_mut(r)) {
            slot.alive = false;
            slot.applied = None;
        }
    }

    /// Max over shards of `head − min(applied over live replicas)` — 0
    /// when every live replica acked the head everywhere. A shard with
    /// no live replica reports its full head as lag.
    pub fn lag(&self) -> i64 {
        let mut worst = 0u64;
        for (s, log) in self.logs.iter().enumerate() {
            let min_applied = self.replicas[s]
                .iter()
                .filter(|sl| sl.alive)
                .map(|sl| sl.applied.unwrap_or(0))
                .min()
                .unwrap_or(0);
            worst = worst.max(log.head().saturating_sub(min_applied));
        }
        worst as i64
    }

    /// The owner's log heads, in shard order.
    pub fn heads(&self) -> Vec<u64> {
        self.logs.iter().map(|l| l.head()).collect()
    }

    /// The owner's authoritative slice of shard `s` — what every replica
    /// of `s` must equal bit-for-bit at the head seq.
    pub fn owner_slice(&self, s: usize) -> Snapshot {
        self.snapshot.shard_slice(&self.keeps[s])
    }
}
