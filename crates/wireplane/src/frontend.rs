//! The front-end: the shard router served over real connections.
//!
//! This is the in-process [`ShardedAnalyzer`](switchpointer::shard::ShardedAnalyzer)
//! parity fixture with the *reach* made real: the front-end embeds the
//! same [`BackendRouter`] over [`RemoteShard`] backends, each a loopback
//! TCP connection to one shard server. Pointer unions reassemble from the
//! shards' masked slices (bit-identical to the flat union — the slot
//! masks partition the directory range), host reads route to the owning
//! shard, and every query wave coalesces into **one request frame per
//! shard** ([`Frame::FilterWaveReq`] and friends), so the batched-RPC
//! term the [`CostModel`](switchpointer::cost::CostModel) prices is
//! *measured* here, not just modelled: [`FrontEnd::counters`] reports
//! actual RPCs and round trips.
//!
//! Towards clients the front-end is a server itself, on the same serve
//! path as the shard servers (`server::Endpoint`): `QueryReq` frames run the
//! shared [`QueryExecutor`] over the remote router on the serve pool and
//! return the full response; `SubscribeReq` frames, served in-band,
//! register standing queries whose incident transitions are pushed as
//! [`Frame::IncidentPush`] when the hosting process closes a window
//! ([`FrontEnd::close_window`]).
//! Subscription topics keep their full incident log, and a subscribe
//! carries a `resume_after` cursor — a client that lost its connection
//! mid-stream resubscribes and re-derives the log bit-identically, with
//! zero duplicated and zero dropped transitions (property-tested).
//!
//! Transport failures towards a shard are retried under a bounded
//! exponential-backoff [`RetryPolicy`] over fresh connections (servers
//! keep no per-connection state, so a reconnect is free). A shard
//! connected with a *replica set* ([`RemoteShard::connect_replicated`])
//! fails over: when the active replica exhausts its retry budget the
//! connection rotates to the next address mid-query, so a query wave
//! survives a primary kill and subscription streams resume on the
//! standby. A shard whose every replica stays unreachable is fatal to
//! the in-flight query.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::packet::{FlowId, NodeId};
use obsplane::{Histogram, RegistrySnapshot, SpanEvent, TraceContext};
use queryplane::{SharedCtx, WorkerPool};
use streamplane::{
    fingerprint, pending_fp, summarize, transition_kind, Incident, StandingQuery, SubscriptionId,
    PENDING_SUMMARY,
};
use switchpointer::bitset::BitSet;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::query::{ExecutionTrace, QueryExecutor, QueryRequest, QueryResponse};
use switchpointer::shard::{BackendRouter, RouterCounters, ShardBackend};
use telemetry::frame::WireError;
use telemetry::EpochRange;

use crate::mux::Link;
use crate::proto::{Frame, WindowSummary, WireSpan, FRONT_ROLE};
use crate::retry::RetryPolicy;
use crate::server::{Conn, Endpoint, Service, WireConfig};

/// One shard, reached over a (lazily re-established) multiplexed
/// loopback connection ([`MuxConn`](crate::mux::MuxConn)) to whichever
/// of its replicas is currently active. Implements [`ShardBackend`], so
/// the core router treats it exactly like a local slice. Any number of
/// query workers may call into the same `RemoteShard` concurrently:
/// their exchanges interleave on the shared socket instead of convoying
/// behind a connection mutex, and same-turn requests combine into one
/// `Batch` frame per shard.
pub struct RemoteShard {
    shard: usize,
    link: Link,
    rpcs: AtomicU64,
    /// Per-exchange round-trip latency, when the dialer observes it
    /// (`wire.rtt_ns.shard{N}` in the front-end's registry).
    rtt_ns: Option<Arc<Histogram>>,
    /// The registry whose tracer mints wire-stage spans for this link.
    /// Set by the front-end after connect; plain handles stay untraced.
    trace_reg: Option<Arc<obsplane::MetricsRegistry>>,
}

impl RemoteShard {
    /// Connects to a shard served by a replica set: `addrs[0]` is the
    /// primary, the rest are standbys taken in order when the active
    /// replica exhausts `retry`. At least one address must be dialable
    /// now; dead standbys are tolerated until failover reaches them.
    pub fn connect_replicated(
        shard: usize,
        addrs: Vec<SocketAddr>,
        max_frame: u32,
        retry: RetryPolicy,
        rtt_ns: Option<Arc<Histogram>>,
        failover_ns: Option<Arc<Histogram>>,
    ) -> Result<Self, WireError> {
        Ok(RemoteShard {
            shard,
            link: Link::connect(shard, addrs, max_frame, retry, failover_ns)?,
            rpcs: AtomicU64::new(0),
            rtt_ns,
            trace_reg: None,
        })
    }

    /// The replica the live connection currently points at.
    pub fn active_replica(&self) -> usize {
        self.link.active()
    }

    /// One request/reply exchange over the retrying link. The server
    /// keeps no per-connection state and all shard RPCs are reads, so a
    /// retried request is idempotent by construction and a mid-query
    /// failover is invisible to the caller.
    fn call(&self, req: &Frame) -> Result<Frame, WireError> {
        self.call_inner(req, true)
    }

    /// [`RemoteShard::call`] without touching the RPC counter or RTT
    /// histogram — the scrape path uses this so pulling metrics never
    /// perturbs the metrics being pulled.
    fn call_inner(&self, req: &Frame, observe: bool) -> Result<Frame, WireError> {
        // Wire-stage span: when the calling thread carries a trace
        // context (a query executing on the front pool), the envelope
        // entry gets a child context so the server's serve-stage span
        // links under this exchange. Scrapes (`observe: false`) never
        // carry context — pulling traces must not mint traces.
        let trace = if observe {
            self.trace_reg.as_ref().and_then(|reg| {
                obsplane::current()
                    .map(|parent| (parent, parent.child(reg.tracer().next_span_id())))
            })
        } else {
            None
        };
        let (reply, started) = self.link.call(req, trace.map(|(_, wire)| wire))?;
        if observe {
            self.rpcs.fetch_add(1, Ordering::Relaxed);
            if let Some(h) = &self.rtt_ns {
                h.record_duration(started.elapsed());
            }
        }
        if let (Some((parent, wire)), Some(reg)) = (trace, &self.trace_reg) {
            let t = reg.tracer();
            t.submit(
                SpanEvent {
                    class: req.kind_name(),
                    stage: "wire",
                    epoch: 0,
                    shard: self.shard as u32,
                    start_ns: t.offset_ns(started),
                    dur_ns: started.elapsed().as_nanos() as u64,
                    trace_id: wire.trace_id,
                    span_id: wire.span_id,
                    parent_id: parent.span_id,
                    steals: 0,
                },
                wire.sampled,
            );
        }
        Ok(reply)
    }

    /// A reply of the wrong type is a protocol error.
    fn expect<T>(
        &self,
        got: Result<Frame, WireError>,
        extract: impl FnOnce(Frame) -> Option<T>,
    ) -> T {
        let active = self.link.active_addr();
        match got {
            Ok(frame) => {
                let tag = frame.tag();
                extract(frame).unwrap_or_else(|| {
                    panic!(
                        "shard {} at {}: mismatched reply frame {tag:#04x}",
                        self.shard, active
                    )
                })
            }
            Err(e) => panic!(
                "shard {} unreachable on every replica (last peer {}): {e}",
                self.shard, active
            ),
        }
    }

    /// The shard's snapshot epoch horizon.
    pub fn horizon(&self) -> u64 {
        self.expect(self.call(&Frame::HorizonReq), |f| match f {
            Frame::HorizonRep(h) => Some(h),
            _ => None,
        })
    }

    /// Pulls the shard server's labelled registry snapshot. The exchange
    /// is unobserved on both ends (no RPC count, no RTT sample, nothing
    /// recorded server-side), so the snapshot is exactly the server's
    /// and repeated scrapes of a quiesced cluster are identical.
    pub fn scrape(&self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        match self.call_inner(&Frame::StatsScrapeReq, false)? {
            Frame::StatsScrapeRep(v) => Ok(v),
            other => Err(WireError::Remote(format!(
                "expected StatsScrapeRep, got frame {:#04x}",
                other.tag()
            ))),
        }
    }

    /// Pulls the shard server's retained spans (ring plus slow-query
    /// exemplars) as a labelled dump. Unobserved on both ends like
    /// [`RemoteShard::scrape`], so pulling traces never makes traces.
    pub fn scrape_traces(&self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        match self.call_inner(&Frame::TraceScrapeReq, false)? {
            Frame::TraceScrapeRep(v) => Ok(v),
            other => Err(WireError::Remote(format!(
                "expected TraceScrapeRep, got frame {:#04x}",
                other.tag()
            ))),
        }
    }

    /// Wire RPCs issued over this connection so far.
    pub fn rpcs(&self) -> u64 {
        self.rpcs.load(Ordering::Relaxed)
    }

    /// Reconnects performed (failure-injection visibility).
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects()
    }

    /// Replica rotations performed (0 until a replica actually died).
    pub fn failovers(&self) -> u64 {
        self.link.failovers()
    }

    /// Envelope frames written to this shard so far (retired connections
    /// included; one `Batch` carrying a whole wave counts once).
    pub fn wire_frames_sent(&self) -> u64 {
        self.link.frames_sent()
    }

    /// Envelope bytes written to this shard so far, length prefixes
    /// included (retired connections included).
    pub fn wire_bytes_sent(&self) -> u64 {
        self.link.bytes_sent()
    }

    /// Test hook: force-close the live connection so every in-flight
    /// exchange on it fails over and the next call must re-establish it
    /// (simulates a mid-stream connection kill).
    pub fn kill_connection(&self) {
        self.link.kill();
    }
}

impl ShardBackend for RemoteShard {
    fn shard_id(&self) -> usize {
        self.shard
    }

    fn union_slice(&self, switch: NodeId, range: EpochRange) -> Option<BitSet> {
        self.expect(
            self.call(&Frame::UnionSliceReq { switch, range }),
            |f| match f {
                Frame::UnionSliceRep(v) => Some(v),
                _ => None,
            },
        )
    }

    fn probe_exact(&self, switch: NodeId, addr: u64, epoch: u64) -> Option<Option<bool>> {
        self.expect(
            self.call(&Frame::ProbeExactReq {
                switch,
                addr,
                epoch,
            }),
            |f| match f {
                Frame::ProbeExactRep(v) => Some(v),
                _ => None,
            },
        )
    }

    fn store_len(&self, host: NodeId) -> Option<usize> {
        self.expect(self.call(&Frame::StoreLenReq { host }), |f| match f {
            Frame::StoreLenRep(v) => Some(v.map(|n| n as usize)),
            _ => None,
        })
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.expect(self.call(&Frame::RecordReq { host, flow }), |f| match f {
            Frame::RecordRep(v) => Some(v),
            _ => None,
        })
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.expect(self.call(&Frame::TriggerReq { host, flow }), |f| match f {
            Frame::TriggerRep(v) => Some(v),
            _ => None,
        })
    }

    fn store_len_wave(&self, hosts: &[NodeId]) -> Vec<Option<usize>> {
        self.expect(
            self.call(&Frame::StoreLenWaveReq {
                hosts: hosts.to_vec(),
            }),
            |f| match f {
                Frame::StoreLenWaveRep(v) => {
                    Some(v.into_iter().map(|l| l.map(|n| n as usize)).collect())
                }
                _ => None,
            },
        )
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Vec<(Option<usize>, Vec<FlowRecord>)> {
        self.expect(
            self.call(&Frame::FilterWaveReq {
                switch,
                range,
                hosts: hosts.to_vec(),
            }),
            |f| match f {
                Frame::FilterWaveRep(v) => Some(
                    v.into_iter()
                        .map(|(l, recs)| (l.map(|n| n as usize), recs))
                        .collect(),
                ),
                _ => None,
            },
        )
    }

    fn top_k_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        k: usize,
    ) -> Vec<(Option<usize>, Vec<(FlowId, u64)>)> {
        self.expect(
            self.call(&Frame::TopKWaveReq {
                switch,
                k: k as u64,
                hosts: hosts.to_vec(),
            }),
            |f| match f {
                Frame::TopKWaveRep(v) => Some(
                    v.into_iter()
                        .map(|(l, flows)| (l.map(|n| n as usize), flows))
                        .collect(),
                ),
                _ => None,
            },
        )
    }

    fn sizes_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
    ) -> Vec<(Option<usize>, Vec<(u16, u64)>)> {
        self.expect(
            self.call(&Frame::SizesWaveReq {
                switch,
                hosts: hosts.to_vec(),
            }),
            |f| match f {
                Frame::SizesWaveRep(v) => Some(
                    v.into_iter()
                        .map(|(l, sizes)| (l.map(|n| n as usize), sizes))
                        .collect(),
                ),
                _ => None,
            },
        )
    }
}

/// One subscribed client connection on one topic.
struct Watcher {
    conn: Arc<Conn>,
    /// Next incident seq to push.
    sent: u64,
}

/// One standing-query topic: the subscription, its change-detection
/// state, the full incident log (seq = index), and its watchers.
struct Topic {
    query: StandingQuery,
    last_fp: Option<u64>,
    log: Vec<Incident>,
    watchers: Vec<Watcher>,
}

#[derive(Default)]
struct Topics {
    list: Vec<(SubscriptionId, Topic)>,
}

impl Topics {
    /// The topic for `query`, creating it (next subscription id, in
    /// first-subscribe order — the same id assignment the in-process
    /// stream plane uses) if new.
    fn topic_for(&mut self, query: StandingQuery) -> usize {
        if let Some(i) = self.list.iter().position(|(_, t)| t.query == query) {
            return i;
        }
        let id = SubscriptionId(self.list.len() as u64);
        self.list.push((
            id,
            Topic {
                query,
                last_fp: None,
                log: Vec::new(),
                watchers: Vec::new(),
            },
        ));
        self.list.len() - 1
    }
}

struct FrontInner {
    ctx: Arc<SharedCtx>,
    shards: Vec<RemoteShard>,
    /// Per-shard wave coalescing on the router (off = the naive
    /// one-RPC-per-host counterfactual).
    coalesce: bool,
    /// The shared execution pool: decoded query waves and window
    /// evaluations run through the same chunked work-stealing scheduler
    /// the in-process query plane uses, instead of inline on connection
    /// threads. Sized by [`WireConfig::front_workers`].
    pool: WorkerPool,
    topics: Mutex<Topics>,
    window: AtomicU64,
    counters: Mutex<RouterCounters>,
    queries: AtomicU64,
    /// Envelope frames the whole wave put on the wire, summed over
    /// shards (`wire.frames_per_wave`): with batching this tracks
    /// shards × rounds, independent of host count.
    wave_frames: Arc<Histogram>,
    /// Envelope bytes per query in the wave (`wire.bytes_per_query`).
    query_bytes: Arc<Histogram>,
}

impl FrontInner {
    /// Executes one request through the remote router, accumulating the
    /// routing counters — a wave of one on the shared pool.
    fn execute(
        self: &Arc<Self>,
        req: &QueryRequest,
    ) -> (QueryResponse, ExecutionTrace, RouterCounters) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.execute_wave(std::slice::from_ref(req))
            .pop()
            .expect("one request in, one result out")
    }

    /// Executes a whole decoded wave of requests on the shared pool and
    /// returns results in submission order. Each query runs the shared
    /// [`QueryExecutor`] over its own remote router (waves still coalesce
    /// per shard *within* a query); routing counters accumulate exactly
    /// as the inline path did. A panic inside any executor (shard
    /// unreachable past the retry budget) is re-raised here after the
    /// rest of the wave completes.
    fn execute_wave(
        self: &Arc<Self>,
        reqs: &[QueryRequest],
    ) -> Vec<(QueryResponse, ExecutionTrace, RouterCounters)> {
        let inner = Arc::clone(self);
        let n_queries = reqs.len();
        let frames_before: u64 = self.shards.iter().map(|s| s.wire_frames_sent()).sum();
        let bytes_before: u64 = self.shards.iter().map(|s| s.wire_bytes_sent()).sum();
        let reqs: Arc<[QueryRequest]> = Arc::from(reqs);
        let wave_started = Instant::now();
        // Chunk size 1: every query is its own work item, so a wave of W
        // queries runs W-wide and their same-shard RPCs combine into
        // batch frames on the multiplexed links. The default chunking
        // floor (≥8 per chunk) would cap a 24-query wave at 3 workers
        // and starve the combiner.
        let out = self
            .pool
            .scatter(reqs.len(), None, Some(1), move |_w, idxs| {
                idxs.iter()
                    .map(|&i| {
                        let req = &reqs[i];
                        let router = inner.router();
                        let exec = QueryExecutor::new(inner.ctx.query_ctx(), &router);
                        let tracer = inner.ctx.metrics.tracer();
                        // This is where a trace is born: one root per
                        // request, minted at the wave's entry point.
                        // The exec child context rides the thread-local
                        // through the executor, so every shard RPC's
                        // wire span links under the exec span.
                        let ctx = tracer.mint_trace();
                        let exec_ctx = ctx.map(|c| c.child(tracer.next_span_id()));
                        let started = Instant::now();
                        let (resp, trace) =
                            obsplane::with_context(exec_ctx, || exec.execute_traced(req));
                        let done = Instant::now();
                        // Same per-class exec histograms + span stream the
                        // in-process worker pool feeds, so `spexp wire`
                        // latency distributions read off the identical
                        // metric names.
                        inner.ctx.exec_hists[req.class_index()]
                            .record_duration(done.duration_since(started));
                        let epoch = inner.ctx.span_epoch(req);
                        match (ctx, exec_ctx) {
                            (Some(c), Some(e)) => {
                                // The root "query" span covers submit →
                                // done (the e2e the client feels), and
                                // its two children partition it exactly:
                                // enqueue (pool wait) + exec (run).
                                let span =
                                    |stage, span_id, parent_id, from: Instant, dur, steals| {
                                        SpanEvent {
                                            class: req.class_name(),
                                            stage,
                                            epoch,
                                            shard: u32::MAX,
                                            start_ns: tracer.offset_ns(from),
                                            dur_ns: saturating_ns(dur),
                                            trace_id: c.trace_id,
                                            span_id,
                                            parent_id,
                                            steals,
                                        }
                                    };
                                let steals = u32::from(obsplane::chunk_stolen());
                                let group = [
                                    span(
                                        "query",
                                        c.span_id,
                                        0,
                                        wave_started,
                                        done.duration_since(wave_started),
                                        0,
                                    ),
                                    span(
                                        "enqueue",
                                        tracer.next_span_id(),
                                        c.span_id,
                                        wave_started,
                                        started.duration_since(wave_started),
                                        0,
                                    ),
                                    span(
                                        "exec",
                                        e.span_id,
                                        c.span_id,
                                        started,
                                        done.duration_since(started),
                                        steals,
                                    ),
                                ];
                                tracer.submit_all(&group, c.sampled);
                            }
                            // Tracing disabled: keep the legacy untraced
                            // span stream.
                            _ => tracer.record(req.class_name(), epoch, u32::MAX, started),
                        }
                        (resp, trace, router.counters())
                    })
                    .collect()
            });
        for (_, _, counters) in &out {
            self.absorb(counters);
        }
        let frames_after: u64 = self.shards.iter().map(|s| s.wire_frames_sent()).sum();
        let bytes_after: u64 = self.shards.iter().map(|s| s.wire_bytes_sent()).sum();
        self.wave_frames.record(frames_after - frames_before);
        if n_queries > 0 {
            self.query_bytes
                .record((bytes_after - bytes_before) / n_queries as u64);
        }
        out
    }

    /// The whole deployment's labelled snapshots: the front-end's own
    /// registry first, then every shard server's, in shard order. The
    /// front snapshot is taken *before* the shard scrapes and the scrape
    /// RPCs are unobserved, so scraping never shows up in the scrape.
    fn scrape_all(&self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        let mut out = vec![("front".to_string(), self.ctx.metrics.snapshot())];
        for shard in &self.shards {
            out.extend(shard.scrape()?);
        }
        Ok(out)
    }

    /// The whole deployment's retained spans, labelled like
    /// [`FrontInner::scrape_all`]: the front-end's own dump first, then
    /// every shard server's, in shard order. Side-effect-free — the
    /// dumps are snapshots and the scrape RPCs are unobserved.
    fn scrape_traces_all(&self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        let mut out = vec![(
            "front".to_string(),
            crate::traces::dump_spans(self.ctx.metrics.tracer()),
        )];
        for shard in &self.shards {
            out.extend(shard.scrape_traces()?);
        }
        Ok(out)
    }

    fn router(&self) -> BackendRouter<'_, RemoteShard> {
        let r = BackendRouter::new(&self.shards, &self.ctx.dir);
        if self.coalesce {
            r
        } else {
            r.without_coalescing()
        }
    }

    fn absorb(&self, c: &RouterCounters) {
        self.counters.lock().unwrap().absorb(c);
    }
}

impl Service for FrontInner {
    fn hello(&self) -> Frame {
        Frame::Hello {
            shard: FRONT_ROLE,
            n_shards: self.shards.len() as u16,
        }
    }

    /// Subscriptions: ack, replay the backlog from the client's cursor,
    /// and register the connection as a watcher — all under the topic
    /// lock, so a concurrent window close never slips an incident
    /// between the replay and the registration.
    fn serve_in_band(&self, req: &Frame, _ctx: Option<TraceContext>, conn: &Arc<Conn>) -> Frame {
        let Frame::SubscribeReq {
            query,
            resume_after,
        } = req
        else {
            return cannot_answer(req);
        };
        let mut topics = self.topics.lock().unwrap();
        let i = topics.topic_for(*query);
        let (sub, topic) = &mut topics.list[i];
        let available = topic.log.len() as u64;
        // Zero duplicates (nothing below the cursor) and zero drops
        // (everything from it on).
        let mut sent = (*resume_after).min(available);
        while sent < available {
            let frame = Frame::IncidentPush {
                seq: sent,
                incident: topic.log[sent as usize].clone(),
            };
            if !conn.push(frame) {
                break;
            }
            sent += 1;
        }
        topic.watchers.push(Watcher {
            conn: Arc::clone(conn),
            sent,
        });
        Frame::SubscribeRep {
            sub: *sub,
            available,
        }
    }

    fn serve_read(self: &Arc<Self>, req: &Frame, _ctx: Option<TraceContext>) -> Frame {
        let reply = match req {
            Frame::QueryReq(q) => Ok(Frame::QueryRep(self.execute(q).0)),
            Frame::StatsScrapeReq => self.scrape_all().map(Frame::StatsScrapeRep),
            Frame::TraceScrapeReq => self.scrape_traces_all().map(Frame::TraceScrapeRep),
            other => return cannot_answer(other),
        };
        reply.unwrap_or_else(Frame::Error)
    }

    /// Reaps the closed connection's watchers.
    fn closed(&self, conn_id: u64) {
        let mut topics = self.topics.lock().unwrap();
        for (_, topic) in &mut topics.list {
            topic.watchers.retain(|w| w.conn.id != conn_id);
        }
    }
}

fn cannot_answer(req: &Frame) -> Frame {
    Frame::Error(WireError::Remote(format!(
        "front-end cannot answer frame {:#04x}",
        req.tag()
    )))
}

/// The client-facing service front-end over `N` wire-connected shard
/// servers.
pub struct FrontEnd {
    inner: Arc<FrontInner>,
    endpoint: Endpoint,
}

impl FrontEnd {
    /// Connects to the shard servers at `addrs` (in shard order) and
    /// binds the client listener on `127.0.0.1:0`; the bound address
    /// comes back via [`FrontEnd::local_addr`].
    pub fn connect(
        ctx: Arc<SharedCtx>,
        addrs: &[SocketAddr],
        cfg: WireConfig,
    ) -> Result<Self, WireError> {
        Self::connect_with(ctx, addrs, cfg, true)
    }

    /// [`FrontEnd::connect`] with per-shard wave coalescing configurable
    /// — `coalesce: false` is the measurable naive per-host RPC regime.
    pub fn connect_with(
        ctx: Arc<SharedCtx>,
        addrs: &[SocketAddr],
        cfg: WireConfig,
        coalesce: bool,
    ) -> Result<Self, WireError> {
        let sets: Vec<Vec<SocketAddr>> = addrs.iter().map(|&a| vec![a]).collect();
        Self::connect_replica_sets(ctx, &sets, cfg, coalesce, RetryPolicy::immediate(2))
    }

    /// Connects each shard to a *replica set* (`addr_sets[s][0]` the
    /// primary, the rest standbys): when a replica dies mid-query the
    /// shard connection rotates to the next address under `retry` and
    /// the wave completes on the standby. Subscription topics live on
    /// the front-end, so standing-query streams keep their cursors
    /// across the failover.
    pub fn connect_replica_sets(
        ctx: Arc<SharedCtx>,
        addr_sets: &[Vec<SocketAddr>],
        cfg: WireConfig,
        coalesce: bool,
        retry: RetryPolicy,
    ) -> Result<Self, WireError> {
        assert_eq!(
            addr_sets.len(),
            ctx.dir.n_shards(),
            "one replica set per directory shard"
        );
        let mut shards: Vec<RemoteShard> = addr_sets
            .iter()
            .enumerate()
            .map(|(s, set)| {
                let rtt = ctx.metrics.histogram(&format!("wire.rtt_ns.shard{s}"));
                let failover = ctx.metrics.histogram("wire.failover_ns");
                RemoteShard::connect_replicated(
                    s,
                    set.clone(),
                    cfg.max_frame,
                    retry,
                    Some(rtt),
                    Some(failover),
                )
            })
            .collect::<Result<_, _>>()?;
        // Front-side trace wiring: the front registry's tracer mints
        // trace/span ids and head-samples at the configured rate, and
        // every shard link tags its envelopes from the executing
        // thread's context.
        ctx.metrics.tracer().set_sample_rate(cfg.trace_sample_rate);
        for s in &mut shards {
            s.trace_reg = Some(Arc::clone(&ctx.metrics));
        }
        let pool = WorkerPool::with_metrics(cfg.front_workers, &ctx.metrics);
        let wave_frames = ctx.metrics.histogram("wire.frames_per_wave");
        let query_bytes = ctx.metrics.histogram("wire.bytes_per_query");
        let inner = Arc::new(FrontInner {
            ctx,
            shards,
            coalesce,
            pool,
            topics: Mutex::new(Topics::default()),
            window: AtomicU64::new(0),
            counters: Mutex::new(RouterCounters::default()),
            queries: AtomicU64::new(0),
            wave_frames,
            query_bytes,
        });
        let endpoint = Endpoint::spawn("wireplane-front", &cfg, Arc::clone(&inner))?;
        Ok(FrontEnd { inner, endpoint })
    }

    /// The bound client-facing loopback address.
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.addr()
    }

    /// Executes one request locally (without a client connection) through
    /// the remote router — the harness-side path the drivers use for
    /// accounting.
    pub fn execute(&self, req: &QueryRequest) -> (QueryResponse, ExecutionTrace, RouterCounters) {
        self.inner.execute(req)
    }

    /// Executes a whole wave of requests concurrently on the shared
    /// pool, returning results in submission order. Queries run one per
    /// work item, so their same-shard RPCs combine into batch frames on
    /// the multiplexed links and reply decode overlaps requests still in
    /// flight — the wire fast path. Results are bit-identical to calling
    /// [`FrontEnd::execute`] per request in order.
    pub fn execute_wave(
        &self,
        reqs: &[QueryRequest],
    ) -> Vec<(QueryResponse, ExecutionTrace, RouterCounters)> {
        self.inner
            .queries
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        self.inner.execute_wave(reqs)
    }

    /// Cumulative router counters (RPCs, rounds, per-shard fan-out)
    /// across every query and window evaluation.
    pub fn counters(&self) -> RouterCounters {
        self.inner.counters.lock().unwrap().clone()
    }

    /// Labelled registry snapshots of the whole deployment (front-end
    /// first, then each shard in order) — the harness-side twin of
    /// [`crate::WireClient::scrape_stats`].
    pub fn scrape(&self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        self.inner.scrape_all()
    }

    /// Labelled span dumps of the whole deployment (front-end first,
    /// then each shard in order) — the harness-side twin of
    /// [`crate::WireClient::scrape_traces`]. Feed the result to
    /// [`crate::traces::assemble`] to rebuild cross-process trees.
    pub fn scrape_traces(&self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        self.inner.scrape_traces_all()
    }

    /// Queries executed (client-submitted and harness-side).
    pub fn queries(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Total reconnects the shard connections performed.
    pub fn shard_reconnects(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.reconnects()).sum()
    }

    /// Total replica failovers the shard connections performed.
    pub fn shard_failovers(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.failovers()).sum()
    }

    /// Each shard connection's currently active replica index.
    pub fn active_replicas(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.active_replica())
            .collect()
    }

    /// Total envelope frames written across every shard connection (a
    /// `Batch` carrying a whole wave counts once; retired connections
    /// included).
    pub fn wire_frames_sent(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.wire_frames_sent()).sum()
    }

    /// Total envelope bytes written across every shard connection,
    /// length prefixes included.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.wire_bytes_sent()).sum()
    }

    /// Test hook: kill every live shard connection (they re-establish on
    /// the next call — the mid-stream failure-injection scenario).
    pub fn kill_shard_connections(&self) {
        for s in &self.inner.shards {
            s.kill_connection();
        }
    }

    /// Closes one evaluation window: re-evaluates every subscribed topic
    /// against the shard servers' current state, appends incident
    /// transitions to the topic logs, and pushes the new frames to every
    /// watcher. Call after the shard states were refreshed — the wire
    /// analogue of [`streamplane::StreamPlane::run_window`], sharing its
    /// resolution, fingerprint and transition rules so the two incident
    /// streams are bit-identical.
    pub fn close_window(&self) -> WindowSummary {
        let inner = &*self.inner;
        let window = inner.window.fetch_add(1, Ordering::SeqCst);
        let horizon = inner.shards.iter().map(|s| s.horizon()).max().unwrap_or(0);
        inner.absorb(&RouterCounters {
            rpcs: inner.shards.len() as u64,
            rounds: 1,
            ..RouterCounters::default()
        });

        let mut topics = inner.topics.lock().unwrap();
        let mut evaluated = 0u64;
        let mut pending = 0u64;
        let mut incidents = 0u64;

        // Pass 1 — resolve every topic sequentially (resolution reads a
        // little remote state; its routing counters absorb per topic),
        // collecting the concrete requests of the window as one wave.
        let mut outcomes: Vec<Option<usize>> = Vec::with_capacity(topics.list.len());
        let mut wave: Vec<QueryRequest> = Vec::new();
        for (_, topic) in &topics.list {
            evaluated += 1;
            let router = inner.router();
            let resolved = topic.query.resolve(&router, horizon);
            inner.absorb(&router.counters());
            match resolved {
                None => {
                    pending += 1;
                    outcomes.push(None);
                }
                Some(req) => {
                    outcomes.push(Some(wave.len()));
                    wave.push(req);
                }
            }
        }

        // Pass 2 — the whole window's evaluations run as a single wave
        // on the shared pool instead of inline, one executor per query.
        // Results come back in submission (= topic) order, so pass 3's
        // transition detection stays bit-identical to the inline path.
        let results = self.inner.execute_wave(&wave);

        // Pass 3 — fingerprint, detect transitions, append incidents in
        // topic order.
        for ((sub, topic), outcome) in topics.list.iter_mut().zip(outcomes) {
            let (fp, summary) = match outcome {
                None => (pending_fp(), PENDING_SUMMARY.to_string()),
                Some(i) => {
                    let resp = &results[i].0;
                    (fingerprint(resp), summarize(resp))
                }
            };
            let kind = transition_kind(topic.last_fp, fp);
            topic.last_fp = Some(fp);
            if let Some(kind) = kind {
                topic.log.push(Incident {
                    window,
                    horizon,
                    sub: *sub,
                    kind,
                    summary,
                    fingerprint: fp,
                });
                incidents += 1;
            }
        }

        let summary = WindowSummary {
            window,
            horizon,
            evaluated,
            pending,
            incidents,
        };

        // Push new incidents per watcher, then one window digest per
        // distinct client connection.
        let mut digests: HashMap<u64, Arc<Conn>> = HashMap::new();
        for (_, topic) in &mut topics.list {
            let log = &topic.log;
            topic.watchers.retain_mut(|w| {
                while (w.sent as usize) < log.len() {
                    let frame = Frame::IncidentPush {
                        seq: w.sent,
                        incident: log[w.sent as usize].clone(),
                    };
                    if !w.conn.push(frame) {
                        return false;
                    }
                    w.sent += 1;
                }
                digests
                    .entry(w.conn.id)
                    .or_insert_with(|| Arc::clone(&w.conn));
                true
            });
        }
        for conn in digests.values() {
            conn.push(Frame::WindowPush(summary));
        }
        summary
    }

    /// Conservative per-shard retention pins covering every live
    /// subscription — [`streamplane::handoff_pins`] over the topics this
    /// front-end serves. The failover path: after a primary kill the
    /// owner keeps sweeping retention, but it must not evict state a
    /// cursor resumed on the standby can still reach, and the dead
    /// primary's evaluation cache (which powers the precise pins) is
    /// gone. `floor` is the oldest epoch the handed-off cursors may
    /// re-derive from.
    pub fn handoff_pins(&self, floor: u64) -> Vec<Option<u64>> {
        let topics = self.inner.topics.lock().unwrap();
        let queries: Vec<StandingQuery> = topics.list.iter().map(|(_, t)| t.query).collect();
        streamplane::handoff_pins(&queries, self.inner.ctx.dir.n_shards(), floor)
    }

    /// The full incident log of every topic, in subscription order — the
    /// server-side ground truth clients re-derive.
    pub fn incident_logs(&self) -> Vec<(SubscriptionId, Vec<Incident>)> {
        let topics = self.inner.topics.lock().unwrap();
        topics
            .list
            .iter()
            .map(|(id, t)| (*id, t.log.clone()))
            .collect()
    }

    /// Graceful shutdown of the client listener (shard connections close
    /// with the struct).
    pub fn shutdown(mut self) {
        self.endpoint.shutdown();
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
