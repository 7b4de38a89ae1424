//! The shard server, and the one serve path every wireplane server
//! shares.
//!
//! Each shard server owns one [`DirectoryShard`] (its slice of the bit →
//! host partition) plus a per-shard [`Snapshot`] slice: the flow-record
//! stores of exactly the hosts it owns, with the small switch pointer
//! metadata carried whole (the paper's footprint argument — MPHF +
//! pointer bits are the cheap replicated layer, host stores the heavy
//! partitioned one). It answers the decode / host-read / fan-out RPCs of
//! [`Frame`]: a whole per-shard query wave arrives
//! as *one* request frame and leaves as one reply frame, which is what
//! makes the front-end's batched fan-out a single wire round trip per
//! shard.
//!
//! Serving model, shared with the [`FrontEnd`](crate::frontend::FrontEnd)
//! through `Endpoint`:
//!
//! * **Bounded accept pool.** Beyond `WireConfig::max_conns` concurrent
//!   connections a listener refuses with a bare typed [`Frame::Error`]
//!   and closes instead of queueing unboundedly.
//! * **One reader per connection.** It greets with a bare
//!   [`Frame::Hello`], then reads envelopes only ([`Frame::Tagged`] /
//!   [`Frame::Batch`]); a bare frame after the greeting is answered with
//!   a typed [`Frame::Error`] and the connection is closed.
//! * **In-band or pooled.** Sequenced and stateful requests
//!   (`Frame::is_in_band`: replication appends, installs, status
//!   probes, subscriptions) are served on the reader, in arrival order.
//!   Every other request is read-only and is queued to the server's
//!   fixed serve pool of [`SERVE_WORKERS`] threads; the queue is bounded,
//!   so a full queue blocks the reader — that is the backpressure, and
//!   the server's thread count does not grow with the request rate.
//!   Replies leave through the connection's one shared writer, whole
//!   frame per `write`.
//!
//! Listeners always bind `127.0.0.1:0`; the kernel-chosen port travels
//! back through [`ShardServer::local_addr`], so nothing in tests or CI
//! ever races for a fixed port. Shutdown is graceful: the accept loop is
//! woken by a sentinel connection, every connection thread is joined,
//! then the serve pool drains and joins.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use netsim::packet::NodeId;
use obsplane::{Counter, Gauge, Histogram, MetricsRegistry, SpanEvent, TraceContext};
use queryplane::Snapshot;
use switchpointer::bitset::BitSet;
use switchpointer::query::StateView;
use switchpointer::shard::DirectoryShard;
use telemetry::frame::{read_frame, Dec, WireError, MAX_FRAME};
use telemetry::EpochRange;

use crate::proto::{Frame, PUSH_REQ_ID};

/// Per-frame wire metrics one serving loop records, resolved once at
/// spawn so the hot path never touches the registry's lock.
#[derive(Clone)]
pub(crate) struct WireLoopMetrics {
    pub(crate) frames_served: Arc<Counter>,
    pub(crate) decode_ns: Arc<Histogram>,
    pub(crate) serve_ns: Arc<Histogram>,
    pub(crate) encode_ns: Arc<Histogram>,
}

impl WireLoopMetrics {
    pub(crate) fn new(reg: &MetricsRegistry) -> Self {
        WireLoopMetrics {
            frames_served: reg.counter("wire.frames_served"),
            decode_ns: reg.histogram("wire.decode_ns"),
            serve_ns: reg.histogram("wire.serve_ns"),
            encode_ns: reg.histogram("wire.encode_ns"),
        }
    }
}

/// Transport tuning shared by servers, the front-end and clients.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Concurrent connections a listener serves before refusing with a
    /// typed error frame (the bounded accept pool).
    pub max_conns: usize,
    /// Largest frame either side accepts, in bytes.
    pub max_frame: u32,
    /// Worker threads in the front-end's shared execution pool: decoded
    /// query waves and window evaluations run there (work-stealing,
    /// chunked) instead of inline on connection threads.
    pub front_workers: usize,
    /// Head-sampling rate for causal traces minted at the front-end and
    /// by a replicated deployment's publisher: keep 1-in-N traces in the
    /// span rings (`0` disables tracing, `1` — the default — samples
    /// everything). Unsampled traces still propagate context so
    /// slow-query exemplars pin everywhere.
    pub trace_sample_rate: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_conns: 64,
            max_frame: MAX_FRAME,
            front_workers: 4,
            trace_sample_rate: 1,
        }
    }
}

/// Worker threads in every server's serve pool. At least 2, so one slow
/// request (a rigged [`ServeDelay`]) never holds up the rest.
pub const SERVE_WORKERS: usize = 4;

/// Read-only requests (or batches) queued per server before connection
/// readers block — the serve pool's bound.
const SERVE_QUEUE: usize = 64;

/// Replication metrics one serving loop records, resolved once at spawn.
#[derive(Clone)]
struct ReplMetrics {
    /// Replication-log records applied in-band.
    applied_total: Arc<Counter>,
    /// Snapshot bootstraps installed.
    installs: Arc<Counter>,
    /// The replica's applied sequence number, as a scrapeable gauge.
    applied_seq: Arc<Gauge>,
    /// Wall-clock to apply one record (clone + patch + swap).
    apply_ns: Arc<Histogram>,
}

impl ReplMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        ReplMetrics {
            applied_total: reg.counter("repl.applied"),
            installs: reg.counter("repl.installs"),
            applied_seq: reg.gauge("repl.applied_seq"),
            apply_ns: reg.histogram("repl.apply_ns"),
        }
    }
}

/// One shard's serving state: the directory slice plus the snapshot
/// slice it answers reads from. Swapped wholesale on refresh.
pub struct ShardState {
    /// The directory shard this instance owns.
    pub shard: DirectoryShard,
    /// Snapshot slice: owned hosts' stores + full pointer metadata (see
    /// [`Snapshot::shard_slice`]).
    pub view: Snapshot,
}

impl ShardState {
    /// This shard's masked slice of a pointer union — the decode RPC's
    /// answer. Masking happens server-side, so one slice reply carries
    /// only the bits this shard is responsible for decoding.
    fn union_slice(&self, switch: NodeId, range: EpochRange) -> Option<BitSet> {
        self.view
            .pointer_union(switch, range)
            .map(|u| self.shard.mask(&u))
    }

    /// Serves one decoded request frame. Returns the reply frame (an
    /// [`Frame::Error`] for requests this role does not answer).
    fn serve(&self, req: &Frame) -> Frame {
        match req {
            Frame::UnionSliceReq { switch, range } => {
                Frame::UnionSliceRep(self.union_slice(*switch, *range))
            }
            Frame::ProbeExactReq {
                switch,
                addr,
                epoch,
            } => Frame::ProbeExactRep(self.view.pointer_contains_exact(*switch, *addr, *epoch)),
            Frame::StoreLenReq { host } => {
                Frame::StoreLenRep(self.view.store_len(*host).map(|n| n as u64))
            }
            Frame::RecordReq { host, flow } => Frame::RecordRep(self.view.record(*host, *flow)),
            Frame::TriggerReq { host, flow } => {
                Frame::TriggerRep(self.view.first_trigger_for(*host, *flow))
            }
            Frame::StoreLenWaveReq { hosts } => Frame::StoreLenWaveRep(
                self.view
                    .store_len_wave(hosts)
                    .into_iter()
                    .map(|l| l.map(|n| n as u64))
                    .collect(),
            ),
            Frame::FilterWaveReq {
                switch,
                range,
                hosts,
            } => Frame::FilterWaveRep(
                self.view
                    .filter_wave(hosts, *switch, *range)
                    .into_iter()
                    .map(|(l, recs)| (l.map(|n| n as u64), recs))
                    .collect(),
            ),
            Frame::TopKWaveReq { switch, k, hosts } => Frame::TopKWaveRep(
                self.view
                    .top_k_wave(hosts, *switch, *k as usize)
                    .into_iter()
                    .map(|(l, flows)| (l.map(|n| n as u64), flows))
                    .collect(),
            ),
            Frame::SizesWaveReq { switch, hosts } => Frame::SizesWaveRep(
                self.view
                    .sizes_wave(hosts, *switch)
                    .into_iter()
                    .map(|(l, sizes)| (l.map(|n| n as u64), sizes))
                    .collect(),
            ),
            Frame::HorizonReq => Frame::HorizonRep(self.view.epoch_horizon()),
            other => Frame::Error(WireError::Remote(format!(
                "shard server cannot answer frame {:#04x}",
                other.tag()
            ))),
        }
    }
}

/// Listener mechanics (accept loop, bounded accept pool, graceful
/// shutdown) under every [`Endpoint`].
struct Listener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Clones of the live peer streams (keyed per connection, removed on
    /// connection exit): shutdown closes them so blocked connection
    /// threads wake from `read` and can be joined.
    streams: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>>,
}

impl Listener {
    /// Binds `127.0.0.1:0` (always an ephemeral port — the bound address
    /// is plumbed back through [`Listener::addr`]) and serves each
    /// accepted connection on its own thread via `handle(stream,
    /// conn_id)`, up to `max_conns` at once.
    fn spawn<F>(name: &str, max_conns: usize, handle: F) -> Result<Listener, WireError>
    where
        F: Fn(TcpStream, u64) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let streams: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>> =
            Arc::new(Mutex::new(std::collections::HashMap::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let streams = Arc::clone(&streams);
            let handle = Arc::new(handle);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    let mut next_conn = 0u64;
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        if active.load(Ordering::SeqCst) >= max_conns {
                            // Bounded accept pool: refuse with a typed
                            // error frame rather than queueing.
                            let mut s = stream;
                            let _ = Frame::Error(WireError::Remote(
                                "accept pool exhausted".to_string(),
                            ))
                            .write(&mut s);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let conn_id = next_conn;
                        next_conn += 1;
                        match stream.try_clone() {
                            Ok(clone) => {
                                streams.lock().unwrap().insert(conn_id, clone);
                            }
                            // Without a registered clone, shutdown could
                            // not wake this connection's blocked read and
                            // would hang joining it — refuse instead.
                            Err(_) => continue,
                        }
                        active.fetch_add(1, Ordering::SeqCst);
                        let handle = Arc::clone(&handle);
                        let active = Arc::clone(&active);
                        let streams = Arc::clone(&streams);
                        let jh = std::thread::Builder::new()
                            .name(format!("{name}-conn"))
                            .spawn(move || {
                                handle(stream, conn_id);
                                streams.lock().unwrap().remove(&conn_id);
                                active.fetch_sub(1, Ordering::SeqCst);
                            })
                            .expect("spawn connection thread");
                        let mut guard = conns.lock().unwrap();
                        // Reap finished threads so the vec stays bounded.
                        let mut kept = Vec::new();
                        for h in guard.drain(..) {
                            if h.is_finished() {
                                let _ = h.join();
                            } else {
                                kept.push(h);
                            }
                        }
                        *guard = kept;
                        guard.push(jh);
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(Listener {
            addr,
            shutdown,
            accept: Some(accept),
            conns,
            streams,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop with a sentinel
    /// connection, closes every live peer stream (so connection threads
    /// blocked in `read` wake up) and joins every connection thread.
    fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for (_, s) in self.streams.lock().unwrap().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in self.conns.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Test hook: an artificial per-request serve delay, keyed off the
/// request frame. The interleaving suite rigs this to force tagged
/// requests to complete out of order.
pub type ServeDelay = Arc<dyn Fn(&Frame) -> std::time::Duration + Send + Sync>;

/// Writes one whole frame through a shared per-connection writer in a
/// single `write_all`, so pool workers never interleave partial frames
/// on the socket.
///
/// Any failure — an unencodable reply (e.g. oversize) as much as a
/// broken pipe — shuts the socket down before reporting `false`. A pool
/// worker has no connection loop to `break` out of; if its reply were
/// silently dropped with the socket left healthy, the client's demux
/// would wait on that `req_id` forever. Killing the socket makes the
/// connection's read fail, the peer's reader poisons every in-flight
/// waiter, and the client fails over.
fn write_shared(writer: &Mutex<TcpStream>, frame: &Frame) -> bool {
    write_shared_observed(writer, frame, None)
}

/// [`write_shared`] with optional encode observation into
/// `wire.encode_ns` (scrape replies stay unobserved to keep scrapes
/// side-effect-free).
fn write_shared_observed(
    writer: &Mutex<TcpStream>,
    frame: &Frame,
    m: Option<&WireLoopMetrics>,
) -> bool {
    let encode_started = Instant::now();
    let ok = match frame.to_frame_bytes() {
        Ok(buf) => {
            if let Some(m) = m {
                m.encode_ns.record_duration(encode_started.elapsed());
            }
            let mut w = writer.lock().unwrap();
            w.write_all(&buf).is_ok() && w.flush().is_ok()
        }
        Err(_) => false,
    };
    if !ok {
        let _ = writer.lock().unwrap().shutdown(std::net::Shutdown::Both);
    }
    ok
}

/// One accepted connection's write side: replies from the reader and
/// the pool, and pushes from whoever holds it (a subscription watcher).
pub(crate) struct Conn {
    /// Per-listener connection id.
    pub(crate) id: u64,
    writer: Mutex<TcpStream>,
}

impl Conn {
    fn send(&self, frame: &Frame, m: Option<&WireLoopMetrics>) -> bool {
        write_shared_observed(&self.writer, frame, m)
    }

    /// Pushes one server-initiated frame under the reserved
    /// [`PUSH_REQ_ID`]. `false` means the peer is gone.
    pub(crate) fn push(&self, frame: Frame) -> bool {
        write_shared(
            &self.writer,
            &Frame::Tagged {
                req_id: PUSH_REQ_ID,
                ctx: None,
                inner: Box::new(frame),
            },
        )
    }
}

/// A server role's request handlers, plugged into the one connection
/// loop ([`Endpoint`]).
pub(crate) trait Service: Send + Sync + 'static {
    /// The bare greeting sent on accept.
    fn hello(&self) -> Frame;
    /// Serves one [`Frame::is_in_band`] request on the connection's
    /// reader, in arrival order. `conn` is the connection's writer, for
    /// requests that keep it (a subscription's pushes).
    fn serve_in_band(&self, req: &Frame, ctx: Option<TraceContext>, conn: &Arc<Conn>) -> Frame;
    /// Serves one read-only request, on a serve-pool worker.
    fn serve_read(self: &Arc<Self>, req: &Frame, ctx: Option<TraceContext>) -> Frame;
    /// The per-frame wire metrics this role records, if any.
    fn loop_metrics(&self) -> Option<&WireLoopMetrics> {
        None
    }
    /// Connection `conn_id` closed.
    fn closed(&self, _conn_id: u64) {}
}

type Job = Box<dyn FnOnce() + Send>;

/// A server's fixed pool of [`SERVE_WORKERS`] threads behind a bounded
/// job queue.
struct ServePool {
    jobs: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServePool {
    fn spawn(name: &str) -> Result<ServePool, WireError> {
        let (tx, rx) = sync_channel::<Job>(SERVE_QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..SERVE_WORKERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-serve"))
                    .spawn(move || loop {
                        let job = rx.lock().unwrap().recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(ServePool {
            jobs: Some(tx),
            workers,
        })
    }

    /// Closes the queue (once every reader is gone) and joins the
    /// workers after they drain it.
    fn shutdown(&mut self) {
        self.jobs.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running server: a [`Listener`] whose connections all run
/// [`serve_connection`] for one [`Service`], over one [`ServePool`].
pub(crate) struct Endpoint {
    listener: Listener,
    pool: ServePool,
}

impl Endpoint {
    pub(crate) fn spawn<S: Service>(
        name: &str,
        cfg: &WireConfig,
        service: Arc<S>,
    ) -> Result<Endpoint, WireError> {
        let pool = ServePool::spawn(name)?;
        let jobs = pool.jobs.clone().expect("a fresh pool is open");
        let max_frame = cfg.max_frame;
        let listener = Listener::spawn(name, cfg.max_conns, move |stream, conn_id| {
            serve_connection(stream, conn_id, &service, &jobs, max_frame);
        })?;
        Ok(Endpoint { listener, pool })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stops accepting, joins every connection reader, then drains and
    /// joins the serve pool.
    pub(crate) fn shutdown(&mut self) {
        self.listener.shutdown();
        self.pool.shutdown();
    }
}

/// The reply envelope for `replies`: a `BatchRep` for a batch, the lone
/// reply re-tagged otherwise.
fn envelope(mut replies: Vec<(u32, Frame)>, batched: bool) -> Frame {
    if batched {
        return Frame::BatchRep(replies);
    }
    let (req_id, inner) = replies.pop().expect("a Tagged request has one entry");
    Frame::Tagged {
        req_id,
        ctx: None,
        inner: Box::new(inner),
    }
}

/// Serves one read-only request. A handler that panics (the front-end's
/// executor does when a shard stays unreachable past its retry budget)
/// answers with a typed error instead of losing the reply, so the caller
/// never waits forever.
fn serve_read_caught<S: Service>(
    service: &Arc<S>,
    req: &Frame,
    ctx: Option<TraceContext>,
) -> Frame {
    catch_unwind(AssertUnwindSafe(|| service.serve_read(req, ctx))).unwrap_or_else(|_| {
        Frame::Error(WireError::Remote(format!(
            "serving {} failed (a peer unreachable?)",
            req.kind_name()
        )))
    })
}

/// The one connection loop: greet, then read an envelope, decode it and
/// dispatch it — in-band on this thread when any entry is sequenced or
/// stateful, otherwise as one job on the serve pool — until the peer
/// goes away or breaks the protocol.
fn serve_connection<S: Service>(
    mut stream: TcpStream,
    conn_id: u64,
    service: &Arc<S>,
    jobs: &SyncSender<Job>,
    max_frame: u32,
) {
    // Greet with role + shard id so the dialer can verify it reached
    // the peer it meant to.
    if service.hello().write(&mut stream).is_err() {
        return;
    }
    let conn = match stream.try_clone() {
        Ok(s) => Arc::new(Conn {
            id: conn_id,
            writer: Mutex::new(s),
        }),
        Err(_) => return,
    };
    loop {
        let (tag, payload) = match read_frame(&mut stream, max_frame) {
            Ok(fr) => fr,
            Err(WireError::Io { .. }) => break, // peer gone
            Err(e) => {
                // Framing is lost: report the typed error and drop the
                // connection (the client reconnects).
                conn.send(&Frame::Error(e), None);
                break;
            }
        };
        let decode_started = Instant::now();
        let (entries, batched) = match Frame::decode(tag, &payload) {
            Ok(Frame::Tagged { req_id, ctx, inner }) => (vec![(req_id, ctx, *inner)], false),
            Ok(Frame::Batch(entries)) => (entries, true),
            Ok(other) => {
                conn.send(
                    &Frame::Error(WireError::Remote(format!(
                        "expected an envelope after the greeting, got bare frame {:#04x}",
                        other.tag()
                    ))),
                    None,
                );
                break;
            }
            Err(e) => {
                conn.send(&Frame::Error(e), None);
                break;
            }
        };
        // Scrapes stay side-effect-free: not even their decode or encode
        // is recorded.
        let observed = entries.iter().any(|(_, _, f)| !f.is_scrape());
        let m = service.loop_metrics().filter(|_| observed);
        if let Some(m) = m {
            m.decode_ns.record_duration(decode_started.elapsed());
        }
        if entries.iter().any(|(_, _, f)| f.is_in_band()) {
            // Sequenced or stateful: served here, in arrival order, or a
            // reordering would break the replication log (SeqGap) and
            // subscription cursors. Reads batched alongside ride along.
            let replies = entries
                .into_iter()
                .map(|(id, ctx, f)| {
                    let reply = if f.is_in_band() {
                        service.serve_in_band(&f, ctx, &conn)
                    } else {
                        serve_read_caught(service, &f, ctx)
                    };
                    (id, reply)
                })
                .collect();
            if !conn.send(&envelope(replies, batched), m) {
                break;
            }
            continue;
        }
        let (service, conn) = (Arc::clone(service), Arc::clone(&conn));
        let job: Job = Box::new(move || {
            let replies = entries
                .into_iter()
                .map(|(id, ctx, f)| (id, serve_read_caught(&service, &f, ctx)))
                .collect();
            let m = service.loop_metrics().filter(|_| observed);
            conn.send(&envelope(replies, batched), m);
        });
        // A full queue blocks this reader until a worker frees a slot:
        // the backpressure.
        if jobs.send(job).is_err() {
            break;
        }
    }
    service.closed(conn_id);
}

/// The shard server's [`Service`]: reads against the current state,
/// replication applied in-band.
struct ShardService {
    shard: usize,
    n_shards: usize,
    state: RwLock<Arc<ShardState>>,
    /// Replication-log position: the seq of the last applied record.
    applied: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    wire_m: WireLoopMetrics,
    repl_m: ReplMetrics,
    scrape_label: String,
    /// Test hook: artificial per-request serve delay (see [`ServeDelay`]).
    delay: RwLock<Option<ServeDelay>>,
}

impl ShardService {
    /// Applies one sequenced record. The log contract: records apply
    /// exactly in sequence; anything else is a typed gap the owner
    /// resolves by replaying the missing suffix or re-bootstrapping.
    fn append(
        &self,
        seq: u64,
        record: &queryplane::DeltaRecord,
        ctx: Option<TraceContext>,
    ) -> Frame {
        let expected = self.applied.load(Ordering::SeqCst) + 1;
        if seq != expected {
            return Frame::Error(WireError::SeqGap { expected, got: seq });
        }
        let started = Instant::now();
        let mut guard = self.state.write().unwrap();
        let cur = Arc::clone(&guard);
        let mut view = cur.view.clone();
        if let Err(e) = view.apply_record(record) {
            return Frame::Error(e);
        }
        *guard = Arc::new(ShardState {
            shard: cur.shard.clone(),
            view,
        });
        self.applied.store(seq, Ordering::SeqCst);
        let m = &self.repl_m;
        m.applied_total.inc();
        m.applied_seq.set(seq as i64);
        m.apply_ns.record_duration(started.elapsed());
        // The apply joins the publisher's trace (the envelope's
        // context): the replica-side evidence when a slow query
        // overlapped a replication burst.
        if let Some(c) = ctx {
            let tracer = self.metrics.tracer();
            tracer.submit(
                SpanEvent {
                    class: "DeltaAppend",
                    stage: "apply",
                    epoch: seq,
                    shard: self.shard as u32,
                    start_ns: tracer.offset_ns(started),
                    dur_ns: started.elapsed().as_nanos() as u64,
                    trace_id: c.trace_id,
                    span_id: tracer.next_span_id(),
                    parent_id: c.span_id,
                    steals: 0,
                },
                c.sampled,
            );
        }
        Frame::DeltaAck {
            shard: self.shard as u16,
            applied: seq,
        }
    }

    /// Installs a full snapshot slice at `seq`, unconditionally: a fresh
    /// or fallen-behind replica rejoins the log here.
    fn install(&self, seq: u64, view: &[u8]) -> Frame {
        let mut guard = self.state.write().unwrap();
        let cur = Arc::clone(&guard);
        // The snapshot bytes need the deployment's shared MPHF to decode;
        // the replica re-attaches its own copy, so the installed
        // hierarchies compare `Arc::ptr_eq`-equal to locally captured
        // ones.
        let decoded = match cur.view.mphf() {
            Some(mphf) => {
                let mut d = Dec::new(view);
                Snapshot::wire_dec(&mut d, mphf).and_then(|s| d.finish().map(|_| s))
            }
            None => Err(WireError::Remote(
                "replica holds no MPHF to decode a snapshot".to_string(),
            )),
        };
        match decoded {
            Ok(new_view) => {
                *guard = Arc::new(ShardState {
                    shard: cur.shard.clone(),
                    view: new_view,
                });
                self.applied.store(seq, Ordering::SeqCst);
                self.repl_m.installs.inc();
                self.repl_m.applied_seq.set(seq as i64);
                Frame::DeltaAck {
                    shard: self.shard as u16,
                    applied: seq,
                }
            }
            Err(e) => Frame::Error(e),
        }
    }
}

impl Service for ShardService {
    fn hello(&self) -> Frame {
        Frame::Hello {
            shard: self.shard as u16,
            n_shards: self.n_shards as u16,
        }
    }

    /// Replication — the one write path.
    fn serve_in_band(&self, req: &Frame, ctx: Option<TraceContext>, _conn: &Arc<Conn>) -> Frame {
        let misrouted = |what: &str, shard: u16| {
            Frame::Error(WireError::Remote(format!(
                "{what} for shard {shard} sent to shard {}",
                self.shard
            )))
        };
        match req {
            Frame::DeltaAppend { shard, .. } if *shard as usize != self.shard => {
                misrouted("delta", *shard)
            }
            Frame::DeltaAppend { seq, record, .. } => self.append(*seq, record, ctx),
            Frame::SnapshotInstall { shard, .. } if *shard as usize != self.shard => {
                misrouted("snapshot", *shard)
            }
            Frame::SnapshotInstall { seq, view, .. } => self.install(*seq, view),
            Frame::ReplicaStatusReq => Frame::ReplicaStatusRep {
                shard: self.shard as u16,
                applied: self.applied.load(Ordering::SeqCst),
            },
            other => self.state.read().unwrap().serve(other),
        }
    }

    /// Serves one read-only request (scrape or shard read). When the
    /// envelope carried a [`TraceContext`], the whole serve — *including*
    /// any rigged [`ServeDelay`] — records as a serve-stage span in the
    /// request's trace; the `wire.serve_ns` histogram stays
    /// delay-exclusive.
    fn serve_read(self: &Arc<Self>, req: &Frame, ctx: Option<TraceContext>) -> Frame {
        let span_started = Instant::now();
        if let Some(d) = self.delay.read().unwrap().as_ref() {
            std::thread::sleep(d(req));
        }
        // Scrapes are side-effect-free: snapshot-based, excluded from
        // the wire histograms, and they never record spans of their own,
        // so repeated scrapes of a quiesced server are identical.
        if matches!(req, Frame::StatsScrapeReq) {
            return Frame::StatsScrapeRep(vec![(
                self.scrape_label.clone(),
                self.metrics.snapshot(),
            )]);
        }
        if matches!(req, Frame::TraceScrapeReq) {
            return Frame::TraceScrapeRep(vec![(
                self.scrape_label.clone(),
                crate::traces::dump_spans(self.metrics.tracer()),
            )]);
        }
        let serve_started = Instant::now();
        let reply = {
            let state = self.state.read().unwrap().clone();
            state.serve(req)
        };
        self.wire_m
            .serve_ns
            .record_duration(serve_started.elapsed());
        self.wire_m.frames_served.inc();
        if let Some(c) = ctx {
            let tracer = self.metrics.tracer();
            tracer.submit(
                SpanEvent {
                    class: req.kind_name(),
                    stage: "serve",
                    epoch: 0,
                    shard: self.shard as u32,
                    start_ns: tracer.offset_ns(span_started),
                    dur_ns: span_started.elapsed().as_nanos() as u64,
                    trace_id: c.trace_id,
                    span_id: tracer.next_span_id(),
                    parent_id: c.span_id,
                    steals: 0,
                },
                c.sampled,
            );
        }
        reply
    }

    fn loop_metrics(&self) -> Option<&WireLoopMetrics> {
        Some(&self.wire_m)
    }
}

/// A running shard server.
pub struct ShardServer {
    endpoint: Endpoint,
    service: Arc<ShardService>,
}

impl ShardServer {
    /// Binds `127.0.0.1:0` and starts serving `state`. The ephemeral
    /// bound address comes back via [`ShardServer::local_addr`].
    pub fn spawn(state: ShardState, n_shards: usize, cfg: WireConfig) -> Result<Self, WireError> {
        let shard = state.shard.id();
        let metrics = Arc::new(MetricsRegistry::new());
        // Perturb the span-id seed per shard (deterministically) so ids
        // minted by different processes of one cluster never collide in
        // a reassembled trace tree.
        metrics
            .tracer()
            .set_id_seed((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let service = Arc::new(ShardService {
            shard,
            n_shards,
            state: RwLock::new(Arc::new(state)),
            applied: AtomicU64::new(0),
            wire_m: WireLoopMetrics::new(&metrics),
            repl_m: ReplMetrics::new(&metrics),
            metrics,
            scrape_label: format!("shard{shard}"),
            delay: RwLock::new(None),
        });
        let endpoint = Endpoint::spawn(
            &format!("wireplane-shard{shard}"),
            &cfg,
            Arc::clone(&service),
        )?;
        Ok(ShardServer { endpoint, service })
    }

    /// Installs (or clears, with `None`) an artificial per-request serve
    /// delay on read-only requests. Test hook: the interleaving suite
    /// rigs request-dependent delays so tagged replies provably complete
    /// out of order.
    pub fn set_serve_delay(&self, delay: Option<ServeDelay>) {
        *self.service.delay.write().unwrap() = delay;
    }

    /// The shard this server owns.
    pub fn shard(&self) -> usize {
        self.service.shard
    }

    /// This server's obsplane registry (`wire.*` frame metrics). The
    /// scrape RPC serves snapshots of exactly this registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.service.metrics
    }

    /// The bound loopback address (ephemeral port chosen by the kernel).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.addr()
    }

    /// The replica's replication-log position: seq of the last applied
    /// [`Frame::DeltaAppend`] (or [`Frame::SnapshotInstall`] bootstrap).
    pub fn applied_seq(&self) -> u64 {
        self.service.applied.load(Ordering::SeqCst)
    }

    /// The state currently being served, as the connection loop sees it.
    /// Divergence tests compare a primary's and standby's views through
    /// this — both must be bit-identical at every applied seq.
    pub fn state(&self) -> Arc<ShardState> {
        Arc::clone(&self.service.state.read().unwrap())
    }

    /// Graceful shutdown: stop accepting, join every connection thread,
    /// then the serve pool.
    pub fn shutdown(mut self) {
        self.endpoint.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    /// A reply that cannot be encoded (or written) must kill the socket,
    /// not leave it healthy with the reply silently dropped — otherwise a
    /// client demuxing by req_id would wait on the missing reply forever.
    /// The peer here sees EOF instead of an indefinite hang.
    #[test]
    fn write_shared_failure_shuts_the_socket_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let writer = Mutex::new(server_side);

        // An encodable frame goes through and reports success.
        assert!(write_shared(&writer, &Frame::HorizonRep(7)));

        // A payload over MAX_FRAME fails to encode: write_shared must
        // report failure AND shut the stream down.
        let oversize = Frame::SnapshotInstall {
            shard: 0,
            seq: 1,
            view: vec![0u8; MAX_FRAME as usize],
        };
        assert!(!write_shared(&writer, &oversize));

        // Drain the good frame, then expect EOF — not a hang, and not
        // more data.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let good = Frame::HorizonRep(7).to_frame_bytes().unwrap();
        let mut got = vec![0u8; good.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, good);
        let mut rest = Vec::new();
        assert_eq!(peer.read_to_end(&mut rest).unwrap(), 0, "expected EOF");
    }
}
