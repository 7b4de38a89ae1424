//! The one client transport: every connection to a wireplane server is a
//! [`MuxConn`] — one socket, many concurrent exchanges.
//!
//! * Every request is stamped with a `req_id u32` and travels as
//!   [`Frame::Tagged`] (or packed with its contemporaries into one
//!   [`Frame::Batch`]). After the server's bare `Hello` greeting, nothing
//!   but envelopes crosses the socket in either direction.
//! * A single **demux reader thread** per connection parses replies and
//!   completes whichever waiter the `req_id` names, so replies may
//!   arrive in any order. Server pushes (`IncidentPush`, `WindowPush`)
//!   arrive as `Tagged` under the reserved [`PUSH_REQ_ID`], which no
//!   request is ever given; the reader queues them for
//!   `MuxConn::next_push`.
//! * Writers **combine**: a caller enqueues its request and then drains
//!   the whole pending queue under the writer lock. While one flush's
//!   `write` syscall is in flight, every other caller's request piles
//!   into the queue, and the next flush sends them all as *one*
//!   `Batch` frame — one frame per shard per scheduling turn emerges
//!   from contention itself, with no timers and no explicit wave
//!   barrier.
//!
//! Encoding reuses one scratch buffer per connection
//! ([`Frame::encode_into`]), so a steady-state sender allocates only
//! for payload bodies. Replication frames, scrapes, query waves and the
//! client plane all share this one transport: the server answers
//! read-only requests out of order on its serve pool but keeps
//! sequenced and stateful requests in-band, so the `SeqGap` protocol's
//! ordering survives multiplexing.
//!
//! Failure model: any transport error **poisons** the connection — the
//! reader marks it dead with a peer-tagged [`WireError`] and wakes every
//! waiter; replies and pushes that arrived before death still deliver.
//! `Link` wraps a connection in the retry policy both reconnecting
//! owners share: the front-end's per-shard
//! [`RemoteShard`](crate::frontend::RemoteShard) (a replica set with
//! failover rotation) and the owner's
//! [`ReplicaWriter`](crate::repl::ReplicaWriter) (one address).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use obsplane::{Histogram, TraceContext};
use telemetry::frame::WireError;

use crate::proto::{Frame, PUSH_REQ_ID};
use crate::retry::RetryPolicy;

/// Reply slots, pushes and the death flag, shared with the demux reader.
struct Shared {
    peer: SocketAddr,
    slots: Mutex<SlotState>,
    cond: Condvar,
}

struct SlotState {
    /// `req_id` → reply slot. A request registers `None` before it is
    /// written; the reader fills it and wakes the condvar.
    waiting: HashMap<u32, Option<Result<Frame, WireError>>>,
    /// Server pushes in arrival order, until [`MuxConn::next_push`]
    /// takes them.
    pushes: VecDeque<Frame>,
    /// Set once on the first transport failure; every waiter whose slot
    /// is still empty observes it and fails with the same cause.
    dead: Option<WireError>,
}

impl Shared {
    fn complete(&self, id: u32, reply: Frame) {
        let mut st = self.slots.lock().unwrap();
        if id == PUSH_REQ_ID {
            st.pushes.push_back(reply);
            self.cond.notify_all();
        } else if let Some(slot) = st.waiting.get_mut(&id) {
            // An unknown id means the waiter gave up; drop the reply.
            *slot = Some(Ok(reply));
            self.cond.notify_all();
        }
    }

    fn poison(&self, err: WireError) {
        let mut st = self.slots.lock().unwrap();
        if st.dead.is_none() {
            st.dead = Some(err);
        }
        self.cond.notify_all();
    }
}

/// The write half: the stream plus the reused encode scratch buffer.
struct Writer {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// One multiplexed connection to a wireplane server.
pub struct MuxConn {
    shared: Arc<Shared>,
    writer: Mutex<Writer>,
    /// Requests enqueued but not yet flushed (with each caller's trace
    /// context). Drained wholesale under the writer lock — the
    /// combining step.
    pending: Mutex<VecDeque<(u32, Option<TraceContext>, Frame)>>,
    next_id: AtomicU32,
    /// Envelope frames actually written (one `Batch` counts once).
    frames_sent: AtomicU64,
    /// Envelope bytes actually written, length prefixes included.
    bytes_sent: AtomicU64,
    /// A clone of the socket kept aside so `kill`/`Drop` can force the
    /// reader thread out of its blocked `read`.
    sock: TcpStream,
    max_frame: u32,
}

impl MuxConn {
    /// Dials `addr`, consumes the server's greeting and starts the demux
    /// reader. Returns the connection plus the greeting's
    /// `(shard, n_shards)` so the caller can verify it reached the right
    /// role.
    pub fn connect(
        addr: SocketAddr,
        max_frame: u32,
    ) -> Result<(Arc<MuxConn>, u16, u16), WireError> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| WireError::from(e).with_peer(addr))?;
        stream.set_nodelay(true).ok();
        let (shard, n_shards) =
            match Frame::read(&mut stream, max_frame).map_err(|e| e.with_peer(addr))? {
                Frame::Hello { shard, n_shards } => (shard, n_shards),
                Frame::Error(e) => return Err(e),
                other => {
                    return Err(WireError::Remote(format!(
                        "expected greeting from {addr}, got frame {:#04x}",
                        other.tag()
                    )))
                }
            };
        let sock = stream
            .try_clone()
            .map_err(|e| WireError::from(e).with_peer(addr))?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| WireError::from(e).with_peer(addr))?;
        let shared = Arc::new(Shared {
            peer: addr,
            slots: Mutex::new(SlotState {
                waiting: HashMap::new(),
                pushes: VecDeque::new(),
                dead: None,
            }),
            cond: Condvar::new(),
        });
        let conn = Arc::new(MuxConn {
            shared: Arc::clone(&shared),
            writer: Mutex::new(Writer {
                stream,
                scratch: Vec::with_capacity(4096),
            }),
            pending: Mutex::new(VecDeque::new()),
            next_id: AtomicU32::new(0),
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            sock,
            max_frame,
        });
        // The reader holds only `Shared`, not the MuxConn — dropping the
        // connection shuts the socket, which pops the reader out of
        // `read` and lets the thread exit.
        std::thread::Builder::new()
            .name(format!("wireplane-mux-{addr}"))
            .spawn(move || Self::reader_loop(reader_stream, shared, max_frame))
            .map_err(|e| WireError::from(e).with_peer(addr))?;
        Ok((conn, shard, n_shards))
    }

    /// The peer this connection points at.
    pub fn peer(&self) -> SocketAddr {
        self.shared.peer
    }

    /// Envelope frames written so far (a whole `Batch` counts once).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Envelope bytes written so far, length prefixes included.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// One request/reply exchange, concurrency-safe: any number of
    /// threads may call this at once and their exchanges interleave on
    /// the shared socket. Returns the enveloped reply as-is — a server's
    /// [`Frame::Error`] answer comes back as `Ok(Frame::Error(..))` for
    /// the caller to map.
    pub fn call(&self, req: &Frame) -> Result<Frame, WireError> {
        self.call_ctx(req, None)
    }

    /// [`MuxConn::call`] with an explicit trace context: the envelope
    /// entry carries `ctx` to the server, so its serve-stage span joins
    /// the caller's trace.
    pub fn call_ctx(&self, req: &Frame, ctx: Option<TraceContext>) -> Result<Frame, WireError> {
        // The push id is never handed to a request.
        let mut id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if id == PUSH_REQ_ID {
            id = self.next_id.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut st = self.shared.slots.lock().unwrap();
            if let Some(e) = &st.dead {
                return Err(e.clone());
            }
            st.waiting.insert(id, None);
        }
        self.pending
            .lock()
            .unwrap()
            .push_back((id, ctx, req.clone()));
        // A flush failure poisons the connection, which `wait_reply`
        // observes — no separate error path needed here.
        let _ = self.flush_pending();
        self.wait_reply(id)
    }

    /// Blocks for the next server push, in arrival order. Pushes that
    /// arrived before the connection died still deliver; after them the
    /// death cause is returned.
    pub(crate) fn next_push(&self) -> Result<Frame, WireError> {
        let mut st = self.shared.slots.lock().unwrap();
        loop {
            if let Some(f) = st.pushes.pop_front() {
                return Ok(f);
            }
            if let Some(e) = &st.dead {
                return Err(e.clone());
            }
            st = self.shared.cond.wait(st).unwrap();
        }
    }

    /// Drains the pending queue into envelope frames under the writer
    /// lock. The thread that wins the lock sends *everything* queued so
    /// far — including requests enqueued by threads still blocked on the
    /// lock behind it — so concurrent callers combine into `Batch`
    /// frames without any explicit coordination.
    fn flush_pending(&self) -> Result<(), WireError> {
        let mut w = self.writer.lock().unwrap();
        loop {
            let batch: Vec<(u32, Option<TraceContext>, Frame)> = {
                let mut p = self.pending.lock().unwrap();
                if p.is_empty() {
                    return Ok(());
                }
                p.drain(..).collect()
            };
            let frame = if batch.len() == 1 {
                let (req_id, ctx, inner) = batch.into_iter().next().expect("len checked");
                Frame::Tagged {
                    req_id,
                    ctx,
                    inner: Box::new(inner),
                }
            } else {
                Frame::Batch(batch)
            };
            let Writer { stream, scratch } = &mut *w;
            let sent = frame
                .encode_into(scratch)
                .and_then(|()| {
                    stream.write_all(scratch)?;
                    stream.flush()?;
                    Ok(scratch.len() as u64)
                })
                .map_err(|e| e.with_peer(self.shared.peer));
            match sent {
                Ok(n) => {
                    self.frames_sent.fetch_add(1, Ordering::Relaxed);
                    self.bytes_sent.fetch_add(n, Ordering::Relaxed);
                }
                Err(e) => {
                    self.shared.poison(e.clone());
                    return Err(e);
                }
            }
        }
    }

    fn wait_reply(&self, id: u32) -> Result<Frame, WireError> {
        let mut st = self.shared.slots.lock().unwrap();
        loop {
            if st.waiting.get(&id).is_some_and(|slot| slot.is_some()) {
                return st
                    .waiting
                    .remove(&id)
                    .expect("checked present")
                    .expect("checked filled");
            }
            // Replies completed before death still deliver (checked
            // above); only still-empty slots fail.
            if let Some(e) = &st.dead {
                let e = e.clone();
                st.waiting.remove(&id);
                return Err(e);
            }
            st = self.shared.cond.wait(st).unwrap();
        }
    }

    /// Demultiplexes replies and pushes until the stream dies,
    /// completing waiters by `req_id`. Decode of one reply overlaps the
    /// server's work on the others and the writer's next flush — the
    /// pipelining leg.
    fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>, max_frame: u32) {
        loop {
            match Frame::read(&mut stream, max_frame) {
                Ok(Frame::Tagged { req_id, inner, .. }) => shared.complete(req_id, *inner),
                Ok(Frame::BatchRep(entries)) => {
                    for (id, f) in entries {
                        shared.complete(id, f);
                    }
                }
                // A bare error is the server dropping the connection
                // (lost framing, a non-envelope request); everything in
                // flight is lost.
                Ok(Frame::Error(e)) => {
                    shared.poison(e);
                    break;
                }
                Ok(other) => {
                    shared.poison(WireError::Remote(format!(
                        "unexpected bare frame {:#04x} on the connection to {}",
                        other.tag(),
                        shared.peer
                    )));
                    break;
                }
                Err(e) => {
                    shared.poison(e.with_peer(shared.peer));
                    break;
                }
            }
        }
    }

    /// Whether a transport failure has poisoned this connection.
    pub fn is_dead(&self) -> bool {
        self.shared.slots.lock().unwrap().dead.is_some()
    }

    /// Test hook and failover lever: force-close the socket. The reader
    /// poisons the connection and every in-flight exchange fails with a
    /// peer-tagged error; the owner redials.
    pub fn kill(&self) {
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
    }

    /// Largest frame this connection accepts.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Pop the detached reader thread out of its blocked read.
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
    }
}

/// A reconnecting link to one shard: its replica addresses (primary
/// first), a lazily re-dialed [`MuxConn`] to the active one, and the
/// retry policy every exchange runs under. One address is the plain
/// reconnecting case; more make failover: when the active replica
/// exhausts its retry budget the link rotates to the next address
/// mid-exchange.
pub(crate) struct Link {
    /// The shard id every replica must greet with.
    shard: usize,
    addrs: Vec<SocketAddr>,
    /// Index of the replica the live connection points at; only moves
    /// forward (mod `addrs.len()`) when a replica exhausts its budget.
    active: AtomicUsize,
    conn: Mutex<Option<Arc<MuxConn>>>,
    /// Envelope frames/bytes written by connections already retired
    /// (dead and replaced); totals = these + the live connection's.
    retired_frames: AtomicU64,
    retired_bytes: AtomicU64,
    max_frame: u32,
    retry: RetryPolicy,
    reconnects: AtomicU64,
    failovers: AtomicU64,
    /// First-failure → first-success-on-another-replica wall-clock
    /// (`wire.failover_ns`), when observed.
    failover_ns: Option<Arc<Histogram>>,
}

impl Link {
    /// Walks `addrs` until one replica greets as `shard` and remembers it
    /// as active. Dead standbys are tolerated until rotation reaches
    /// them.
    pub(crate) fn connect(
        shard: usize,
        addrs: Vec<SocketAddr>,
        max_frame: u32,
        retry: RetryPolicy,
        failover_ns: Option<Arc<Histogram>>,
    ) -> Result<Link, WireError> {
        assert!(!addrs.is_empty(), "a shard needs at least one replica");
        let link = Link {
            shard,
            addrs,
            active: AtomicUsize::new(0),
            conn: Mutex::new(None),
            retired_frames: AtomicU64::new(0),
            retired_bytes: AtomicU64::new(0),
            max_frame,
            retry,
            reconnects: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            failover_ns,
        };
        let mut last_err = None;
        for (i, &addr) in link.addrs.iter().enumerate() {
            match link.dial(addr) {
                Ok(mux) => {
                    link.active.store(i, Ordering::Relaxed);
                    *link.conn.lock().unwrap() = Some(mux);
                    return Ok(link);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("non-empty replica set"))
    }

    fn dial(&self, addr: SocketAddr) -> Result<Arc<MuxConn>, WireError> {
        let (mux, shard, _n_shards) = MuxConn::connect(addr, self.max_frame)?;
        if shard as usize != self.shard {
            return Err(WireError::Remote(format!(
                "dialed shard {} at {addr} but shard {shard} answered",
                self.shard
            )));
        }
        Ok(mux)
    }

    /// The replica the live connection currently points at.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// The active replica's address.
    pub(crate) fn active_addr(&self) -> SocketAddr {
        self.addrs[self.active()]
    }

    /// Drops `mux` from the slot if it is still the live connection,
    /// folding its send counters into the retired totals. The `ptr_eq`
    /// guard makes concurrent retirements idempotent: only the caller
    /// that actually removes the connection absorbs its counters.
    fn retire(&self, mux: &Arc<MuxConn>) {
        let mut guard = self.conn.lock().unwrap();
        if guard.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, mux)) {
            self.retired_frames
                .fetch_add(mux.frames_sent(), Ordering::Relaxed);
            self.retired_bytes
                .fetch_add(mux.bytes_sent(), Ordering::Relaxed);
            *guard = None;
        }
    }

    /// Counts one failed attempt: rotates to the next replica when the
    /// active one exhausted its attempts (returning whether it did), and
    /// sleeps the policy's backoff.
    fn back_off(&self, failures: usize) -> bool {
        let n = self.addrs.len();
        let rotated = n > 1 && failures.is_multiple_of(self.retry.attempts());
        if rotated {
            let idx = self.active();
            self.active.store((idx + 1) % n, Ordering::Relaxed);
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(self.retry.backoff(failures as u32 - 1));
        rotated
    }

    /// One request/reply exchange. A transport failure drops the
    /// connection and retries over fresh dials under the retry policy,
    /// rotating to the next replica when the active one exhausts its
    /// budget. A typed [`Frame::Error`] answer (a `SeqGap` refusal in
    /// particular) is a protocol answer, not a transport fault, and
    /// returns at once. Returns the reply and the instant the exchange
    /// that produced it was sent.
    pub(crate) fn call(
        &self,
        req: &Frame,
        ctx: Option<TraceContext>,
    ) -> Result<(Frame, Instant), WireError> {
        let budget = self.retry.attempts() * self.addrs.len();
        let mut failures = 0usize;
        let mut first_failure: Option<Instant> = None;
        let mut failed_over = false;
        loop {
            // Short-lock acquisition: take (or dial) the shared mux under
            // the slot lock, then exchange *outside* it — concurrent
            // callers multiplex on the socket instead of queueing on the
            // mutex.
            let dialed = {
                let mut guard = self.conn.lock().unwrap();
                match guard.as_ref() {
                    Some(m) => Ok(Arc::clone(m)),
                    None => self.dial(self.active_addr()).inspect(|m| {
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                        *guard = Some(Arc::clone(m));
                    }),
                }
            };
            let err = match dialed {
                Ok(mux) => {
                    let started = Instant::now();
                    match mux.call_ctx(req, ctx) {
                        Ok(Frame::Error(e)) => return Err(e),
                        Ok(reply) => {
                            if failed_over {
                                if let (Some(h), Some(t0)) = (&self.failover_ns, first_failure) {
                                    h.record_duration(t0.elapsed());
                                }
                            }
                            return Ok((reply, started));
                        }
                        // The connection died (killed replica, injected
                        // failure): retire it and go around again. The
                        // mux poisons itself with a peer-tagged error, so
                        // `e` already names the replica that failed.
                        Err(e @ WireError::Io { .. }) => {
                            self.retire(&mux);
                            e
                        }
                        Err(e) => {
                            self.retire(&mux);
                            return Err(e);
                        }
                    }
                }
                Err(e) => e,
            };
            failures += 1;
            first_failure.get_or_insert_with(Instant::now);
            if failures >= budget {
                return Err(err.with_peer(self.active_addr()));
            }
            failed_over |= self.back_off(failures);
        }
    }

    /// Reconnects performed (failure-injection visibility).
    pub(crate) fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Replica rotations performed (0 until a replica actually died).
    pub(crate) fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Envelope frames written so far, retired connections included.
    /// Reads retired + live under the slot lock — absorption also
    /// happens under it, so the total is monotone.
    pub(crate) fn frames_sent(&self) -> u64 {
        let guard = self.conn.lock().unwrap();
        let live = guard.as_ref().map_or(0, |m| m.frames_sent());
        self.retired_frames.load(Ordering::Relaxed) + live
    }

    /// Envelope bytes written so far, retired connections included.
    pub(crate) fn bytes_sent(&self) -> u64 {
        let guard = self.conn.lock().unwrap();
        let live = guard.as_ref().map_or(0, |m| m.bytes_sent());
        self.retired_bytes.load(Ordering::Relaxed) + live
    }

    /// Force-closes the live connection so every in-flight exchange on it
    /// fails over and the next call must re-establish it.
    pub(crate) fn kill(&self) {
        let taken = self.conn.lock().unwrap().clone();
        if let Some(m) = taken {
            self.retire(&m);
            m.kill();
        }
    }
}
