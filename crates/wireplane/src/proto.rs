//! The wireplane protocol: every message the shard servers, the
//! front-end and remote clients exchange, as length-prefix-framed binary
//! over [`telemetry::frame`].
//!
//! Design rules:
//!
//! * **One codec.** Scalars are fixed-width little-endian with no
//!   padding; the six hot wave frames (`StoreLenWaveReq/Rep`,
//!   `FilterWaveReq`, `TopKWaveReq`, `SizesWaveReq`, `UnionSliceRep`)
//!   use compact forms — var-int lengths, delta-packed host ids and
//!   run-length bitsets. Encode→decode is the identity for every frame
//!   type (property-pinned in `tests/wireplane_props.rs`), so a verdict
//!   that crosses the wire is bit-identical to one that never left the
//!   process.
//! * **Envelopes after the greeting.** A connection opens with a bare
//!   [`Frame::Hello`] (or a bare [`Frame::Error`] refusal from a full
//!   accept pool); every later frame in either direction is a
//!   [`Frame::Tagged`], [`Frame::Batch`] or [`Frame::BatchRep`]
//!   envelope. Server pushes travel as `Tagged` under the reserved
//!   [`PUSH_REQ_ID`].
//! * **Decoding never panics.** Truncated or corrupt input surfaces as a
//!   typed [`WireError`]; collection lengths are bounded by the bytes
//!   actually present before any allocation, and every bitset in one
//!   frame draws down one shared allocation budget.
//! * **One tag byte per frame type.** Requests and replies pair up
//!   (`0x1x` shard requests, `0x2x` shard replies, `0x3x` client-plane
//!   frames); [`Frame::Error`] carries a [`WireError`] to the peer.
//!
//! The RPC table (see `DESIGN.md` §13):
//!
//! | frame | direction | carries |
//! |---|---|---|
//! | `UnionSliceReq/Rep` | front → shard | masked pointer-union slice |
//! | `ProbeExactReq/Rep` | front → shard | exact-epoch presence probe |
//! | `StoreLenReq/Rep`, `RecordReq/Rep`, `TriggerReq/Rep` | front → shard | host point reads |
//! | `StoreLenWaveReq/Rep`, `FilterWaveReq/Rep`, `TopKWaveReq/Rep`, `SizesWaveReq/Rep` | front → shard | one coalesced wave per shard |
//! | `HorizonReq/Rep` | front → shard | snapshot epoch horizon |
//! | `StatsScrapeReq/Rep` | client → front → shard | labelled obsplane registry snapshots |
//! | `TraceScrapeReq/Rep` | client → front → shard | labelled span dumps for trace reassembly |
//! | `Hello` | server → peer | greeting: role + shard id |
//! | `QueryReq/Rep` | client → front | one-shot query / full response |
//! | `SubscribeReq/Rep` | client → front | standing query + resume point |
//! | `IncidentPush`, `WindowPush` | front → client | streamed frames on window close |
//! | `DeltaAppend` / `DeltaAck` | owner → replica | one sequenced replication-log record |
//! | `SnapshotInstall` | owner → replica | full-state bootstrap at a seq |
//! | `ReplicaStatusReq/Rep` | any → replica | applied-seq probe |
//! | `Tagged`, `Batch` / `BatchRep` | any | envelopes: every frame after `Hello` |
//! | `Error` | any | typed failure |

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};

use netsim::packet::{FlowId, NodeId, Priority, Protocol};
use netsim::time::SimTime;
use obsplane::{HistogramSnapshot, RegistrySnapshot, SpanEvent, TraceContext};
use queryplane::DeltaRecord;
use streamplane::{Incident, IncidentKind, StandingQuery, SubscriptionId};
use switchpointer::analyzer::{
    CascadeDiagnosis, CascadeStage, ContentionDiagnosis, Culprit, DropDiagnosis,
    LoadImbalanceDiagnosis, RedLightsDiagnosis, TopKResult, Verdict,
};
use switchpointer::bitset::BitSet;
use switchpointer::cost::{LatencyBreakdown, QueryWaveCost};
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::query::{QueryRequest, QueryResponse};
use telemetry::frame::{read_frame, write_frame, Dec, Enc, WireError, MAX_FRAME};
use telemetry::EpochRange;

/// Value-level codec: how one type travels inside a frame payload.
pub trait Wire: Sized {
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec) -> Result<Self, WireError>;
}

/// Encodes one value into a standalone payload buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.enc(&mut e);
    e.into_bytes()
}

/// Decodes one value from a payload, requiring full consumption.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    let v = T::dec(&mut d)?;
    d.finish()?;
    Ok(v)
}

// ----------------------------------------------------------------------
// Primitive and container impls
// ----------------------------------------------------------------------

macro_rules! wire_uint {
    ($t:ty, $put:ident, $get:ident) => {
        impl Wire for $t {
            fn enc(&self, e: &mut Enc) {
                e.$put(*self);
            }
            fn dec(d: &mut Dec) -> Result<Self, WireError> {
                d.$get()
            }
        }
    };
}
wire_uint!(u8, put_u8, get_u8);
wire_uint!(u16, put_u16, get_u16);
wire_uint!(u32, put_u32, get_u32);
wire_uint!(u64, put_u64, get_u64);
wire_uint!(bool, put_bool, get_bool);

impl Wire for usize {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(*self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.get_usize()
    }
}

// Gauges are signed; they travel as their two's-complement bit pattern
// so the codec stays fixed-width like every other scalar.
impl Wire for i64 {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(*self as u64);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(d.get_u64()? as i64)
    }
}

impl Wire for String {
    fn enc(&self, e: &mut Enc) {
        e.put_str(self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.get_string()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_len()?;
        // `get_len` bounds n by the *bytes* remaining, but reserving n
        // elements costs n·size_of::<T>() — for large element types a
        // corrupt count could still drive a multi-GB reservation. Cap
        // the reservation by what the remaining bytes could possibly
        // hold; decode then grows normally if elements encode smaller
        // than their in-memory size.
        let cap = n.min(d.remaining() / std::mem::size_of::<T>().max(1));
        let mut out = Vec::with_capacity(cap);
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for (k, v) in self {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::dec(d)?;
            out.insert(k, V::dec(d)?);
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// Domain scalar impls
// ----------------------------------------------------------------------

impl Wire for SimTime {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.as_ns());
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(SimTime::from_ns(d.get_u64()?))
    }
}

impl Wire for NodeId {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(NodeId(d.get_u32()?))
    }
}

impl Wire for FlowId {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(FlowId(d.get_u64()?))
    }
}

impl Wire for Priority {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Priority(d.get_u8()?))
    }
}

impl Wire for Protocol {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(match self {
            Protocol::Tcp => 0,
            Protocol::Udp => 1,
        });
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Protocol::Tcp),
            1 => Ok(Protocol::Udp),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for EpochRange {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.lo);
        e.put_u64(self.hi);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(EpochRange {
            lo: d.get_u64()?,
            hi: d.get_u64()?,
        })
    }
}

impl Wire for BitSet {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.capacity());
        self.words().to_vec().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let nbits = d.get_usize()?;
        let words = Vec::<u64>::dec(d)?;
        // The capacity must match the words actually present: a corrupt
        // `nbits` must not drive `from_words`'s zero-fill allocation
        // (the encoder always writes exactly ⌈nbits/64⌉ words).
        if nbits.div_ceil(64) != words.len() {
            return Err(WireError::Truncated {
                needed: nbits.div_ceil(64),
                have: words.len(),
            });
        }
        Ok(BitSet::from_words(nbits, &words))
    }
}

impl Wire for TriggerEvent {
    fn enc(&self, e: &mut Enc) {
        self.at.enc(e);
        self.flow.enc(e);
        e.put_u64(self.prev_bytes);
        e.put_u64(self.cur_bytes);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(TriggerEvent {
            at: SimTime::dec(d)?,
            flow: FlowId::dec(d)?,
            prev_bytes: d.get_u64()?,
            cur_bytes: d.get_u64()?,
        })
    }
}

impl Wire for FlowRecord {
    fn enc(&self, e: &mut Enc) {
        self.flow.enc(e);
        self.src.enc(e);
        self.dst.enc(e);
        self.protocol.enc(e);
        self.priority.enc(e);
        e.put_u64(self.bytes);
        e.put_u64(self.packets);
        self.path.enc(e);
        self.epochs_at.enc(e);
        self.bytes_per_epoch.enc(e);
        self.link_vid.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(FlowRecord {
            flow: FlowId::dec(d)?,
            src: NodeId::dec(d)?,
            dst: NodeId::dec(d)?,
            protocol: Protocol::dec(d)?,
            priority: Priority::dec(d)?,
            bytes: d.get_u64()?,
            packets: d.get_u64()?,
            path: Vec::dec(d)?,
            epochs_at: BTreeMap::dec(d)?,
            bytes_per_epoch: BTreeMap::dec(d)?,
            link_vid: Option::dec(d)?,
        })
    }
}

// ----------------------------------------------------------------------
// Query requests and responses
// ----------------------------------------------------------------------

impl Wire for QueryRequest {
    fn enc(&self, e: &mut Enc) {
        match *self {
            QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            } => {
                e.put_u8(0);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
            }
            QueryRequest::RedLights {
                victim,
                victim_dst,
                trigger_window,
            } => {
                e.put_u8(1);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
            }
            QueryRequest::Cascade {
                victim,
                victim_dst,
                trigger_window,
                max_depth,
            } => {
                e.put_u8(2);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
                e.put_usize(max_depth);
            }
            QueryRequest::LoadImbalance { switch, range } => {
                e.put_u8(3);
                switch.enc(e);
                range.enc(e);
            }
            QueryRequest::TopK { switch, k, range } => {
                e.put_u8(4);
                switch.enc(e);
                e.put_usize(k);
                range.enc(e);
            }
            QueryRequest::SilentDrop {
                flow,
                src,
                dst,
                range,
            } => {
                e.put_u8(5);
                flow.enc(e);
                src.enc(e);
                dst.enc(e);
                range.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(QueryRequest::Contention {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
            }),
            1 => Ok(QueryRequest::RedLights {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
            }),
            2 => Ok(QueryRequest::Cascade {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
                max_depth: d.get_usize()?,
            }),
            3 => Ok(QueryRequest::LoadImbalance {
                switch: NodeId::dec(d)?,
                range: EpochRange::dec(d)?,
            }),
            4 => Ok(QueryRequest::TopK {
                switch: NodeId::dec(d)?,
                k: d.get_usize()?,
                range: EpochRange::dec(d)?,
            }),
            5 => Ok(QueryRequest::SilentDrop {
                flow: FlowId::dec(d)?,
                src: NodeId::dec(d)?,
                dst: NodeId::dec(d)?,
                range: EpochRange::dec(d)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Verdict {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(match self {
            Verdict::PriorityContention => 0,
            Verdict::Microburst => 1,
            Verdict::NoCulprit => 2,
        });
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Verdict::PriorityContention),
            1 => Ok(Verdict::Microburst),
            2 => Ok(Verdict::NoCulprit),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Culprit {
    fn enc(&self, e: &mut Enc) {
        self.flow.enc(e);
        self.src.enc(e);
        self.dst.enc(e);
        self.host.enc(e);
        self.priority.enc(e);
        e.put_u64(self.bytes);
        self.common_epochs.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Culprit {
            flow: FlowId::dec(d)?,
            src: NodeId::dec(d)?,
            dst: NodeId::dec(d)?,
            host: NodeId::dec(d)?,
            priority: Priority::dec(d)?,
            bytes: d.get_u64()?,
            common_epochs: Vec::dec(d)?,
        })
    }
}

impl Wire for QueryWaveCost {
    fn enc(&self, e: &mut Enc) {
        self.connection_initiation.enc(e);
        self.request.enc(e);
        self.query_execution.enc(e);
        self.response.enc(e);
        self.base.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(QueryWaveCost {
            connection_initiation: SimTime::dec(d)?,
            request: SimTime::dec(d)?,
            query_execution: SimTime::dec(d)?,
            response: SimTime::dec(d)?,
            base: SimTime::dec(d)?,
        })
    }
}

impl Wire for LatencyBreakdown {
    fn enc(&self, e: &mut Enc) {
        self.detection.enc(e);
        self.alert.enc(e);
        self.pointer_retrieval.enc(e);
        self.diagnosis.enc(e);
        self.diagnosis_detail.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(LatencyBreakdown {
            detection: SimTime::dec(d)?,
            alert: SimTime::dec(d)?,
            pointer_retrieval: SimTime::dec(d)?,
            diagnosis: SimTime::dec(d)?,
            diagnosis_detail: QueryWaveCost::dec(d)?,
        })
    }
}

impl Wire for ContentionDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.victim.enc(e);
        self.switch.enc(e);
        self.epochs.enc(e);
        self.culprits.enc(e);
        e.put_usize(self.hosts_contacted);
        self.verdict.enc(e);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(ContentionDiagnosis {
            victim: FlowId::dec(d)?,
            switch: NodeId::dec(d)?,
            epochs: EpochRange::dec(d)?,
            culprits: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            verdict: Verdict::dec(d)?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for RedLightsDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.victim.enc(e);
        self.per_switch.enc(e);
        self.implicated.enc(e);
        e.put_usize(self.hosts_contacted);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(RedLightsDiagnosis {
            victim: FlowId::dec(d)?,
            per_switch: Vec::dec(d)?,
            implicated: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for CascadeStage {
    fn enc(&self, e: &mut Enc) {
        self.victim.enc(e);
        self.switch.enc(e);
        self.culprit.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(CascadeStage {
            victim: FlowId::dec(d)?,
            switch: NodeId::dec(d)?,
            culprit: Culprit::dec(d)?,
        })
    }
}

impl Wire for CascadeDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.stages.enc(e);
        e.put_usize(self.hosts_contacted);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(CascadeDiagnosis {
            stages: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for LoadImbalanceDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.per_link.enc(e);
        self.separation_bytes.enc(e);
        e.put_usize(self.hosts_contacted);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(LoadImbalanceDiagnosis {
            per_link: BTreeMap::dec(d)?,
            separation_bytes: Option::dec(d)?,
            hosts_contacted: d.get_usize()?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for TopKResult {
    fn enc(&self, e: &mut Enc) {
        self.flows.enc(e);
        e.put_usize(self.hosts_contacted);
        self.pointer_retrieval.enc(e);
        self.wave.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(TopKResult {
            flows: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            pointer_retrieval: SimTime::dec(d)?,
            wave: QueryWaveCost::dec(d)?,
        })
    }
}

impl Wire for DropDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.flow.enc(e);
        self.path.enc(e);
        self.per_switch.enc(e);
        self.suspected_segment.enc(e);
        self.pointer_retrieval.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(DropDiagnosis {
            flow: FlowId::dec(d)?,
            path: Vec::dec(d)?,
            per_switch: Vec::dec(d)?,
            suspected_segment: Option::dec(d)?,
            pointer_retrieval: SimTime::dec(d)?,
        })
    }
}

impl Wire for QueryResponse {
    fn enc(&self, e: &mut Enc) {
        match self {
            QueryResponse::Contention(v) => {
                e.put_u8(0);
                v.enc(e);
            }
            QueryResponse::RedLights(v) => {
                e.put_u8(1);
                v.enc(e);
            }
            QueryResponse::Cascade(v) => {
                e.put_u8(2);
                v.enc(e);
            }
            QueryResponse::LoadImbalance(v) => {
                e.put_u8(3);
                v.enc(e);
            }
            QueryResponse::TopK(v) => {
                e.put_u8(4);
                v.enc(e);
            }
            QueryResponse::SilentDrop(v) => {
                e.put_u8(5);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(QueryResponse::Contention(ContentionDiagnosis::dec(d)?)),
            1 => Ok(QueryResponse::RedLights(RedLightsDiagnosis::dec(d)?)),
            2 => Ok(QueryResponse::Cascade(CascadeDiagnosis::dec(d)?)),
            3 => Ok(QueryResponse::LoadImbalance(LoadImbalanceDiagnosis::dec(
                d,
            )?)),
            4 => Ok(QueryResponse::TopK(TopKResult::dec(d)?)),
            5 => Ok(QueryResponse::SilentDrop(DropDiagnosis::dec(d)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

// ----------------------------------------------------------------------
// Streaming types
// ----------------------------------------------------------------------

impl Wire for StandingQuery {
    fn enc(&self, e: &mut Enc) {
        match *self {
            StandingQuery::Fixed(req) => {
                e.put_u8(0);
                req.enc(e);
            }
            StandingQuery::TopKSliding {
                switch,
                k,
                epochs_back,
            } => {
                e.put_u8(1);
                switch.enc(e);
                e.put_usize(k);
                e.put_u64(epochs_back);
            }
            StandingQuery::LoadImbalanceSliding {
                switch,
                epochs_back,
            } => {
                e.put_u8(2);
                switch.enc(e);
                e.put_u64(epochs_back);
            }
            StandingQuery::ContentionWatch {
                victim,
                victim_dst,
                trigger_window,
            } => {
                e.put_u8(3);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(StandingQuery::Fixed(QueryRequest::dec(d)?)),
            1 => Ok(StandingQuery::TopKSliding {
                switch: NodeId::dec(d)?,
                k: d.get_usize()?,
                epochs_back: d.get_u64()?,
            }),
            2 => Ok(StandingQuery::LoadImbalanceSliding {
                switch: NodeId::dec(d)?,
                epochs_back: d.get_u64()?,
            }),
            3 => Ok(StandingQuery::ContentionWatch {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for IncidentKind {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(match self {
            IncidentKind::Baseline => 0,
            IncidentKind::Transition => 1,
        });
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(IncidentKind::Baseline),
            1 => Ok(IncidentKind::Transition),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Incident {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.window);
        e.put_u64(self.horizon);
        e.put_u64(self.sub.0);
        self.kind.enc(e);
        self.summary.enc(e);
        e.put_u64(self.fingerprint);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Incident {
            window: d.get_u64()?,
            horizon: d.get_u64()?,
            sub: SubscriptionId(d.get_u64()?),
            kind: IncidentKind::dec(d)?,
            summary: String::dec(d)?,
            fingerprint: d.get_u64()?,
        })
    }
}

/// Compact digest of one closed window — what the front-end pushes to
/// every subscribed client alongside the incident frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSummary {
    /// Window index (0-based, monotone).
    pub window: u64,
    /// Snapshot epoch horizon the window evaluated at.
    pub horizon: u64,
    /// Standing queries evaluated (pending included).
    pub evaluated: u64,
    /// Subscriptions still pending (no trigger yet).
    pub pending: u64,
    /// Incidents appended this window across all topics.
    pub incidents: u64,
}

impl Wire for WindowSummary {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.window);
        e.put_u64(self.horizon);
        e.put_u64(self.evaluated);
        e.put_u64(self.pending);
        e.put_u64(self.incidents);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(WindowSummary {
            window: d.get_u64()?,
            horizon: d.get_u64()?,
            evaluated: d.get_u64()?,
            pending: d.get_u64()?,
            incidents: d.get_u64()?,
        })
    }
}

impl Wire for WireError {
    fn enc(&self, e: &mut Enc) {
        match self {
            WireError::Truncated { needed, have } => {
                e.put_u8(0);
                e.put_usize(*needed);
                e.put_usize(*have);
            }
            WireError::BadTag(t) => {
                e.put_u8(1);
                e.put_u8(*t);
            }
            WireError::Oversize(n) => {
                e.put_u8(2);
                e.put_u32(*n);
            }
            WireError::TrailingBytes(n) => {
                e.put_u8(3);
                e.put_usize(*n);
            }
            WireError::BadUtf8 => e.put_u8(4),
            WireError::Io { kind, peer } => {
                e.put_u8(5);
                e.put_str(&format!("{kind:?}"));
                match peer {
                    None => e.put_u8(0),
                    Some(p) => {
                        e.put_u8(1);
                        e.put_str(p);
                    }
                }
            }
            WireError::Remote(msg) => {
                e.put_u8(6);
                e.put_str(msg);
            }
            WireError::SeqGap { expected, got } => {
                e.put_u8(7);
                e.put_u64(*expected);
                e.put_u64(*got);
            }
            WireError::ReplicaLag { applied, published } => {
                e.put_u8(8);
                e.put_u64(*applied);
                e.put_u64(*published);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(WireError::Truncated {
                needed: d.get_usize()?,
                have: d.get_usize()?,
            }),
            1 => Ok(WireError::BadTag(d.get_u8()?)),
            2 => Ok(WireError::Oversize(d.get_u32()?)),
            3 => Ok(WireError::TrailingBytes(d.get_usize()?)),
            4 => Ok(WireError::BadUtf8),
            // An io kind does not round-trip as a kind; it arrives as the
            // remote's description (peer context preserved) — the peer
            // cannot act on the kind anyway, only report it.
            5 => {
                let kind = d.get_string()?;
                let msg = match d.get_u8()? {
                    0 => format!("remote io: {kind}"),
                    1 => format!("remote io at {}: {kind}", d.get_string()?),
                    t => return Err(WireError::BadTag(t)),
                };
                Ok(WireError::Remote(msg))
            }
            6 => Ok(WireError::Remote(d.get_string()?)),
            // Replication-protocol errors round-trip exactly: the owner
            // acts on them (replay from the gap, or re-bootstrap).
            7 => Ok(WireError::SeqGap {
                expected: d.get_u64()?,
                got: d.get_u64()?,
            }),
            8 => Ok(WireError::ReplicaLag {
                applied: d.get_u64()?,
                published: d.get_u64()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

// The replication payload: `queryplane` owns the codec (the record's
// shape is its business); the `Wire` impl lives here with every other
// impl the orphan rule pins to this crate.
impl Wire for DeltaRecord {
    fn enc(&self, e: &mut Enc) {
        self.wire_enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        DeltaRecord::wire_dec(d)
    }
}

// Obsplane snapshots cross the wire so `WireClient::scrape_stats` can
// pull a live cluster's histograms. The codec lives here (not in
// obsplane) to keep that crate dependency-free.
impl Wire for HistogramSnapshot {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.grid_bits);
        self.counts.enc(e);
        e.put_u64(self.count);
        e.put_u64(self.sum);
        e.put_u64(self.max);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(HistogramSnapshot {
            grid_bits: d.get_u32()?,
            counts: Vec::dec(d)?,
            count: d.get_u64()?,
            sum: d.get_u64()?,
            max: d.get_u64()?,
        })
    }
}

impl Wire for RegistrySnapshot {
    fn enc(&self, e: &mut Enc) {
        self.counters.enc(e);
        self.gauges.enc(e);
        self.hists.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(RegistrySnapshot {
            counters: BTreeMap::dec(d)?,
            gauges: BTreeMap::dec(d)?,
            hists: BTreeMap::dec(d)?,
        })
    }
}

/// One span as it travels in a [`Frame::TraceScrapeRep`]: an owned
/// [`SpanEvent`] plus whether the origin process had pinned it as a
/// slow-query exemplar. `start_ns` offsets are per-process clocks —
/// only durations are comparable across processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    pub class: String,
    pub stage: String,
    pub epoch: u64,
    pub shard: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub steals: u32,
    pub exemplar: bool,
}

impl WireSpan {
    /// Lifts a tracer event into its owned wire form.
    pub fn from_event(ev: &SpanEvent, exemplar: bool) -> WireSpan {
        WireSpan {
            class: ev.class.to_string(),
            stage: ev.stage.to_string(),
            epoch: ev.epoch,
            shard: ev.shard,
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
            trace_id: ev.trace_id,
            span_id: ev.span_id,
            parent_id: ev.parent_id,
            steals: ev.steals,
            exemplar,
        }
    }
}

impl Wire for WireSpan {
    fn enc(&self, e: &mut Enc) {
        e.put_str(&self.class);
        e.put_str(&self.stage);
        e.put_u64(self.epoch);
        e.put_u32(self.shard);
        e.put_u64(self.start_ns);
        e.put_u64(self.dur_ns);
        e.put_u64(self.trace_id);
        e.put_u64(self.span_id);
        e.put_u64(self.parent_id);
        e.put_u32(self.steals);
        e.put_bool(self.exemplar);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(WireSpan {
            class: d.get_string()?,
            stage: d.get_string()?,
            epoch: d.get_u64()?,
            shard: d.get_u32()?,
            start_ns: d.get_u64()?,
            dur_ns: d.get_u64()?,
            trace_id: d.get_u64()?,
            span_id: d.get_u64()?,
            parent_id: d.get_u64()?,
            steals: d.get_u32()?,
            exemplar: d.get_bool()?,
        })
    }
}

// ----------------------------------------------------------------------
// Trace context in envelopes
// ----------------------------------------------------------------------
//
// Envelope entries may carry a compact [`TraceContext`] between the
// correlation id and the inner tag, introduced by a marker byte that is
// never a valid frame tag. The envelope is the only place a context
// travels; a context-free entry costs no bytes for it (layout pinned in
// `tests/wireplane_props.rs`).

/// Marker byte announcing an embedded trace context. `0xFF` is not a
/// frame tag and never will be, so the position is unambiguous.
const TRACE_CTX_MARKER: u8 = 0xFF;

/// Appends the optional context: nothing, or `0xFF | trace | span | flags`.
fn enc_ctx(ctx: &Option<TraceContext>, e: &mut Enc) {
    if let Some(c) = ctx {
        e.put_u8(TRACE_CTX_MARKER);
        e.put_u64(c.trace_id);
        e.put_u64(c.span_id);
        e.put_u8(u8::from(c.sampled));
    }
}

/// Decodes the 17-byte context body following a [`TRACE_CTX_MARKER`].
fn dec_ctx_body(d: &mut Dec) -> Result<TraceContext, WireError> {
    let trace_id = d.get_u64()?;
    let span_id = d.get_u64()?;
    let flags = d.get_u8()?;
    if flags & !1 != 0 {
        return Err(WireError::BadTag(flags));
    }
    Ok(TraceContext {
        trace_id,
        span_id,
        sampled: flags & 1 != 0,
    })
}

/// Reads an inner-frame tag position that may instead open with a
/// trace context: returns the context (if present) and the real tag.
fn dec_ctx_then_tag(d: &mut Dec) -> Result<(Option<TraceContext>, u8), WireError> {
    let first = d.get_u8()?;
    if first == TRACE_CTX_MARKER {
        let ctx = dec_ctx_body(d)?;
        Ok((Some(ctx), d.get_u8()?))
    } else {
        Ok((None, first))
    }
}

/// One batch entry's body: `tag | len | payload`.
fn enc_entry(f: &Frame, e: &mut Enc) {
    e.put_u8(f.tag());
    let p = f.payload();
    e.put_varint(p.len() as u64);
    e.put_raw(&p);
}

/// A batch's entry count. Every entry costs at least 6 bytes of header,
/// so a count the remaining bytes cannot hold is refused before any
/// reservation.
fn dec_entry_count(d: &mut Dec) -> Result<usize, WireError> {
    let count = d.get_varint()? as usize;
    if count > d.remaining() / 6 + 1 {
        return Err(WireError::Truncated {
            needed: count.saturating_mul(6),
            have: d.remaining(),
        });
    }
    Ok(count)
}

// ----------------------------------------------------------------------
// Compact forms of the hot wave frames
// ----------------------------------------------------------------------
//
// The wave requests and their id-list / bitset replies dominate the
// bytes a query moves, so they travel as var-int lengths, delta-packed
// host-id lists and run-length bitsets rather than fixed-width arrays.

/// Delta-packed id list: `count | first | zigzag deltas`. A sorted host
/// list costs ~1 byte per id instead of 4.
fn enc_ids_delta(ids: &[NodeId], e: &mut Enc) {
    e.put_varint(ids.len() as u64);
    let mut prev = 0i64;
    for id in ids {
        let v = i64::from(id.0);
        e.put_zigzag(v - prev);
        prev = v;
    }
}

fn dec_ids_delta(d: &mut Dec) -> Result<Vec<NodeId>, WireError> {
    let n = d.get_varint()? as usize;
    // Each delta costs ≥ 1 byte, so a corrupt count cannot drive a huge
    // reservation.
    if n > d.remaining() {
        return Err(WireError::Truncated {
            needed: n,
            have: d.remaining(),
        });
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        // Checked: a hostile delta sequence that overflows i64 must be a
        // typed error in every build profile, not a debug-only panic.
        prev = prev
            .checked_add(d.get_zigzag()?)
            .ok_or(WireError::Oversize(u32::MAX))?;
        let id = u32::try_from(prev).map_err(|_| WireError::Oversize(u32::MAX))?;
        out.push(NodeId(id));
    }
    Ok(out)
}

/// Cumulative allocation budget, in bytes of decoded bitset backing
/// words, shared by ALL bitsets of one frame. A run-length bitset
/// legitimately compresses far below its word array, so capacity cannot
/// be bounded by the bytes encoding *it* — but it can be bounded by what
/// one maximal frame of raw words could carry: [`MAX_FRAME`] bytes.
/// Charging every bitset in a frame against one shared budget means a
/// hostile `Batch` of many run-length-encoded huge bitsets allocates no
/// more in total than one maximal frame of words would, instead of
/// 64 MB *per ~10-byte entry*.
const COMPACT_BITSET_BUDGET: usize = MAX_FRAME as usize;

/// Run-length bitset: `capacity | runs…`, alternating zero/one runs
/// starting with a zero run. Pointer-union slices are sparse and
/// clustered, so runs beat the word array by a wide margin.
fn enc_bitset_runs(b: &BitSet, e: &mut Enc) {
    e.put_varint(b.capacity() as u64);
    let mut cur = false;
    let mut run = 0u64;
    for i in 0..b.capacity() {
        if b.test(i) == cur {
            run += 1;
        } else {
            e.put_varint(run);
            cur = !cur;
            run = 1;
        }
    }
    if b.capacity() > 0 {
        e.put_varint(run);
    }
}

fn dec_bitset_runs(d: &mut Dec, budget: &mut usize) -> Result<BitSet, WireError> {
    let nbits = d.get_varint()? as usize;
    // Charge the decoded word-array size against the frame's shared
    // [`COMPACT_BITSET_BUDGET`]: a single bitset may claim at most what
    // one maximal frame of words could carry, and every bitset in the
    // same frame draws down the same budget, so hostile repetition
    // inside a `Batch` cannot multiply the allocation.
    let word_bytes = nbits.div_ceil(64).saturating_mul(8);
    if word_bytes > *budget {
        return Err(WireError::Oversize(u32::MAX));
    }
    *budget -= word_bytes;
    let mut words = vec![0u64; nbits.div_ceil(64)];
    let mut at = 0usize;
    let mut ones = false;
    while at < nbits {
        let run = d.get_varint()? as usize;
        let end = at.checked_add(run).ok_or(WireError::Oversize(u32::MAX))?;
        if end > nbits {
            return Err(WireError::TrailingBytes(end - nbits));
        }
        if ones {
            for i in at..end {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        at = end;
        ones = !ones;
    }
    Ok(BitSet::from_word_vec(nbits, words))
}

/// Varint-packed `Option<u64>` list (`0` marker = None, `1` marker then
/// the varint value = Some) — the store-length wave reply.
fn enc_opt_u64s(v: &[Option<u64>], e: &mut Enc) {
    e.put_varint(v.len() as u64);
    for o in v {
        match o {
            None => e.put_varint(0),
            Some(n) => {
                e.put_varint(1);
                e.put_varint(*n);
            }
        }
    }
}

fn dec_opt_u64s(d: &mut Dec) -> Result<Vec<Option<u64>>, WireError> {
    let n = d.get_varint()? as usize;
    if n > d.remaining() {
        return Err(WireError::Truncated {
            needed: n,
            have: d.remaining(),
        });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match d.get_varint()? {
            0 => None,
            1 => Some(d.get_varint()?),
            t => return Err(WireError::BadTag((t & 0xFF) as u8)),
        });
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Frames
// ----------------------------------------------------------------------

/// Wire body of a filter-wave reply: per host, store size and matching
/// records (`usize` travels as `u64`).
pub type FilterWaveBody = Vec<(Option<u64>, Vec<FlowRecord>)>;
/// Wire body of a top-k wave reply.
pub type TopKWaveBody = Vec<(Option<u64>, Vec<(FlowId, u64)>)>;
/// Wire body of a link-sizes wave reply.
pub type SizesWaveBody = Vec<(Option<u64>, Vec<(u16, u64)>)>;

/// Every message of the wireplane protocol.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Server greeting on accept: which role/shard answered.
    Hello {
        /// Serving shard id, or [`FRONT_ROLE`] for the front-end.
        shard: u16,
        /// Directory shard count of the deployment.
        n_shards: u16,
    },

    // Shard RPCs (front-end → shard server).
    UnionSliceReq {
        switch: NodeId,
        range: EpochRange,
    },
    UnionSliceRep(Option<BitSet>),
    ProbeExactReq {
        switch: NodeId,
        addr: u64,
        epoch: u64,
    },
    ProbeExactRep(Option<Option<bool>>),
    StoreLenReq {
        host: NodeId,
    },
    StoreLenRep(Option<u64>),
    RecordReq {
        host: NodeId,
        flow: FlowId,
    },
    RecordRep(Option<FlowRecord>),
    TriggerReq {
        host: NodeId,
        flow: FlowId,
    },
    TriggerRep(Option<TriggerEvent>),
    StoreLenWaveReq {
        hosts: Vec<NodeId>,
    },
    StoreLenWaveRep(Vec<Option<u64>>),
    FilterWaveReq {
        switch: NodeId,
        range: EpochRange,
        hosts: Vec<NodeId>,
    },
    FilterWaveRep(FilterWaveBody),
    TopKWaveReq {
        switch: NodeId,
        k: u64,
        hosts: Vec<NodeId>,
    },
    TopKWaveRep(TopKWaveBody),
    SizesWaveReq {
        switch: NodeId,
        hosts: Vec<NodeId>,
    },
    SizesWaveRep(SizesWaveBody),
    HorizonReq,
    HorizonRep(u64),
    /// Pull the peer's obsplane metrics. Sent by clients to the
    /// front-end (which fans it out) or by the front-end to one shard.
    StatsScrapeReq,
    /// Labelled registry snapshots: `("front", ..)` then one
    /// `("shard{i}", ..)` per shard when the front-end answers; a single
    /// `("shard{i}", ..)` when a shard server answers directly.
    StatsScrapeRep(Vec<(String, RegistrySnapshot)>),
    /// Pull the peer's retained spans (ring + pinned exemplars) for
    /// cross-process trace reassembly. Side-effect-free like a stats
    /// scrape: snapshot-based, never draining, and excluded from the
    /// wire histograms, so scraping cannot perturb what it observes.
    TraceScrapeReq,
    /// Labelled span dumps, grouped like [`Frame::StatsScrapeRep`]:
    /// `("front", ..)` plus one `("shard{i}", ..)` per shard when the
    /// front-end answers.
    TraceScrapeRep(Vec<(String, Vec<WireSpan>)>),

    // Client plane (client ↔ front-end).
    QueryReq(QueryRequest),
    QueryRep(QueryResponse),
    SubscribeReq {
        query: StandingQuery,
        /// Incidents of this topic the client has already consumed; the
        /// front-end replays from here, so a reconnecting subscriber
        /// re-derives the log with zero duplicates and zero drops.
        resume_after: u64,
    },
    SubscribeRep {
        sub: SubscriptionId,
        /// Incidents currently in the topic's log (the replay backlog
        /// upper bound).
        available: u64,
    },
    IncidentPush {
        seq: u64,
        incident: Incident,
    },
    WindowPush(WindowSummary),

    // Replication plane (owner → replica shard server).
    /// One sequenced record of shard `shard`'s replication log. The
    /// replica applies it only when `seq` is exactly its applied seq + 1;
    /// anything else answers [`WireError::SeqGap`] and the owner replays
    /// or re-bootstraps.
    DeltaAppend {
        shard: u16,
        seq: u64,
        record: DeltaRecord,
    },
    /// Full-state bootstrap: an encoded per-shard snapshot slice
    /// ([`queryplane::Snapshot`] bytes — opaque here because decoding
    /// them needs the deployment's shared MPHF, which a context-free
    /// frame decoder does not hold) that replaces the replica's state and
    /// sets its applied seq to `seq` unconditionally.
    SnapshotInstall {
        shard: u16,
        seq: u64,
        view: Vec<u8>,
    },
    /// Replica acknowledgement: the log is applied through `applied`.
    DeltaAck {
        shard: u16,
        applied: u64,
    },
    /// Probe a replica's replication progress.
    ReplicaStatusReq,
    ReplicaStatusRep {
        shard: u16,
        applied: u64,
    },

    // Envelopes: after the greeting, every frame on a connection is one
    // of these three.
    /// One request or reply stamped with the caller's correlation id, so
    /// many exchanges can share a socket and complete out of order. A
    /// server push carries [`PUSH_REQ_ID`].
    Tagged {
        /// Correlation id; a reply carries the id of its request.
        req_id: u32,
        /// Optional trace context of the caller, propagated so the
        /// server's serve (or apply) span joins the caller's trace.
        ctx: Option<TraceContext>,
        /// The enveloped frame. Envelopes never nest.
        inner: Box<Frame>,
    },
    /// A whole wave of tagged requests in one frame: the per-shard batch
    /// a front-end flushes per scheduling turn. Each entry carries its
    /// own caller's optional trace context.
    Batch(Vec<(u32, Option<TraceContext>, Frame)>),
    /// The replies to a [`Frame::Batch`], in whatever order the shard
    /// finished them; each entry names its request by id.
    BatchRep(Vec<(u32, Frame)>),

    /// Typed failure, either direction.
    Error(WireError),
}

/// `Hello.shard` value identifying the front-end rather than a shard.
pub const FRONT_ROLE: u16 = u16::MAX;

/// The `req_id` of every server push ([`Frame::IncidentPush`],
/// [`Frame::WindowPush`]). [`MuxConn`](crate::mux::MuxConn) never
/// allocates it to a request, so its reader routes these frames to the
/// push queue instead of a waiter.
pub const PUSH_REQ_ID: u32 = u32::MAX;

impl Frame {
    /// Whether a server answers this request in-band: on the
    /// connection's reader, in arrival order, because it is sequenced
    /// (the replication log) or stateful (a subscription). Everything
    /// else is read-only and goes to the serve pool.
    pub(crate) fn is_in_band(&self) -> bool {
        matches!(
            self,
            Frame::DeltaAppend { .. }
                | Frame::SnapshotInstall { .. }
                | Frame::ReplicaStatusReq
                | Frame::SubscribeReq { .. }
        )
    }

    /// Whether this is an observability scrape: answered side-effect-free
    /// and never recorded in the wire metrics it pulls.
    pub(crate) fn is_scrape(&self) -> bool {
        matches!(self, Frame::StatsScrapeReq | Frame::TraceScrapeReq)
    }

    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::UnionSliceReq { .. } => 0x10,
            Frame::ProbeExactReq { .. } => 0x11,
            Frame::StoreLenReq { .. } => 0x12,
            Frame::RecordReq { .. } => 0x13,
            Frame::TriggerReq { .. } => 0x14,
            Frame::StoreLenWaveReq { .. } => 0x15,
            Frame::FilterWaveReq { .. } => 0x16,
            Frame::TopKWaveReq { .. } => 0x17,
            Frame::SizesWaveReq { .. } => 0x18,
            Frame::HorizonReq => 0x19,
            Frame::StatsScrapeReq => 0x1A,
            Frame::TraceScrapeReq => 0x1B,
            Frame::UnionSliceRep(_) => 0x20,
            Frame::ProbeExactRep(_) => 0x21,
            Frame::StoreLenRep(_) => 0x22,
            Frame::RecordRep(_) => 0x23,
            Frame::TriggerRep(_) => 0x24,
            Frame::StoreLenWaveRep(_) => 0x25,
            Frame::FilterWaveRep(_) => 0x26,
            Frame::TopKWaveRep(_) => 0x27,
            Frame::SizesWaveRep(_) => 0x28,
            Frame::HorizonRep(_) => 0x29,
            Frame::StatsScrapeRep(_) => 0x2A,
            Frame::TraceScrapeRep(_) => 0x2B,
            Frame::QueryReq(_) => 0x30,
            Frame::QueryRep(_) => 0x31,
            Frame::SubscribeReq { .. } => 0x32,
            Frame::SubscribeRep { .. } => 0x33,
            Frame::IncidentPush { .. } => 0x34,
            Frame::WindowPush(_) => 0x35,
            Frame::DeltaAppend { .. } => 0x40,
            Frame::SnapshotInstall { .. } => 0x41,
            Frame::DeltaAck { .. } => 0x42,
            Frame::ReplicaStatusReq => 0x43,
            Frame::ReplicaStatusRep { .. } => 0x44,
            Frame::Tagged { .. } => 0x50,
            Frame::Batch(_) => 0x51,
            Frame::BatchRep(_) => 0x52,
            Frame::Error(_) => 0x3F,
        }
    }

    /// A static label for the frame type, used as the span class when a
    /// server records a serve-stage span for this request.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::UnionSliceReq { .. } => "UnionSliceReq",
            Frame::ProbeExactReq { .. } => "ProbeExactReq",
            Frame::StoreLenReq { .. } => "StoreLenReq",
            Frame::RecordReq { .. } => "RecordReq",
            Frame::TriggerReq { .. } => "TriggerReq",
            Frame::StoreLenWaveReq { .. } => "StoreLenWaveReq",
            Frame::FilterWaveReq { .. } => "FilterWaveReq",
            Frame::TopKWaveReq { .. } => "TopKWaveReq",
            Frame::SizesWaveReq { .. } => "SizesWaveReq",
            Frame::HorizonReq => "HorizonReq",
            Frame::StatsScrapeReq => "StatsScrapeReq",
            Frame::TraceScrapeReq => "TraceScrapeReq",
            Frame::UnionSliceRep(_) => "UnionSliceRep",
            Frame::ProbeExactRep(_) => "ProbeExactRep",
            Frame::StoreLenRep(_) => "StoreLenRep",
            Frame::RecordRep(_) => "RecordRep",
            Frame::TriggerRep(_) => "TriggerRep",
            Frame::StoreLenWaveRep(_) => "StoreLenWaveRep",
            Frame::FilterWaveRep(_) => "FilterWaveRep",
            Frame::TopKWaveRep(_) => "TopKWaveRep",
            Frame::SizesWaveRep(_) => "SizesWaveRep",
            Frame::HorizonRep(_) => "HorizonRep",
            Frame::StatsScrapeRep(_) => "StatsScrapeRep",
            Frame::TraceScrapeRep(_) => "TraceScrapeRep",
            Frame::QueryReq(_) => "QueryReq",
            Frame::QueryRep(_) => "QueryRep",
            Frame::SubscribeReq { .. } => "SubscribeReq",
            Frame::SubscribeRep { .. } => "SubscribeRep",
            Frame::IncidentPush { .. } => "IncidentPush",
            Frame::WindowPush(_) => "WindowPush",
            Frame::DeltaAppend { .. } => "DeltaAppend",
            Frame::SnapshotInstall { .. } => "SnapshotInstall",
            Frame::DeltaAck { .. } => "DeltaAck",
            Frame::ReplicaStatusReq => "ReplicaStatusReq",
            Frame::ReplicaStatusRep { .. } => "ReplicaStatusRep",
            Frame::Tagged { .. } => "Tagged",
            Frame::Batch(_) => "Batch",
            Frame::BatchRep(_) => "BatchRep",
            Frame::Error(_) => "Error",
        }
    }

    /// The frame's payload bytes (everything after the tag byte).
    fn payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.enc_payload(&mut e);
        e.into_bytes()
    }

    fn enc_payload(&self, e: &mut Enc) {
        match self {
            Frame::Hello { shard, n_shards } => {
                e.put_u16(*shard);
                e.put_u16(*n_shards);
            }
            Frame::UnionSliceReq { switch, range } => {
                switch.enc(e);
                range.enc(e);
            }
            Frame::UnionSliceRep(v) => match v {
                None => e.put_u8(0),
                Some(b) => {
                    e.put_u8(1);
                    enc_bitset_runs(b, e);
                }
            },
            Frame::ProbeExactReq {
                switch,
                addr,
                epoch,
            } => {
                switch.enc(e);
                e.put_u64(*addr);
                e.put_u64(*epoch);
            }
            Frame::ProbeExactRep(v) => v.enc(e),
            Frame::StoreLenReq { host } => host.enc(e),
            Frame::StoreLenRep(v) => v.enc(e),
            Frame::RecordReq { host, flow } | Frame::TriggerReq { host, flow } => {
                host.enc(e);
                flow.enc(e);
            }
            Frame::RecordRep(v) => v.enc(e),
            Frame::TriggerRep(v) => v.enc(e),
            Frame::StoreLenWaveReq { hosts } => enc_ids_delta(hosts, e),
            Frame::StoreLenWaveRep(v) => enc_opt_u64s(v, e),
            Frame::FilterWaveReq {
                switch,
                range,
                hosts,
            } => {
                switch.enc(e);
                range.enc(e);
                enc_ids_delta(hosts, e);
            }
            Frame::FilterWaveRep(v) => v.enc(e),
            Frame::TopKWaveReq { switch, k, hosts } => {
                switch.enc(e);
                e.put_varint(*k);
                enc_ids_delta(hosts, e);
            }
            Frame::TopKWaveRep(v) => v.enc(e),
            Frame::SizesWaveReq { switch, hosts } => {
                switch.enc(e);
                enc_ids_delta(hosts, e);
            }
            Frame::SizesWaveRep(v) => v.enc(e),
            Frame::HorizonReq
            | Frame::StatsScrapeReq
            | Frame::TraceScrapeReq
            | Frame::ReplicaStatusReq => {}
            Frame::HorizonRep(v) => e.put_u64(*v),
            Frame::StatsScrapeRep(v) => v.enc(e),
            Frame::TraceScrapeRep(v) => v.enc(e),
            Frame::QueryReq(v) => v.enc(e),
            Frame::QueryRep(v) => v.enc(e),
            Frame::SubscribeReq {
                query,
                resume_after,
            } => {
                query.enc(e);
                e.put_u64(*resume_after);
            }
            Frame::SubscribeRep { sub, available } => {
                e.put_u64(sub.0);
                e.put_u64(*available);
            }
            Frame::IncidentPush { seq, incident } => {
                e.put_u64(*seq);
                incident.enc(e);
            }
            Frame::WindowPush(v) => v.enc(e),
            Frame::DeltaAppend { shard, seq, record } => {
                e.put_u16(*shard);
                e.put_u64(*seq);
                record.enc(e);
            }
            Frame::SnapshotInstall { shard, seq, view } => {
                e.put_u16(*shard);
                e.put_u64(*seq);
                e.put_bytes(view);
            }
            Frame::DeltaAck { shard, applied } | Frame::ReplicaStatusRep { shard, applied } => {
                e.put_u16(*shard);
                e.put_u64(*applied);
            }
            Frame::Tagged { req_id, ctx, inner } => {
                e.put_u32(*req_id);
                enc_ctx(ctx, e);
                e.put_u8(inner.tag());
                inner.enc_payload(e);
            }
            Frame::Batch(entries) => {
                e.put_varint(entries.len() as u64);
                for (id, ctx, f) in entries {
                    e.put_u32(*id);
                    enc_ctx(ctx, e);
                    enc_entry(f, e);
                }
            }
            Frame::BatchRep(entries) => {
                e.put_varint(entries.len() as u64);
                for (id, f) in entries {
                    e.put_u32(*id);
                    enc_entry(f, e);
                }
            }
            Frame::Error(err) => err.enc(e),
        }
    }

    /// Serializes the whole frame (length prefix + tag + payload) into a
    /// buffer — callers holding a stream lock write it in one syscall so
    /// concurrent pushers never interleave partial frames.
    pub fn to_frame_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        write_frame(&mut out, self.tag(), &self.payload())?;
        Ok(out)
    }

    /// [`Frame::to_frame_bytes`] into a caller-owned scratch buffer: the
    /// buffer is cleared and refilled, keeping its allocation, so a
    /// steady-state sender stops allocating per frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        telemetry::frame::frame_into(out, self.tag(), &self.payload())
    }

    /// Writes the frame to `w`.
    pub fn write(&self, w: &mut impl Write) -> Result<(), WireError> {
        write_frame(w, self.tag(), &self.payload())
    }

    /// Reads one frame from `r`, bounding the accepted size by `max`.
    pub fn read(r: &mut impl Read, max: u32) -> Result<Frame, WireError> {
        let (tag, payload) = read_frame(r, max)?;
        Self::decode(tag, &payload)
    }

    /// Decodes a frame from its tag and payload. Any trailing bytes in
    /// the payload are a protocol error.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut budget = COMPACT_BITSET_BUDGET;
        Self::decode_in(tag, payload, &mut budget)
    }

    /// Decodes one envelope entry. Envelope tags (`0x50..=0x52`) are
    /// refused: envelopes never nest, which also bounds decode recursion
    /// at one level.
    fn decode_entry(tag: u8, payload: &[u8], budget: &mut usize) -> Result<Frame, WireError> {
        if (0x50..=0x52).contains(&tag) {
            return Err(WireError::BadTag(tag));
        }
        Self::decode_in(tag, payload, budget)
    }

    /// [`Frame::decode`] drawing bitsets from `budget`, the enclosing
    /// frame's shared [`COMPACT_BITSET_BUDGET`] remainder.
    fn decode_in(tag: u8, payload: &[u8], budget: &mut usize) -> Result<Frame, WireError> {
        let mut d = Dec::new(payload);
        let frame = match tag {
            0x01 => Frame::Hello {
                shard: d.get_u16()?,
                n_shards: d.get_u16()?,
            },
            0x10 => Frame::UnionSliceReq {
                switch: NodeId::dec(&mut d)?,
                range: EpochRange::dec(&mut d)?,
            },
            0x11 => Frame::ProbeExactReq {
                switch: NodeId::dec(&mut d)?,
                addr: d.get_u64()?,
                epoch: d.get_u64()?,
            },
            0x12 => Frame::StoreLenReq {
                host: NodeId::dec(&mut d)?,
            },
            0x13 => Frame::RecordReq {
                host: NodeId::dec(&mut d)?,
                flow: FlowId::dec(&mut d)?,
            },
            0x14 => Frame::TriggerReq {
                host: NodeId::dec(&mut d)?,
                flow: FlowId::dec(&mut d)?,
            },
            0x15 => Frame::StoreLenWaveReq {
                hosts: dec_ids_delta(&mut d)?,
            },
            0x16 => Frame::FilterWaveReq {
                switch: NodeId::dec(&mut d)?,
                range: EpochRange::dec(&mut d)?,
                hosts: dec_ids_delta(&mut d)?,
            },
            0x17 => Frame::TopKWaveReq {
                switch: NodeId::dec(&mut d)?,
                k: d.get_varint()?,
                hosts: dec_ids_delta(&mut d)?,
            },
            0x18 => Frame::SizesWaveReq {
                switch: NodeId::dec(&mut d)?,
                hosts: dec_ids_delta(&mut d)?,
            },
            0x19 => Frame::HorizonReq,
            0x1A => Frame::StatsScrapeReq,
            0x1B => Frame::TraceScrapeReq,
            0x20 => Frame::UnionSliceRep(match d.get_u8()? {
                0 => None,
                1 => Some(dec_bitset_runs(&mut d, budget)?),
                t => return Err(WireError::BadTag(t)),
            }),
            0x21 => Frame::ProbeExactRep(Option::dec(&mut d)?),
            0x22 => Frame::StoreLenRep(Option::dec(&mut d)?),
            0x23 => Frame::RecordRep(Option::dec(&mut d)?),
            0x24 => Frame::TriggerRep(Option::dec(&mut d)?),
            0x25 => Frame::StoreLenWaveRep(dec_opt_u64s(&mut d)?),
            0x26 => Frame::FilterWaveRep(Vec::dec(&mut d)?),
            0x27 => Frame::TopKWaveRep(Vec::dec(&mut d)?),
            0x28 => Frame::SizesWaveRep(Vec::dec(&mut d)?),
            0x29 => Frame::HorizonRep(d.get_u64()?),
            0x2A => Frame::StatsScrapeRep(Vec::dec(&mut d)?),
            0x2B => Frame::TraceScrapeRep(Vec::dec(&mut d)?),
            0x30 => Frame::QueryReq(QueryRequest::dec(&mut d)?),
            0x31 => Frame::QueryRep(QueryResponse::dec(&mut d)?),
            0x32 => Frame::SubscribeReq {
                query: StandingQuery::dec(&mut d)?,
                resume_after: d.get_u64()?,
            },
            0x33 => Frame::SubscribeRep {
                sub: SubscriptionId(d.get_u64()?),
                available: d.get_u64()?,
            },
            0x34 => Frame::IncidentPush {
                seq: d.get_u64()?,
                incident: Incident::dec(&mut d)?,
            },
            0x35 => Frame::WindowPush(WindowSummary::dec(&mut d)?),
            0x40 => Frame::DeltaAppend {
                shard: d.get_u16()?,
                seq: d.get_u64()?,
                record: DeltaRecord::dec(&mut d)?,
            },
            0x41 => Frame::SnapshotInstall {
                shard: d.get_u16()?,
                seq: d.get_u64()?,
                view: d.get_bytes()?.to_vec(),
            },
            0x42 => Frame::DeltaAck {
                shard: d.get_u16()?,
                applied: d.get_u64()?,
            },
            0x43 => Frame::ReplicaStatusReq,
            0x44 => Frame::ReplicaStatusRep {
                shard: d.get_u16()?,
                applied: d.get_u64()?,
            },
            0x50 => {
                let req_id = d.get_u32()?;
                let (ctx, tag) = dec_ctx_then_tag(&mut d)?;
                let inner = Frame::decode_entry(tag, d.take_rest(), budget)?;
                Frame::Tagged {
                    req_id,
                    ctx,
                    inner: Box::new(inner),
                }
            }
            0x51 => {
                let count = dec_entry_count(&mut d)?;
                // The entries share `budget`, so N entries cannot decode
                // into N maximal bitsets.
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = d.get_u32()?;
                    let (ctx, etag) = dec_ctx_then_tag(&mut d)?;
                    let len = d.get_varint()? as usize;
                    let payload = d.get_raw(len)?;
                    entries.push((id, ctx, Frame::decode_entry(etag, payload, budget)?));
                }
                Frame::Batch(entries)
            }
            0x52 => {
                let count = dec_entry_count(&mut d)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = d.get_u32()?;
                    let etag = d.get_u8()?;
                    let len = d.get_varint()? as usize;
                    let payload = d.get_raw(len)?;
                    entries.push((id, Frame::decode_entry(etag, payload, budget)?));
                }
                Frame::BatchRep(entries)
            }
            0x3F => Frame::Error(WireError::dec(&mut d)?),
            t => return Err(WireError::BadTag(t)),
        };
        d.finish()?;
        Ok(frame)
    }
}
