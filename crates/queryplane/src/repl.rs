//! Wire-shippable snapshot deltas — the payload of the replication log.
//!
//! [`Snapshot::apply_delta`](crate::Snapshot::apply_delta) refreshes a
//! co-located snapshot from the live analyzer and reports only *metadata*
//! about what changed. A standby replica on the far side of a TCP
//! connection needs the changed *data*: the journaled variant
//! ([`Snapshot::apply_delta_journaled`](crate::Snapshot::apply_delta_journaled))
//! additionally captures every pointer patch and every rebuilt host shard
//! as a [`DeltaRecord`] — a self-contained, byte-stable description that,
//! applied via [`Snapshot::apply_record`](crate::Snapshot::apply_record)
//! to a snapshot at the same baseline, reproduces the owner's state
//! bit-for-bit (`==`). Retention sweeps need no special casing: a sweep
//! mutates live components, so its reclamation rides the next delta as
//! pointer-archive retirement and `FullRescan` store rebuilds.
//!
//! The owner publishes one sliced record per directory shard
//! ([`DeltaRecord::slice_for`]): pointer patches are the cheap replicated
//! layer every shard carries (the paper's MPHF-plus-pointer-bits
//! argument), while each host patch travels only to the shard that owns
//! the host. Records are stamped with a per-shard sequence number at the
//! transport layer (`wireplane`'s `Frame::DeltaAppend`); this module owns
//! the payload codec, which never panics on malformed input.

use std::collections::{BTreeMap, BTreeSet};

use netsim::packet::{FlowId, NodeId, Priority, Protocol};
use netsim::time::SimTime;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::pointer::PointerPatch;
use telemetry::frame::{Dec, Enc, WireError};

use crate::snapshot::ShardedHostStore;

/// One switch's pointer advance: the patch to apply to the replica's
/// hierarchy. The post-apply baseline is derived on the replica from the
/// patched hierarchy itself (`(version, archive_logical_len)`), so it
/// does not travel.
#[derive(Debug, Clone)]
pub struct SwitchPatch {
    pub switch: NodeId,
    pub patch: PointerPatch,
}

/// How one host's frozen store advanced since the baseline.
#[derive(Debug, Clone)]
pub enum HostPatchKind {
    /// Only the trigger log moved (a raise or a retention trim).
    TriggersOnly { triggers: Vec<TriggerEvent> },
    /// The incremental path: the listed record shards were rebuilt;
    /// everything else is untouched. Records arrive in the same ascending
    /// flow-id order the owner's rebuild produced, so pushing them in
    /// order reproduces the secondary index bit-for-bit.
    Shards {
        /// `(shard index, that shard's full record vector)`.
        dirty: Vec<(u64, Vec<FlowRecord>)>,
        triggers: Vec<TriggerEvent>,
        /// The live store's record count after the advance.
        total: u64,
    },
    /// An eviction invalidated the per-flow journal: the whole frozen
    /// store was rebuilt and travels wholesale.
    Full { store: ShardedHostStore },
}

/// One host's advance plus its new freeze baseline `(store version,
/// trigger version)` — replicas cannot derive these (the counters live in
/// the owner's live components), so they travel.
#[derive(Debug, Clone)]
pub struct HostPatch {
    pub host: NodeId,
    pub new_base: (u64, u64),
    pub kind: HostPatchKind,
}

/// Everything one [`Snapshot::apply_delta_journaled`](crate::Snapshot::apply_delta_journaled)
/// advance changed, as shippable data. Applying it to a snapshot at the
/// same baseline (via [`Snapshot::apply_record`](crate::Snapshot::apply_record))
/// reproduces the owner's post-advance state.
#[derive(Debug, Clone, Default)]
pub struct DeltaRecord {
    /// The owner's epoch horizon after the advance.
    pub epoch_horizon: u64,
    pub switches: Vec<SwitchPatch>,
    pub hosts: Vec<HostPatch>,
}

impl DeltaRecord {
    /// Did the advance change anything?
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.hosts.is_empty()
    }

    /// The slice of this record one directory shard consumes: all switch
    /// patches (the replicated pointer layer), host patches restricted to
    /// `keep` — the host set the shard's view was sliced with at capture.
    pub fn slice_for(&self, keep: &BTreeSet<NodeId>) -> DeltaRecord {
        DeltaRecord {
            epoch_horizon: self.epoch_horizon,
            switches: self.switches.clone(),
            hosts: self
                .hosts
                .iter()
                .filter(|p| keep.contains(&p.host))
                .cloned()
                .collect(),
        }
    }

    /// Encodes the record; the inverse of [`DeltaRecord::wire_dec`].
    pub fn wire_enc(&self, e: &mut Enc) {
        e.put_u64(self.epoch_horizon);
        e.put_usize(self.switches.len());
        for sp in &self.switches {
            e.put_u32(sp.switch.0);
            sp.patch.wire_enc(e);
        }
        e.put_usize(self.hosts.len());
        for hp in &self.hosts {
            e.put_u32(hp.host.0);
            e.put_u64(hp.new_base.0);
            e.put_u64(hp.new_base.1);
            match &hp.kind {
                HostPatchKind::TriggersOnly { triggers } => {
                    e.put_u8(0);
                    enc_triggers(e, triggers);
                }
                HostPatchKind::Shards {
                    dirty,
                    triggers,
                    total,
                } => {
                    e.put_u8(1);
                    e.put_usize(dirty.len());
                    for (s, recs) in dirty {
                        e.put_u64(*s);
                        e.put_usize(recs.len());
                        for r in recs {
                            enc_record(e, r);
                        }
                    }
                    enc_triggers(e, triggers);
                    e.put_u64(*total);
                }
                HostPatchKind::Full { store } => {
                    e.put_u8(2);
                    store.wire_enc(e);
                }
            }
        }
    }

    /// Decodes a record; never panics. Structural validity against a
    /// particular snapshot is checked at apply time.
    pub fn wire_dec(d: &mut Dec) -> Result<Self, WireError> {
        let epoch_horizon = d.get_u64()?;
        let n_sw = d.get_len()?;
        let mut switches = Vec::with_capacity(n_sw);
        for _ in 0..n_sw {
            switches.push(SwitchPatch {
                switch: NodeId(d.get_u32()?),
                patch: PointerPatch::wire_dec(d)?,
            });
        }
        let n_hosts = d.get_len()?;
        let mut hosts = Vec::with_capacity(n_hosts);
        for _ in 0..n_hosts {
            let host = NodeId(d.get_u32()?);
            let new_base = (d.get_u64()?, d.get_u64()?);
            let kind = match d.get_u8()? {
                0 => HostPatchKind::TriggersOnly {
                    triggers: dec_triggers(d)?,
                },
                1 => {
                    let n_dirty = d.get_len()?;
                    let mut dirty = Vec::with_capacity(n_dirty);
                    for _ in 0..n_dirty {
                        let s = d.get_u64()?;
                        let n_recs = d.get_len()?;
                        let mut recs = Vec::with_capacity(n_recs);
                        for _ in 0..n_recs {
                            recs.push(dec_record(d)?);
                        }
                        dirty.push((s, recs));
                    }
                    HostPatchKind::Shards {
                        dirty,
                        triggers: dec_triggers(d)?,
                        total: d.get_u64()?,
                    }
                }
                2 => HostPatchKind::Full {
                    store: ShardedHostStore::wire_dec(d)?,
                },
                t => return Err(WireError::BadTag(t)),
            };
            hosts.push(HostPatch {
                host,
                new_base,
                kind,
            });
        }
        Ok(DeltaRecord {
            epoch_horizon,
            switches,
            hosts,
        })
    }
}

// ---- record / trigger codecs ----------------------------------------------
//
// `wireplane` has its own `Wire` impls for these types (the orphan rule
// pins its trait there); the replication payload re-states the field
// codecs here so `queryplane` stays transport-agnostic. Both formats are
// plain little-endian field concatenation.

pub(crate) fn enc_record(e: &mut Enc, r: &FlowRecord) {
    e.put_u64(r.flow.0);
    e.put_u32(r.src.0);
    e.put_u32(r.dst.0);
    e.put_u8(match r.protocol {
        Protocol::Tcp => 0,
        Protocol::Udp => 1,
    });
    e.put_u8(r.priority.0);
    e.put_u64(r.bytes);
    e.put_u64(r.packets);
    e.put_usize(r.path.len());
    for n in &r.path {
        e.put_u32(n.0);
    }
    e.put_usize(r.epochs_at.len());
    for (sw, epochs) in &r.epochs_at {
        e.put_u32(sw.0);
        e.put_usize(epochs.len());
        for &ep in epochs {
            e.put_u64(ep);
        }
    }
    e.put_usize(r.bytes_per_epoch.len());
    for (&ep, &b) in &r.bytes_per_epoch {
        e.put_u64(ep);
        e.put_u64(b);
    }
    match r.link_vid {
        None => e.put_u8(0),
        Some(v) => {
            e.put_u8(1);
            e.put_u16(v);
        }
    }
}

pub(crate) fn dec_record(d: &mut Dec) -> Result<FlowRecord, WireError> {
    let flow = FlowId(d.get_u64()?);
    let src = NodeId(d.get_u32()?);
    let dst = NodeId(d.get_u32()?);
    let protocol = match d.get_u8()? {
        0 => Protocol::Tcp,
        1 => Protocol::Udp,
        t => return Err(WireError::BadTag(t)),
    };
    let priority = Priority(d.get_u8()?);
    let bytes = d.get_u64()?;
    let packets = d.get_u64()?;
    let n_path = d.get_len()?;
    let mut path = Vec::with_capacity(n_path);
    for _ in 0..n_path {
        path.push(NodeId(d.get_u32()?));
    }
    let n_at = d.get_len()?;
    let mut epochs_at = BTreeMap::new();
    for _ in 0..n_at {
        let sw = NodeId(d.get_u32()?);
        let n_ep = d.get_len()?;
        let mut epochs = BTreeSet::new();
        for _ in 0..n_ep {
            epochs.insert(d.get_u64()?);
        }
        epochs_at.insert(sw, epochs);
    }
    let n_bpe = d.get_len()?;
    let mut bytes_per_epoch = BTreeMap::new();
    for _ in 0..n_bpe {
        let ep = d.get_u64()?;
        bytes_per_epoch.insert(ep, d.get_u64()?);
    }
    let link_vid = match d.get_u8()? {
        0 => None,
        1 => Some(d.get_u16()?),
        t => return Err(WireError::BadTag(t)),
    };
    Ok(FlowRecord {
        flow,
        src,
        dst,
        protocol,
        priority,
        bytes,
        packets,
        path,
        epochs_at,
        bytes_per_epoch,
        link_vid,
    })
}

pub(crate) fn enc_triggers(e: &mut Enc, triggers: &[TriggerEvent]) {
    e.put_usize(triggers.len());
    for t in triggers {
        e.put_u64(t.at.as_ns());
        e.put_u64(t.flow.0);
        e.put_u64(t.prev_bytes);
        e.put_u64(t.cur_bytes);
    }
}

pub(crate) fn dec_triggers(d: &mut Dec) -> Result<Vec<TriggerEvent>, WireError> {
    let n = d.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(TriggerEvent {
            at: SimTime::from_ns(d.get_u64()?),
            flow: FlowId(d.get_u64()?),
            prev_bytes: d.get_u64()?,
            cur_bytes: d.get_u64()?,
        });
    }
    Ok(out)
}
