//! The owner side of the replication wire: one [`ReplicaWriter`] per
//! replica connection.
//!
//! The writer is deliberately thin — it moves [`Frame::DeltaAppend`] /
//! [`Frame::SnapshotInstall`] frames over the same retrying multiplexed
//! link the front-end uses towards its shards, and surfaces the
//! replica's typed answers ([`WireError::SeqGap`] when the replica's log
//! position does not match, transport errors with peer context
//! attached). Deciding *what* to do about a gap — replay the missing
//! suffix from the log, or re-bootstrap — is policy, and lives in
//! `replicaplane`'s publisher.

use std::net::SocketAddr;
use std::time::Instant;

use obsplane::TraceContext;
use queryplane::DeltaRecord;
use telemetry::frame::WireError;

use crate::mux::Link;
use crate::proto::Frame;
use crate::retry::RetryPolicy;

/// One replica's replication connection: greeting verification,
/// sequenced appends, snapshot bootstrap, and a status probe. Reconnects
/// under the given [`RetryPolicy`] on transport failure.
pub struct ReplicaWriter {
    shard: usize,
    link: Link,
}

impl ReplicaWriter {
    /// Dials `addr` and verifies the greeting names shard `shard`.
    pub fn connect(
        shard: usize,
        addr: SocketAddr,
        max_frame: u32,
        retry: RetryPolicy,
    ) -> Result<Self, WireError> {
        Ok(ReplicaWriter {
            shard,
            link: Link::connect(shard, vec![addr], max_frame, retry, None)?,
        })
    }

    /// The replica this writer feeds.
    pub fn peer(&self) -> SocketAddr {
        self.link.active_addr()
    }

    fn expect_ack(&self, reply: Frame) -> Result<u64, WireError> {
        match reply {
            Frame::DeltaAck { shard, applied } if shard as usize == self.shard => Ok(applied),
            other => Err(WireError::Remote(format!(
                "expected DeltaAck from {}, got frame {:#04x}",
                self.peer(),
                other.tag()
            ))),
        }
    }

    /// Appends one sequenced record. `Ok(applied)` on success;
    /// `Err(SeqGap { expected, .. })` when the replica's log position is
    /// elsewhere (the caller replays from `expected` or bootstraps).
    pub fn append(&self, seq: u64, record: &DeltaRecord) -> Result<u64, WireError> {
        self.append_traced(seq, record, None)
    }

    /// [`ReplicaWriter::append`] carrying a trace context in the
    /// envelope, so the replica's apply-stage span joins the owner's
    /// replication trace.
    pub fn append_traced(
        &self,
        seq: u64,
        record: &DeltaRecord,
        ctx: Option<TraceContext>,
    ) -> Result<u64, WireError> {
        let req = Frame::DeltaAppend {
            shard: self.shard as u16,
            seq,
            record: record.clone(),
        };
        let (reply, _) = self.link.call(&req, ctx)?;
        self.expect_ack(reply)
    }

    /// Installs a full encoded snapshot slice at `seq` — the bootstrap
    /// path for a fresh or fallen-behind replica. Returns the install
    /// wall-clock alongside the acked seq (the publisher's bootstrap
    /// histogram feeds from it).
    pub fn install(
        &self,
        seq: u64,
        view: Vec<u8>,
    ) -> Result<(u64, std::time::Duration), WireError> {
        let started = Instant::now();
        let req = Frame::SnapshotInstall {
            shard: self.shard as u16,
            seq,
            view,
        };
        let (reply, _) = self.link.call(&req, None)?;
        Ok((self.expect_ack(reply)?, started.elapsed()))
    }

    /// The replica's applied seq.
    pub fn status(&self) -> Result<u64, WireError> {
        match self.link.call(&Frame::ReplicaStatusReq, None)?.0 {
            Frame::ReplicaStatusRep { shard, applied } if shard as usize == self.shard => {
                Ok(applied)
            }
            other => Err(WireError::Remote(format!(
                "expected ReplicaStatusRep from {}, got frame {:#04x}",
                self.peer(),
                other.tag()
            ))),
        }
    }
}
