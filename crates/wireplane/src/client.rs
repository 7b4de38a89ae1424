//! The blocking client library.
//!
//! A [`WireClient`] is a typed wrapper over one [`MuxConn`] to the
//! front-end: [`WireClient::query`] for one-shot requests,
//! [`WireClient::subscribe`] + [`WireClient::next_event`] for the
//! standing-query stream. Pushed frames ([`Frame::IncidentPush`],
//! [`Frame::WindowPush`]) arrive under the reserved push id, interleaved
//! with replies; the connection's reader queues them apart from the
//! replies, so a blocking `query()` concurrent with a closing window
//! never loses a streamed incident.
//!
//! Reconnection is the *caller's* move (drop the client, connect a new
//! one) because resumption needs the caller's consumed-incident cursor:
//! pass the number of incidents already seen as `resume_after` and the
//! front-end replays exactly the rest — the re-derived log is
//! bit-identical, with zero duplicates and zero drops.

use std::net::SocketAddr;
use std::sync::Arc;

use obsplane::RegistrySnapshot;
use streamplane::{Incident, StandingQuery, SubscriptionId};
use switchpointer::query::{QueryRequest, QueryResponse};
use telemetry::frame::WireError;

use crate::mux::MuxConn;
use crate::proto::{Frame, WindowSummary, WireSpan, FRONT_ROLE};

/// A streamed frame delivered to a subscribed client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// One incident, with its per-topic sequence number (the resume
    /// cursor).
    Incident { seq: u64, incident: Incident },
    /// A closed window's digest.
    Window(WindowSummary),
}

/// A blocking client connection to the front-end.
pub struct WireClient {
    mux: Arc<MuxConn>,
}

impl WireClient {
    /// Dials the front-end and verifies its greeting. Transport failures
    /// carry the dialed address, so an error that bubbles through retry
    /// rotation still names the peer that refused.
    pub fn connect(addr: SocketAddr, max_frame: u32) -> Result<Self, WireError> {
        let (mux, shard, _) = MuxConn::connect(addr, max_frame)?;
        if shard != FRONT_ROLE {
            return Err(WireError::Remote(format!(
                "dialed the front-end but shard {shard} answered"
            )));
        }
        Ok(WireClient { mux })
    }

    /// One exchange: a typed [`Frame::Error`] answer becomes `Err`, and
    /// `want` extracts the expected reply (anything else is a protocol
    /// error naming `what` was expected).
    fn call<T>(
        &self,
        req: &Frame,
        what: &str,
        want: impl FnOnce(Frame) -> Option<T>,
    ) -> Result<T, WireError> {
        match self.mux.call(req)? {
            Frame::Error(e) => Err(e),
            reply => {
                let tag = reply.tag();
                want(reply).ok_or_else(|| {
                    WireError::Remote(format!("expected {what}, got frame {tag:#04x}"))
                })
            }
        }
    }

    /// Executes one query and blocks for its (bit-identical) response.
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryResponse, WireError> {
        self.call(&Frame::QueryReq(*req), "a query reply", |f| match f {
            Frame::QueryRep(resp) => Some(resp),
            _ => None,
        })
    }

    /// Pulls the live cluster's labelled registry snapshots: `("front",
    /// ..)` then one `("shard{i}", ..)` per shard, each exactly the
    /// owning process's registry at scrape time (the scrape itself is
    /// never recorded anywhere). Merge them with
    /// [`RegistrySnapshot::merge`] for cluster-wide histograms.
    pub fn scrape_stats(&mut self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        self.call(
            &Frame::StatsScrapeReq,
            "a stats scrape reply",
            |f| match f {
                Frame::StatsScrapeRep(v) => Some(v),
                _ => None,
            },
        )
    }

    /// Pulls the live cluster's retained spans: `("front", ..)` then one
    /// `("shard{i}", ..)` per shard, each the owning process's ring plus
    /// its slow-query exemplars at scrape time. Side-effect-free like
    /// [`WireClient::scrape_stats`] — scraping traces never makes
    /// traces. Feed the result to [`crate::traces::assemble`] to rebuild
    /// cross-process span trees by trace id.
    pub fn scrape_traces(&mut self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        self.call(
            &Frame::TraceScrapeReq,
            "a trace scrape reply",
            |f| match f {
                Frame::TraceScrapeRep(v) => Some(v),
                _ => None,
            },
        )
    }

    /// Subscribes to a standing query. `resume_after` is the number of
    /// this topic's incidents the caller already consumed (0 for a fresh
    /// subscription); the front-end replays the rest immediately.
    /// Returns the subscription id and the incidents available at
    /// subscribe time.
    pub fn subscribe(
        &mut self,
        query: StandingQuery,
        resume_after: u64,
    ) -> Result<(SubscriptionId, u64), WireError> {
        let req = Frame::SubscribeReq {
            query,
            resume_after,
        };
        self.call(&req, "a subscribe ack", |f| match f {
            Frame::SubscribeRep { sub, available } => Some((sub, available)),
            _ => None,
        })
    }

    /// Blocks for the next streamed event, in push order.
    pub fn next_event(&mut self) -> Result<WireEvent, WireError> {
        match self.mux.next_push()? {
            Frame::IncidentPush { seq, incident } => Ok(WireEvent::Incident { seq, incident }),
            Frame::WindowPush(s) => Ok(WireEvent::Window(s)),
            Frame::Error(e) => Err(e),
            other => Err(WireError::Remote(format!(
                "unexpected frame {:#04x} on the stream",
                other.tag()
            ))),
        }
    }

    /// Blocks until the next *incident* (skipping window digests).
    pub fn next_incident(&mut self) -> Result<(u64, Incident), WireError> {
        loop {
            if let WireEvent::Incident { seq, incident } = self.next_event()? {
                return Ok((seq, incident));
            }
        }
    }

    /// Drains events until a window digest arrives, returning the
    /// incidents seen on the way and the digest. The natural "consume
    /// one closed window" client loop.
    pub fn drain_window(&mut self) -> Result<(Vec<(u64, Incident)>, WindowSummary), WireError> {
        let mut incidents = Vec::new();
        loop {
            match self.next_event()? {
                WireEvent::Incident { seq, incident } => incidents.push((seq, incident)),
                WireEvent::Window(s) => return Ok((incidents, s)),
            }
        }
    }
}
