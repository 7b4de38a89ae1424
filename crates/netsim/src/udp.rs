//! UDP traffic sources.
//!
//! The paper's contention generators are constant-bit-rate UDP flows that
//! blast for a fixed duration (1 ms bursts in Fig. 2, 400 µs in Fig. 3,
//! 10 ms in Fig. 4). A [`UdpSource`] emits back-to-back packets at a
//! configured rate between `start` and `start + duration`; the engine polls
//! it via [`UdpSource::emit`], which returns the next send instant.

use crate::packet::{FlowMeta, Priority};
use crate::time::{serialization_time, SimTime};

/// Specification of a CBR UDP flow.
#[derive(Debug, Clone, Copy)]
pub struct UdpFlowSpec {
    pub src: crate::packet::NodeId,
    pub dst: crate::packet::NodeId,
    pub priority: Priority,
    /// Transmission start time.
    pub start: SimTime,
    /// Transmission window length.
    pub duration: SimTime,
    /// Offered rate in bits/second (on-the-wire rate including headers).
    pub rate_bps: u64,
    /// Payload bytes per packet.
    pub payload_bytes: u32,
}

impl UdpFlowSpec {
    /// A full-line-rate burst: the configuration used for the paper's
    /// microburst generators (each burst flow individually saturates the
    /// link for its 1 ms lifetime).
    pub fn burst(
        src: crate::packet::NodeId,
        dst: crate::packet::NodeId,
        priority: Priority,
        start: SimTime,
        duration: SimTime,
        link_bps: u64,
    ) -> Self {
        UdpFlowSpec {
            src,
            dst,
            priority,
            start,
            duration,
            rate_bps: link_bps,
            payload_bytes: 1458,
        }
    }
}

/// Engine-side state of a UDP source.
#[derive(Debug)]
pub struct UdpSource {
    pub meta: FlowMeta,
    spec: UdpFlowSpec,
    /// Inter-packet gap implied by the rate.
    gap: SimTime,
    /// Packets emitted so far.
    pub sent_pkts: u64,
    pub sent_bytes: u64,
}

impl UdpSource {
    pub fn new(meta: FlowMeta, spec: UdpFlowSpec) -> Self {
        assert!(spec.rate_bps > 0, "UDP rate must be positive");
        assert!(spec.payload_bytes > 0, "UDP payload must be positive");
        // Wire bytes per packet at this payload size.
        let wire = crate::packet::BASE_HEADER_BYTES
            + spec.payload_bytes as u64
            + crate::packet::WIRE_OVERHEAD_BYTES;
        let gap = serialization_time(wire, spec.rate_bps);
        UdpSource {
            meta,
            spec,
            gap,
            sent_pkts: 0,
            sent_bytes: 0,
        }
    }

    /// First transmission instant.
    pub fn first_send(&self) -> SimTime {
        self.spec.start
    }

    /// Called by the engine at a send instant: records the emission and
    /// returns the next send time, or `None` once the window closes.
    pub fn emit(&mut self, now: SimTime) -> Option<SimTime> {
        self.sent_pkts += 1;
        self.sent_bytes += self.spec.payload_bytes as u64;
        let next = now + self.gap;
        if next < self.spec.start + self.spec.duration {
            Some(next)
        } else {
            None
        }
    }

    /// Payload size for emitted packets.
    pub fn payload_bytes(&self) -> u32 {
        self.spec.payload_bytes
    }

    /// The flow's configured end time.
    pub fn end_time(&self) -> SimTime {
        self.spec.start + self.spec.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Protocol};

    fn source(rate_bps: u64, duration_us: u64) -> UdpSource {
        let meta = FlowMeta {
            id: FlowId(9),
            src: NodeId(0),
            dst: NodeId(1),
            protocol: Protocol::Udp,
            priority: Priority::HIGH,
        };
        let spec = UdpFlowSpec {
            src: NodeId(0),
            dst: NodeId(1),
            priority: Priority::HIGH,
            start: SimTime::from_us(100),
            duration: SimTime::from_us(duration_us),
            rate_bps,
            payload_bytes: 1458,
        };
        UdpSource::new(meta, spec)
    }

    #[test]
    fn line_rate_burst_packet_count() {
        // 1 Gbps for 1 ms at 1536 wire bytes/pkt = 12.288 us/pkt ≈ 81 pkts.
        let mut s = source(1_000_000_000, 1_000);
        let mut t = s.first_send();
        let mut n = 0;
        loop {
            n += 1;
            match s.emit(t) {
                Some(next) => t = next,
                None => break,
            }
        }
        assert!((78..=84).contains(&n), "unexpected packet count {n}");
        assert_eq!(s.sent_pkts, n);
    }

    #[test]
    fn rate_controls_gap() {
        let fast = source(1_000_000_000, 1_000);
        let slow = source(100_000_000, 1_000);
        assert!(slow.gap.as_ns() > fast.gap.as_ns() * 9);
    }

    #[test]
    fn burst_constructor_saturates_link() {
        let spec = UdpFlowSpec::burst(
            NodeId(0),
            NodeId(1),
            Priority::HIGH,
            SimTime::ZERO,
            SimTime::from_ms(1),
            1_000_000_000,
        );
        assert_eq!(spec.rate_bps, 1_000_000_000);
        assert_eq!(spec.payload_bytes, 1458);
    }

    #[test]
    fn window_close_is_exclusive() {
        let mut s = source(1_000_000_000, 10);
        // One packet then the window has closed (gap 12.288us > 10us).
        assert_eq!(s.emit(s.first_send()), None);
    }
}
