//! Sampled NetFlow (the paper's reference \[7\]): a switch app that samples
//! one in N packets into a flow cache.
//!
//! §2.1's claim, which `spexp motivation` quantifies: "packet sampling
//! based techniques would miss microbursts due to undersampling" — a 1 ms
//! burst contributes only ~80 packets at 1 GbE, so at NetFlow-typical
//! sampling rates (1/100 … 1/1000) most burst flows leave no record at
//! all, and byte estimates for the ones that do are wildly off.

use std::collections::HashMap;

use netsim::apps::{AppCtx, EgressInfo, SwitchApp};
use netsim::packet::{FlowId, NodeId, Packet};
use netsim::rng::DetRng;
use netsim::time::SimTime;

/// One flow-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFlowRecord {
    pub flow: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Sampled packet count (scale by the sampling rate to estimate).
    pub sampled_pkts: u64,
    /// Sampled payload bytes.
    pub sampled_bytes: u64,
    pub first_seen: SimTime,
    pub last_seen: SimTime,
}

impl NetFlowRecord {
    /// Byte estimate after scaling by the sampling rate.
    pub fn estimated_bytes(&self, sample_one_in: u64) -> u64 {
        self.sampled_bytes * sample_one_in
    }
}

/// The sampling flow cache of one switch.
#[derive(Debug)]
pub struct SampledNetFlow {
    /// Sample one packet in `sample_one_in`.
    pub sample_one_in: u64,
    cache: HashMap<FlowId, NetFlowRecord>,
    rng: DetRng,
    /// Packets offered (sampled or not).
    pub offered: u64,
}

impl SampledNetFlow {
    pub fn new(sample_one_in: u64, seed: u64) -> Self {
        assert!(sample_one_in >= 1);
        SampledNetFlow {
            sample_one_in,
            cache: HashMap::new(),
            rng: DetRng::new(seed),
            offered: 0,
        }
    }

    /// Offers one packet to the sampler.
    pub fn observe(&mut self, now: SimTime, pkt: &Packet) {
        self.offered += 1;
        if self.sample_one_in > 1 && self.rng.next_below(self.sample_one_in) != 0 {
            return;
        }
        let rec = self.cache.entry(pkt.flow).or_insert(NetFlowRecord {
            flow: pkt.flow,
            src: pkt.src,
            dst: pkt.dst,
            sampled_pkts: 0,
            sampled_bytes: 0,
            first_seen: now,
            last_seen: now,
        });
        rec.sampled_pkts += 1;
        rec.sampled_bytes += pkt.payload as u64;
        rec.last_seen = now;
    }

    /// The record for a flow, if any packet of it was sampled.
    pub fn record(&self, flow: FlowId) -> Option<&NetFlowRecord> {
        self.cache.get(&flow)
    }

    /// Flows with at least one sampled packet.
    pub fn flows_seen(&self) -> usize {
        self.cache.len()
    }

    /// Flows whose records overlap `[from, to]`.
    pub fn flows_active_in(&self, from: SimTime, to: SimTime) -> Vec<&NetFlowRecord> {
        let mut v: Vec<&NetFlowRecord> = self
            .cache
            .values()
            .filter(|r| r.first_seen <= to && r.last_seen >= from)
            .collect();
        v.sort_by_key(|r| r.flow);
        v
    }
}

/// Simulator adapter sharing the cache with the experiment.
pub struct SampledNetFlowApp {
    pub state: std::rc::Rc<std::cell::RefCell<SampledNetFlow>>,
}

impl SampledNetFlowApp {
    pub fn new(
        sample_one_in: u64,
        seed: u64,
    ) -> (Self, std::rc::Rc<std::cell::RefCell<SampledNetFlow>>) {
        let state = std::rc::Rc::new(std::cell::RefCell::new(SampledNetFlow::new(
            sample_one_in,
            seed,
        )));
        (
            SampledNetFlowApp {
                state: state.clone(),
            },
            state,
        )
    }
}

impl SwitchApp for SampledNetFlowApp {
    fn on_forward(&mut self, ctx: &mut AppCtx, pkt: &mut Packet, _egress: EgressInfo) {
        self.state.borrow_mut().observe(ctx.now, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{Priority, Protocol};

    fn pkt(flow: u64, payload: u32) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(flow),
            src: NodeId(0),
            dst: NodeId(1),
            protocol: Protocol::Udp,
            priority: Priority::LOW,
            payload,
            tcp: None,
            tags: Vec::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn unsampled_sees_everything_exactly() {
        let mut nf = SampledNetFlow::new(1, 7);
        for i in 0..100 {
            nf.observe(SimTime::from_us(i), &pkt(1, 1000));
        }
        let r = nf.record(FlowId(1)).unwrap();
        assert_eq!(r.sampled_pkts, 100);
        assert_eq!(r.estimated_bytes(1), 100_000);
    }

    #[test]
    fn sampling_rate_roughly_respected() {
        let mut nf = SampledNetFlow::new(100, 7);
        for i in 0..100_000u64 {
            nf.observe(SimTime::from_us(i), &pkt(i % 50, 1000));
        }
        let sampled: u64 = (0..50)
            .filter_map(|f| nf.record(FlowId(f)))
            .map(|r| r.sampled_pkts)
            .sum();
        // Expect ~1000 of 100k.
        assert!((700..1400).contains(&sampled), "sampled {sampled}");
    }

    #[test]
    fn short_bursts_usually_missed_at_coarse_sampling() {
        // 80-packet burst flows (a 1 ms burst at 1 GbE) at 1/1000 sampling:
        // each flow is seen with p = 1-(1-1/1000)^80 ~ 7.7%.
        let mut nf = SampledNetFlow::new(1_000, 42);
        let bursts = 100u64;
        for f in 0..bursts {
            for _ in 0..80 {
                nf.observe(SimTime::from_us(f), &pkt(f, 1458));
            }
        }
        let seen = nf.flows_seen() as u64;
        assert!(
            seen < bursts / 4,
            "coarse sampling saw {seen}/{bursts} burst flows"
        );
    }

    #[test]
    fn active_window_filter() {
        let mut nf = SampledNetFlow::new(1, 1);
        nf.observe(SimTime::from_ms(1), &pkt(1, 10));
        nf.observe(SimTime::from_ms(5), &pkt(1, 10));
        nf.observe(SimTime::from_ms(9), &pkt(2, 10));
        assert_eq!(
            nf.flows_active_in(SimTime::from_ms(4), SimTime::from_ms(6))
                .len(),
            1
        );
        assert_eq!(
            nf.flows_active_in(SimTime::from_ms(0), SimTime::from_ms(10))
                .len(),
            2
        );
    }
}
