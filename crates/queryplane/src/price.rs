//! Modelled pricing of an executed batch — a pure post-hoc function.
//!
//! [`price_batch`] replays a batch's execution traces, in submission
//! order, through a caller-owned [`PointerCache`] and the calibrated
//! [`CostModel`]: a retrieval round whose keys are all resident is billed
//! `CostModel::pointer_cache_hit` instead of its modelled retrieval, and
//! every (query, host) contact of the batch coalesces into one batched
//! RPC per host. The serving path never calls it; the paper figures, the
//! bench and the tests that want modelled numbers do. Answers are real,
//! latency is modelled — these are counters, not measurements.

use std::collections::BTreeMap;

use netsim::packet::NodeId;
use netsim::time::SimTime;
use switchpointer::cost::{BatchedHostLoad, CostModel};
use switchpointer::query::ExecutionTrace;

use crate::cache::{key_of, PointerCache};

/// Modelled cost of one query, sequential versus priced with the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Pointer retrieval + host query waves when executed alone (no cache,
    /// no batching) — the sequential analyzer's service latency.
    pub sequential: SimTime,
    /// The same work priced with the batch: cache-served retrieval rounds
    /// plus this query's share of the batched fan-out wave.
    pub batched: SimTime,
    /// Pointer keys served from the cache / retrieved from switches.
    pub pointer_hits: u32,
    pub pointer_misses: u32,
}

/// One batch's modelled price: per-query costs plus the batch totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchPrice {
    /// Per-query costs, in submission order.
    pub queries: Vec<QueryCost>,
    /// Pointer keys served from / missing the cache.
    pub pointer_hits: u64,
    pub pointer_misses: u64,
    /// Retrieval rounds fully served from cache (the ≈ 7.5 ms skips).
    pub rounds_skipped: u64,
    /// (query, host) request pairs before coalescing.
    pub host_requests: u64,
    /// Host RPCs issued after coalescing (one per distinct host).
    pub host_rpcs_issued: u64,
    /// Σ sequential service latency of all queries.
    pub sequential_total: SimTime,
    /// Σ modelled service latency under caching + batching.
    pub batched_total: SimTime,
}

impl BatchPrice {
    /// Fraction of pointer lookups served from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.pointer_hits + self.pointer_misses;
        if total == 0 {
            0.0
        } else {
            self.pointer_hits as f64 / total as f64
        }
    }

    /// Modelled speedup of caching + batching over sequential execution.
    pub fn modelled_speedup(&self) -> f64 {
        if self.batched_total.as_ns() == 0 {
            1.0
        } else {
            self.sequential_total.as_ns() as f64 / self.batched_total.as_ns() as f64
        }
    }

    /// Host RPCs avoided by fan-out coalescing.
    pub fn rpcs_saved(&self) -> u64 {
        self.host_requests - self.host_rpcs_issued
    }
}

/// Prices one batch of execution traces (submission order) against
/// `cost`, consulting and updating `cache` per retrieval round. A pure
/// function of its inputs: the same traces against the same cache state
/// price identically however the batch was executed.
pub fn price_batch(
    cost: &CostModel,
    cache: &mut PointerCache,
    traces: &[&ExecutionTrace],
) -> BatchPrice {
    // Coalesced per-host load across the whole batch. BTreeMap keeps
    // the host order deterministic.
    let mut per_host: BTreeMap<NodeId, BatchedHostLoad> = BTreeMap::new();
    // Host requests per query, for the wave shares.
    let mut requests_by_query: Vec<u64> = Vec::with_capacity(traces.len());
    let mut price = BatchPrice::default();
    let mut batched_pointer_total = SimTime::ZERO;

    for trace in traces {
        // Pointer rounds against the LRU cache, in submission order.
        let (mut hits, mut misses) = (0u32, 0u32);
        let mut batched_pointer = SimTime::ZERO;
        for round in &trace.pointer_rounds {
            let mut round_missed = false;
            for &(sw, range) in &round.keys {
                if cache.touch(key_of(sw, range)) {
                    hits += 1;
                } else {
                    misses += 1;
                    round_missed = true;
                }
            }
            if round.keys.is_empty() || round_missed {
                batched_pointer += round.modelled;
            } else {
                batched_pointer += cost.pointer_cache_hit;
                price.rounds_skipped += 1;
            }
        }
        batched_pointer_total += batched_pointer;

        // Sequential baseline: each wave billed alone; meanwhile fold the
        // wave's contacts into the batch-wide per-host load.
        let mut sequential_waves = SimTime::ZERO;
        let mut requests = 0u64;
        for wave in &trace.waves {
            let counts: Vec<usize> = wave.iter().map(|&(_, records)| records).collect();
            sequential_waves += cost.query_wave(wave.len(), &counts).total();
            requests += wave.len() as u64;
            for &(host, records) in wave {
                let load = per_host.entry(host).or_insert(BatchedHostLoad {
                    requests: 0,
                    records: 0,
                });
                load.requests += 1;
                load.records += records;
            }
        }
        let sequential = trace.pointer_total() + sequential_waves;
        price.pointer_hits += hits as u64;
        price.pointer_misses += misses as u64;
        price.host_requests += requests;
        price.sequential_total += sequential;
        // `batched` gains this query's wave share below.
        price.queries.push(QueryCost {
            sequential,
            batched: batched_pointer,
            pointer_hits: hits,
            pointer_misses: misses,
        });
        requests_by_query.push(requests);
    }

    // One batched fan-out wave covers the whole batch's host contacts.
    let loads: Vec<BatchedHostLoad> = per_host.values().copied().collect();
    let batched_wave_total = cost.batched_query_wave(&loads).total();
    price.host_rpcs_issued = loads.len() as u64;
    price.batched_total = batched_pointer_total + batched_wave_total;
    let total_requests = price.host_requests;
    for (q, requests) in price.queries.iter_mut().zip(requests_by_query) {
        // This query's share of the batched wave, proportional to its
        // request count (ns math; the batch totals above use the exact
        // batch quantities, not these rounded shares).
        let share = if total_requests == 0 {
            SimTime::ZERO
        } else {
            SimTime(
                ((batched_wave_total.as_ns() as u128 * requests as u128) / total_requests as u128)
                    as u64,
            )
        };
        q.batched += share;
    }
    price
}
