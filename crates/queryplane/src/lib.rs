//! # queryplane — a concurrent, sharded analyzer query service
//!
//! The SwitchPointer analyzer (§4.3, §5) answers one debugging query at a
//! time against live component handles. This crate turns it into a
//! multi-tenant service front-end that takes a *stream* of
//! [`QueryRequest`]s and schedules them over a deterministic worker pool,
//! while keeping the repo's core invariant: **same seed + same query set ⇒
//! same verdicts, regardless of worker count**.
//!
//! Architecture (see `DESIGN.md` §"The query plane"):
//!
//! 1. **[`Snapshot`]** — an immutable, `Sync` freeze of the deployment
//!    state: switch pointer hierarchies cloned, host flow records
//!    partitioned into [`shard_of`](switchpointer::hoststore::shard_of)
//!    shards, so concurrent queries touching different flows and hosts
//!    never contend on a shared structure. Between batches the freeze can
//!    be brought up to date *incrementally*:
//!    [`QueryPlane::refresh_delta`] copies only the pointer slots and host
//!    shards that changed since the last freeze (see
//!    [`Snapshot::apply_delta`]).
//! 2. **Persistent work-stealing [`WorkerPool`]** — spawned once at plane
//!    construction and shared by every batch (and by the `streamplane`
//!    crate's standing query windows). Batches are cut into
//!    [`chunk_size`]d chunks placed by shard affinity and rebalanced by
//!    stealing; each query runs the shared
//!    [`QueryExecutor`](switchpointer::query::QueryExecutor) as a pure
//!    function of the snapshot and results are stitched lock-free in
//!    submission order, so verdicts are independent of worker count,
//!    chunk size, and steal schedule. Snapshots are published through an
//!    epoch-stamped [`SnapshotSlot`], so a refresh installs new state
//!    without quiescing in-flight batches.
//! 3. **Sharded directory** — with
//!    [`QueryPlaneConfig::directory_shards`] > 1 the snapshot's deltas
//!    report host dirtiness per directory shard ([`switchpointer::shard`],
//!    DESIGN.md §11) and dispatch is keyed by each request's
//!    [`home_shard`]. No router sits on the serving path: every worker
//!    executes straight over the snapshot, so answers are bit-identical
//!    at any shard count by construction.
//! 4. **Modelled pricing, off the serving path** — [`price_batch`]
//!    replays a batch's [`ExecutionTrace`]s, in submission order,
//!    through a caller-owned epoch-keyed [`PointerCache`] (repeated
//!    retrieval rounds, ≈ 7.5 ms each, become ≈ 5 µs hits) and coalesces
//!    all (query, host) contacts into one batched RPC per host
//!    ([`CostModel::batched_query_wave`](switchpointer::cost::CostModel::batched_query_wave)).
//!    It is a pure function of the traces and the cache; the figures,
//!    bench and tests that want modelled numbers call it, and
//!    [`QueryPlane::execute_batch`] does not.
//!
//! The *answers* come straight out of the executors; the snapshot's
//! union memo is the cache that saves real time, and its hit rate is
//! the `queryplane.union_memo.*` counter pair in the plane's registry.
//!
//! ## Quickstart
//!
//! ```
//! use netsim::prelude::*;
//! use switchpointer::query::QueryRequest;
//! use switchpointer::testbed::{Testbed, TestbedConfig};
//! use queryplane::{price_batch, PointerCache, QueryPlane, QueryPlaneConfig};
//! use telemetry::EpochRange;
//!
//! let topo = Topology::chain(3, 2, GBPS);
//! let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
//! let (a, f) = (tb.node("A"), tb.node("F"));
//! tb.sim.add_udp_flow(UdpFlowSpec {
//!     src: a, dst: f, priority: Priority::LOW,
//!     start: SimTime::ZERO, duration: SimTime::from_ms(2),
//!     rate_bps: 100_000_000, payload_bytes: 1458,
//! });
//! tb.sim.run_until(SimTime::from_ms(5));
//!
//! let analyzer = tb.analyzer();
//! let plane = QueryPlane::from_analyzer(&analyzer, QueryPlaneConfig::default());
//! let s2 = tb.node("S2");
//! let reqs = vec![
//!     QueryRequest::TopK { switch: s2, k: 10, range: EpochRange { lo: 0, hi: 4 } };
//!     8
//! ];
//! let outcomes = plane.execute_batch(&reqs);
//! assert_eq!(outcomes.len(), 8);
//! // Priced afterwards: 7 of the 8 identical queries hit the pointer cache.
//! let traces: Vec<_> = outcomes.iter().map(|o| &o.trace).collect();
//! let price = price_batch(analyzer.cost(), &mut PointerCache::new(4096), &traces);
//! assert_eq!(price.pointer_hits, 7);
//! ```

use std::sync::Arc;

use netsim::routing::RouteTable;
use obsplane::{Counter, MetricsRegistry};
use switchpointer::query::{ExecutionTrace, QueryRequest, QueryResponse};
use switchpointer::retention;
use switchpointer::shard::{host_shard_of, ShardedDirectory};
use switchpointer::Analyzer;

mod cache;
mod pool;
mod price;
mod repl;
mod slot;
mod snapshot;

pub use cache::{key_of, PointerCache, PointerKey};
pub use pool::{chunk_size, PoolMetrics, PoolResult, SharedCtx, WorkerPool};
pub use price::{price_batch, BatchPrice, QueryCost};
pub use repl::{DeltaRecord, HostPatch, HostPatchKind, SwitchPatch};
pub use slot::SnapshotSlot;
pub use snapshot::{ShardedHostStore, Snapshot, SnapshotDelta};
pub use switchpointer::retention::{RetentionPolicy, SweepReport};

/// A rejected [`QueryPlaneConfig`]: the typed reason construction
/// refused it, surfaced at the service boundary instead of panicking
/// deep inside the pool or the LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: a plane with no executors can never answer.
    ZeroWorkers,
    /// `shards == 0`: flow records need at least one shard per host.
    ZeroHostShards,
    /// `directory_shards == 0`: the directory partition needs at least
    /// the single-coordinator layout.
    ZeroDirectoryShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::ZeroHostShards => {
                write!(f, "shards (per-host record shards) must be >= 1")
            }
            ConfigError::ZeroDirectoryShards => write!(f, "directory_shards must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Service tuning.
#[derive(Debug, Clone, Copy)]
pub struct QueryPlaneConfig {
    /// Worker threads executing queries (1 ⇒ run inline on the caller).
    pub workers: usize,
    /// Flow-record shards per host in the snapshot.
    pub shards: usize,
    /// Directory shards: analyzer instances the bit→host directory is
    /// hash-partitioned across. 1 = the single-coordinator layout.
    /// Verdicts are identical at any value (property-pinned); only the
    /// delta's per-shard dirtiness report and the dispatch affinity
    /// change.
    pub directory_shards: usize,
    /// Retention policy for [`QueryPlane::sweep_retention`]: a trailing
    /// epoch horizon plus a per-directory-shard flow-record budget. `None`
    /// disables GC — the snapshot accretes state forever (the pre-PR-4
    /// behaviour).
    pub retention: Option<RetentionPolicy>,
}

impl Default for QueryPlaneConfig {
    fn default() -> Self {
        QueryPlaneConfig {
            workers: 4,
            shards: 8,
            directory_shards: 1,
            retention: None,
        }
    }
}

impl QueryPlaneConfig {
    /// Rejects degenerate sizings with a typed [`ConfigError`] before any
    /// thread is spawned. [`QueryPlane::try_from_analyzer`]
    /// (and everything layered over it — the stream plane, the wire
    /// front-end) calls this at the boundary.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroHostShards);
        }
        if self.directory_shards == 0 {
            return Err(ConfigError::ZeroDirectoryShards);
        }
        Ok(())
    }
}

/// The directory shard a request "belongs" to for dispatch affinity: the
/// stable shard of its primary target node. A pure function of the
/// request, so keyed dispatch stays deterministic. The stream plane uses
/// the same keying to subscribe standing queries per shard.
pub fn home_shard(req: &QueryRequest, n_shards: usize) -> usize {
    let node = match *req {
        QueryRequest::Contention { victim_dst, .. } => victim_dst,
        QueryRequest::RedLights { victim_dst, .. } => victim_dst,
        QueryRequest::Cascade { victim_dst, .. } => victim_dst,
        QueryRequest::LoadImbalance { switch, .. } => switch,
        QueryRequest::TopK { switch, .. } => switch,
        QueryRequest::SilentDrop { dst, .. } => dst,
    };
    host_shard_of(node, n_shards)
}

/// One scheduled query's result: the (bit-identical) response plus its
/// execution trace — the exact state the answer depended on (what the
/// stream plane's result cache keys invalidation by) and the retrieval
/// rounds and host waves [`price_batch`] prices.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub response: QueryResponse,
    pub trace: ExecutionTrace,
}

/// The concurrent query service front-end.
pub struct QueryPlane {
    ctx: Arc<SharedCtx>,
    cfg: QueryPlaneConfig,
    /// The epoch-stamped publication slot batches and readers load the
    /// frozen state from. Installs never quiesce the plane — see
    /// [`SnapshotSlot`].
    slot: SnapshotSlot,
    /// The previous published snapshot, kept as the write buffer for the
    /// next incremental refresh: when nothing else still holds it,
    /// [`QueryPlane::refresh_delta`] catches it up from its own freeze
    /// baselines instead of cloning the current snapshot.
    spare: Option<Arc<Snapshot>>,
    pool: WorkerPool,
    /// `queryplane.queries` / `queryplane.batches` in the registry.
    queries: Arc<Counter>,
    batches: Arc<Counter>,
}

impl QueryPlane {
    /// Builds a plane over a frozen snapshot of `analyzer`'s deployment
    /// state and spawns its persistent worker pool. Queries submitted
    /// later see the state as of this call; re-freeze with
    /// [`QueryPlane::refresh`] (full recapture) or
    /// [`QueryPlane::refresh_delta`] (incremental) after running the
    /// simulation further.
    ///
    /// Panics on a degenerate config (zero workers / shards) with the
    /// typed [`ConfigError`] message; use
    /// [`QueryPlane::try_from_analyzer`] to handle it as a value.
    pub fn from_analyzer(analyzer: &Analyzer, cfg: QueryPlaneConfig) -> Self {
        Self::try_from_analyzer(analyzer, cfg)
            .unwrap_or_else(|e| panic!("invalid QueryPlaneConfig: {e}"))
    }

    /// [`QueryPlane::from_analyzer`] with the config validated up front:
    /// a zero worker pool or zero record/directory shards is rejected
    /// here, as a typed [`ConfigError`], instead of panicking deep in the
    /// pool.
    pub fn try_from_analyzer(
        analyzer: &Analyzer,
        cfg: QueryPlaneConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let dir_shards = cfg.directory_shards;
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = WorkerPool::with_metrics(cfg.workers, &metrics);
        let mut snapshot = Snapshot::capture_with(analyzer, cfg.shards, dir_shards);
        snapshot.count_memo_into(&metrics);
        let (queries, batches) = (
            metrics.counter("queryplane.queries"),
            metrics.counter("queryplane.batches"),
        );
        Ok(QueryPlane {
            ctx: Arc::new(SharedCtx::new(
                analyzer.topo().clone(),
                RouteTable::build(analyzer.topo()),
                analyzer.params(),
                analyzer.directory().clone(),
                ShardedDirectory::new(
                    analyzer.directory().mphf().clone(),
                    &analyzer.all_hosts(),
                    dir_shards,
                ),
                *analyzer.cost(),
                metrics,
            )),
            cfg,
            slot: SnapshotSlot::new(Arc::new(snapshot)),
            spare: None,
            pool,
            queries,
            batches,
        })
    }

    /// Re-freezes the deployment state from scratch (e.g. after more
    /// simulated time) and publishes it under a new epoch. In-flight
    /// readers keep their loaded snapshot; the old published state becomes
    /// the spare write buffer for the next incremental refresh.
    pub fn refresh(&mut self, analyzer: &Analyzer) {
        let old = self.slot.load().0;
        let mut snapshot =
            Snapshot::capture_with(analyzer, self.cfg.shards, self.cfg.directory_shards);
        snapshot.count_memo_into(self.metrics());
        self.slot.install(Arc::new(snapshot));
        self.spare = Some(old);
    }

    /// Incrementally re-freezes the deployment state, copying only what
    /// changed since the last freeze (see [`Snapshot::apply_delta`]; the
    /// snapshot's union memo drops exactly the dirty switches' entries).
    /// Returns the delta summary (dirty sets, rescans, copy-work
    /// counters).
    ///
    /// Publication is quiesce-free: the refreshed snapshot is installed
    /// into the epoch-stamped [`SnapshotSlot`] while any in-flight batch
    /// (or remote reader) keeps executing against the snapshot it
    /// loaded. The refresh writes into the *spare* snapshot — the one
    /// published two windows ago — catching it up from its own freeze
    /// baselines (`apply_delta` is baseline-relative, so the result is
    /// bit-identical to a fresh capture; the dirty sets it reports are a
    /// conservative superset covering both windows, which only widens
    /// invalidation). If something still holds the spare (an
    /// unusually long-lived reader), the plane falls back to cloning the
    /// current snapshot rather than waiting.
    pub fn refresh_delta(&mut self, analyzer: &Analyzer) -> SnapshotDelta {
        let current = self.slot.load().0;
        let mut next = match self.spare.take() {
            Some(spare) if Arc::strong_count(&spare) == 1 => spare,
            _ => Arc::new((*current).clone()),
        };
        // The spare's own baselines drive the replay: they may lag the
        // published snapshot by one window, in which case this delta is
        // a conservative superset (correct state, over-wide report).
        let superset = Arc::get_mut(&mut next)
            .expect("spare snapshot is uniquely held")
            .apply_delta(analyzer);
        self.slot.install(next);
        // Retire the just-unpublished snapshot as the next spare and —
        // when no in-flight batch still reads it — catch it up NOW. Its
        // baselines equal the state published last window, so this
        // second replay yields the *exact* fresh-window delta (empty on
        // an idle refresh) and keeps both buffers in lockstep, making
        // the next refresh exact too. With readers still holding it we
        // fall back to the superset report and let the next refresh
        // replay the lag.
        let mut retired = current;
        let delta = match Arc::get_mut(&mut retired) {
            Some(snap) => snap.apply_delta(analyzer),
            None => superset,
        };
        self.spare = Some(retired);
        delta
    }

    /// Runs one retention sweep over the *live* deployment behind
    /// `analyzer`, per the configured [`RetentionPolicy`] (`None` in the
    /// config ⇒ no-op returning `None`). `pins[s]` lower-bounds what the
    /// sweep may collect on directory shard `s` — the stream plane passes
    /// the oldest epoch its standing queries homed on (or last evaluated
    /// against) that shard can still reach.
    ///
    /// The sweep mutates live component state only; call
    /// [`QueryPlane::refresh_delta`] afterwards to propagate the
    /// reclamation into the snapshot. Record eviction surfaces there as
    /// `FullRescan` re-freezes (`SnapshotDelta::rescanned_hosts` /
    /// `rescanned_shards`, which the stream plane's result cache
    /// broadcasts per shard), and archived-pointer retirement rides the
    /// pointer patches.
    pub fn sweep_retention(
        &mut self,
        analyzer: &Analyzer,
        pins: &[Option<u64>],
    ) -> Option<SweepReport> {
        let policy = self.cfg.retention?;
        Some(retention::sweep(
            analyzer,
            policy,
            self.cfg.directory_shards,
            pins,
        ))
    }

    /// The currently published frozen state, as an owned handle: later
    /// installs never invalidate it, so a caller can read it for as long
    /// as it likes without blocking a refresh.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load().0
    }

    /// The currently published snapshot together with its publication
    /// epoch — the consistent pair the stream plane stamps windows with.
    pub fn published(&self) -> (Arc<Snapshot>, u64) {
        self.slot.load()
    }

    /// The current publication epoch: the number of snapshot installs
    /// (full or incremental refreshes) since construction.
    pub fn publication_epoch(&self) -> u64 {
        self.slot.epoch()
    }

    /// Service configuration in force.
    pub fn config(&self) -> QueryPlaneConfig {
        self.cfg
    }

    /// The plane's metric registry: the `queryplane.*` counters (union
    /// memo hits and misses included), the per-class
    /// `queryplane.exec_ns.*` latency histograms the workers record, and
    /// the span tracer. The stream plane shares this
    /// registry; snapshots of it are what a wire scrape ships.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.ctx.metrics
    }

    /// Convenience: a single query (a batch of one).
    pub fn execute(&self, req: QueryRequest) -> QueryOutcome {
        self.execute_batch(std::slice::from_ref(&req))
            .pop()
            .expect("one request in, one outcome out")
    }

    /// Executes a batch of queries over the worker pool and returns
    /// outcomes in submission order. Responses are computed concurrently
    /// but are bit-identical to running each query alone on the
    /// sequential analyzer over the same state; outcomes depend only on
    /// the published snapshot and the requests.
    pub fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        // With a sharded directory, dispatch is keyed by each request's
        // home shard (shard-affine initial placement; idle workers steal);
        // answers are independent of the keying either way. The batch
        // executes against the snapshot published *now* — a refresh
        // landing mid-batch serves later batches, never this one.
        let snapshot = self.slot.load().0;
        let n_dir = self.ctx.dir.n_shards();
        let keys: Option<Vec<usize>> =
            (n_dir > 1).then(|| requests.iter().map(|r| home_shard(r, n_dir)).collect());
        let results = self
            .pool
            .run_keyed(&self.ctx, &snapshot, requests, keys.as_deref());
        self.batches.inc();
        self.queries.add(results.len() as u64);
        results
            .into_iter()
            .map(|(response, trace)| QueryOutcome { response, trace })
            .collect()
    }
}
