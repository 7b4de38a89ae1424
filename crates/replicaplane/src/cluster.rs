//! A replicated loopback deployment: every directory shard served by a
//! primary **and** standbys, all consuming the same replication log, with
//! the front-end connected to the full replica set so a primary kill
//! fails over mid-query.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use netsim::routing::RouteTable;
use obsplane::MetricsRegistry;
use queryplane::{QueryPlaneConfig, SharedCtx, Snapshot, SnapshotDelta};
use switchpointer::shard::ShardedDirectory;
use switchpointer::Analyzer;
use telemetry::frame::WireError;
use wireplane::{
    FrontEnd, ReplicaWriter, RetryPolicy, ShardServer, ShardState, WindowSummary, WireClient,
    WireConfig,
};

use crate::publish::DeltaPublisher;

/// Flow-record shards per host inside each server's snapshot slice (the
/// query plane's default).
const HOST_SHARDS: usize = 8;

/// Replication-log records retained per shard by default — deep enough
/// that a replica missing a handful of refreshes replays instead of
/// re-bootstrapping.
pub const DEFAULT_LOG_CAP: usize = 64;

/// N directory shards × R replicas each, one front-end over the replica
/// sets, and the owner-side [`DeltaPublisher`] feeding every replica
/// in-band. Replica 0 of each shard is the primary (the front-end dials
/// it first); the rest are standbys.
pub struct ReplicaCluster {
    /// `servers[s][r]` — `None` once killed. Indices stay stable so a
    /// replica keeps its identity across kills.
    servers: Mutex<Vec<Vec<Option<ShardServer>>>>,
    front: FrontEnd,
    ctx: Arc<SharedCtx>,
    cfg: WireConfig,
    publisher: Mutex<DeltaPublisher>,
    registry: Arc<MetricsRegistry>,
}

impl ReplicaCluster {
    /// Captures the analyzer's state and launches `n_shards` shards with
    /// `n_replicas` replicas each (all on ephemeral loopback ports),
    /// retaining [`DEFAULT_LOG_CAP`] log records per shard.
    pub fn launch(
        analyzer: &Analyzer,
        n_shards: usize,
        n_replicas: usize,
        cfg: WireConfig,
    ) -> Result<ReplicaCluster, WireError> {
        Self::launch_with(analyzer, n_shards, n_replicas, cfg, DEFAULT_LOG_CAP)
    }

    /// [`ReplicaCluster::launch`] with the per-shard log retention
    /// configurable — tests shrink it to force the truncated-suffix
    /// bootstrap path.
    pub fn launch_with(
        analyzer: &Analyzer,
        n_shards: usize,
        n_replicas: usize,
        cfg: WireConfig,
        log_cap: usize,
    ) -> Result<ReplicaCluster, WireError> {
        assert!(n_replicas >= 1, "a shard needs at least one replica");
        QueryPlaneConfig {
            directory_shards: n_shards,
            ..QueryPlaneConfig::default()
        }
        .validate()
        .map_err(|e| WireError::Remote(format!("invalid replicated deployment: {e}")))?;
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            n_shards,
        );
        let snapshot = Snapshot::capture_with(analyzer, HOST_SHARDS, n_shards);

        // Spawn R identical replicas per shard, each serving its own
        // copy of the shard's slice.
        let mut servers = Vec::with_capacity(n_shards);
        let mut addr_sets = Vec::with_capacity(n_shards);
        let mut keeps = Vec::with_capacity(n_shards);
        // One accept slot beyond the configured budget per server: the
        // owner's replication writer must not consume the client budget.
        let server_cfg = WireConfig {
            max_conns: cfg.max_conns + 1,
            ..cfg
        };
        for shard in dir.shards() {
            let keep: BTreeSet<_> = shard.hosts().iter().copied().collect();
            let mut replicas = Vec::with_capacity(n_replicas);
            let mut addrs = Vec::with_capacity(n_replicas);
            for _ in 0..n_replicas {
                let state = ShardState {
                    shard: shard.clone(),
                    view: snapshot.shard_slice(&keep),
                };
                let server = ShardServer::spawn(state, n_shards, server_cfg)?;
                addrs.push(server.local_addr());
                replicas.push(Some(server));
            }
            servers.push(replicas);
            addr_sets.push(addrs);
            keeps.push(keep);
        }

        let ctx = Arc::new(SharedCtx::new(
            analyzer.topo().clone(),
            RouteTable::build(analyzer.topo()),
            analyzer.params(),
            analyzer.directory().clone(),
            dir,
            *analyzer.cost(),
            Arc::new(MetricsRegistry::new()),
        ));
        let front = FrontEnd::connect_replica_sets(
            Arc::clone(&ctx),
            &addr_sets,
            cfg,
            true,
            RetryPolicy::default(),
        )?;

        // The owner side: one writer per replica, feeding the same
        // per-shard log.
        let writers = addr_sets
            .iter()
            .enumerate()
            .map(|(s, addrs)| {
                addrs
                    .iter()
                    .map(|&a| {
                        ReplicaWriter::connect(s, a, cfg.max_frame, RetryPolicy::immediate(2))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let registry = Arc::new(MetricsRegistry::new());
        // The publisher's traces sample at the deployment's configured
        // rate, like the front-end's.
        registry.tracer().set_sample_rate(cfg.trace_sample_rate);
        let publisher = DeltaPublisher::new(snapshot, keeps, writers, log_cap, &registry);
        Ok(ReplicaCluster {
            servers: Mutex::new(servers),
            front,
            ctx,
            cfg,
            publisher: Mutex::new(publisher),
            registry,
        })
    }

    /// Advances the whole cluster to the analyzer's current state by
    /// publishing one sequenced delta to every replica of every shard.
    /// Call between windows, then [`ReplicaCluster::close_window`].
    pub fn refresh(&self, analyzer: &Analyzer) -> SnapshotDelta {
        self.publisher.lock().unwrap().publish(analyzer)
    }

    /// Kills replica `r` of `shard` (its listener closes, live
    /// connections drop) and retires it from publication. `false` if it
    /// was already dead. Killing the primary (`r == 0`) is the failover
    /// drill: in-flight query waves rotate to the standby.
    pub fn kill_replica(&self, shard: usize, r: usize) -> bool {
        let server = self.servers.lock().unwrap()[shard][r].take();
        match server {
            Some(s) => {
                s.shutdown();
                self.publisher.lock().unwrap().retire_replica(shard, r);
                true
            }
            None => false,
        }
    }

    /// [`ReplicaCluster::kill_replica`] of replica 0.
    pub fn kill_primary(&self, shard: usize) -> bool {
        self.kill_replica(shard, 0)
    }

    /// Spawns a *fresh* standby for `shard` serving the owner's current
    /// slice, snapshot-bootstraps it to the log head, and returns its
    /// replica index. The new replica consumes the replication log from
    /// here on; it joins the front-end's dial set only on the next
    /// deployment (replica sets are fixed at connect time).
    pub fn add_standby(&self, shard: usize) -> Result<usize, WireError> {
        let mut publisher = self.publisher.lock().unwrap();
        let state = ShardState {
            shard: self.ctx.dir.shards()[shard].clone(),
            view: publisher.owner_slice(shard),
        };
        let server = ShardServer::spawn(
            state,
            self.ctx.dir.n_shards(),
            WireConfig {
                max_conns: self.cfg.max_conns + 1,
                ..self.cfg
            },
        )?;
        let writer = ReplicaWriter::connect(
            shard,
            server.local_addr(),
            self.cfg.max_frame,
            RetryPolicy::immediate(2),
        )?;
        let r = publisher.register_replica(shard, writer);
        let mut servers = self.servers.lock().unwrap();
        debug_assert_eq!(servers[shard].len(), r, "server/replica indices aligned");
        servers[shard].push(Some(server));
        Ok(r)
    }

    /// Per-replica applied seqs: `applied[s][r]`, `None` for killed
    /// replicas. Every live entry equals the owner's head for `s`
    /// whenever the last publish fully acked.
    pub fn applied_seqs(&self) -> Vec<Vec<Option<u64>>> {
        self.servers
            .lock()
            .unwrap()
            .iter()
            .map(|reps| {
                reps.iter()
                    .map(|o| o.as_ref().map(|s| s.applied_seq()))
                    .collect()
            })
            .collect()
    }

    /// The owner's per-shard log heads.
    pub fn heads(&self) -> Vec<u64> {
        self.publisher.lock().unwrap().heads()
    }

    /// Replica `r` of `shard`'s currently served state (`None` if
    /// killed). Divergence tests compare these across replicas — and
    /// against [`ReplicaCluster::owner_slice`] — for bit-identity.
    pub fn replica_state(&self, shard: usize, r: usize) -> Option<Arc<ShardState>> {
        self.servers.lock().unwrap()[shard][r]
            .as_ref()
            .map(|s| s.state())
    }

    /// The owner's authoritative slice of `shard`.
    pub fn owner_slice(&self, shard: usize) -> Snapshot {
        self.publisher.lock().unwrap().owner_slice(shard)
    }

    /// Replica `r` of `shard`'s registry (`None` if killed): its
    /// `wire.*` and `repl.*` metrics and its span tracer.
    pub fn replica_metrics(&self, shard: usize, r: usize) -> Option<Arc<MetricsRegistry>> {
        self.servers.lock().unwrap()[shard][r]
            .as_ref()
            .map(|s| Arc::clone(s.metrics()))
    }

    /// The spans the owner's publisher retains (replicate-stage roots).
    pub fn owner_spans(&self) -> Vec<obsplane::SpanEvent> {
        self.publisher.lock().unwrap().tracer().events()
    }

    /// The owner-side registry (`repl.*` publication metrics).
    pub fn owner_metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The front-end's registry (per-class exec latency, per-shard RTT,
    /// `wire.failover_ns`).
    pub fn front_metrics(&self) -> &Arc<MetricsRegistry> {
        &self.ctx.metrics
    }

    /// The front-end handle (counters, failover/active-replica state).
    pub fn front(&self) -> &FrontEnd {
        &self.front
    }

    /// The client-facing front-end address.
    pub fn front_addr(&self) -> std::net::SocketAddr {
        self.front.local_addr()
    }

    /// Connects a fresh client to the front-end.
    pub fn client(&self) -> Result<WireClient, WireError> {
        WireClient::connect(self.front.local_addr(), self.cfg.max_frame)
    }

    /// Closes one evaluation window on the front-end.
    pub fn close_window(&self) -> WindowSummary {
        self.front.close_window()
    }

    /// Graceful shutdown: front-end first, then every surviving replica.
    pub fn shutdown(self) {
        let ReplicaCluster { servers, front, .. } = self;
        front.shutdown();
        for reps in servers.into_inner().unwrap() {
            for server in reps.into_iter().flatten() {
                server.shutdown();
            }
        }
    }
}
