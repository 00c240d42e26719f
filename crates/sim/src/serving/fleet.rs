//! Fleet-scale serving: N RecNMP nodes behind a front-end router.
//!
//! One RecNMP node saturates at the capacity of its channels; production
//! recommendation traffic is served by a *fleet* of such nodes behind a
//! router. This module scales the single-node serving model up one
//! level:
//!
//! * a [`Fleet`] owns N node backends (each a multi-channel cluster or a
//!   tiered DRAM+SSD system — anything implementing
//!   [`SlsBackend`](recnmp_backend::SlsBackend));
//! * a [`FleetPlacementPlan`] places tables twice — tables → nodes (with
//!   cross-node replication of the hottest tables), then tables →
//!   channels within each node;
//! * a [`RouterPolicy`] picks, per batch, which node replica serves it
//!   (stateless hash-affinity rotation, least-outstanding-lookups, or
//!   placement-aware scatter onto the node whose owning channels are
//!   least backlogged);
//! * a [`NetworkCost`] charges the inter-node hop: a query whose batches
//!   span nodes completes at its slowest node (each node pays the usual
//!   per-node [`GatherCost`]) plus a base-plus-per-byte network gather
//!   over the pooled result vectors shipped back to the router. A
//!   single-node fleet pays **no** network cost (the router is
//!   co-located), which makes a 1-node fleet numerically identical to
//!   the bare cluster under sharded serving — the invariant the
//!   `serve_sweep --fleet` smoke and `fleet_determinism` tests pin.
//!
//! Execution nests the two parallelism levels on the shared
//! deterministic worker pool: each query spawns one task per involved
//! node, and each node task fans its per-channel shards out as nested
//! tasks ([`SlsBackend::try_run_shards`]); the pool's own-batch helping
//! keeps the thread budget fixed, and results merge in (node, channel)
//! order, so fleet runs are byte-identical at any worker count.
//!
//! # Examples
//!
//! ```no_run
//! use recnmp_sim::fleet::{serve_fleet, Fleet, FleetConfig, FleetDispatch};
//! use recnmp_sim::serving::{ArrivalProcess, QueryShape};
//!
//! let mut fleet = Fleet::reference(2);
//! let cfg = FleetConfig {
//!     process: ArrivalProcess::Poisson,
//!     qps: 50_000.0,
//!     queries: 64,
//!     shape: QueryShape::new(8, 2, 8).with_table_sampling(4),
//!     dispatch: FleetDispatch::replicated(2),
//!     seed: 7,
//! };
//! let report = serve_fleet(&mut fleet, &cfg).unwrap();
//! assert_eq!(report.latencies.len(), 64);
//! ```

use recnmp_backend::{
    FleetPlacementPlan, PlacementPolicy, RunReport, SlsBackend, SlsTrace, TableUsage,
};
use recnmp_types::units::{completions_to_qps, qps_to_interarrival_cycles};
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{ArrivalProcess, QueryShape, QueryStream};
use super::faults::{
    FaultPlan, HealthTracker, HedgePolicy, NodeHealth, QueryOutcome, ResilienceConfig, RetryPolicy,
    SloPolicy,
};
use super::policy::GatherCost;
use super::sweep::{reference_cluster4, SweepPoint, SweepSpec};

/// A factory producing fresh (cold) fleets, so every sweep point starts
/// from identical hardware state.
pub type FleetFactory<'a> = dyn FnMut() -> Fleet + 'a;

/// N node backends behind one router: the serving fleet.
///
/// Every node must expose the same
/// [`server_count`](SlsBackend::server_count) — the fleet's placement
/// plan assumes a uniform channels-per-node geometry.
pub struct Fleet {
    name: String,
    channels_per_node: usize,
    nodes: Vec<Box<dyn SlsBackend>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("name", &self.name)
            .field("channels_per_node", &self.channels_per_node)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet from node backends.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `nodes` is empty or the nodes
    /// disagree on server count.
    pub fn new(nodes: Vec<Box<dyn SlsBackend>>) -> Result<Self, ConfigError> {
        let Some(first) = nodes.first() else {
            return Err(ConfigError::new("fleet", "need at least one node"));
        };
        let channels_per_node = first.server_count();
        if let Some(odd) = nodes.iter().find(|n| n.server_count() != channels_per_node) {
            return Err(ConfigError::new(
                "fleet",
                format!(
                    "nodes disagree on geometry: {} exposes {} server(s), {} exposes {}",
                    first.name(),
                    channels_per_node,
                    odd.name(),
                    odd.server_count()
                ),
            ));
        }
        let name = format!("fleet[{} x {}]", nodes.len(), first.name());
        Ok(Self {
            name,
            channels_per_node,
            nodes,
        })
    }

    /// The reference fleet: `nodes` copies of the 4-channel reference
    /// serving cluster
    /// ([`reference_cluster4`](super::sweep::reference_cluster4)).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero.
    pub fn reference(nodes: usize) -> Self {
        Self::new((0..nodes).map(|_| reference_cluster4()).collect()).expect("reference fleet")
    }

    /// `"fleet[N x node-name]"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Channels (dispatchable servers) per node.
    pub fn channels_per_node(&self) -> usize {
        self.channels_per_node
    }
}

/// How the front-end router picks a node replica for each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Stateless: a batch of table `t` in query `i` goes to node replica
    /// `i mod replicas(t)` — replicated tables rotate through their node
    /// set, unreplicated tables always hit their single home.
    HashAffinity,
    /// Size-aware join-shortest-queue at node granularity: the replica
    /// with the fewest outstanding lookups at dispatch time (ties to the
    /// lowest node index).
    LeastOutstanding,
    /// Placement-aware scatter: the replica whose *owning channels* for
    /// this table free earliest — the router peeks one level deeper than
    /// [`LeastOutstanding`](Self::LeastOutstanding) and targets channel
    /// backlog rather than node backlog.
    PlacementScatter,
}

impl RouterPolicy {
    /// Every policy, in comparison order.
    pub const ALL: [RouterPolicy; 3] = [
        RouterPolicy::HashAffinity,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::PlacementScatter,
    ];

    /// A short stable label.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::HashAffinity => "hash-affinity",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::PlacementScatter => "placement-scatter",
        }
    }
}

/// The modeled cost of shipping pooled results from the nodes back to
/// the router: `base + per_byte * result_bytes` cycles per query, where
/// `result_bytes` sums the pooled output vectors
/// ([`SlsBatch::output_bytes`](recnmp_trace::SlsBatch::output_bytes)) of
/// every batch the query scattered off-router. Charged once per query —
/// node transfers overlap on independent links, so the gather is
/// dominated by the aggregate bytes plus one base latency.
///
/// A single-node fleet pays nothing: the router is co-located with its
/// only node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkCost {
    /// Fixed per-query network latency (one rack round trip).
    pub base: Cycle,
    /// Cycles per pooled result byte shipped node → router.
    pub per_byte: Cycle,
}

impl NetworkCost {
    /// Builds a cost model.
    pub fn new(base: Cycle, per_byte: Cycle) -> Self {
        Self { base, per_byte }
    }

    /// The default intra-rack model: a fixed round-trip plus a per-byte
    /// charge an order of magnitude above the on-host
    /// [`GatherCost`](super::policy::GatherCost) — crossing the network
    /// must cost visibly more than staying on the node, or the model
    /// would never penalize scattering a query fleet-wide.
    pub fn rack_default() -> Self {
        Self::new(1_200, 1)
    }

    /// Total network cycles for one query shipping `result_bytes` back.
    pub fn cost_of(self, result_bytes: u64) -> Cycle {
        self.base + self.per_byte * result_bytes
    }
}

/// How a fleet turns queries into node work: the router, the two
/// placement levels, and the gather costs at both levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetDispatch {
    /// Node pick per batch.
    pub router: RouterPolicy,
    /// Level-1 placement: tables → nodes.
    pub node_policy: PlacementPolicy,
    /// Level-2 placement: tables → channels within each node.
    pub within_policy: PlacementPolicy,
    /// Per-node scatter/gather merge cost (same role as in sharded
    /// single-node serving).
    pub gather: GatherCost,
    /// Inter-node result gather cost.
    pub network: NetworkCost,
    /// Optional per-channel capacity bound both placement levels pack
    /// against.
    pub channel_capacity: Option<ByteSize>,
}

impl FleetDispatch {
    /// Pure sharding: every table lives on exactly one node
    /// (frequency-balanced, no replication) — the scaling baseline.
    pub fn sharded() -> Self {
        Self {
            router: RouterPolicy::HashAffinity,
            node_policy: PlacementPolicy::FrequencyBalanced { replicate: 0 },
            within_policy: PlacementPolicy::FrequencyBalanced { replicate: 0 },
            gather: GatherCost::host_default(),
            network: NetworkCost::rack_default(),
            channel_capacity: None,
        }
    }

    /// Hot-table replication: the `hot` hottest tables are replicated
    /// onto every node (level 1) so top-load traffic has more than one
    /// home. Router and within-node placement match
    /// [`sharded`](Self::sharded), so curves isolate the replication
    /// effect.
    pub fn replicated(hot: usize) -> Self {
        Self {
            node_policy: PlacementPolicy::FrequencyBalanced { replicate: hot },
            ..Self::sharded()
        }
    }

    /// A short stable label for the node-placement flavor
    /// (`"fleet-sharded"`, `"fleet-replicated(2)"`, ...).
    pub fn label(&self) -> String {
        match self.node_policy {
            PlacementPolicy::FrequencyBalanced { replicate: 0 } => "fleet-sharded".to_string(),
            PlacementPolicy::FrequencyBalanced { replicate } => {
                format!("fleet-replicated({replicate})")
            }
            PlacementPolicy::Hash => "fleet-hash".to_string(),
            PlacementPolicy::CapacityGreedy => "fleet-capacity".to_string(),
        }
    }
}

/// One fleet serving run: an offered load, a query shape, and a fleet
/// dispatch discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Arrival process of the open-loop generator.
    pub process: ArrivalProcess,
    /// Offered query rate (queries per second of simulated time).
    pub qps: f64,
    /// Queries to offer.
    pub queries: usize,
    /// SLS work per query.
    pub shape: QueryShape,
    /// Router, placement and gather model.
    pub dispatch: FleetDispatch,
    /// Seed for both the arrival schedule and the query index streams.
    pub seed: u64,
}

/// The outcome of one fleet serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet label the run was served by.
    pub system: String,
    /// Router the run was dispatched under.
    pub router: RouterPolicy,
    /// Offered query rate.
    pub offered_qps: f64,
    /// Arrival cycle of each query, in arrival order.
    pub arrivals: Vec<Cycle>,
    /// Completion cycle of each query, in arrival order.
    pub completions: Vec<Cycle>,
    /// Enqueue→completion latency of each query, in arrival order.
    pub latencies: Vec<Cycle>,
    /// Queries that touched each node (a query spanning k nodes counts
    /// once on each).
    pub node_queries: Vec<u64>,
    /// Tables the node-level plan replicated across nodes.
    pub replicated_tables: usize,
    /// What became of each offered query, in arrival order. Plain
    /// (fault-free) serving completes everything; under
    /// [`serve_fleet_resilient`] queries may be rejected, shed or
    /// failed, and their `completions`/`latencies` entries are zeroed
    /// relative to arrival.
    pub outcomes: Vec<QueryOutcome>,
    /// The per-query failures behind every
    /// [`QueryOutcome::Failed`] entry, aggregated instead of aborting
    /// the run.
    pub failures: Vec<SimError>,
    /// Counters merged over every node shard, with `query_completions`
    /// carrying the per-query timestamps and `total_cycles` the
    /// makespan.
    pub report: RunReport,
}

impl FleetReport {
    /// Cycle at which the last query completed.
    pub fn makespan(&self) -> Cycle {
        self.completions.iter().copied().max().unwrap_or(0)
    }

    /// Queries served to completion.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|&&o| o == QueryOutcome::Completed)
            .count()
    }

    /// Fraction of offered queries served to completion (1.0 for an
    /// empty run).
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.completed() as f64 / self.outcomes.len() as f64
        }
    }

    /// Latencies of the completed queries only — what the distribution
    /// summary and throughput window are computed over.
    pub fn completed_latencies(&self) -> Vec<Cycle> {
        self.latencies
            .iter()
            .zip(&self.outcomes)
            .filter(|(_, &o)| o == QueryOutcome::Completed)
            .map(|(&l, _)| l)
            .collect()
    }

    /// Completion throughput (queries per simulated second) over the
    /// completed queries, windowed over first→last completion exactly
    /// like
    /// [`ServingReport::achieved_qps`](super::scheduler::ServingReport::achieved_qps).
    pub fn achieved_qps(&self) -> f64 {
        let done: Vec<Cycle> = self
            .completions
            .iter()
            .zip(&self.outcomes)
            .filter(|(_, &o)| o == QueryOutcome::Completed)
            .map(|(&c, _)| c)
            .collect();
        let n = done.len() as u64;
        let first = done.iter().copied().min().unwrap_or(0);
        let last = done.iter().copied().max().unwrap_or(0);
        if n >= 2 && last > first {
            completions_to_qps(n - 1, last - first)
        } else {
            completions_to_qps(n, last)
        }
    }

    /// The latency distribution over completed queries.
    pub fn summary(&self) -> super::scheduler::LatencySummary {
        super::scheduler::LatencySummary::from_latencies(&self.completed_latencies())
    }

    /// Queries that completed within `deadline` cycles of their arrival
    /// — the goodput numerator under an SLO.
    pub fn goodput_count(&self, deadline: Cycle) -> u64 {
        self.latencies
            .iter()
            .zip(&self.outcomes)
            .filter(|(&l, &o)| o == QueryOutcome::Completed && l <= deadline)
            .count() as u64
    }

    /// `(good, offered)` over the queries arriving in `[from, until)`:
    /// how many met the SLO deadline vs how many were offered — the
    /// windowed goodput used to compare pre-fault and post-fault
    /// service.
    pub fn goodput_in_window(&self, deadline: Cycle, from: Cycle, until: Cycle) -> (u64, u64) {
        let mut good = 0;
        let mut offered = 0;
        for ((&arr, &lat), &out) in self
            .arrivals
            .iter()
            .zip(&self.latencies)
            .zip(&self.outcomes)
        {
            if arr < from || arr >= until {
                continue;
            }
            offered += 1;
            if out == QueryOutcome::Completed && lat <= deadline {
                good += 1;
            }
        }
        (good, offered)
    }
}

/// Serves `cfg.queries` open-loop queries on `fleet` and accounts
/// per-query latency in simulated time.
///
/// Arrival schedule and query streams derive from `cfg.seed` exactly as
/// in single-node [`serve`](super::scheduler::serve), so a 1-node fleet
/// replays the same workload as the bare cluster.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any node's cycle-level run stalls,
/// or [`SimError::Config`] when placement cannot fit the workload's
/// tables at either level.
pub fn serve_fleet(fleet: &mut Fleet, cfg: &FleetConfig) -> Result<FleetReport, SimError> {
    let arrivals = cfg.process.seeded_arrivals(cfg.qps, cfg.queries, cfg.seed);
    let queries = QueryStream::new(cfg.shape, cfg.seed).take_queries(cfg.queries);
    serve_fleet_arrivals(fleet, cfg, &arrivals, &queries)
}

/// One node's scattered work: per-channel shards sorted by channel.
type Shards = Vec<(usize, SlsTrace)>;

/// The fleet scheduler core, shared by [`serve_fleet`] and the
/// saturation probe: routes each query's batches to nodes, scatters
/// within each node, simulates the touched nodes in parallel, and
/// accounts completion times.
pub(super) fn serve_fleet_arrivals(
    fleet: &mut Fleet,
    cfg: &FleetConfig,
    arrivals: &[Cycle],
    queries: &[SlsTrace],
) -> Result<FleetReport, SimError> {
    assert_eq!(arrivals.len(), queries.len(), "one arrival per query");
    let nodes = fleet.nodes.len();
    let channels = fleet.channels_per_node;
    let dispatch = cfg.dispatch;

    // Both placement levels are built once per run from the query
    // stream's table profile; every query then consults them.
    let usage = TableUsage::from_traces(queries);
    let plan = FleetPlacementPlan::build(
        nodes,
        channels,
        dispatch.channel_capacity.map(ByteSize::get),
        &usage,
        dispatch.node_policy,
        dispatch.within_policy,
    )
    .map_err(SimError::Config)?;

    // Earliest cycle each (node, channel) is free.
    let mut free_at: Vec<Vec<Cycle>> = vec![vec![0; channels]; nodes];
    // For LeastOutstanding: (completion, lookups) of work in flight per
    // node — the same size-aware bookkeeping the single-node scheduler
    // keeps per channel, lifted to node granularity.
    let mut in_flight: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); nodes];
    let mut completions = vec![0 as Cycle; queries.len()];
    let mut node_queries = vec![0u64; nodes];
    let mut merged = RunReport::for_system(fleet.name.clone());

    for (q_idx, query) in queries.iter().enumerate() {
        let dispatch_at = arrivals[q_idx];

        // Level 1: route each batch to one node replica of its table.
        let mut per_node_batches: Vec<SlsTrace> = vec![SlsTrace::default(); nodes];
        for batch in query.batches.iter().cloned() {
            let table = batch.table();
            let reps = plan.node_replicas(table);
            let node = match dispatch.router {
                RouterPolicy::HashAffinity => *reps
                    .get(q_idx % reps.len().max(1))
                    .unwrap_or_else(|| panic!("table {table} missing from fleet plan")),
                RouterPolicy::LeastOutstanding => *reps
                    .iter()
                    .min_by_key(|&&n| {
                        // Dispatch times are non-decreasing, so drained
                        // work can never count again.
                        in_flight[n].retain(|(done, _)| *done > dispatch_at);
                        let backlog: u64 = in_flight[n].iter().map(|(_, l)| l).sum();
                        (backlog, n)
                    })
                    .unwrap_or_else(|| panic!("table {table} missing from fleet plan")),
                RouterPolicy::PlacementScatter => *reps
                    .iter()
                    .min_by_key(|&&n| {
                        let earliest = plan
                            .per_node(n)
                            .replicas(table)
                            .iter()
                            .map(|&c| free_at[n][c])
                            .min()
                            .unwrap_or(Cycle::MAX);
                        (earliest, n)
                    })
                    .unwrap_or_else(|| panic!("table {table} missing from fleet plan")),
            };
            per_node_batches[node].batches.push(batch);
        }

        // Level 2: within each touched node, assign batches to the
        // least-backlogged owning channel — byte-for-byte the
        // single-node sharded scatter.
        let lookups = query.total_lookups();
        let mut scattered = 0u64;
        // (node, per-channel shards sorted by channel, result bytes).
        let mut node_jobs: Vec<(usize, Shards, u64)> = Vec::new();
        for (n, node_trace) in per_node_batches.into_iter().enumerate() {
            if node_trace.batches.is_empty() {
                continue;
            }
            node_queries[n] += 1;
            let mut by_channel: Vec<SlsTrace> = vec![SlsTrace::default(); channels];
            let mut result_bytes = 0u64;
            for batch in node_trace.batches {
                let table = batch.table();
                let replicas = plan.per_node(n).replicas(table);
                let &channel = replicas
                    .iter()
                    .min_by_key(|&&c| (free_at[n][c], c))
                    .unwrap_or_else(|| panic!("table {table} missing from node {n} plan"));
                result_bytes += batch.batch.output_bytes();
                by_channel[channel].batches.push(batch);
            }
            let shards: Shards = by_channel
                .into_iter()
                .enumerate()
                .filter(|(_, s)| !s.batches.is_empty())
                .collect();
            node_jobs.push((n, shards, result_bytes));
        }

        // Simulate every touched node as one pool task; each node fans
        // its shards out as nested tasks (try_run_shards), and reports
        // come back in submission order regardless of completion order.
        let reports: Vec<Vec<RunReport>> = {
            let mut pending = node_jobs.iter().peekable();
            let mut paired: Vec<(&mut dyn SlsBackend, &Shards)> = Vec::new();
            for (n, node) in fleet.nodes.iter_mut().enumerate() {
                if pending.peek().is_some_and(|(jn, _, _)| *jn == n) {
                    let (_, shards, _) = pending.next().unwrap();
                    paired.push((node.as_mut(), shards));
                }
            }
            let tasks: Vec<_> = paired
                .into_iter()
                .map(|(node, shards)| move || node.try_run_shards(shards))
                .collect();
            recnmp_exec::current().run_vec(tasks)?
        };

        // Queueing arithmetic, serially in (node, channel) order: each
        // shard queues on its channel, each node completes at its
        // slowest shard plus the per-node gather, and the query
        // completes at its slowest node plus the network gather (waived
        // when the router is co-located with a single node).
        let mut slowest_node = dispatch_at;
        let mut total_result_bytes = 0u64;
        for ((n, shards, result_bytes), node_reports) in node_jobs.iter().zip(reports) {
            let mut node_slowest = dispatch_at;
            let mut fanout: Cycle = 0;
            let mut node_lookups = 0u64;
            for ((channel, shard), report) in shards.iter().zip(node_reports) {
                scattered += shard.total_lookups();
                node_lookups += shard.total_lookups();
                let start = dispatch_at.max(free_at[*n][*channel]);
                let complete = start + report.total_cycles;
                free_at[*n][*channel] = complete;
                node_slowest = node_slowest.max(complete);
                fanout += 1;
                merged.absorb_parallel(report);
            }
            let node_complete =
                node_slowest + dispatch.gather.base + dispatch.gather.per_shard * fanout;
            if dispatch.router == RouterPolicy::LeastOutstanding {
                in_flight[*n].push((node_complete, node_lookups));
            }
            slowest_node = slowest_node.max(node_complete);
            total_result_bytes += result_bytes;
        }
        debug_assert_eq!(scattered, lookups, "fleet scatter must conserve lookups");

        completions[q_idx] = if nodes > 1 {
            slowest_node + dispatch.network.cost_of(total_result_bytes)
        } else {
            slowest_node
        };
    }

    let latencies: Vec<Cycle> = completions
        .iter()
        .zip(arrivals)
        .map(|(&done, &arr)| done - arr)
        .collect();
    merged.total_cycles = completions.iter().copied().max().unwrap_or(0);
    merged.query_completions = completions.clone();

    Ok(FleetReport {
        system: fleet.name.clone(),
        router: dispatch.router,
        offered_qps: cfg.qps,
        arrivals: arrivals.to_vec(),
        completions,
        latencies,
        node_queries,
        replicated_tables: plan.replicated_tables(),
        outcomes: vec![QueryOutcome::Completed; queries.len()],
        failures: Vec::new(),
        report: merged,
    })
}

/// Serves `cfg.queries` open-loop queries on `fleet` under a fault
/// schedule and resilience policies, aggregating per-query failures
/// into the report instead of aborting the run.
///
/// Arrival schedule and query streams derive from `cfg.seed` exactly as
/// in [`serve_fleet`]; with [`ResilienceConfig::zero`] the completion
/// schedule is byte-identical to the plain scheduler (pinned by
/// `resilience_determinism`). The resilience semantics on top:
///
/// * **Health-aware failover** — the router consults a
///   [`HealthTracker`]: a batch whose preferred replica is crashed (or
///   flagged degraded while a healthier replica exists) re-routes to a
///   surviving replica under the same router arithmetic restricted to
///   the live set, counted as a failover. The *first* query to discover
///   a fresh crash pays [`redispatch_penalty`](ResilienceConfig::redispatch_penalty)
///   on its dispatch; later queries route around the node for free. A
///   table with no surviving replica fails its query
///   ([`SimError::QueryFailed`]) — counted, not panicked.
/// * **Retry** — each shard attempt gets
///   [`RetryPolicy::timeout`](super::faults::RetryPolicy::timeout)
///   cycles from its dispatch; an attempt that
///   blows the budget (queue wait included) or starts inside an
///   injected timeout window aborts at `min(completion, dispatch +
///   timeout)`, occupies its channel for whatever service it wasted,
///   and re-dispatches after exponential backoff onto the
///   least-backlogged replica channel still owning the shard's tables.
///   Retry exhaustion fails the query ([`SimError::DeadlineExceeded`]).
/// * **Hedging** — when a node job would complete later than the
///   configured quantile of recently observed node-job latencies, the
///   job is duplicated onto a surviving replica node holding all its
///   tables; the duplicate dispatches at `dispatch + delay`, both
///   copies pay their channel occupancy, and the earlier completion
///   wins.
/// * **SLO guard** — with an [`SloPolicy`](super::faults::SloPolicy), a
///   query whose *optimistic* estimated queue delay (earliest free
///   replica channel per batch) already exceeds the deadline is
///   rejected at admission; one whose *actual* routed service start
///   would land past the deadline is shed at dispatch. Neither runs any
///   cycle-level work.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a node's cycle-level run stalls, or
/// [`SimError::Config`] when placement cannot fit the workload —
/// run-level problems only; per-query failures land in
/// [`FleetReport::failures`].
pub fn serve_fleet_resilient(
    fleet: &mut Fleet,
    cfg: &FleetConfig,
    res: &ResilienceConfig,
) -> Result<FleetReport, SimError> {
    let arrivals = cfg.process.seeded_arrivals(cfg.qps, cfg.queries, cfg.seed);
    let queries = QueryStream::new(cfg.shape, cfg.seed).take_queries(cfg.queries);
    serve_fleet_resilient_arrivals(fleet, cfg, res, &arrivals, &queries)
}

/// One replica pick under `router`, restricted to the candidate `pool`
/// (non-empty): the same arithmetic the plain scheduler applies to the
/// full replica set.
#[allow(clippy::too_many_arguments)]
fn pick_replica(
    router: RouterPolicy,
    pool: &[usize],
    q_idx: usize,
    table: recnmp_types::TableId,
    plan: &FleetPlacementPlan,
    in_flight: &mut [Vec<(Cycle, u64)>],
    free_at: &[Vec<Cycle>],
    dispatch_at: Cycle,
) -> usize {
    match router {
        RouterPolicy::HashAffinity => pool[q_idx % pool.len()],
        RouterPolicy::LeastOutstanding => *pool
            .iter()
            .min_by_key(|&&n| {
                in_flight[n].retain(|(done, _)| *done > dispatch_at);
                let backlog: u64 = in_flight[n].iter().map(|(_, l)| l).sum();
                (backlog, n)
            })
            .unwrap(),
        RouterPolicy::PlacementScatter => *pool
            .iter()
            .min_by_key(|&&n| {
                let earliest = plan
                    .per_node(n)
                    .replicas(table)
                    .iter()
                    .map(|&c| free_at[n][c])
                    .min()
                    .unwrap_or(Cycle::MAX);
                (earliest, n)
            })
            .unwrap(),
    }
}

/// Runs one shard's attempt loop: queue on the channel, apply the fault
/// plan's degradation multiplier, abort on an injected timeout window or
/// a blown per-attempt budget, back off exponentially and re-dispatch on
/// the least-backlogged replica channel still owning the shard's tables.
///
/// Returns `Ok((completion, service))` of the winning attempt, or
/// `Err(attempts)` after retry exhaustion. `retries` counts aborted
/// attempts that were re-dispatched.
#[allow(clippy::too_many_arguments)]
fn run_shard_attempts(
    node: usize,
    first_channel: usize,
    shard_tables: &[recnmp_types::TableId],
    base_service: Cycle,
    dispatch: Cycle,
    free_at: &mut [Vec<Cycle>],
    plan: &FleetPlacementPlan,
    res: &ResilienceConfig,
    retries: &mut u64,
) -> Result<(Cycle, Cycle), u32> {
    let retry = res.retry;
    let budget = retry.timeout;
    let mut t = dispatch;
    let mut channel = first_channel;
    for attempt in 0..retry.max_attempts.max(1) {
        let start = t.max(free_at[node][channel]);
        let mult = res.faults.degrade_multiplier(node, channel, start);
        let service = base_service.saturating_mul(mult);
        let complete = start + service;
        let fault_timeout = res.faults.times_out(node, channel, start);
        let over_budget = budget > 0 && complete.saturating_sub(t) > budget;
        if !fault_timeout && !over_budget {
            free_at[node][channel] = complete;
            return Ok((complete, service));
        }
        // The attempt aborts when the client's budget expires or the
        // faulty run surfaces its error, whichever is sooner; the
        // channel stays busy for whatever service it wasted (nothing,
        // if the attempt was still queued).
        let fail_at = if budget > 0 {
            complete.min(t + budget)
        } else {
            complete
        };
        if fail_at > start {
            free_at[node][channel] = fail_at;
        }
        if attempt + 1 == retry.max_attempts.max(1) {
            return Err(attempt + 1);
        }
        *retries += 1;
        t = fail_at + retry.backoff_before(attempt);
        // Re-dispatch onto the least-backlogged channel owning every
        // table of this shard (often the same channel — transient
        // windows pass; degraded channels lose to healthier replicas).
        if let Some(next) = retry_channel(node, shard_tables, plan, free_at) {
            channel = next;
        }
    }
    unreachable!("attempt loop returns before exhausting its range");
}

/// The least-backlogged channel of `node` owning every table in
/// `tables`; `None` when no single channel holds them all.
fn retry_channel(
    node: usize,
    tables: &[recnmp_types::TableId],
    plan: &FleetPlacementPlan,
    free_at: &[Vec<Cycle>],
) -> Option<usize> {
    let mut common: Option<Vec<usize>> = None;
    for &t in tables {
        let reps = plan.per_node(node).replicas(t);
        common = Some(match common {
            None => reps.to_vec(),
            Some(prev) => prev.into_iter().filter(|c| reps.contains(c)).collect(),
        });
    }
    common?.into_iter().min_by_key(|&c| (free_at[node][c], c))
}

/// Nearest-rank quantile of an unsorted latency window.
fn window_quantile(window: &[Cycle], q: f64) -> Cycle {
    let mut sorted = window.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The resilient fleet scheduler core: the plain queueing arithmetic of
/// [`serve_fleet_arrivals`] plus fault injection, health-aware failover,
/// retry/hedging and the SLO guard. See [`serve_fleet_resilient`] for
/// the semantics.
pub(super) fn serve_fleet_resilient_arrivals(
    fleet: &mut Fleet,
    cfg: &FleetConfig,
    res: &ResilienceConfig,
    arrivals: &[Cycle],
    queries: &[SlsTrace],
) -> Result<FleetReport, SimError> {
    assert_eq!(arrivals.len(), queries.len(), "one arrival per query");
    let nodes = fleet.nodes.len();
    let channels = fleet.channels_per_node;
    let dispatch = cfg.dispatch;

    let usage = TableUsage::from_traces(queries);
    let plan = FleetPlacementPlan::build(
        nodes,
        channels,
        dispatch.channel_capacity.map(ByteSize::get),
        &usage,
        dispatch.node_policy,
        dispatch.within_policy,
    )
    .map_err(SimError::Config)?;

    let mut free_at: Vec<Vec<Cycle>> = vec![vec![0; channels]; nodes];
    let mut in_flight: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); nodes];
    let mut completions = vec![0 as Cycle; queries.len()];
    let mut node_queries = vec![0u64; nodes];
    let mut merged = RunReport::for_system(fleet.name.clone());
    let mut outcomes = vec![QueryOutcome::Completed; queries.len()];
    let mut failures: Vec<SimError> = Vec::new();
    let mut health = HealthTracker::new(nodes, res.ewma_alpha, res.degraded_after);
    // Recently observed node-job latencies the hedge delay anchors at.
    let mut hedge_window: Vec<Cycle> = Vec::new();

    'queries: for (q_idx, query) in queries.iter().enumerate() {
        let arrival = arrivals[q_idx];
        let dispatch_at = arrival;
        // Cycles this query pays for discovering a fresh crash (at most
        // one detection per query).
        let mut penalty: Cycle = 0;

        // Level 1: route each batch to a *live* node replica, the plain
        // router arithmetic first and the failover path only when the
        // preferred replica is crashed or degraded.
        let mut per_node_batches: Vec<SlsTrace> = vec![SlsTrace::default(); nodes];
        for batch in query.batches.iter().cloned() {
            let table = batch.table();
            let reps = plan.node_replicas(table);
            assert!(!reps.is_empty(), "table {table} missing from fleet plan");
            let preferred = pick_replica(
                dispatch.router,
                reps,
                q_idx,
                table,
                &plan,
                &mut in_flight,
                &free_at,
                dispatch_at,
            );
            let preferred_down = res.faults.crashed(preferred, dispatch_at);
            let node = if !preferred_down && health.health(preferred) != NodeHealth::Degraded {
                preferred
            } else {
                if preferred_down && !health.known_crashed(preferred) {
                    health.mark_crashed(preferred);
                    penalty = res.redispatch_penalty;
                }
                let alive: Vec<usize> = reps
                    .iter()
                    .copied()
                    .filter(|&n| !res.faults.crashed(n, dispatch_at))
                    .collect();
                if alive.is_empty() {
                    outcomes[q_idx] = QueryOutcome::Failed;
                    failures.push(SimError::QueryFailed {
                        query: q_idx,
                        table,
                    });
                    merged.queries_failed += 1;
                    completions[q_idx] = arrival;
                    continue 'queries;
                }
                let healthy: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&n| health.health(n) == NodeHealth::Healthy)
                    .collect();
                let pool = if healthy.is_empty() { &alive } else { &healthy };
                if !preferred_down && pool.contains(&preferred) {
                    preferred
                } else {
                    merged.failovers += 1;
                    pick_replica(
                        dispatch.router,
                        pool,
                        q_idx,
                        table,
                        &plan,
                        &mut in_flight,
                        &free_at,
                        dispatch_at,
                    )
                }
            };
            per_node_batches[node].batches.push(batch);
        }
        let dispatch_eff = dispatch_at + penalty;

        // SLO admission: the optimistic estimate — every batch served by
        // the earliest-free channel of any live replica. If even that
        // already blows the deadline, reject without running anything.
        if let Some(slo) = res.slo {
            let mut est_start = dispatch_eff;
            for batch in &query.batches {
                let table = batch.table();
                let best = plan
                    .node_replicas(table)
                    .iter()
                    .filter(|&&n| !res.faults.crashed(n, dispatch_at))
                    .flat_map(|&n| {
                        plan.per_node(n)
                            .replicas(table)
                            .iter()
                            .map(move |&c| (n, c))
                    })
                    .map(|(n, c)| free_at[n][c])
                    .min()
                    .unwrap_or(0);
                est_start = est_start.max(best.max(dispatch_eff));
            }
            if est_start.saturating_sub(arrival) > slo.deadline {
                outcomes[q_idx] = QueryOutcome::Rejected;
                merged.queries_rejected += 1;
                completions[q_idx] = arrival;
                continue 'queries;
            }
        }

        // Level 2: within each touched node, assign batches to the
        // least-backlogged owning channel (the plain scatter).
        let lookups = query.total_lookups();
        let mut scattered = 0u64;
        let mut node_jobs: Vec<(usize, Shards, u64)> = Vec::new();
        for (n, node_trace) in per_node_batches.into_iter().enumerate() {
            if node_trace.batches.is_empty() {
                continue;
            }
            let mut by_channel: Vec<SlsTrace> = vec![SlsTrace::default(); channels];
            let mut result_bytes = 0u64;
            for batch in node_trace.batches {
                let table = batch.table();
                let replicas = plan.per_node(n).replicas(table);
                let &channel = replicas
                    .iter()
                    .min_by_key(|&&c| (free_at[n][c], c))
                    .unwrap_or_else(|| panic!("table {table} missing from node {n} plan"));
                result_bytes += batch.batch.output_bytes();
                by_channel[channel].batches.push(batch);
            }
            let shards: Shards = by_channel
                .into_iter()
                .enumerate()
                .filter(|(_, s)| !s.batches.is_empty())
                .collect();
            node_jobs.push((n, shards, result_bytes));
        }

        // SLO shedding: the *actual* routed service start. A query whose
        // slowest shard would begin past the deadline is dropped at
        // dispatch — it cannot complete in time and would only add load.
        if let Some(slo) = res.slo {
            let actual_start = node_jobs
                .iter()
                .flat_map(|(n, shards, _)| {
                    shards
                        .iter()
                        .map(|(c, _)| dispatch_eff.max(free_at[*n][*c]))
                })
                .max()
                .unwrap_or(dispatch_eff);
            if actual_start.saturating_sub(arrival) > slo.deadline {
                outcomes[q_idx] = QueryOutcome::Shed;
                merged.queries_shed += 1;
                completions[q_idx] = arrival;
                continue 'queries;
            }
        }

        for (n, _, _) in &node_jobs {
            node_queries[*n] += 1;
        }

        // Simulate every touched node as one pool task, exactly like the
        // plain scheduler (reports return in submission order).
        let reports: Vec<Vec<RunReport>> = {
            let mut pending = node_jobs.iter().peekable();
            let mut paired: Vec<(&mut dyn SlsBackend, &Shards)> = Vec::new();
            for (n, node) in fleet.nodes.iter_mut().enumerate() {
                if pending.peek().is_some_and(|(jn, _, _)| *jn == n) {
                    let (_, shards, _) = pending.next().unwrap();
                    paired.push((node.as_mut(), shards));
                }
            }
            let tasks: Vec<_> = paired
                .into_iter()
                .map(|(node, shards)| move || node.try_run_shards(shards))
                .collect();
            recnmp_exec::current().run_vec(tasks)?
        };

        // Queueing arithmetic with the resilience layer folded in.
        let mut slowest_node = dispatch_eff;
        let mut total_result_bytes = 0u64;
        let mut q_failed: Option<SimError> = None;
        for ((n, shards, result_bytes), node_reports) in node_jobs.iter().zip(reports) {
            let mut node_slowest = dispatch_eff;
            let mut node_service: Cycle = 0;
            let mut fanout: Cycle = 0;
            let mut node_lookups = 0u64;
            for ((channel, shard), report) in shards.iter().zip(node_reports) {
                scattered += shard.total_lookups();
                node_lookups += shard.total_lookups();
                let base = report.total_cycles;
                merged.absorb_parallel(report);
                let shard_tables: Vec<recnmp_types::TableId> =
                    shard.batches.iter().map(|b| b.table()).collect();
                match run_shard_attempts(
                    *n,
                    *channel,
                    &shard_tables,
                    base,
                    dispatch_eff,
                    &mut free_at,
                    &plan,
                    res,
                    &mut merged.retries,
                ) {
                    Ok((complete, service)) => {
                        node_slowest = node_slowest.max(complete);
                        node_service = node_service.max(service);
                    }
                    Err(attempts) => {
                        q_failed = Some(SimError::DeadlineExceeded {
                            query: q_idx,
                            deadline: res.retry.timeout,
                            attempts,
                        });
                    }
                }
                fanout += 1;
            }

            // Hedge a straggler node job onto a surviving replica
            // holding all its tables; first completion wins, both pay
            // their channel occupancy.
            if let (Some(hedge), None) = (res.hedge, &q_failed) {
                if hedge_window.len() >= hedge.min_samples {
                    let delay = window_quantile(&hedge_window, hedge.quantile);
                    if node_slowest.saturating_sub(dispatch_eff) > delay && node_service > 0 {
                        let job_tables: Vec<recnmp_types::TableId> = shards
                            .iter()
                            .flat_map(|(_, s)| s.batches.iter().map(|b| b.table()))
                            .collect();
                        if let Some((alt, alt_channels)) = hedge_target(
                            *n,
                            &job_tables,
                            &plan,
                            res,
                            dispatch_at,
                            &free_at,
                            &health,
                        ) {
                            merged.hedges += 1;
                            let mut hstart = dispatch_eff + delay;
                            for &c in &alt_channels {
                                hstart = hstart.max(free_at[alt][c]);
                            }
                            let hcomplete = hstart + node_service;
                            for &c in &alt_channels {
                                free_at[alt][c] = hcomplete;
                            }
                            node_slowest = node_slowest.min(hcomplete).max(dispatch_eff);
                        }
                    }
                }
            }

            if node_service > 0 {
                health.observe(*n, node_service, node_lookups);
                hedge_window.push(node_slowest.saturating_sub(dispatch_eff));
                if let Some(hedge) = res.hedge {
                    if hedge_window.len() > hedge.window {
                        hedge_window.remove(0);
                    }
                } else if hedge_window.len() > 64 {
                    hedge_window.remove(0);
                }
            }

            let node_complete =
                node_slowest + dispatch.gather.base + dispatch.gather.per_shard * fanout;
            if dispatch.router == RouterPolicy::LeastOutstanding {
                in_flight[*n].push((node_complete, node_lookups));
            }
            slowest_node = slowest_node.max(node_complete);
            total_result_bytes += result_bytes;
        }
        debug_assert_eq!(scattered, lookups, "fleet scatter must conserve lookups");

        if let Some(err) = q_failed {
            outcomes[q_idx] = QueryOutcome::Failed;
            failures.push(err);
            merged.queries_failed += 1;
            completions[q_idx] = arrival;
            continue 'queries;
        }

        completions[q_idx] = if nodes > 1 {
            slowest_node + dispatch.network.cost_of(total_result_bytes)
        } else {
            slowest_node
        };
    }

    let latencies: Vec<Cycle> = completions
        .iter()
        .zip(arrivals)
        .map(|(&done, &arr)| done - arr)
        .collect();
    merged.total_cycles = completions.iter().copied().max().unwrap_or(0);
    merged.query_completions = completions.clone();

    Ok(FleetReport {
        system: fleet.name.clone(),
        router: dispatch.router,
        offered_qps: cfg.qps,
        arrivals: arrivals.to_vec(),
        completions,
        latencies,
        node_queries,
        replicated_tables: plan.replicated_tables(),
        outcomes,
        failures,
        report: merged,
    })
}

/// A hedge target for a node job: a live node other than `primary` that
/// replicates *every* table of the job, preferring healthy nodes, then
/// the one whose involved channels free earliest. Returns the node and
/// the channels the duplicate occupies there.
fn hedge_target(
    primary: usize,
    job_tables: &[recnmp_types::TableId],
    plan: &FleetPlacementPlan,
    res: &ResilienceConfig,
    dispatch_at: Cycle,
    free_at: &[Vec<Cycle>],
    health: &HealthTracker,
) -> Option<(usize, Vec<usize>)> {
    let mut common: Option<Vec<usize>> = None;
    for &t in job_tables {
        let reps = plan.node_replicas(t);
        common = Some(match common {
            None => reps.to_vec(),
            Some(prev) => prev.into_iter().filter(|n| reps.contains(n)).collect(),
        });
    }
    let candidates: Vec<usize> = common?
        .into_iter()
        .filter(|&n| n != primary && !res.faults.crashed(n, dispatch_at))
        .collect();
    let healthy: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&n| health.health(n) == NodeHealth::Healthy)
        .collect();
    let pool = if healthy.is_empty() {
        candidates
    } else {
        healthy
    };
    pool.into_iter()
        .map(|n| {
            let chans: std::collections::BTreeSet<usize> = job_tables
                .iter()
                .map(|&t| {
                    *plan
                        .per_node(n)
                        .replicas(t)
                        .iter()
                        .min_by_key(|&&c| (free_at[n][c], c))
                        .expect("replicated table owns a channel")
                })
                .collect();
            let ready = chans.iter().map(|&c| free_at[n][c]).max().unwrap_or(0);
            (ready, n, chans.into_iter().collect::<Vec<usize>>())
        })
        .min_by_key(|(ready, n, _)| (*ready, *n))
        .map(|(_, n, chans)| (n, chans))
}

/// One fleet throughput–latency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCurve {
    /// Fleet label.
    pub system: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Dispatch label (`"fleet-sharded"`, `"fleet-replicated(2)"`, ...).
    pub placement: String,
    /// Router label.
    pub router: &'static str,
    /// Reference saturation throughput the utilization fractions anchor
    /// to.
    pub saturation_qps: f64,
    /// Measured points, in ascending offered-QPS order.
    pub points: Vec<SweepPoint>,
}

impl FleetCurve {
    /// The saturation knee: the highest offered load the fleet still
    /// sustained (achieved ≥ 90% of offered). `None` when even the
    /// lightest point was unsustainable.
    pub fn knee(&self) -> Option<&SweepPoint> {
        self.points.iter().rev().find(|p| p.sustained())
    }
}

/// Probes the back-to-back service capacity of a fresh fleet under
/// `dispatch`: all `queries` queries arrive at cycle 0 and the
/// completion throughput of the resulting busy period is the saturation
/// rate.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a cycle-level run stalls, or
/// [`SimError::Config`] when placement fails.
pub fn fleet_saturation(
    make_fleet: &mut FleetFactory<'_>,
    dispatch: FleetDispatch,
    shape: QueryShape,
    queries: usize,
    seed: u64,
) -> Result<f64, SimError> {
    let mut fleet = make_fleet();
    let cfg = FleetConfig {
        process: ArrivalProcess::Uniform,
        qps: 1.0, // unused: arrivals are pinned to cycle 0 below
        queries,
        shape,
        dispatch,
        seed,
    };
    let arrivals = vec![0; queries];
    let trace_queries = QueryStream::new(shape, seed).take_queries(queries);
    let report = serve_fleet_arrivals(&mut fleet, &cfg, &arrivals, &trace_queries)?;
    Ok(report.achieved_qps())
}

/// Measures one fleet throughput–latency curve at explicit offered
/// loads, anchored to a caller-provided `saturation` rate.
///
/// Load points are independent simulations over fresh fleets, each one
/// task on the deterministic worker pool; a point's fleet then nests
/// its own node and channel tasks into the same pool, so the whole
/// sweep runs under one fixed thread budget and the curve is
/// byte-identical to a serial sweep at any worker count.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any cycle-level run stalls, or
/// [`SimError::Config`] when placement fails.
#[allow(clippy::too_many_arguments)]
pub fn fleet_sweep_at(
    make_fleet: &mut FleetFactory<'_>,
    dispatch: FleetDispatch,
    process: ArrivalProcess,
    shape: QueryShape,
    saturation: f64,
    offered: &[f64],
    queries: usize,
    seed: u64,
) -> Result<FleetCurve, SimError> {
    let mut jobs: Vec<(Fleet, FleetConfig)> = offered
        .iter()
        .map(|&qps| {
            assert!(qps > 0.0, "offered loads must be positive");
            let cfg = FleetConfig {
                process,
                qps,
                queries,
                shape,
                dispatch,
                seed,
            };
            (make_fleet(), cfg)
        })
        .collect();
    let tasks: Vec<_> = jobs
        .iter_mut()
        .map(|(fleet, cfg)| move || serve_fleet(fleet, cfg))
        .collect();
    let reports = recnmp_exec::current().run_vec(tasks)?;
    let mut points = Vec::with_capacity(offered.len());
    let mut system = String::new();
    let mut nodes = 0;
    for (&qps, report) in offered.iter().zip(reports) {
        system = report.system.clone();
        nodes = report.node_queries.len();
        points.push(SweepPoint {
            offered_qps: qps,
            utilization: qps / saturation,
            achieved_qps: report.achieved_qps(),
            summary: report.summary(),
        });
    }
    Ok(FleetCurve {
        system,
        nodes,
        placement: dispatch.label(),
        router: dispatch.router.name(),
        saturation_qps: saturation,
        points,
    })
}

/// Sweeps one fleet under every dispatch in `dispatches`, all at the
/// same absolute offered loads: fractions of the **first** dispatch's
/// saturation rate. Callers put the informed configuration (hot-table
/// replication) first so its knee lands inside the sweep by
/// construction and every alternative is measured at the same operating
/// points — the same anchoring convention as
/// [`tiered_sweep`](super::sweep::tiered_sweep).
///
/// # Errors
///
/// Returns the first failing sweep's error.
pub fn fleet_sweep(
    make_fleet: &mut FleetFactory<'_>,
    dispatches: &[FleetDispatch],
    spec: &SweepSpec,
) -> Result<Vec<FleetCurve>, SimError> {
    let anchor = dispatches.first().expect("at least one dispatch");
    let saturation = fleet_saturation(
        make_fleet,
        *anchor,
        spec.shape,
        spec.probe_queries,
        spec.seed,
    )?;
    let offered: Vec<f64> = spec.utilizations.iter().map(|&u| u * saturation).collect();
    dispatches
        .iter()
        .map(|&dispatch| {
            fleet_sweep_at(
                make_fleet,
                dispatch,
                spec.process,
                spec.shape,
                saturation,
                &offered,
                spec.queries,
                spec.seed,
            )
        })
        .collect()
}

/// Everything that parameterizes one resilience sweep: the workload, the
/// SLO derivation, and the severity of the injected faults. The fault
/// *schedule* is fixed by protocol — the last node crashes at the mean
/// arrival cycle of query N/2, and the `crash+slow` level additionally
/// sticks channel 0 of node 0 at `degrade_multiplier`x service time from
/// the crash onward — so two runs of the same spec are identical.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceSpec {
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Offered load (whole-fleet queries per second).
    pub qps: f64,
    /// Queries per run.
    pub queries: usize,
    /// Query shape.
    pub shape: QueryShape,
    /// Arrival/placement seed.
    pub seed: u64,
    /// The SLO deadline is this multiple of the fault-free replicated
    /// run's p99.
    pub deadline_p99_multiple: u64,
    /// Post-crash goodput must keep at least this fraction of the
    /// pre-crash rate to count as sustained.
    pub sustain_fraction: f64,
    /// Service-time multiplier of the stuck-at-slow channel in the
    /// `crash+slow` level.
    pub degrade_multiplier: u64,
}

/// One arm of the resilience sweep: a fault level crossed with a
/// placement flavor and hedging on/off, plus its measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceArm {
    /// Fault-level label (`"none"`, `"crash"`, `"crash+slow"`).
    pub faults: &'static str,
    /// Placement label (`"fleet-replicated"` or `"fleet-sharded"`).
    pub placement: &'static str,
    /// Whether p95 hedging was on.
    pub hedged: bool,
    /// Fraction of offered queries that completed.
    pub availability: f64,
    /// Goodput-under-SLO over arrivals before the crash cycle.
    pub pre_goodput: f64,
    /// Goodput-under-SLO over arrivals from the crash cycle on.
    pub post_goodput: f64,
    /// `post_goodput >= sustain_fraction * pre_goodput`.
    pub sustained: bool,
    /// The full fleet report (outcome counters, latencies).
    pub report: FleetReport,
}

impl ResilienceArm {
    /// Post/pre goodput ratio (1.0 for an idle pre window).
    pub fn goodput_ratio(&self) -> f64 {
        if self.pre_goodput > 0.0 {
            self.post_goodput / self.pre_goodput
        } else {
            1.0
        }
    }
}

/// The outcome of [`resilience_sweep`]: the derived SLO anchors plus one
/// [`ResilienceArm`] per (fault level x placement x hedging) combination,
/// in level-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSweep {
    /// SLO deadline in cycles (`deadline_p99_multiple` x the fault-free
    /// replicated p99).
    pub deadline: Cycle,
    /// The fault-free replicated p99 the deadline derives from.
    pub baseline_p99: Cycle,
    /// Crash cycle (mean arrival of query N/2).
    pub crash_at: Cycle,
    /// The node the crash levels take down (the last node).
    pub crashed_node: usize,
    /// The sustain bar the arms were judged against.
    pub sustain_fraction: f64,
    /// All measured arms.
    pub arms: Vec<ResilienceArm>,
}

impl ResilienceSweep {
    /// The arm at one (fault level, placement, hedging) coordinate.
    pub fn arm(&self, faults: &str, placement: &str, hedged: bool) -> Option<&ResilienceArm> {
        self.arms
            .iter()
            .find(|a| a.faults == faults && a.placement == placement && a.hedged == hedged)
    }

    /// The crash-level replicated+hedged arm — the configuration the
    /// resilience verdict claims sustains the crash.
    pub fn verdict_arm(&self) -> &ResilienceArm {
        self.arm("crash", "fleet-replicated", true)
            .expect("crash-level replicated+hedged arm ran")
    }

    /// The crash-level sharded unhedged arm — the configuration the
    /// resilience verdict claims collapses.
    pub fn verdict_baseline(&self) -> &ResilienceArm {
        self.arm("crash", "fleet-sharded", false)
            .expect("crash-level sharded arm ran")
    }

    /// The resilience claim itself: replicated+hedged sustains the crash
    /// while unreplicated placement does not.
    pub fn verdict_holds(&self) -> bool {
        self.verdict_arm().sustained && !self.verdict_baseline().sustained
    }
}

/// Measures fleet resilience through escalating injected faults: no
/// faults, a mid-horizon node crash, and the crash plus a stuck-at-slow
/// channel on a survivor, each crossed with {replicated-everywhere,
/// sharded} placement and p95 hedging on/off — every arm under the same
/// SLO (deadline = `deadline_p99_multiple` x the fault-free replicated
/// p99) with bounded retries, admission control and deadline shedding.
///
/// Arms are independent simulations over fresh fleets, parallelized as
/// tasks on the deterministic worker pool (each arm's fleet nests its
/// node and channel tasks into the same pool), so the sweep is
/// byte-identical to a serial sweep at any worker count.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a cycle-level run stalls, or
/// [`SimError::Config`] when placement fails.
pub fn resilience_sweep(
    make_fleet: &mut FleetFactory<'_>,
    spec: &ResilienceSpec,
) -> Result<ResilienceSweep, SimError> {
    let dispatch_replicated = FleetDispatch::replicated(spec.shape.tables);
    let dispatch_sharded = FleetDispatch::sharded();
    let cfg = |dispatch: FleetDispatch| FleetConfig {
        process: spec.process,
        qps: spec.qps,
        queries: spec.queries,
        shape: spec.shape,
        dispatch,
        seed: spec.seed,
    };
    // Both anchors are pure arithmetic from the spec plus one fault-free
    // run, so the sweep is deterministic end to end.
    let crash_at = ((spec.queries as f64 / 2.0) * qps_to_interarrival_cycles(spec.qps)) as Cycle;
    let mut baseline_fleet = make_fleet();
    let crashed_node = baseline_fleet.nodes() - 1;
    let baseline = serve_fleet(&mut baseline_fleet, &cfg(dispatch_replicated))?;
    let baseline_p99 = baseline.summary().p99;
    let deadline = spec.deadline_p99_multiple * baseline_p99;

    let levels: [(&'static str, FaultPlan); 3] = [
        ("none", FaultPlan::none()),
        (
            "crash",
            FaultPlan::none().with_crash(crashed_node, crash_at),
        ),
        (
            "crash+slow",
            FaultPlan::none()
                .with_crash(crashed_node, crash_at)
                .with_degrade(0, 0, crash_at, u64::MAX, spec.degrade_multiplier),
        ),
    ];
    let placements: [(&'static str, FleetDispatch, bool); 4] = [
        ("fleet-replicated", dispatch_replicated, false),
        ("fleet-replicated", dispatch_replicated, true),
        ("fleet-sharded", dispatch_sharded, false),
        ("fleet-sharded", dispatch_sharded, true),
    ];

    let mut jobs: Vec<(
        Fleet,
        FleetConfig,
        ResilienceConfig,
        &'static str,
        &'static str,
        bool,
    )> = Vec::with_capacity(levels.len() * placements.len());
    for (label, plan) in &levels {
        for &(placement, dispatch, hedged) in &placements {
            let mut res = ResilienceConfig::new(plan.clone())
                .with_retry(RetryPolicy::serving_default(deadline))
                .with_slo(SloPolicy::new(deadline));
            if hedged {
                res = res.with_hedge(HedgePolicy::p95());
            }
            jobs.push((make_fleet(), cfg(dispatch), res, label, placement, hedged));
        }
    }
    let tasks: Vec<_> = jobs
        .iter_mut()
        .map(|(fleet, cfg, res, ..)| move || serve_fleet_resilient(fleet, cfg, res))
        .collect();
    let reports = recnmp_exec::current().run_vec(tasks)?;

    let frac = |good: u64, offered: u64| {
        if offered == 0 {
            1.0
        } else {
            good as f64 / offered as f64
        }
    };
    let arms = jobs
        .iter()
        .zip(reports)
        .map(|(&(_, _, _, faults, placement, hedged), report)| {
            let (good_pre, offered_pre) = report.goodput_in_window(deadline, 0, crash_at);
            let (good_post, offered_post) =
                report.goodput_in_window(deadline, crash_at, Cycle::MAX);
            let pre_goodput = frac(good_pre, offered_pre);
            let post_goodput = frac(good_post, offered_post);
            ResilienceArm {
                faults,
                placement,
                hedged,
                availability: report.availability(),
                pre_goodput,
                post_goodput,
                sustained: post_goodput >= spec.sustain_fraction * pre_goodput,
                report,
            }
        })
        .collect();
    Ok(ResilienceSweep {
        deadline,
        baseline_p99,
        crash_at,
        crashed_node,
        sustain_fraction: spec.sustain_fraction,
        arms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::{ServingMode, ShardedDispatch};
    use crate::serving::scheduler::serve;
    use crate::serving::ServingConfig;

    fn quick_shape() -> QueryShape {
        QueryShape::new(8, 2, 6)
            .with_table_skew(1.0)
            .with_table_sampling(3)
    }

    fn quick_cfg(nodes_hint: f64, queries: usize, dispatch: FleetDispatch) -> FleetConfig {
        FleetConfig {
            process: ArrivalProcess::Poisson,
            qps: 40_000.0 * nodes_hint,
            queries,
            shape: quick_shape(),
            dispatch,
            seed: 23,
        }
    }

    #[test]
    fn fleet_rejects_degenerate_geometry() {
        assert!(Fleet::new(vec![]).is_err());
        let mixed: Vec<Box<dyn SlsBackend>> = vec![
            reference_cluster4(),
            Box::new(recnmp_baselines::HostBaseline::new(1, 2).unwrap()),
        ];
        assert!(Fleet::new(mixed).is_err());
        let fleet = Fleet::reference(2);
        assert_eq!(fleet.nodes(), 2);
        assert_eq!(fleet.channels_per_node(), 4);
        assert_eq!(fleet.name(), "fleet[2 x recnmp-cluster[4]]");
    }

    #[test]
    fn fleet_serving_conserves_lookups_across_nodes() {
        let cfg = quick_cfg(2.0, 10, FleetDispatch::replicated(1));
        let mut fleet = Fleet::reference(2);
        let report = serve_fleet(&mut fleet, &cfg).unwrap();
        let expected: u64 = QueryStream::new(cfg.shape, cfg.seed)
            .take_queries(cfg.queries)
            .iter()
            .map(SlsTrace::total_lookups)
            .sum();
        assert_eq!(report.report.insts, expected);
        assert_eq!(report.latencies.len(), 10);
        // Replication spread at least one table fleet-wide and both
        // nodes served traffic.
        assert!(report.replicated_tables >= 1);
        assert!(report.node_queries.iter().all(|&q| q > 0));
    }

    #[test]
    fn single_node_fleet_matches_bare_cluster() {
        // The keystone invariant: a 1-node fleet is numerically the bare
        // cluster under sharded serving — same arrivals, same placement,
        // same channel queues, no network charge.
        let dispatch = FleetDispatch::sharded();
        let fleet_cfg = quick_cfg(1.0, 12, dispatch);
        let mut fleet = Fleet::reference(1);
        let fleet_report = serve_fleet(&mut fleet, &fleet_cfg).unwrap();

        let mut cluster = reference_cluster4();
        let cluster_cfg = ServingConfig {
            process: fleet_cfg.process,
            qps: fleet_cfg.qps,
            queries: fleet_cfg.queries,
            shape: fleet_cfg.shape,
            mode: ServingMode::Sharded(ShardedDispatch {
                placement: dispatch.within_policy,
                gather: dispatch.gather,
                channel_capacity: dispatch.channel_capacity,
                host_cache: None,
                prefetch: None,
            }),
            coalescing: None,
            max_queue_depth: None,
            seed: fleet_cfg.seed,
        };
        let cluster_report = serve(cluster.as_mut(), &cluster_cfg).unwrap();

        assert_eq!(fleet_report.arrivals, cluster_report.arrivals);
        assert_eq!(fleet_report.completions, cluster_report.completions);
        assert_eq!(fleet_report.latencies, cluster_report.latencies);
        assert_eq!(fleet_report.report.insts, cluster_report.report.insts);
        assert_eq!(
            fleet_report.report.total_cycles,
            cluster_report.report.total_cycles
        );
    }

    #[test]
    fn every_router_serves_and_conserves() {
        for router in RouterPolicy::ALL {
            let dispatch = FleetDispatch {
                router,
                ..FleetDispatch::replicated(1)
            };
            let cfg = quick_cfg(2.0, 8, dispatch);
            let mut fleet = Fleet::reference(2);
            let report = serve_fleet(&mut fleet, &cfg).unwrap();
            let expected: u64 = QueryStream::new(cfg.shape, cfg.seed)
                .take_queries(cfg.queries)
                .iter()
                .map(SlsTrace::total_lookups)
                .sum();
            assert_eq!(report.report.insts, expected, "router {}", router.name());
            assert_eq!(report.router, router);
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let cfg = quick_cfg(2.0, 8, FleetDispatch::replicated(1));
        let mut a = Fleet::reference(2);
        let mut b = Fleet::reference(2);
        assert_eq!(
            serve_fleet(&mut a, &cfg).unwrap(),
            serve_fleet(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn multi_node_queries_pay_the_network_gather() {
        // Same workload, same per-node arithmetic: a 2-node fleet with
        // zero network cost must strictly undercut one with the rack
        // default on every completion that left the router's rack slot.
        let mut free = quick_cfg(2.0, 8, FleetDispatch::sharded());
        free.dispatch.network = NetworkCost::new(0, 0);
        let charged = quick_cfg(2.0, 8, FleetDispatch::sharded());
        let mut a = Fleet::reference(2);
        let mut b = Fleet::reference(2);
        let r_free = serve_fleet(&mut a, &free).unwrap();
        let r_charged = serve_fleet(&mut b, &charged).unwrap();
        for (f, c) in r_free.latencies.iter().zip(&r_charged.latencies) {
            assert!(f + charged.dispatch.network.base <= *c + 1);
            assert!(f < c);
        }
    }

    fn assert_conserved(report: &FleetReport) {
        let count = |o: QueryOutcome| report.outcomes.iter().filter(|&&x| x == o).count() as u64;
        assert_eq!(
            report.outcomes.len() as u64,
            count(QueryOutcome::Completed)
                + count(QueryOutcome::Rejected)
                + count(QueryOutcome::Shed)
                + count(QueryOutcome::Failed),
            "every offered query has exactly one outcome"
        );
        assert_eq!(
            report.report.queries_rejected,
            count(QueryOutcome::Rejected)
        );
        assert_eq!(report.report.queries_shed, count(QueryOutcome::Shed));
        assert_eq!(report.report.queries_failed, count(QueryOutcome::Failed));
        assert_eq!(report.failures.len() as u64, count(QueryOutcome::Failed));
    }

    #[test]
    fn zero_resilience_matches_plain_fleet() {
        // The keystone: an all-zero fault plan with inert policies must
        // reproduce the plain scheduler byte for byte, for every router.
        for router in RouterPolicy::ALL {
            for dispatch in [FleetDispatch::replicated(1), FleetDispatch::sharded()] {
                let dispatch = FleetDispatch { router, ..dispatch };
                let cfg = quick_cfg(2.0, 10, dispatch);
                let mut a = Fleet::reference(2);
                let mut b = Fleet::reference(2);
                let plain = serve_fleet(&mut a, &cfg).unwrap();
                let res = serve_fleet_resilient(&mut b, &cfg, &ResilienceConfig::zero()).unwrap();
                assert_eq!(plain, res, "router {}", router.name());
                assert_eq!(res.availability(), 1.0);
            }
        }
    }

    #[test]
    fn crash_fails_unreplicated_queries_and_fails_over_replicated_ones() {
        use super::super::faults::FaultPlan;
        let faults = FaultPlan::none().with_crash(1, 0);

        // Unreplicated: tables homed on the dead node have no surviving
        // replica, so their queries fail (counted, not panicked).
        let cfg = quick_cfg(2.0, 12, FleetDispatch::sharded());
        let mut fleet = Fleet::reference(2);
        let sharded =
            serve_fleet_resilient(&mut fleet, &cfg, &ResilienceConfig::new(faults.clone()))
                .unwrap();
        assert!(
            sharded.availability() < 1.0,
            "dead tables must fail queries"
        );
        assert!(matches!(sharded.failures[0], SimError::QueryFailed { .. }));
        assert_eq!(sharded.node_queries[1], 0, "no query runs on a dead node");
        assert_conserved(&sharded);

        // Fully replicated: every table survives on node 0, so every
        // query fails over and completes.
        let cfg = quick_cfg(2.0, 12, FleetDispatch::replicated(64));
        let mut fleet = Fleet::reference(2);
        let replicated =
            serve_fleet_resilient(&mut fleet, &cfg, &ResilienceConfig::new(faults)).unwrap();
        assert_eq!(replicated.availability(), 1.0);
        assert!(replicated.report.failovers > 0);
        assert_eq!(replicated.node_queries[1], 0);
        assert_conserved(&replicated);
    }

    #[test]
    fn permanent_timeouts_exhaust_retries_into_deadline_failures() {
        use super::super::faults::{FaultPlan, RetryPolicy};
        let mut faults = FaultPlan::none();
        for node in 0..2 {
            for channel in 0..4 {
                faults = faults.with_timeout(node, channel, 0, u64::MAX);
            }
        }
        let cfg = quick_cfg(2.0, 6, FleetDispatch::replicated(64));
        let mut fleet = Fleet::reference(2);
        let res = ResilienceConfig::new(faults).with_retry(RetryPolicy {
            max_attempts: 3,
            timeout: 50_000,
            backoff: 1_000,
        });
        let report = serve_fleet_resilient(&mut fleet, &cfg, &res).unwrap();
        assert_eq!(
            report.availability(),
            0.0,
            "every channel times out forever"
        );
        assert!(report.report.retries > 0, "attempts were retried first");
        assert!(matches!(
            report.failures[0],
            SimError::DeadlineExceeded { attempts: 3, .. }
        ));
        assert_conserved(&report);
    }

    #[test]
    fn slo_guard_rejects_and_sheds_under_overload() {
        use super::super::faults::{FaultPlan, SloPolicy};
        // Oversaturate by 100x with a deadline close to bare service
        // time: the backlog must trip admission control.
        let mut cfg = quick_cfg(2.0, 48, FleetDispatch::replicated(1));
        cfg.qps *= 1_000.0;
        let mut fleet = Fleet::reference(2);
        let res = ResilienceConfig::new(FaultPlan::none()).with_slo(SloPolicy::new(2_000));
        let report = serve_fleet_resilient(&mut fleet, &cfg, &res).unwrap();
        let guarded = report.report.queries_rejected + report.report.queries_shed;
        assert!(guarded > 0, "1000x overload must trip the SLO guard");
        assert!(report.completed() > 0, "early queries still meet the SLO");
        // Guarded queries never ran: their latency entries are zero.
        for (lat, out) in report.latencies.iter().zip(&report.outcomes) {
            if *out != QueryOutcome::Completed {
                assert_eq!(*lat, 0);
            }
        }
        assert_conserved(&report);
    }

    #[test]
    fn hedging_duplicates_stragglers_deterministically() {
        use super::super::faults::{FaultPlan, HedgePolicy};
        // One stuck-at-slow channel on node 0 creates stragglers; with
        // full replication node 1 can absorb the hedges.
        let faults = FaultPlan::none().with_degrade(0, 0, 0, u64::MAX, 16);
        let cfg = quick_cfg(2.0, 48, FleetDispatch::replicated(64));
        let res = ResilienceConfig::new(faults).with_hedge(HedgePolicy {
            quantile: 0.5,
            min_samples: 8,
            window: 32,
        });
        let mut a = Fleet::reference(2);
        let mut b = Fleet::reference(2);
        let r1 = serve_fleet_resilient(&mut a, &cfg, &res).unwrap();
        let r2 = serve_fleet_resilient(&mut b, &cfg, &res).unwrap();
        assert_eq!(r1, r2, "hedged runs are deterministic");
        assert!(
            r1.report.hedges > 0,
            "a 16x-slow channel must trigger hedges"
        );
        assert_eq!(r1.availability(), 1.0);
        assert_conserved(&r1);
    }

    #[test]
    fn fleet_sweep_anchors_every_dispatch_to_the_first() {
        let spec = SweepSpec {
            process: ArrivalProcess::Uniform,
            shape: quick_shape(),
            utilizations: vec![0.5, 1.2],
            queries: 6,
            probe_queries: 6,
            seed: 23,
        };
        let mut make = || Fleet::reference(2);
        let curves = fleet_sweep(
            &mut make,
            &[FleetDispatch::replicated(1), FleetDispatch::sharded()],
            &spec,
        )
        .unwrap();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].placement, "fleet-replicated(1)");
        assert_eq!(curves[1].placement, "fleet-sharded");
        assert_eq!(curves[0].saturation_qps, curves[1].saturation_qps);
        for (a, b) in curves[0].points.iter().zip(&curves[1].points) {
            assert_eq!(a.offered_qps, b.offered_qps);
        }
        assert_eq!(curves[0].nodes, 2);
    }
}
