//! The query scheduler: turns a backend into an open-loop queueing system
//! and accounts per-query enqueue→completion latency in simulated time.
//!
//! Two serving models share the scheduler core
//! ([`ServingMode`]):
//!
//! * **Queued** — each job runs whole on one server picked by a
//!   [`DispatchPolicy`](super::policy::DispatchPolicy);
//! * **Sharded** — a [`PlacementPlan`] is built from the query stream's
//!   table profile, each job *scatters* into one sub-trace per channel
//!   owning its tables, the shards queue independently on their
//!   channels, and the query completes at the slowest shard plus a host
//!   [`GatherCost`](super::policy::GatherCost) merge.

use recnmp_backend::{
    PlacementPlan, RunReport, SlsBackend, SlsTrace, TableUsage, TieredPlacementPlan, TraceBatch,
};
use recnmp_types::units::{completions_to_qps, cycles_to_us};
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError, TableId};
use serde::{Deserialize, Serialize};

use super::arrivals::{ArrivalProcess, QueryShape, QueryStream};
use super::host_cache::{HostCache, HotVectorTracker};
use super::policy::{
    Coalescing, DispatchPolicy, GatherCost, ServingMode, ShardedDispatch, TieredDispatch,
};

/// One serving run: an offered load, a query shape, and a scheduling
/// discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Arrival process of the open-loop generator.
    pub process: ArrivalProcess,
    /// Offered query rate (queries per second of simulated time).
    pub qps: f64,
    /// Queries to offer.
    pub queries: usize,
    /// SLS work per query.
    pub shape: QueryShape,
    /// How jobs become backend work: queued whole-query dispatch or
    /// sharded scatter/gather.
    pub mode: ServingMode,
    /// Optional batch coalescing ahead of dispatch.
    pub coalescing: Option<Coalescing>,
    /// Optional bound on queries in flight (dispatched, not yet
    /// complete). A job arriving while the bound is met is *rejected* —
    /// counted in [`ServingReport::rejected`] and
    /// `RunReport::queries_rejected` — instead of growing the queue
    /// without limit through a long overload sweep. `None` keeps the
    /// historical unbounded queue.
    pub max_queue_depth: Option<usize>,
    /// Seed for both the arrival schedule and the query index streams.
    pub seed: u64,
}

impl ServingConfig {
    /// A Poisson FIFO configuration with no coalescing — the baseline
    /// serving discipline.
    pub fn poisson(qps: f64, queries: usize, shape: QueryShape, seed: u64) -> Self {
        Self {
            process: ArrivalProcess::Poisson,
            qps,
            queries,
            shape,
            mode: ServingMode::Queued(DispatchPolicy::FifoSingleQueue),
            coalescing: None,
            max_queue_depth: None,
            seed,
        }
    }
}

/// Latency distribution of one serving run, in simulator cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Cycle,
    /// 95th-percentile latency.
    pub p95: Cycle,
    /// 99th-percentile latency.
    pub p99: Cycle,
    /// Mean latency.
    pub mean: f64,
    /// Worst-case latency.
    pub max: Cycle,
}

impl LatencySummary {
    /// Summarizes `latencies` (need not be sorted). Zeroed for an empty
    /// slice.
    pub fn from_latencies(latencies: &[Cycle]) -> Self {
        if latencies.is_empty() {
            return Self {
                p50: 0,
                p95: 0,
                p99: 0,
                mean: 0.0,
                max: 0,
            };
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        Self {
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            mean: sorted.iter().sum::<Cycle>() as f64 / sorted.len() as f64,
            max: *sorted.last().unwrap(),
        }
    }

    /// The (p50, p95, p99) triple in microseconds.
    pub fn percentiles_us(&self) -> (f64, f64, f64) {
        (
            cycles_to_us(self.p50),
            cycles_to_us(self.p95),
            cycles_to_us(self.p99),
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice.
fn percentile(sorted: &[Cycle], q: f64) -> Cycle {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Backend label the run was served by.
    pub system: String,
    /// Serving mode the run was scheduled under.
    pub mode: ServingMode,
    /// Offered query rate.
    pub offered_qps: f64,
    /// Arrival cycle of each query, in arrival order.
    pub arrivals: Vec<Cycle>,
    /// Completion cycle of each query, in arrival order.
    pub completions: Vec<Cycle>,
    /// Enqueue→completion latency of each query, in arrival order.
    pub latencies: Vec<Cycle>,
    /// Backend runs dispatched (equals query count without coalescing).
    pub jobs: usize,
    /// Arrival-order indices of queries rejected at the
    /// [`max_queue_depth`](ServingConfig::max_queue_depth) bound,
    /// ascending. Their `completions` entries equal their dispatch cycle
    /// and they are excluded from the summary and throughput window.
    pub rejected: Vec<usize>,
    /// Counters merged over every dispatched job, with
    /// `query_completions` carrying the per-query timestamps and
    /// `total_cycles` the makespan.
    pub report: RunReport,
}

impl ServingReport {
    /// Cycle at which the last query completed.
    pub fn makespan(&self) -> Cycle {
        self.completions.iter().copied().max().unwrap_or(0)
    }

    /// Per-query values with the rejected queries dropped (`rejected` is
    /// ascending, so one forward merge suffices).
    fn served(&self, values: &[Cycle]) -> Vec<Cycle> {
        if self.rejected.is_empty() {
            return values.to_vec();
        }
        let mut rej = self.rejected.iter().peekable();
        values
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                if rej.peek() == Some(&i) {
                    rej.next();
                    false
                } else {
                    true
                }
            })
            .map(|(_, &v)| v)
            .collect()
    }

    /// Completion throughput (queries per simulated second) over the
    /// served (non-rejected) queries, measured over the completion
    /// window (first to last completion) so the initial ramp and final
    /// drain don't bias short runs. Falls back to the full makespan when
    /// the window is degenerate (fewer than two distinct completion
    /// times).
    pub fn achieved_qps(&self) -> f64 {
        let done = self.served(&self.completions);
        let n = done.len() as u64;
        let first = done.iter().copied().min().unwrap_or(0);
        let last = done.iter().copied().max().unwrap_or(0);
        if n >= 2 && last > first {
            completions_to_qps(n - 1, last - first)
        } else {
            completions_to_qps(n, last)
        }
    }

    /// The latency distribution over served (non-rejected) queries.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_latencies(&self.served(&self.latencies))
    }
}

/// The admission guard behind
/// [`max_queue_depth`](ServingConfig::max_queue_depth): tracks the
/// completion times of admitted jobs and refuses a dispatch when the
/// bound is already in flight. Unbounded (`None`) admits everything and
/// tracks nothing.
struct DepthGuard {
    bound: Option<usize>,
    outstanding: Vec<Cycle>,
}

impl DepthGuard {
    fn new(bound: Option<usize>) -> Self {
        Self {
            bound,
            outstanding: Vec::new(),
        }
    }

    /// May a job dispatching at `dispatch` enter the system? Dispatch
    /// times are non-decreasing, so drained work is dropped before the
    /// count.
    fn admits(&mut self, dispatch: Cycle) -> bool {
        let Some(bound) = self.bound else { return true };
        self.outstanding.retain(|&done| done > dispatch);
        self.outstanding.len() < bound
    }

    /// Records an admitted job's completion.
    fn admit(&mut self, complete: Cycle) {
        if self.bound.is_some() {
            self.outstanding.push(complete);
        }
    }

    /// Rejects every member of `job`: completion pinned at the dispatch
    /// cycle, indices recorded, counter bumped.
    fn reject(
        &self,
        job: &Job,
        completions: &mut [Cycle],
        rejected: &mut Vec<usize>,
        merged: &mut RunReport,
    ) {
        for &q in &job.members {
            completions[q] = job.dispatch;
            rejected.push(q);
        }
        merged.queries_rejected += job.members.len() as u64;
    }
}

/// Serves `cfg.queries` open-loop queries on `backend` and accounts
/// per-query latency in simulated time.
///
/// The queueing model: the backend exposes
/// [`server_count`](SlsBackend::server_count) independent servers
/// (cluster channels); each dispatched job (in sharded mode, each of its
/// shards) occupies one server for the `total_cycles` its cycle-level run
/// reports, and work placed on a busy server waits for it to free.
/// Hardware state (row buffers, caches) persists across jobs on each
/// server, as it would under sustained traffic; idle gaps between jobs
/// are not separately simulated.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any job's cycle-level run stalls, or
/// [`SimError::Config`] when sharded mode cannot place the workload's
/// tables (capacity overflow).
pub fn serve(backend: &mut dyn SlsBackend, cfg: &ServingConfig) -> Result<ServingReport, SimError> {
    let arrivals = cfg.process.seeded_arrivals(cfg.qps, cfg.queries, cfg.seed);
    let queries = QueryStream::new(cfg.shape, cfg.seed).take_queries(cfg.queries);
    serve_arrivals(backend, cfg, &arrivals, &queries)
}

/// One dispatched unit of work: the queries it carries and the cycle the
/// scheduler released it.
struct Job {
    dispatch: Cycle,
    members: Vec<usize>,
}

/// The scheduler core, shared by [`serve`] and the saturation probe:
/// coalesces `queries` (arrival `arrivals[i]` each) into jobs, places
/// them under `cfg.mode`, and accounts completion times.
pub(super) fn serve_arrivals(
    backend: &mut dyn SlsBackend,
    cfg: &ServingConfig,
    arrivals: &[Cycle],
    queries: &[SlsTrace],
) -> Result<ServingReport, SimError> {
    assert_eq!(arrivals.len(), queries.len(), "one arrival per query");
    let servers = backend.server_count();
    assert!(servers > 0, "backend exposes no servers");

    let jobs = coalesce(arrivals, cfg.coalescing);

    // Earliest cycle each server is free.
    let mut free_at = vec![0 as Cycle; servers];
    let mut completions = vec![0 as Cycle; queries.len()];
    let mut merged = RunReport::for_system(backend.name().to_string());
    let mut guard = DepthGuard::new(cfg.max_queue_depth);
    let mut rejected: Vec<usize> = Vec::new();

    match cfg.mode {
        ServingMode::Queued(policy) => {
            // For LeastOutstanding: the completion/lookup pairs of work
            // still in flight per server.
            let mut in_flight: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); servers];
            for (job_idx, job) in jobs.iter().enumerate() {
                if !guard.admits(job.dispatch) {
                    guard.reject(job, &mut completions, &mut rejected, &mut merged);
                    continue;
                }
                let server = match policy {
                    DispatchPolicy::FifoSingleQueue => {
                        // Central queue: the job runs on whichever server
                        // frees first (ties to the lowest index).
                        (0..servers).min_by_key(|&s| (free_at[s], s)).unwrap()
                    }
                    DispatchPolicy::RoundRobin => job_idx % servers,
                    DispatchPolicy::LeastOutstanding => {
                        // Size-aware join-shortest-queue: least
                        // outstanding lookups at dispatch time. Dispatch
                        // times are non-decreasing, so work completed by
                        // now can never count again and is dropped
                        // before the scan.
                        (0..servers)
                            .min_by_key(|&s| {
                                in_flight[s].retain(|(done, _)| *done > job.dispatch);
                                let backlog: u64 =
                                    in_flight[s].iter().map(|(_, lookups)| lookups).sum();
                                (backlog, s)
                            })
                            .unwrap()
                    }
                };

                let trace = merge_queries(queries, &job.members);
                let report = backend.try_run_on(server, &trace)?;
                let start = job.dispatch.max(free_at[server]);
                let complete = start + report.total_cycles;
                free_at[server] = complete;
                if policy == DispatchPolicy::LeastOutstanding {
                    in_flight[server].push((complete, trace.total_lookups()));
                }
                for &q in &job.members {
                    completions[q] = complete;
                }
                guard.admit(complete);
                merged.absorb_parallel(report);
            }
        }
        ServingMode::Sharded(sharded) => {
            serve_sharded(
                backend,
                sharded,
                &jobs,
                queries,
                &mut free_at,
                &mut completions,
                &mut merged,
                &mut guard,
                &mut rejected,
            )?;
        }
        ServingMode::Tiered(tiered) => {
            serve_tiered(
                backend,
                tiered,
                &jobs,
                queries,
                &mut free_at,
                &mut completions,
                &mut merged,
                &mut guard,
                &mut rejected,
            )?;
        }
    }

    let latencies: Vec<Cycle> = completions
        .iter()
        .zip(arrivals)
        .map(|(&done, &arr)| done - arr)
        .collect();
    // The merged counters cover serial jobs, so wall-clock is the
    // makespan, not the per-job max `absorb_parallel` keeps.
    merged.total_cycles = completions.iter().copied().max().unwrap_or(0);
    merged.query_completions = completions.clone();

    Ok(ServingReport {
        system: backend.name().to_string(),
        mode: cfg.mode,
        offered_qps: cfg.qps,
        arrivals: arrivals.to_vec(),
        completions,
        latencies,
        jobs: jobs.len(),
        rejected,
        report: merged,
    })
}

/// Serves every job under sharded scatter/gather, with the optional
/// cache-aware extensions:
///
/// * **Host cache** ([`HostCacheSpec`](super::policy::HostCacheSpec)) —
///   each job's trace filters through a host-side hot-embedding cache
///   first; absorbed lookups leave the dispatched work and instead charge
///   `hit_cycles` each onto the query's completion. The placement plan is
///   then built from the *residual* load: a dry run replays the job
///   sequence through the cache to learn the expected per-table
///   absorption, [`PlacementPlan::build_with_absorption`] balances what
///   actually reaches the channels, and the cache returns to cold before
///   the measured pass (cache/placement co-design).
/// * **Prefetch** ([`PrefetchSpec`](super::policy::PrefetchSpec)) — the
///   dispatched traffic feeds a [`HotVectorTracker`]; before each job,
///   every channel idle until the dispatch cycle spends its gap staging
///   the hottest tracked vectors into its RankCaches via
///   [`SlsBackend::prefetch_on`] (low-priority: the gap bounds the
///   traffic, so prefetch never delays demand work).
#[allow(clippy::too_many_arguments)]
fn serve_sharded(
    backend: &mut dyn SlsBackend,
    sharded: ShardedDispatch,
    jobs: &[Job],
    queries: &[SlsTrace],
    free_at: &mut [Cycle],
    completions: &mut [Cycle],
    merged: &mut RunReport,
    guard: &mut DepthGuard,
    rejected: &mut Vec<usize>,
) -> Result<(), SimError> {
    let usage = TableUsage::from_traces(queries);
    let capacity = sharded.channel_capacity.map(ByteSize::get);
    let mut host_cache = match sharded.host_cache {
        Some(spec) => Some(
            HostCache::build(spec, &usage, max_vector_bytes(queries)).map_err(SimError::Config)?,
        ),
        None => None,
    };

    // The placement plan is built once per run from the query stream's
    // table profile — from the residual (post-cache) profile when a host
    // cache fronts dispatch; every job then consults it.
    let plan = if let Some(hc) = host_cache.as_mut() {
        for job in jobs {
            for &q in &job.members {
                hc.probe(&queries[q]);
            }
        }
        let absorbed = hc.absorbed_profile();
        hc.reset();
        PlacementPlan::build_with_absorption(
            servers_of(free_at),
            capacity,
            &usage,
            &absorbed,
            sharded.placement,
        )
    } else {
        PlacementPlan::build(servers_of(free_at), capacity, &usage, sharded.placement)
    }
    .map_err(SimError::Config)?;

    let mut tracker = sharded
        .prefetch
        .map(|spec| HotVectorTracker::new(spec.candidates));
    let mut offered: u64 = queries.iter().map(SlsTrace::total_lookups).sum();

    for job in jobs {
        // A rejected job never dispatches: it must not warm the host
        // cache, feed the prefetch tracker, or touch a channel.
        if !guard.admits(job.dispatch) {
            guard.reject(job, completions, rejected, merged);
            offered -= job
                .members
                .iter()
                .map(|&q| queries[q].total_lookups())
                .sum::<u64>();
            continue;
        }
        if let Some(tr) = &tracker {
            prefetch_idle(backend, &plan, tr, job.dispatch, free_at, merged);
        }
        let (trace, host_cycles) = match host_cache.as_mut() {
            Some(hc) => {
                let (residual, job_hits) = hc.filter(merge_queries(queries, &job.members));
                (residual, job_hits * hc.hit_cycles())
            }
            None => (merge_queries(queries, &job.members), 0),
        };
        if let Some(tr) = tracker.as_mut() {
            tr.observe(&trace);
        }
        let complete = serve_scattered(
            backend,
            &plan,
            sharded.gather,
            job,
            trace,
            host_cycles,
            free_at,
            completions,
            merged,
        )?;
        guard.admit(complete);
    }

    if let Some(hc) = &host_cache {
        let (hits, misses, absorbed_bytes) = hc.stats();
        debug_assert_eq!(hits + misses, offered, "host cache conserves lookups");
        merged.host_hits += hits;
        merged.host_misses += misses;
        merged.host_absorbed_bytes += absorbed_bytes;
    }
    Ok(())
}

/// The server count, read back from the per-server state it sized.
fn servers_of(free_at: &[Cycle]) -> usize {
    free_at.len()
}

/// The largest vector size across the stream — the host cache's line
/// size, so any table's vector fits one line.
fn max_vector_bytes(queries: &[SlsTrace]) -> u64 {
    queries
        .iter()
        .flat_map(|q| &q.batches)
        .map(|b| b.batch.spec.vector_bytes)
        .max()
        .unwrap_or(64)
}

/// Spends each idle channel's gap before `dispatch` staging the hottest
/// tracked vectors into its RankCaches. Candidates route to every
/// channel holding a replica of their table (the scatter picks replicas
/// by backlog at dispatch time, so any replica may serve them).
fn prefetch_idle(
    backend: &mut dyn SlsBackend,
    plan: &PlacementPlan,
    tracker: &HotVectorTracker,
    dispatch: Cycle,
    free_at: &[Cycle],
    merged: &mut RunReport,
) {
    let hot = tracker.hottest();
    if hot.is_empty() {
        return;
    }
    let mut per_channel: Vec<Vec<recnmp_types::PhysAddr>> = vec![Vec::new(); free_at.len()];
    let mut vbytes = vec![0u32; free_at.len()];
    for (addr, table, vb) in hot {
        for &c in plan.replicas(table) {
            per_channel[c].push(recnmp_types::PhysAddr::new(addr));
            vbytes[c] = vbytes[c].max(vb);
        }
    }
    for (c, addrs) in per_channel.iter().enumerate() {
        let gap = dispatch.saturating_sub(free_at[c]);
        if addrs.is_empty() || gap == 0 {
            continue;
        }
        merged.prefetch_fills += backend.prefetch_on(c, addrs, vbytes[c], gap);
    }
}

/// Scatters `batches` across the channels owning their tables: each
/// batch lands on the replica of its table with the least backlog
/// (deterministic, ties to the lowest channel). Returns the non-empty
/// `(channel, shard)` pairs in channel order. Single-node sharded
/// serving and the fleet's within-node level both scatter through here.
pub(super) fn scatter(
    plan: &PlacementPlan,
    free_at: &[Cycle],
    batches: impl IntoIterator<Item = TraceBatch>,
) -> Vec<(usize, SlsTrace)> {
    let mut shards: Vec<SlsTrace> = vec![SlsTrace::default(); free_at.len()];
    for batch in batches {
        let table = batch.table();
        let &channel = plan
            .replicas(table)
            .iter()
            .min_by_key(|&&c| (free_at[c], c))
            .unwrap_or_else(|| panic!("table {table} missing from placement plan"));
        shards[channel].batches.push(batch);
    }
    shards
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !s.batches.is_empty())
        .collect()
}

/// Scatters one job across the channels owning its tables
/// ([`scatter`]) and gathers: each shard queues on its channel, and
/// every member query completes at the slowest shard plus the host
/// merge cost plus `host_cycles` (the host-cache charge for this job's
/// absorbed lookups). Returns the job's completion cycle.
#[allow(clippy::too_many_arguments)]
fn serve_scattered(
    backend: &mut dyn SlsBackend,
    plan: &PlacementPlan,
    gather: GatherCost,
    job: &Job,
    trace: SlsTrace,
    host_cycles: Cycle,
    free_at: &mut [Cycle],
    completions: &mut [Cycle],
    merged: &mut RunReport,
) -> Result<Cycle, SimError> {
    let lookups = trace.total_lookups();
    let shards = scatter(plan, free_at, trace.batches);

    let mut slowest = job.dispatch;
    let mut scattered = 0u64;
    for (channel, shard) in &shards {
        scattered += shard.total_lookups();
        let report = backend.try_run_on(*channel, shard)?;
        let start = job.dispatch.max(free_at[*channel]);
        let complete = start + report.total_cycles;
        free_at[*channel] = complete;
        slowest = slowest.max(complete);
        merged.absorb_parallel(report);
    }
    debug_assert_eq!(scattered, lookups, "scatter must conserve lookups");

    let fanout = shards.len() as Cycle;
    let complete = slowest + gather.base + gather.per_shard * fanout + host_cycles;
    for &q in &job.members {
        completions[q] = complete;
    }
    Ok(complete)
}

/// Serves every job tier-aware: a [`TieredPlacementPlan`] assigns tables
/// to DRAM channels and SSD units of the combined server space, each job
/// scatters through the plan's flat placement exactly like sharded mode,
/// and a query spanning tiers completes at its slowest tier plus the
/// host gather cost.
///
/// Without promotion epochs the plan is built once from the stream's
/// full table profile. With [`EpochPromotion`](super::policy::EpochPromotion)
/// configured, the scheduler instead starts from a *cold* plan (every
/// table weighted equally — the profile is unknown at t=0), accumulates
/// observed per-table lookups, and calls
/// [`TieredPlacementPlan::epoch_rebalance`] at every epoch boundary; the
/// units on either end of a migration (a moved table's old and new
/// replicas) stall by the modeled migration cost before serving resumes.
#[allow(clippy::too_many_arguments)]
fn serve_tiered(
    backend: &mut dyn SlsBackend,
    tiered: TieredDispatch,
    jobs: &[Job],
    queries: &[SlsTrace],
    free_at: &mut [Cycle],
    completions: &mut [Cycle],
    merged: &mut RunReport,
    guard: &mut DepthGuard,
    rejected: &mut Vec<usize>,
) -> Result<(), SimError> {
    if tiered.tiers.units() != free_at.len() {
        return Err(SimError::Config(ConfigError::new(
            "tiers",
            format!(
                "spec describes {} unit(s) but the backend exposes {} server(s)",
                tiered.tiers.units(),
                free_at.len()
            ),
        )));
    }
    let usage = TableUsage::from_traces(queries);

    let Some(epochs) = tiered.promotion else {
        let plan = TieredPlacementPlan::build(tiered.tiers, &usage, tiered.policy)
            .map_err(SimError::Config)?;
        for job in jobs {
            if !guard.admits(job.dispatch) {
                guard.reject(job, completions, rejected, merged);
                continue;
            }
            let complete = serve_scattered(
                backend,
                plan.flat(),
                tiered.gather,
                job,
                merge_queries(queries, &job.members),
                0,
                free_at,
                completions,
                merged,
            )?;
            guard.admit(complete);
        }
        return Ok(());
    };

    // Cold start: the scheduler has not seen traffic yet, so every table
    // weighs the same and the initial tier split is profile-blind.
    let cold: Vec<TableUsage> = usage
        .iter()
        .map(|u| TableUsage::new(u.table, u.bytes, 1))
        .collect();
    let mut plan =
        TieredPlacementPlan::build(tiered.tiers, &cold, tiered.policy).map_err(SimError::Config)?;
    let mut observed: std::collections::BTreeMap<TableId, u64> = std::collections::BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        if i > 0 && epochs.epoch_queries > 0 && i % epochs.epoch_queries == 0 {
            let obs: Vec<TableUsage> = usage
                .iter()
                .map(|u| {
                    TableUsage::new(
                        u.table,
                        u.bytes,
                        observed.get(&u.table).copied().unwrap_or(0),
                    )
                })
                .collect();
            let (next, mig) = plan
                .epoch_rebalance(&obs, epochs.policy)
                .map_err(SimError::Config)?;
            if mig.stall_cycles > 0 {
                // Both ends of each migration are busy copying: a moved
                // table's old replicas stream it out, its new replicas
                // stream it in. Unaffected units keep serving.
                let mut stalled = vec![false; free_at.len()];
                for &t in mig.promoted.iter().chain(&mig.demoted) {
                    for p in [&plan, &next] {
                        for &u in p.flat().replicas(t) {
                            stalled[u] = true;
                        }
                    }
                }
                for (u, hit) in stalled.into_iter().enumerate() {
                    if hit {
                        free_at[u] = free_at[u].max(job.dispatch) + mig.stall_cycles;
                    }
                }
            }
            plan = next;
            observed.clear();
        }
        // The epoch clock above ticks on offered jobs (rejected or not),
        // but a rejected job contributes no observed traffic and no
        // service.
        if !guard.admits(job.dispatch) {
            guard.reject(job, completions, rejected, merged);
            continue;
        }
        for &q in &job.members {
            for tb in &queries[q].batches {
                *observed.entry(tb.table()).or_insert(0) += tb.lookups();
            }
        }
        let complete = serve_scattered(
            backend,
            plan.flat(),
            tiered.gather,
            job,
            merge_queries(queries, &job.members),
            0,
            free_at,
            completions,
            merged,
        )?;
        guard.admit(complete);
    }
    Ok(())
}

/// Groups queries into dispatch jobs. Without coalescing every query is
/// its own job released at its arrival; with coalescing a group closes
/// when full or when its oldest member has waited `max_wait` cycles.
fn coalesce(arrivals: &[Cycle], coalescing: Option<Coalescing>) -> Vec<Job> {
    let Some(c) = coalescing else {
        return arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| Job {
                dispatch: t,
                members: vec![i],
            })
            .collect();
    };
    let mut jobs = Vec::new();
    let mut i = 0;
    while i < arrivals.len() {
        let deadline = arrivals[i] + c.max_wait;
        let mut members = vec![i];
        i += 1;
        while i < arrivals.len() && members.len() < c.max_queries && arrivals[i] <= deadline {
            members.push(i);
            i += 1;
        }
        // A full group releases with its filling query; a deadline group
        // waits out the window (the coalescer cannot know no further
        // query will arrive).
        let dispatch = if members.len() == c.max_queries {
            arrivals[*members.last().unwrap()]
        } else {
            deadline
        };
        jobs.push(Job { dispatch, members });
    }
    jobs
}

/// Concatenates the member queries of one job into a single trace.
fn merge_queries(queries: &[SlsTrace], members: &[usize]) -> SlsTrace {
    if members.len() == 1 {
        return queries[members[0]].clone();
    }
    let mut merged = SlsTrace::default();
    for &q in members {
        merged.batches.extend(queries[q].batches.iter().cloned());
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::ShardedDispatch;
    use recnmp_baselines::HostBaseline;

    fn quick_cfg(qps: f64, queries: usize, policy: DispatchPolicy) -> ServingConfig {
        ServingConfig {
            process: ArrivalProcess::Poisson,
            qps,
            queries,
            shape: QueryShape::new(2, 2, 8),
            mode: ServingMode::Queued(policy),
            coalescing: None,
            max_queue_depth: None,
            seed: 11,
        }
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let lat: Vec<Cycle> = (1..=100).collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!((s.p50, s.p95, s.p99, s.max), (50, 95, 99, 100));
        assert!((s.mean - 50.5).abs() < 1e-9);
        let zero = LatencySummary::from_latencies(&[]);
        assert_eq!(zero.max, 0);
    }

    #[test]
    fn coalescing_honors_size_and_deadline() {
        let arrivals = vec![0, 10, 20, 500, 520, 2000];
        let jobs = coalesce(&arrivals, Some(Coalescing::new(3, 100)));
        let groups: Vec<Vec<usize>> = jobs.iter().map(|j| j.members.clone()).collect();
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
        // Full group releases at its filling arrival; deadline groups at
        // first-arrival + max_wait.
        assert_eq!(jobs[0].dispatch, 20);
        assert_eq!(jobs[1].dispatch, 600);
        assert_eq!(jobs[2].dispatch, 2100);
    }

    #[test]
    fn serving_accounts_queue_wait() {
        // Low offered load: latency ≈ service. Extreme offered load: the
        // tail must include queueing delay on the single host pipeline.
        let mut relaxed = HostBaseline::new(1, 2).unwrap();
        let low = serve(
            &mut relaxed,
            &quick_cfg(1_000.0, 12, DispatchPolicy::FifoSingleQueue),
        )
        .unwrap();
        let mut slammed = HostBaseline::new(1, 2).unwrap();
        let hot = serve(
            &mut slammed,
            &quick_cfg(50_000_000.0, 12, DispatchPolicy::FifoSingleQueue),
        )
        .unwrap();
        assert!(hot.summary().p99 > low.summary().p99);
        assert_eq!(low.latencies.len(), 12);
        assert_eq!(
            low.report.insts,
            12 * quick_cfg(1.0, 1, DispatchPolicy::RoundRobin)
                .shape
                .lookups_per_query()
        );
        assert_eq!(low.report.query_completions, low.completions);
    }

    #[test]
    fn policies_coincide_on_a_single_server() {
        let reports: Vec<ServingReport> = DispatchPolicy::ALL
            .iter()
            .map(|&p| {
                let mut host = HostBaseline::new(1, 2).unwrap();
                serve(&mut host, &quick_cfg(100_000.0, 8, p)).unwrap()
            })
            .collect();
        assert_eq!(reports[0].latencies, reports[1].latencies);
        assert_eq!(reports[1].latencies, reports[2].latencies);
    }

    #[test]
    fn sharded_single_server_pays_exactly_the_gather_cost() {
        // On one server the scatter degenerates to one shard, so the
        // sharded completion schedule equals the queued FIFO schedule
        // shifted by base + 1*per_shard gather cycles per query.
        use crate::serving::policy::GatherCost;
        use recnmp_backend::PlacementPolicy;

        let queued = quick_cfg(100_000.0, 8, DispatchPolicy::FifoSingleQueue);
        let mut host = HostBaseline::new(1, 2).unwrap();
        let base = serve(&mut host, &queued).unwrap();

        let mut sharded_cfg = queued;
        let mut dispatch = ShardedDispatch::new(PlacementPolicy::Hash);
        dispatch.gather = GatherCost::new(100, 7);
        sharded_cfg.mode = ServingMode::Sharded(dispatch);
        let mut host2 = HostBaseline::new(1, 2).unwrap();
        let sharded = serve(&mut host2, &sharded_cfg).unwrap();

        assert_eq!(sharded.report.insts, base.report.insts);
        for (s, q) in sharded.completions.iter().zip(&base.completions) {
            assert_eq!(*s, q + 107);
        }
    }

    #[test]
    fn queue_depth_bound_rejects_overload_and_none_is_unbounded() {
        // Unbounded behavior is byte-identical to the historical
        // scheduler; a tight bound under extreme load must reject.
        let cfg = quick_cfg(50_000_000.0, 16, DispatchPolicy::FifoSingleQueue);
        let mut a = HostBaseline::new(1, 2).unwrap();
        let unbounded = serve(&mut a, &cfg).unwrap();
        assert!(unbounded.rejected.is_empty());
        assert_eq!(unbounded.report.queries_rejected, 0);

        let mut bounded_cfg = cfg;
        bounded_cfg.max_queue_depth = Some(2);
        let mut b = HostBaseline::new(1, 2).unwrap();
        let bounded = serve(&mut b, &bounded_cfg).unwrap();
        assert!(
            !bounded.rejected.is_empty(),
            "a depth-2 queue under 50M qps must reject"
        );
        assert_eq!(
            bounded.report.queries_rejected,
            bounded.rejected.len() as u64
        );
        // Rejected queries complete at dispatch: zero latency entries.
        for &q in &bounded.rejected {
            assert_eq!(bounded.latencies[q], 0);
        }
        // The summary ignores rejected queries, so the bounded tail can
        // only improve on the unbounded one.
        assert!(bounded.summary().p99 <= unbounded.summary().p99);
        // Every admitted query still ran to completion.
        assert_eq!(
            bounded.latencies.len() - bounded.rejected.len(),
            bounded
                .latencies
                .iter()
                .enumerate()
                .filter(|(i, _)| !bounded.rejected.contains(i))
                .count()
        );
    }

    #[test]
    fn queue_depth_bound_applies_to_sharded_mode() {
        use recnmp_backend::PlacementPolicy;
        let mut cfg = quick_cfg(50_000_000.0, 16, DispatchPolicy::FifoSingleQueue);
        cfg.mode = ServingMode::Sharded(ShardedDispatch::new(PlacementPolicy::Hash));
        cfg.max_queue_depth = Some(2);
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = serve(&mut host, &cfg).unwrap();
        assert!(!report.rejected.is_empty());
        assert_eq!(report.report.queries_rejected, report.rejected.len() as u64);
        // Rejected work never reached a channel: dispatched lookups
        // cover exactly the admitted queries.
        let all: u64 = 16 * cfg.shape.lookups_per_query();
        let rejected: u64 = report.rejected.len() as u64 * cfg.shape.lookups_per_query();
        assert_eq!(report.report.insts, all - rejected);
    }

    #[test]
    fn sharded_mode_surfaces_capacity_overflow() {
        use recnmp_backend::PlacementPolicy;
        let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
        let mut dispatch = ShardedDispatch::new(PlacementPolicy::CapacityGreedy);
        dispatch.channel_capacity = Some(ByteSize::bytes(1)); // nothing fits
        cfg.mode = ServingMode::Sharded(dispatch);
        let mut host = HostBaseline::new(1, 2).unwrap();
        assert!(matches!(serve(&mut host, &cfg), Err(SimError::Config(_))));
    }
}
