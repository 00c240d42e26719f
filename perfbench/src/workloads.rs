//! The four benchmark workloads: their fixed definitions, set-up (input
//! generation and backend construction) and one measured pass each.
//!
//! Every constant a result depends on — shapes, fixed offered loads,
//! latency limits, fault schedule — is written here, so a pass is a pure
//! function of the workload, the seed and the size.

use std::fmt::Debug;
use std::sync::Arc;

use recnmp::{RecNmpCluster, RecNmpClusterConfig, RecNmpConfig, RecNmpSystem};
use recnmp_backend::{
    MigrationCost, PromotionPolicy, RunReport, SlsBackend, SlsTrace, TierSpec, TieredPolicy,
};
use recnmp_baselines::HostBaseline;
use recnmp_model::RecModelKind;
use recnmp_sim::serving::{
    qps_sweep_at, reference_caching_arms, serve, serve_fleet, serve_fleet_resilient,
    ArrivalProcess, EpochPromotion, FaultPlan, Fleet, FleetConfig, FleetDispatch, FleetReport,
    HedgePolicy, QueryOutcome, QueryShape, QueryStream, ResilienceConfig, RetryPolicy,
    ServingConfig, ServingMode, ServingReport, SloPolicy, SweepCurve, TieredDispatch,
};
use recnmp_sim::workload::TableLayout;
use recnmp_storage::TieredCluster;
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
use recnmp_types::units::{cycles_to_us, qps_to_interarrival_cycles, DDR4_2400_CLOCK_HZ};
use recnmp_types::{ByteSize, Cycle, SimError, TableId};

use crate::recorder::Recorder;
use crate::timed::Timed;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["sls-batch", "serve-cached", "fleet-faults", "serve-tiered"];

/// How much work one pass does: `Full` is the benchmark, `Smoke` the
/// reduced size the determinism tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size (at least 1,000 samples per latency point).
    Full,
    /// A few dozen queries per point, for tests.
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

// ---------------------------------------------------------------------
// Fixed workload definitions.

/// `sls-batch`: production-like multi-table SLS calls, one after another.
pub mod sls_batch {
    /// Embedding tables per call.
    pub const TABLES: usize = 4;
    /// Lookups per pooling.
    pub const POOLING: usize = 80;
    /// Poolings per table per call.
    pub const BATCH: usize = 1;
    /// Zipf exponent of every table's row stream.
    pub const ZIPF: f64 = 0.9;
    /// Calls per backend and pass: closed-loop requests at concurrency 1
    /// on the host baseline and the channel, batches of
    /// [`MID_CONCURRENCY`] requests on the cluster.
    pub const CALLS: usize = 1_000;
    /// Requests merged into one call of the 4-channel cluster: the
    /// closed loop's "mid" load, 4 requests in flight.
    pub const MID_CONCURRENCY: usize = 4;
    /// Latency limit of a cluster call at the mid load (goodput).
    pub const LIMIT_US: f64 = 2.0;
}

/// `serve-cached`: single-node serving behind a 1 MiB host cache.
pub mod serve_cached {
    /// The light fixed load (queries per simulated second) and its
    /// served queries.
    pub const LOW: (f64, usize) = (800_000.0, 2_000);
    /// The fixed load below the knee and its served queries (more, since
    /// its p99 is the noisiest figure).
    pub const MID: (f64, usize) = (1_600_000.0, 8_000);
    /// The other fixed loads, swept with `qps_sweep_at`, and the queries
    /// served at each.
    pub const SWEEP: ([f64; 2], usize) = ([2_400_000.0, 3_400_000.0], 2_000);
    /// p99 latency limit for the knee and goodput.
    pub const P99_LIMIT_US: f64 = 8.0;
    /// Host-cache arm of `reference_caching_arms()` the workload serves.
    pub const ARM: &str = "cached-frequency@1MiB";
}

/// `fleet-faults`: the 4-node reference fleet through a node crash.
pub mod fleet_faults {
    /// Nodes of the reference fleet.
    pub const NODES: usize = 4;
    /// Tables of the query shape (each query samples [`SAMPLE`]).
    pub const TABLES: usize = 24;
    /// Tables drawn per query.
    pub const SAMPLE: usize = 4;
    /// Hottest tables replicated onto every node.
    pub const HOT_REPLICATED: usize = 24;
    /// Served queries per load point.
    pub const QUERIES: usize = 2_000;
    /// Fixed offered loads of the fault-free runs, ascending.
    pub const LOADS: [f64; 4] = [2_000_000.0, 8_000_000.0, 11_000_000.0, 20_000_000.0];
    /// Index of the light load in [`LOADS`].
    pub const LOW: usize = 0;
    /// Index of the load just below the knee in [`LOADS`].
    pub const MID: usize = 1;
    /// Index of the load the faulted run is offered in [`LOADS`].
    pub const FAULTED: usize = 0;
    /// p99 latency limit for the knee.
    pub const P99_LIMIT_US: f64 = 8.0;
    /// The SLO deadline is this multiple of the fault-free p99 at
    /// [`FAULTED`].
    pub const DEADLINE_P99_MULTIPLE: u64 = 3;
    /// Service-time multiplier of the stuck-slow channel (node 0,
    /// channel 0) from the crash on.
    pub const DEGRADE: u64 = 16;
}

/// `serve-tiered`: DRAM/SSD tiered serving at 4x the DRAM capacity.
pub mod serve_tiered {
    /// Tables of the query shape.
    pub const TABLES: usize = 16;
    /// Bytes per table (one million 128-byte rows).
    pub const TABLE_BYTES: u64 = 128_000_000;
    /// Footprint as a multiple of the DRAM tier's capacity.
    pub const FOOTPRINT_X_DRAM: u64 = 4;
    /// Tables drawn per query.
    pub const SAMPLE: usize = 4;
    /// Jobs per promotion epoch.
    pub const EPOCH_QUERIES: usize = 40;
    /// The light fixed load (queries per simulated second) and its
    /// served queries.
    pub const LOW: (f64, usize) = (2_000.0, 4_000);
    /// The fixed load below the knee and its served queries (more, so
    /// the cold-plan epochs stay a small share of its tail).
    pub const MID: (f64, usize) = (4_000.0, 16_000);
    /// The other fixed loads, swept with `qps_sweep_at`, and the queries
    /// served at each.
    pub const SWEEP: ([f64; 2], usize) = ([6_000.0, 8_000.0], 8_000);
    /// p99 latency limit for the knee and goodput.
    pub const P99_LIMIT_US: f64 = 2_000.0;
}

/// Pool workers a workload runs on, never more than `nproc`.
///
/// `sls-batch` hands the pool whole per-channel runs of a four-request
/// call (milliseconds each), and a second worker shortens its passes by
/// about 1.3x on 2 vCPUs, so it uses two. The serving workloads submit a
/// fork-join of small per-shard or per-tier tasks for every query (a
/// few hundred microseconds of work); a second worker gains them 0-20%
/// and puts cross-CPU wake-ups on every query, so on a shared host their
/// time would follow the machine's scheduler rather than the program.
/// They run on one worker, where the pool executes tasks inline on the
/// calling thread.
pub fn workers(workload: &str, nproc: usize) -> usize {
    let wanted = if workload == "sls-batch" { 2 } else { 1 };
    nproc.clamp(1, wanted)
}

/// Whether each workload's backends start cold, for the run manifest.
pub fn cache_state(workload: &str) -> &'static str {
    match workload {
        "sls-batch" => {
            "each pass builds fresh backends (cold row buffers and RankCaches); \
             calls within a pass run back to back on warm state"
        }
        _ => {
            "every load point starts with cold RankCaches and a cold host cache, \
             as in qps_sweep_at; the speedup sample runs on fresh channels"
        }
    }
}

// ---------------------------------------------------------------------
// Pass outputs.

/// One latency percentile with its support.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentile {
    /// Metric name.
    pub metric: &'static str,
    /// Value in simulated microseconds.
    pub us: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples strictly above it.
    pub beyond: usize,
}

/// Layer counters a pass reads off the program's outputs.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Queries served by the directly timed `serve` calls.
    pub sched_queries: u64,
    /// Backend jobs those calls dispatched.
    pub sched_jobs: u64,
    /// Queries they rejected.
    pub sched_rejected: u64,
    /// Host-cache hits.
    pub host_hits: u64,
    /// Host-cache misses.
    pub host_misses: u64,
    /// Bytes the host cache absorbed.
    pub host_absorbed_bytes: u64,
    /// Load points of the `qps_sweep_at` calls.
    pub sweep_points: u64,
    /// Queries offered to the fleet calls.
    pub fleet_queries: u64,
    /// Failovers.
    pub failovers: u64,
    /// Hedged duplicates.
    pub hedges: u64,
    /// Retries.
    pub retries: u64,
    /// Queries rejected at admission.
    pub rejected: u64,
    /// Queries shed.
    pub shed: u64,
    /// Queries failed.
    pub failed: u64,
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Embedding lookups offered to the program during the pass.
    pub offered_lookups: u64,
    /// The simulated end-to-end metrics, `(name, value)`.
    pub sim: Vec<(&'static str, f64)>,
    /// Latency percentiles with their support.
    pub percentiles: Vec<Percentile>,
    /// Every simulated output of the pass, digested after timing.
    pub raw: Raw,
    /// Human-readable lines (per-point results).
    pub info: Vec<String>,
    /// Layer counters.
    pub counters: Counters,
    /// The 4-channel cluster's reports and the merged calls they served
    /// (`sls-batch` only), for the traced per-channel re-run.
    pub cluster_calls: Vec<(SlsTrace, RunReport)>,
}

/// The simulated outputs of a pass, kept whole so that digesting them
/// happens after the timed region.
#[derive(Debug, Clone, Default)]
pub struct Raw {
    /// Backend reports of closed-loop calls.
    pub reports: Vec<RunReport>,
    /// Throughput–latency curves.
    pub curves: Vec<SweepCurve>,
    /// Single-node serving reports.
    pub serving: Vec<ServingReport>,
    /// Fleet serving reports.
    pub fleet: Vec<FleetReport>,
}

impl Raw {
    /// Digest of everything: per-query completions, per-call reports and
    /// their DRAM/RankCache counters.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.add(&self.reports);
        d.add(&self.curves);
        d.add(&self.serving);
        d.add(&self.fleet);
        d.value()
    }
}

// ---------------------------------------------------------------------
// Helpers.

/// FNV-1a over the `Debug` rendering of values, streamed without
/// building the string.
pub struct Digest(u64);

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in `value`'s `Debug` rendering.
    pub fn add<T: Debug + ?Sized>(&mut self, value: &T) {
        use std::fmt::Write;
        write!(self, "{value:?}|").expect("hashing never fails");
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Nearest-rank percentile `q` of `cycles` (as the program's
/// `LatencySummary` takes it), in microseconds, with its support.
fn percentile(metric: &'static str, cycles: &[Cycle], q: f64) -> Percentile {
    let mut sorted = cycles.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    let value = sorted.get(rank - 1).copied().unwrap_or(0);
    Percentile {
        metric,
        us: cycles_to_us(value),
        samples: sorted.len(),
        beyond: sorted.iter().filter(|&&c| c > value).count(),
    }
}

fn limit_cycles(us: f64) -> Cycle {
    (us * 1e-6 * DDR4_2400_CLOCK_HZ) as Cycle
}

fn lookups(traces: &[SlsTrace]) -> u64 {
    traces.iter().map(SlsTrace::total_lookups).sum()
}

/// The 1 DIMM x 2 rank RecNMP-opt channel every workload compares
/// against the host baseline.
fn opt_channel_config() -> RecNmpConfig {
    RecNmpConfig::optimized(1, 2)
}

/// The 4-channel reference cluster (1 DIMM x 2 ranks per channel), with
/// or without RankCaches — the geometry of `reference_cluster4` and
/// `reference_cluster4_optimized`.
pub fn cluster4_config(optimized: bool) -> RecNmpClusterConfig {
    RecNmpClusterConfig::builder()
        .channels(4)
        .dimms(1)
        .ranks_per_dimm(2)
        .optimized(optimized)
        .build()
        .expect("reference cluster config")
}

fn cluster4(optimized: bool) -> RecNmpCluster {
    RecNmpCluster::new(cluster4_config(optimized)).expect("reference cluster")
}

/// Host-baseline and RecNMP-opt backends for the speedup comparison.
pub struct SpeedupPair {
    host: Box<dyn SlsBackend>,
    channel: Box<dyn SlsBackend>,
}

impl SpeedupPair {
    fn new(rec: &Arc<Recorder>) -> Self {
        Self {
            host: Timed::boxed(HostBaseline::new(1, 2).expect("host baseline"), "host", rec),
            channel: Timed::boxed(
                RecNmpSystem::new(opt_channel_config()).expect("RecNMP-opt channel"),
                "channel",
                rec,
            ),
        }
    }

    /// Runs every call on both backends, closed loop; keeps the reports
    /// and returns the per-call cycles of each.
    fn run(
        &mut self,
        calls: &[SlsTrace],
        rec: &Recorder,
        raw: &mut Raw,
    ) -> Result<(Vec<Cycle>, Vec<Cycle>), SimError> {
        let host = rec.span("baselines", || run_calls(self.host.as_mut(), calls, raw))?;
        let nmp = rec.span("core", || run_calls(self.channel.as_mut(), calls, raw))?;
        Ok((host, nmp))
    }
}

fn run_calls(
    backend: &mut dyn SlsBackend,
    calls: &[SlsTrace],
    raw: &mut Raw,
) -> Result<Vec<Cycle>, SimError> {
    calls
        .iter()
        .map(|t| {
            let r = backend.try_run(t)?;
            let cycles = r.total_cycles;
            raw.reports.push(r);
            Ok(cycles)
        })
        .collect()
}

/// `(sim_cycles_per_lookup, sim_speedup_vs_host)` of a speedup run.
fn speedup_metrics(calls: &[SlsTrace], host: &[Cycle], nmp: &[Cycle]) -> (f64, f64) {
    let nmp_total: Cycle = nmp.iter().sum();
    let host_total: Cycle = host.iter().sum();
    (
        nmp_total as f64 / lookups(calls) as f64,
        host_total as f64 / nmp_total as f64,
    )
}

/// The speedup sample: the first queries, about 16k lookups' worth.
fn speedup_sample(queries: &[SlsTrace], lookups_per_query: u64) -> &[SlsTrace] {
    let n = 16_384u64.div_ceil(lookups_per_query.max(1)) as usize;
    &queries[..n.min(queries.len())]
}

// ---------------------------------------------------------------------
// Set-up.

/// The inputs and fresh backends of one pass.
pub enum Inputs {
    /// `sls-batch`.
    SlsBatch {
        /// One trace per closed-loop call at concurrency 1.
        calls: Vec<SlsTrace>,
        /// As many cluster calls of `MID_CONCURRENCY` merged requests
        /// each; `calls` are the first requests.
        merged: Vec<SlsTrace>,
        /// Host baseline and RecNMP-opt channel.
        pair: SpeedupPair,
        /// The 4-channel RecNMP-opt cluster.
        cluster: Box<dyn SlsBackend>,
    },
    /// `serve-cached` and `serve-tiered`.
    Serve {
        /// The workload definition.
        spec: Box<ServeSpec>,
        /// The queries the program's generator draws for this seed.
        queries: Vec<SlsTrace>,
        /// Backends of the directly served low and mid points.
        direct: [Box<dyn SlsBackend>; 2],
        /// The speedup pair.
        pair: SpeedupPair,
    },
    /// `fleet-faults`.
    Fleet {
        /// The queries the program's generator draws for this seed.
        queries: Vec<SlsTrace>,
        /// One fleet per fault-free load plus one for the faulted run.
        fleets: Vec<Fleet>,
        /// The speedup pair.
        pair: SpeedupPair,
    },
}

/// A single-node serving workload (`serve-cached` or `serve-tiered`).
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    name: &'static str,
    shape: QueryShape,
    mode: ServingMode,
    low: (f64, usize),
    mid: (f64, usize),
    sweep: (&'static [f64], usize),
    limit_us: f64,
}

impl ServeSpec {
    fn of(workload: &str, size: Size) -> Self {
        match workload {
            "serve-cached" => {
                use serve_cached::*;
                let mode = reference_caching_arms()
                    .into_iter()
                    .find(|(label, _)| label == ARM)
                    .expect("reference caching arm")
                    .1;
                Self {
                    name: "serve-cached",
                    shape: QueryShape::for_model(RecModelKind::Rm1Small, 1)
                        .with_table_skew(1.5)
                        .with_row_skew(1.2),
                    mode,
                    low: (LOW.0, size.pick(LOW.1, 40)),
                    mid: (MID.0, size.pick(MID.1, 40)),
                    sweep: (&SWEEP.0, size.pick(SWEEP.1, 40)),
                    limit_us: P99_LIMIT_US,
                }
            }
            _ => {
                use serve_tiered::*;
                let footprint = TABLES as u64 * TABLE_BYTES;
                let tiers = TierSpec {
                    dram_channels: 4,
                    dram_channel_capacity: ByteSize::bytes(footprint / (FOOTPRINT_X_DRAM * 4)),
                    ssd_units: 2,
                    ssd_unit_capacity: ByteSize::gib(4),
                };
                let mut dispatch =
                    TieredDispatch::new(TieredPolicy::FrequencyTiered { replicate_hot: 0 }, tiers);
                dispatch.promotion = Some(EpochPromotion {
                    epoch_queries: size.pick(EPOCH_QUERIES, 10),
                    policy: PromotionPolicy {
                        hysteresis_pct: 20,
                        migration: MigrationCost::new(10_000, 1),
                    },
                });
                Self {
                    name: "serve-tiered",
                    shape: QueryShape::new(TABLES, 4, 8)
                        .with_table_skew(1.5)
                        .with_skew_rotation(5)
                        .with_table_sampling(SAMPLE),
                    mode: ServingMode::Tiered(dispatch),
                    low: (LOW.0, size.pick(LOW.1, 40)),
                    mid: (MID.0, size.pick(MID.1, 40)),
                    sweep: (&SWEEP.0, size.pick(SWEEP.1, 40)),
                    limit_us: P99_LIMIT_US,
                }
            }
        }
    }

    fn backend(&self, rec: &Arc<Recorder>) -> Box<dyn SlsBackend> {
        match self.name {
            "serve-cached" => Timed::boxed(cluster4(true), "cluster", rec),
            _ => Timed::boxed(
                TieredCluster::reference(4, 2).expect("reference tiered cluster"),
                "tiered",
                rec,
            ),
        }
    }

    fn config(&self, (qps, queries): (f64, usize), seed: u64) -> ServingConfig {
        ServingConfig {
            mode: self.mode,
            ..ServingConfig::poisson(qps, queries, self.shape, seed)
        }
    }

    /// Queries the longest point serves.
    fn max_queries(&self) -> usize {
        self.low.1.max(self.mid.1).max(self.sweep.1)
    }

    /// Human-readable definition lines.
    pub fn describe(&self) -> Vec<String> {
        vec![
            format!(
                "  shape: {} tables x batch {} x pooling {} ({} lookups/query), table skew {:.1}, \
                 row skew {:.1}, mode {}",
                self.shape.tables,
                self.shape.batch,
                self.shape.pooling,
                self.shape.lookups_per_query(),
                self.shape.table_skew,
                self.shape.row_skew,
                self.mode.name()
            ),
            format!(
                "  fixed loads (qps, queries): low {:?} and mid {:?} served directly, {:?} swept; \
                 p99 limit {} us; open-loop Poisson in simulated time",
                self.low, self.mid, self.sweep, self.limit_us
            ),
        ]
    }
}

/// Generates the inputs of one pass and builds its backends. Input
/// generation runs inside a `trace` span.
pub fn setup(workload: &str, seed: u64, size: Size, rec: &Arc<Recorder>) -> Inputs {
    match workload {
        "sls-batch" => {
            use sls_batch::*;
            let calls = rec.span("trace", || {
                let spec = EmbeddingTableSpec::dlrm_default();
                let mut gens: Vec<TraceGenerator> = (0..TABLES)
                    .map(|t| {
                        TraceGenerator::new(
                            TableId::new(t as u32),
                            spec,
                            IndexDistribution::Zipf { s: ZIPF },
                            seed.wrapping_mul(0x9e37_79b9).wrapping_add(131 * t as u64),
                        )
                    })
                    .collect();
                let mut layout = TableLayout::random(
                    &[spec; TABLES],
                    opt_channel_config().geometry().capacity_bytes(),
                    seed ^ 0xfeed,
                );
                (0..size.pick(CALLS, 24) * MID_CONCURRENCY)
                    .map(|_| {
                        let batches: Vec<_> =
                            gens.iter_mut().map(|g| g.batch(BATCH, POOLING)).collect();
                        SlsTrace::from_batches(&batches, &mut |t, r| layout.translate(t, r))
                    })
                    .collect::<Vec<_>>()
            });
            let merged = calls
                .chunks(MID_CONCURRENCY)
                .map(|group| SlsTrace {
                    batches: group
                        .iter()
                        .flat_map(|t| t.batches.iter().cloned())
                        .collect(),
                })
                .collect::<Vec<_>>();
            let mut calls = calls;
            calls.truncate(merged.len());
            Inputs::SlsBatch {
                calls,
                merged,
                pair: SpeedupPair::new(rec),
                cluster: Timed::boxed(cluster4(true), "cluster", rec),
            }
        }
        "serve-cached" | "serve-tiered" => {
            let spec = ServeSpec::of(workload, size);
            let queries = rec.span("trace", || {
                QueryStream::new(spec.shape, seed).take_queries(spec.max_queries())
            });
            Inputs::Serve {
                spec: Box::new(spec),
                queries,
                direct: [spec.backend(rec), spec.backend(rec)],
                pair: SpeedupPair::new(rec),
            }
        }
        "fleet-faults" => {
            use fleet_faults::*;
            let queries = rec.span("trace", || {
                QueryStream::new(fleet_shape(), seed).take_queries(size.pick(QUERIES, 40))
            });
            let fleets = (0..=LOADS.len())
                .map(|_| {
                    Fleet::new(
                        (0..NODES)
                            .map(|_| Timed::boxed(cluster4(false), "node", rec))
                            .collect(),
                    )
                    .expect("reference fleet")
                })
                .collect();
            Inputs::Fleet {
                queries,
                fleets,
                pair: SpeedupPair::new(rec),
            }
        }
        other => panic!("unknown workload {other}"),
    }
}

fn fleet_shape() -> QueryShape {
    use fleet_faults::*;
    QueryShape::new(TABLES, 4, 8)
        .with_table_skew(1.2)
        .with_table_sampling(SAMPLE)
}

/// Human-readable definition lines of a workload.
pub fn describe(workload: &str) -> Vec<String> {
    match workload {
        "sls-batch" => {
            use sls_batch::*;
            vec![
                format!(
                    "  requests of {TABLES} tables x batch {BATCH} x pooling {POOLING} (Zipf {ZIPF} \
                     rows); {CALLS} closed-loop calls each on the host baseline and the RecNMP-opt \
                     channel (1 DIMM x 2 ranks each), {CALLS} calls of {MID_CONCURRENCY} requests \
                     on the 4-channel RecNMP-opt cluster"
                ),
                format!(
                    "  low load = 1 request in flight on the channel; mid load = {MID_CONCURRENCY} \
                     requests per cluster call; latency limit {LIMIT_US} us"
                ),
            ]
        }
        "fleet-faults" => {
            use fleet_faults::*;
            let shape = fleet_shape();
            vec![
                format!(
                    "  {NODES}-node reference fleet, {TABLES} tables (sample {SAMPLE}) x batch {} x \
                     pooling {} = {} lookups/query, hot-table replication of {HOT_REPLICATED}",
                    shape.batch,
                    shape.pooling,
                    shape.lookups_per_query()
                ),
                format!(
                    "  fault-free loads (qps): {LOADS:?}; low = {}, mid = {}; p99 limit {P99_LIMIT_US} us; \
                     {QUERIES} queries/point, open-loop Poisson in simulated time",
                    LOADS[LOW], LOADS[MID]
                ),
                format!(
                    "  faulted run at {} qps: node {} crashes at mid-horizon, node 0 channel 0 \
                     stuck {DEGRADE}x slow from then on, retry + p95 hedging + SLO deadline = \
                     {DEADLINE_P99_MULTIPLE} x fault-free p99 at that load",
                    LOADS[FAULTED],
                    NODES - 1
                ),
            ]
        }
        other => ServeSpec::of(other, Size::Full).describe(),
    }
}

// ---------------------------------------------------------------------
// Measured passes.

/// Runs one measured pass over `inputs`.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn pass(inputs: Inputs, seed: u64, rec: &Arc<Recorder>) -> Result<PassOut, SimError> {
    match inputs {
        Inputs::SlsBatch {
            calls,
            merged,
            mut pair,
            mut cluster,
        } => sls_pass(&calls, &merged, &mut pair, cluster.as_mut(), rec),
        Inputs::Serve {
            spec,
            queries,
            direct,
            mut pair,
        } => serve_pass(&spec, &queries, direct, &mut pair, seed, rec),
        Inputs::Fleet {
            queries,
            fleets,
            mut pair,
        } => fleet_pass(&queries, fleets, &mut pair, seed, rec),
    }
}

fn sls_pass(
    calls: &[SlsTrace],
    merged: &[SlsTrace],
    pair: &mut SpeedupPair,
    cluster: &mut dyn SlsBackend,
    rec: &Arc<Recorder>,
) -> Result<PassOut, SimError> {
    use sls_batch::*;
    let mut raw = Raw::default();
    let (host, nmp) = pair.run(calls, rec, &mut raw)?;
    let cluster_reports = rec.span("exec", || {
        merged
            .iter()
            .map(|t| cluster.try_run(t))
            .collect::<Result<Vec<_>, _>>()
    })?;
    // All requests of a cluster call complete with the call.
    let mid: Vec<Cycle> = cluster_reports.iter().map(|r| r.total_cycles).collect();
    let requests = merged
        .iter()
        .map(|t| t.batches.len() / TABLES)
        .sum::<usize>();
    let (cpl, speedup) = speedup_metrics(calls, &host, &nmp);
    let cluster_secs = mid.iter().sum::<Cycle>() as f64 / DDR4_2400_CLOCK_HZ;
    let limit = limit_cycles(LIMIT_US);
    let percentiles = vec![
        percentile("sim_p50_us.low", &nmp, 0.50),
        percentile("sim_p99_us.low", &nmp, 0.99),
        percentile("sim_p99_us.mid", &mid, 0.99),
    ];
    let mut sim = vec![
        ("sim_cycles_per_lookup", cpl),
        ("sim_speedup_vs_host", speedup),
    ];
    sim.extend(percentiles.iter().map(|p| (p.metric, p.us)));
    sim.extend([
        ("sim_knee_qps", requests as f64 / cluster_secs),
        (
            "sim_goodput_frac",
            mid.iter().filter(|&&c| c <= limit).count() as f64 / mid.len() as f64,
        ),
        (
            "sim_availability",
            cluster_reports.len() as f64 / merged.len() as f64,
        ),
    ]);
    let info = vec![format!(
        "  cycles: host {} and RecNMP-opt channel {} over {} lookups; cluster {} over {} lookups",
        host.iter().sum::<Cycle>(),
        nmp.iter().sum::<Cycle>(),
        lookups(calls),
        mid.iter().sum::<Cycle>(),
        lookups(merged)
    )];
    let cluster_calls = merged
        .iter()
        .cloned()
        .zip(cluster_reports)
        .collect::<Vec<_>>();
    raw.reports
        .extend(cluster_calls.iter().map(|(_, r)| r.clone()));
    Ok(PassOut {
        offered_lookups: 2 * lookups(calls) + lookups(merged),
        sim,
        percentiles,
        raw,
        info,
        counters: Counters::default(),
        cluster_calls,
    })
}

/// Served (non-rejected) latencies of a serving report.
fn served_latencies(r: &ServingReport) -> Vec<Cycle> {
    r.latencies
        .iter()
        .enumerate()
        .filter(|(i, _)| r.rejected.binary_search(i).is_err())
        .map(|(_, &l)| l)
        .collect()
}

/// One fixed load point: offered qps, achieved qps, p50 and p99 cycles.
struct Point {
    offered: f64,
    achieved: f64,
    p50: Cycle,
    p99: Cycle,
}

impl Point {
    /// Sustained: achieved at least 90% of offered (as `SweepPoint`).
    fn sustained(&self) -> bool {
        self.achieved >= 0.90 * self.offered
    }

    fn line(&self, limit: Cycle) -> String {
        format!(
            "  load {:>12.0} qps: achieved {:>12.0}, p50 {:>10.3} us, p99 {:>10.3} us{}{}",
            self.offered,
            self.achieved,
            cycles_to_us(self.p50),
            cycles_to_us(self.p99),
            if self.sustained() {
                ""
            } else {
                ", not sustained"
            },
            if self.p99 > limit {
                ", over the p99 limit"
            } else {
                ""
            }
        )
    }
}

/// The highest fixed load that was sustained with p99 within `limit`.
fn knee(points: &[Point], limit: Cycle) -> f64 {
    points
        .iter()
        .rev()
        .find(|p| p.sustained() && p.p99 <= limit)
        .map_or(0.0, |p| p.offered)
}

fn serve_pass(
    spec: &ServeSpec,
    queries: &[SlsTrace],
    direct: [Box<dyn SlsBackend>; 2],
    pair: &mut SpeedupPair,
    seed: u64,
    rec: &Arc<Recorder>,
) -> Result<PassOut, SimError> {
    let mut raw = Raw::default();
    // The program's generator is prefix-stable: a point serving n queries
    // serves the first n of the stream.
    let offered_in = |n: usize| lookups(&queries[..n]);
    let mut reports = Vec::with_capacity(2);
    for (mut backend, point) in direct.into_iter().zip([spec.low, spec.mid]) {
        let cfg = spec.config(point, seed);
        let report = rec.span("scheduler", || serve(backend.as_mut(), &cfg))?;
        let offered = offered_in(cfg.queries);
        let r = &report.report;
        if spec.mode.name().starts_with("cached") {
            rec.check(r.host_hits + r.host_misses == offered, || {
                format!(
                    "{}: host cache hits {} + misses {} != offered {offered}",
                    spec.name, r.host_hits, r.host_misses
                )
            });
        }
        rec.check(r.insts + r.host_hits == offered, || {
            format!(
                "{}: backends served {} + host cache {} != offered {offered}",
                spec.name, r.insts, r.host_hits
            )
        });
        reports.push(report);
    }
    let curve: SweepCurve = rec.span("sweep", || {
        let mut factory = || spec.backend(rec);
        qps_sweep_at(
            &mut factory,
            spec.mode,
            ArrivalProcess::Poisson,
            spec.shape,
            spec.mid.0,
            spec.sweep.0,
            spec.sweep.1,
            seed,
        )
    })?;
    let sample = speedup_sample(queries, spec.shape.lookups_per_query());
    let (host, nmp) = pair.run(sample, rec, &mut raw)?;
    let (cpl, speedup) = speedup_metrics(sample, &host, &nmp);

    let limit = limit_cycles(spec.limit_us);
    let low = served_latencies(&reports[0]);
    let mid = served_latencies(&reports[1]);
    let percentiles = vec![
        percentile("sim_p50_us.low", &low, 0.50),
        percentile("sim_p99_us.low", &low, 0.99),
        percentile("sim_p99_us.mid", &mid, 0.99),
    ];
    let mut points: Vec<Point> = reports
        .iter()
        .map(|r| {
            let s = r.summary();
            Point {
                offered: r.offered_qps,
                achieved: r.achieved_qps(),
                p50: s.p50,
                p99: s.p99,
            }
        })
        .chain(curve.points.iter().map(|p| Point {
            offered: p.offered_qps,
            achieved: p.achieved_qps,
            p50: p.summary.p50,
            p99: p.summary.p99,
        }))
        .collect();
    points.sort_by(|a, b| a.offered.total_cmp(&b.offered));
    let mut sim = vec![
        ("sim_cycles_per_lookup", cpl),
        ("sim_speedup_vs_host", speedup),
    ];
    sim.extend(percentiles.iter().map(|p| (p.metric, p.us)));
    sim.extend([
        ("sim_knee_qps", knee(&points, limit)),
        (
            "sim_goodput_frac",
            mid.iter().filter(|&&c| c <= limit).count() as f64 / spec.mid.1 as f64,
        ),
        ("sim_availability", mid.len() as f64 / spec.mid.1 as f64),
    ]);
    let mut counters = Counters {
        sweep_points: curve.points.len() as u64,
        ..Counters::default()
    };
    for r in &reports {
        counters.sched_queries += (r.latencies.len() - r.rejected.len()) as u64;
        counters.sched_jobs += r.jobs as u64;
        counters.sched_rejected += r.rejected.len() as u64;
        counters.host_hits += r.report.host_hits;
        counters.host_misses += r.report.host_misses;
        counters.host_absorbed_bytes += r.report.host_absorbed_bytes;
    }
    raw.curves.push(curve);
    raw.serving = reports;
    Ok(PassOut {
        offered_lookups: offered_in(spec.low.1)
            + offered_in(spec.mid.1)
            + spec.sweep.0.len() as u64 * offered_in(spec.sweep.1)
            + 2 * lookups(sample),
        sim,
        percentiles,
        raw,
        info: points.iter().map(|p| p.line(limit)).collect(),
        counters,
        cluster_calls: Vec::new(),
    })
}

/// Checks that a fleet report accounts for every offered query, and
/// that its outcome counters agree with the per-query outcomes.
fn check_fleet(rec: &Recorder, report: &FleetReport, offered: usize, what: &str) {
    let count = |o: QueryOutcome| report.outcomes.iter().filter(|&&x| x == o).count();
    let (done, rej, shed, failed) = (
        count(QueryOutcome::Completed),
        count(QueryOutcome::Rejected),
        count(QueryOutcome::Shed),
        count(QueryOutcome::Failed),
    );
    let r = &report.report;
    rec.check(
        offered == done + rej + shed + failed
            && r.queries_rejected == rej as u64
            && r.queries_shed == shed as u64
            && r.queries_failed == failed as u64
            && report.failures.len() == failed,
        || {
            format!(
                "fleet-faults {what}: offered {offered} != completed {done} + rejected {rej} + \
                 shed {shed} + failed {failed} (counters {}/{}/{})",
                r.queries_rejected, r.queries_shed, r.queries_failed
            )
        },
    );
}

fn fleet_pass(
    queries: &[SlsTrace],
    mut fleets: Vec<Fleet>,
    pair: &mut SpeedupPair,
    seed: u64,
    rec: &Arc<Recorder>,
) -> Result<PassOut, SimError> {
    use fleet_faults::*;
    let mut raw = Raw::default();
    let offered = lookups(queries);
    let cfg = |qps: f64| FleetConfig {
        process: ArrivalProcess::Poisson,
        qps,
        queries: queries.len(),
        shape: fleet_shape(),
        dispatch: FleetDispatch::replicated(HOT_REPLICATED),
        seed,
    };
    let mut faulted_fleet = fleets.pop().expect("one fleet for the faulted run");
    let mut clean = Vec::with_capacity(LOADS.len());
    for (fleet, &qps) in fleets.iter_mut().zip(&LOADS) {
        let report = rec.span("fleet", || serve_fleet(fleet, &cfg(qps)))?;
        check_fleet(rec, &report, queries.len(), "fault-free run");
        rec.check(report.report.insts == offered, || {
            format!(
                "fleet-faults: fault-free run served {} of {offered} lookups",
                report.report.insts
            )
        });
        clean.push(report);
    }
    let fault_qps = LOADS[FAULTED];
    let deadline = DEADLINE_P99_MULTIPLE * clean[FAULTED].summary().p99;
    let crash_at = (queries.len() as f64 / 2.0 * qps_to_interarrival_cycles(fault_qps)) as Cycle;
    let res = ResilienceConfig::new(
        FaultPlan::none()
            .with_crash(NODES - 1, crash_at)
            .with_degrade(0, 0, crash_at, u64::MAX, DEGRADE),
    )
    .with_retry(RetryPolicy::serving_default(deadline))
    .with_hedge(HedgePolicy::p95())
    .with_slo(SloPolicy::new(deadline));
    let faulted = rec.span("fleet", || {
        serve_fleet_resilient(&mut faulted_fleet, &cfg(fault_qps), &res)
    })?;
    check_fleet(rec, &faulted, queries.len(), "faulted run");

    let sample = speedup_sample(queries, fleet_shape().lookups_per_query());
    let (host, nmp) = pair.run(sample, rec, &mut raw)?;
    let (cpl, speedup) = speedup_metrics(sample, &host, &nmp);

    let limit = limit_cycles(P99_LIMIT_US);
    let low = clean[LOW].completed_latencies();
    let mid = clean[MID].completed_latencies();
    let percentiles = vec![
        percentile("sim_p50_us.low", &low, 0.50),
        percentile("sim_p99_us.low", &low, 0.99),
        percentile("sim_p99_us.mid", &mid, 0.99),
    ];
    let points: Vec<Point> = clean
        .iter()
        .zip(&LOADS)
        .map(|(r, &qps)| {
            let s = r.summary();
            Point {
                offered: qps,
                achieved: r.achieved_qps(),
                p50: s.p50,
                p99: s.p99,
            }
        })
        .collect();
    let (good, post) = faulted.goodput_in_window(deadline, crash_at, Cycle::MAX);
    let mut sim = vec![
        ("sim_cycles_per_lookup", cpl),
        ("sim_speedup_vs_host", speedup),
    ];
    sim.extend(percentiles.iter().map(|p| (p.metric, p.us)));
    sim.extend([
        ("sim_knee_qps", knee(&points, limit)),
        ("sim_goodput_frac", good as f64 / post.max(1) as f64),
        ("sim_availability", faulted.availability()),
    ]);
    let mut counters = Counters::default();
    for r in clean.iter().chain([&faulted]) {
        counters.fleet_queries += r.outcomes.len() as u64;
        counters.failovers += r.report.failovers;
        counters.hedges += r.report.hedges;
        counters.retries += r.report.retries;
        counters.rejected += r.report.queries_rejected;
        counters.shed += r.report.queries_shed;
        counters.failed += r.report.queries_failed;
    }
    let mut info: Vec<String> = points.iter().map(|p| p.line(limit)).collect();
    info.push(format!(
        "  faulted run: deadline {:.3} us, crash at cycle {crash_at}; post-crash {good} of {post} \
         within the deadline; completed {} of {}, failovers {}, hedges {}, retries {}, \
         rejected {}, shed {}, failed {}",
        cycles_to_us(deadline),
        faulted.completed(),
        faulted.outcomes.len(),
        faulted.report.failovers,
        faulted.report.hedges,
        faulted.report.retries,
        faulted.report.queries_rejected,
        faulted.report.queries_shed,
        faulted.report.queries_failed
    ));
    raw.fleet = clean;
    raw.fleet.push(faulted);
    Ok(PassOut {
        offered_lookups: (LOADS.len() as u64 + 1) * offered + 2 * lookups(sample),
        sim,
        percentiles,
        raw,
        info,
        counters,
        cluster_calls: Vec::new(),
    })
}
