//! Layer-resolved benchmark of the RecNMP simulator.
//!
//! One command runs a named workload for a fixed host-time budget. With
//! `--trace 0` it times untraced passes and reports the end-to-end
//! metrics; with `--trace 1` it runs untraced and traced passes and
//! reports the per-layer metrics. See `README.md` in this directory for
//! the workloads, metrics and the layer → end-to-end mapping.

pub mod recorder;
pub mod timed;
pub mod workloads;

use std::sync::Arc;
use std::time::{Duration, Instant};

use recnmp::{compile_trace, ExecutionMode, RecNmpSystem};
use recnmp_backend::{RunReport, SlsTrace};
use recnmp_types::SimError;

use recorder::{self_secs, span_ids, span_secs, Call, Recorder};
use workloads::{Inputs, PassOut, Size};

/// A seed kept out of every tuning run, for checking later claims.
pub const HELD_OUT_SEED: u64 = 8_675_309;

/// Set-ups timed per run at least (`setup_s` is their median).
pub const MIN_SETUPS: usize = 5;

/// End-to-end metrics and their units. Units starting `sim_` are
/// simulated (modelled-hardware) quantities, deterministic per seed.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_lookups_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles_per_lookup", "sim_cycles"),
    ("sim_speedup_vs_host", "x"),
    ("sim_p50_us.low", "sim_us"),
    ("sim_p99_us.low", "sim_us"),
    ("sim_p99_us.mid", "sim_us"),
    ("sim_knee_qps", "sim_qps"),
    ("sim_goodput_frac", "fraction"),
    ("sim_availability", "fraction"),
];

/// Per-layer metrics and their units, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("trace.gen_s", "s"),
    ("core.compile_s", "s"),
    ("core.compile_ns_per_lookup", "ns"),
    ("core.packets", "count"),
    ("core.run_s", "s"),
    ("dram.loop_iters", "count"),
    ("dram.reads", "count"),
    ("dram.iters_per_read", "ratio"),
    ("dram.ns_per_read", "ns"),
    ("dram.row_hit_ratio", "ratio"),
    ("cache.rank_hit_ratio", "ratio"),
    ("cache.rank_hits", "count"),
    ("cache.rank_misses", "count"),
    ("baselines.host_s", "s"),
    ("baselines.host_sim_cycles", "sim_cycles"),
    ("exec.workers", "count"),
    ("exec.busy_frac", "fraction"),
    ("exec.fanout_overhead_s", "s"),
    ("backend.calls", "count"),
    ("backend.lookups_per_call", "count"),
    ("backend.self_s", "s"),
    ("backend.us_per_call_p50", "us"),
    ("backend.us_per_call_p99", "us"),
    ("scheduler.self_s", "s"),
    ("scheduler.ns_per_query", "ns"),
    ("scheduler.jobs", "count"),
    ("scheduler.rejected", "count"),
    ("host_cache.hit_ratio", "ratio"),
    ("host_cache.absorbed_bytes", "B"),
    ("sweep.points", "count"),
    ("sweep.busy_frac", "fraction"),
    ("fleet.self_s", "s"),
    ("fleet.ns_per_query", "ns"),
    ("fleet.node_calls", "count"),
    ("fleet.failovers", "count"),
    ("fleet.hedges", "count"),
    ("fleet.retries", "count"),
    ("fleet.rejected", "count"),
    ("fleet.shed", "count"),
    ("fleet.failed", "count"),
    ("storage.self_s", "s"),
    ("storage.ssd_lookup_share", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// What the simulation produced in one pass: every `sim_*` value plus a
/// digest of per-query completions, per-call reports and DRAM/RankCache
/// counters. Identical across worker counts, reruns and tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `sim_*` metrics, bit for bit.
    pub sim: Vec<(&'static str, u64)>,
    /// Digest of every simulated output.
    pub digest: u64,
}

impl Fingerprint {
    /// The fingerprint of one pass's outputs.
    pub fn of(out: &PassOut) -> Self {
        Self {
            sim: out.sim.iter().map(|&(k, v)| (k, v.to_bits())).collect(),
            digest: out.raw.digest(),
        }
    }

    /// One-line JSON rendering.
    pub fn json(&self) -> String {
        let sim: Vec<String> = self
            .sim
            .iter()
            .map(|&(k, bits)| format!("\"{k}\": {}", num(f64::from_bits(bits))))
            .collect();
        format!(
            "{{\"sim\": {{{}}}, \"digest\": \"{:016x}\"}}",
            sim.join(", "),
            self.digest
        )
    }
}

/// One finished pass.
pub struct PassResult {
    /// Host seconds of the set-up (input generation + construction).
    pub setup_s: f64,
    /// Host seconds of the measured pass.
    pub wall_s: f64,
    /// What the pass produced.
    pub out: PassOut,
    /// Its recorder (spans, calls, checks).
    pub rec: Arc<Recorder>,
}

/// Sets up and runs one pass of `workload`.
///
/// # Errors
///
/// Returns the simulation error together with the recorder, whose
/// checks count it.
pub fn one_pass(
    workload: &str,
    seed: u64,
    size: Size,
    tracing: bool,
) -> Result<PassResult, (Arc<Recorder>, SimError)> {
    let rec = Arc::new(Recorder::new(tracing));
    let t0 = Instant::now();
    let inputs = workloads::setup(workload, seed, size, &rec);
    let t1 = Instant::now();
    let out = workloads::pass(inputs, seed, &rec);
    let t2 = Instant::now();
    match out {
        Ok(out) => Ok(PassResult {
            setup_s: (t1 - t0).as_secs_f64(),
            wall_s: (t2 - t1).as_secs_f64(),
            out,
            rec,
        }),
        Err(e) => {
            let msg = e.to_string();
            rec.check(false, || format!("{workload} pass failed: {msg}"));
            Err((rec, e))
        }
    }
}

/// Times a set-up alone (its backends are dropped unused).
pub fn setup_only(workload: &str, seed: u64, size: Size) -> f64 {
    let rec = Arc::new(Recorder::new(false));
    let t0 = Instant::now();
    let inputs: Inputs = workloads::setup(workload, seed, size, &rec);
    let secs = t0.elapsed().as_secs_f64();
    drop(inputs);
    secs
}

/// Median of a sample (mean of the middle pair when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A JSON number; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of re-running each 4-channel cluster call of `sls-batch` as
/// `compile_trace` followed by `run_packets`/`run_packets_overlapped` on
/// standalone channels.
#[derive(Debug, Clone, Default)]
pub struct CoreProbe {
    /// Host seconds in `compile_trace`.
    pub compile_s: f64,
    /// Host seconds in the packet runs.
    pub run_s: f64,
    /// Packets compiled.
    pub packets: u64,
    /// Lookups compiled.
    pub lookups: u64,
}

/// Re-runs the cluster calls channel by channel and checks each merged
/// report equals the cluster's.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn core_probe(calls: &[(SlsTrace, RunReport)], rec: &Recorder) -> Result<CoreProbe, SimError> {
    let config = workloads::cluster4_config(true);
    let mut channels: Vec<RecNmpSystem> = (0..config.channels)
        .map(|_| RecNmpSystem::new(config.channel.clone()).expect("reference channel"))
        .collect();
    let mut probe = CoreProbe::default();
    for (trace, report) in calls {
        let mut merged = RunReport::for_system(report.system.clone());
        for (channel, shard) in channels
            .iter_mut()
            .zip(trace.shard(config.channels, config.sharding))
        {
            let t0 = Instant::now();
            let packets = compile_trace(
                channel.config(),
                channel.geometry(),
                channel.mapping(),
                &shard,
            );
            let t1 = Instant::now();
            let r = match channel.config().execution {
                ExecutionMode::Serial => channel.run_packets(&packets)?,
                ExecutionMode::Overlapped => channel.run_packets_overlapped(&packets)?,
            };
            probe.compile_s += (t1 - t0).as_secs_f64();
            probe.run_s += t1.elapsed().as_secs_f64();
            probe.packets += packets.len() as u64;
            probe.lookups += shard.total_lookups();
            merged.absorb_parallel(r);
        }
        rec.check(merged == *report, || {
            "sls-batch: per-channel compile + run differs from the cluster's report".to_string()
        });
    }
    Ok(probe)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn call_secs<'a>(calls: impl IntoIterator<Item = &'a Call>) -> f64 {
    calls.into_iter().map(Call::secs).fold(0.0, |a, b| a + b)
}

/// The per-layer metrics of one traced pass. Layers a workload does not
/// reach read 0.
pub fn layer_metrics(
    traced: &PassResult,
    workers: usize,
    untraced_wall: f64,
    probe: Option<&CoreProbe>,
) -> Vec<(&'static str, f64)> {
    let spans = traced.rec.spans();
    let calls = traced.rec.calls();
    let c = &traced.out.counters;
    let wall = traced.wall_s;
    let w = workers as f64;
    let sum = |f: fn(&Call) -> u64| calls.iter().map(f).sum::<u64>() as f64;
    let iters = sum(|c| c.loop_iters);
    let reads = sum(|c| c.reads);
    let row_hits = sum(|c| c.row_hits);
    let row_other = sum(|c| c.row_other);
    let hits = sum(|c| c.cache_hits);
    let misses = sum(|c| c.cache_misses);
    let lookups = sum(|c| c.lookups);
    let backend_s = call_secs(&calls);
    let host_calls = calls.iter().filter(|c| c.role == "host");
    let mut durations: Vec<u64> = calls.iter().map(|c| c.end - c.start).collect();
    durations.sort_unstable();
    let pct_us = |q: f64| {
        if durations.is_empty() {
            0.0
        } else {
            let rank = ((q * durations.len() as f64).ceil() as usize).clamp(1, durations.len());
            durations[rank - 1] as f64 * 1e-3
        }
    };
    let sweeps = span_ids(&spans, "sweep");
    let sweep_calls = calls
        .iter()
        .filter(|c| c.parent.is_some_and(|p| sweeps.contains(&p)));
    let fleets = span_ids(&spans, "fleet");
    let node_calls = calls
        .iter()
        .filter(|c| c.parent.is_some_and(|p| fleets.contains(&p)))
        .count();
    let tiered: Vec<&Call> = calls.iter().filter(|c| c.role == "tiered").collect();
    let storage_s = call_secs(tiered.iter().copied().filter(|c| c.ssd_lookups > 0));
    let ssd_lookups: u64 = tiered.iter().map(|c| c.ssd_lookups).sum();
    let tiered_lookups: u64 = tiered.iter().map(|c| c.lookups).sum();
    let sched_s = self_secs(&spans, &calls, "scheduler");
    let fleet_s = self_secs(&spans, &calls, "fleet");
    let (compile_s, run_s, packets, probe_lookups) = probe.map_or((0.0, 0.0, 0.0, 0.0), |p| {
        (p.compile_s, p.run_s, p.packets as f64, p.lookups as f64)
    });
    let fanout = probe.map_or(0.0, |p| {
        call_secs(calls.iter().filter(|c| c.role == "cluster")) - (p.compile_s + p.run_s) / w
    });
    vec![
        ("trace.gen_s", span_secs(&spans, "trace")),
        ("core.compile_s", compile_s),
        (
            "core.compile_ns_per_lookup",
            ratio(compile_s * 1e9, probe_lookups),
        ),
        ("core.packets", packets),
        ("core.run_s", run_s),
        ("dram.loop_iters", iters),
        ("dram.reads", reads),
        ("dram.iters_per_read", ratio(iters, reads)),
        ("dram.ns_per_read", ratio(backend_s * 1e9, reads)),
        ("dram.row_hit_ratio", ratio(row_hits, row_hits + row_other)),
        ("cache.rank_hit_ratio", ratio(hits, hits + misses)),
        ("cache.rank_hits", hits),
        ("cache.rank_misses", misses),
        ("baselines.host_s", call_secs(host_calls.clone())),
        (
            "baselines.host_sim_cycles",
            host_calls.map(|c| c.cycles).sum::<u64>() as f64,
        ),
        ("exec.workers", w),
        ("exec.busy_frac", ratio(backend_s, wall * w)),
        ("exec.fanout_overhead_s", fanout),
        ("backend.calls", calls.len() as f64),
        (
            "backend.lookups_per_call",
            ratio(lookups, calls.len() as f64),
        ),
        ("backend.self_s", backend_s),
        ("backend.us_per_call_p50", pct_us(0.50)),
        ("backend.us_per_call_p99", pct_us(0.99)),
        ("scheduler.self_s", sched_s),
        (
            "scheduler.ns_per_query",
            ratio(sched_s * 1e9, c.sched_queries as f64),
        ),
        ("scheduler.jobs", c.sched_jobs as f64),
        ("scheduler.rejected", c.sched_rejected as f64),
        (
            "host_cache.hit_ratio",
            ratio(c.host_hits as f64, (c.host_hits + c.host_misses) as f64),
        ),
        ("host_cache.absorbed_bytes", c.host_absorbed_bytes as f64),
        ("sweep.points", c.sweep_points as f64),
        (
            "sweep.busy_frac",
            ratio(call_secs(sweep_calls), span_secs(&spans, "sweep") * w),
        ),
        ("fleet.self_s", fleet_s),
        (
            "fleet.ns_per_query",
            ratio(fleet_s * 1e9, c.fleet_queries as f64),
        ),
        ("fleet.node_calls", node_calls as f64),
        ("fleet.failovers", c.failovers as f64),
        ("fleet.hedges", c.hedges as f64),
        ("fleet.retries", c.retries as f64),
        ("fleet.rejected", c.rejected as f64),
        ("fleet.shed", c.shed as f64),
        ("fleet.failed", c.failed as f64),
        ("storage.self_s", storage_s),
        (
            "storage.ssd_lookup_share",
            ratio(ssd_lookups as f64, tiered_lookups as f64),
        ),
        (
            "bench.trace_overhead_frac",
            ratio(wall, untraced_wall) - 1.0,
        ),
    ]
}

/// Everything one benchmark run measured.
pub struct RunOutcome {
    /// Metrics to report, `(name, unit, value)`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Operations (backend calls and output checks) attempted.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Descriptions of the failures.
    pub failures: Vec<String>,
    /// Untraced and traced passes run.
    pub passes: (usize, usize),
    /// Share of the machine's CPU time stolen by its hypervisor during
    /// the run, when the kernel reports it.
    pub steal_frac: Option<f64>,
    /// Host seconds of every untraced pass.
    pub walls: Vec<f64>,
    /// The first pass's fingerprint, latency percentiles with their
    /// support, and per-point result lines.
    pub first: Option<(Fingerprint, Vec<workloads::Percentile>, Vec<String>)>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, rec: &Recorder) {
        let (a, f) = rec.checks();
        self.attempted += a;
        self.failed += f;
        self.failures.extend(rec.failures());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// `(steal, total)` CPU ticks of the machine so far, from `/proc/stat`:
/// time a hypervisor gave the machine's CPUs to someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs `workload` for `seconds` of host time at `size` and returns what
/// it measured: end-to-end metrics untraced, or per-layer metrics when
/// `trace` is set.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    workers: usize,
) -> RunOutcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let ticks_before = cpu_ticks();
    let mut tally = Tally::default();
    let mut walls: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut probe: Option<CoreProbe> = None;
    let mut first: Option<(Fingerprint, PassOut)> = None;
    // A smoke-size warm-up pass, untimed but checked, pages in the code
    // and warms the allocator before the first measured pass.
    let mut broken = match one_pass(workload, seed, Size::Smoke, false) {
        Ok(res) => {
            tally.absorb(&res.rec);
            false
        }
        Err((rec, _)) => {
            tally.absorb(&rec);
            true
        }
    };
    // Untraced passes fill the budget (half of it when a traced phase
    // follows); at least one pass of each kind runs, and no pass starts
    // that the last one's duration says would overrun its phase. Only
    // the first pass's outputs are kept, so memory does not grow with
    // the number of passes.
    let phases: &[(bool, u32)] = if trace {
        &[(false, 1), (true, 2)]
    } else {
        &[(false, 1)]
    };
    for &(tracing, share_of_two) in phases {
        let until = budget.mul_f64(f64::from(share_of_two) / if trace { 2.0 } else { 1.0 });
        let mut runs = 0;
        let mut last = Duration::ZERO;
        while !broken && (runs == 0 || start.elapsed() + last <= until) {
            let t = Instant::now();
            match one_pass(workload, seed, size, tracing) {
                Ok(mut res) => {
                    tally.absorb(&res.rec);
                    let fp = Fingerprint::of(&res.out);
                    if let Some((f, _)) = &first {
                        tally.check(*f == fp, || {
                            format!(
                                "{workload}: {} pass fingerprint differs from the first pass",
                                if tracing { "traced" } else { "untraced" }
                            )
                        });
                    }
                    if tracing {
                        if workload == "sls-batch" && probe.is_none() {
                            let rec = Recorder::new(false);
                            match core_probe(&res.out.cluster_calls, &rec) {
                                Ok(p) => probe = Some(p),
                                Err(e) => {
                                    rec.check(false, || format!("sls-batch core probe failed: {e}"))
                                }
                            }
                            tally.absorb(&rec);
                        }
                        layers.push(layer_metrics(&res, workers, median(&walls), probe.as_ref()));
                    } else {
                        walls.push(res.wall_s);
                        setups.push(res.setup_s);
                    }
                    if first.is_none() {
                        res.out.raw = workloads::Raw::default();
                        res.out.cluster_calls = Vec::new();
                        first = Some((fp, res.out));
                    }
                }
                Err((rec, _)) => {
                    tally.absorb(&rec);
                    broken = true;
                }
            }
            runs += 1;
            last = t.elapsed();
        }
    }
    while !broken && setups.len() < MIN_SETUPS {
        setups.push(setup_only(workload, seed, size));
    }
    let mut metrics = Vec::new();
    if let (false, Some((_, out))) = (broken, &first) {
        if trace {
            for (i, &(name, unit)) in PER_LAYER.iter().enumerate() {
                let values: Vec<f64> = layers.iter().map(|m| m[i].1).collect();
                metrics.push((name, unit, median(&values)));
            }
        } else {
            let wall = median(&walls);
            for &(name, unit) in &END_TO_END {
                let value = match name {
                    "setup_s" => median(&setups),
                    "wall_s" => wall,
                    "sim_lookups_per_s" => out.offered_lookups as f64 / wall,
                    "peak_rss_mib" => peak_rss_mib(),
                    _ => out
                        .sim
                        .iter()
                        .find(|(k, _)| *k == name)
                        .map_or(f64::NAN, |&(_, v)| v),
                };
                metrics.push((name, unit, value));
            }
        }
    }
    let steal_frac = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    RunOutcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        passes: (walls.len(), layers.len()),
        steal_frac,
        walls,
        first: first.map(|(fp, out)| (fp, out.percentiles, out.info)),
    }
}
