//! A transparent timing wrapper around any [`SlsBackend`].
//!
//! [`Timed`] forwards every trait method to the wrapped backend, so the
//! simulation runs the same code paths with or without it (cluster and
//! tiered backends keep their pool fan-out in `try_run_shards`). It
//! always checks lookup conservation of each call; when its recorder
//! traces it also records the call as a leaf span with the counters of
//! the reports it returned.

use std::sync::Arc;

use recnmp::{RecNmpCluster, RecNmpSystem};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_baselines::HostBaseline;
use recnmp_storage::TieredCluster;
use recnmp_types::{Cycle, PhysAddr, SimError};

use crate::recorder::{Call, Recorder};

/// Backends whose DRAM-engine loop iterations can be read from outside:
/// the exact work counter behind `dram.loop_iters`.
pub trait LoopIters {
    /// Cumulative DRAM-engine loop iterations so far.
    fn loop_iters(&mut self) -> u64;
    /// First server index of the SSD tier, when there is one.
    fn ssd_from(&self) -> Option<usize> {
        None
    }
}

impl LoopIters for RecNmpSystem {
    fn loop_iters(&mut self) -> u64 {
        self.total_dram_loop_iterations()
    }
}

impl LoopIters for RecNmpCluster {
    fn loop_iters(&mut self) -> u64 {
        (0..self.channels())
            .map(|c| self.channel(c).total_dram_loop_iterations())
            .sum()
    }
}

impl LoopIters for HostBaseline {
    fn loop_iters(&mut self) -> u64 {
        self.memory().loop_iterations()
    }
}

impl LoopIters for TieredCluster {
    fn loop_iters(&mut self) -> u64 {
        let dram = self.dram();
        (0..dram.channels())
            .map(|c| dram.channel(c).total_dram_loop_iterations())
            .sum()
    }

    fn ssd_from(&self) -> Option<usize> {
        Some(self.dram_servers())
    }
}

/// The timing wrapper.
pub struct Timed<B> {
    inner: B,
    role: &'static str,
    rec: Arc<Recorder>,
}

impl<B: SlsBackend + LoopIters + 'static> Timed<B> {
    /// Wraps `inner`, recording into `rec` under `role`.
    pub fn boxed(inner: B, role: &'static str, rec: &Arc<Recorder>) -> Box<dyn SlsBackend> {
        Box::new(Self {
            inner,
            role,
            rec: Arc::clone(rec),
        })
    }

    fn ssd_lookups(&self, server: usize, lookups: u64) -> u64 {
        match self.inner.ssd_from() {
            Some(first) if server >= first => lookups,
            _ => 0,
        }
    }

    /// Runs `f` against the inner backend; checks that `reports` conserve
    /// `lookups` and, when tracing, records the call.
    fn observe(
        &mut self,
        lookups: &[u64],
        ssd_lookups: u64,
        f: impl FnOnce(&mut B) -> Result<Vec<RunReport>, SimError>,
    ) -> Result<Vec<RunReport>, SimError> {
        let tracing = self.rec.tracing();
        let (iters_before, start) = if tracing {
            (self.inner.loop_iters(), self.rec.now())
        } else {
            (0, 0)
        };
        let out = f(&mut self.inner);
        let end = if tracing { self.rec.now() } else { 0 };
        let role = self.role;
        match &out {
            Err(e) => self.rec.check(false, || format!("{role} call failed: {e}")),
            Ok(reports) => {
                let served: Vec<u64> = reports.iter().map(|r| r.insts).collect();
                self.rec.check(served == lookups, || {
                    format!("{role} call served {served:?} of {lookups:?} lookups")
                });
                if tracing {
                    let mut call = Call {
                        role,
                        parent: self.rec.current_parent(),
                        start,
                        end,
                        lookups: lookups.iter().sum(),
                        ssd_lookups,
                        loop_iters: self.inner.loop_iters() - iters_before,
                        ..Call::default()
                    };
                    for r in reports {
                        call.cycles = call.cycles.max(r.total_cycles);
                        call.reads += r.dram.reads;
                        call.row_hits += r.dram.row_hits;
                        call.row_other += r.dram.row_misses + r.dram.row_conflicts;
                        call.cache_hits += r.cache.hits;
                        call.cache_misses += r.cache.misses;
                    }
                    self.rec.push_call(call);
                }
            }
        }
        out
    }
}

impl<B: SlsBackend + LoopIters + 'static> SlsBackend for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        self.observe(&[trace.total_lookups()], 0, |b| Ok(vec![b.try_run(trace)?]))
            .map(|mut r| r.remove(0))
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn try_run_on(&mut self, server: usize, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let lookups = trace.total_lookups();
        let ssd = self.ssd_lookups(server, lookups);
        self.observe(&[lookups], ssd, |b| Ok(vec![b.try_run_on(server, trace)?]))
            .map(|mut r| r.remove(0))
    }

    fn try_run_shards(&mut self, shards: &[(usize, SlsTrace)]) -> Result<Vec<RunReport>, SimError> {
        let lookups: Vec<u64> = shards.iter().map(|(_, t)| t.total_lookups()).collect();
        let ssd = shards
            .iter()
            .map(|(s, t)| self.ssd_lookups(*s, t.total_lookups()))
            .sum();
        self.observe(&lookups, ssd, |b| b.try_run_shards(shards))
    }

    fn prefetch_on(
        &mut self,
        server: usize,
        addrs: &[PhysAddr],
        vector_bytes: u32,
        budget_cycles: Cycle,
    ) -> u64 {
        self.inner
            .prefetch_on(server, addrs, vector_bytes, budget_cycles)
    }

    fn reset_caches(&mut self) {
        self.inner.reset_caches();
    }
}
