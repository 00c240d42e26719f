//! Execution-engine conformance: worker count is a pure performance
//! knob.
//!
//! The determinism contract of `recnmp-exec` says a simulation result
//! is a function of the configuration and the trace only — never of
//! how many pool workers happened to run it or how the OS scheduled
//! them. These tests pin that contract at the workspace level:
//! cluster `RunReport`s, tiered-cluster reports and full serving sweep
//! curves are byte-identical across worker counts {1, 2, 8} and across
//! reruns, and a panicking task surfaces as a `SimError` instead of
//! hanging or tearing down the process. The thread-budget check lives in
//! `exec_thread_budget.rs`, alone in its binary.

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_exec::ExecPool;
use recnmp_sim::serving::{
    qps_sweep, ArrivalProcess, DispatchPolicy, QueryShape, ServingMode, SweepCurve,
};
use recnmp_storage::TieredCluster;
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, SimError, TableId};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Worker counts the contract is exercised at. 1 is the inline serial
/// engine (zero spawned threads), 2 matches the CI machine, 8
/// oversubscribes it — completion order differs wildly between these,
/// results must not.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn workload(tables: u32, batch: usize, pooling: usize, seed: u64) -> SlsTrace {
    let batches: Vec<SlsBatch> = (0..tables)
        .map(|t| {
            TraceGenerator::new(
                TableId::new(t),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s: 0.9 },
                seed + t as u64,
            )
            .batch(batch, pooling)
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
    })
}

fn cluster(channels: usize) -> RecNmpCluster {
    let config = RecNmpClusterConfig::builder()
        .channels(channels)
        .dimms(1)
        .ranks_per_dimm(2)
        .refresh(false)
        .build()
        .unwrap();
    RecNmpCluster::new(config).unwrap()
}

/// Runs `f` once per worker count in [`WORKER_COUNTS`], twice per
/// count, and asserts every invocation produces the same value with
/// the same `Debug` bytes as the first.
fn assert_invariant_across_pools<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) {
    let _serial = serial();
    let mut reference: Option<(T, String)> = None;
    for workers in WORKER_COUNTS {
        let pool = ExecPool::new(workers).unwrap();
        for rerun in 0..2 {
            let value = recnmp_exec::with_pool(&pool, &mut f);
            match &reference {
                None => {
                    let bytes = format!("{value:?}");
                    reference = Some((value, bytes));
                }
                Some((first, bytes)) => {
                    assert_eq!(
                        &value, first,
                        "result diverged at workers={workers} rerun={rerun}"
                    );
                    assert_eq!(
                        format!("{value:?}").as_bytes(),
                        bytes.as_bytes(),
                        "Debug bytes diverged at workers={workers} rerun={rerun}"
                    );
                }
            }
        }
    }
}

#[test]
fn cluster_reports_are_byte_identical_across_worker_counts() {
    let trace = workload(16, 4, 40, 91);
    assert_invariant_across_pools(|| -> RunReport {
        let mut c = cluster(8);
        c.run(&trace)
    });
}

#[test]
fn tiered_reports_are_byte_identical_across_worker_counts() {
    let trace = workload(12, 2, 16, 7);
    assert_invariant_across_pools(|| -> RunReport {
        let mut c = TieredCluster::reference(4, 2).unwrap();
        c.run(&trace)
    });
}

#[test]
fn sweep_curves_are_byte_identical_across_worker_counts() {
    // A sweep over a cluster nests batches: each sweep point is a pool
    // task whose backend fans its own per-channel tasks into the same
    // pool. The curve must still be a pure function of seed and config.
    assert_invariant_across_pools(|| -> SweepCurve {
        qps_sweep(
            &mut || Box::new(cluster(4)),
            ServingMode::Queued(DispatchPolicy::LeastOutstanding),
            ArrivalProcess::Poisson,
            QueryShape::new(2, 2, 8),
            &[0.4, 0.8],
            16,
            8,
            0xfeed_f00d,
        )
        .unwrap()
    });
}

/// Runs this binary's tests one at a time: each builds pools of up to
/// 8 workers. A failed test poisons the lock; the others still run.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn panicking_task_is_reported_not_hung() {
    let _serial = serial();
    for workers in [1usize, 8] {
        let pool = ExecPool::new(workers).unwrap();
        let err = recnmp_exec::with_pool(&pool, || {
            let tasks: Vec<Box<dyn FnOnce() -> Result<u64, SimError> + Send>> = (0..6u64)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("poisoned task {i}");
                        }
                        Ok(i)
                    }) as Box<dyn FnOnce() -> Result<u64, SimError> + Send>
                })
                .collect();
            recnmp_exec::current().run_vec(tasks).unwrap_err()
        });
        match err {
            SimError::TaskPanicked { task, message } => {
                assert_eq!(task, 3, "workers={workers}");
                assert!(message.contains("poisoned task 3"), "workers={workers}");
            }
            other => panic!("workers={workers}: expected TaskPanicked, got {other:?}"),
        }
        // The pool survives a poisoned batch: the same handle keeps
        // serving work afterwards.
        let sum: u64 = recnmp_exec::with_pool(&pool, || {
            recnmp_exec::current()
                .run_vec((0..4u64).map(|i| move || Ok(i * i)).collect::<Vec<_>>())
                .unwrap()
                .into_iter()
                .sum()
        });
        assert_eq!(sum, 14);
    }
}
