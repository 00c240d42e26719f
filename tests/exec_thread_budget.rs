//! Thread-budget check of the execution engine: a 256-channel cluster
//! runs on a fixed 2-worker pool without spawning a thread per channel.
//!
//! This file holds exactly one test. The check counts every thread of
//! the process, and the test harness starts and joins a thread per test
//! outside any lock a test could take, so a sibling test in the same
//! binary could change the count between the two samples (the same
//! reason `crates/exec/tests/alloc_steady_state.rs` stands alone).

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{SlsBackend, SlsTrace};
use recnmp_exec::ExecPool;
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, TableId};

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

/// Counts this process's OS threads via /proc (Linux is the only
/// supported CI target; elsewhere the check degrades to a no-op).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn many_channel_cluster_runs_within_the_pool_thread_budget() {
    // 256 channels, 2 workers: before the execution engine this run
    // spawned 256 scoped threads; now channel tasks queue onto the
    // fixed pool and the process-wide thread count stays flat.
    let trace = workload(256, 1, 8, 3);
    let pool = ExecPool::new(2).unwrap();
    assert_eq!(pool.spawned_threads(), 2);
    let before = os_threads();
    let report = recnmp_exec::with_pool(&pool, || {
        let mut c = cluster(256);
        c.run(&trace)
    });
    let after = os_threads();
    assert_eq!(report.insts, trace.total_lookups());
    assert_eq!(report.system, "recnmp-cluster[256]");
    assert_eq!(
        before, after,
        "running 256 channels must not spawn threads beyond the pool's"
    );
}
