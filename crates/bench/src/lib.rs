//! Benchmark and reproduction harness for the RecNMP workspace.
//!
//! * `cargo run -p recnmp-bench --release --bin repro -- all` regenerates
//!   every table and figure of the paper (see the README figure map;
//!   `golden_check` compares them against `goldens/`).
//! * `cargo bench -p recnmp-bench` runs the Criterion benchmarks — one
//!   target per paper artifact, each timing the simulation kernel that
//!   regenerates it.
//! * `cargo run -p recnmp-bench --release --bin sim_throughput` measures
//!   simulator throughput (simulated lookups per wall-clock second) for
//!   every backend plus the threaded 4-channel cluster, and emits
//!   `BENCH_throughput.json` — the perf trajectory successive PRs defend
//!   (`--smoke` for the CI-sized workload).

pub use recnmp_sim::experiments::{run, run_all, ExperimentResult, Scale, IDS};
