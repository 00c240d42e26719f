//! The fingerprint of every workload's simulated outputs is identical at
//! pool workers 1 and 2, across reruns, and with tracing on, and every
//! output check passes (smoke size, so the suite stays quick).

use recnmp_exec::{with_pool, ExecPool};
use recnmp_perfbench::workloads::{Size, NAMES};
use recnmp_perfbench::{one_pass, Fingerprint};

fn fingerprint(workload: &str, workers: usize, tracing: bool) -> Fingerprint {
    let pool = ExecPool::new(workers).expect("positive worker count");
    let res = with_pool(&pool, || one_pass(workload, 7, Size::Smoke, tracing))
        .unwrap_or_else(|(_, e)| panic!("{workload} pass failed: {e}"));
    let (attempted, failed) = res.rec.checks();
    assert!(attempted > 0, "{workload}: no operation was checked");
    assert_eq!(failed, 0, "{workload}: {:?}", res.rec.failures());
    Fingerprint::of(&res.out)
}

#[test]
fn fingerprints_are_identical_across_workers_reruns_and_tracing() {
    for workload in NAMES {
        let one = fingerprint(workload, 1, false);
        assert_eq!(
            one,
            fingerprint(workload, 2, false),
            "{workload}: workers 1 vs 2"
        );
        assert_eq!(one, fingerprint(workload, 2, false), "{workload}: rerun");
        assert_eq!(one, fingerprint(workload, 2, true), "{workload}: traced");
        assert_eq!(
            one,
            fingerprint(workload, 1, true),
            "{workload}: traced, 1 worker"
        );
    }
}

#[test]
fn seeds_change_the_fingerprint() {
    let pool = ExecPool::new(1).expect("one worker");
    let of = |seed| {
        let res = with_pool(&pool, || one_pass("sls-batch", seed, Size::Smoke, false))
            .unwrap_or_else(|(_, e)| panic!("sls-batch pass failed: {e}"));
        Fingerprint::of(&res.out)
    };
    assert_ne!(of(1), of(2));
}
