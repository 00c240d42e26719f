//! Fleet-level determinism and dispatch invariants:
//!
//! * fleet serving output is byte-identical across execution-pool worker
//!   counts {1, 2, 8} and across reruns at a fixed count;
//! * scattered queries conserve lookups across nodes for every router;
//! * a 1-node fleet is numerically the bare 4-channel cluster, under
//!   every router;
//! * (property) the router's node pick always lands on a node whose
//!   channel-level plan owns the table, for every table, salt, policy
//!   and geometry.

use proptest::prelude::*;
use recnmp_backend::{FleetPlacementPlan, PlacementPolicy, SlsTrace, TableUsage};
use recnmp_exec::{with_pool, ExecPool};
use recnmp_sim::serving::fleet::{
    serve_fleet, Fleet, FleetConfig, FleetDispatch, FleetReport, RouterPolicy,
};
use recnmp_sim::serving::{
    reference_cluster4, serve, ArrivalProcess, QueryShape, QueryStream, ServingConfig, ServingMode,
    ShardedDispatch,
};
use recnmp_types::TableId;

fn shape() -> QueryShape {
    QueryShape::new(10, 2, 6)
        .with_table_skew(1.1)
        .with_table_sampling(3)
}

fn cfg(nodes: usize, queries: usize, dispatch: FleetDispatch) -> FleetConfig {
    FleetConfig {
        process: ArrivalProcess::Poisson,
        qps: 30_000.0 * nodes as f64,
        queries,
        shape: shape(),
        dispatch,
        seed: 0xd5_7e57,
    }
}

fn run_with_workers(workers: usize, nodes: usize, dispatch: FleetDispatch) -> FleetReport {
    let pool = ExecPool::new(workers).expect("positive worker count");
    with_pool(&pool, || {
        let mut fleet = Fleet::reference(nodes);
        serve_fleet(&mut fleet, &cfg(nodes, 24, dispatch)).expect("fleet serving run")
    })
}

#[test]
fn fleet_output_is_byte_identical_across_worker_counts() {
    for dispatch in [FleetDispatch::replicated(2), FleetDispatch::sharded()] {
        let one = run_with_workers(1, 3, dispatch);
        for workers in [2, 8] {
            let other = run_with_workers(workers, 3, dispatch);
            assert_eq!(
                one,
                other,
                "{}: workers=1 vs workers={workers} diverged",
                dispatch.label()
            );
        }
        // Rerun at a fixed count: the pool must not leak state between
        // runs.
        assert_eq!(one, run_with_workers(1, 3, dispatch), "rerun diverged");
    }
}

#[test]
fn fleet_serving_conserves_lookups_across_nodes() {
    for router in RouterPolicy::ALL {
        let dispatch = FleetDispatch {
            router,
            ..FleetDispatch::replicated(2)
        };
        let c = cfg(4, 20, dispatch);
        let mut fleet = Fleet::reference(4);
        let report = serve_fleet(&mut fleet, &c).expect("fleet serving run");
        let expected: u64 = QueryStream::new(c.shape, c.seed)
            .take_queries(c.queries)
            .iter()
            .map(SlsTrace::total_lookups)
            .sum();
        assert_eq!(
            report.report.insts,
            expected,
            "router {} lost or duplicated lookups",
            router.name()
        );
        // Every query is counted on at least one node, and a query
        // scattered over k nodes on each of them.
        let node_visits: u64 = report.node_queries.iter().sum();
        assert!(node_visits >= c.queries as u64);
        assert_eq!(report.latencies.len(), c.queries);
    }
}

#[test]
fn one_node_fleet_is_numerically_the_bare_cluster() {
    let dispatch = FleetDispatch::sharded();
    let base_cfg = cfg(1, 30, dispatch);
    let mut cluster = reference_cluster4();
    let cluster_cfg = ServingConfig {
        process: base_cfg.process,
        qps: base_cfg.qps,
        queries: base_cfg.queries,
        shape: base_cfg.shape,
        mode: ServingMode::Sharded(ShardedDispatch {
            placement: dispatch.within_policy,
            gather: dispatch.gather,
            channel_capacity: dispatch.channel_capacity,
            host_cache: None,
            prefetch: None,
        }),
        coalescing: None,
        max_queue_depth: None,
        seed: base_cfg.seed,
    };
    let cluster_report = serve(cluster.as_mut(), &cluster_cfg).expect("cluster serving run");

    // With one node every router has a single replica to pick, so each
    // must reduce to the bare cluster's sharded scatter.
    for router in RouterPolicy::ALL {
        let fleet_cfg = FleetConfig {
            dispatch: FleetDispatch { router, ..dispatch },
            ..base_cfg
        };
        let mut fleet = Fleet::reference(1);
        let fleet_report = serve_fleet(&mut fleet, &fleet_cfg).expect("fleet serving run");
        let name = router.name();
        assert_eq!(fleet_report.arrivals, cluster_report.arrivals, "{name}");
        assert_eq!(
            fleet_report.completions, cluster_report.completions,
            "{name}"
        );
        assert_eq!(fleet_report.latencies, cluster_report.latencies, "{name}");
        assert_eq!(
            fleet_report.report.insts, cluster_report.report.insts,
            "{name}"
        );
        assert_eq!(
            fleet_report.report.total_cycles, cluster_report.report.total_cycles,
            "{name}"
        );
    }
}

/// A random profiled-table set: table `i` with the given bytes/accesses.
fn usage_strategy() -> impl Strategy<Value = Vec<TableUsage>> {
    prop::collection::vec((1u64..100, 0u64..500), 1..16).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (bytes, accesses))| TableUsage::new(TableId::new(i as u32), bytes, accesses))
            .collect()
    })
}

fn node_policy_strategy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::Hash),
        Just(PlacementPolicy::CapacityGreedy),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 0 }),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 2 }),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 5 }),
    ]
}

/// One random routing scenario: a table profile, a fleet geometry
/// (nodes, channels per node), both placement policies and a dispatch
/// salt. Grouped as two nested tuples — the vendored proptest implements
/// `Strategy` for tuples of at most five elements, and the flat
/// six-parameter `proptest!` form blows the macro recursion limit.
type RouterCase = (
    (Vec<TableUsage>, usize, usize),
    (PlacementPolicy, PlacementPolicy, usize),
);

fn router_case_strategy() -> impl Strategy<Value = RouterCase> {
    (
        (usage_strategy(), 1usize..6, 1usize..5),
        (node_policy_strategy(), node_policy_strategy(), 0usize..64),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The router invariant the dispatch loop relies on: for any table
    // the plan places and any dispatch salt, the node-level pick is one
    // of the table's node replicas, and that node's channel-level plan
    // actually owns the table.
    #[test]
    fn router_dispatch_lands_on_a_node_owning_the_table(case in router_case_strategy()) {
        let ((usages, nodes, channels), (node_policy, within_policy, salt)) = case;
        let plan = FleetPlacementPlan::build(
            nodes, channels, None, &usages, node_policy, within_policy,
        ).expect("uncapped build never fails");
        for u in &usages {
            let picked = plan.node_for(u.table, salt).expect("placed table");
            let n = picked.index();
            prop_assert!(
                plan.node_replicas(u.table).contains(&n),
                "table {:?} routed to node {n}, replicas {:?}",
                u.table, plan.node_replicas(u.table)
            );
            prop_assert!(
                !plan.per_node(n).replicas(u.table).is_empty(),
                "node {n} has no channel owning table {:?}",
                u.table
            );
        }
    }
}
