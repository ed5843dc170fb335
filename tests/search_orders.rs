//! Node-ordering regression suite for the branch & bound search
//! (`rr-milp`), which runs every solve through one worker engine
//! (`workers = 1` is a single worker of it):
//!
//! * **Trajectory goldens** — `NodeOrder::DfsNearerFirst` must reproduce
//!   the exact node count, pivot count and incumbent trace of the
//!   production search (pseudo-cost branching, cycle-sum cuts off) on
//!   two fixed-seed instances. The test names date from the node-loop
//!   refactor these goldens first guarded; the values were re-pinned
//!   when most-fractional branching was retired.
//! * **Plateau escape** — on the 40-edge `MAX_THR` bench instance
//!   most-fractional DFS used to plateau at incumbent 4.0; both orders
//!   must prove 3.0 within the same cap.
//! * **Agreement** — both orderings prove identical optima on every
//!   Table-1-style instance they can run to completion.
//!
//! Everything here is deterministic: fixed seeds, node caps instead of
//! wall-clock limits.

mod common;

use common::ring_difference_milp;
use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{solve_with_stats, NodeOrder, SolverOptions, Status};
use rr_rrg::figures;
use rr_rrg::Rrg;

/// Deterministic solver options: node caps only, no wall clock. The
/// goldens below were captured without cycle-sum cuts, so they are
/// pinned off here (the search with cuts has its own goldens in
/// `pseudo_cost_search.rs`).
fn capped(order: NodeOrder, max_nodes: usize) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.node_order = order;
    opts.cuts = false;
    opts
}

/// Golden regression, instance 1: the exact search trajectory of the
/// default options on the ring MILP (captured on the commit before
/// most-fractional branching was removed).
#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_ring_milp() {
    let m = ring_difference_milp(12, 6);
    let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - 50.0).abs() < 1e-12,
        "obj {}",
        sol.objective
    );
    assert_eq!(stats.nodes, 187, "node count drifted from the golden");
    assert_eq!(
        stats.simplex_iters, 744,
        "pivot count drifted from the golden"
    );
    assert_eq!(stats.warm_solves, 186);
    assert_eq!(stats.cold_solves, 1);
    assert!(!stats.truncated);
    // Incumbent trace: exactly one incumbent, at node 50, objective 50.
    assert_eq!(stats.incumbents, 1);
    assert_eq!(stats.first_incumbent_node, 50);
    assert_eq!(stats.incumbent_trace.len(), 1);
    let (node, obj) = stats.incumbent_trace[0];
    assert_eq!(node, 50);
    assert!((obj - 50.0).abs() < 1e-12);
}

/// Golden regression, instance 2: the 20-edge `MAX_THR` bench instance
/// at `CoreOptions::fast()` sans wall clock and cuts (node cap 2000) —
/// a hint-seeded search that proves the hint optimal in 37 nodes
/// (captured as in instance 1).
#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_bench20_max_thr() {
    let g = bench_instance(20);
    let opts = capped(NodeOrder::DfsNearerFirst, 2000);
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert_eq!(
        out.objective.to_bits(),
        4619001555119598635,
        "obj {}",
        out.objective
    );
    assert_eq!(out.stats.nodes, 37, "node count drifted from the golden");
    assert_eq!(
        out.stats.simplex_iters, 956,
        "pivot count drifted from the golden"
    );
    assert_eq!(out.stats.warm_solves, 36);
    assert_eq!(out.stats.cold_solves, 1);
    assert!(!out.stats.truncated);
    assert!(out.proven_optimal);
    // Single incumbent, seeded by the warm-start hint before any node.
    assert_eq!(out.stats.incumbents, 1);
    assert_eq!(out.stats.first_incumbent_node, 0);
    assert_eq!(
        out.stats.incumbent_trace,
        vec![(0, f64::from_bits(4619001555119598635))]
    );
}

/// The former ROADMAP motivating case: on the 40-edge `MAX_THR` bench
/// instance truncated most-fractional DFS plateaued at incumbent 4.0 at
/// node caps from 200 to 4000, while best-bound search found 3.0. Under
/// pseudo-cost branching the plateau is gone: both orders prove 3.0
/// well inside the cap, DFS in 27 nodes.
#[test]
fn best_bound_escapes_the_dfs_plateau_on_the_40_edge_bench() {
    let g = bench_instance(40);
    let cap = 1000;
    for order in [NodeOrder::DfsNearerFirst, NodeOrder::BestBound] {
        let out = formulation::max_thr(&g, g.max_delay(), &capped(order, cap)).unwrap();
        assert!(out.proven_optimal, "{order:?} did not prove the optimum");
        assert!(
            (out.objective - 3.0).abs() < 1e-6,
            "{order:?}: objective {} (golden 3.0)",
            out.objective
        );
        if order == NodeOrder::DfsNearerFirst {
            assert_eq!(out.stats.nodes, 27, "DFS node count drifted");
        }
    }
}

/// Both orderings prove identical optima (within 1e-7) on every Table-1
/// instance they can run to completion: the paper-figure circuits
/// (`MAX_THR` at the min-delay cycle time and `MIN_CYC(1)`) and the
/// bench-family instances (`MIN_CYC(1)`; the 40-edge `MAX_THR` has its
/// own test above).
#[test]
fn orderings_prove_identical_optima_on_table1_instances() {
    let figures: Vec<(&str, Rrg)> = vec![
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1a(0.9)", figures::figure_1a(0.9)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ];
    let opts_for = |order: NodeOrder| {
        let mut o = capped(order, 20_000);
        o.solver.gap_tol = 1e-9;
        o
    };
    for (name, g) in &figures {
        for problem in ["max_thr", "min_cyc"] {
            let solve = |order: NodeOrder| match problem {
                "max_thr" => formulation::max_thr(g, g.max_delay(), &opts_for(order)),
                _ => formulation::min_cyc(g, 1.0, &opts_for(order)),
            };
            let dfs = solve(NodeOrder::DfsNearerFirst)
                .unwrap_or_else(|e| panic!("{name}/{problem} DFS failed: {e}"));
            let bb = solve(NodeOrder::BestBound)
                .unwrap_or_else(|e| panic!("{name}/{problem} best-bound failed: {e}"));
            assert!(
                dfs.proven_optimal,
                "{name}/{problem}: DFS did not prove optimality"
            );
            assert!(
                bb.proven_optimal,
                "{name}/{problem}: best-bound did not prove optimality"
            );
            assert!(
                (dfs.objective - bb.objective).abs() < 1e-7,
                "{name}/{problem}: DFS {} vs best-bound {}",
                dfs.objective,
                bb.objective
            );
        }
    }
    for edges in [20usize, 40] {
        let g = bench_instance(edges);
        let dfs = formulation::min_cyc(&g, 1.0, &opts_for(NodeOrder::DfsNearerFirst))
            .unwrap_or_else(|e| panic!("bench{edges} DFS failed: {e}"));
        let bb = formulation::min_cyc(&g, 1.0, &opts_for(NodeOrder::BestBound))
            .unwrap_or_else(|e| panic!("bench{edges} best-bound failed: {e}"));
        assert!(
            dfs.proven_optimal,
            "bench{edges}: DFS did not prove optimality"
        );
        assert!(
            bb.proven_optimal,
            "bench{edges}: best-bound did not prove optimality"
        );
        assert!(
            (dfs.objective - bb.objective).abs() < 1e-7,
            "bench{edges}: DFS {} vs best-bound {}",
            dfs.objective,
            bb.objective
        );
    }
}

/// A node-cap-truncated `MAX_THR` must be explicitly distinguishable
/// from a proven optimum across the whole rr-core report path:
/// `proven_optimal`, the new `truncated` flag, and the Table-1 row
/// provenance marker.
#[test]
fn truncated_solves_surface_feasible_verdicts_in_reports() {
    let g = bench_instance(20);
    // The search proves this optimum in 37 nodes; a 10-node cap stops
    // it with only the hint incumbent.
    let out =
        formulation::max_thr(&g, g.max_delay(), &capped(NodeOrder::DfsNearerFirst, 10)).unwrap();
    assert!(
        !out.proven_optimal,
        "a 10-node cap cannot prove this optimum"
    );
    assert!(out.truncated(), "OptOutcome must surface the truncation");
    assert!(out.stats.truncated);

    // A completed solve reports the opposite on every surface.
    let done = formulation::min_cyc(&g, 1.0, &{
        let mut o = capped(NodeOrder::BestBound, 20_000);
        o.solver.gap_tol = 1e-9;
        o
    })
    .unwrap();
    assert!(done.proven_optimal);
    assert!(!done.truncated());
}
