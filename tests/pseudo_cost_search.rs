//! Trajectory goldens for the **default** search configuration:
//! pseudo-cost branching with reliability probes plus lazily-separated
//! cycle-sum cuts (`Branching::PseudoCost`, `CoreOptions::cuts`).
//!
//! The `search_orders` suite pins the historical most-fractional
//! trajectories; this file pins the pseudo-cost ones, using the same
//! solver options as the `milp_scaling::branching_comparison` bench arm
//! so the node counts recorded in `BENCH_milp.json` and the goldens
//! here are the same numbers:
//!
//! * **Node-count goldens** on two fixed-seed instances (the 20-edge
//!   bench graph and the s27 ISCAS profile) — serial search under a
//!   node cap with no wall clock, so the counts are deterministic.
//! * **Search-strength gates** — pseudo-cost + cuts must *complete*
//!   (prove the optimum within gap) under budgets where most-fractional
//!   truncates, on the 40-edge cap-1000 instance and on s27.
//! * **Dual-bound regression** — under pseudo-cost branching the
//!   reported `dual_bound` and the `gap_tol` test use the global
//!   open-node minimum (a valid bound), not the root LP bound.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{Branching, FactorKind, NodeOrder};
use rr_rrg::iscas::IscasProfile;

/// The `branching_comparison` bench-arm options, verbatim: `fast()`
/// core options (2% gap), node cap only, sparse factors, serial.
fn opts(branching: Branching, cuts: bool, max_nodes: usize) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.factor = FactorKind::Sparse;
    opts.solver.gap_tol = 0.02;
    opts.solver.branching = branching;
    opts.cuts = cuts;
    opts
}

/// 20-edge bench instance, MAX_THR: the pseudo-cost + cuts default
/// proves the most-fractional golden objective in 37 nodes where
/// most-fractional exhausts a 4000-node budget.
#[test]
fn bench20_pseudo_cost_golden() {
    let g = bench_instance(20);
    let out =
        formulation::max_thr(&g, g.max_delay(), &opts(Branching::PseudoCost, true, 4000)).unwrap();
    assert!(out.proven_optimal, "pseudo-cost run must complete");
    assert!(!out.stats.truncated);
    // Same optimum as the pinned most-fractional golden in
    // `search_orders.rs`.
    assert!(
        (out.objective - 6.4975018185460085).abs() < 1e-6,
        "obj {}",
        out.objective
    );
    assert_eq!(out.stats.nodes, 37, "node-count golden drifted");
    assert_eq!(out.stats.simplex_iters, 818, "pivot golden drifted");
    assert_eq!(out.stats.cuts_added, 5);
    assert_eq!(out.stats.cuts_activated, 5);
    assert!(
        out.stats.strong_branches > 0,
        "reliability probes never ran"
    );
    assert!(out.stats.pseudo_updates > 0, "pseudo-costs never learned");
    // Completed search: the reported dual bound meets the incumbent.
    assert!(
        (out.stats.dual_bound - out.objective).abs() < 1e-9,
        "dual bound {} vs objective {}",
        out.stats.dual_bound,
        out.objective
    );
}

/// s27, MAX_THR: most-fractional DFS parks on a ξ = 4.0 incumbent and
/// burns any node budget we give it; pseudo-cost + cuts proves ξ = 3.0
/// in 59 nodes.
#[test]
fn s27_pseudo_cost_escapes_the_most_fractional_plateau() {
    let g = IscasProfile::by_name("s27").unwrap().generate(2009);
    let pc =
        formulation::max_thr(&g, g.max_delay(), &opts(Branching::PseudoCost, true, 2000)).unwrap();
    assert!(pc.proven_optimal);
    assert!((pc.objective - 3.0).abs() < 1e-6, "obj {}", pc.objective);
    assert_eq!(pc.stats.nodes, 59, "node-count golden drifted");
    assert!(pc.stats.cuts_activated > 0, "no cycle-sum cut ever fired");

    let mf = formulation::max_thr(
        &g,
        g.max_delay(),
        &opts(Branching::MostFractional, false, 2000),
    )
    .unwrap();
    assert!(
        mf.stats.truncated,
        "most-fractional now completes; retire this gate"
    );
    assert!(pc.stats.nodes < mf.stats.nodes);
    assert!(pc.objective <= mf.objective + 1e-7);
}

/// 40-edge bench instance under the cap-1000 budget of the acceptance
/// sweep: pseudo-cost + cuts completes, most-fractional truncates.
#[test]
fn bench40_pseudo_cost_completes_under_the_cap_1000_budget() {
    let g = bench_instance(40);
    let pc =
        formulation::max_thr(&g, g.max_delay(), &opts(Branching::PseudoCost, true, 1000)).unwrap();
    assert!(pc.proven_optimal);
    assert!(!pc.stats.truncated);
    assert!((pc.objective - 3.0).abs() < 1e-6, "obj {}", pc.objective);
    assert!(pc.stats.nodes < 1000);

    let mf = formulation::max_thr(
        &g,
        g.max_delay(),
        &opts(Branching::MostFractional, false, 1000),
    )
    .unwrap();
    assert!(mf.stats.truncated);
    assert_eq!(mf.stats.nodes, 1000);
    assert!(pc.stats.nodes < mf.stats.nodes);
    assert!(pc.objective <= mf.objective + 1e-7);
}

/// Dual-bound regression (the PR's headline bugfix): a *truncated*
/// pseudo-cost best-bound run reports the global open-node minimum —
/// a bound that is (a) at least the root LP bound, (b) never above the
/// true optimum, and (c) strictly tighter than the root bound once the
/// best-bound frontier has climbed.
#[test]
fn truncated_pseudo_cost_reports_a_valid_global_dual_bound() {
    let g = bench_instance(40);
    // Cap 68: the ratio-test tie-anchor fix shortened this search to 69
    // nodes, so the historical cap of 150 no longer truncates it — and the
    // best-bound frontier only climbs past the root on the last few nodes.
    let mut o = opts(Branching::PseudoCost, true, 68);
    o.solver.node_order = NodeOrder::BestBound;
    o.solver.gap_tol = 1e-9;
    let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
    assert!(
        out.stats.truncated,
        "completed in {} nodes",
        out.stats.nodes
    );
    let root = out.stats.root_bound;
    let dual = out.stats.dual_bound;
    assert!(dual.is_finite());
    assert!(dual >= root - 1e-9, "dual {dual} below root {root}");
    // The true optimum is ξ = 3.0 (proven by the completed runs above);
    // a *valid* lower bound can never overshoot it.
    assert!(dual <= 3.0 + 1e-6, "dual {dual} overshoots the optimum");
    assert!(
        dual > root + 1e-3,
        "best-bound frontier never tightened past the root LP ({root})"
    );
}

/// `gap_tol` regression: under pseudo-cost branching the gap test
/// measures against the global dual bound, so a 20% tolerance stops the
/// bench20 search early — and the reported `dual_bound` actually backs
/// the claimed gap. (Against the historical root-LP rule the apparent
/// gap never closed and `gap_tol` was dead weight.)
#[test]
fn gap_tolerance_fires_on_the_true_gap_under_pseudo_cost() {
    let g = bench_instance(20);
    let mut o = opts(Branching::PseudoCost, true, 4000);
    o.solver.gap_tol = 0.2;
    let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
    assert!(
        out.proven_optimal,
        "within-gap termination counts as proven"
    );
    assert!(!out.stats.truncated);
    assert!(
        out.stats.nodes <= 37,
        "gap termination expanded more nodes than the gap-free run"
    );
    // The claim is backed by the reported bound, which stays valid.
    assert!(
        out.objective - out.stats.dual_bound <= 0.2 * out.objective.abs().max(1.0) + 1e-9,
        "gap claim not supported: obj {} dual {}",
        out.objective,
        out.stats.dual_bound
    );
    assert!(out.stats.dual_bound <= 6.4975018185460085 + 1e-6);
}
