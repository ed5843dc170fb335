//! Trajectory goldens for the **default** search configuration:
//! pseudo-cost branching with reliability probes (the search's one
//! rule) plus lazily-separated cycle-sum cuts (`CoreOptions::cuts`).
//!
//! The `search_orders` suite pins trajectories without cuts; this file
//! pins the ones with cuts:
//!
//! * **Node-count goldens** on two fixed-seed instances (the 20-edge
//!   bench graph and the s27 ISCAS profile) — serial search under a
//!   node cap with no wall clock, so the counts are deterministic.
//! * **Search-strength gates** — the search must *complete* (prove the
//!   optimum within gap) under budgets the retired most-fractional rule
//!   exhausted, on the 40-edge cap-1000 instance and on s27.
//! * **Dual-bound regression** — the reported `dual_bound` and the
//!   `gap_tol` test use the global open-node minimum (a valid bound),
//!   not the root LP bound.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::NodeOrder;
use rr_rrg::iscas::IscasProfile;

/// `fast()` core options (2% gap) with cycle-sum cuts, node cap only,
/// serial.
fn opts(max_nodes: usize) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.gap_tol = 0.02;
    opts
}

/// 20-edge bench instance, MAX_THR: the search with cuts proves the
/// optimum in 37 nodes, where the retired most-fractional rule
/// exhausted a 4000-node budget.
#[test]
fn bench20_pseudo_cost_golden() {
    let g = bench_instance(20);
    let out = formulation::max_thr(&g, g.max_delay(), &opts(4000)).unwrap();
    assert!(out.proven_optimal, "pseudo-cost run must complete");
    assert!(!out.stats.truncated);
    // Same optimum as the cut-free golden in `search_orders.rs`.
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

/// s27, MAX_THR: the retired most-fractional DFS parked on a ξ = 4.0
/// incumbent here and burned any node budget; the search with cuts
/// proves ξ = 3.0 in 59 nodes.
#[test]
fn s27_pseudo_cost_escapes_the_most_fractional_plateau() {
    let g = IscasProfile::by_name("s27").unwrap().generate(2009);
    let pc = formulation::max_thr(&g, g.max_delay(), &opts(2000)).unwrap();
    assert!(pc.proven_optimal);
    assert!((pc.objective - 3.0).abs() < 1e-6, "obj {}", pc.objective);
    assert_eq!(pc.stats.nodes, 59, "node-count golden drifted");
    assert!(pc.stats.cuts_activated > 0, "no cycle-sum cut ever fired");
}

/// 40-edge bench instance under the cap-1000 budget of the acceptance
/// sweep (which the retired most-fractional rule exhausted): the search
/// with cuts completes.
#[test]
fn bench40_pseudo_cost_completes_under_the_cap_1000_budget() {
    let g = bench_instance(40);
    let pc = formulation::max_thr(&g, g.max_delay(), &opts(1000)).unwrap();
    assert!(pc.proven_optimal);
    assert!(!pc.stats.truncated);
    assert!((pc.objective - 3.0).abs() < 1e-6, "obj {}", pc.objective);
    assert!(pc.stats.nodes < 1000);
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
    let mut o = opts(68);
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

/// `gap_tol` regression: the gap test measures against the global dual
/// bound, so a 20% tolerance stops the bench20 search early — and the
/// reported `dual_bound` actually backs the claimed gap. (Against the historical root-LP rule the apparent
/// gap never closed and `gap_tol` was dead weight.)
#[test]
fn gap_tolerance_fires_on_the_true_gap_under_pseudo_cost() {
    let g = bench_instance(20);
    let mut o = opts(4000);
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
