//! Node-ordering regression suite for the branch & bound search
//! (`rr-milp`), which runs every solve through one worker engine
//! (`workers = 1` is a single worker of it):
//!
//! * **Bit-compatibility** — `NodeOrder::DfsNearerFirst` must reproduce
//!   the exact node count, pivot count and incumbent trace of the
//!   historical recursive `WarmSearch` on two fixed-seed instances
//!   (golden values captured before the first search refactor landed,
//!   and replayed unchanged by every search loop since).
//! * **Plateau escape** — on the 40-edge `MAX_THR` bench instance (the
//!   ROADMAP motivating case) truncated DFS plateaus at incumbent 4.0
//!   under small node caps; `BestBound` must find 3.0 within the same
//!   cap.
//! * **Agreement** — both orderings prove identical optima on every
//!   Table-1-style instance they can run to completion.
//!
//! Everything here is deterministic: fixed seeds, node caps instead of
//! wall-clock limits.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, Branching, FactorKind, LinExpr, Model, NodeOrder, Pricing, Sense,
    SolverOptions, Status, UpdateKind,
};
use rr_rrg::figures;
use rr_rrg::Rrg;

/// Deterministic solver options: node caps only, no wall clock. The
/// goldens below were captured under most-fractional branching without
/// cycle-sum cuts, so both are pinned off here (the pseudo-cost default
/// has its own goldens in `pseudo_cost_search.rs`).
fn capped(order: NodeOrder, max_nodes: usize, factor: FactorKind) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.node_order = order;
    opts.solver.factor = factor;
    opts.solver.branching = Branching::MostFractional;
    opts.solver.pricing = Pricing::Dantzig;
    opts.cuts = false;
    opts
}

/// The ring-difference golden instance: difference constraints over a
/// ring plus coupling knapsack rows (same shape the solver stress suite
/// uses). Deliberately defined *here*, not imported: the goldens below
/// pin the search trajectory of exactly this model, so its definition
/// must stay frozen with them.
fn ring_difference_milp(n: usize, rows: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_integer(format!("x{i}"), 0.0, 6.0))
        .collect();
    let mut obj = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        obj += ((i % 4 + 1) as f64) * v;
    }
    m.set_objective(obj);
    for i in 0..n {
        let j = (i + 1) % n;
        m.add_constraint(vars[i] - vars[j], cmp::LE, ((i % 3) as f64) - 0.5);
    }
    for r in 0..rows {
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            row += (((i + r) % 5 + 1) as f64) * v;
        }
        m.add_constraint(row, cmp::GE, 2.5 * n as f64 + r as f64);
    }
    m
}

/// Golden regression of the refactor itself, instance 1: the exact
/// search trajectory of the pre-refactor `WarmSearch` on the ring MILP
/// (captured at commit 6387b77, default options of that era — which
/// means the **product-form** eta update, pinned explicitly now that
/// Forrest–Tomlin is the default; the FT path is covered by its own
/// A/B agreement suites).
#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_ring_milp() {
    let m = ring_difference_milp(12, 6);
    let opts = SolverOptions {
        update: UpdateKind::ProductForm,
        branching: Branching::MostFractional,
        pricing: Pricing::Dantzig,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - 50.0).abs() < 1e-12,
        "obj {}",
        sol.objective
    );
    assert_eq!(
        stats.nodes, 79,
        "node count drifted from pre-refactor golden"
    );
    assert_eq!(
        stats.simplex_iters, 135,
        "pivot count drifted from pre-refactor golden"
    );
    assert_eq!(stats.warm_solves, 78);
    assert_eq!(stats.cold_solves, 1);
    assert!(!stats.truncated);
    // Incumbent trace: exactly one incumbent, at node 64, objective 50.
    assert_eq!(stats.incumbents, 1);
    assert_eq!(stats.first_incumbent_node, 64);
    assert_eq!(stats.incumbent_trace.len(), 1);
    let (node, obj) = stats.incumbent_trace[0];
    assert_eq!(node, 64);
    assert!((obj - 50.0).abs() < 1e-12);
}

/// Golden regression, instance 2: the 20-edge `MAX_THR` bench instance
/// at `CoreOptions::fast()` sans wall clock (node cap 2000) — a
/// hint-seeded, budget-truncated search (captured at commit 6387b77,
/// product-form update pinned as in instance 1).
#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_bench20_max_thr() {
    let g = bench_instance(20);
    let mut opts = capped(NodeOrder::DfsNearerFirst, 2000, FactorKind::Sparse);
    opts.solver.update = UpdateKind::ProductForm;
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(
        (out.objective - 6.497_501_818_546_008_5).abs() < 1e-12,
        "obj {}",
        out.objective
    );
    assert_eq!(
        out.stats.nodes, 2000,
        "node count drifted from pre-refactor golden"
    );
    assert_eq!(
        out.stats.simplex_iters, 5969,
        "pivot count drifted from pre-refactor golden"
    );
    assert_eq!(out.stats.warm_solves, 1999);
    assert_eq!(out.stats.cold_solves, 1);
    assert!(out.stats.truncated);
    assert!(!out.proven_optimal);
    // Single incumbent, seeded by the warm-start hint before any node.
    assert_eq!(out.stats.incumbents, 1);
    assert_eq!(out.stats.first_incumbent_node, 0);
    assert_eq!(out.stats.incumbent_trace.len(), 1);
    let (node, obj) = out.stats.incumbent_trace[0];
    assert_eq!(node, 0);
    assert!((obj - 6.497_501_818_546_008_5).abs() < 1e-12);
}

/// The ROADMAP motivating case: on the 40-edge `MAX_THR` bench instance
/// (dense-LU configuration) truncated DFS plateaus at incumbent 4.0 at
/// node caps from 200 to 4000, while best-bound search finds 3.0 within
/// the same cap.
#[test]
fn best_bound_escapes_the_dfs_plateau_on_the_40_edge_bench() {
    let g = bench_instance(40);
    let cap = 1000;
    let dfs = formulation::max_thr(
        &g,
        g.max_delay(),
        &capped(NodeOrder::DfsNearerFirst, cap, FactorKind::Dense),
    )
    .unwrap();
    assert!(
        dfs.stats.truncated,
        "DFS unexpectedly completed; raise the cap"
    );
    assert!(
        (dfs.objective - 4.0).abs() < 1e-6,
        "DFS plateau moved: objective {} (golden 4.0)",
        dfs.objective
    );
    let bb = formulation::max_thr(
        &g,
        g.max_delay(),
        &capped(NodeOrder::BestBound, cap, FactorKind::Dense),
    )
    .unwrap();
    assert!(
        bb.objective <= 3.0 + 1e-6,
        "best-bound failed to escape the plateau: objective {} (DFS {})",
        bb.objective,
        dfs.objective
    );
    // Quantified by the new stats: best-bound's incumbent trajectory
    // reaches its best strictly below DFS's plateau value.
    let best_traced = bb
        .stats
        .incumbent_trace
        .iter()
        .map(|&(_, obj)| obj)
        .fold(f64::INFINITY, f64::min);
    assert!(best_traced <= 3.0 + 1e-6);
}

/// Both orderings prove identical optima (within 1e-7) on every Table-1
/// instance they can run to completion: the paper-figure circuits
/// (`MAX_THR` at the min-delay cycle time and `MIN_CYC(1)`) and the
/// bench-family instances (`MIN_CYC(1)`, the formulation both orderings
/// close — `MAX_THR` keeps a fractional-x plateau open at any cap).
#[test]
fn orderings_prove_identical_optima_on_table1_instances() {
    let figures: Vec<(&str, Rrg)> = vec![
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1a(0.9)", figures::figure_1a(0.9)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ];
    let opts_for = |order: NodeOrder| {
        let mut o = capped(order, 20_000, FactorKind::Sparse);
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
    let out = formulation::max_thr(
        &g,
        g.max_delay(),
        &capped(NodeOrder::DfsNearerFirst, 50, FactorKind::Sparse),
    )
    .unwrap();
    assert!(
        !out.proven_optimal,
        "a 50-node cap cannot prove this optimum"
    );
    assert!(out.truncated(), "OptOutcome must surface the truncation");
    assert!(out.stats.truncated);

    // A completed solve reports the opposite on every surface.
    let done = formulation::min_cyc(&g, 1.0, &{
        let mut o = capped(NodeOrder::BestBound, 20_000, FactorKind::Sparse);
        o.solver.gap_tol = 1e-9;
        o
    })
    .unwrap();
    assert!(done.proven_optimal);
    assert!(!done.truncated());
}
