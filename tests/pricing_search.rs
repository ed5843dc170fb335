//! Pricing regression suite for the revised simplex kernel, which
//! prices by Dantzig's rule with an automatic Bland fallback:
//!
//! * **Degeneracy** — the Bland anti-cycling fallback engages: a
//!   massively degenerate model must terminate at its true optimum.
//! * **Counter ledger** — the directional pivot counters tie out:
//!   `dual_pivots + primal_pivots + bound_flips = simplex_iters` on
//!   warm runs, and a warm search actually takes dual pivots.
//!
//! Everything here is deterministic: fixed seeds, node caps instead of
//! wall-clock limits.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, Branching, FactorKind, LinExpr, Model, NodeOrder, Sense, SolverOptions,
    Status,
};

/// Deterministic solver options: node caps only, no wall clock.
fn capped(order: NodeOrder, max_nodes: usize, workers: usize) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.node_order = order;
    opts.solver.factor = FactorKind::Sparse;
    opts.solver.gap_tol = 1e-9;
    opts.solver.workers = workers;
    opts.solver.branching = Branching::MostFractional;
    opts.cuts = false;
    opts
}

/// A massively degenerate model — many redundant facets through the
/// same vertex — terminates at its optimum: the degenerate-run Bland
/// fallback breaks any cycle Dantzig's rule could enter.
#[test]
fn bland_fallback_terminates_on_a_degenerate_model() {
    let mut m = Model::new(Sense::Maximize);
    let n = 8;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_integer(format!("x{i}"), 0.0, 1.0))
        .collect();
    let mut obj = LinExpr::new();
    for &v in &vars {
        obj += 1.0 * v;
    }
    m.set_objective(obj);
    // Every pair constraint passes through the all-half vertex; any
    // subset of k of them is tight there, so node LPs are heavily
    // degenerate.
    for i in 0..n {
        for j in (i + 1)..n {
            m.add_constraint(vars[i] + vars[j], cmp::LE, 1.0);
        }
    }
    let opts = SolverOptions {
        max_nodes: 20_000,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(!stats.truncated);
    // At most one variable can be 1 (pairwise caps): optimum 1.
    assert!((sol.objective - 1.0).abs() < 1e-7, "obj {}", sol.objective);
}

/// Directional pivot counters tie out against the kernel's total
/// iteration count on serial warm runs, and a warm search actually
/// exercises the dual reoptimizer.
#[test]
fn pivot_counters_tie_out_on_serial_warm_runs() {
    let g = bench_instance(20);
    let o = capped(NodeOrder::DfsNearerFirst, 2000, 1);
    let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
    let s = &out.stats;
    assert_eq!(
        s.dual_pivots + s.primal_pivots + s.bound_flips,
        s.simplex_iters,
        "counter ledger does not tie out"
    );
    assert!(s.primal_pivots > 0, "no primal pivots counted");
    assert!(s.dual_pivots > 0, "warm search never took a dual pivot");
}

/// The ledger also ties out through the parallel merge layer (every
/// worker's kernel is absorbed additively).
#[test]
fn pivot_counters_tie_out_across_workers() {
    let g = bench_instance(20);
    let o = capped(NodeOrder::BestBound, 2000, 2);
    let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
    let s = &out.stats;
    assert_eq!(
        s.dual_pivots + s.primal_pivots + s.bound_flips,
        s.simplex_iters,
        "parallel merge lost pivot counters"
    );
}
