//! Backend-unification gate (PR 10): one LP backend for every model.
//!
//! The `LegacyBackend` — a rebuild-the-model-per-node dense-tableau
//! search backend that owned mirrored and free integer variables — is
//! gone. This suite pins the three facts that deletion rests on:
//!
//! * **Goldens survive** — the two PR 4 golden instances (frozen local
//!   copies) replay bit-exact through the unified warm path: same
//!   objective, node count, pivot count, warm/cold solve split.
//! * **The legacy model class runs warm** — mirrored (upper-bound-only)
//!   and free (split-pair) integer fixtures solve through `WarmBackend`
//!   at `workers ∈ {1, 2}`, agree with the dense-tableau oracle request
//!   to ≤ 1e-7, and warm-start cleanly (`cold_solves == 1`, every
//!   subsequent node a warm dual reoptimization).
//! * **No model clones in the node loop** — source-level assertions:
//!   the `LegacyBackend` / `SNAP_LEAVES` identifiers (and those of the
//!   retired serial loop, `SearchCore` / `LpBackend` / `run_search`)
//!   survive only in prose, and `model.clone()` appears exactly once in
//!   `branch_bound.rs` (the whole-solve cross-validation pin, outside
//!   the search loop) and never in `parallel.rs`.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, Branching, FactorKind, Kernel, LinExpr, Model, NodeOrder, Sense,
    SolverOptions, Status, UpdateKind,
};

/// PR 4 golden options: most-fractional + Dantzig + product form, the
/// configuration the goldens were captured under (frozen copy of the
/// `search_orders.rs` helper — the two suites must drift independently).
fn golden_opts() -> SolverOptions {
    SolverOptions {
        update: UpdateKind::ProductForm,
        branching: Branching::MostFractional,
        ..SolverOptions::default()
    }
}

/// Frozen copy of the PR 4 ring-difference golden instance. Deliberately
/// duplicated here rather than imported: this gate pins the *unified*
/// backend's trajectory on exactly this model, so its definition must
/// stay frozen with the golden values below.
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

/// Golden replay 1: the ring MILP through the unified warm path must
/// reproduce the PR 4 trajectory exactly — deleting the legacy backend
/// may not move a single node or pivot on the boxed-integer path.
#[test]
fn ring_milp_golden_replays_bit_exact_through_the_unified_backend() {
    let m = ring_difference_milp(12, 6);
    let (sol, stats) = solve_with_stats(&m, &golden_opts()).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - 50.0).abs() < 1e-12,
        "obj {}",
        sol.objective
    );
    assert_eq!(stats.nodes, 79, "node count drifted from the PR 4 golden");
    assert_eq!(
        stats.simplex_iters, 135,
        "pivot count drifted from the PR 4 golden"
    );
    assert_eq!(stats.warm_solves, 78);
    assert_eq!(
        stats.cold_solves, 1,
        "clean runs warm-start after one cold solve"
    );
    assert!(!stats.truncated);
}

/// Golden replay 2: the 20-edge `MAX_THR` bench instance (hint-seeded,
/// budget-truncated) through the unified warm path.
#[test]
fn bench20_max_thr_golden_replays_bit_exact_through_the_unified_backend() {
    let g = bench_instance(20);
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = 2000;
    opts.solver.node_order = NodeOrder::DfsNearerFirst;
    opts.solver.factor = FactorKind::Sparse;
    opts.solver.branching = Branching::MostFractional;
    opts.solver.update = UpdateKind::ProductForm;
    opts.cuts = false;
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(
        (out.objective - 6.497_501_818_546_008_5).abs() < 1e-12,
        "obj {}",
        out.objective
    );
    assert_eq!(
        out.stats.nodes, 2000,
        "node count drifted from the PR 4 golden"
    );
    assert_eq!(
        out.stats.simplex_iters, 5969,
        "pivot count drifted from the PR 4 golden"
    );
    assert_eq!(out.stats.warm_solves, 1999);
    assert_eq!(out.stats.cold_solves, 1);
    assert!(out.stats.truncated);
}

/// A mirrored-integer fixture: `y` has no lower bound, only an upper
/// bound (standard form mirrors it), plus a shifted integer `x` coupling
/// it. Minimize `3x - 2y` s.t. `x - y >= 1.3`, `x + y <= 6.2`,
/// `x ∈ [0, 10]`, `y ∈ (-∞, 5.5]`, both integer. Optimum: x=4, y=2,
/// obj = 8.
fn mirrored_fixture() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_integer("x", 0.0, 10.0);
    let y = m.add_integer("y", f64::NEG_INFINITY, 5.5);
    m.set_objective(3.0 * x - 2.0 * y);
    m.add_constraint(x - y, cmp::GE, 1.3);
    m.add_constraint(x + y, cmp::LE, 6.2);
    m
}

/// A free-integer fixture: `z` is fully free (split-pair columns in
/// standard form) with a fractional optimum forcing branching into
/// negative territory. Minimize `z + 2w` s.t. `z + w >= -3.5`,
/// `z - w >= -9.2`, `w ∈ [0, 4]` integer, `z` free integer.
/// LP relaxation sits at z=-6.35, w=2.85; integer optimum z=-6, w=3,
/// obj = 0... (pinned against the dense oracle below rather than by
/// hand).
fn free_fixture() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let z = m.add_integer("z", f64::NEG_INFINITY, f64::INFINITY);
    let w = m.add_integer("w", 0.0, 4.0);
    m.set_objective(z + 2.0 * w);
    m.add_constraint(z + w, cmp::GE, -3.5);
    m.add_constraint(z - w, cmp::GE, -9.2);
    m
}

/// Mirrored and free integer fixtures — the deleted backend's entire
/// model class — must solve through the warm path at `workers ∈ {1, 2}`,
/// agree with the dense-tableau oracle request to ≤ 1e-7, and on serial
/// clean runs take exactly one cold solve with every remaining node a
/// warm dual reoptimization.
#[test]
fn legacy_model_class_runs_warm_parallel_and_oracle_checked() {
    for (name, m) in [("mirrored", mirrored_fixture()), ("free", free_fixture())] {
        let dense = m
            .solve_with(&SolverOptions {
                kernel: Kernel::DenseTableau,
                ..SolverOptions::default()
            })
            .unwrap_or_else(|e| panic!("{name}: dense oracle failed: {e:?}"));
        assert_eq!(dense.status, Status::Optimal);
        for workers in [1usize, 2] {
            let opts = SolverOptions {
                workers,
                ..SolverOptions::default()
            };
            let (sol, stats) = solve_with_stats(&m, &opts)
                .unwrap_or_else(|e| panic!("{name}/workers={workers}: {e:?}"));
            assert_eq!(sol.status, Status::Optimal);
            assert!(
                (sol.objective - dense.objective).abs() <= 1e-7,
                "{name}/workers={workers}: warm {} vs dense oracle {}",
                sol.objective,
                dense.objective
            );
            assert!(
                m.max_violation(sol.values(), 1e-6) < 1e-5,
                "{name}/workers={workers}: infeasible point"
            );
            for x in sol.values() {
                assert!((x - x.round()).abs() < 1e-6, "{name}: {x} not integral");
            }
            assert!(!stats.truncated);
            if workers == 1 {
                assert_eq!(
                    stats.cold_solves, 1,
                    "{name}: clean serial runs must warm-start after one cold solve"
                );
                assert_eq!(
                    stats.warm_solves,
                    stats.nodes - 1,
                    "{name}: every non-root node must be a warm reoptimization"
                );
            } else {
                // Parallel trajectories are schedule-dependent, but every
                // worker still warm-starts: cold solves are bounded by the
                // worker count, never by the node count.
                assert!(
                    stats.cold_solves <= workers,
                    "{name}: {} cold solves for {} workers",
                    stats.cold_solves,
                    workers
                );
            }
        }
    }
}

/// Source-level assertions that the deletions are real and stay real:
/// the `LegacyBackend` / `SNAP_LEAVES` identifiers of the retired
/// backend and the `SearchCore` / `LpBackend` / `run_search`
/// identifiers of the retired serial search loop survive only in prose
/// (comment lines), and no model is cloned inside the node loop —
/// `model.clone()` appears exactly once in `branch_bound.rs` (the
/// whole-solve cross-validation pin, after the search returns) and
/// never in `parallel.rs`, which holds the one node loop.
#[test]
fn no_legacy_backend_and_no_model_clones_in_the_node_loop() {
    let branch_bound = include_str!("../crates/milp/src/branch_bound.rs");
    let parallel = include_str!("../crates/milp/src/parallel.rs");

    for ident in [
        "LegacyBackend",
        "SNAP_LEAVES",
        "SearchCore",
        "LpBackend",
        "run_search",
    ] {
        for (file, src) in [("branch_bound.rs", branch_bound), ("parallel.rs", parallel)] {
            for (lineno, line) in src.lines().enumerate() {
                if line.contains(ident) {
                    assert!(
                        line.trim_start().starts_with("//"),
                        "{file}:{}: `{ident}` outside a comment: {line}",
                        lineno + 1
                    );
                }
            }
        }
    }

    let clones_in_branch_bound = branch_bound.matches("model.clone()").count();
    assert_eq!(
        clones_in_branch_bound, 1,
        "branch_bound.rs must clone the model exactly once (the \
         cross-validation pin); found {clones_in_branch_bound}"
    );
    assert_eq!(
        parallel.matches("model.clone()").count(),
        0,
        "parallel.rs must never clone the model"
    );
}
