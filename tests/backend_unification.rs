//! Backend-unification gate (PR 10): one LP backend for every model.
//!
//! The `LegacyBackend` — a rebuild-the-model-per-node dense-tableau
//! search backend that owned mirrored and free integer variables — is
//! gone. This suite pins the four facts that deletion rests on:
//!
//! * **Goldens survive** — the two golden instances (the ring fixture is
//!   frozen in `tests/common`) replay bit-exact through the unified warm
//!   path: same objective, node count, pivot count, warm/cold solve
//!   split. They were first pinned under most-fractional branching and
//!   re-pinned to the production search when that rule was retired.
//! * **The legacy model class runs warm** — mirrored (upper-bound-only)
//!   and free (split-pair) integer fixtures solve through `WarmBackend`
//!   at `workers ∈ {1, 2}`, agree with the dense-tableau oracle request
//!   to ≤ 1e-7, and warm-start cleanly (`cold_solves == 1`, every
//!   subsequent node a warm dual reoptimization).
//! * **Warm-starting pays** — on free-lag retiming MILPs the warm search
//!   takes strictly fewer pivots than solving every node cold, with one
//!   cold solve and the same optimum.
//! * **No model clones in the node loop** — source-level assertions:
//!   the `LegacyBackend` / `SNAP_LEAVES` identifiers (and those of the
//!   retired serial loop, `SearchCore` / `LpBackend` / `run_search`)
//!   survive only in prose, and `model.clone()` appears exactly once in
//!   `branch_bound.rs` (the whole-solve cross-validation pin, outside
//!   the search loop) and never in `parallel.rs`.

mod common;

use common::{free_lag_retiming_milp, ring_difference_milp};
use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{cmp, solve_with_stats, Kernel, Model, NodeOrder, Sense, SolverOptions, Status};

/// Golden replay 1: the ring MILP through the unified warm path must
/// reproduce the pinned trajectory of the default options exactly — not
/// a single node or pivot may move on the boxed-integer path.
#[test]
fn ring_milp_golden_replays_bit_exact_through_the_unified_backend() {
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
    assert_eq!(
        stats.cold_solves, 1,
        "clean runs warm-start after one cold solve"
    );
    assert!(!stats.truncated);
}

/// Golden replay 2: the 20-edge `MAX_THR` bench instance (hint-seeded,
/// proven in 37 nodes without cuts) through the unified warm path.
#[test]
fn bench20_max_thr_golden_replays_bit_exact_through_the_unified_backend() {
    let g = bench_instance(20);
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = 2000;
    opts.solver.node_order = NodeOrder::DfsNearerFirst;
    opts.cuts = false;
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(
        (out.objective - 6.497_501_818_546_008_5).abs() < 1e-12,
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

/// Warm-starting pays for itself on the free/mirrored model class: on
/// two retiming-lag instances the warm search and the same backend with
/// `warm_start: false` (every node solved from scratch — a cost proxy
/// for the retired backend, which rebuilt and cold-solved a tableau per
/// node) both close within a 50k-node cap on the same optimum, the warm
/// run takes exactly one cold solve, and it takes strictly fewer pivots.
#[test]
fn warm_start_beats_cold_node_solves_on_free_lag_milps() {
    for (n, rows) in [(12usize, 6usize), (15, 7)] {
        let m = free_lag_retiming_milp(n, rows);
        let solve = |warm_start: bool| {
            let opts = SolverOptions {
                max_nodes: 50_000,
                warm_start,
                ..SolverOptions::default()
            };
            solve_with_stats(&m, &opts)
                .unwrap_or_else(|e| panic!("lags{n} warm_start={warm_start}: {e:?}"))
        };
        let (warm, warm_stats) = solve(true);
        let (cold, cold_stats) = solve(false);
        assert!(
            !warm_stats.truncated && !cold_stats.truncated,
            "lags{n}: truncated at the 50k-node cap — the instance no longer closes"
        );
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-7 * warm.objective.abs().max(1.0),
            "lags{n}: warm {} vs cold {} — the box translation changed the optimum",
            warm.objective,
            cold.objective
        );
        assert_eq!(
            warm_stats.cold_solves, 1,
            "lags{n}: mirrored/free boxes are not warm-starting"
        );
        assert!(
            warm_stats.simplex_iters < cold_stats.simplex_iters,
            "lags{n}: warm path took {} pivots, cold node solves {}",
            warm_stats.simplex_iters,
            cold_stats.simplex_iters
        );
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
