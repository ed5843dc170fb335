//! End-to-end regression of the basis-factorization layer on the
//! bench instance family (`milp_bench_instance`, seed 42): the
//! largest (40-edge) instance is optimized once by the production
//! kernel (Markowitz sparse LU, Forrest–Tomlin updates) and once in the
//! oracle configuration (`Kernel::DenseTableau`: dense LU, product-form
//! updates, cold node solves, incumbent cross-checked on the tableau).
//!
//! `MIN_CYC(1)` is the formulation both drive to **proven** optimality
//! within a sane budget, so any objective disagreement there is a
//! factorization bug, not a search-path artifact; `MAX_THR` is
//! cross-checked at the bench's own options, where the fixed-seed search
//! is deterministic, and the LP throughput bound on larger instances.
//! The sparse kernel must also actually exploit sparsity: its recorded
//! `nnz(L+U)` stays far below the dense `m²` storage.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{Kernel, SolverOptions};
use rr_tgmg::{lp_bound, skeleton::tgmg_of};

fn opts_with(kernel: Kernel, gap_tol: f64) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.kernel = kernel;
    opts.solver.gap_tol = gap_tol;
    opts.solver.max_nodes = 20_000;
    opts.solver.time_limit = Some(std::time::Duration::from_secs(60));
    opts
}

#[test]
fn factor_kinds_prove_the_same_optimum_on_the_largest_bench_instance() {
    let g = bench_instance(40);
    let sparse = formulation::min_cyc(&g, 1.0, &opts_with(Kernel::Revised, 1e-9))
        .expect("sparse-LU MIN_CYC solves");
    let dense = formulation::min_cyc(&g, 1.0, &opts_with(Kernel::DenseTableau, 1e-9))
        .expect("dense-LU MIN_CYC solves");

    // Identical verdicts: both *prove* the optimum, so the objectives
    // must coincide regardless of pivot paths.
    assert!(sparse.proven_optimal, "sparse run did not prove optimality");
    assert!(dense.proven_optimal, "dense run did not prove optimality");
    assert!(
        (sparse.objective - dense.objective).abs() < 1e-7,
        "factor kinds disagree: sparse {} vs dense {}",
        sparse.objective,
        dense.objective
    );

    // The sparse kernel must beat the dense m² storage on this basis.
    let m = sparse.stats.basis_rows;
    assert!(m > 100, "instance too small to be meaningful ({m} rows)");
    assert!(sparse.stats.refactors > 0 && sparse.stats.peak_lu_nnz > 0);
    assert!(
        sparse.stats.peak_lu_nnz < m * m / 4,
        "sparse LU fill {} did not clearly beat the dense {}² = {}",
        sparse.stats.peak_lu_nnz,
        m,
        m * m
    );
    assert_eq!(
        dense.stats.peak_lu_nnz,
        dense.stats.basis_rows * dense.stats.basis_rows,
        "dense oracle must report its full m² storage"
    );
}

/// `MAX_THR` on the 20-edge instance at the bench's own options minus
/// the wall clock: the production kernel (warm node solves), the same
/// kernel solving every node cold, and the dense-tableau oracle all
/// prove the same optimum. (On the 40-edge instance the cold and oracle
/// searches stop at the 2000-node cap, so only `MIN_CYC` above compares
/// kernels there.)
#[test]
fn factor_kinds_agree_on_max_thr_at_bench_options() {
    let g = bench_instance(20);
    let solve = |kernel: Kernel, warm_start: bool| {
        let mut opts = CoreOptions::fast();
        opts.solver.time_limit = None;
        opts.solver.kernel = kernel;
        opts.solver.warm_start = warm_start;
        formulation::max_thr(&g, g.max_delay(), &opts)
            .unwrap_or_else(|e| panic!("{kernel:?} warm={warm_start}: {e}"))
    };
    let warm = solve(Kernel::Revised, true);
    assert!(warm.proven_optimal, "revised warm did not prove optimality");
    for (label, other) in [
        ("revised cold", solve(Kernel::Revised, false)),
        ("dense oracle", solve(Kernel::DenseTableau, false)),
    ] {
        assert!(other.proven_optimal, "{label} did not prove optimality");
        assert!(
            (warm.objective - other.objective).abs() < 1e-7,
            "revised warm {} vs {label} {}",
            warm.objective,
            other.objective
        );
    }
}

/// The LP throughput bound on the 60- and 240-edge instances: the
/// revised kernel and the dense-tableau oracle agree to 1e-7.
#[test]
fn kernels_agree_on_the_lp_bound() {
    for edges in [60usize, 240] {
        let t = tgmg_of(&bench_instance(edges));
        let bound = |kernel: Kernel| {
            let opts = SolverOptions {
                kernel,
                ..SolverOptions::default()
            };
            lp_bound::throughput_upper_bound_with(&t, &opts)
                .unwrap_or_else(|e| panic!("bench{edges} {kernel:?}: {e:?}"))
        };
        let revised = bound(Kernel::Revised);
        let dense = bound(Kernel::DenseTableau);
        assert!(
            (revised - dense).abs() <= 1e-7 * revised.abs().max(1.0),
            "bench{edges}: revised {revised} vs dense oracle {dense}"
        );
    }
}
