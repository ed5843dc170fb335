//! Determinism gate for the branch & bound worker engine
//! (`SolverOptions::workers`), which runs every solve — `workers = 1` is
//! one worker on the calling thread:
//!
//! * **Serial bit-exactness** — `workers = 1` must reproduce the pinned
//!   `search_orders` goldens *bit-exact* (same objective, same node and
//!   pivot counts, same incumbent trace), and the production
//!   configuration the benchmark measures (pseudo-cost branching,
//!   cycle-sum cuts, 0.5 % gap) must replay its pinned
//!   `BranchBoundStats` field for field, `node_bounds` bitwise.
//! * **Schedule independence of verdicts** — `workers ∈ {2, 4}` must
//!   prove identical optima (≤ 1e-7) and identical verdicts as the
//!   serial search on every Table-1 instance the serial search
//!   completes (paper figures × {MAX_THR, MIN_CYC} plus the bench
//!   `MIN_CYC` instances). The parallel node *schedule* is
//!   nondeterministic; a completed branch & bound proves the optimum
//!   regardless of schedule, which is exactly what this asserts.
//! * **Fault tolerance under parallelism** — a fault-injected parallel
//!   run (every worker carries its own deterministic injector and
//!   recovery ladder) must still agree with its clean twin, and the
//!   merged recovery ledger must show the injections actually fired.
//!
//! The multi-instance sweeps fan out through the shared
//! `parallel_map_bounded` helper — the same bounded-parallelism idiom
//! the table harness uses.

use rr_bench::{milp_bench_instance as bench_instance, parallel_map_bounded};
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, Branching, FactorKind, FaultPlan, LinExpr, Model, NodeOrder, Sense,
    SolverOptions, Status, UpdateKind,
};
use rr_rrg::figures;
use rr_rrg::iscas::IscasProfile;
use rr_rrg::Rrg;

/// Deterministic solver options: node caps only, no wall clock. Pinned
/// to most-fractional branching without cycle-sum cuts — the regime the
/// trajectory goldens were captured under.
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

/// The `search_orders` golden instance, frozen with its trajectory pins.
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

/// Bit-exact stats equality. `node_bounds` holds NaN for failed node
/// LPs, so the derived `PartialEq` (NaN ≠ NaN) cannot express
/// "identical trajectory"; those entries are compared bitwise instead.
fn assert_stats_identical(mut a: rr_milp::BranchBoundStats, mut b: rr_milp::BranchBoundStats) {
    let bounds_a: Vec<u64> = std::mem::take(&mut a.node_bounds)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let bounds_b: Vec<u64> = std::mem::take(&mut b.node_bounds)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(bounds_a, bounds_b, "node-bound trajectories diverged");
    assert_eq!(a, b);
}

/// `workers = 1` reproduces the pinned serial golden bit-exact — and
/// produces the byte-identical stats struct of a default (`workers`
/// unset) run: both are one worker of the same engine.
#[test]
fn one_worker_matches_the_serial_goldens_bit_exact() {
    let m = ring_difference_milp(12, 6);
    let serial = SolverOptions {
        update: UpdateKind::ProductForm,
        branching: Branching::MostFractional,
        ..SolverOptions::default()
    };
    let explicit = SolverOptions {
        workers: 1,
        ..serial.clone()
    };
    let (sol_default, stats_default) = solve_with_stats(&m, &serial).unwrap();
    let (sol, stats) = solve_with_stats(&m, &explicit).unwrap();
    // The search_orders golden, verbatim.
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - 50.0).abs() < 1e-12,
        "obj {}",
        sol.objective
    );
    assert_eq!(stats.nodes, 79, "node count drifted from serial golden");
    assert_eq!(stats.simplex_iters, 135, "pivot count drifted");
    assert_eq!(stats.warm_solves, 78);
    assert_eq!(stats.cold_solves, 1);
    assert_eq!(stats.incumbents, 1);
    assert_eq!(stats.first_incumbent_node, 64);
    assert_eq!(stats.incumbent_trace, vec![(64, 50.0)]);
    // Bit-exactness against the default run, field for field.
    assert_eq!(sol.objective.to_bits(), sol_default.objective.to_bits());
    assert_stats_identical(stats, stats_default);
}

/// `workers = 1` on the best-bound 40-edge plateau case: identical
/// trajectory to the default serial run, including under truncation.
#[test]
fn one_worker_matches_serial_best_bound_truncated_runs() {
    let g = bench_instance(40);
    let serial =
        formulation::max_thr(&g, g.max_delay(), &capped(NodeOrder::BestBound, 1000, 1)).unwrap();
    let default_run =
        formulation::max_thr(&g, g.max_delay(), &capped(NodeOrder::BestBound, 1000, 0)).unwrap();
    assert_eq!(
        serial.objective.to_bits(),
        default_run.objective.to_bits(),
        "workers=1 diverged from the default serial run"
    );
    assert!(serial.stats.truncated);
    // The only legitimate difference: the default run records that
    // `workers: 0` was normalized.
    let mut default_stats = default_run.stats;
    assert_eq!(
        default_stats.resolve_notes,
        ["workers: 0 -> 1 (a solve needs one worker)"]
    );
    default_stats.resolve_notes.clear();
    assert_stats_identical(serial.stats, default_stats);
    assert!(serial.objective <= 3.0 + 1e-6);
}

/// The production configuration the benchmark measures: default
/// `SolverOptions` (pseudo-cost branching), cycle-sum cuts on, the `CoreOptions::default()` 0.5 % gap — minus
/// the wall clock, so only the node cap can stop a search.
fn production(order: NodeOrder, max_nodes: usize) -> CoreOptions {
    let mut opts = CoreOptions::default();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.node_order = order;
    opts.solver.workers = 1;
    opts
}

/// One line naming every `BranchBoundStats` field, floats as bit
/// patterns; `node_bounds` enters as its length plus an FNV-1a digest
/// of the bits, so the comparison stays bitwise without pinning
/// thousands of values.
fn fingerprint(s: &rr_milp::BranchBoundStats) -> String {
    let digest = s.node_bounds.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    let trace: Vec<String> = s
        .incumbent_trace
        .iter()
        .map(|&(n, obj)| format!("{n}:{:x}", obj.to_bits()))
        .collect();
    format!(
        "nodes={} incumbents={} truncated={} root_bound={:x} simplex_iters={} \
         warm_solves={} cold_solves={} refactors={} ft_updates={} forced_refactors={} \
         peak_u_nnz={} peak_lu_nnz={} basis_rows={} order={:?} queue_peak={} \
         first_incumbent_node={} incumbent_trace={} node_bounds={}/{:016x} \
         strong_branches={} pseudo_updates={} cuts_added={} cuts_activated={} \
         dual_bound={:x} recovery={:?} dual_pivots={} primal_pivots={} bound_flips={} \
         weight_resets={}",
        s.nodes,
        s.incumbents,
        s.truncated,
        s.root_bound.to_bits(),
        s.simplex_iters,
        s.warm_solves,
        s.cold_solves,
        s.refactors,
        s.ft_updates,
        s.forced_refactors,
        s.peak_u_nnz,
        s.peak_lu_nnz,
        s.basis_rows,
        s.order,
        s.queue_peak,
        s.first_incumbent_node,
        trace.join(","),
        s.node_bounds.len(),
        digest,
        s.strong_branches,
        s.pseudo_updates,
        s.cuts_added,
        s.cuts_activated,
        s.dual_bound.to_bits(),
        s.recovery,
        s.dual_pivots,
        s.primal_pivots,
        s.bound_flips,
        s.weight_resets,
    )
}

/// `(case, objective bits, stats fingerprint)` under Dantzig pricing, the
/// kernel's one rule. Captured on a build that differed from the
/// steepest-edge kernel only in the default pricing rule, so removing
/// the steepest-edge code left every field unchanged.
const PRODUCTION_GOLDENS: [(&str, u64, &str); 6] = [
    (
        "bench20/max_thr/DfsNearerFirst",
        4619001555119598635,
        "nodes=37 incumbents=1 truncated=false root_bound=40119c0eeab3dc1a \
         simplex_iters=818 warm_solves=36 cold_solves=2 refactors=8 ft_updates=816 \
         forced_refactors=0 peak_u_nnz=357 peak_lu_nnz=734 basis_rows=80 \
         order=DfsNearerFirst queue_peak=7 first_incumbent_node=0 \
         incumbent_trace=0:4019fd711de16c2b node_bounds=37/06380d0725f826be \
         strong_branches=72 pseudo_updates=129 cuts_added=5 cuts_activated=5 \
         dual_bound=4019fd711de16c2b recovery=RecoveryStats { unstable_updates: 0, \
         singular_refactors: 0, cycling_suspected: 0, residual_drift: 0, \
         pivot_budget: 0, time_budget: 0, weight_drift: 0, ft_retries: 0, \
         forced_refactors: 0, product_form_switches: 0, cold_rebuilds: 0, \
         bland_restarts: 0, dense_oracle_solves: 0, faults_injected: 0 } \
         dual_pivots=645 primal_pivots=171 bound_flips=2 weight_resets=0",
    ),
    (
        "bench20/min_cyc/DfsNearerFirst",
        4637617074751072122,
        "nodes=17 incumbents=1 truncated=false root_bound=40337119a56a5ca1 \
         simplex_iters=1852 warm_solves=16 cold_solves=1 refactors=15 ft_updates=1852 \
         forced_refactors=0 peak_u_nnz=496 peak_lu_nnz=1536 basis_rows=75 \
         order=DfsNearerFirst queue_peak=5 first_incumbent_node=0 \
         incumbent_trace=0:405c202888d2e77a node_bounds=17/beff3a4a6b19dcbf \
         strong_branches=45 pseudo_updates=106 cuts_added=0 cuts_activated=0 \
         dual_bound=405c202888d2e77a recovery=RecoveryStats { unstable_updates: 0, \
         singular_refactors: 0, cycling_suspected: 0, residual_drift: 0, \
         pivot_budget: 0, time_budget: 0, weight_drift: 0, ft_retries: 0, \
         forced_refactors: 0, product_form_switches: 0, cold_rebuilds: 0, \
         bland_restarts: 0, dense_oracle_solves: 0, faults_injected: 0 } \
         dual_pivots=1770 primal_pivots=82 bound_flips=0 weight_resets=0",
    ),
    (
        "s27e20/min_cyc/DfsNearerFirst",
        4631145387254881733,
        "nodes=1000 incumbents=9 truncated=true root_bound=403313745c7d730a \
         simplex_iters=10401 warm_solves=999 cold_solves=1 refactors=94 \
         ft_updates=10400 forced_refactors=1 peak_u_nnz=712 peak_lu_nnz=2139 \
         basis_rows=87 order=DfsNearerFirst queue_peak=20 first_incumbent_node=0 \
         incumbent_trace=0:404cfda343776b8e,25:404c1e00acdeb1e5,41:404bcdb87c635ae5,54:404a81399dc24895,72:40487f656d8d1f22,89:4046bef86da08758,99:4046a41b2b7e2256,100:40466eb03d25303a,112:404522315e841dc5 \
         node_bounds=1000/d0ec739683991e11 strong_branches=73 pseudo_updates=850 \
         cuts_added=0 cuts_activated=0 dual_bound=403313745c7d730a \
         recovery=RecoveryStats { unstable_updates: 1, singular_refactors: 1, \
         cycling_suspected: 0, residual_drift: 0, pivot_budget: 0, time_budget: 0, \
         weight_drift: 0, ft_retries: 0, forced_refactors: 1, product_form_switches: \
         0, cold_rebuilds: 0, bland_restarts: 0, dense_oracle_solves: 0, \
         faults_injected: 0 } dual_pivots=10174 primal_pivots=226 bound_flips=0 \
         weight_resets=0",
    ),
    (
        "bench20/max_thr/BestBound",
        4619001555119598635,
        "nodes=37 incumbents=1 truncated=false root_bound=40119c0eeab3dc1a \
         simplex_iters=818 warm_solves=36 cold_solves=2 refactors=8 ft_updates=816 \
         forced_refactors=0 peak_u_nnz=357 peak_lu_nnz=734 basis_rows=80 \
         order=BestBound queue_peak=7 first_incumbent_node=0 \
         incumbent_trace=0:4019fd711de16c2b node_bounds=37/06380d0725f826be \
         strong_branches=72 pseudo_updates=129 cuts_added=5 cuts_activated=5 \
         dual_bound=4019fd711de16c2b recovery=RecoveryStats { unstable_updates: 0, \
         singular_refactors: 0, cycling_suspected: 0, residual_drift: 0, \
         pivot_budget: 0, time_budget: 0, weight_drift: 0, ft_retries: 0, \
         forced_refactors: 0, product_form_switches: 0, cold_rebuilds: 0, \
         bland_restarts: 0, dense_oracle_solves: 0, faults_injected: 0 } \
         dual_pivots=645 primal_pivots=171 bound_flips=2 weight_resets=0",
    ),
    (
        "bench20/min_cyc/BestBound",
        4637617074751072122,
        "nodes=17 incumbents=1 truncated=false root_bound=40337119a56a5ca1 \
         simplex_iters=1852 warm_solves=16 cold_solves=1 refactors=15 ft_updates=1852 \
         forced_refactors=0 peak_u_nnz=496 peak_lu_nnz=1536 basis_rows=75 \
         order=BestBound queue_peak=5 first_incumbent_node=0 \
         incumbent_trace=0:405c202888d2e77a node_bounds=17/beff3a4a6b19dcbf \
         strong_branches=45 pseudo_updates=106 cuts_added=0 cuts_activated=0 \
         dual_bound=405c202888d2e77a recovery=RecoveryStats { unstable_updates: 0, \
         singular_refactors: 0, cycling_suspected: 0, residual_drift: 0, \
         pivot_budget: 0, time_budget: 0, weight_drift: 0, ft_retries: 0, \
         forced_refactors: 0, product_form_switches: 0, cold_rebuilds: 0, \
         bland_restarts: 0, dense_oracle_solves: 0, faults_injected: 0 } \
         dual_pivots=1770 primal_pivots=82 bound_flips=0 weight_resets=0",
    ),
    (
        "s27e20/min_cyc/BestBound",
        4631145387254881738,
        "nodes=1000 incumbents=6 truncated=true root_bound=403313745c7d730a \
         simplex_iters=10653 warm_solves=999 cold_solves=1 refactors=100 \
         ft_updates=10650 forced_refactors=3 peak_u_nnz=712 peak_lu_nnz=2070 \
         basis_rows=87 order=BestBound queue_peak=66 first_incumbent_node=0 \
         incumbent_trace=0:404cfda343776b8e,25:404c1e00acdeb1e5,38:404a81399dc24885,52:40487f656d8d0790,58:4046a41b2b7e222f,89:404522315e841dca \
         node_bounds=1000/7af46446e360207a strong_branches=80 pseudo_updates=881 \
         cuts_added=0 cuts_activated=0 dual_bound=403313745c7d730a \
         recovery=RecoveryStats { unstable_updates: 3, singular_refactors: 3, \
         cycling_suspected: 0, residual_drift: 0, pivot_budget: 0, time_budget: 0, \
         weight_drift: 0, ft_retries: 0, forced_refactors: 3, product_form_switches: \
         0, cold_rebuilds: 0, bland_restarts: 0, dense_oracle_solves: 0, \
         faults_injected: 0 } dual_pivots=10501 primal_pivots=149 bound_flips=0 \
         weight_resets=0",
    ),
];

/// Production-configuration goldens at `workers = 1`: bench-20
/// `MAX_THR`/`MIN_CYC` and the 20-edge s27 `MIN_CYC` (the Table-2 sweep
/// graph), under both node orders, node cap 1000. Every field of the
/// stats struct must replay bit for bit.
#[test]
fn one_worker_replays_the_production_configuration_goldens() {
    let s27 = IscasProfile::by_name("s27")
        .unwrap()
        .scaled(20)
        .generate(2009);
    let bench20 = bench_instance(20);
    let mut got = Vec::new();
    for order in [NodeOrder::DfsNearerFirst, NodeOrder::BestBound] {
        let opts = production(order, 1000);
        let runs = [
            (
                "bench20/max_thr",
                formulation::max_thr(&bench20, bench20.max_delay(), &opts),
            ),
            (
                "bench20/min_cyc",
                formulation::min_cyc(&bench20, 1.0, &opts),
            ),
            ("s27e20/min_cyc", formulation::min_cyc(&s27, 1.25, &opts)),
        ];
        for (name, run) in runs {
            let out = run.unwrap_or_else(|e| panic!("{name}/{order:?}: {e}"));
            got.push((
                format!("{name}/{order:?}"),
                out.objective.to_bits(),
                fingerprint(&out.stats),
            ));
        }
    }
    for ((case, obj, fp), (want_case, want_obj, want_fp)) in got.iter().zip(PRODUCTION_GOLDENS) {
        assert_eq!(case, want_case);
        assert_eq!(*obj, want_obj, "{case}: objective drifted");
        assert_eq!(fp, want_fp, "{case}: search trajectory drifted");
    }
    assert_eq!(got.len(), PRODUCTION_GOLDENS.len());
}

/// Every Table-1 instance the serial search completes: `workers ∈ {2,4}`
/// prove the same optimum (≤ 1e-7) with the same verdict.
#[test]
fn parallel_workers_prove_identical_optima_on_table1_instances() {
    let figures: Vec<(&str, Rrg)> = vec![
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1a(0.9)", figures::figure_1a(0.9)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ];
    let mut jobs: Vec<(String, Rrg, &'static str)> = Vec::new();
    for (name, g) in &figures {
        for problem in ["max_thr", "min_cyc"] {
            jobs.push((name.to_string(), g.clone(), problem));
        }
    }
    for edges in [20usize, 40] {
        jobs.push((format!("bench{edges}"), bench_instance(edges), "min_cyc"));
    }
    // Outer fan-out through the shared harness helper; each job runs the
    // serial reference plus both parallel configurations.
    let failures: Vec<String> = parallel_map_bounded(4, jobs, |(name, g, problem)| {
        let solve = |workers: usize| {
            let opts = capped(NodeOrder::BestBound, 20_000, workers);
            match problem {
                "max_thr" => formulation::max_thr(&g, g.max_delay(), &opts),
                _ => formulation::min_cyc(&g, 1.0, &opts),
            }
        };
        let serial = match solve(1) {
            Ok(out) => out,
            Err(e) => return format!("{name}/{problem}: serial failed: {e}"),
        };
        if !serial.proven_optimal {
            return format!("{name}/{problem}: serial did not prove optimality");
        }
        for workers in [2usize, 4] {
            let par = match solve(workers) {
                Ok(out) => out,
                Err(e) => return format!("{name}/{problem}: {workers} workers failed: {e}"),
            };
            if !par.proven_optimal {
                return format!("{name}/{problem}: {workers} workers did not prove optimality");
            }
            // Relative tolerance: different pivot paths leave LP-level
            // noise in the recovered objective, which scales with its
            // magnitude (bench40's τ ≈ 54.6 wobbles by ~2e-7).
            if (par.objective - serial.objective).abs() > 1e-7 * serial.objective.abs().max(1.0) {
                return format!(
                    "{name}/{problem}: {workers} workers found {} vs serial {}",
                    par.objective, serial.objective
                );
            }
        }
        String::new()
    })
    .into_iter()
    .filter(|s| !s.is_empty())
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A fault-injected parallel run agrees with its clean parallel twin on
/// every instance, and the merged per-worker recovery ledgers show the
/// injections actually fired somewhere in the sweep.
#[test]
fn faulted_parallel_runs_agree_with_clean_twins() {
    let instances: Vec<(String, Rrg)> = vec![
        ("figure_1a(0.5)".into(), figures::figure_1a(0.5)),
        ("figure_1b(0.5)".into(), figures::figure_1b(0.5)),
        ("bench20".into(), bench_instance(20)),
    ];
    let mut injected_total = 0usize;
    for (name, g) in &instances {
        let solve = |faults: Option<FaultPlan>| {
            let mut opts = capped(NodeOrder::BestBound, 20_000, 4);
            opts.solver.faults = faults;
            formulation::min_cyc(g, 1.0, &opts)
        };
        let clean = solve(None).unwrap_or_else(|e| panic!("{name} clean: {e}"));
        let faulted = solve(Some(FaultPlan::seeded(0xDAC_2009)))
            .unwrap_or_else(|e| panic!("{name} faulted: {e}"));
        assert_eq!(clean.stats.recovery.faults_injected, 0);
        assert!(
            (clean.objective - faulted.objective).abs() <= 1e-7,
            "{name}: clean {} vs faulted {}",
            clean.objective,
            faulted.objective
        );
        assert_eq!(
            clean.proven_optimal, faulted.proven_optimal,
            "{name}: verdicts diverged under faults"
        );
        injected_total += faulted.stats.recovery.faults_injected;
    }
    assert!(
        injected_total > 0,
        "the fault plan never fired across the parallel sweep"
    );
}
