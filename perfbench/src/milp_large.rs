//! `milp_large`: direct `rr_core::max_thr(g, g.max_delay())` and
//! `rr_core::min_cyc(g, x)` solves at a fixed node budget, on
//! `rr_bench::milp_bench_instance` at 80, 100 and 120 edges.
//!
//! The graphs are fixed: with a node budget that binds, `wall_s` tracks
//! the per-node cost, and other graphs of the family move the pivot count
//! by a third. `--seed` orders the solves.

use std::time::Duration;

use rr_core::{CoreOptions, OptOutcome};
use rr_milp::SolverOptions;
use rr_rrg::{cycle_time, Rrg};
use rr_tgmg::{lp_bound, TgmgSkeleton};

use crate::common::{self, solve, RepOutcome, Rng, SOLVE_CLOCK_SECS, TAU_TOL};
use crate::trace::{Stage, Tracer};

/// Instance sizes (edges).
pub const EDGES: [usize; 3] = [80, 100, 120];
/// Node budget of every solve.
pub const NODE_BUDGET: usize = 500;
/// `MIN_CYC(x)` target: Θ ≥ 1/x = 0.8.
pub const MIN_CYC_X: f64 = 1.25;
/// Relative tolerance of a MILP's continuous τ or x against the value
/// recomputed from its configuration (the LP feasibility scale).
pub const OBJ_TOL: f64 = 1e-6;

pub struct Input {
    pub graphs: Vec<(usize, Rrg)>,
    pub opts: CoreOptions,
}

pub fn setup(tr: &mut Tracer, seed: u64) -> Input {
    let mut graphs: Vec<(usize, Rrg)> = EDGES
        .iter()
        .map(|&e| {
            (
                e,
                tr.span("rrg.generate", |_| rr_bench::milp_bench_instance(e)),
            )
        })
        .collect();
    Rng::new(seed, 3).shuffle(&mut graphs);
    let opts = CoreOptions {
        solver: SolverOptions {
            max_nodes: NODE_BUDGET,
            time_limit: Some(Duration::from_secs(SOLVE_CLOCK_SECS)),
            workers: 1,
            ..CoreOptions::default().solver
        },
        ..CoreOptions::default()
    };
    Input { graphs, opts }
}

/// The solves of one instance plus its min-delay retiming period.
pub struct InstanceRun {
    pub edges: usize,
    pub xi_nee: Result<f64, String>,
    pub solves: Vec<(Stage, f64, Result<OptOutcome, String>)>,
}

pub fn run(tr: &mut Tracer, input: &Input) -> Vec<InstanceRun> {
    input
        .graphs
        .iter()
        .map(|(edges, g)| {
            let xi_nee = common::min_period_retiming(tr, g)
                .map(|ls| ls.period)
                .map_err(|e| e.to_string());
            let solves = [(Stage::MaxThr, g.max_delay()), (Stage::MinCyc, MIN_CYC_X)]
                .into_iter()
                .map(|(stage, p)| {
                    let out = solve(tr, stage, g, p, &input.opts).map_err(|e| e.to_string());
                    (stage, p, out)
                })
                .collect();
            InstanceRun {
                edges: *edges,
                xi_nee,
                solves,
            }
        })
        .collect()
}

/// Output checks: each returned configuration validates, its recomputed
/// cycle time honours the solve (≤ τ for `MAX_THR(τ)`, ≤ the objective
/// τ for `MIN_CYC`), and the LP throughput bound of the configuration
/// covers the solve's throughput (1/objective for `MAX_THR`, which
/// minimises x = 1/Θ; 1/x for `MIN_CYC(x)`). A solve that hit the wall
/// clock fails.
pub fn assess(input: &Input, runs: &[InstanceRun]) -> RepOutcome {
    let mut rep = RepOutcome::default();
    for (run, (_, g)) in runs.iter().zip(&input.graphs) {
        for (stage, param, out) in &run.solves {
            let name = format!("{:?}@{}", stage, run.edges);
            let mut problems = Vec::new();
            let mut proven = false;
            match (out, &run.xi_nee) {
                (Ok(o), Ok(xi_nee)) => {
                    proven = o.proven_optimal;
                    rep.counters.nodes += o.stats.nodes as u64;
                    rep.counters.pivots += o.stats.simplex_iters as u64;
                    if o.stats.recovery.time_budget > 0 {
                        problems.push("solve hit the wall clock".to_string());
                    }
                    let obj = o.objective;
                    // Both problems minimise, so the dual bound sits below.
                    rep.gaps.push((obj - o.stats.dual_bound) / obj.abs());
                    match check_solve(g, *stage, *param, o) {
                        Ok(xi_lp) => rep.xi_ratios.push(xi_lp / xi_nee),
                        Err(p) => problems.extend(p),
                    }
                }
                (Err(e), _) | (_, Err(e)) => problems.push(e.clone()),
            }
            rep.unit(&name, proven, problems);
        }
    }
    rep.finish()
}

/// Checks one solve; returns ξ_lp = τ/Θ_lp of its configuration.
fn check_solve(g: &Rrg, stage: Stage, param: f64, o: &OptOutcome) -> Result<f64, Vec<String>> {
    let mut problems = Vec::new();
    if let Err(e) = o.config.validate(g) {
        problems.push(format!("configuration does not validate: {e}"));
    }
    let tau = cycle_time::cycle_time_with(g, &o.config.buffers).map_err(|e| vec![e.to_string()])?;
    let theta = TgmgSkeleton::of(g).instantiate(&o.config.tokens, &o.config.buffers);
    let theta_lp = lp_bound::throughput_upper_bound(&theta)
        .map_err(|e| vec![e.to_string()])?
        .min(1.0);
    let (tau_cap, theta_floor) = match stage {
        Stage::MaxThr => (param, 1.0 / o.objective),
        Stage::MinCyc => (o.objective, 1.0 / param),
    };
    if tau > tau_cap * (1.0 + OBJ_TOL) + TAU_TOL {
        problems.push(format!("recomputed tau {tau} exceeds {tau_cap}"));
    }
    if theta_lp < theta_floor * (1.0 - OBJ_TOL) {
        problems.push(format!(
            "theta_lp {theta_lp} below the solve's {theta_floor}"
        ));
    }
    if problems.is_empty() {
        Ok(tau / theta_lp)
    } else {
        Err(problems)
    }
}
