//! `table2_e20`: all 18 ISCAS89 profiles scaled to 20 edges (graph seed
//! 2009), one `evaluate_benchmark` per circuit, run one after another
//! under the CI gate's per-MILP node budget.
//!
//! The untraced run calls `rr_core::report::evaluate_benchmark` itself.
//! The traced run replays its body and the §4 recurrence of
//! `rr_core::algorithm::min_eff_cyc` through public functions so every
//! call gets a span; `reconcile` checks that the replay still is the
//! program (same nodes, pivots and evaluations).

use std::collections::HashSet;

use rr_bench::HarnessArgs;
use rr_core::report::{evaluate_benchmark, BenchmarkRow};
use rr_core::{CoreOptions, MinEffCycOutcome, OptError};
use rr_rrg::iscas::TABLE2;
use rr_rrg::{cycle_time, Rrg};

use crate::common::{self, solve, RepOutcome, Rng, SIM_TOL, SOLVE_CLOCK_SECS};
use crate::trace::{Stage, Tracer};

/// Graph seed of the Table-2 harness (DAC 2009).
pub const GRAPH_SEED: u64 = 2009;
/// Edge cap of the reduced sweep.
pub const MAX_EDGES: usize = 20;
/// Per-MILP node budget of the CI sweep gate.
pub const NODE_BUDGET: usize = 20_000;

pub struct Input {
    pub circuits: Vec<(&'static str, Rrg)>,
    pub opts: CoreOptions,
}

/// Generates the 18 graphs and the options. `--seed` orders the circuits
/// and seeds the TGMG simulations; the graphs are the harness's.
pub fn setup(tr: &mut Tracer, seed: u64) -> Input {
    let args = HarnessArgs {
        seed: GRAPH_SEED,
        max_edges: Some(MAX_EDGES),
        time_limit_secs: SOLVE_CLOCK_SECS,
        max_nodes: Some(NODE_BUDGET),
        workers: 1,
        ..HarnessArgs::default()
    };
    let mut opts = args.core_options();
    let mut rng = Rng::new(seed, 1);
    opts.sim.seed = rng.next_u64();
    let mut circuits: Vec<(&'static str, Rrg)> = TABLE2
        .iter()
        .map(|p| {
            let g = tr.span("rrg.generate", |_| {
                args.effective_profile(p).generate(args.seed)
            });
            (p.name, g)
        })
        .collect();
    rng.shuffle(&mut circuits);
    Input { circuits, opts }
}

/// Everything one circuit produced, kept for checks and reconciliation.
pub struct CircuitRun {
    pub name: &'static str,
    pub result: Result<(BenchmarkRow, MinEffCycOutcome), OptError>,
    /// Solves that stopped on the wall clock. Only the replay sees
    /// per-solve statistics; the untraced pass cannot hit the clock
    /// without running past the benchmark's own time limit.
    pub clock_hits: usize,
}

/// One pass over every circuit. Untraced, this is `evaluate_benchmark`;
/// traced, it is the replay.
pub fn run(tr: &mut Tracer, input: &Input) -> Vec<CircuitRun> {
    input
        .circuits
        .iter()
        .map(|(name, g)| {
            let before = tr.count("milp.clock_hits");
            let result = if tr.on() {
                replay_benchmark(tr, name, g, &input.opts)
            } else {
                evaluate_benchmark(name, g, &input.opts).map(|(row, t1)| (row, t1.outcome))
            };
            let clock_hits = (tr.count("milp.clock_hits") - before) as usize;
            CircuitRun {
                name,
                result,
                clock_hits,
            }
        })
        .collect()
}

/// Output checks and metrics of one pass.
pub fn assess(input: &Input, runs: &[CircuitRun]) -> RepOutcome {
    let mut rep = RepOutcome::default();
    for (run, (_, g)) in runs.iter().zip(&input.circuits) {
        let mut problems = Vec::new();
        let mut proven = false;
        match &run.result {
            Ok((row, outcome)) => {
                for ev in &outcome.evaluations {
                    common::check_evaluation(g, ev, &mut problems);
                }
                if row.xi_sim_min > row.xi_nee * (1.0 + SIM_TOL) {
                    problems.push(format!(
                        "xi_sim_min {} loses to xi_nee {}",
                        row.xi_sim_min, row.xi_nee
                    ));
                }
                proven = row.proven_optimal;
                rep.xi_ratios.push(row.xi_sim_min / row.xi_nee);
                rep.counters.nodes += outcome.total_nodes as u64;
                rep.counters.pivots += outcome.total_simplex_iters as u64;
                rep.counters.evaluations += outcome.evaluations.len() as u64;
            }
            Err(e) => problems.push(format!("sweep failed: {e}")),
        }
        if run.clock_hits > 0 {
            problems.push(format!("{} solves hit the wall clock", run.clock_hits));
        }
        rep.unit(run.name, proven, problems);
    }
    rep.finish()
}

/// The replay agrees with the untraced pass: per circuit, the same summed
/// nodes and pivots, the same stored evaluations (bit-equal ξ) and the
/// same verdict.
pub fn reconcile(traced: &[CircuitRun], untraced: &[CircuitRun]) -> Result<(), String> {
    for (t, u) in traced.iter().zip(untraced) {
        let (Ok((_, a)), Ok((_, b))) = (&t.result, &u.result) else {
            if t.result.is_ok() != u.result.is_ok() {
                return Err(format!(
                    "{}: replay and program disagree on failure",
                    t.name
                ));
            }
            continue;
        };
        let xi = |o: &MinEffCycOutcome| -> Vec<u64> {
            o.evaluations.iter().map(|e| e.xi_sim.to_bits()).collect()
        };
        if a.total_nodes != b.total_nodes
            || a.total_simplex_iters != b.total_simplex_iters
            || xi(a) != xi(b)
            || a.all_proven_optimal != b.all_proven_optimal
        {
            return Err(format!(
                "{}: replay nodes/pivots/evaluations {}/{}/{} vs program {}/{}/{}",
                t.name,
                a.total_nodes,
                a.total_simplex_iters,
                a.evaluations.len(),
                b.total_nodes,
                b.total_simplex_iters,
                b.evaluations.len()
            ));
        }
    }
    Ok(())
}

fn eval_err(e: impl std::fmt::Display) -> OptError {
    OptError::Evaluation(e.to_string())
}

/// `evaluate_benchmark`, replayed through public calls.
fn replay_benchmark(
    tr: &mut Tracer,
    name: &str,
    g: &Rrg,
    opts: &CoreOptions,
) -> Result<(BenchmarkRow, MinEffCycOutcome), OptError> {
    let xi_star = tr
        .span("rrg.cycle_time", |_| cycle_time::cycle_time(g))
        .map_err(eval_err)?;
    let xi_nee = common::min_period_retiming(tr, g).map_err(eval_err)?.period;
    let outcome = replay_min_eff_cyc(tr, g, opts)?;
    let best_lp = outcome
        .best_lp()
        .ok_or_else(|| eval_err("sweep produced no configurations"))?;
    let best_sim = outcome
        .best_simulated()
        .ok_or_else(|| eval_err("sweep produced no configurations"))?;
    let (xi_lp_min, xi_sim_min) = (best_lp.xi_sim, best_sim.xi_sim);
    let avg_err_pct = outcome
        .evaluations
        .iter()
        .map(|e| e.err_pct.abs())
        .sum::<f64>()
        / outcome.evaluations.len() as f64;
    let row = BenchmarkRow {
        name: name.to_string(),
        n1: g.num_simple(),
        n2: g.num_early(),
        edges: g.num_edges(),
        xi_star,
        xi_nee,
        xi_lp_min,
        xi_sim_min,
        improvement_pct: (xi_nee - xi_sim_min) / xi_nee * 100.0,
        lp_picked_optimum: outcome.best_lp_index() == outcome.best_sim_index(),
        avg_err_pct,
        proven_optimal: outcome.all_proven_optimal,
        incidents: outcome.incidents.len(),
    };
    Ok((row, outcome))
}

fn sweep_incident(stage: &str, e: &OptError) -> Option<String> {
    match e {
        OptError::SolverLimit | OptError::Solver(_) | OptError::Evaluation(_) => {
            Some(format!("{stage}: {e}"))
        }
        _ => None,
    }
}

/// The §4 recurrence of `min_eff_cyc`, call for call.
fn replay_min_eff_cyc(
    tr: &mut Tracer,
    g: &Rrg,
    opts: &CoreOptions,
) -> Result<MinEffCycOutcome, OptError> {
    let mut evaluations = Vec::new();
    let mut seen: HashSet<(Vec<i64>, Vec<i64>)> = HashSet::new();
    let mut all_proven = true;
    let mut incidents: Vec<String> = Vec::new();
    let mut push = |evals: &mut Vec<rr_core::RcEvaluation>, ev: rr_core::RcEvaluation| {
        if seen.insert((ev.config.tokens.clone(), ev.config.buffers.clone())) {
            evals.push(ev);
        }
    };
    let finish = |tr: &mut Tracer, out: MinEffCycOutcome| {
        tr.add("core.incidents", out.incidents.len() as f64);
        Ok(out)
    };

    if let Ok(ls) = common::min_period_retiming(tr, g) {
        let cfg = ls.config(g);
        if cfg.validate(g).is_ok() {
            match common::evaluate(tr, g, &cfg, opts) {
                Ok(ev) => push(&mut evaluations, ev),
                Err(e) => match sweep_incident("evaluate(min-delay anchor)", &e) {
                    Some(msg) => incidents.push(msg),
                    None => return Err(e),
                },
            }
        }
    }

    let mut total_nodes = 0usize;
    let mut total_simplex_iters = 0usize;
    let mut outcome = match solve(tr, Stage::MaxThr, g, g.max_delay(), opts) {
        Ok(o) => o,
        Err(e) => match sweep_incident("max_thr(beta_max)", &e) {
            Some(msg) => {
                incidents.push(msg);
                let out = MinEffCycOutcome {
                    evaluations,
                    all_proven_optimal: false,
                    total_nodes,
                    total_simplex_iters,
                    incidents,
                };
                return finish(tr, out);
            }
            None => return Err(e),
        },
    };
    all_proven &= outcome.proven_optimal;
    total_nodes += outcome.stats.nodes;
    total_simplex_iters += outcome.stats.simplex_iters;
    let mut target = 0.0f64;
    let max_iters = (1.0 / opts.epsilon) as usize + 4;
    for _ in 0..max_iters {
        tr.add("core.sweep_steps", 1.0);
        let mut eval = match common::evaluate(tr, g, &outcome.config, opts) {
            Ok(ev) => ev,
            Err(e) => match sweep_incident("evaluate(RC)", &e) {
                Some(msg) => {
                    incidents.push(msg);
                    break;
                }
                None => return Err(e),
            },
        };
        eval.proven_optimal = outcome.proven_optimal;
        let theta_lp = eval.theta_lp;
        push(&mut evaluations, eval);
        if theta_lp >= 1.0 - 1e-9 || target >= 1.0 {
            break;
        }
        target = (target.max(theta_lp) + opts.epsilon).min(1.0);
        let mc = match solve(tr, Stage::MinCyc, g, 1.0 / target, opts) {
            Ok(o) => o,
            Err(OptError::Infeasible) => break,
            Err(e) => match sweep_incident(&format!("min_cyc(1/{target:.4})"), &e) {
                Some(msg) => {
                    incidents.push(msg);
                    break;
                }
                None => return Err(e),
            },
        };
        all_proven &= mc.proven_optimal;
        total_nodes += mc.stats.nodes;
        total_simplex_iters += mc.stats.simplex_iters;
        let tau = match common::cycle_time_with(tr, g, &mc.config.buffers) {
            Ok(tau) => tau,
            Err(e) => {
                incidents.push(format!("cycle_time(MIN_CYC config): {e}"));
                break;
            }
        };
        outcome = match solve(tr, Stage::MaxThr, g, tau, opts) {
            Ok(o) => o,
            Err(e) => match sweep_incident(&format!("max_thr({tau:.4})"), &e) {
                Some(msg) => {
                    incidents.push(msg);
                    break;
                }
                None => return Err(e),
            },
        };
        all_proven &= outcome.proven_optimal;
        total_nodes += outcome.stats.nodes;
        total_simplex_iters += outcome.stats.simplex_iters;
    }
    let out = MinEffCycOutcome {
        evaluations,
        all_proven_optimal: all_proven && incidents.is_empty(),
        total_nodes,
        total_simplex_iters,
        incidents,
    };
    finish(tr, out)
}
