//! Pieces every workload shares: the traced evaluation wrapper, unit
//! bookkeeping, output checks and the deterministic counters.

use rr_core::{evaluate_config, max_thr, min_cyc, CoreOptions, OptError, OptOutcome, RcEvaluation};
use rr_milp::SolverOptions;
use rr_rrg::{cycle_time, Config, Rrg};
use rr_tgmg::{lp_bound, sim, TgmgSkeleton};

use crate::trace::{Stage, Tracer};

/// Sampling tolerance of a 30k-cycle throughput estimate (27k measured
/// cycles). It bounds Θ_sim − Θ_lp, |Θ_tgmg − Θ_elastic| and
/// |Θ_markov − Θ_elastic|, and the relative slack of ξ_sim_min ≤ ξ_nee.
pub const SIM_TOL: f64 = 0.01;

/// Tolerance of a recomputed cycle time against the reported one (both
/// are sums of the same integer delays).
pub const TAU_TOL: f64 = 1e-9;

/// Per-MILP wall clock. Node budgets are the binding limit; this sits far
/// above any solve, and a solve that reports hitting it fails its unit.
pub const SOLVE_CLOCK_SECS: u64 = 600;

/// SplitMix64: the benchmark's only source of seeded choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Counters that must repeat exactly for a given seed: the evidence later
/// count-based claims rest on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub nodes: u64,
    pub pivots: u64,
    pub states: u64,
    pub sim_cycles: u64,
    pub evaluations: u64,
    pub xi_ratio_geomean: f64,
}

/// What one repetition of a workload produced.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Units attempted (circuit sweeps, solves, configurations, chains).
    pub attempted: usize,
    /// One line per failed unit, naming the unit and the failed checks.
    pub failures: Vec<String>,
    /// Units whose every MILP was proven within `gap_tol` under the node
    /// budget (units without a MILP count as proven).
    pub proven: usize,
    /// Relative gaps at termination of the directly called solves.
    pub gaps: Vec<f64>,
    /// Per-unit ξ ratios whose geometric mean is `xi_ratio_geomean`.
    pub xi_ratios: Vec<f64>,
    pub counters: Counters,
}

impl RepOutcome {
    /// Records one unit: it fails when any of `problems` is non-empty.
    pub fn unit(&mut self, name: &str, proven: bool, problems: Vec<String>) {
        self.attempted += 1;
        if problems.is_empty() {
            self.proven += usize::from(proven);
        } else {
            self.failures
                .push(format!("{name}: {}", problems.join("; ")));
        }
    }

    /// Closes the repetition: fixes the ξ geometric mean into the
    /// counters.
    pub fn finish(mut self) -> RepOutcome {
        self.counters.xi_ratio_geomean = geomean(&self.xi_ratios);
        self
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `evaluate_config` as the program runs it; with tracing on, the same
/// computation replayed through its public parts so each part gets its
/// own span (cycle time, skeleton, LP bound, TGMG simulation).
///
/// # Errors
///
/// As [`evaluate_config`].
pub fn evaluate(
    tr: &mut Tracer,
    g: &Rrg,
    cfg: &Config,
    opts: &CoreOptions,
) -> Result<RcEvaluation, OptError> {
    tr.span("core.evaluate", |tr| {
        if !tr.on() {
            return evaluate_config(g, cfg, opts);
        }
        let tau = cycle_time_with(tr, g, &cfg.buffers)
            .map_err(|e| OptError::Evaluation(e.to_string()))?;
        let tgmg = tr.span("tgmg.skeleton", |_| {
            TgmgSkeleton::of(g).instantiate(&cfg.tokens, &cfg.buffers)
        });
        let (bound, pivots) = tr
            .span("tgmg.lp_bound", |_| {
                lp_bound::throughput_upper_bound_counted(&tgmg, &SolverOptions::default())
            })
            .map_err(OptError::Solver)?;
        tr.add("tgmg.lp_bound_pivots", pivots as f64);
        let theta_lp = bound.min(1.0);
        let run = tr
            .span("tgmg.sim", |_| sim::simulate(&tgmg, &opts.sim))
            .map_err(|e| OptError::Evaluation(e.to_string()))?;
        tr.add("tgmg.sim_cycles", run.cycles as f64);
        tr.add("tgmg.sim_firings", run.firings.iter().sum::<u64>() as f64);
        let theta_sim = run.throughput.min(1.0);
        Ok(RcEvaluation {
            config: cfg.clone(),
            tau,
            theta_lp,
            theta_sim,
            xi_lp: tau / theta_lp,
            xi_sim: tau / theta_sim,
            err_pct: (theta_lp - theta_sim) / theta_sim * 100.0,
            proven_optimal: true,
        })
    })
}

/// `rr_rrg::cycle_time::cycle_time_with` inside an `rrg.cycle_time` span.
///
/// # Errors
///
/// As the wrapped function.
pub fn cycle_time_with(
    tr: &mut Tracer,
    g: &Rrg,
    buffers: &[i64],
) -> Result<f64, cycle_time::CycleTimeError> {
    tr.span("rrg.cycle_time", |_| {
        cycle_time::cycle_time_with(g, buffers)
    })
}

/// `rr_retime::min_period_retiming` inside a `retime.min_period` span.
///
/// # Errors
///
/// As the wrapped function.
pub fn min_period_retiming(
    tr: &mut Tracer,
    g: &Rrg,
) -> Result<rr_retime::RetimingResult, rr_retime::RetimeError> {
    tr.span("retime.min_period", |_| rr_retime::min_period_retiming(g))
}

/// Output checks on one evaluated configuration: it validates against
/// `g`, its recomputed cycle time matches, and the simulated throughput
/// stays under the LP bound.
pub fn check_evaluation(g: &Rrg, ev: &RcEvaluation, problems: &mut Vec<String>) {
    if let Err(e) = ev.config.validate(g) {
        problems.push(format!("configuration does not validate: {e}"));
    }
    match cycle_time::cycle_time_with(g, &ev.config.buffers) {
        Ok(tau) if (tau - ev.tau).abs() <= TAU_TOL => {}
        Ok(tau) => problems.push(format!("recomputed tau {tau} != reported {}", ev.tau)),
        Err(e) => problems.push(format!("cycle time fails: {e}")),
    }
    if ev.theta_sim > ev.theta_lp + SIM_TOL {
        problems.push(format!(
            "theta_sim {} exceeds theta_lp {} + {SIM_TOL}",
            ev.theta_sim, ev.theta_lp
        ));
    }
}

/// `rr_core::max_thr(g, τ)` or `rr_core::min_cyc(g, x)` inside its
/// `core.*` span, with the returned statistics added to the counters.
///
/// # Errors
///
/// As the wrapped function.
pub fn solve(
    tr: &mut Tracer,
    stage: Stage,
    g: &Rrg,
    param: f64,
    opts: &CoreOptions,
) -> Result<OptOutcome, OptError> {
    let out = match stage {
        Stage::MaxThr => tr.span("core.max_thr", |_| max_thr(g, param, opts)),
        Stage::MinCyc => tr.span("core.min_cyc", |_| min_cyc(g, param, opts)),
    };
    if let Ok(o) = &out {
        tr.record_solve(stage, o);
    }
    out
}
