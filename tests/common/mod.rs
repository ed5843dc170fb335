//! MILP fixtures shared by the integration gates. Every test binary
//! compiles this module and uses a subset of it.
#![allow(dead_code)]

use rr_milp::{cmp, LinExpr, Model, Sense};

/// The ring-difference golden instance: difference constraints over a
/// ring plus coupling knapsack rows (the shape the solver stress suite
/// uses). `search_orders`, `parallel_search`, `backend_unification` and
/// `fault_injection` pin search trajectories of exactly this model, so
/// its definition is frozen with those goldens.
pub fn ring_difference_milp(n: usize, rows: usize) -> Model {
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

/// A retiming-lag MILP in the model class the warm backend took over
/// from the retired rebuild-per-node backend: the lags `r_i` are **fully
/// free integers** (split-pair columns in standard form, exactly the
/// paper's retiming variables) with ring difference rows at fractional
/// offsets and knapsack coupling rows breaking total unimodularity, plus
/// one **mirrored** capacity variable (upper bound only, no lower bound).
///
/// `n` must be a multiple of 3: the ring rows integer-tighten to
/// difference caps cycling through {−1, 0, +1}, and any other `n` makes
/// their cyclic sum negative — an instance that is LP-feasible but
/// integer-infeasible, which no branch & bound can *prove* when the
/// lags are free (the infeasibility is invariant under shifting all
/// lags, so the unbounded boxes never exhaust).
pub fn free_lag_retiming_milp(n: usize, rows: usize) -> Model {
    assert!(n.is_multiple_of(3), "see the doc comment: n % 3 == 0");
    let mut m = Model::new(Sense::Minimize);
    let lags: Vec<_> = (0..n)
        .map(|i| m.add_integer(format!("r{i}"), f64::NEG_INFINITY, f64::INFINITY))
        .collect();
    let cap = m.add_integer("cap", f64::NEG_INFINITY, n as f64 / 2.0 + 0.7);
    let mut obj = LinExpr::new();
    for (i, &v) in lags.iter().enumerate() {
        obj += ((i % 4 + 1) as f64) * v;
    }
    obj += -2.0 * cap;
    m.set_objective(obj);
    for i in 0..n {
        let j = (i + 1) % n;
        m.add_constraint(lags[i] - lags[j], cmp::LE, ((i % 3) as f64) - 0.5);
    }
    for r in 0..rows {
        let mut row = LinExpr::new();
        for (i, &v) in lags.iter().enumerate() {
            row += (((i + r) % 5 + 1) as f64) * v;
        }
        m.add_constraint(row, cmp::GE, 2.5 * n as f64 + r as f64);
    }
    // The mirrored capacity rides under the total lag mass, so its
    // branch-and-bound boxes interact with the free split pairs.
    let mut total = LinExpr::new();
    for &v in &lags {
        total += 1.0 * v;
    }
    m.add_constraint(total - cap, cmp::GE, 0.3);
    m
}
