//! Model builder: variables, constraints, objective, solver entry points.

use std::fmt;
use std::time::Duration;

use crate::branch_bound;
use crate::expr::{LinExpr, VarId};
use crate::simplex;
use crate::solution::{Solution, SolveError, Status};
use crate::standard::StandardForm;

/// Optimization direction of the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
        })
    }
}

/// Short aliases so constraint sites read close to the paper's notation.
pub mod cmp {
    pub use super::CmpOp;
    /// `expr <= rhs`
    pub const LE: CmpOp = CmpOp::Le;
    /// `expr >= rhs`
    pub const GE: CmpOp = CmpOp::Ge;
    /// `expr == rhs`
    pub const EQ: CmpOp = CmpOp::Eq;
}

/// A decision variable.
#[derive(Debug, Clone)]
pub struct Variable {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) integer: bool,
    pub(crate) priority: i32,
}

impl Variable {
    /// Variable name as given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Lower bound (may be `-inf`).
    pub fn lower(&self) -> f64 {
        self.lower
    }
    /// Upper bound (may be `+inf`).
    pub fn upper(&self) -> f64 {
        self.upper
    }
    /// Whether the variable is required to be integral.
    pub fn is_integer(&self) -> bool {
        self.integer
    }
    /// Branching priority (higher branches first; default 0).
    pub fn priority(&self) -> i32 {
        self.priority
    }
}

/// A linear constraint `expr op rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) op: CmpOp,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// Left-hand-side expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }
    /// Comparison operator.
    pub fn op(&self) -> CmpOp {
        self.op
    }
    /// Right-hand-side constant.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Signed violation of the constraint under `values` (0 if satisfied).
    pub fn violation(&self, values: &[f64]) -> f64 {
        let lhs = self.expr.eval(values);
        match self.op {
            CmpOp::Le => (lhs - self.rhs).max(0.0),
            CmpOp::Ge => (self.rhs - lhs).max(0.0),
            CmpOp::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// Which simplex kernel solves the LP relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Revised simplex: sparse columns, LU-factorized basis with
    /// product-form eta updates, dual-simplex warm starts in branch &
    /// bound. The production kernel.
    #[default]
    Revised,
    /// The original dense full-tableau two-phase simplex, kept as a
    /// cross-validation oracle (and for A/B benchmarking). Pure LP
    /// relaxations solve directly on the tableau. A branch & bound
    /// search requested with this kernel runs the unified warm revised
    /// backend in the oracle configuration ([`SolverOptions::resolve`]:
    /// dense factors, product-form updates, cold node solves, one
    /// worker) and then cross-validates the incumbent's pinned integer
    /// assignment against the genuine dense tableau.
    DenseTableau,
}

/// Which basis factorization backs the revised kernel's eta file (see
/// the `factor` module docs). Under [`Kernel::DenseTableau`] this is
/// normalized to [`FactorKind::Dense`] by [`SolverOptions::resolve`]
/// (the pure-LP tableau itself carries no factorization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorKind {
    /// Sparse LU with Markowitz pivot ordering and threshold partial
    /// pivoting: `O(nnz(L+U))` storage and refactor cost proportional to
    /// fill. The production default.
    #[default]
    Sparse,
    /// Dense LU snapshot (`O(m²)` storage, `O(m³)` refactor), kept as
    /// the cross-validation oracle for the sparse scheme.
    Dense,
}

/// How the basis factorization absorbs a pivot (a one-column basis
/// change) between refactorizations. Only the [`FactorKind::Sparse`]
/// snapshot supports Forrest–Tomlin; the dense oracle always uses the
/// product form (see the `factor` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateKind {
    /// Forrest–Tomlin: the leaving column of `U` is replaced by the
    /// entering column's spike, the spike row is eliminated with one row
    /// eta against `U`'s trailing submatrix, and the pivot is permuted
    /// to the end — FTRAN/BTRAN keep solving against an *updated*
    /// triangular `U` instead of replaying an unbounded eta file. The
    /// production default.
    #[default]
    ForrestTomlin,
    /// Product-form eta file: every pivot appends one eta transformation
    /// that each subsequent FTRAN/BTRAN replays. The historical scheme,
    /// kept as the cross-validation baseline (and the only scheme the
    /// dense-LU oracle supports).
    ProductForm,
}

/// Node selection strategy of the branch & bound search (see the
/// `branch_bound` module docs for the search-core architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeOrder {
    /// Depth-first, exploring the nearer branching side first. Cheapest
    /// bookkeeping and the historical behaviour, but truncated runs can
    /// plateau on an early incumbent while better ones hide in unvisited
    /// subtrees.
    #[default]
    DfsNearerFirst,
    /// Best-bound first: a priority queue keyed on the parent LP bound
    /// (ties dive like DFS), with the parent basis handed off to each
    /// queued child so warm starts survive the jumps. Finds strong
    /// incumbents earlier under node caps and prunes the whole frontier
    /// the moment the best queued bound cannot beat the incumbent.
    BestBound,
}

/// Branching-variable selection rule of the branch & bound search (see
/// the crate-level "Branching and node scoring" docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// Pseudo-cost (reliability) branching: per-variable up/down
    /// pseudo-costs are learned from the bound degradations the search
    /// observes; a variable whose direction has fewer than four
    /// observations is strong-branched (both children dual-reoptimized
    /// under a small pivot budget) before its pseudo-cost is trusted.
    /// Candidates are scored by the product rule and, under
    /// [`NodeOrder::BestBound`], queued children are ordered by a
    /// best-estimate key instead of the raw parent bound. The
    /// production default.
    #[default]
    PseudoCost,
    /// Highest priority class first, most fractional within it, ties
    /// broken toward the lowest [`VarId`]. The historical rule; the
    /// bit-exact trajectory goldens pin this mode.
    MostFractional,
}

/// Resource limits and tolerances for the solver.
///
/// The defaults match what the reproduction harness needs; the paper used a
/// 20-minute CPLEX timeout, which callers can mirror with
/// [`SolverOptions::time_limit`].
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Maximum branch-and-bound nodes before returning the incumbent.
    pub max_nodes: usize,
    /// Wall-clock limit for the whole solve (LP phases included).
    pub time_limit: Option<Duration>,
    /// Absolute integrality tolerance.
    pub int_tol: f64,
    /// Feasibility tolerance of the simplex: how large a reduced-cost or
    /// bound violation must be to count as real. Also scales the ratio
    /// test's tie-break windows (ties within `0.01·feas_tol` of the
    /// minimum ratio are broken toward the larger pivot).
    pub feas_tol: f64,
    /// Minimum pivot magnitude the simplex accepts: ratio-test rows and
    /// dual entering columns whose pivot element is at most this size
    /// are skipped as numerically unusable.
    pub pivot_tol: f64,
    /// Maximum simplex iterations per LP solve.
    pub max_pivots: usize,
    /// Try the round-and-fix heuristic at the root node.
    pub rounding_heuristic: bool,
    /// Stop as soon as an incumbent is within `gap_tol` (relative) of the
    /// best LP bound.
    pub gap_tol: f64,
    /// LP kernel selection (see [`Kernel`]).
    pub kernel: Kernel,
    /// Warm-start branch & bound nodes from the parent basis via dual
    /// simplex (only the [`Kernel::Revised`] kernel supports this; with
    /// `false` every node is solved two-phase from scratch, which is the
    /// configuration the warm-start regression tests compare against).
    pub warm_start: bool,
    /// Basis factorization behind the revised kernel (see [`FactorKind`]).
    pub factor: FactorKind,
    /// How pivots update the factorization between refactorizations (see
    /// [`UpdateKind`]); [`FactorKind::Dense`] always uses the product
    /// form regardless of this setting.
    pub update: UpdateKind,
    /// Branch & bound node selection strategy (see [`NodeOrder`]).
    pub node_order: NodeOrder,
    /// Eta-file length that triggers a refactorization; `0` (the
    /// default) resolves to `max(64, 2m)` for a basis of `m` rows.
    pub refactor_eta_len: usize,
    /// Deterministic fault-injection plan (see
    /// [`FaultPlan`](crate::FaultPlan) and the `recover` module docs).
    /// `None` — the default — injects nothing; the recovery ladder and
    /// residual health monitor stay armed either way.
    pub faults: Option<crate::FaultPlan>,
    /// Branch & bound workers. Every solve runs one work-stealing engine
    /// in which each worker owns its own kernel and factors and claims
    /// bounded DFS episodes from a shared frontier (see the crate-level
    /// "Concurrency model" docs); worker 0 runs on the calling thread, so
    /// `1` (the default) spawns no thread and is bit-exact with the
    /// historical serial trajectories. Every model parallelizes;
    /// [`SolverOptions::resolve`] normalizes `0` to `1` and pins the
    /// [`Kernel::DenseTableau`] oracle configuration to `1`.
    pub workers: usize,
    /// Branching-variable selection rule (see [`Branching`]).
    pub branching: Branching,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_nodes: 20_000,
            time_limit: None,
            int_tol: 1e-6,
            feas_tol: 1e-7,
            pivot_tol: 1e-9,
            // Degenerate phase-1 bases of the retiming MILPs can stall
            // the Dantzig/Bland alternation for a long time; give each LP
            // a generous pivot budget (pivots are cheap, restarts are
            // not).
            max_pivots: 2_000_000,
            rounding_heuristic: true,
            gap_tol: 1e-9,
            kernel: Kernel::Revised,
            warm_start: true,
            factor: FactorKind::Sparse,
            update: UpdateKind::ForrestTomlin,
            node_order: NodeOrder::DfsNearerFirst,
            refactor_eta_len: 0,
            faults: None,
            workers: 1,
            branching: Branching::PseudoCost,
        }
    }
}

impl SolverOptions {
    /// Options with a wall-clock budget, keeping other defaults.
    pub fn with_time_limit(limit: Duration) -> Self {
        SolverOptions {
            time_limit: Some(limit),
            ..Self::default()
        }
    }

    /// Resolves the requested options into the configuration the branch
    /// & bound engine actually runs, normalizing — in this one place —
    /// every knob combination the engine cannot honor. Returns the
    /// effective options plus one human-readable note per normalized
    /// knob, so callers surface what changed instead of silently
    /// ignoring settings at scattered call sites.
    ///
    /// This is the branch & bound entry's normalizer: every knob it
    /// touches configures the search. A plain LP solve
    /// ([`Model::solve_relaxation`]) reads none of them and runs the
    /// options as given.
    ///
    /// Normalizations:
    /// * `workers == 0` becomes `1` (a solve needs one worker).
    /// * [`Kernel::DenseTableau`] is an oracle request: the search runs
    ///   the unified warm revised backend pinned to the dense-oracle
    ///   setup — one worker, [`UpdateKind::ProductForm`],
    ///   [`FactorKind::Dense`], cold node solves — and the incumbent is
    ///   cross-validated against the genuine dense tableau afterwards.
    ///
    /// Deliberately *not* normalized: [`FactorKind::Dense`] +
    /// [`UpdateKind::ForrestTomlin`] (the dense factor internally
    /// degrades to the product form; a documented, tested property of
    /// the factor layer rather than an option conflict).
    pub fn resolve(&self) -> (SolverOptions, Vec<String>) {
        let mut eff = self.clone();
        let mut notes = Vec::new();
        if eff.workers == 0 {
            notes.push("workers: 0 -> 1 (a solve needs one worker)".to_string());
            eff.workers = 1;
        }
        if eff.kernel == Kernel::DenseTableau {
            if eff.workers != 1 {
                notes.push(format!(
                    "workers: {} -> 1 (the DenseTableau oracle runs serially)",
                    eff.workers
                ));
                eff.workers = 1;
            }
            if eff.update != UpdateKind::ProductForm {
                notes.push(format!(
                    "update: {:?} -> ProductForm (the oracle configuration)",
                    eff.update
                ));
                eff.update = UpdateKind::ProductForm;
            }
            if eff.factor != FactorKind::Dense {
                notes.push(format!(
                    "factor: {:?} -> Dense (the oracle configuration)",
                    eff.factor
                ));
                eff.factor = FactorKind::Dense;
            }
            if eff.warm_start {
                notes.push(
                    "warm_start: true -> false (oracle nodes re-solve from scratch)".to_string(),
                );
                eff.warm_start = false;
            }
        }
        (eff, notes)
    }
}

/// A lazily-activated cutting plane: `expr >= rhs` is valid for every
/// integer-feasible point, while `expr >= weak_rhs` is already implied
/// by the LP relaxation.
///
/// Cut rows enter the standard form with the *weak* right-hand side, so
/// the relaxation (and any backend that ignores cuts) is unchanged; the
/// warm-started backend tightens a row to `rhs` the first time the node
/// relaxation violates it (separation).
#[derive(Debug, Clone)]
pub struct Cut {
    pub(crate) expr: LinExpr,
    /// LP-implied right-hand side the row is born with.
    pub(crate) weak_rhs: f64,
    /// Integer-valid right-hand side activated on separation.
    pub(crate) rhs: f64,
}

impl Cut {
    /// The cut expression (constant part already folded into the rhs).
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The LP-implied (inactive) right-hand side.
    pub fn weak_rhs(&self) -> f64 {
        self.weak_rhs
    }

    /// The integer-valid (activated) right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }
}

/// A mixed-integer linear program.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) objective: LinExpr,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) cuts: Vec<Cut>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            objective: LinExpr::new(),
            vars: Vec::new(),
            constraints: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// `lower`/`upper` may be infinite. `integer` requests integrality
    /// (enforced by branch & bound in [`Model::solve`]).
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        integer: bool,
    ) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            lower,
            upper,
            integer,
            priority: 0,
        });
        id
    }

    /// Sets the branching priority of a variable (higher branches first).
    pub fn set_priority(&mut self, v: VarId, priority: i32) {
        self.vars[v.0].priority = priority;
    }

    /// Adds a continuous variable (shorthand for [`Model::add_var`]).
    pub fn add_continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, lower, upper, false)
    }

    /// Adds an integer variable (shorthand for [`Model::add_var`]).
    pub fn add_integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, lower, upper, true)
    }

    /// Adds a free continuous variable (`-inf, +inf`).
    pub fn add_free(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, false)
    }

    /// Sets the objective expression (its constant part is carried through
    /// to [`Solution::objective`]).
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        let mut e = expr.into();
        e.compact();
        self.objective = e;
    }

    /// Adds the constraint `expr op rhs` and returns its row index.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, op: CmpOp, rhs: f64) -> usize {
        let mut e = expr.into();
        // Fold the expression constant into the right-hand side so the
        // standard-form conversion only sees homogeneous rows.
        let rhs = rhs - e.constant_part();
        e.constant = 0.0;
        e.compact();
        debug_assert!(
            e.iter().all(|(v, _)| v.index() < self.vars.len()),
            "constraint references a variable from another model"
        );
        self.constraints.push(Constraint { expr: e, op, rhs });
        self.constraints.len() - 1
    }

    /// Adds a lazily-activated cutting plane `expr >= rhs` whose weak
    /// form `expr >= weak_rhs` is LP-implied, and returns its index.
    ///
    /// The expression constant is folded into both right-hand sides,
    /// mirroring [`Model::add_constraint`]. Only the warm-started
    /// revised backend separates cuts; every other backend solves the
    /// (equivalent) weak rows and remains correct.
    pub fn add_cut(&mut self, expr: impl Into<LinExpr>, weak_rhs: f64, rhs: f64) -> usize {
        let mut e = expr.into();
        let shift = e.constant_part();
        e.constant = 0.0;
        e.compact();
        debug_assert!(
            e.iter().all(|(v, _)| v.index() < self.vars.len()),
            "cut references a variable from another model"
        );
        debug_assert!(
            weak_rhs <= rhs,
            "cut weak rhs must not exceed the activated rhs"
        );
        self.cuts.push(Cut {
            expr: e,
            weak_rhs: weak_rhs - shift,
            rhs: rhs - shift,
        });
        self.cuts.len() - 1
    }

    /// Number of lazily-activated cuts.
    pub fn num_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// The registered cuts, in insertion order.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Fixes a variable to a value by tightening both bounds.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn fix_var(&mut self, v: VarId, value: f64) {
        let var = &mut self.vars[v.0];
        var.lower = value;
        var.upper = value;
    }

    /// Tightens the lower bound of `v` to `max(current, bound)`.
    pub fn tighten_lower(&mut self, v: VarId, bound: f64) {
        let var = &mut self.vars[v.0];
        var.lower = var.lower.max(bound);
    }

    /// Tightens the upper bound of `v` to `min(current, bound)`.
    pub fn tighten_upper(&mut self, v: VarId, bound: f64) {
        let var = &mut self.vars[v.0];
        var.upper = var.upper.min(bound);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable metadata.
    pub fn var(&self, v: VarId) -> &Variable {
        &self.vars[v.0]
    }

    /// Iterates over all variables with their ids.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.vars.iter().enumerate().map(|(i, v)| (VarId(i), v))
    }

    /// Iterates over the constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// `true` if any variable is integer.
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.integer)
    }

    /// Checks a candidate assignment against bounds, constraints and
    /// integrality, returning the largest violation found.
    pub fn max_violation(&self, values: &[f64], int_tol: f64) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, var) in self.vars.iter().enumerate() {
            worst = worst.max(var.lower - values[i]).max(values[i] - var.upper);
            if var.integer {
                worst = worst.max((values[i] - values[i].round()).abs() - int_tol);
            }
        }
        for c in &self.constraints {
            worst = worst.max(c.violation(values));
        }
        worst
    }

    /// Solves the model with default [`SolverOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] / [`SolveError::Unbounded`] for
    /// the corresponding model pathologies and
    /// [`SolveError::IterationLimit`] if the pivot budget is exhausted
    /// without a usable answer.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves the model with explicit options.
    ///
    /// For mixed-integer models the returned solution has status
    /// [`Status::Optimal`] when branch & bound proved optimality and
    /// [`Status::Feasible`] when a limit stopped the search with an
    /// incumbent.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with(&self, opts: &SolverOptions) -> Result<Solution, SolveError> {
        if self.has_integers() {
            branch_bound::solve(self, opts, &[])
        } else {
            self.solve_relaxation(opts)
        }
    }

    /// Like [`Model::solve_with`], seeding branch & bound with a warm
    /// start: the given integer assignments are fixed and the continuous
    /// part re-solved to form the first incumbent (ignored when
    /// infeasible). Pairs for non-integer variables are ignored.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with_hint(
        &self,
        opts: &SolverOptions,
        hint: &[(VarId, f64)],
    ) -> Result<Solution, SolveError> {
        if self.has_integers() {
            branch_bound::solve(self, opts, hint)
        } else {
            self.solve_relaxation(opts)
        }
    }

    /// Solves the LP relaxation (integrality dropped).
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_relaxation(&self, opts: &SolverOptions) -> Result<Solution, SolveError> {
        self.solve_relaxation_counted(opts).map(|(sol, _)| sol)
    }

    /// Like [`Model::solve_relaxation`], additionally reporting the
    /// number of simplex pivots the solve took (perf telemetry for the
    /// scaling benchmarks).
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_relaxation_counted(
        &self,
        opts: &SolverOptions,
    ) -> Result<(Solution, usize), SolveError> {
        let (values, pivots) = match opts.kernel {
            Kernel::Revised => {
                let bf = crate::standard::BoxedForm::build(self);
                let (raw, pivots) = crate::revised::solve(&bf, opts)?;
                (bf.sf.recover(&raw), pivots)
            }
            Kernel::DenseTableau => {
                let sf = StandardForm::build(self);
                let (raw, pivots) = simplex::solve(&sf, opts)?;
                (sf.recover(&raw), pivots)
            }
        };
        let objective = self.objective.eval(&values);
        Ok((
            Solution {
                values,
                objective,
                status: Status::Optimal,
            },
            pivots,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_constant_is_reported() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0, 10.0);
        m.set_objective(LinExpr::var(x) + 5.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7);
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        // x + 3 <= 5  →  x <= 2
        m.add_constraint(LinExpr::var(x) + 3.0, cmp::LE, 5.0);
        let sol = m.solve().unwrap();
        assert!((sol[x] - 2.0).abs() < 1e-7);
    }

    /// `SolverOptions::resolve` is the one normalization point: the
    /// dense-oracle request pins its whole configuration loudly (one
    /// note per overridden knob), `workers: 0` becomes 1, and a
    /// production-default request passes through untouched.
    #[test]
    fn resolve_normalizes_unsupported_combinations_loudly() {
        let (eff, notes) = SolverOptions::default().resolve();
        assert!(notes.is_empty(), "defaults must pass through: {notes:?}");
        assert_eq!(eff.workers, 1);

        let (eff, notes) = SolverOptions {
            workers: 0,
            ..Default::default()
        }
        .resolve();
        assert_eq!(eff.workers, 1);
        assert_eq!(notes.len(), 1, "{notes:?}");

        let (eff, notes) = SolverOptions {
            kernel: Kernel::DenseTableau,
            workers: 4,
            ..Default::default()
        }
        .resolve();
        assert_eq!(eff.kernel, Kernel::DenseTableau);
        assert_eq!(eff.workers, 1);
        assert_eq!(eff.update, UpdateKind::ProductForm);
        assert_eq!(eff.factor, FactorKind::Dense);
        assert!(!eff.warm_start);
        // workers, update, factor, warm_start each noted.
        assert_eq!(notes.len(), 4, "{notes:?}");
        for knob in ["workers", "update", "factor", "warm_start"] {
            assert!(notes.iter().any(|n| n.starts_with(knob)), "{notes:?}");
        }

        // Dense factor + Forrest–Tomlin under the revised kernel is a
        // documented internal degradation, not an option conflict.
        let (eff, notes) = SolverOptions {
            factor: FactorKind::Dense,
            update: UpdateKind::ForrestTomlin,
            ..Default::default()
        }
        .resolve();
        assert_eq!(eff.update, UpdateKind::ForrestTomlin);
        assert!(notes.is_empty(), "{notes:?}");
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn rejects_crossed_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 2.0, 1.0, false);
    }

    #[test]
    fn max_violation_detects_bound_and_row_violations() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 4.0);
        m.add_constraint(2.0 * x, cmp::LE, 3.0);
        // x = 2.5 violates integrality (0.5) and the row (2.0).
        let viol = m.max_violation(&[2.5], 1e-6);
        assert!(viol > 1.9, "violation was {viol}");
    }

    #[test]
    fn fix_var_pins_value() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 10.0);
        m.set_objective(LinExpr::var(x));
        m.fix_var(x, 3.5);
        let sol = m.solve().unwrap();
        assert!((sol[x] - 3.5).abs() < 1e-7);
    }
}
