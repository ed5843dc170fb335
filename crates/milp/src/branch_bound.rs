//! Branch & bound for mixed-integer models: the search's data types,
//! **node ordering**, and the one LP backend. The node loop itself lives
//! in the worker engine (the `parallel` module), which runs every solve
//! — `workers = 1` is one worker of that engine, not a separate loop.
//!
//! # Architecture: worker engine / `NodeOrder` / `WarmBackend`
//!
//! The search is a branch tree — an arena of one-bound-tightening
//! [`TreeNode`]s whose boxes are (de)applied by walking the tree between
//! consecutively expanded nodes (undo up to the lowest common ancestor,
//! re-apply down), so jumping anywhere in the tree costs only the path
//! difference — plus an open-node [`Frontier`], an incumbent, and the
//! node/time budget. Each worker of the engine owns a [`WarmBackend`]
//! and runs bounded depth-first **episodes**: children of the nodes it
//! expands go onto a worker-local dive stack (LIFO, nearer branching
//! side first) until the dive dies or exceeds an episode cap scaled to
//! the integer count, whereupon the leftovers are flushed back into the
//! frontier. This module provides the pieces the workers share:
//! branching-variable selection ([`most_fractional_of`],
//! [`select_branch_var`]), child construction ([`branch_children`]), the
//! learned [`PseudoCosts`], and the search statistics.
//!
//! * **Node ordering** ([`NodeOrder`], selected by
//!   [`SolverOptions::node_order`]):
//!   [`NodeOrder::DfsNearerFirst`] keeps the frontier a LIFO stack, so
//!   dive and frontier together form one DFS stack exploring the nearer
//!   branching side first — bit-compatible with the historical recursive
//!   DFS (same node order, same kernel state at every solve, hence the
//!   same node/pivot counts; the `search_orders` regression pins this).
//!   DFS discards nothing unsolved: a node that cannot beat the
//!   incumbent is solved and then pruned on its own bound.
//!   [`NodeOrder::BestBound`] keys the frontier on the **parent LP
//!   bound** (ties broken most-recently-pushed-first), so each episode
//!   starts from the globally best open node — dives find the integral
//!   leaves that weak LP bounds never would, while the queue keeps the
//!   *frontier* in proven-potential order. Open entries whose bound
//!   cannot beat the incumbent are discarded unsolved, and because the
//!   most-fractional queue is bound-sorted the first unprunable deficit
//!   proves optimality for the whole frontier. Every open node carries
//!   an `Arc` of its parent's optimal basis, so best-first jumps still
//!   warm-start (**warm-basis handoff**) — the fix for DFS's plateau
//!   incumbents under small node caps (see the 40-edge `MAX_THR` bench,
//!   where truncated DFS returns 4.0 and best-bound finds 3.0).
//!
//! * **LP backend**: [`WarmBackend`] runs the revised kernel over a
//!   [`BoxedForm`] built once. Branching rewrites a column's `[lo, hi]`
//!   box in place, and since rhs/bound changes leave reduced costs
//!   untouched, *any* optimal basis anywhere in the tree is dual
//!   feasible for every node: nodes are reoptimized by a bounded
//!   dual-simplex run from whatever basis the previous node left behind,
//!   falling back to the parent snapshot, then to a cold two-phase solve
//!   ([`SolverOptions::warm_start`]` = false` forces cold solves — the
//!   warm-start A/B baseline). Every variable shape branches natively: a
//!   box `[lo, hi]` on a shifted, mirrored, or free (split-pair) integer
//!   translates to standard-form column-bound updates via
//!   [`ColMap::box_updates`], so warm starts and pseudo-costs survive
//!   across nodes for all of them. The dense tableau is a kernel-level
//!   oracle only — rung 6 of the per-node recovery ladder, plus a
//!   whole-solve cross-validation pass when [`Kernel::DenseTableau`] is
//!   requested for a MILP (the search runs
//!   the warm backend in the oracle configuration from
//!   [`SolverOptions::resolve`], then the incumbent's integer assignment
//!   is pinned and re-solved by the genuine dense tableau, which must
//!   reproduce the objective).
//!
//! The round-and-fix heuristic (round all integer variables of a
//! relaxation, fix them, re-solve the continuous part) provides early
//! incumbents — this is what makes the near-integral retiming
//! relaxations solve in a handful of nodes. Node and wall-clock limits
//! return the best incumbent with [`Status::Feasible`] instead of
//! failing; [`Status::Optimal`] is reported only when the search
//! genuinely completed (or closed the [`SolverOptions::gap_tol`] gap).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as MemOrdering};
use std::sync::Arc;
use std::time::Instant;

use crate::expr::VarId;
use crate::model::{FactorKind, Kernel, Model, NodeOrder, Sense, SolverOptions, UpdateKind};
use crate::recover::RecoveryStats;
use crate::revised::{BasisState, Revised};
use crate::solution::{Solution, SolveError, Status};
use crate::standard::{BoxedForm, ColMap};

/// Reliability threshold of pseudo-cost branching: a variable direction
/// with fewer recorded observations than this is strong-branched
/// instead of trusted.
const RELIABILITY: u64 = 4;
/// Dual-simplex pivot budget of one strong-branch probe.
const STRONG_BRANCH_PIVOTS: usize = 100;
/// At most this many unreliable candidates are strong-branched per node
/// (the rest fall back to their pseudo-cost estimates).
const STRONG_BRANCH_CANDIDATES: usize = 8;

/// Search statistics of the last branch-and-bound run (diagnostics and
/// perf telemetry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchBoundStats {
    /// LP relaxations solved (nodes explored).
    pub nodes: usize,
    /// Incumbents found.
    pub incumbents: usize,
    /// True when a limit (nodes or time) stopped the search.
    pub truncated: bool,
    /// Objective of the root LP relaxation.
    pub root_bound: f64,
    /// Total simplex pivots across every LP the search solved (node
    /// relaxations, warm reoptimizations, heuristic re-solves).
    pub simplex_iters: usize,
    /// Node LPs successfully reoptimized from the parent basis.
    pub warm_solves: usize,
    /// Node LPs solved two-phase from scratch (root, fallbacks, and all
    /// nodes when warm starts are disabled).
    pub cold_solves: usize,
    /// Basis refactorizations across the whole search.
    pub refactors: usize,
    /// Successful Forrest–Tomlin factor updates (0 under
    /// [`crate::UpdateKind::ProductForm`]).
    pub ft_updates: usize,
    /// Refactorizations forced by a refused (unstable) Forrest–Tomlin
    /// update rather than the scheduled length/fill policy.
    pub forced_refactors: usize,
    /// Largest nonzero count the (updated) `U` factor reached — the fill
    /// price of absorbing pivots into the factors under Forrest–Tomlin;
    /// `m²` under [`crate::FactorKind::Dense`].
    pub peak_u_nnz: usize,
    /// Largest `nnz(L+U)` any basis snapshot reached — `m²` under
    /// [`crate::FactorKind::Dense`], the actual fill under
    /// [`crate::FactorKind::Sparse`].
    pub peak_lu_nnz: usize,
    /// Basis dimension (constraint rows) of the bounded-variable form
    /// (0 for rowless models, which solve in closed form).
    pub basis_rows: usize,
    /// Node ordering the search ran with.
    pub order: NodeOrder,
    /// Peak number of open (queued but not yet expanded) nodes.
    pub queue_peak: usize,
    /// Node count at the moment the first incumbent was accepted (0 =
    /// seeded by the warm-start hint, before any node was solved).
    /// Meaningful only when `incumbents > 0`.
    pub first_incumbent_node: usize,
    /// `(node index, objective)` at every incumbent acceptance, in
    /// order — the improvement trajectory of the search.
    pub incumbent_trace: Vec<(usize, f64)>,
    /// LP relaxation objective of every solved node, in solve order
    /// (`NaN` for nodes whose LP failed or proved infeasible). Length
    /// equals `nodes`; best-bound entries discarded unsolved from the
    /// queue do not appear.
    pub node_bounds: Vec<f64>,
    /// Candidates strong-branched by the reliability rule (each counts
    /// one probed candidate, i.e. up to two child dual-simplex probes;
    /// pseudo-cost branching only).
    pub strong_branches: usize,
    /// Pseudo-cost observations recorded: node bound degradations plus
    /// strong-branch probe results (pseudo-cost branching only).
    pub pseudo_updates: usize,
    /// Lazily-activatable cut rows carried by the standard form.
    pub cuts_added: usize,
    /// Cut activations across the whole search (a violated cut row
    /// tightened in place to its integer-valid rhs).
    pub cuts_activated: usize,
    /// Tightest proven dual bound at termination, in the model's sense:
    /// the frontier minimum joined with the incumbent. Equals the
    /// incumbent objective when the search completed; falls back to the
    /// root bound when nothing tighter was proven.
    pub dual_bound: f64,
    /// Numerical-event and recovery-ladder counters (see
    /// [`crate::recover`]).
    pub recovery: RecoveryStats,
    /// Basis-change pivots performed by the dual reoptimizer — the warm
    /// B&B hot path (a subset of `simplex_iters`).
    pub dual_pivots: usize,
    /// Basis-change pivots performed by the primal phases, including
    /// artificial drive-out swaps.
    pub primal_pivots: usize,
    /// Bound flips: primal entering columns whose span was exhausted
    /// before any basic variable blocked
    /// (`dual_pivots + primal_pivots + bound_flips = simplex_iters`).
    pub bound_flips: usize,
    /// Always 0: the kernel prices by Dantzig's rule and keeps no
    /// reference weights to reset (see the crate-level "Simplex
    /// pricing" docs). Kept so existing stats consumers still read it.
    pub weight_resets: usize,
    /// What [`SolverOptions::resolve`] normalized in the requested
    /// options before the search ran (one note per overridden knob;
    /// empty when the request ran as given).
    pub resolve_notes: Vec<String>,
}

/// Outcome of one strong-branch child probe (see
/// [`WarmBackend::probe_branch`]). Probe results only *bias* branching —
/// an `Infeasible` verdict steers selection toward the variable but
/// never prunes, so an unverified probe cannot break correctness.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeOutcome {
    /// The backend could not probe (cold mode, kernel not dual feasible,
    /// probe budget exhausted): use the estimate.
    Skipped,
    /// The child LP solved to optimality within the probe budget.
    Bound(f64),
    /// The child box is dual-simplex infeasible.
    Infeasible,
}

/// Shared pseudo-cost table: per variable × direction mean bound
/// degradation per unit of fractionality, learned from node solves and
/// strong-branch probes. All cells are atomics so every worker reads
/// estimates lock-free; with one worker the relaxed atomics are exactly
/// as deterministic as plain fields.
pub(crate) struct PseudoCosts {
    /// `cells[vi][dir]`, `dir` 0 = down (floor) and 1 = up (ceil).
    cells: Vec<[PseudoCell; 2]>,
    /// Global running mean — the initialization estimate for variables
    /// without observations of their own.
    global: PseudoCell,
}

#[derive(Default)]
struct PseudoCell {
    /// Sum of observed degradations, stored as `f64` bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl PseudoCosts {
    pub(crate) fn new(nvars: usize) -> PseudoCosts {
        PseudoCosts {
            cells: (0..nvars).map(|_| Default::default()).collect(),
            global: PseudoCell::default(),
        }
    }

    /// Lock-free `sum += degrade` (CAS loop over the f64 bits).
    fn add(cell: &PseudoCell, degrade: f64) {
        let mut cur = cell.sum_bits.load(MemOrdering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + degrade).to_bits();
            match cell.sum_bits.compare_exchange_weak(
                cur,
                next,
                MemOrdering::Relaxed,
                MemOrdering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        cell.count.fetch_add(1, MemOrdering::Relaxed);
    }

    /// Records one observed degradation per unit fractionality.
    pub(crate) fn record(&self, vi: usize, up: bool, degrade_per_frac: f64) {
        Self::add(&self.cells[vi][up as usize], degrade_per_frac);
        Self::add(&self.global, degrade_per_frac);
    }

    /// Observation count of one direction (the reliability test).
    pub(crate) fn observations(&self, vi: usize, up: bool) -> u64 {
        self.cells[vi][up as usize].count.load(MemOrdering::Relaxed)
    }

    /// Mean observed degradation per unit fractionality; variables with
    /// no observations inherit the global mean (0 before any
    /// observation anywhere, which makes scoring fall back to pure
    /// fractionality ordering).
    pub(crate) fn estimate(&self, vi: usize, up: bool) -> f64 {
        let cell = &self.cells[vi][up as usize];
        let n = cell.count.load(MemOrdering::Relaxed);
        let (sum, n) = if n > 0 {
            (cell.sum_bits.load(MemOrdering::Relaxed), n)
        } else {
            let gn = self.global.count.load(MemOrdering::Relaxed);
            if gn == 0 {
                return 0.0;
            }
            (self.global.sum_bits.load(MemOrdering::Relaxed), gn)
        };
        f64::from_bits(sum) / n as f64
    }
}

/// Revised-kernel backend over a [`BoxedForm`] built once; branching
/// mutates column boxes in place and nodes dual-reoptimize from the
/// previous basis. The form is behind an `Arc` — read-only after the
/// build — so the search hands one copy to every worker's backend while
/// each worker keeps exclusive ownership of its kernel.
pub(crate) struct WarmBackend<'a> {
    model: &'a Model,
    form: Arc<BoxedForm>,
    /// Per model variable: the standard-form substitution of every
    /// branchable integer (shifted, mirrored, or split); `None` for
    /// continuous variables and integers fixed at the root. Branch boxes
    /// translate through [`ColMap::box_updates`].
    int_maps: Vec<Option<ColMap>>,
    kernel: Revised,
    /// Which cut rows have been activated (tightened to their
    /// integer-valid rhs). Activated rhs values live in `kernel.b`, and
    /// [`crate::revised::Revised::rebuilt`] copies `b` forward — so
    /// activations survive every recovery-ladder rebuild without
    /// re-application.
    active_cuts: Vec<bool>,
}

impl<'a> WarmBackend<'a> {
    /// A fresh backend: its own kernel over the shared form, running
    /// against the solve-wide `deadline`.
    pub(crate) fn new(
        model: &'a Model,
        form: Arc<BoxedForm>,
        int_maps: Vec<Option<ColMap>>,
        opts: &SolverOptions,
        deadline: Option<Instant>,
    ) -> WarmBackend<'a> {
        let mut kernel = Revised::new(&form, opts);
        kernel.set_deadline(deadline);
        WarmBackend {
            model,
            active_cuts: vec![false; form.cut_rows.len()],
            form,
            int_maps,
            kernel,
        }
    }

    /// Dual-reoptimizes the kernel **in place** (no refactorization): any
    /// dual-feasible basis is a valid warm-start seed for any rhs, so the
    /// state the previous node left behind works directly. `Err` values
    /// are *soft* failures (fall back) except [`SolveError::Infeasible`],
    /// which is a genuine verdict.
    fn try_warm_in_place(&mut self, opts: &SolverOptions) -> Result<(), SolveError> {
        // Bounded reoptimization: a healthy warm start takes a handful of
        // pivots; if the dual run exceeds this budget a cold solve is
        // cheaper than fighting degeneracy.
        let (m, n) = self.kernel.dims();
        let mut dual_budget = (1_000 + m + n / 4).min(opts.max_pivots);
        self.kernel.dual_reopt(opts, &mut dual_budget)?;
        let mut budget = opts.max_pivots;
        self.kernel.primal_opt(opts, &mut budget)?;
        if self.kernel.has_active_artificial(1e-6) {
            return Err(SolveError::Numerical("artificial reactivated".into()));
        }
        Ok(())
    }

    /// Like [`WarmBackend::try_warm_in_place`] but re-installing an
    /// explicit (parent) basis first — the fallback when the in-place
    /// state is unusable.
    fn try_warm_install(
        &mut self,
        opts: &SolverOptions,
        state: &BasisState,
    ) -> Result<(), SolveError> {
        self.kernel.install_basis(state)?;
        self.try_warm_in_place(opts)
    }

    /// Reoptimizes after a bound change without node bookkeeping (used by
    /// the round-and-fix heuristic); cold fallback included.
    fn reopt_in_place(&mut self, opts: &SolverOptions) -> Result<(), SolveError> {
        let warm = if self.kernel.dual_ok() {
            self.try_warm_in_place(opts)
        } else {
            Err(SolveError::Numerical("kernel not dual feasible".into()))
        };
        match warm {
            Ok(()) => Ok(()),
            Err(SolveError::Infeasible) => Err(SolveError::Infeasible),
            Err(_) => {
                let mut budget = opts.max_pivots;
                self.kernel.solve_two_phase(opts, &mut budget)
            }
        }
    }

    /// The solution at the kernel's current optimum.
    fn node_solution(&self) -> Solution {
        let values = self.form.sf.recover(&self.kernel.values());
        let objective = self.model.objective.eval(&values);
        Solution {
            values,
            objective,
            status: Status::Optimal,
        }
    }

    /// The per-node recovery ladder, rungs 3–6 of [`crate::recover`]:
    /// product-form switch → cold rebuild → Bland-only pricing →
    /// dense-oracle kernel. Entered after a cold solve failed with a
    /// retryable error (budget/numerics) or produced a bound the
    /// residual trust gate refused. Every rung is counted before its
    /// attempt, re-solves from scratch on a fresh pivot budget, and must
    /// itself pass the trust gate; `Infeasible`/`Unbounded` from a rung
    /// is a genuine verdict. On success (or a verdict) the original
    /// configuration is restored — the next node then cold-starts
    /// through the ordinary warm-fallback path. Total failure returns
    /// the error that started the ladder.
    fn recover_node(
        &mut self,
        opts: &SolverOptions,
        first: SolveError,
    ) -> Result<Solution, SolveError> {
        for rung in 0..4u8 {
            // The ladder must not fight a spent wall clock: each failed
            // attempt would just re-pay the solve entry check.
            if self.kernel.out_of_time() {
                break;
            }
            match rung {
                0 => {
                    self.kernel.recovery.product_form_switches += 1;
                    self.kernel.set_update_kind(UpdateKind::ProductForm);
                }
                1 => {
                    self.kernel.recovery.cold_rebuilds += 1;
                    self.kernel = self.kernel.rebuilt(&self.form, opts);
                }
                2 => {
                    self.kernel.recovery.bland_restarts += 1;
                    self.kernel.set_force_bland(true);
                }
                _ => {
                    self.kernel.recovery.dense_oracle_solves += 1;
                    let dense = SolverOptions {
                        factor: FactorKind::Dense,
                        update: UpdateKind::ProductForm,
                        ..opts.clone()
                    };
                    self.kernel = self.kernel.rebuilt(&self.form, &dense);
                }
            }
            let mut budget = opts.max_pivots;
            match self.kernel.solve_two_phase(opts, &mut budget) {
                Ok(()) => {
                    if self.kernel.verify_residual(opts) {
                        // Extract before the restore discards the state.
                        let sol = self.node_solution();
                        self.restore_kernel(opts);
                        return Ok(sol);
                    }
                    // Untrustworthy bound: escalate to the next rung.
                }
                Err(e @ (SolveError::Infeasible | SolveError::Unbounded)) => {
                    self.restore_kernel(opts);
                    return Err(e);
                }
                Err(_) => {}
            }
        }
        // Exhausted (or out of time): leave a clean configuration behind
        // and report the failure that started the ladder.
        self.restore_kernel(opts);
        Err(first)
    }

    /// Restores the pre-ladder configuration: Bland forcing off, a fresh
    /// kernel under the original options. The fresh kernel has no basis
    /// yet — [`WarmBackend::snapshot`] guards against handing that state
    /// to children, and the next node solve re-establishes one (warm
    /// from its parent snapshot, or cold).
    fn restore_kernel(&mut self, opts: &SolverOptions) {
        self.kernel.set_force_bland(false);
        self.kernel = self.kernel.rebuilt(&self.form, opts);
    }

    /// Mirrors cut activations other workers published in `flags` into
    /// this kernel (an rhs tightening preserves dual feasibility, so the
    /// warm start survives).
    pub(crate) fn sync_cuts(&mut self, flags: &[AtomicBool]) {
        for (i, flag) in flags.iter().enumerate() {
            if !self.active_cuts[i] && flag.load(MemOrdering::Relaxed) {
                let cr = self.form.cut_rows[i];
                self.kernel.set_rhs(cr.row, cr.strong_b);
                self.active_cuts[i] = true;
            }
        }
    }

    /// Pushes a model variable's current box into the LP (a no-op for
    /// variables without standard-form columns, i.e. fixed at the root).
    pub(crate) fn set_var_box(&mut self, vi: usize, lo: f64, hi: f64) {
        if let Some(map) = self.int_maps[vi] {
            for (col, l, u) in map.box_updates(lo, hi).into_iter().flatten() {
                self.kernel.set_col_bounds(col, l, u);
            }
        }
    }

    /// Solves the current node LP: in-place dual reoptimization when the
    /// kernel state allows it, else from the parent basis, else cold.
    pub(crate) fn solve_node(
        &mut self,
        opts: &SolverOptions,
        parent: Option<&BasisState>,
        stats: &mut BranchBoundStats,
    ) -> Result<Solution, SolveError> {
        if let Some(parent_state) = parent.filter(|_| opts.warm_start) {
            let outcome = if self.kernel.dual_ok() {
                self.try_warm_in_place(opts)
            } else {
                Err(SolveError::Numerical("kernel not dual feasible".into()))
            };
            let outcome = match outcome {
                // Soft failure: retry from the parent's optimal basis.
                Err(e) if e != SolveError::Infeasible => self.try_warm_install(opts, parent_state),
                other => other,
            };
            match outcome {
                Ok(()) => {
                    // Residual trust gate: a bound computed on drifting
                    // factors must not prune — fall through to the cold
                    // path instead (the gate already healed the factors).
                    if self.kernel.verify_residual(opts) {
                        stats.warm_solves += 1;
                        return Ok(self.node_solution());
                    }
                }
                Err(SolveError::Infeasible) => {
                    // A dual-simplex proof of infeasibility concluded
                    // the node — that is a successful warm solve.
                    stats.warm_solves += 1;
                    return Err(SolveError::Infeasible);
                }
                // Iteration limit, numerics, singular basis: retry cold.
                Err(_) => {}
            }
        }
        stats.cold_solves += 1;
        let mut budget = opts.max_pivots;
        match self.kernel.solve_two_phase(opts, &mut budget) {
            Ok(()) => {
                if self.kernel.verify_residual(opts) {
                    return Ok(self.node_solution());
                }
                self.recover_node(
                    opts,
                    SolveError::Numerical("residual drift at node bound".into()),
                )
            }
            // Genuine verdicts end the node; retryable failures (budget,
            // numerics) enter the recovery ladder.
            Err(e @ (SolveError::Infeasible | SolveError::Unbounded)) => Err(e),
            Err(first) => self.recover_node(opts, first),
        }
    }

    /// Warm-start state children should resume from (`None` when warm
    /// starts are disabled or the kernel has no basis).
    pub(crate) fn snapshot(&self, opts: &SolverOptions) -> Option<BasisState> {
        // Skipped entirely in the cold A/B configuration, which never
        // reads it; also skipped right after a ladder restore, whose
        // fresh kernel has no basis to hand to children yet.
        (opts.warm_start && self.kernel.has_basis()).then(|| self.kernel.basis_snapshot())
    }

    /// Pin every branchable integer's box to the rounded relaxation
    /// value, reoptimize the continuous part from the current basis, and
    /// return the result. The pre-heuristic basis is restored afterwards
    /// so the next node's in-place warm start resumes from the node
    /// optimum instead of re-navigating away from the heuristic's pinned
    /// vertex (a no-op when the polish took zero pivots).
    pub(crate) fn round_and_fix(
        &mut self,
        opts: &SolverOptions,
        pins: &[(usize, f64)],
        restore: &[(usize, f64, f64)],
        fallback: &Solution,
    ) -> Solution {
        // The basis restore below only matters when later solves warm
        // start in place; cold mode re-crashes every node anyway. A
        // kernel fresh off a ladder restore has no basis to save.
        let pre_basis =
            (opts.warm_start && self.kernel.has_basis()).then(|| self.kernel.basis_snapshot());
        for &(vi, val) in pins {
            self.set_var_box(vi, val, val);
        }
        let solved = self.reopt_in_place(opts);
        let candidate = if solved.is_ok() && self.kernel.verify_residual(opts) {
            self.node_solution()
        } else {
            // The polish re-solve failed (rare numerics) or its result
            // flunked the residual trust gate; fall back to the
            // relaxation point itself rather than dropping it.
            fallback.clone()
        };
        for &(vi, l, h) in restore {
            self.set_var_box(vi, l, h);
        }
        if let Some(pre_basis) = pre_basis {
            if self.kernel.install_basis(&pre_basis).is_ok() {
                // The restored basis is the node's phase-2 optimum, hence
                // dual feasible; a (normally zero-pivot) dual pass
                // re-certifies it so the next node can warm-start in place.
                let mut budget = opts.max_pivots;
                let _ = self.kernel.dual_reopt(opts, &mut budget);
            }
        }
        candidate
    }

    /// Hint seeding: pin `pins`, solve from scratch, restore the boxes in
    /// `restore`, and return the solution (`None` when the pinned LP
    /// fails).
    pub(crate) fn seed_hint(
        &mut self,
        opts: &SolverOptions,
        pins: &[(usize, f64)],
        restore: &[(usize, f64, f64)],
    ) -> Option<Solution> {
        for &(vi, val) in pins {
            self.set_var_box(vi, val, val);
        }
        let mut budget = opts.max_pivots;
        let sol = match self.kernel.solve_two_phase(opts, &mut budget) {
            // The hint becomes an incumbent, so it passes the same
            // residual trust gate as node bounds.
            Ok(()) if self.kernel.verify_residual(opts) => Some(self.node_solution()),
            _ => None,
        };
        for &(vi, l, h) in restore {
            self.set_var_box(vi, l, h);
        }
        sol
    }

    /// Folds this backend's kernel telemetry into `stats`
    /// **additively**: counters accumulate, peaks take the max, and the
    /// recovery ledger is absorbed rather than overwritten. The merge
    /// layer calls it once per worker into the same struct, so an
    /// assignment here would silently drop every worker's counters but
    /// the last — including recovery counters from fallback re-solves.
    pub(crate) fn finish(&self, stats: &mut BranchBoundStats) {
        stats.simplex_iters += self.kernel.iters;
        stats.refactors += self.kernel.factor_stats.refactors;
        stats.ft_updates += self.kernel.factor_stats.ft_updates;
        stats.forced_refactors += self.kernel.factor_stats.forced_refactors;
        stats.peak_lu_nnz = stats.peak_lu_nnz.max(self.kernel.factor_stats.peak_lu_nnz);
        stats.peak_u_nnz = stats.peak_u_nnz.max(self.kernel.factor_stats.peak_u_nnz);
        stats.basis_rows = self.kernel.dims().0;
        stats.recovery.absorb(self.kernel.recovery());
        stats.dual_pivots += self.kernel.pivot_stats.dual_pivots;
        stats.primal_pivots += self.kernel.pivot_stats.primal_pivots;
        stats.bound_flips += self.kernel.pivot_stats.bound_flips;
    }

    /// Checks every inactive cut against `sol`, activates the violated
    /// ones (tightening their row rhs to the integer-valid value in
    /// place), publishes each activation in `flags`, and returns how
    /// many fired — the caller must then re-solve the node LP.
    pub(crate) fn separate_cuts(&mut self, sol: &Solution, flags: &[AtomicBool]) -> usize {
        let mut activated = 0;
        for (i, cr) in self.form.cut_rows.iter().enumerate() {
            if self.active_cuts[i] {
                continue;
            }
            let cut = &self.model.cuts[cr.cut];
            if cut.expr.eval(&sol.values) < cut.rhs - 1e-6 {
                // Tighten the row in place: an rhs change leaves reduced
                // costs (dual feasibility) untouched, so the next dual
                // reoptimization re-solves from the current basis.
                self.kernel.set_rhs(cr.row, cr.strong_b);
                self.active_cuts[i] = true;
                flags[i].store(true, MemOrdering::Relaxed);
                activated += 1;
            }
        }
        activated
    }

    /// Strong-branch probe: a bounded dual reoptimization of the child
    /// box `[lo, hi]` of `vi` from the current node optimum, restoring
    /// the box `[restore_lo, restore_hi]` (but not the basis — any
    /// dual-feasible basis warm-starts any node) afterwards.
    fn probe_branch(
        &mut self,
        opts: &SolverOptions,
        vi: usize,
        lo: f64,
        hi: f64,
        restore_lo: f64,
        restore_hi: f64,
    ) -> ProbeOutcome {
        if self.int_maps[vi].is_none() || !opts.warm_start || !self.kernel.dual_ok() {
            return ProbeOutcome::Skipped;
        }
        self.set_var_box(vi, lo, hi);
        let mut budget = STRONG_BRANCH_PIVOTS;
        let out = match self.kernel.dual_reopt(opts, &mut budget) {
            Ok(()) if !self.kernel.has_active_artificial(1e-6) => ProbeOutcome::Bound(
                self.model
                    .objective
                    .eval(&self.form.sf.recover(&self.kernel.values())),
            ),
            Ok(()) => ProbeOutcome::Skipped,
            Err(SolveError::Infeasible) => ProbeOutcome::Infeasible,
            // Budget exhausted or numerics: no usable probe bound.
            Err(_) => ProbeOutcome::Skipped,
        };
        self.set_var_box(vi, restore_lo, restore_hi);
        out
    }
}

// ---------------------------------------------------------------------------
// Search tree and branching
// ---------------------------------------------------------------------------

/// One node of the branch tree: a single bound tightening of `vi` on top
/// of `parent`. Activating a node walks the tree from the previously
/// active one (undo to the lowest common ancestor, apply down), so the
/// stepwise box mutations — and hence the kernel state — are identical to
/// what the historical recursive DFS produced.
#[derive(Clone, Copy)]
pub(crate) struct TreeNode {
    pub(crate) parent: usize,
    pub(crate) depth: usize,
    /// Model variable branched on (`usize::MAX` for the root).
    pub(crate) vi: usize,
    /// The tightened box of `vi` at this node.
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    /// `vi`'s box at the parent (for the undo walk).
    pub(crate) parent_lo: f64,
    pub(crate) parent_hi: f64,
    /// `true` when this is the up (ceil) child of its branching.
    pub(crate) up: bool,
    /// Fractionality of the parent relaxation value toward this side
    /// (`val - ⌊val⌋` down, `⌈val⌉ - val` up); 0 at the root.
    pub(crate) frac: f64,
    /// Parent relaxation objective (model sense) — the baseline a
    /// pseudo-cost observation measures this node's bound degradation
    /// against. NaN at the root.
    pub(crate) parent_obj: f64,
}

impl TreeNode {
    /// The root sentinel (no parent, no tightening).
    pub(crate) fn root() -> TreeNode {
        TreeNode {
            parent: usize::MAX,
            depth: 0,
            vi: usize::MAX,
            lo: 0.0,
            hi: 0.0,
            parent_lo: 0.0,
            parent_hi: 0.0,
            up: false,
            frac: 0.0,
            parent_obj: f64::NAN,
        }
    }
}

/// The two children of branching `vi` at fractional value `val` inside
/// the box `[plo, phi]`, returned `[far, near]` (the nearer branching
/// side last, so LIFO consumers pop it first and equal-bound heap ties
/// resolve toward it). Children whose box would be empty are `None`.
pub(crate) fn branch_children(
    parent: usize,
    depth: usize,
    vi: usize,
    val: f64,
    plo: f64,
    phi: f64,
    parent_obj: f64,
) -> [Option<TreeNode>; 2] {
    let floor = val.floor();
    let ceil = val.ceil();
    let down_first = val - floor <= ceil - val;
    let down_child = (plo <= phi.min(floor)).then(|| TreeNode {
        parent,
        depth,
        vi,
        lo: plo,
        hi: phi.min(floor),
        parent_lo: plo,
        parent_hi: phi,
        up: false,
        frac: val - floor,
        parent_obj,
    });
    let up_child = (plo.max(ceil) <= phi).then(|| TreeNode {
        parent,
        depth,
        vi,
        lo: plo.max(ceil),
        hi: phi,
        parent_lo: plo,
        parent_hi: phi,
        up: true,
        frac: ceil - val,
        parent_obj,
    });
    if down_first {
        [up_child, down_child]
    } else {
        [down_child, up_child]
    }
}

/// Most-fractional branching: highest priority class first, most
/// fractional within it, **ties broken toward the lowest `VarId`** —
/// explicit, so selection never depends on the iteration order of
/// `int_vars` (the workers=1 bit-exactness contract). Returns `None`
/// when the point is integral.
pub(crate) fn most_fractional_of(
    model: &Model,
    int_vars: &[VarId],
    int_tol: f64,
    sol: &Solution,
) -> Option<(VarId, f64)> {
    let mut best: Option<(VarId, f64)> = None;
    let mut best_key = (i32::MIN, int_tol);
    for &v in int_vars {
        let val = sol.value(v);
        let frac = (val - val.round()).abs();
        if frac <= int_tol {
            continue;
        }
        let key = (model.var(v).priority(), frac);
        let wins = key > best_key || (key == best_key && best.is_some_and(|(bv, _)| v < bv));
        if wins {
            best_key = key;
            best = Some((v, val));
        }
    }
    best
}

/// Pseudo-cost branching with reliability probes: among the fractional
/// candidates of the highest priority class, strong-branch (bounded
/// dual-simplex probe of both children) the most fractional candidates
/// whose pseudo-costs are not yet reliable, record the observed
/// degradations, and pick the candidate maximizing the product score
/// `max(down·f⁻, ε) · max(up·f⁺, ε)`. A probe that proves a child
/// infeasible scores `+∞` (branching there closes one side for free)
/// but never prunes. Ties break toward higher fractionality, then lower
/// `VarId`. Returns `None` when the point is integral.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_branch_var(
    backend: &mut WarmBackend,
    model: &Model,
    opts: &SolverOptions,
    int_vars: &[VarId],
    sol: &Solution,
    lo: &[f64],
    hi: &[f64],
    sense_mul: f64,
    pseudo: &PseudoCosts,
    stats: &mut BranchBoundStats,
) -> Option<(VarId, f64)> {
    struct Cand {
        v: VarId,
        val: f64,
        frac: f64,
        fd: f64,
        fu: f64,
        /// Probed degradations (NaN = not probed → use the estimate).
        down: f64,
        up: f64,
    }
    let mut cands: Vec<Cand> = Vec::new();
    let mut top = i32::MIN;
    for &v in int_vars {
        let val = sol.value(v);
        let frac = (val - val.round()).abs();
        if frac <= opts.int_tol {
            continue;
        }
        let p = model.var(v).priority();
        if p > top {
            top = p;
            cands.clear();
        }
        if p == top {
            cands.push(Cand {
                v,
                val,
                frac,
                fd: val - val.floor(),
                fu: val.ceil() - val,
                down: f64::NAN,
                up: f64::NAN,
            });
        }
    }
    if cands.is_empty() {
        return None;
    }
    if cands.len() == 1 {
        return Some((cands[0].v, cands[0].val));
    }
    // Reliability rule: strong-branch the most fractional candidates
    // whose weaker direction has fewer than `RELIABILITY` observations.
    let mut unreliable: Vec<usize> = (0..cands.len())
        .filter(|&i| {
            let vi = cands[i].v.index();
            let seen = pseudo
                .observations(vi, false)
                .min(pseudo.observations(vi, true));
            seen < RELIABILITY
        })
        .collect();
    unreliable.sort_by(|&a, &b| {
        cands[b]
            .frac
            .total_cmp(&cands[a].frac)
            .then(cands[a].v.index().cmp(&cands[b].v.index()))
    });
    unreliable.truncate(STRONG_BRANCH_CANDIDATES);
    for i in unreliable {
        let (vi, val, fd, fu) = {
            let c = &cands[i];
            (c.v.index(), c.val, c.fd, c.fu)
        };
        let (l, h) = (lo[vi], hi[vi]);
        let node_obj = sense_mul * sol.objective;
        let (floor, ceil) = (val.floor(), val.ceil());
        // An empty child box is an infeasible side by construction.
        let down = if l <= h.min(floor) {
            backend.probe_branch(opts, vi, l, h.min(floor), l, h)
        } else {
            ProbeOutcome::Infeasible
        };
        let up = if l.max(ceil) <= h {
            backend.probe_branch(opts, vi, l.max(ceil), h, l, h)
        } else {
            ProbeOutcome::Infeasible
        };
        let mut probed = false;
        for (out, is_up, f) in [(down, false, fd), (up, true, fu)] {
            match out {
                ProbeOutcome::Bound(obj) => {
                    probed = true;
                    let degrade = (sense_mul * obj - node_obj).max(0.0);
                    if f > opts.int_tol {
                        pseudo.record(vi, is_up, degrade / f);
                        stats.pseudo_updates += 1;
                    }
                    let slot = if is_up {
                        &mut cands[i].up
                    } else {
                        &mut cands[i].down
                    };
                    *slot = degrade;
                }
                ProbeOutcome::Infeasible => {
                    probed = true;
                    let slot = if is_up {
                        &mut cands[i].up
                    } else {
                        &mut cands[i].down
                    };
                    *slot = f64::INFINITY;
                }
                ProbeOutcome::Skipped => {}
            }
        }
        if probed {
            stats.strong_branches += 1;
        }
    }
    // Product-rule scoring, probe results overriding estimates.
    let mut best_i = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, c) in cands.iter().enumerate() {
        let vi = c.v.index();
        let d = if c.down.is_nan() {
            pseudo.estimate(vi, false) * c.fd
        } else {
            c.down
        };
        let u = if c.up.is_nan() {
            pseudo.estimate(vi, true) * c.fu
        } else {
            c.up
        };
        let score = d.max(1e-6) * u.max(1e-6);
        let wins = score > best_score
            || (score == best_score && {
                let b = &cands[best_i];
                c.frac > b.frac || (c.frac == b.frac && c.v < b.v)
            });
        if wins {
            best_score = score;
            best_i = i;
        }
    }
    Some((cands[best_i].v, cands[best_i].val))
}

/// An open (queued) node: arena index, parent LP bound, ordering key,
/// push sequence number, and the parent's basis for warm-start handoff.
pub(crate) struct OpenNode {
    pub(crate) node: usize,
    /// Valid (parent) LP bound, signed (minimization form) — what
    /// pruning and discard tests compare against the incumbent.
    pub(crate) bound: f64,
    /// Heap-ordering key, signed. Equals `bound` except under
    /// pseudo-cost best-bound, where it is the best-estimate score
    /// `bound + Σ pseudo-cost·fractionality` — a prediction, never used
    /// to prune.
    pub(crate) key: f64,
    pub(crate) seq: usize,
    pub(crate) basis: Option<Arc<BasisState>>,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    /// "Greatest" (popped first by the max-heap) = smallest bound key;
    /// ties break toward the most recently pushed node, so equal-bound
    /// stretches still dive like DFS.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The open-node container: LIFO stack for DFS, bound-keyed priority
/// queue for best-bound.
pub(crate) enum Frontier {
    Dfs(Vec<OpenNode>),
    Best(BinaryHeap<OpenNode>),
}

impl Frontier {
    pub(crate) fn new(order: NodeOrder) -> Frontier {
        match order {
            NodeOrder::DfsNearerFirst => Frontier::Dfs(Vec::new()),
            NodeOrder::BestBound => Frontier::Best(BinaryHeap::new()),
        }
    }
    pub(crate) fn push(&mut self, n: OpenNode) {
        match self {
            Frontier::Dfs(v) => v.push(n),
            Frontier::Best(h) => h.push(n),
        }
    }
    pub(crate) fn pop(&mut self) -> Option<OpenNode> {
        match self {
            Frontier::Dfs(v) => v.pop(),
            Frontier::Best(h) => h.pop(),
        }
    }
    pub(crate) fn len(&self) -> usize {
        match self {
            Frontier::Dfs(v) => v.len(),
            Frontier::Best(h) => h.len(),
        }
    }
    /// Minimum valid LP bound over the open nodes (`+∞` when empty).
    /// Under pseudo-cost scoring the heap is estimate-ordered, so the
    /// minimum genuinely requires the scan.
    pub(crate) fn min_bound(&self) -> f64 {
        let fold = |it: &mut dyn Iterator<Item = f64>| it.fold(f64::INFINITY, f64::min);
        match self {
            Frontier::Dfs(v) => fold(&mut v.iter().map(|o| o.bound)),
            Frontier::Best(h) => fold(&mut h.iter().map(|o| o.bound)),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared entry points
// ---------------------------------------------------------------------------

pub(crate) fn finish(
    best: Option<Solution>,
    stats: BranchBoundStats,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    let truncated = stats.truncated;
    match best {
        Some(mut sol) => {
            sol.status = if truncated {
                Status::Feasible
            } else {
                Status::Optimal
            };
            Ok((sol, stats))
        }
        None if truncated => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}

/// Solves a mixed-integer model; see [`Model::solve_with`] and
/// [`Model::solve_with_hint`].
pub(crate) fn solve(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
) -> Result<Solution, SolveError> {
    let (sol, _stats) = solve_with_stats_hinted(model, opts, hint)?;
    Ok(sol)
}

/// Like [`Model::solve_with`] but also returns search statistics.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when no integral point exists,
/// [`SolveError::Unbounded`] when the relaxation is unbounded, and
/// [`SolveError::IterationLimit`] when limits stopped the search before any
/// incumbent was found.
pub fn solve_with_stats(
    model: &Model,
    opts: &SolverOptions,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    solve_with_stats_hinted(model, opts, &[])
}

/// [`solve_with_stats`] with a warm-start hint for the integer variables.
///
/// # Errors
///
/// See [`solve_with_stats`].
pub fn solve_with_stats_hinted(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
) -> Result<(Solution, BranchBoundStats), SolveError> {
    // One deadline for the whole solve, captured here and installed on
    // every kernel the search constructs: N workers (or ladder rebuilds)
    // share a single wall-clock budget instead of each starting a fresh
    // one.
    let deadline = opts.time_limit.map(|limit| Instant::now() + limit);
    // All option normalization happens in one place; the original
    // kernel request is only remembered to arm the whole-solve oracle
    // cross-validation below.
    let want_oracle = opts.kernel == Kernel::DenseTableau;
    let (eff, notes) = opts.resolve();
    let opts = &eff;
    let form = BoxedForm::build(model);
    if form.sf.proven_infeasible {
        // A constant row is violated: no point of any kind exists.
        return Err(SolveError::Infeasible);
    }
    // Every non-fixed integer — shifted, mirrored, or free (split) —
    // branches natively through its standard-form substitution.
    let int_maps: Vec<Option<ColMap>> = model
        .vars
        .iter()
        .enumerate()
        .map(|(vi, var)| {
            if !var.integer {
                return None;
            }
            match form.sf.map[vi] {
                ColMap::Fixed { .. } => None,
                map => Some(map),
            }
        })
        .collect();
    let mut result = if form.sf.rows.is_empty() {
        // Every constraint was constant (and satisfied): the model
        // separates per variable and solves in closed form.
        solve_rowless(model, opts)
    } else {
        crate::parallel::search(model, opts, hint, Arc::new(form), int_maps, deadline)
    };
    if let Ok((sol, stats)) = &mut result {
        if want_oracle {
            cross_validate_dense(model, opts, sol)?;
        }
        stats.resolve_notes = notes;
    }
    result
}

/// Closed-form solve of a rowless model (every constraint folded to a
/// satisfied constant): the objective separates per variable, so each
/// one independently takes the best value in its (integer-tightened)
/// box. Mirrors the rowless short-circuit of the standalone LP path but
/// over the integer lattice.
fn solve_rowless(
    model: &Model,
    opts: &SolverOptions,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    let sense_mul = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; model.vars.len()];
    for (v, c) in model.objective.iter() {
        cost[v.index()] += c * sense_mul;
    }
    let mut values = Vec::with_capacity(model.vars.len());
    for (vi, var) in model.vars.iter().enumerate() {
        let (mut l, mut u) = (var.lower, var.upper);
        if var.integer {
            if l.is_finite() {
                l = (l - opts.int_tol).ceil();
            }
            if u.is_finite() {
                u = (u + opts.int_tol).floor();
            }
            if l > u {
                // No integer fits the box (e.g. fixed at a fraction).
                return Err(SolveError::Infeasible);
            }
        }
        let c = cost[vi];
        let x = if c > opts.feas_tol {
            if !l.is_finite() {
                return Err(SolveError::Unbounded);
            }
            l
        } else if c < -opts.feas_tol {
            if !u.is_finite() {
                return Err(SolveError::Unbounded);
            }
            u
        } else if l.is_finite() {
            // Costless variables rest at a bound (matching the LP
            // relaxation's shifted/mirrored origin), at 0 when free.
            l
        } else if u.is_finite() {
            u
        } else {
            0.0
        };
        values.push(x);
    }
    let objective = model.objective.eval(&values);
    let sol = Solution {
        values,
        objective,
        status: Status::Optimal,
    };
    let stats = BranchBoundStats {
        nodes: 1,
        incumbents: 1,
        root_bound: objective,
        dual_bound: objective,
        cold_solves: 1,
        first_incumbent_node: 1,
        incumbent_trace: vec![(1, objective)],
        node_bounds: vec![objective],
        queue_peak: 1,
        order: opts.node_order,
        ..BranchBoundStats::default()
    };
    Ok((sol, stats))
}

/// Whole-solve oracle cross-validation, armed when the caller requested
/// [`Kernel::DenseTableau`] for a MILP: the search itself ran on the
/// unified warm backend (in the oracle configuration from
/// [`SolverOptions::resolve`]); here the incumbent's integer assignment
/// is pinned on a model clone and re-solved by the genuine dense
/// tableau, which must reproduce the objective. The incumbent point is
/// feasible for the pinned model and every point of the pinned model
/// lies in the incumbent's node box, so the two objectives tie at an
/// exact optimum — any disagreement is a numerical verdict, not noise.
fn cross_validate_dense(
    model: &Model,
    opts: &SolverOptions,
    sol: &Solution,
) -> Result<(), SolveError> {
    let mut pinned = model.clone();
    for (v, var) in model.vars() {
        if var.is_integer() {
            let val = sol.value(v).round().clamp(var.lower(), var.upper());
            pinned.fix_var(v, val);
        }
    }
    let oracle = SolverOptions {
        kernel: Kernel::DenseTableau,
        ..opts.clone()
    };
    let check = match pinned.solve_relaxation_counted(&oracle) {
        Ok((check, _pivots)) => check,
        Err(e) => {
            return Err(SolveError::Numerical(format!(
                "dense-oracle cross-validation failed on the pinned incumbent: {e:?}"
            )))
        }
    };
    let tol = 1e-6 * sol.objective.abs().max(1.0);
    if (check.objective - sol.objective).abs() > tol {
        return Err(SolveError::Numerical(format!(
            "dense-oracle cross-validation disagrees: search {} vs tableau {}",
            sol.objective, check.objective
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{cmp, Model, Sense};
    use crate::LinExpr;

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary → a=0,b=1,c=1 (20)
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_integer("a", 0.0, 1.0);
        let b = m.add_integer("b", 0.0, 1.0);
        let c = m.add_integer("c", 0.0, 1.0);
        m.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
        m.add_constraint(3.0 * a + 4.0 * b + 2.0 * c, cmp::LE, 6.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 20.0).abs() < 1e-6, "obj {}", sol.objective);
        assert_eq!(sol.int_value(a), 0);
        assert_eq!(sol.int_value(b), 1);
        assert_eq!(sol.int_value(c), 1);
    }

    #[test]
    fn integer_rounding_is_not_assumed() {
        // LP optimum fractional; integer optimum differs from naive rounding.
        // max y s.t. -x + y <= 0.5, x + y <= 3.5, 0<=x<=3 int, y int
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, 3.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.set_objective(LinExpr::var(y));
        m.add_constraint(-1.0 * x + y, cmp::LE, 0.5);
        m.add_constraint(x + y, cmp::LE, 3.5);
        let sol = m.solve().unwrap();
        // y <= min(x + 0.5, 3.5 - x); best integer: x=1,y=1 or x=2,y=1 → y=1
        assert_eq!(sol.int_value(y), 1);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 2x + y s.t. x + y >= 3.3, x int >= 0, y cont >= 0 → x=0? no:
        // x=0 → y=3.3 cost 3.3; x=1 → y=2.3 cost 4.3. Optimal x=0.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(2.0 * x + y);
        m.add_constraint(x + y, cmp::GE, 3.3);
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x), 0);
        assert!((sol[y] - 3.3).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x == 3 has no integer solution.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 10.0);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(2.0 * x, cmp::EQ, 3.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn negative_integer_ranges() {
        // min x s.t. x >= -2.5, x integer in [-10, 10] → x = -2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", -10.0, 10.0);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -2.5);
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x), -2);
    }

    /// Most-fractional selection golden: when two variables tie on both
    /// priority and fractionality, the lowest `VarId` wins — a pinned
    /// tie-break, not an iteration-order accident. Priority still
    /// dominates fractionality.
    #[test]
    fn most_fractional_ties_break_to_lowest_var_id() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_integer("a", 0.0, 10.0);
        let b = m.add_integer("b", 0.0, 10.0);
        let c = m.add_integer("c", 0.0, 10.0);
        let int_vars = vec![a, b, c];
        let frac = |m: &Model, values: Vec<f64>| {
            let sol = Solution {
                values,
                objective: 0.0,
                status: Status::Feasible,
            };
            most_fractional_of(m, &int_vars, 1e-6, &sol)
        };
        // b and c tie at fractionality 0.5 (a is less fractional):
        // the lower VarId b wins.
        assert_eq!(frac(&m, vec![1.25, 2.5, 3.5]), Some((b, 2.5)));
        // All three tie: the lowest VarId a wins.
        assert_eq!(frac(&m, vec![1.5, 2.5, 3.5]), Some((a, 1.5)));
        // An integral point yields no branching candidate.
        assert_eq!(frac(&m, vec![1.0, 2.0, 3.0]), None);
        // Priority dominates fractionality; within the top priority
        // class the VarId tie-break still applies.
        m.set_priority(b, 5);
        m.set_priority(c, 5);
        assert_eq!(frac(&m, vec![1.5, 2.25, 3.25]), Some((b, 2.25)));
        assert_eq!(frac(&m, vec![1.5, 2.25, 3.75]), Some((b, 2.25)));
    }

    #[test]
    fn node_limit_reports_feasible_or_limit() {
        // A model where optimality needs some search; a 1-node budget must
        // either produce an incumbent (Feasible) or IterationLimit.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 1.0))
            .collect();
        let mut obj = LinExpr::new();
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj += ((i % 3 + 1) as f64) * v;
            row += ((i % 5 + 1) as f64) * v;
        }
        m.set_objective(obj);
        m.add_constraint(row, cmp::LE, 7.5);
        let opts = SolverOptions {
            max_nodes: 1,
            ..Default::default()
        };
        match m.solve_with(&opts) {
            Ok(sol) => assert_eq!(sol.status, Status::Feasible),
            Err(e) => assert_eq!(e, SolveError::IterationLimit),
        }
    }

    /// A node-cap-truncated search holding an incumbent must be
    /// distinguishable from a proven optimum everywhere: solution status,
    /// the `truncated` stats flag, and the incumbent trace.
    #[test]
    fn truncated_search_is_explicitly_feasible_not_optimal() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 1.0))
            .collect();
        let mut obj = LinExpr::new();
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj += (100.0 + (i % 7) as f64 * 0.01) * v;
            row += (100.0 + (i % 5) as f64 * 0.013) * v;
        }
        m.set_objective(obj);
        m.add_constraint(row, cmp::LE, 500.37);
        // A hint guarantees an incumbent exists even at a tiny node cap.
        let hint: Vec<_> = vars.iter().map(|&v| (v, 0.0)).collect();
        let truncated_opts = SolverOptions {
            max_nodes: 2,
            gap_tol: 0.0,
            rounding_heuristic: false,
            ..Default::default()
        };
        let (sol, stats) = solve_with_stats_hinted(&m, &truncated_opts, &hint).unwrap();
        assert_eq!(
            sol.status,
            Status::Feasible,
            "truncated search must not claim Optimal"
        );
        assert!(stats.truncated, "stats must record the truncation");
        // The same model run to completion is Optimal and not truncated.
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(!stats.truncated);
    }

    #[test]
    fn stats_reported() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_integer("a", 0.0, 5.0);
        let b = m.add_integer("b", 0.0, 5.0);
        m.set_objective(3.0 * a + 2.0 * b);
        m.add_constraint(2.0 * a + 3.0 * b, cmp::LE, 11.5);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert!(stats.nodes >= 1);
        assert!(!stats.truncated);
        assert!(stats.simplex_iters >= 1, "no pivots counted");
        assert_eq!(stats.cold_solves + stats.warm_solves, stats.nodes);
        // Root LP bound is at least as good as the integer optimum.
        assert!(stats.root_bound >= sol.objective - 1e-9);
        // New telemetry: every solved node logged a bound, the incumbent
        // trace ends at the returned objective, and the queue peaked.
        assert_eq!(stats.node_bounds.len(), stats.nodes);
        assert!(stats.queue_peak >= 1);
        assert_eq!(stats.incumbent_trace.len(), stats.incumbents);
        let (last_node, last_obj) = *stats.incumbent_trace.last().unwrap();
        assert!(last_node <= stats.nodes);
        assert!((last_obj - sol.objective).abs() < 1e-9);
        assert!(stats.first_incumbent_node <= stats.nodes);
    }

    #[test]
    fn assignment_lp_is_integral_and_fast() {
        // 3x3 assignment problem: totally unimodular, so the relaxation is
        // already integral and B&B should finish at the root.
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut x = vec![];
        for i in 0..3 {
            let mut row = vec![];
            for j in 0..3 {
                row.push(m.add_integer(format!("x{i}{j}"), 0.0, 1.0));
            }
            x.push(row);
        }
        let mut obj = LinExpr::new();
        for (costs, row) in cost.iter().zip(&x) {
            for (&c, &v) in costs.iter().zip(row) {
                obj += c * v;
            }
        }
        m.set_objective(obj);
        for i in 0..3 {
            let mut r = LinExpr::new();
            let mut c = LinExpr::new();
            for (&v, row) in x[i].iter().zip(&x) {
                r += LinExpr::var(v);
                c += LinExpr::var(row[i]);
            }
            m.add_constraint(r, cmp::EQ, 1.0);
            m.add_constraint(c, cmp::EQ, 1.0);
        }
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        // Optimal assignment cost: 2 + 4 + 6 = 12 (several optima).
        assert!((sol.objective - 12.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!(stats.nodes <= 3, "took {} nodes", stats.nodes);
    }

    /// A multi-row knapsack family needing real search, solved at every
    /// kernel / warm-start combination; objectives must agree.
    #[test]
    fn warm_cold_and_oracle_agree() {
        let mut m = Model::new(Sense::Maximize);
        let n = 12;
        let mut obj = LinExpr::new();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 3.0))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            obj += ((i % 5 + 2) as f64) * v;
        }
        m.set_objective(obj);
        for r in 0..5 {
            let mut row = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                row += (((i + r) % 3 + 1) as f64) * v;
            }
            m.add_constraint(row, cmp::LE, 17.5 + r as f64);
        }

        let warm = SolverOptions::default();
        let cold = SolverOptions {
            warm_start: false,
            ..Default::default()
        };
        let oracle = SolverOptions {
            kernel: Kernel::DenseTableau,
            ..Default::default()
        };
        let (s_warm, st_warm) = solve_with_stats(&m, &warm).unwrap();
        let (s_cold, st_cold) = solve_with_stats(&m, &cold).unwrap();
        let (s_oracle, _) = solve_with_stats(&m, &oracle).unwrap();
        assert!((s_warm.objective - s_cold.objective).abs() < 1e-6);
        assert!((s_warm.objective - s_oracle.objective).abs() < 1e-6);
        // Warm starts actually engage and save pivots on this family.
        assert!(st_warm.warm_solves > 0, "no warm solves recorded");
        assert!(
            st_warm.simplex_iters <= st_cold.simplex_iters,
            "warm {} pivots vs cold {}",
            st_warm.simplex_iters,
            st_cold.simplex_iters
        );
    }

    /// Both node orderings, under both kernel requests, agree with each
    /// other on a family needing real search (the dense-tableau request
    /// additionally cross-validates its incumbent against the tableau).
    #[test]
    fn node_orders_agree_across_kernels() {
        let mut m = Model::new(Sense::Maximize);
        let n = 12;
        let mut obj = LinExpr::new();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 3.0))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            obj += ((i % 5 + 2) as f64) * v;
        }
        m.set_objective(obj);
        for r in 0..5 {
            let mut row = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                row += (((i + r) % 3 + 1) as f64) * v;
            }
            m.add_constraint(row, cmp::LE, 17.5 + r as f64);
        }
        let mut objectives = Vec::new();
        for order in [NodeOrder::DfsNearerFirst, NodeOrder::BestBound] {
            for kernel in [Kernel::Revised, Kernel::DenseTableau] {
                let opts = SolverOptions {
                    node_order: order,
                    kernel,
                    ..Default::default()
                };
                let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
                assert!(!stats.truncated, "{order:?}/{kernel:?} truncated");
                assert_eq!(stats.order, order);
                objectives.push(((order, kernel), sol.objective));
            }
        }
        let (_, reference) = objectives[0];
        for &(cfg, obj) in &objectives {
            assert!(
                (obj - reference).abs() < 1e-6,
                "{cfg:?}: {obj} vs reference {reference}"
            );
        }
    }

    /// The options [`SolverOptions::resolve`] normalizes are reported in
    /// the stats: a dense-tableau MILP request runs the search in the
    /// oracle configuration and says so, knob by knob; a request the
    /// engine runs as given carries no notes.
    #[test]
    fn resolve_notes_reach_the_stats() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_integer("a", 0.0, 5.0);
        let b = m.add_integer("b", 0.0, 5.0);
        m.set_objective(3.0 * a + 2.0 * b);
        m.add_constraint(2.0 * a + 3.0 * b, cmp::LE, 11.5);
        let oracle = SolverOptions {
            kernel: Kernel::DenseTableau,
            workers: 2,
            ..Default::default()
        };
        let (_, stats) = solve_with_stats(&m, &oracle).unwrap();
        assert_eq!(stats.resolve_notes, oracle.resolve().1);
        for knob in ["workers", "update", "factor", "warm_start"] {
            assert!(
                stats.resolve_notes.iter().any(|n| n.starts_with(knob)),
                "no {knob} note in {:?}",
                stats.resolve_notes
            );
        }
        let (_, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert!(stats.resolve_notes.is_empty(), "{:?}", stats.resolve_notes);
    }

    /// An integer variable with *fractional* bounds must still get an
    /// integral value: the rounding heuristic clamps into the box, which
    /// used to re-fractionalize the incumbent (x = 2.5 reported as an
    /// "optimal" integer).
    #[test]
    fn fractional_bounds_still_yield_integral_solutions() {
        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_integer("x", 0.0, 2.5);
            m.set_objective(LinExpr::var(x));
            m.add_constraint(LinExpr::var(x), cmp::LE, 10.0);
            let opts = SolverOptions {
                kernel,
                ..Default::default()
            };
            let sol = m.solve_with(&opts).unwrap();
            assert!(
                (sol[x] - 2.0).abs() < 1e-6,
                "{kernel:?}: expected x = 2, got {}",
                sol[x]
            );
        }
    }

    /// Free integers branch natively through their split-pair columns
    /// on the warm path — one cold root solve, every other node a warm
    /// reoptimization — under both node orderings.
    #[test]
    fn free_integer_branches_on_the_warm_path() {
        for order in [NodeOrder::DfsNearerFirst, NodeOrder::BestBound] {
            let mut m = Model::new(Sense::Minimize);
            let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, true);
            m.set_objective(LinExpr::var(x));
            m.add_constraint(LinExpr::var(x), cmp::GE, -2.5);
            let opts = SolverOptions {
                node_order: order,
                ..Default::default()
            };
            let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
            assert_eq!(sol.int_value(x), -2, "{order:?}");
            assert_eq!(
                stats.cold_solves, 1,
                "{order:?}: warm path must engage (one cold root solve)"
            );
            assert_eq!(stats.cold_solves + stats.warm_solves, stats.nodes);
        }
    }

    /// Mirrored integers (finite upper bound, lower −∞) branch through
    /// flipped column boxes; the answer must round toward the feasible
    /// side and stay on the warm path.
    #[test]
    fn mirrored_integer_branches_on_the_warm_path() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, 3.5, true);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -10.0);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.int_value(x), 3);
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.cold_solves + stats.warm_solves, stats.nodes);
    }

    /// A rowless model (every constraint folds to a satisfied constant)
    /// solves in closed form, integer boxes respected.
    #[test]
    fn rowless_models_solve_in_closed_form() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", -4.6, 9.0);
        let y = m.add_integer("y", 1.2, 7.8);
        let z = m.add_continuous("z", 2.0, 5.0);
        m.set_objective(1.0 * x - 2.0 * y + 0.5 * z);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.int_value(x), -4);
        assert_eq!(sol.int_value(y), 7);
        assert!((sol[z] - 2.0).abs() < 1e-9);
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.cold_solves, 1);

        // An integer fixed at a fraction has no lattice point.
        let mut m = Model::new(Sense::Minimize);
        let w = m.add_integer("w", 2.5, 2.5);
        m.set_objective(LinExpr::var(w));
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);

        // A favorable unbounded direction is reported as such.
        let mut m = Model::new(Sense::Maximize);
        let f = m.add_var("f", f64::NEG_INFINITY, f64::INFINITY, true);
        m.set_objective(LinExpr::var(f));
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }
}
