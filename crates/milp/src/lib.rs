//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver.
//!
//! The DAC'09 paper "Retiming and recycling for elastic systems with early
//! evaluation" solves its `MIN_CYC` / `MAX_THR` formulations with CPLEX.
//! No external solver is available to this reproduction, so this crate
//! implements the required machinery from scratch:
//!
//! * a [`Model`] builder with named, bounded, continuous or integer
//!   [`variables`](Model::add_var) and linear [`constraints`](Model::add_constraint),
//! * two LP kernels selected by [`SolverOptions::kernel`] (see below),
//! * a **warm-started branch & bound** driver with a rounding heuristic
//!   for integer programs (see [`solve_with_stats`]),
//! * time / node limits mirroring the 20-minute CPLEX timeout used in the
//!   paper ([`SolverOptions`]).
//!
//! # Kernel architecture
//!
//! The production kernel ([`Kernel::Revised`], the default) is a
//! **bounded-variable revised simplex**:
//!
//! * the constraint matrix is stored as **sparse columns**; variable
//!   bounds live on the columns (`l ≤ y ≤ u`, nonbasic columns rest at
//!   either bound, pricing may end in a bound *flip*), so the basis
//!   dimension is the number of genuine constraint rows — roughly half
//!   of what explicit bound rows would cost on the retiming MILPs;
//! * the basis is factorized as a **sparse LU with Forrest–Tomlin
//!   updates** (`factor` module): the snapshot is a Markowitz-ordered,
//!   threshold-pivoted sparse LU assembled straight from the sparse
//!   columns (`O(nnz(L+U))` storage; [`SolverOptions::factor`] keeps the
//!   old dense LU as a cross-validation oracle), each pivot updates the
//!   factors in place — spike column, one row eta, pivot permuted to the
//!   end ([`SolverOptions::update`] keeps the historical product-form
//!   eta file as the A/B baseline) — FTRAN / BTRAN apply triangular
//!   solves that are column-oriented with zero skipping (cost tracks
//!   the fill-in of the sparse right-hand sides, not `m²`), and the
//!   update state is flushed by refactorization when it grows long or
//!   heavy ([`SolverOptions::refactor_eta_len`], or update fill beyond
//!   eight times the snapshot's nonzeros), or eagerly when an unstable
//!   update is refused;
//! * pricing is **Dantzig's rule** with an automatic **Bland fallback**
//!   after a long degenerate run (see "Simplex pricing" below);
//! * a **dual simplex** reoptimizer repairs primal infeasibility after
//!   right-hand-side or bound mutations from any dual-feasible basis.
//!
//! Branch & bound exploits that last point aggressively (**warm-start
//! policy**): bound/rhs changes never disturb reduced costs, so any
//! optimal basis anywhere in the tree is dual feasible for every node.
//! The search therefore builds the LP once, mutates integer-column boxes
//! in place as it branches, and dual-reoptimizes each node from whatever
//! basis the previous node left behind — typically a handful of pivots
//! and no refactorization. Warm-start misses fall back to a parent-basis
//! install, then a cold two-phase solve; `SolverOptions { warm_start:
//! false, .. }` forces cold node solves for A/B comparisons.
//!
//! # Simplex pricing
//!
//! The kernel has one pricing rule. The primal phases enter the column
//! with the largest dual violation (most negative reduced cost at a
//! lower bound, most positive at an upper bound). The dual reoptimizer
//! leaves on the row with the worst box violation, judged relative to
//! the row's own scale, and enters the column with the smallest
//! `|rc|/|α|` ratio, one breakpoint per pivot, pricing against duals
//! recomputed by one BTRAN every pivot. A long degenerate run switches
//! the primal loop to Bland's rule until the objective moves again;
//! rung 5 of the recovery ladder forces Bland from the first pivot.
//!
//! Steepest-edge pricing (dual steepest-edge rows with lazily anchored
//! Forrest–Goldfarb weights, primal Devex, a long-step dual ratio test
//! and incrementally maintained reduced costs) was the default for a
//! while and has been removed. It saved pivots on node-capped runs, but
//! on the repository benchmark (2-vCPU host) it won no workload: the
//! 20-edge Table-2 sweep took 42–48 s under it against 31–35 s under
//! Dantzig, and proved 15 instead of 17 of the 18 circuits; the large
//! direct MILP solves ran about 16% faster under it but returned
//! incumbents 12% worse (ξ ratio 1.21 against 1.06); the ξ-certification
//! workload, which solves no MILP, tied.
//!
//! Directional pivot counters ([`BranchBoundStats::dual_pivots`] /
//! [`BranchBoundStats::primal_pivots`] /
//! [`BranchBoundStats::bound_flips`]) make the split between the warm
//! dual hot path and the primal phases observable.
//!
//! # Failure taxonomy and recovery ladder
//!
//! Numerical failure handling is centralized in the [`recover`] module
//! rather than scattered per call site. Every failure is classified as a
//! [`NumericalEvent`] (unstable update, singular refactor, cycling
//! suspected, residual drift, pivot/time budget) and answered by one
//! escalation ladder: retry the Forrest–Tomlin update from the entering
//! column → forced refactorization → re-solve the node under
//! [`UpdateKind::ProductForm`] → cold basis rebuild → Bland-only
//! pricing → dense-oracle kernel for that node. A residual health
//! monitor recomputes `‖B·x_B − b_eff‖∞` every few pivots and before
//! any node bound is trusted, so a corrupted factorization can never
//! produce a wrong prune. Which events occurred and which rungs fired is
//! reported in [`BranchBoundStats::recovery`] ([`RecoveryStats`]), and a
//! seeded [`FaultPlan`] ([`SolverOptions::faults`], default off) can
//! inject each failure class deterministically — the fault-injection
//! test and bench gates assert that injected runs prove the same optima
//! as their clean twins.
//!
//! The search itself is **one node loop** (a worker engine; see
//! "Concurrency model") over **one LP backend** — the warm revised
//! kernel — with pluggable **node ordering**
//! ([`SolverOptions::node_order`]): depth-first with the nearer
//! branching side explored first ([`NodeOrder::DfsNearerFirst`], the
//! default), or a best-bound priority queue ([`NodeOrder::BestBound`])
//! that expands nodes in parent-LP-bound order with the parent basis
//! handed off across jumps — the remedy for DFS plateau incumbents
//! under tight node caps. Every integer variable shape branches
//! natively: a node box on a shifted, mirrored (upper-bounded, lower
//! −∞), or fully free (split-pair) integer translates to in-place
//! column-bound updates on the bounded-variable form, so warm starts
//! and pseudo-costs survive across nodes for every model. The historical rebuild-per-node `LegacyBackend` is
//! gone; see the `branch_bound` module docs.
//!
//! # Branching and node scoring
//!
//! Which variable to branch on is chosen by [`SolverOptions::branching`]:
//!
//! * [`Branching::PseudoCost`] (the default) maintains per-variable,
//!   per-direction **pseudo-costs** — running means of the observed LP
//!   bound degradation per unit of fractionality — learned from every
//!   expanded child. Until a variable's history is *reliable* (four
//!   observations per direction), the most fractional unreliable
//!   candidates are **strong-branched**: both children get a dual-simplex
//!   probe of at most 100 pivots, for at most eight candidates per node,
//!   and the observed degradations seed the table. The candidate
//!   maximizing the product score `max(down·f⁻, ε) · max(up·f⁺, ε)` is
//!   branched; a probe that proves a child infeasible biases selection
//!   toward the variable but never prunes, so an unverified probe cannot
//!   break correctness. Under [`NodeOrder::BestBound`] the queue is
//!   keyed on a **best-estimate** score — the node LP bound plus the
//!   pseudo-cost-predicted cost of repairing every remaining fractional
//!   variable — rather than the raw parent bound, and the gap test /
//!   reported [`BranchBoundStats::dual_bound`] use the **global
//!   open-node minimum** (a valid dual bound) instead of the weak root
//!   LP bound. The pseudo-cost table is shared by all workers; updates
//!   and reads are lock-free atomics.
//! * [`Branching::MostFractional`] is the historical rule — highest
//!   [`priority`](Model::set_priority) class first, most fractional
//!   within it, ties broken to the lowest [`VarId`] (a pinned golden,
//!   not an iteration-order accident). The trajectory goldens and the
//!   ordering A/B benches stay pinned to this mode so their numbers
//!   remain comparable across PRs.
//!
//! On the retiming MILPs the `MAX_THR` formulation additionally carries
//! **cycle-sum cuts** (`rr-core`'s formulation layer): every fundamental
//! cycle of the retiming-and-recycling graph needs at least
//! `⌈delay(C)/τ⌉` buffers, but the LP relaxation only implies the token
//! sum. The cut rows are built into the standard form at their
//! LP-implied (weak) right-hand sides and **activated lazily** — a
//! separation pass after each node LP tightens violated rows in place to
//! the integer-valid rhs via the same dual-feasible `set_rhs` mutation
//! the branching boxes use, so warm starts survive and activation costs
//! a few dual pivots ([`BranchBoundStats::cuts_added`] /
//! [`BranchBoundStats::cuts_activated`]).
//!
//! # Concurrency model
//!
//! Every solve runs one **work-stealing branch & bound engine** (the
//! `parallel` module) with [`SolverOptions::workers`] workers: worker 0
//! runs on the calling thread and workers `1..n` in a thread scope, so
//! `workers = 1` (the default) spawns nothing. A single worker follows
//! the historical serial search's rules exactly and is bit-exact with
//! its trajectories; more workers follow the same rules with a
//! nondeterministic interleaving of claims (identical optima and
//! verdicts, not identical trajectories). Every model parallelizes —
//! mirrored and free integers included. Unsupported knob combinations
//! are normalized loudly in one place ([`SolverOptions::resolve`]), not
//! silently ignored per call site; the notes land in
//! [`BranchBoundStats::resolve_notes`]. Ownership is strictly layered:
//!
//! * **Per worker (exclusive):** one `Revised` kernel with its own
//!   sparse LU factors, eta file, fault injector, and recovery ladder
//!   state, plus the worker's locally tracked variable boxes. Nothing
//!   about LP solving is shared, so no kernel state is ever protected by
//!   a lock — a worker re-derives a claimed node's boxes from the shared
//!   branch tree (an LCA walk from the node its kernel last solved) and
//!   applies them to its private kernel.
//! * **Shared (read-only):** the standard form behind an `Arc` — built
//!   once, immutable thereafter.
//! * **Shared (locked):** the open-node frontier, branch-tree arena, and
//!   node/time budget behind one mutex; the incumbent behind a second
//!   mutex. The two are never held simultaneously.
//!
//! **Incumbent publication ordering:** the pruning cutoff is mirrored
//! into an atomic (signed-objective bits) *while the incumbent lock is
//! held*, with `Release` ordering; the hot pruning path reads it
//! `Acquire` without locking. Because the cutoff only ever tightens, a
//! racy read sees at worst a slightly stale (looser) value — a node a
//! single worker would have pruned may get solved redundantly, but no
//! node is ever pruned against an incumbent that does not exist. The
//! same monotonicity argument makes discarding queued nodes at claim
//! time (best-bound only) individually sound: each discarded entry's own
//! bound proves its subtree useless regardless of what other workers
//! are doing.
//!
//! **Why recovery stays worker-local:** the PR 6 ladder mutates the
//! failing kernel (update-kind switch, cold rebuild, Bland pricing,
//! dense-oracle rebuild) and its counters describe *that kernel's*
//! numerical history. Sharing ladder state across workers would couple
//! one worker's numerical trouble to every other worker's healthy
//! factors, and would serialize exactly the slow path that most needs to
//! stay independent. Instead each worker escalates privately and the
//! merge layer folds the per-worker [`RecoveryStats`] ledgers together
//! additively at join, so the reported totals keep one shape at every
//! worker count.
//!
//! A single wall-clock deadline is captured once at solve start and
//! installed on every kernel, so N workers share one
//! [`SolverOptions::time_limit`] budget instead of each getting a fresh
//! one.
//!
//! The original dense full-tableau two-phase simplex is retained as a
//! **kernel-level cross-validation oracle** ([`Kernel::DenseTableau`]):
//! an independent implementation whose objectives and feasibility
//! verdicts the property tests compare against on random LPs/MILPs, the
//! baseline the `milp_scaling` bench measures speedups over
//! (`BENCH_milp.json`), and rung 6 of the per-node recovery ladder. It
//! is no longer a separate search backend: a MILP solved under
//! [`Kernel::DenseTableau`] runs the unified warm search in the oracle
//! configuration and then re-solves the incumbent's pinned integer
//! assignment on the genuine tableau, failing loudly on disagreement.
//!
//! Numerics are deliberately tolerance-based (no exact arithmetic): the
//! retiming/recycling MILPs have at most a few thousand rows and very
//! well-conditioned {-1, 0, 1, τ*} coefficient structure.
//!
//! # Example
//!
//! ```
//! use rr_milp::{Model, Sense, cmp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2.5, x,y >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, 2.5, false);
//! let y = m.add_var("y", 0.0, f64::INFINITY, false);
//! m.set_objective(3.0 * x + 2.0 * y);
//! m.add_constraint(x + y, cmp::LE, 4.0);
//! let sol = m.solve()?;
//! assert!((sol.objective - 10.5).abs() < 1e-6);
//! assert!((sol[x] - 2.5).abs() < 1e-6);
//! # Ok::<(), rr_milp::SolveError>(())
//! ```

mod branch_bound;
mod expr;
mod factor;
mod model;
mod parallel;
pub mod recover;
mod revised;
mod simplex;
mod solution;
mod standard;

pub use branch_bound::{solve_with_stats, solve_with_stats_hinted, BranchBoundStats};
pub use expr::{LinExpr, VarId};
pub use model::{
    cmp, Branching, CmpOp, Constraint, FactorKind, Kernel, Model, NodeOrder, Sense, SolverOptions,
    UpdateKind, Variable,
};
pub use recover::{FaultPlan, NumericalEvent, RecoveryStats};
pub use solution::{Solution, SolveError, Status};

#[cfg(test)]
mod proptests;
