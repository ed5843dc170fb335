//! The branch & bound node loop: a work-stealing worker engine over the
//! warm revised backend. Every MILP solve runs here — `workers = 1` is
//! one worker of this engine on the calling thread, `workers = n` adds
//! `n - 1` scoped threads.
//!
//! Layering (see also the crate-level "Concurrency model" docs):
//!
//! * **Shared frontier** — one [`Frontier`] (best-bound heap or DFS
//!   stack, per [`SolverOptions::node_order`]) plus the branch-tree
//!   arena, the node/time budget, and the `node_bounds` telemetry, all
//!   behind a single `Mutex` with a `Condvar` for idle workers. The
//!   incumbent lives behind its *own* `Mutex`, with the pruning cutoff
//!   mirrored into an atomic (signed-objective bits) so the hot pruning
//!   path never takes a lock. The two locks are never held at once.
//!
//! * **Worker layer** — each worker owns a full [`WarmBackend`]: its own
//!   [`crate::revised::Revised`] kernel, sparse factors, fault injector,
//!   and recovery ladder, sharing only the read-only `Arc<BoxedForm>`.
//!   A worker claims one open node from the frontier and runs it as a
//!   bounded DFS **episode**: children bypass the frontier onto a
//!   worker-local dive stack until the episode cap trips, whereupon the
//!   leftovers — each carrying its own bound key and parent-basis `Arc`
//!   — are flushed back to the shared frontier, where the best bound (or
//!   an idle worker) picks them up. Node boxes are re-derived per worker
//!   by an LCA walk over the shared arena under the lock, applied to the
//!   worker's private kernel after it drops.
//!
//! * **Merge layer** — every worker accumulates private counters and
//!   kernel telemetry; at join they are folded additively (counters sum,
//!   peaks max, recovery ledgers absorb) into one [`BranchBoundStats`].
//!
//! With one worker the engine is fully deterministic, and its rules are
//! the historical serial search's: pruning before a solve happens only
//! under [`NodeOrder::BestBound`]; the gap test runs at every branching
//! node after the rounding heuristic, against the tightest open bound;
//! the episode cap is checked before every pop; and a budget that trips
//! drops the node it was about to solve. The same rules hold for every
//! worker count; only the interleaving of claims differs.
//!
//! Termination: a worker that finds the frontier empty while
//! `outstanding == 0` (no episode still running that could flush more
//! work) declares the search done. Budget exhaustion (shared node cap
//! or the single shared deadline) marks the search truncated and stops
//! every worker at its next node.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::branch_bound::{
    branch_children, finish, select_branch_var, BranchBoundStats, Frontier, OpenNode, PseudoCosts,
    TreeNode, WarmBackend,
};
use crate::expr::VarId;
use crate::model::{Model, NodeOrder, Sense, SolverOptions};
use crate::solution::{Solution, SolveError};
use crate::standard::{BoxedForm, ColMap};

/// Search-wide state behind the frontier lock.
struct Shared {
    frontier: Frontier,
    /// The branch tree. Append-only; indices are stable, so workers can
    /// cache arena indices (`cur`) across lock drops.
    arena: Vec<TreeNode>,
    /// Episodes currently running — claims that have not yet returned.
    /// The frontier being empty proves nothing while this is non-zero:
    /// any running episode may still flush leftovers back.
    outstanding: usize,
    /// Nodes claimed so far (the shared node budget).
    nodes: usize,
    truncated: bool,
    done: bool,
    err: Option<SolveError>,
    root_bound: f64,
    queue_peak: usize,
    /// Slot per claimed node, indexed by claim order; written when the
    /// node's LP concludes (claim order ≠ completion order).
    node_bounds: Vec<f64>,
    /// Push sequence for heap tie-breaking.
    seq: usize,
    /// Per worker: the signed bound of the node it claimed (`+∞` when
    /// idle). A claim's bound lower-bounds every node its episode can
    /// produce, so the frontier joined with the other workers' floors
    /// and a worker's own open nodes is a valid global dual bound even
    /// while episodes are in flight.
    episode_floor: Vec<f64>,
}

impl Shared {
    /// Returns unexplored dive entries to the frontier (their bounds
    /// then count toward the final dual bound).
    fn flush(&mut self, dive: &mut Vec<OpenNode>) {
        for e in dive.drain(..) {
            self.frontier.push(e);
        }
    }
}

/// Incumbent state, separate from [`Shared`] so accepting an incumbent
/// never blocks node claims. The pruning cutoff is mirrored into
/// [`Ctx::cutoff`] *while this lock is held*, so the atomic only ever
/// tightens and a racy read sees, at worst, a slightly stale (looser)
/// cutoff — which can never prune a node that could still improve.
struct Incumbent {
    best: Option<Solution>,
    incumbents: usize,
    first_incumbent_node: usize,
    incumbent_trace: Vec<(usize, f64)>,
}

/// Everything the workers share.
struct Ctx<'m> {
    model: &'m Model,
    opts: &'m SolverOptions,
    int_vars: Vec<VarId>,
    sense_mul: f64,
    /// The single wall-clock deadline, captured once at solve start.
    deadline: Option<Instant>,
    shared: Mutex<Shared>,
    idle: Condvar,
    incumbent: Mutex<Incumbent>,
    /// Bits of the signed incumbent objective (`+inf` = no incumbent).
    cutoff: AtomicU64,
    /// Shared pseudo-cost table, read and updated lock-free (atomics).
    pseudo: PseudoCosts,
    /// Global cut-activation flags, one per cut row. A worker that
    /// separates a cut publishes its flag; every worker mirrors set
    /// flags into its private kernel before each node solve.
    cut_flags: Vec<AtomicBool>,
}

impl Ctx<'_> {
    fn signed(&self, obj: f64) -> f64 {
        self.sense_mul * obj
    }

    fn cutoff(&self) -> f64 {
        f64::from_bits(self.cutoff.load(AtomicOrdering::Acquire))
    }

    /// The frontier lock. A worker that panicked while holding it left
    /// the search state unknown, so the panic propagates.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("a search worker panicked")
    }

    /// Whether an open node is discarded without solving it: only under
    /// best-bound, and only when its bound cannot beat the incumbent.
    /// DFS solves every node it pops and prunes on the node's own bound.
    fn discard_unsolved(&self, bound: f64) -> bool {
        self.opts.node_order == NodeOrder::BestBound && bound >= self.cutoff() - 1e-9
    }

    fn out_of_clock(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Offers `candidate` as an incumbent: installed when integral and
    /// better than the current one, with the atomic cutoff tightened
    /// before the lock drops. `node_idx` is the node count at acceptance
    /// (0 = seeded by the hint).
    fn accept(&self, candidate: Solution, node_idx: usize) {
        // Rounded values clamped into the current box can be fractional
        // when an integer variable carries fractional bounds — only
        // truly integral points may become incumbents.
        let integral = self.int_vars.iter().all(|&v| {
            let x = candidate.value(v);
            (x - x.round()).abs() <= self.opts.int_tol
        });
        if !integral {
            return;
        }
        let mut inc = self.incumbent.lock().expect("a search worker panicked");
        let better = match &inc.best {
            None => true,
            Some(b) => self.signed(candidate.objective) < self.signed(b.objective) - 1e-9,
        };
        if better {
            if inc.incumbents == 0 {
                inc.first_incumbent_node = node_idx;
            }
            inc.incumbents += 1;
            inc.incumbent_trace.push((node_idx, candidate.objective));
            self.cutoff.store(
                self.signed(candidate.objective).to_bits(),
                AtomicOrdering::Release,
            );
            inc.best = Some(candidate);
        }
    }
}

/// One worker: a private backend plus the locally tracked box state
/// (`lo`/`hi`/`cur`) that mirrors whatever tree node its kernel
/// currently has applied.
struct Worker<'c, 'm> {
    ctx: &'c Ctx<'m>,
    /// Index into [`Shared::episode_floor`].
    id: usize,
    backend: WarmBackend<'m>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Arena index of the node whose boxes this worker's kernel has
    /// applied.
    cur: usize,
    /// Search counters of this worker (solve split, strong branches,
    /// pseudo-cost updates); merged at join.
    stats: BranchBoundStats,
    /// Solved nodes after which an episode hands its dive back to the
    /// frontier.
    episode_cap: usize,
}

impl Worker<'_, '_> {
    /// Claims an open node, discarding prunable entries unsolved, or
    /// waits until one appears. `None` = the search is over.
    fn claim(&self) -> Option<OpenNode> {
        let ctx = self.ctx;
        let mut sh = ctx.lock();
        loop {
            if sh.done || sh.err.is_some() {
                return None;
            }
            while let Some(o) = sh.frontier.pop() {
                // The queue is estimate-keyed, not bound-sorted, so a
                // discarded entry proves only its own subtree useless.
                if ctx.discard_unsolved(o.bound) {
                    continue;
                }
                sh.outstanding += 1;
                sh.episode_floor[self.id] = o.bound;
                return Some(o);
            }
            if sh.outstanding == 0 {
                // Nothing queued and nobody who could queue more.
                sh.done = true;
                drop(sh);
                ctx.idle.notify_all();
                return None;
            }
            sh = ctx.idle.wait(sh).expect("a search worker panicked");
        }
    }

    /// The LCA walk from `self.cur` to `t`, read-only: collects the box
    /// mutations in application order (undo up to the lowest common
    /// ancestor, apply down). Runs under the shared lock (the arena is
    /// append-only but `Vec` growth moves it); the collected ops are
    /// applied to the private kernel after the lock drops.
    fn path_ops(&self, arena: &[TreeNode], t: usize, ops: &mut Vec<(usize, f64, f64)>) {
        let mut a = self.cur;
        let mut b = t;
        let mut down: Vec<usize> = Vec::new();
        while arena[a].depth > arena[b].depth {
            ops.push((arena[a].vi, arena[a].parent_lo, arena[a].parent_hi));
            a = arena[a].parent;
        }
        while arena[b].depth > arena[a].depth {
            down.push(b);
            b = arena[b].parent;
        }
        while a != b {
            ops.push((arena[a].vi, arena[a].parent_lo, arena[a].parent_hi));
            a = arena[a].parent;
            down.push(b);
            b = arena[b].parent;
        }
        for &n in down.iter().rev() {
            ops.push((arena[n].vi, arena[n].lo, arena[n].hi));
        }
    }

    /// Round-and-fix heuristic: pin every integer's box to the rounded
    /// relaxation value, re-solve the continuous part on this worker's
    /// kernel, and offer the result as an incumbent. Integers fixed at
    /// the root have no standard-form column — their pin/restore is a
    /// no-op in the backend, so they are harmless to include.
    fn offer_incumbent(&mut self, sol: &Solution, node_idx: usize) {
        let ctx = self.ctx;
        let mut pins: Vec<(usize, f64)> = Vec::with_capacity(ctx.int_vars.len());
        let mut restore: Vec<(usize, f64, f64)> = Vec::with_capacity(ctx.int_vars.len());
        for &v in &ctx.int_vars {
            let vi = v.index();
            let val = sol.value(v).round().clamp(self.lo[vi], self.hi[vi]);
            pins.push((vi, val));
            restore.push((vi, self.lo[vi], self.hi[vi]));
        }
        let candidate = self.backend.round_and_fix(ctx.opts, &pins, &restore, sol);
        ctx.accept(candidate, node_idx);
    }

    /// Warm-start hint: pin the hinted integers, solve the continuous
    /// part, and offer the result as the first incumbent (recorded at
    /// node 0, before any search).
    fn seed_hint(&mut self, hint: &[(VarId, f64)]) {
        let ctx = self.ctx;
        let mut pins: Vec<(usize, f64)> = Vec::with_capacity(hint.len());
        let mut restore: Vec<(usize, f64, f64)> = Vec::with_capacity(hint.len());
        for &(v, val) in hint {
            let vi = v.index();
            if !ctx.model.var(v).is_integer() {
                continue;
            }
            let val = val.round().clamp(self.lo[vi], self.hi[vi]);
            pins.push((vi, val));
            restore.push((vi, self.lo[vi], self.hi[vi]));
        }
        if let Some(sol) = self.backend.seed_hint(ctx.opts, &pins, &restore) {
            ctx.accept(sol, 0);
        }
    }

    /// The children of expanded node `t` (arena index, depth `depth`)
    /// with their frontier keys, far side first. Under best-bound the
    /// key is a best-estimate: the parent bound plus the
    /// shared completion term Σ_j min(down_j·f⁻_j, up_j·f⁺_j) over the
    /// *other* fractional variables, plus the per-child cost of rounding
    /// `vi` itself. Estimates order the queue but never prune (pruning
    /// reads `OpenNode::bound`).
    fn children(
        &self,
        t: usize,
        depth: usize,
        (var, val): (VarId, f64),
        sol: &Solution,
    ) -> Vec<(TreeNode, f64)> {
        let ctx = self.ctx;
        let vi = var.index();
        let signed_bound = ctx.signed(sol.objective);
        let estimate = ctx.opts.node_order == NodeOrder::BestBound;
        let mut common = 0.0;
        if estimate {
            for &v in &ctx.int_vars {
                if v.index() == vi {
                    continue;
                }
                let x = sol.value(v);
                let fd = x - x.floor();
                let fu = x.ceil() - x;
                if fd.min(fu) <= ctx.opts.int_tol {
                    continue;
                }
                let down = ctx.pseudo.estimate(v.index(), false) * fd;
                let up = ctx.pseudo.estimate(v.index(), true) * fu;
                common += down.min(up).max(0.0);
            }
        }
        branch_children(
            t,
            depth + 1,
            vi,
            val,
            self.lo[vi],
            self.hi[vi],
            sol.objective,
        )
        .into_iter()
        .flatten()
        .map(|child| {
            let key = if estimate {
                signed_bound + common + ctx.pseudo.estimate(vi, child.up) * child.frac
            } else {
                signed_bound
            };
            (child, key)
        })
        .collect()
    }

    /// Gap termination test at a branching node whose signed bound is
    /// `node_bound`, measured against the valid global dual bound — this
    /// node, the frontier, this worker's dive, and the other workers'
    /// episode floors.
    fn within_gap(&self, sh: &Shared, node_bound: f64, dive: &[OpenNode]) -> bool {
        let ctx = self.ctx;
        let inc = ctx.cutoff();
        if inc == f64::INFINITY {
            return false;
        }
        let others = sh
            .episode_floor
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != self.id)
            .map(|(_, &f)| f);
        let bound = dive
            .iter()
            .map(|o| o.bound)
            .chain(others)
            .fold(node_bound.min(sh.frontier.min_bound()), f64::min);
        inc - bound <= ctx.opts.gap_tol * inc.abs().max(1.0)
    }

    /// Runs one claimed node as a bounded DFS episode. Returns `false`
    /// when the search is over (done, truncated, gap closed, or a hard
    /// error).
    ///
    /// The hot path costs two shared-lock acquisitions per node: one to
    /// claim a budget unit and read the activation path, one to publish
    /// the bound and append the children.
    fn episode(&mut self, root: OpenNode) -> bool {
        let ctx = self.ctx;
        let mut dive: Vec<OpenNode> = vec![root];
        let mut ops: Vec<(usize, f64, f64)> = Vec::new();
        let mut solved = 0usize;
        loop {
            // An over-long episode hands its leftovers to the frontier
            // (each carries its own bound key and basis), so the globally
            // best bound — or an idle worker — picks what runs next.
            if solved >= self.episode_cap && !dive.is_empty() {
                ctx.lock().flush(&mut dive);
                ctx.idle.notify_all();
                return true;
            }
            let Some(open) = dive.pop() else {
                return true;
            };
            if ctx.discard_unsolved(open.bound) {
                continue;
            }
            // Lock 1: claim one unit of the shared node budget and read
            // the box mutations that move this kernel to the node.
            ops.clear();
            let (node_idx, node) = {
                let mut sh = ctx.lock();
                if sh.done || sh.err.is_some() {
                    sh.frontier.push(open);
                    sh.flush(&mut dive);
                    return false;
                }
                if sh.nodes >= ctx.opts.max_nodes || ctx.out_of_clock() {
                    // The node that trips the budget is dropped, as the
                    // historical serial search did; the pending dive goes
                    // back to the frontier for the final dual bound.
                    sh.truncated = true;
                    sh.done = true;
                    sh.flush(&mut dive);
                    drop(sh);
                    ctx.idle.notify_all();
                    return false;
                }
                sh.nodes += 1;
                sh.node_bounds.push(f64::NAN);
                self.path_ops(&sh.arena, open.node, &mut ops);
                (sh.nodes - 1, sh.arena[open.node])
            };
            solved += 1;
            for &(vi, lo, hi) in &ops {
                self.lo[vi] = lo;
                self.hi[vi] = hi;
                self.backend.set_var_box(vi, lo, hi);
            }
            self.cur = open.node;
            self.backend.sync_cuts(&ctx.cut_flags);
            let basis = open.basis.as_deref();
            let mut relax = match self.backend.solve_node(ctx.opts, basis, &mut self.stats) {
                Ok(sol) => sol,
                Err(SolveError::Infeasible) => continue, // bound slot stays NaN
                Err(SolveError::IterationLimit | SolveError::Numerical(_)) => {
                    // No usable bound for this subtree (budget or
                    // numerics): prune it and keep whatever incumbent
                    // exists — aborting would discard a feasible answer
                    // over one bad node.
                    ctx.lock().truncated = true;
                    continue;
                }
                // Bound tightenings cannot make a bounded LP unbounded,
                // but a free-integer model may genuinely be unbounded at
                // the root.
                Err(e) => {
                    let mut sh = ctx.lock();
                    sh.err.get_or_insert(e);
                    sh.done = true;
                    sh.flush(&mut dive);
                    drop(sh);
                    ctx.idle.notify_all();
                    return false;
                }
            };
            // Lazy cut separation: tighten violated cut rows to their
            // integer-valid rhs and re-solve until the point is clean.
            // The weaker pre-activation bound stays valid, so a failed
            // re-solve simply keeps it; an Infeasible verdict closes the
            // node (cuts hold for every integer point in this box).
            let mut cut_closed = false;
            for _ in 0..8 {
                if self.backend.separate_cuts(&relax, &ctx.cut_flags) == 0 {
                    break;
                }
                match self.backend.solve_node(ctx.opts, basis, &mut self.stats) {
                    Ok(sol) => relax = sol,
                    Err(SolveError::Infeasible) => {
                        cut_closed = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
            // Pseudo-cost learning: this node's bound degradation against
            // its parent, normalized by the branch fractionality —
            // recorded before this node's own branching selection.
            if node.vi != usize::MAX && node.frac > ctx.opts.int_tol && node.parent_obj.is_finite()
            {
                let degrade = (ctx.signed(relax.objective) - ctx.signed(node.parent_obj)).max(0.0);
                ctx.pseudo.record(node.vi, node.up, degrade / node.frac);
                self.stats.pseudo_updates += 1;
            }
            let node_bound = ctx.signed(relax.objective);
            let pruned = cut_closed || node_bound >= ctx.cutoff() - 1e-9;
            // Children warm-start from this node's optimal basis —
            // snapshot before strong-branch probes or the heuristic
            // perturb the kernel.
            let mut branch = None;
            let mut my_basis = None;
            if !pruned {
                my_basis = self.backend.snapshot(ctx.opts).map(Arc::new);
                // Strong-branch probes run on this worker's private kernel.
                branch = select_branch_var(
                    &mut self.backend,
                    ctx.model,
                    ctx.opts,
                    &ctx.int_vars,
                    &relax,
                    &self.lo,
                    &self.hi,
                    ctx.sense_mul,
                    &ctx.pseudo,
                    &mut self.stats,
                );
                if branch.is_some()
                    && ctx.opts.rounding_heuristic
                    && (node.depth == 0 || node.depth.is_multiple_of(8))
                {
                    self.offer_incumbent(&relax, node_idx + 1);
                }
            }
            let children = branch.map(|bv| self.children(open.node, node.depth, bv, &relax));
            // Lock 2: publish the bound, run the gap test, and append the
            // children to the dive.
            {
                let mut sh = ctx.lock();
                sh.node_bounds[node_idx] = relax.objective;
                if node.depth == 0 {
                    sh.root_bound = relax.objective;
                }
                if let Some(children) = children {
                    if self.within_gap(&sh, node_bound, &dive) {
                        sh.done = true;
                        sh.flush(&mut dive);
                        drop(sh);
                        ctx.idle.notify_all();
                        return false;
                    }
                    for (child, key) in children {
                        let idx = sh.arena.len();
                        sh.arena.push(child);
                        sh.seq += 1;
                        dive.push(OpenNode {
                            node: idx,
                            bound: node_bound,
                            key,
                            seq: sh.seq,
                            basis: my_basis.clone(),
                        });
                    }
                    // The shared frontier plus this worker's dive (other
                    // workers' in-flight dives are not counted).
                    sh.queue_peak = sh.queue_peak.max(sh.frontier.len() + dive.len());
                }
            }
            if !pruned && branch.is_none() {
                // Integral leaf: the relaxation point IS the optimal
                // incumbent for this box.
                ctx.accept(relax, node_idx + 1);
            }
        }
    }

    /// The worker main loop: claim, run the episode, retire the claim.
    fn run(&mut self) {
        while let Some(open) = self.claim() {
            let keep_going = self.episode(open);
            let mut sh = self.ctx.lock();
            sh.outstanding -= 1;
            sh.episode_floor[self.id] = f64::INFINITY;
            if sh.outstanding == 0 && sh.frontier.len() == 0 {
                sh.done = true;
            }
            drop(sh);
            self.ctx.idle.notify_all();
            if !keep_going {
                return;
            }
        }
    }
}

/// Runs the branch & bound search over `form` with `opts.workers`
/// workers (the caller has resolved the options): worker 0 on the
/// calling thread, the rest in a thread scope.
pub(crate) fn search(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
    form: Arc<BoxedForm>,
    int_maps: Vec<Option<ColMap>>,
    deadline: Option<Instant>,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    let workers = opts.workers.max(1);
    let int_vars: Vec<VarId> = model
        .vars()
        .filter(|(_, v)| v.is_integer())
        .map(|(id, _)| id)
        .collect();
    let int_count = int_vars.len();
    let mut frontier = Frontier::new(opts.node_order);
    frontier.push(OpenNode {
        node: 0,
        bound: f64::NEG_INFINITY,
        key: f64::NEG_INFINITY,
        seq: 0,
        basis: None,
    });
    let ctx = Ctx {
        model,
        opts,
        int_vars,
        sense_mul: match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        },
        deadline,
        shared: Mutex::new(Shared {
            frontier,
            arena: vec![TreeNode::root()],
            outstanding: 0,
            nodes: 0,
            truncated: false,
            done: false,
            err: None,
            root_bound: 0.0,
            queue_peak: 1,
            node_bounds: Vec::new(),
            seq: 0,
            episode_floor: vec![f64::INFINITY; workers],
        }),
        idle: Condvar::new(),
        incumbent: Mutex::new(Incumbent {
            best: None,
            incumbents: 0,
            first_incumbent_node: 0,
            incumbent_trace: Vec::new(),
        }),
        cutoff: AtomicU64::new(f64::INFINITY.to_bits()),
        pseudo: PseudoCosts::new(model.vars.len()),
        cut_flags: (0..form.cut_rows.len())
            .map(|_| AtomicBool::new(false))
            .collect(),
    };
    // An episode should be able to reach an integral leaf, which takes on
    // the order of one branching level per fractional integer; with more
    // workers each claim hands work back to the frontier sooner.
    let episode_cap = (64.max(2 * int_count) / workers).max(8);
    let mut pool: Vec<Worker> = (0..workers)
        .map(|id| Worker {
            ctx: &ctx,
            id,
            backend: WarmBackend::new(model, Arc::clone(&form), int_maps.clone(), opts, deadline),
            lo: model.vars.iter().map(|v| v.lower).collect(),
            hi: model.vars.iter().map(|v| v.upper).collect(),
            cur: 0,
            stats: BranchBoundStats::default(),
            episode_cap,
        })
        .collect();
    // Hint seeding runs on worker 0 before any thread spawns (it may
    // install the first incumbent and tighten the cutoff).
    if !hint.is_empty() {
        pool[0].seed_hint(hint);
    }
    let helpers = pool.split_off(1);
    let mut first = pool.pop().expect("at least one worker");
    let pool: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = helpers
            .into_iter()
            .map(|mut w| {
                s.spawn(move || {
                    w.run();
                    w
                })
            })
            .collect();
        first.run();
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a search worker panicked")),
            )
            .collect()
    });
    // Merge layer: kernel telemetry folds additively, search counters sum.
    let mut stats = BranchBoundStats {
        order: opts.node_order,
        cuts_added: form.cut_rows.len(),
        ..BranchBoundStats::default()
    };
    for w in &pool {
        w.backend.finish(&mut stats);
        stats.warm_solves += w.stats.warm_solves;
        stats.cold_solves += w.stats.cold_solves;
        stats.strong_branches += w.stats.strong_branches;
        stats.pseudo_updates += w.stats.pseudo_updates;
    }
    drop(pool);
    // Each cut row activates at most once, and every activation is
    // published in its flag.
    stats.cuts_activated = ctx
        .cut_flags
        .iter()
        .filter(|f| f.load(AtomicOrdering::Relaxed))
        .count();
    let shared = ctx.shared.into_inner().expect("a search worker panicked");
    if let Some(e) = shared.err {
        return Err(e);
    }
    stats.nodes = shared.nodes;
    stats.truncated = shared.truncated;
    stats.root_bound = shared.root_bound;
    stats.queue_peak = shared.queue_peak;
    stats.node_bounds = shared.node_bounds;
    let inc = ctx
        .incumbent
        .into_inner()
        .expect("a search worker panicked");
    stats.incumbents = inc.incumbents;
    stats.first_incumbent_node = inc.first_incumbent_node;
    stats.incumbent_trace = inc.incumbent_trace;
    // Proven dual bound: frontier leftovers (every early exit flushes its
    // dive back) joined with the incumbent; a completed search has an
    // empty frontier, so the bound collapses to the incumbent objective.
    // Reported in the model's sense, falling back to the root bound
    // (never NaN, so bit-exact stats comparisons keep working).
    let sense_mul = ctx.sense_mul;
    let inc_signed = inc
        .best
        .as_ref()
        .map_or(f64::INFINITY, |b| sense_mul * b.objective);
    let bound = shared.frontier.min_bound().min(inc_signed);
    stats.dual_bound = if bound.is_finite() {
        sense_mul * bound
    } else {
        shared.root_bound
    };
    finish(inc.best, stats)
}
