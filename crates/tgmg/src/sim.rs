//! Discrete-event simulation of TGMGs under infinite-server semantics
//! (Definition 3.2 plus the timing interpretation of Definition 3.3).
//!
//! This is the reproduction's stand-in for the paper's "intensive
//! simulations" of generated Verilog: by Lemma 3.1 the refined TGMG of an
//! RRG has exactly the RRG's throughput, so measuring the TGMG measures
//! the elastic system. (The independent cycle-accurate machine in
//! `rr-elastic` cross-checks this.)
//!
//! Semantics implemented here:
//!
//! * **Guard selection** — an early node draws one input edge with
//!   probability γ and *keeps that selection* until it fires (the select
//!   token persists until consumed).
//! * **Enabling** — simple nodes need positive marking on every input;
//!   early nodes only on the selected input.
//! * **Firing** — consumes one token from *every* input (non-selected
//!   inputs may go negative: anti-tokens), produces one token on every
//!   output after δ(n) time units. Multiple firings may overlap
//!   (infinite servers).
//!
//! Delays must be nonnegative integers (they are: buffer counts and the
//! unit throttle). Zero-delay cascades terminate because every cycle of a
//! valid configuration contains a positive-delay node (liveness gives each
//! RRG cycle a token, hence a buffer, hence an edge-delay ≥ 1).
//!
//! # Event-driven firing order
//!
//! The firing rule above fixes *what* fires; the order fixes which guard
//! draws the seeded RNG hands to which node. The reference order is a
//! full scan: at every instant, examine nodes `0..n` in index order
//! (re-checking a node right after it fires, for concurrent firings) and
//! repeat the pass until one fires nothing. [`simulate`] replays that
//! order exactly while examining only the nodes that can fire.
//!
//! *Invariant:* a node outside the dirty set was last examined and found
//! disabled, none of its input edges has gained a token since, and, if it
//! is early, it holds a guard selection. Examining it again would find it
//! disabled and draw nothing, so skipping it changes nothing. Only its
//! own firing takes tokens from a node's inputs (each edge has one
//! consumer), and tokens arrive only through a completion or a
//! zero-delay firing of the edge's source, so those arrivals are exactly
//! what marks a node dirty:
//!
//! * time 0 marks every node (nothing is selected yet);
//! * a completion at the new instant marks the edge's target, examined
//!   in the instant's first pass, as the scan's first pass would;
//! * a zero-delay firing of `v` that feeds `u > v` marks `u` in the
//!   current pass (the scan reaches `u` later in it), one that feeds
//!   `u < v` marks `u` for the next pass (the scan has passed `u`), and
//!   `u == v` is the re-check after firing;
//! * under [`GuardPolicy::ResampleEachCycle`] every early node drops its
//!   selection at the end of an instant and is marked for the next one.
//!
//! Dirty nodes are taken in ascending index order pass by pass, so every
//! node is examined at the same point of the same pass as in the scan,
//! the RNG draws happen in the same sequence, and the firing vector and Θ
//! are bit-identical to the scan's.
//!
//! Completions sit on a timing wheel of `max δ + 1` slots rather than a
//! heap: every firing completes within `max δ` of now, so slot
//! `time % (max δ + 1)` holds exactly the completions due at `time`.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rr_rrg::NodeKind;

use crate::gmg::Tgmg;

/// How an early node treats its guard selection while the selected input
/// is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// The selection persists until the node fires (a select token is
    /// consumed exactly once per firing).
    #[default]
    Persistent,
    /// A fresh selection is drawn at every time step while the node is
    /// blocked.
    ResampleEachCycle,
}

/// Simulation horizon and measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Total simulated cycles.
    pub horizon: u64,
    /// Cycles discarded before measuring (steady-state warm-up).
    pub warmup: u64,
    /// RNG seed for guard selection.
    pub seed: u64,
    /// Blocked-guard semantics.
    pub guard_policy: GuardPolicy,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            horizon: 30_000,
            warmup: 3_000,
            seed: 0xE1A5_71C5,
            guard_policy: GuardPolicy::default(),
        }
    }
}

impl SimParams {
    /// Quick, low-accuracy parameters for property tests.
    pub fn fast(seed: u64) -> Self {
        SimParams {
            horizon: 4_000,
            warmup: 500,
            seed,
            ..Self::default()
        }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Measured steady-state throughput of the reference node (node 0;
    /// all nodes of a live TGMG share the same rate).
    pub throughput: f64,
    /// Firings of every node over the whole horizon.
    pub firings: Vec<u64>,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Delays must be nonnegative integers.
    NonIntegerDelay { node: usize, delay: f64 },
    /// No node can ever fire again (dead marking).
    Deadlock { at_cycle: u64 },
    /// A zero-delay cascade did not terminate: the graph has a zero-delay
    /// cycle with positive marking (invalid configuration).
    ZeroDelayLivelock { at_cycle: u64 },
    /// The measurement window `warmup..horizon` is empty.
    EmptyWindow { warmup: u64, horizon: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonIntegerDelay { node, delay } => {
                write!(f, "node {node} has non-integer delay {delay}")
            }
            SimError::Deadlock { at_cycle } => write!(f, "deadlock at cycle {at_cycle}"),
            SimError::ZeroDelayLivelock { at_cycle } => {
                write!(f, "zero-delay livelock at cycle {at_cycle}")
            }
            SimError::EmptyWindow { warmup, horizon } => write!(
                f,
                "empty measurement window: warm-up {warmup} is not below horizon {horizon}"
            ),
        }
    }
}

impl Error for SimError {}

/// Runs the simulation and measures the steady-state throughput.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(t: &Tgmg, params: &SimParams) -> Result<SimResult, SimError> {
    if params.warmup >= params.horizon {
        return Err(SimError::EmptyWindow {
            warmup: params.warmup,
            horizon: params.horizon,
        });
    }
    for (i, n) in t.nodes.iter().enumerate() {
        if n.delay < 0.0 || n.delay.fract() != 0.0 {
            return Err(SimError::NonIntegerDelay {
                node: i,
                delay: n.delay,
            });
        }
    }
    let n = t.num_nodes();
    // A completion at or past the horizon is never processed, so a delay
    // longer than the horizon acts like the horizon; capping it bounds
    // the timing wheel below.
    let delays: Vec<u64> = t
        .nodes
        .iter()
        .map(|n| (n.delay as u64).min(params.horizon))
        .collect();
    let adj = Adjacency::of(t);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut marking: Vec<i64> = t.initial_marking();
    let mut firings: Vec<u64> = vec![0; n];
    // Pending guard selection per early node: the chosen *input edge*.
    let mut selection: Vec<Option<usize>> = vec![None; n];
    // Completion events on a timing wheel: every firing completes within
    // `max δ` of now, so slot `time % len` holds exactly the nodes
    // completing at `time`.
    let len = delays.iter().max().map_or(1, |&d| d as usize + 1);
    let mut wheel: Vec<Vec<usize>> = vec![Vec::new(); len];
    let mut pending: usize = 0;
    // Nodes to examine in the current pass and in the next one.
    let mut dirty = NodeSet::new(n);
    let mut next = NodeSet::new(n);
    let mut early = NodeSet::new(n);
    for (v, node) in t.nodes.iter().enumerate() {
        dirty.insert(v);
        if node.kind == NodeKind::EarlyEval {
            early.insert(v);
        }
    }

    let mut warmup_counts: Vec<u64> = vec![0; n];
    let mut warmup_time: Option<u64> = None;
    // Upper bound on firings per instant: every firing consumes a token
    // from each input; total positive marking bounds the cascade.
    let cascade_limit: u64 = 1_000
        + 4 * t
            .edges
            .iter()
            .map(|e| e.marking.unsigned_abs())
            .sum::<u64>()
        + 4 * n as u64;

    let mut now: u64 = 0;
    loop {
        // Fire everything enabled at the current instant, cascading
        // through zero-delay completions, one ascending pass at a time.
        let mut cascade: u64 = 0;
        loop {
            let mut from = 0;
            while let Some(v) = dirty.pop_from(from) {
                from = v;
                loop {
                    let ins = adj.inputs(v);
                    let enabled = if early.contains(v) {
                        let sel = *selection[v].get_or_insert_with(|| draw_guard(t, v, &mut rng));
                        marking[sel] > 0
                    } else {
                        !ins.is_empty() && ins.iter().all(|&e| marking[e] > 0)
                    };
                    if !enabled {
                        break;
                    }
                    // Fire v once.
                    for &e in ins {
                        marking[e] -= 1;
                    }
                    selection[v] = None;
                    firings[v] += 1;
                    cascade += 1;
                    if cascade > cascade_limit {
                        return Err(SimError::ZeroDelayLivelock { at_cycle: now });
                    }
                    if delays[v] == 0 {
                        for &(e, u) in adj.outputs(v) {
                            marking[e] += 1;
                            // The scan reaches u later in this pass, or
                            // in the next one; v itself is re-checked
                            // by this loop.
                            if u > v {
                                dirty.insert(u);
                            } else if u < v {
                                next.insert(u);
                            }
                        }
                    } else {
                        wheel[(now + delays[v]) as usize % len].push(v);
                        pending += 1;
                        // This node may still be enabled for another
                        // concurrent firing; loop again.
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut dirty, &mut next);
        }

        if warmup_time.is_none() && now >= params.warmup {
            warmup_counts.copy_from_slice(&firings);
            warmup_time = Some(now);
        }
        if params.guard_policy == GuardPolicy::ResampleEachCycle {
            for s in selection.iter_mut() {
                *s = None;
            }
            // Every early node draws afresh at the next instant.
            dirty.union_with(&early);
        }
        // Advance time to the next completion.
        if pending == 0 {
            return Err(SimError::Deadlock { at_cycle: now });
        }
        let t_next = (now + 1..)
            .find(|&te| !wheel[te as usize % len].is_empty())
            .expect("a pending completion lies within max δ");
        if t_next >= params.horizon {
            break;
        }
        now = t_next;
        let slot = now as usize % len;
        pending -= wheel[slot].len();
        for v in wheel[slot].drain(..) {
            for &(e, u) in adj.outputs(v) {
                marking[e] += 1;
                dirty.insert(u);
            }
        }
    }

    let measured_from = warmup_time.unwrap_or(0);
    let window = (params.horizon - measured_from) as f64;
    let throughput = (firings[0].saturating_sub(warmup_counts[0])) as f64 / window;
    Ok(SimResult {
        throughput,
        firings,
        cycles: params.horizon,
    })
}

fn draw_guard(t: &Tgmg, v: usize, rng: &mut StdRng) -> usize {
    let mut x: f64 = rng.random_range(0.0..1.0);
    let ins = &t.pred[v];
    for &e in ins {
        let p = t.edges[e].gamma.expect("early input without γ");
        if x < p {
            return e;
        }
        x -= p;
    }
    *ins.last().expect("early node without inputs")
}

/// The TGMG's adjacency in flat arrays: node `v`'s input edges are
/// `inputs[in_off[v]..in_off[v + 1]]` in `Tgmg::pred` order, and its
/// output edges, each with its target node, are
/// `outputs[out_off[v]..out_off[v + 1]]`.
struct Adjacency {
    in_off: Vec<usize>,
    inputs: Vec<usize>,
    out_off: Vec<usize>,
    outputs: Vec<(usize, usize)>,
}

impl Adjacency {
    fn of(t: &Tgmg) -> Adjacency {
        let mut adj = Adjacency {
            in_off: vec![0],
            inputs: Vec::with_capacity(t.num_edges()),
            out_off: vec![0],
            outputs: Vec::with_capacity(t.num_edges()),
        };
        for v in 0..t.num_nodes() {
            adj.inputs.extend_from_slice(&t.pred[v]);
            adj.in_off.push(adj.inputs.len());
            adj.outputs
                .extend(t.succ[v].iter().map(|&e| (e, t.edges[e].to)));
            adj.out_off.push(adj.outputs.len());
        }
        adj
    }

    fn inputs(&self, v: usize) -> &[usize] {
        &self.inputs[self.in_off[v]..self.in_off[v + 1]]
    }

    fn outputs(&self, v: usize) -> &[(usize, usize)] {
        &self.outputs[self.out_off[v]..self.out_off[v + 1]]
    }
}

/// A set of node indices, taken out in ascending order.
struct NodeSet(Vec<u64>);

impl NodeSet {
    fn new(n: usize) -> NodeSet {
        NodeSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, v: usize) {
        self.0[v / 64] |= 1 << (v % 64);
    }

    fn contains(&self, v: usize) -> bool {
        self.0[v / 64] & (1 << (v % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn union_with(&mut self, other: &NodeSet) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    /// Removes and returns the smallest member `>= from`.
    fn pop_from(&mut self, from: usize) -> Option<usize> {
        let mut i = from / 64;
        let mut word = self.0.get(i)? & (!0 << (from % 64));
        while word == 0 {
            i += 1;
            word = *self.0.get(i)?;
        }
        let b = word.trailing_zeros() as usize;
        self.0[i] &= !(1 << b);
        Some(i * 64 + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::tgmg_of;
    use rr_rrg::figures;

    fn measure(g: &rr_rrg::Rrg) -> f64 {
        simulate(&tgmg_of(g), &SimParams::default())
            .unwrap()
            .throughput
    }

    #[test]
    fn figure_1a_throughput_is_one() {
        let th = measure(&figures::figure_1a(0.5));
        assert!((th - 1.0).abs() < 0.01, "Θ = {th}");
    }

    #[test]
    fn figure_1b_late_throughput_is_one_third() {
        let th = measure(&figures::figure_1b(0.5).with_late_evaluation());
        assert!((th - 1.0 / 3.0).abs() < 0.01, "Θ = {th}");
    }

    #[test]
    fn figure_1b_early_matches_paper_markov_values() {
        // Paper §1.4: Θ = 0.491 at α = 0.5 and 0.719 at α = 0.9.
        let th05 = measure(&figures::figure_1b(0.5));
        assert!((th05 - 0.491).abs() < 0.015, "Θ(0.5) = {th05}");
        let th09 = measure(&figures::figure_1b(0.9));
        assert!((th09 - 0.719).abs() < 0.015, "Θ(0.9) = {th09}");
    }

    #[test]
    fn figure_2_matches_closed_form() {
        for &alpha in &[0.3, 0.5, 0.7, 0.9] {
            let th = measure(&figures::figure_2(alpha));
            let exact = figures::figure_2_throughput(alpha);
            assert!(
                (th - exact).abs() < 0.02,
                "α={alpha}: Θ = {th}, closed form {exact}"
            );
        }
    }

    #[test]
    fn all_nodes_share_the_rate() {
        let t = tgmg_of(&figures::figure_2(0.7));
        let r = simulate(&t, &SimParams::default()).unwrap();
        // Compare original nodes' firing counts (within warm-up slack).
        let counts: Vec<u64> = (0..5).map(|i| r.firings[i]).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max - min < 0.05 * max, "{counts:?}");
    }

    #[test]
    fn deadlocked_graph_reports_deadlock() {
        use crate::gmg::{Tgmg, TgmgEdge, TgmgNode};
        use rr_rrg::NodeKind;
        // Two nodes in a token-free cycle.
        let t = Tgmg::new(
            vec![
                TgmgNode {
                    name: "a".into(),
                    kind: NodeKind::Simple,
                    delay: 1.0,
                },
                TgmgNode {
                    name: "b".into(),
                    kind: NodeKind::Simple,
                    delay: 1.0,
                },
            ],
            vec![
                TgmgEdge {
                    from: 0,
                    to: 1,
                    marking: 0,
                    gamma: None,
                },
                TgmgEdge {
                    from: 1,
                    to: 0,
                    marking: 0,
                    gamma: None,
                },
            ],
        );
        assert!(matches!(
            simulate(&t, &SimParams::fast(1)),
            Err(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn non_integer_delay_rejected() {
        use crate::gmg::{Tgmg, TgmgEdge, TgmgNode};
        use rr_rrg::NodeKind;
        let t = Tgmg::new(
            vec![TgmgNode {
                name: "a".into(),
                kind: NodeKind::Simple,
                delay: 0.5,
            }],
            vec![TgmgEdge {
                from: 0,
                to: 0,
                marking: 1,
                gamma: None,
            }],
        );
        assert!(matches!(
            simulate(&t, &SimParams::fast(1)),
            Err(SimError::NonIntegerDelay { .. })
        ));
    }

    #[test]
    fn empty_measurement_window_is_rejected() {
        let t = tgmg_of(&figures::figure_1a(0.5));
        for (warmup, horizon) in [(100, 100), (200, 100), (0, 0)] {
            let params = SimParams {
                horizon,
                warmup,
                ..SimParams::default()
            };
            assert_eq!(
                simulate(&t, &params),
                Err(SimError::EmptyWindow { warmup, horizon })
            );
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        let t = tgmg_of(&figures::figure_1b(0.6));
        let a = simulate(&t, &SimParams::default()).unwrap();
        let b = simulate(&t, &SimParams::default()).unwrap();
        assert_eq!(a.firings, b.firings);
    }
}
