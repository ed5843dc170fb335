//! Cross-validation properties of the throughput machinery:
//!
//! * the LP bound really is an upper bound on the simulated throughput,
//! * for late-evaluation graphs the LP bound equals the exact minimum
//!   cycle ratio and the simulator converges to it,
//! * bubble-free graphs run at Θ = 1,
//! * the throttle keeps the early-evaluation bound at most 1,
//! * the event-driven simulator replays the full-scan reference loop
//!   ([`scan_simulate`]) bit for bit.

use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rr_rrg::generate::GeneratorParams;
use rr_rrg::{Config, EdgeId, NodeKind};

use crate::gmg::Tgmg;
use crate::late;
use crate::lp_bound::throughput_upper_bound;
use crate::sim::{simulate, GuardPolicy, SimError, SimParams, SimResult};
use crate::skeleton::{tgmg_of, TgmgSkeleton};

fn small_params() -> impl Strategy<Value = (GeneratorParams, u64)> {
    (2usize..10, 0usize..3, 0usize..12, any::<u64>()).prop_map(|(ns, ne, extra, seed)| {
        let n = ns + ne;
        (
            GeneratorParams::paper_defaults(ns, ne, n + ne + extra),
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lp_bound_dominates_simulation((p, seed) in small_params()) {
        let g = p.generate(seed);
        let t = tgmg_of(&g);
        let bound = throughput_upper_bound(&t).unwrap();
        let sim = simulate(&t, &SimParams::fast(seed)).unwrap().throughput;
        // Allow the short-horizon simulator a little measurement noise.
        prop_assert!(sim <= bound + 0.05, "sim {sim} exceeds bound {bound}");
        prop_assert!(bound <= 1.0 + 1e-6, "bound {bound} above 1");
    }

    #[test]
    fn late_eval_lp_equals_min_cycle_ratio((p, seed) in small_params()) {
        let g = p.generate(seed).with_late_evaluation();
        let t = tgmg_of(&g);
        let bound = throughput_upper_bound(&t).unwrap();
        let mcr = late::exact_late_throughput(&g);
        prop_assert!((bound - mcr.min(2.0)).abs() < 1e-5,
            "LP {bound} vs MCR {mcr}");
    }

    #[test]
    fn late_eval_simulation_converges_to_mcr((p, seed) in small_params()) {
        let g = p.generate(seed).with_late_evaluation();
        let t = tgmg_of(&g);
        let mcr = late::exact_late_throughput(&g);
        let sim = simulate(
            &t,
            &SimParams {
                horizon: 12_000,
                warmup: 2_000,
                seed,
                ..SimParams::default()
            },
        )
        .unwrap()
        .throughput;
        prop_assert!((sim - mcr).abs() < 0.05, "sim {sim} vs MCR {mcr}");
    }

    #[test]
    fn bubble_free_graphs_run_at_unit_rate((p, seed) in small_params()) {
        let g = p.generate(seed);
        // The generator only places tokens inside EBs (no bubbles), so the
        // initial configuration must run at Θ = 1 regardless of early
        // marking.
        let t = tgmg_of(&g);
        let bound = throughput_upper_bound(&t).unwrap();
        prop_assert!((bound - 1.0).abs() < 1e-6, "bound {bound}");
        let sim = simulate(&t, &SimParams::fast(seed)).unwrap().throughput;
        prop_assert!((sim - 1.0).abs() < 0.05, "sim {sim}");
    }
}

/// `bubbles` extra bubbles on edges drawn from `seed`, on top of the
/// generated graph's own configuration.
fn with_bubbles((p, seed): (GeneratorParams, u64), bubbles: usize) -> Tgmg {
    let g = p.generate(seed);
    let mut cfg = Config::initial(&g);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B0B_B1E5);
    for _ in 0..bubbles {
        cfg.add_bubbles(EdgeId(rng.random_range(0..g.num_edges())), 1);
    }
    TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dirty-node passes and the timing wheel change which nodes are
    /// examined, never which fire or in what order: the guard draws, the
    /// firing vector and Θ equal the full scan's exactly.
    #[test]
    fn event_driven_simulation_replays_the_scan(
        gp in small_params(),
        bubbles in 0usize..4,
        sim_seed in any::<u64>(),
    ) {
        let t = with_bubbles(gp, bubbles);
        for guard_policy in [GuardPolicy::Persistent, GuardPolicy::ResampleEachCycle] {
            let params = SimParams {
                horizon: 1_500,
                warmup: 300,
                seed: sim_seed,
                guard_policy,
            };
            prop_assert_eq!(simulate(&t, &params), scan_simulate(&t, &params));
        }
    }
}

/// The simulator as it was before it became event-driven: at every
/// instant it examines all nodes in index order, repeating the pass
/// until one fires nothing, and it keeps completions in a binary heap.
/// Kept verbatim as the reference the event-driven loop must replay.
fn scan_simulate(t: &Tgmg, params: &SimParams) -> Result<SimResult, SimError> {
    for (i, n) in t.nodes.iter().enumerate() {
        if n.delay < 0.0 || n.delay.fract() != 0.0 {
            return Err(SimError::NonIntegerDelay {
                node: i,
                delay: n.delay,
            });
        }
    }
    let delays: Vec<u64> = t.nodes.iter().map(|n| n.delay as u64).collect();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut marking: Vec<i64> = t.initial_marking();
    let mut firings: Vec<u64> = vec![0; t.num_nodes()];
    // Pending guard selection per early node: the chosen *input edge*.
    let mut selection: Vec<Option<usize>> = vec![None; t.num_nodes()];
    // Completion events: (time, node), min-heap.
    let mut events: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();

    let mut warmup_counts: Vec<u64> = vec![0; t.num_nodes()];
    let mut warmup_time: Option<u64> = None;
    // Upper bound on firings per instant: every firing consumes a token
    // from each input; total positive marking bounds the cascade.
    let cascade_limit: u64 = 1_000
        + 4 * t
            .edges
            .iter()
            .map(|e| e.marking.unsigned_abs())
            .sum::<u64>()
        + 4 * t.num_nodes() as u64;

    let mut now: u64 = 0;
    loop {
        // Fire everything enabled at the current instant, cascading
        // through zero-delay completions.
        let mut cascade: u64 = 0;
        loop {
            let mut fired_any = false;
            for v in 0..t.num_nodes() {
                loop {
                    let enabled = match t.nodes[v].kind {
                        NodeKind::Simple => {
                            !t.pred[v].is_empty() && t.pred[v].iter().all(|&e| marking[e] > 0)
                        }
                        NodeKind::EarlyEval => {
                            let sel =
                                *selection[v].get_or_insert_with(|| draw_guard(t, v, &mut rng));
                            marking[sel] > 0
                        }
                    };
                    if !enabled {
                        break;
                    }
                    // Fire v once.
                    for &e in &t.pred[v] {
                        marking[e] -= 1;
                    }
                    if t.nodes[v].kind == NodeKind::EarlyEval {
                        selection[v] = None;
                    }
                    firings[v] += 1;
                    fired_any = true;
                    cascade += 1;
                    if cascade > cascade_limit {
                        return Err(SimError::ZeroDelayLivelock { at_cycle: now });
                    }
                    if delays[v] == 0 {
                        for &e in &t.succ[v] {
                            marking[e] += 1;
                        }
                    } else {
                        events.push(std::cmp::Reverse((now + delays[v], v)));
                        // This node may still be enabled for another
                        // concurrent firing; loop again.
                    }
                }
            }
            if !fired_any {
                break;
            }
        }

        if warmup_time.is_none() && now >= params.warmup {
            warmup_counts.copy_from_slice(&firings);
            warmup_time = Some(now);
        }
        if params.guard_policy == GuardPolicy::ResampleEachCycle {
            for s in selection.iter_mut() {
                *s = None;
            }
        }
        // Advance time to the next completion.
        let Some(&std::cmp::Reverse((t_next, _))) = events.peek() else {
            return Err(SimError::Deadlock { at_cycle: now });
        };
        if t_next >= params.horizon {
            break;
        }
        now = t_next;
        while let Some(&std::cmp::Reverse((te, v))) = events.peek() {
            if te != now {
                break;
            }
            events.pop();
            for &e in &t.succ[v] {
                marking[e] += 1;
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
