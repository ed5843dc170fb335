//! Cross-crate validation on random workloads: the four throughput
//! estimators (LP bound, TGMG simulation, elastic machine, Markov chain)
//! must stay consistent, and optimizer outputs must verify against the
//! independent simulators.

use rr_core::{evaluate_config, formulation, CoreOptions};
use rr_elastic::{simulate as machine_sim, MachineParams};
use rr_markov::{exact_throughput_with, MarkovParams};
use rr_rrg::generate::GeneratorParams;
use rr_rrg::Config;
use rr_tgmg::late::exact_late_throughput;

#[test]
fn markov_vs_machine_vs_lp_on_random_small_graphs() {
    for seed in 0..6 {
        let g = GeneratorParams::paper_defaults(5, 1, 9).generate(seed);
        let markov = exact_throughput_with(
            &g,
            &MarkovParams {
                max_states: 500_000,
                ..Default::default()
            },
        );
        let Ok(markov) = markov else {
            continue; // state space too large for this seed — fine
        };
        let machine = machine_sim(
            &g,
            &MachineParams {
                horizon: 20_000,
                warmup: 4_000,
                ..Default::default()
            },
        )
        .unwrap()
        .throughput;
        assert!(
            (markov.throughput - machine).abs() < 0.02,
            "seed {seed}: markov {} vs machine {machine}",
            markov.throughput
        );
    }
}

#[test]
fn optimizer_configs_verify_under_the_elastic_machine() {
    // MAX_THR output, evaluated by the *other* simulator: the measured
    // throughput must not exceed the MILP's claimed 1/x (it is an upper
    // bound) and should be within a sane distance.
    for seed in [1, 4] {
        let g = GeneratorParams::paper_defaults(8, 2, 16).generate(seed);
        let out = formulation::max_thr(&g, g.max_delay() * 1.5, &CoreOptions::fast()).unwrap();
        let applied = out.config.apply(&g).unwrap();
        let measured = machine_sim(&applied, &MachineParams::fast(seed))
            .unwrap()
            .throughput;
        let claimed = 1.0 / out.objective;
        assert!(
            measured <= claimed + 0.05,
            "seed {seed}: measured {measured} above claimed bound {claimed}"
        );
    }
}

#[test]
fn late_eval_evaluation_matches_min_cycle_ratio() {
    for seed in 0..4 {
        let g = GeneratorParams::paper_defaults(7, 0, 12)
            .generate(seed)
            .with_late_evaluation();
        let ev = evaluate_config(&g, &Config::initial(&g), &CoreOptions::fast()).unwrap();
        let mcr = exact_late_throughput(&g).min(1.0);
        assert!(
            (ev.theta_lp - mcr).abs() < 1e-5,
            "seed {seed}: LP {} vs MCR {mcr}",
            ev.theta_lp
        );
    }
}

#[test]
fn config_round_trip_through_all_representations() {
    let g = GeneratorParams::paper_defaults(6, 2, 14).generate(9);
    let cfg = Config::initial(&g);
    // Config → applied graph → machine; Config → skeleton instantiation →
    // TGMG sim. Same physical system, same throughput.
    let applied = cfg.apply(&g).unwrap();
    let a = machine_sim(&applied, &MachineParams::fast(1))
        .unwrap()
        .throughput;
    let t = rr_tgmg::skeleton::TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers);
    let b = rr_tgmg::sim::simulate(&t, &rr_tgmg::sim::SimParams::fast(2))
        .unwrap()
        .throughput;
    assert!((a - b).abs() < 0.06, "machine {a} vs tgmg {b}");
}

/// The TGMG LP bound recovers from a numerical failure of the revised
/// kernel. The configuration is the s1494 Table-2 profile at 150 edges
/// (graph seed 2009) with its min-period retiming plus bubbles on edges
/// 71 and 102, on which the revised kernel once reported a singular
/// basis. A fault plan forces that failure (a refactorization every
/// eight eta entries, the ninth or tenth declared singular); the bound
/// must still come back, equal to the dense tableau's.
#[test]
fn lp_bound_recovers_from_a_singular_revised_basis() {
    use rr_bench::HarnessArgs;
    use rr_milp::{FaultPlan, Kernel, SolverOptions};
    use rr_rrg::EdgeId;
    use rr_tgmg::{lp_bound, TgmgSkeleton};

    let args = HarnessArgs::default();
    let p = rr_rrg::iscas::TABLE2
        .iter()
        .find(|p| p.name == "s1494")
        .unwrap();
    let g = args.effective_profile(p).generate(args.seed);
    let mut cfg = rr_retime::min_period_retiming(&g).unwrap().config(&g);
    cfg.add_bubbles(EdgeId(71), 1);
    cfg.add_bubbles(EdgeId(102), 1);
    cfg.validate(&g).unwrap();
    let t = TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers);

    let dense = lp_bound::throughput_upper_bound_with(
        &t,
        &SolverOptions {
            kernel: Kernel::DenseTableau,
            ..Default::default()
        },
    )
    .unwrap();
    assert!((dense - 0.7282).abs() < 1e-4, "dense bound {dense}");
    let singular = SolverOptions {
        refactor_eta_len: 8,
        faults: Some(FaultPlan {
            seed: 2009,
            singular_refactor: 1,
            perturb_ft_spike: 0,
            refuse_ft_update: 0,
            poison_ratio_test: 0,
            fake_iteration_limit: 0,
            inject_cycling: 0,
            fake_time_limit: 0,
        }),
        ..Default::default()
    };
    for opts in [SolverOptions::default(), singular] {
        let bound = lp_bound::throughput_upper_bound_with(&t, &opts).unwrap();
        assert!(
            (bound - dense).abs() < 1e-9,
            "bound {bound} vs dense {dense}"
        );
    }
}
