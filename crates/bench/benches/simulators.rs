//! Simulator cost comparison on shared random workloads: cycles/second of
//! the TGMG discrete-event simulator vs the cycle-accurate elastic
//! machine (unbounded and bounded capacity) — the ablation behind the
//! footnote-1 "big enough FIFOs" assumption. A TGMG-only arm times one
//! 150-edge Table-2 recycling configuration, the size at which the
//! simulator's per-instant work matters most.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rr_bench::HarnessArgs;
use rr_elastic::{simulate as machine_sim, Capacity, MachineParams};
use rr_rrg::generate::GeneratorParams;
use rr_rrg::iscas::TABLE2;
use rr_rrg::EdgeId;
use rr_tgmg::{sim as tgmg_sim, skeleton::tgmg_of, TgmgSkeleton};

const HORIZON: u64 = 5_000;

fn bench_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulators_5k_cycles");
    group.sample_size(10);
    group.throughput(Throughput::Elements(HORIZON));
    for &(nodes, edges) in &[(12usize, 24usize), (48, 96)] {
        let early = (nodes / 8).max(1);
        let p = GeneratorParams::paper_defaults(nodes - early, early, edges);
        let g = p.generate(7);
        let t = tgmg_of(&g);

        group.bench_with_input(BenchmarkId::new("tgmg", edges), &t, |b, t| {
            let params = tgmg_sim::SimParams {
                horizon: HORIZON,
                warmup: HORIZON / 10,
                ..Default::default()
            };
            b.iter(|| tgmg_sim::simulate(black_box(t), &params).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("machine_unbounded", edges), &g, |b, g| {
            let params = MachineParams {
                horizon: HORIZON,
                warmup: HORIZON / 10,
                ..Default::default()
            };
            b.iter(|| machine_sim(black_box(g), &params).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("machine_bounded", edges), &g, |b, g| {
            let params = MachineParams {
                horizon: HORIZON,
                warmup: HORIZON / 10,
                capacity: Capacity::PerBuffer(2),
                ..Default::default()
            };
            b.iter(|| {
                // Bounded runs can deadlock on wire-heavy graphs; that
                // outcome is part of what we measure.
                let _ = machine_sim(black_box(g), &params);
            })
        });
    }
    // s1494 at 150 edges (graph seed 2009): its min-period retiming plus
    // bubbles on edges 71 and 102, one of the configurations the
    // repository benchmark's `xi_certify` workload draws.
    let args = HarnessArgs::default();
    let p = TABLE2.iter().find(|p| p.name == "s1494").unwrap();
    let g = args.effective_profile(p).generate(args.seed);
    let mut cfg = rr_retime::min_period_retiming(&g).unwrap().config(&g);
    cfg.add_bubbles(EdgeId(71), 1);
    cfg.add_bubbles(EdgeId(102), 1);
    let t = TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers);
    group.bench_with_input(BenchmarkId::new("tgmg", "s1494_e150"), &t, |b, t| {
        let params = tgmg_sim::SimParams {
            horizon: HORIZON,
            warmup: HORIZON / 10,
            ..Default::default()
        };
        b.iter(|| tgmg_sim::simulate(black_box(t), &params).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_simulators
}
criterion_main!(benches);
