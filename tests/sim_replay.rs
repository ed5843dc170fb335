//! Simulator replay gate: `rr_tgmg::sim::simulate` must reproduce pinned
//! results bit for bit. Each case pins an FNV-1a digest of the per-node
//! firing vector and the bits of the measured throughput. The digests
//! were captured from the full-scan simulator (all nodes examined at
//! every instant) that the event-driven loop replaced, so a change to
//! the firing order, the guard draws or Θ shows up here.
//!
//! Cases, each under both guard policies:
//!
//! * the recycling configurations of the repository benchmark's
//!   `xi_certify` workload: every Table-2 profile at 150 edges (graph
//!   seed 2009) with its min-period retiming plus two bubbles on edges
//!   drawn from placement seed 2009, s1494 included;
//! * Figures 1b and 2, and the 3+3 pipeline of Figure 1b at α = 0.6.
//!
//! All cases run the table binaries' simulation parameters (30k cycles,
//! 3k warm-up, the default seed).

use rr_bench::HarnessArgs;
use rr_retime::min_period_retiming;
use rr_rrg::iscas::TABLE2;
use rr_rrg::{figures, EdgeId, Rrg};
use rr_tgmg::sim::{simulate, GuardPolicy, SimParams};
use rr_tgmg::skeleton::tgmg_of;
use rr_tgmg::{Tgmg, TgmgSkeleton};

/// Bubbles per Table-2 configuration, and the seed placing them.
const BUBBLES: usize = 2;
const PLACEMENT_SEED: u64 = 2009;

/// `(case, policy, firings digest, throughput bits)`.
const PINNED: &[(&str, &str, u64, u64)] = &[
    ("s208", "persistent", 0x820ca5a0f36b56f4, 0x3fd96b7b6934de66),
    ("s208", "resample", 0x99a62c17fcd020de, 0x3fd988009b583738),
    ("s641", "persistent", 0x3776d585c1f53d84, 0x3fe4bae6226fce3e),
    ("s641", "resample", 0x36eef8f5cb43aa21, 0x3fe53662c2551b14),
    ("s27", "persistent", 0xf30b1ffc9f7a2c27, 0x3fecc00e90452d49),
    ("s27", "resample", 0x22226c26cefee35e, 0x3fecbb817aa70699),
    ("s444", "persistent", 0xf7db8affd326d91d, 0x3febd2cad3ee1956),
    ("s444", "resample", 0x01a0407093c0d465, 0x3febd0f8cb487043),
    ("s838", "persistent", 0xe83a6dbc836f7ee4, 0x3fde04189374bc6a),
    ("s838", "resample", 0xabe35e38c3f0fd5f, 0x3fe112956d9b1df6),
    ("s386", "persistent", 0x02514535427f295b, 0x3fe65823cd54b9fd),
    ("s386", "resample", 0xea24ce9efca74b77, 0x3fe665cb0e2f2e0b),
    ("s344", "persistent", 0xcc9554d0164479fc, 0x3fe80c22e4506729),
    ("s344", "resample", 0xf554634448125513, 0x3fe8280cbe3c87a0),
    ("s400", "persistent", 0xd5b4cdcafbf20e4a, 0x3fe465f1e43cfc22),
    ("s400", "resample", 0x77bac74bd9744195, 0x3fe48496cb219a35),
    ("s526", "persistent", 0x599126d88bcf2230, 0x3fe69d5115ebd2cb),
    ("s526", "resample", 0x2ad7f3586ffc3723, 0x3fe7042bfe7ba376),
    ("s382", "persistent", 0xeeec8df9d8eac987, 0x3fe557750a169a96),
    ("s382", "resample", 0x9640ac0bf51f222a, 0x3fe5722833944a56),
    ("s420", "persistent", 0x7e3538f9f462a6f8, 0x3fe3b38a94d242e7),
    ("s420", "resample", 0x19079d0d35db94ab, 0x3fe504ee2cc0a9e8),
    ("s832", "persistent", 0x296b70721ba46e9b, 0x3fe34395810624dd),
    ("s832", "resample", 0xe92371ccb5bf1b92, 0x3fe3a4114b5225c6),
    (
        "s1488",
        "persistent",
        0x56c341d9a61e1095,
        0x3fdfff64a7c8c7a4,
    ),
    ("s1488", "resample", 0x5878b052adc13c62, 0x3fe0000000000000),
    ("s510", "persistent", 0xc0f1d9f41f087b6f, 0x3fe765de79361516),
    ("s510", "resample", 0x4168ba2df0083a82, 0x3fe789abcdf01234),
    ("s953", "persistent", 0xbe54504853c94deb, 0x3fe6d3051502ce78),
    ("s953", "resample", 0x7a17b52daca1db74, 0x3fe6d3ee1955a301),
    ("s713", "persistent", 0xd0b747541b44fc97, 0x3fea9d0369d0369d),
    ("s713", "resample", 0xbbb39cd27094a045, 0x3feaa00c22e45067),
    (
        "s1494",
        "persistent",
        0x544c764d65a63217,
        0x3fe563e59a829dec,
    ),
    ("s1494", "resample", 0x9796a9cc74a8f92a, 0x3fe58325d99e745b),
    ("s820", "persistent", 0x706413fa93658f17, 0x3fe242e6bdc80576),
    ("s820", "resample", 0x3688e9aa2106ce39, 0x3fe2595a7dc32ab4),
    (
        "figure_1b_a0.5",
        "persistent",
        0x405f0c9292f664ff,
        0x3fdfaba71a046640,
    ),
    (
        "figure_1b_a0.5",
        "resample",
        0xc713867bab258b24,
        0x3fe1c71c71c71c72,
    ),
    (
        "figure_1b_a0.9",
        "persistent",
        0x6766a3f3abe849db,
        0x3fe70ad8c8db0f66,
    ),
    (
        "figure_1b_a0.9",
        "resample",
        0x031ef080f0e497db,
        0x3fe844df9c7b7ca0,
    ),
    (
        "figure_2_a0.3",
        "persistent",
        0xaa88d84a9a062687,
        0x3fdabcdf01234568,
    ),
    (
        "figure_2_a0.3",
        "resample",
        0x2018769b3329ba7e,
        0x3fdd1f53aa22bd7a,
    ),
    (
        "figure_2_a0.7",
        "persistent",
        0x1bc8cf867812435c,
        0x3fe40fc6f59bb94e,
    ),
    (
        "figure_2_a0.7",
        "resample",
        0x1e48caf65b7bd4f3,
        0x3fe71c71c71c71c7,
    ),
    (
        "pipeline_3+3",
        "persistent",
        0xcf8b99ac932a0605,
        0x3fdb72ea61d950c8,
    ),
    (
        "pipeline_3+3",
        "resample",
        0x166d2dc4f9cd5493,
        0x3fe162fc962fc963,
    ),
];

/// SplitMix64 stream `stream` of `seed`, as the benchmark draws its
/// bubble placement.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The Table-2 configurations, in profile order.
fn table2_configurations() -> Vec<(String, Tgmg)> {
    let args = HarnessArgs::default();
    let mut placement = SplitMix::new(PLACEMENT_SEED, 2);
    TABLE2
        .iter()
        .map(|p| {
            let g = args.effective_profile(p).generate(args.seed);
            let bubbles: Vec<EdgeId> = (0..BUBBLES)
                .map(|_| EdgeId(placement.below(g.num_edges())))
                .collect();
            let mut cfg = min_period_retiming(&g).unwrap().config(&g);
            for e in bubbles {
                cfg.add_bubbles(e, 1);
            }
            cfg.validate(&g).unwrap();
            let t = TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers);
            (p.name.to_string(), t)
        })
        .collect()
}

fn figure_cases() -> Vec<(String, Tgmg)> {
    let figures: [(&str, Rrg); 5] = [
        ("figure_1b_a0.5", figures::figure_1b(0.5)),
        ("figure_1b_a0.9", figures::figure_1b(0.9)),
        ("figure_2_a0.3", figures::figure_2(0.3)),
        ("figure_2_a0.7", figures::figure_2(0.7)),
        ("pipeline_3+3", figures::figure_1b_pipeline(&[3, 3], 0.6)),
    ];
    figures
        .into_iter()
        .map(|(name, g)| (name.to_string(), tgmg_of(&g)))
        .collect()
}

/// FNV-1a over the little-endian bytes of the firing counts.
fn fnv1a(firings: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in firings.iter().flat_map(|f| f.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

#[test]
fn simulation_replays_the_pinned_results() {
    let base = HarnessArgs::default().core_options().sim;
    let mut actual = Vec::new();
    for (name, t) in table2_configurations().into_iter().chain(figure_cases()) {
        for (policy, guard_policy) in [
            ("persistent", GuardPolicy::Persistent),
            ("resample", GuardPolicy::ResampleEachCycle),
        ] {
            let params = SimParams {
                guard_policy,
                ..base.clone()
            };
            let r = simulate(&t, &params).unwrap_or_else(|e| panic!("{name}/{policy}: {e}"));
            actual.push((
                name.clone(),
                policy,
                fnv1a(&r.firings),
                r.throughput.to_bits(),
            ));
        }
    }
    let listing: String = actual
        .iter()
        .map(|(n, p, d, b)| format!("    (\"{n}\", \"{p}\", 0x{d:016x}, 0x{b:016x}),\n"))
        .collect();
    assert_eq!(actual.len(), PINNED.len(), "case count; actual:\n{listing}");
    for ((n, p, d, b), &(pn, pp, pd, pb)) in actual.iter().zip(PINNED) {
        assert_eq!((n.as_str(), *p), (pn, pp), "case order; actual:\n{listing}");
        assert_eq!(
            (*d, *b),
            (pd, pb),
            "{n}/{p}: firings digest or throughput bits moved; actual:\n{listing}"
        );
    }
}
