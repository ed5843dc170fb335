//! Regenerates Table 2: the 18 ISCAS89-profile benchmarks with the
//! columns ξ* (before optimization), ξ_nee (best late-evaluation = min-
//! delay retiming), ξ_lp_min, ξ_sim_min and the improvement I%, plus the
//! paper's three observations.
//!
//! ```text
//! cargo run --release -p rr-bench --bin table2
//! cargo run --release -p rr-bench --bin table2 -- --full-size --time-limit 1200
//! cargo run --release -p rr-bench --bin table2 -- --only s27,s526 --verbose
//! ```
//!
//! By default profiles larger than 150 edges are scaled down: the
//! from-scratch MILP solver stands in for CPLEX, which the paper ran
//! with 20-minute timeouts on the full graphs (`--full-size` lifts the
//! cap). Circuits run in parallel across cores.

use rr_bench::{parallel_map, HarnessArgs};
use rr_core::report::{evaluate_benchmark, Table2};
use rr_rrg::iscas::TABLE2;

fn main() {
    let args = HarnessArgs::parse(std::env::args().skip(1));
    let opts = args.core_options();

    let known: Vec<&str> = TABLE2.iter().map(|p| p.name).collect();
    args.require_known_only(&known);

    let selected: Vec<_> = TABLE2
        .iter()
        .filter(|p| args.selected(p.name))
        .copied()
        .collect();
    println!(
        "Table 2 — {} circuits, seed {}, edge cap {:?}, MILP time limit {}s, node cap {:?}",
        selected.len(),
        args.seed,
        args.max_edges,
        args.time_limit_secs,
        args.max_nodes,
    );
    args.print_resolve_notes();

    let results = parallel_map(selected, |profile| {
        let effective = args.effective_profile(&profile);
        let g = effective.generate(args.seed);
        let scaled = if effective != profile {
            format!(" (scaled from |E|={})", profile.edges)
        } else {
            String::new()
        };
        let res = evaluate_benchmark(profile.name, &g, &opts);
        (profile.name, scaled, res)
    });

    let total = results.len();
    let mut table = Table2::default();
    let mut completed = 0usize;
    for (name, scaled, res) in results {
        match res {
            Ok((row, table1)) => {
                if args.verbose {
                    println!("\n--- {name}{scaled} ---");
                    print!("{table1}");
                }
                // A circuit counts as complete when every MILP in its
                // sweep proved optimality (gap-tolerance proofs
                // included): the `(limit, n incidents)` annotations stay
                // per-row in the rendered table rather than aborting.
                if row.proven_optimal {
                    completed += 1;
                }
                table.rows.push(row);
            }
            Err(e) => eprintln!("{name}: failed: {e}"),
        }
    }
    println!();
    print!("{table}");
    println!(
        "(paper, full-size with CPLEX: average I% = 14.5, RC_lp_min = RC_min in >half \
         the cases, average err% = 12.5)"
    );
    println!("{completed}/{total} circuits completed (all MILPs proven within gap)");
    if let Some(required) = args.require_complete {
        if completed < required {
            eprintln!(
                "error: only {completed}/{total} circuits completed; --require-complete {required}"
            );
            std::process::exit(1);
        }
    }
}
