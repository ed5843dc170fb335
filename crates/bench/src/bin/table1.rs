//! Regenerates Table 1: all non-dominated retiming/recycling
//! configurations of the s526 profile, with cycle time, LP-bound and
//! simulated throughput, the bound error, and both effective cycle times.
//!
//! ```text
//! cargo run --release -p rr-bench --bin table1 [-- --seed N --only s400]
//! ```
//!
//! `--only` takes exactly one circuit name; an unknown name or a list
//! exits with status 2.
//!
//! Absolute values differ from the paper (the graph attributes were
//! random there too); the qualitative shape — several Pareto points, the
//! LP picking a near-optimal one, err% growing as bubbles are inserted —
//! is the reproduction target.

use rr_bench::HarnessArgs;
use rr_core::report::evaluate_benchmark;
use rr_rrg::iscas::{IscasProfile, TABLE2};

fn main() {
    let args = HarnessArgs::parse(std::env::args().skip(1));
    let known: Vec<&str> = TABLE2.iter().map(|p| p.name).collect();
    args.require_known_only(&known);
    if args.only.len() > 1 {
        eprintln!(
            "error: table1 runs one circuit, --only names {}: {}",
            args.only.len(),
            args.only.join(", ")
        );
        std::process::exit(2);
    }
    let name = args.only.first().map(String::as_str).unwrap_or("s526");
    let profile = IscasProfile::by_name(name).expect("--only was checked against TABLE2");
    let effective = args.effective_profile(&profile);
    let g = effective.generate(args.seed);
    println!(
        "Table 1 — non-dominated configurations of {name} \
         (|N1|={}, |N2|={}, |E|={}, seed={})",
        g.num_simple(),
        g.num_early(),
        g.num_edges(),
        args.seed
    );
    if effective != profile {
        println!(
            "(scaled from |E|={} to fit the MILP budget; run with --full-size to override)",
            profile.edges
        );
    }
    args.print_resolve_notes();
    println!();
    let (row, table1) =
        evaluate_benchmark(name, &g, &args.core_options()).expect("benchmark pipeline succeeds");
    print!("{table1}");
    println!(
        "\nξ* = {:.2}, ξ_nee = {:.2}, ξ_lp_min = {:.2}, ξ_sim_min = {:.2}, I% = {:.1}",
        row.xi_star, row.xi_nee, row.xi_lp_min, row.xi_sim_min, row.improvement_pct
    );
}
