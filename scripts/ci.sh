#!/usr/bin/env bash
# Tier-1 verify plus bench-rot protection, exactly as CI runs it.
#
#   ./scripts/ci.sh
#
# All dependencies are vendored (vendor/{rand,proptest,criterion}), so
# the build works fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --offline

# --all-targets lints tests, benches and examples too, not only the
# library and binary code.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test -q"
cargo test -q --offline

# The rr-milp property suites are the sparse-LU ↔ dense-oracle agreement
# gate. The vendored proptest draws a deterministic, name-seeded stream
# (see vendor/proptest), so this is a fixed-seed run by construction —
# a failure here reproduces exactly on re-run.
echo "==> cargo test -p rr-milp proptests (fixed-seed kernel/oracle gate)"
cargo test -q -p rr-milp --offline proptests

# The node-ordering regression: DFS through the worker engine must
# reproduce the pre-refactor golden trajectories bit-for-bit, best-bound
# must escape the 40-edge MAX_THR plateau, and both orderings must prove
# identical optima on every instance they can complete. Fixed seeds and
# node caps (no wall clocks), so failures reproduce exactly.
echo "==> cargo test --test search_orders (fixed-seed node-ordering gate)"
cargo test -q --offline --test search_orders

# The self-healing gate: fixed-seed fault-injected runs must prove the
# same optima as their clean twins on every Table-1 figure and bench
# instance, with the recovery counters showing every failure class was
# observed and every ladder rung fired. The FaultPlan is seeded (one
# deterministic SplitMix64 stream per site), so failures replay exactly.
echo "==> cargo test --test fault_injection (fixed-seed recovery-ladder gate)"
cargo test -q --offline --release --test fault_injection

# The worker-engine determinism gate: workers=1 must reproduce the
# serial goldens bit-exact (the historical most-fractional ones and the
# production-configuration stats goldens), workers∈{2,4} must prove
# identical optima and verdicts on every completed Table-1 instance,
# and fault-injected parallel runs must agree with their clean twins.
# Run in release: the suite solves every instance at three worker counts.
echo "==> cargo test --test parallel_search (parallel-search determinism gate)"
cargo test -q --offline --release --test parallel_search

# The pseudo-cost trajectory gate: node-count goldens for the default
# search (pseudo-cost branching + cycle-sum cuts) on fixed-seed
# instances, the search-strength comparisons against most-fractional,
# and the dual-bound/gap regression tests. Fixed seeds and node caps.
echo "==> cargo test --test pseudo_cost_search (pseudo-cost golden gate)"
cargo test -q --offline --release --test pseudo_cost_search

# The pricing gate: Dantzig pricing with its Bland fallback must
# terminate on a massively degenerate model, and the directional pivot
# counters must tie out against the kernel's iteration ledger, serially
# and through the parallel merge.
echo "==> cargo test --test pricing_search (pricing gate)"
cargo test -q --offline --release --test pricing_search

# The backend-unification gate: the two PR 4 golden instances must
# replay bit-exact through the unified warm backend, mirrored/free
# integer fixtures (the deleted LegacyBackend's model class) must solve
# warm at workers∈{1,2} and agree with the dense oracle, and
# source-level assertions pin that no model clone lives in the node
# loop. Fixed seeds and node caps, so failures reproduce exactly.
echo "==> cargo test --test backend_unification (one-backend gate)"
cargo test -q --offline --release --test backend_unification

# The simulator replay gate: the event-driven TGMG simulator must
# reproduce, bit for bit, the firing vectors and throughputs the
# full-scan simulator it replaced produced on the xi_certify recycling
# configurations (all 18 Table-2 profiles at 150 edges), Figures 1b and
# 2 and the 3+3 pipeline, under both guard policies. Fixed seeds, and
# the digests were captured from the full-scan simulator itself, so a
# failure reproduces exactly.
echo "==> cargo test --test sim_replay (simulator replay gate)"
cargo test -q --offline --release --test sim_replay

# The reduced Table-2 sweep: all 18 ISCAS89 profiles scaled to 20 edges
# under a deterministic per-MILP node budget (the generous wall clock
# never binds in practice). Before pseudo-cost branching and cycle-sum
# cuts, the low-θ MIN_CYC steps of the sweep blew any such budget on
# most circuits. The gate requires ≥ 17 of 18 circuits with every MILP
# in their sweeps proven within gap — the current count: only s713
# still truncates in its τ-variable MIN_CYC steps. Raise it whenever the
# count rises, never lower it. The sweep's per-circuit records append to
# BENCH_milp.json.
echo "==> table2 --max-edges 20 (reduced Table-2 sweep gate)"
cargo run --release -q -p rr-bench --bin table2 --offline -- \
  --max-edges 20 --max-nodes 20000 --time-limit 600 --require-complete 17

# Bench code must at least compile so the perf harness can't silently
# rot between PRs (running the benches stays a manual/nightly job); this
# also covers the ordering and parallel A/B arms of milp_scaling
# (ordering_comparison, parallel_comparison).
echo "==> cargo bench --no-run"
cargo bench --no-run --offline

# The repository benchmark (perfbench/, its own cargo workspace) builds
# against the rr-milp/rr-core API: a change that breaks it must fail
# here, not at benchmark time. Same target directory perfbench/run.py
# uses.
echo "==> perfbench build"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
