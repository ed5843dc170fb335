//! Outside-in tracing: spans recorded around calls into each crate's
//! public functions, plus counters taken from what those calls return.
//!
//! A disabled tracer is a no-op, so the untimed-layer code paths stay the
//! same functions in traced and untraced runs. Spans are kept in memory
//! and written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rr_core::OptOutcome;
use rr_milp::BranchBoundStats;

/// One timed call: name, start/end (ns since the tracer was created) and
/// the index of the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder and counter table. Counters are keyed by the per-layer
/// metric names they feed.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name` (or just runs it when off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(key).or_insert(0.0) += v;
        }
    }

    /// Raises counter `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        if self.on {
            let c = self.counts.entry(key).or_insert(0.0);
            *c = c.max(v);
        }
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).count() as f64
    }

    /// Adds one MILP solve's returned statistics to the counters.
    pub fn record_solve(&mut self, stage: Stage, out: &OptOutcome) {
        if !self.on {
            return;
        }
        let s: &BranchBoundStats = &out.stats;
        let r = &s.recovery;
        let truncated = match stage {
            Stage::MaxThr => "core.max_thr_truncated",
            Stage::MinCyc => "core.min_cyc_truncated",
        };
        self.add(truncated, f64::from(u8::from(!out.proven_optimal)));
        self.add("milp.clock_hits", f64::from(u8::from(r.time_budget > 0)));
        for (key, v) in [
            ("milp.nodes", s.nodes),
            ("milp.pivots", s.simplex_iters),
            ("milp.dual_pivots", s.dual_pivots),
            ("milp.primal_pivots", s.primal_pivots),
            ("milp.bound_flips", s.bound_flips),
            ("milp.refactors", s.refactors),
            ("milp.forced_refactors", s.forced_refactors),
            ("milp.ft_updates", s.ft_updates),
            ("milp.weight_resets", s.weight_resets),
            ("milp.strong_branches", s.strong_branches),
            ("milp.pseudo_updates", s.pseudo_updates),
            ("milp.cuts_activated", s.cuts_activated),
            ("milp.incumbents", s.incumbents),
            ("milp.warm_solves", s.warm_solves),
            ("milp.cold_solves", s.cold_solves),
            ("milp.dense_oracle_solves", r.dense_oracle_solves),
            (
                "milp.recovery_events",
                r.unstable_updates
                    + r.singular_refactors
                    + r.cycling_suspected
                    + r.residual_drift
                    + r.pivot_budget
                    + r.time_budget
                    + r.weight_drift,
            ),
        ] {
            self.add(key, v as f64);
        }
        if s.incumbents > 0 {
            self.add(
                "milp.first_incumbent_node_sum",
                s.first_incumbent_node as f64,
            );
            self.add("milp.solves_with_incumbent", 1.0);
        }
        self.max("milp.peak_lu_nnz", s.peak_lu_nnz as f64);
        self.max("milp.basis_rows", s.basis_rows as f64);
        self.max("milp.queue_peak", s.queue_peak as f64);
    }

    /// The per-layer metric table of `BENCHMARK.json`, computed from the
    /// spans and counters. `overhead_frac` and `reconciled` come from the
    /// comparison with the untraced run.
    pub fn layer_metrics(&self, overhead_frac: f64, reconciled: bool) -> Vec<Metric> {
        let c = |k: &str| self.count(k);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let milp_ms = self.ms("core.max_thr") + self.ms("core.min_cyc");
        let (pivots, nodes) = (c("milp.pivots"), c("milp.nodes"));
        let tgmg_sim_ms = self.ms("tgmg.sim");
        let el_ms = self.ms("elastic.sim");
        let build_ms = self.ms("markov.build");
        let solve_ms = (self.ms("markov.exact") - build_ms).max(0.0);
        vec![
            Metric::ms("rrg.generate_ms", self.ms("rrg.generate")),
            Metric::count("rrg.cycle_time_calls", self.calls("rrg.cycle_time")),
            Metric::ms("rrg.cycle_time_ms", self.ms("rrg.cycle_time")),
            Metric::count("retime.calls", self.calls("retime.min_period")),
            Metric::ms("retime.min_period_ms", self.ms("retime.min_period")),
            Metric::count("core.sweep_steps", c("core.sweep_steps")),
            Metric::count("core.max_thr_calls", self.calls("core.max_thr")),
            Metric::ms("core.max_thr_ms", self.ms("core.max_thr")),
            Metric::count("core.max_thr_truncated", c("core.max_thr_truncated")),
            Metric::count("core.min_cyc_calls", self.calls("core.min_cyc")),
            Metric::ms("core.min_cyc_ms", self.ms("core.min_cyc")),
            Metric::count("core.min_cyc_truncated", c("core.min_cyc_truncated")),
            Metric::count("core.evaluate_calls", self.calls("core.evaluate")),
            Metric::ms("core.evaluate_ms", self.ms("core.evaluate")),
            Metric::count("core.incidents", c("core.incidents")),
            Metric::count("milp.pivots", pivots),
            Metric::count("milp.dual_pivots", c("milp.dual_pivots")),
            Metric::count("milp.primal_pivots", c("milp.primal_pivots")),
            Metric::count("milp.bound_flips", c("milp.bound_flips")),
            Metric::new("milp.pivots_per_node", ratio(pivots, nodes), "pivots/node"),
            Metric::new("milp.us_per_pivot", ratio(milp_ms * 1e3, pivots), "us"),
            Metric::count("milp.refactors", c("milp.refactors")),
            Metric::count("milp.forced_refactors", c("milp.forced_refactors")),
            Metric::count("milp.ft_updates", c("milp.ft_updates")),
            Metric::count("milp.peak_lu_nnz", c("milp.peak_lu_nnz")),
            Metric::count("milp.basis_rows", c("milp.basis_rows")),
            Metric::count("milp.weight_resets", c("milp.weight_resets")),
            Metric::count("milp.nodes", nodes),
            Metric::new("milp.us_per_node", ratio(milp_ms * 1e3, nodes), "us"),
            Metric::new(
                "milp.warm_frac",
                ratio(
                    c("milp.warm_solves"),
                    c("milp.warm_solves") + c("milp.cold_solves"),
                ),
                "frac",
            ),
            Metric::count("milp.strong_branches", c("milp.strong_branches")),
            Metric::count("milp.pseudo_updates", c("milp.pseudo_updates")),
            Metric::count("milp.cuts_activated", c("milp.cuts_activated")),
            Metric::count("milp.incumbents", c("milp.incumbents")),
            Metric::new(
                "milp.first_incumbent_node",
                ratio(
                    c("milp.first_incumbent_node_sum"),
                    c("milp.solves_with_incumbent"),
                ),
                "node",
            ),
            Metric::count("milp.queue_peak", c("milp.queue_peak")),
            Metric::count("milp.recovery_events", c("milp.recovery_events")),
            Metric::count("milp.dense_oracle_solves", c("milp.dense_oracle_solves")),
            Metric::ms("tgmg.skeleton_ms", self.ms("tgmg.skeleton")),
            Metric::count("tgmg.lp_bound_calls", self.calls("tgmg.lp_bound")),
            Metric::ms("tgmg.lp_bound_ms", self.ms("tgmg.lp_bound")),
            Metric::count("tgmg.lp_bound_pivots", c("tgmg.lp_bound_pivots")),
            Metric::count("tgmg.sim_calls", self.calls("tgmg.sim")),
            Metric::ms("tgmg.sim_ms", tgmg_sim_ms),
            Metric::count("tgmg.sim_cycles", c("tgmg.sim_cycles")),
            Metric::new(
                "tgmg.sim_ns_per_firing",
                ratio(tgmg_sim_ms * 1e6, c("tgmg.sim_firings")),
                "ns",
            ),
            Metric::count("elastic.sim_calls", self.calls("elastic.sim")),
            Metric::ms("elastic.sim_ms", el_ms),
            Metric::new(
                "elastic.ns_per_firing",
                ratio(el_ms * 1e6, c("elastic.firings")),
                "ns",
            ),
            Metric::count("elastic.deadlocks", c("elastic.deadlocks")),
            Metric::ms("markov.build_ms", build_ms),
            Metric::ms("markov.solve_ms", solve_ms),
            Metric::count("markov.states", c("markov.states")),
            Metric::count("markov.transitions", c("markov.transitions")),
            Metric::count("markov.recurrent_states", c("markov.recurrent_states")),
            Metric::new(
                "markov.states_per_s",
                ratio(c("markov.states") * 1e3, build_ms),
                "1/s",
            ),
            Metric::count("markov.inexact", c("markov.inexact")),
            Metric::new("trace.overhead_frac", overhead_frac, "frac"),
            Metric::count("trace.reconciled", f64::from(u8::from(reconciled))),
        ]
    }

    /// The recorded spans as JSON lines (one object per span).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Which MILP of the §4 recurrence a solve belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    MaxThr,
    MinCyc,
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }

    fn ms(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "ms")
    }

    fn count(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }
}
