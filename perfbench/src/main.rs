//! The repository benchmark. One command runs a named workload with a
//! seed, checks the program's outputs, and prints its metrics:
//!
//! ```text
//! rr-perfbench --workload table2_e20 --seed 2009 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, serial,
//! in one process. `--trace 1` runs the workload once untraced and once
//! traced (spans around every call into the crates' public functions)
//! and reports the per-layer metrics. The last line of standard output is
//! the result object; the line before it is the stamped record, which is
//! also appended to the `--out` file.

mod common;
mod milp_large;
mod table2;
mod trace;
mod xi_certify;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use rr_milp::SolverOptions;

use crate::common::{Counters, RepOutcome};
use crate::trace::{Metric, Tracer};

/// Each set-up sample runs the set-up at least this many times and for at
/// least `SETUP_MIN_SECS`; `setup_s` is the median over all samples.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MIN_SECS: f64 = 0.3;

/// A workload: inputs made from the seed, one repetition of the timed
/// work, and the output checks of a repetition.
trait Workload {
    type Input;
    type Run;
    fn setup(tr: &mut Tracer, seed: u64) -> Self::Input;
    fn solver(input: &Self::Input) -> &SolverOptions;
    fn run(tr: &mut Tracer, input: &Self::Input) -> Self::Run;
    fn assess(input: &Self::Input, run: &Self::Run) -> RepOutcome;
    /// Workload-specific agreement of a traced and an untraced run, on
    /// top of equal deterministic counters.
    fn reconcile(_traced: &Self::Run, _untraced: &Self::Run) -> Result<(), String> {
        Ok(())
    }
}

struct Table2;
impl Workload for Table2 {
    type Input = table2::Input;
    type Run = Vec<table2::CircuitRun>;
    fn setup(tr: &mut Tracer, seed: u64) -> Self::Input {
        table2::setup(tr, seed)
    }
    fn solver(input: &Self::Input) -> &SolverOptions {
        &input.opts.solver
    }
    fn run(tr: &mut Tracer, input: &Self::Input) -> Self::Run {
        table2::run(tr, input)
    }
    fn assess(input: &Self::Input, run: &Self::Run) -> RepOutcome {
        table2::assess(input, run)
    }
    fn reconcile(traced: &Self::Run, untraced: &Self::Run) -> Result<(), String> {
        table2::reconcile(traced, untraced)
    }
}

struct MilpLarge;
impl Workload for MilpLarge {
    type Input = milp_large::Input;
    type Run = Vec<milp_large::InstanceRun>;
    fn setup(tr: &mut Tracer, seed: u64) -> Self::Input {
        milp_large::setup(tr, seed)
    }
    fn solver(input: &Self::Input) -> &SolverOptions {
        &input.opts.solver
    }
    fn run(tr: &mut Tracer, input: &Self::Input) -> Self::Run {
        milp_large::run(tr, input)
    }
    fn assess(input: &Self::Input, run: &Self::Run) -> RepOutcome {
        milp_large::assess(input, run)
    }
}

struct XiCertify;
impl Workload for XiCertify {
    type Input = xi_certify::Input;
    type Run = xi_certify::Run;
    fn setup(tr: &mut Tracer, seed: u64) -> Self::Input {
        xi_certify::setup(tr, seed)
    }
    fn solver(input: &Self::Input) -> &SolverOptions {
        &input.opts.solver
    }
    fn run(tr: &mut Tracer, input: &Self::Input) -> Self::Run {
        xi_certify::run(tr, input)
    }
    fn assess(input: &Self::Input, run: &Self::Run) -> RepOutcome {
        xi_certify::assess(input, run)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut out, mut commit) = (None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--commit" => commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
        commit,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "table2_e20" => measure::<Table2>(&args),
        "milp_large" => measure::<MilpLarge>(&args),
        "xi_certify" => measure::<XiCertify>(&args),
        other => {
            eprintln!("error: unknown workload {other} (table2_e20, milp_large, xi_certify)");
            std::process::exit(2);
        }
    };
    let stamp = report.stamp(&args);
    println!("{stamp}");
    if let Some(path) = &args.out {
        if let Err(e) = append(path, &stamp, report.spans.as_deref(), &args) {
            eprintln!(
                "warning: could not write records under {}: {e}",
                path.display()
            );
        }
    }
    println!("{}", report.result_line());
}

/// Everything a run reports.
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    counters: Counters,
    /// Wall time of every pass, in order (traced: untraced, then traced).
    rep_walls: Vec<f64>,
    /// Share of units whose every MILP was proven (first repetition).
    proven_frac: f64,
    gap_mean: Option<f64>,
    options: (String, Vec<String>),
    reconciled: Option<Result<(), String>>,
    spans: Option<String>,
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Exact equality of two passes' deterministic counters (the ξ geometric
/// mean compared bit for bit).
fn counters_equal(a: &Counters, b: &Counters) -> bool {
    let key = |c: &Counters| {
        (
            c.nodes,
            c.pivots,
            c.states,
            c.sim_cycles,
            c.evaluations,
            c.xi_ratio_geomean.to_bits(),
        )
    };
    key(a) == key(b)
}

/// Runs the set-up at least `SETUP_MIN_REPS` times and for at least
/// `SETUP_MIN_SECS`, recording each time; returns the last input.
fn sample_setup<W: Workload>(seed: u64, times: &mut Vec<f64>) -> W::Input {
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let input = std::hint::black_box(W::setup(&mut off, seed));
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_SECS {
            return input;
        }
    }
}

fn measure<W: Workload>(args: &Args) -> Report {
    if args.trace {
        return measure_traced::<W>(args);
    }
    let mut off = Tracer::new(false);
    // Set-up, sampled before the timed phase and again after every
    // repetition, so its median sees the same host as the timed work.
    let mut setup_times = Vec::new();
    let input = sample_setup::<W>(args.seed, &mut setup_times);
    let options = resolved(W::solver(&input));

    // Timed phase: whole repetitions until the time is used; every
    // repetition is checked and must reproduce the first one's counters.
    let mut walls = Vec::new();
    let mut first: Option<RepOutcome> = None;
    let (mut attempted, mut failures) = (0, Vec::new());
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let run = std::hint::black_box(W::run(&mut off, &input));
        walls.push(t0.elapsed().as_secs_f64());
        let rep = W::assess(&input, &run);
        sample_setup::<W>(args.seed, &mut setup_times);
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().cloned());
        if let Some(f) = &first {
            if !counters_equal(&f.counters, &rep.counters) {
                failures.push(format!(
                    "repetition {} is not deterministic: {:?} vs {:?}",
                    walls.len(),
                    rep.counters,
                    f.counters
                ));
            }
        } else {
            first = Some(rep);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / walls.len() as f64;
        if elapsed + per_rep > args.seconds {
            break;
        }
    }
    let first = first.expect("one repetition ran");
    let gap_mean =
        (!first.gaps.is_empty()).then(|| first.gaps.iter().sum::<f64>() / first.gaps.len() as f64);
    let metrics = vec![
        Metric::new("setup_s", median(&mut setup_times), "s"),
        // The fastest repetition: every repetition does the same work
        // (the counters check it), and contention on a shared host only
        // ever adds time. Every repetition's time is in the stamp.
        Metric::new(
            "wall_s",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("xi_ratio_geomean", first.counters.xi_ratio_geomean, "ratio"),
    ];
    Report {
        attempted,
        failures,
        metrics,
        counters: first.counters,
        rep_walls: walls,
        proven_frac: first.proven as f64 / first.attempted as f64,
        gap_mean,
        options,
        reconciled: None,
        spans: None,
    }
}

fn measure_traced<W: Workload>(args: &Args) -> Report {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let input = W::setup(&mut tr, args.seed);
    let options = resolved(W::solver(&input));

    let t0 = Instant::now();
    let untraced = std::hint::black_box(W::run(&mut off, &input));
    let untraced_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let traced = std::hint::black_box(W::run(&mut tr, &input));
    let traced_s = t0.elapsed().as_secs_f64();

    let rep_u = W::assess(&input, &untraced);
    let rep_t = W::assess(&input, &traced);
    let reconciled = if counters_equal(&rep_t.counters, &rep_u.counters) {
        W::reconcile(&traced, &untraced)
    } else {
        Err(format!(
            "traced counters {:?} vs untraced {:?}",
            rep_t.counters, rep_u.counters
        ))
    };
    if let Err(e) = &reconciled {
        eprintln!("warning: the trace is stale (replay no longer matches the program): {e}");
    }
    let metrics = tr.layer_metrics(traced_s / untraced_s - 1.0, reconciled.is_ok());
    let gap_mean =
        (!rep_u.gaps.is_empty()).then(|| rep_u.gaps.iter().sum::<f64>() / rep_u.gaps.len() as f64);
    let mut failures = rep_u.failures.clone();
    failures.extend(rep_t.failures.iter().cloned());
    Report {
        attempted: rep_u.attempted + rep_t.attempted,
        failures,
        metrics,
        counters: rep_u.counters,
        rep_walls: vec![untraced_s, traced_s],
        proven_frac: rep_u.proven as f64 / rep_u.attempted as f64,
        gap_mean,
        options,
        reconciled: Some(reconciled),
        spans: Some(tr.spans_jsonl()),
    }
}

/// `SolverOptions::resolve()` rendered for the stamp: the effective
/// options and the normalization notes.
fn resolved(opts: &SolverOptions) -> (String, Vec<String>) {
    let (eff, notes) = opts.resolve();
    (format!("{eff:?}"), notes)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn join_nums(v: &[f64]) -> String {
    v.iter()
        .map(|&x| json_num(x))
        .collect::<Vec<_>>()
        .join(", ")
}

/// FNV-1a, 64 bit: a stable digest of the resolved solver options.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Report {
    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn failed(&self) -> usize {
        self.failures.len().min(self.attempted)
    }

    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed() == 0,
            self.attempted,
            self.failed(),
            self.metrics_json()
        )
    }

    /// The stamped record: commit, host, seed, resolved-options digest,
    /// the counters the determinism check compares, and every metric.
    fn stamp(&self, args: &Args) -> String {
        let (opts, notes) = &self.options;
        let digest = fnv1a(&format!("{opts}\n{}", notes.join("\n")));
        let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let c = &self.counters;
        let notes: Vec<String> = notes.iter().map(|n| json_str(n)).collect();
        let failures: Vec<String> = self.failures.iter().take(8).map(|f| json_str(f)).collect();
        let reconciled = match &self.reconciled {
            None => "null".to_string(),
            Some(Ok(())) => "true".to_string(),
            Some(Err(e)) => json_str(e),
        };
        let quality = [
            (
                "fail_frac",
                self.failed() as f64 / self.attempted.max(1) as f64,
            ),
            ("proven_frac", self.proven_frac),
            ("gap_mean", self.gap_mean.unwrap_or(f64::NAN)),
        ]
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"frac\"}}",
                json_num(v)
            )
        })
        .join(", ");
        format!(
            "{{\"kind\": \"perfbench\", \"workload\": {}, \"seed\": {}, \"trace\": {}, \
             \"commit\": {}, \"host_cpus\": {host_cpus}, \"options_digest\": \"{digest:016x}\", \
             \"options_notes\": [{}], \"seconds\": {}, \"reps\": {}, \"rep_walls_s\": [{}], \
             \"quality\": {{{quality}}}, \
             \"reconciled\": {reconciled}, \"counters\": {{\"milp.nodes\": {}, \
             \"milp.pivots\": {}, \"markov.states\": {}, \"tgmg.sim_cycles\": {}, \
             \"core.evaluations\": {}, \"xi_ratio_geomean\": {}}}, \"failures\": [{}], \
             \"metrics\": {}}}",
            json_str(&args.workload),
            args.seed,
            u8::from(args.trace),
            json_str(&args.commit),
            notes.join(", "),
            json_num(args.seconds),
            self.rep_walls.len(),
            join_nums(&self.rep_walls),
            c.nodes,
            c.pivots,
            c.states,
            c.sim_cycles,
            c.evaluations,
            json_num(c.xi_ratio_geomean),
            failures.join(", "),
            self.metrics_json()
        )
    }
}

/// Appends the stamped record to `path` and, for a traced run, writes the
/// spans beside it. The path is the one given at run time.
fn append(path: &PathBuf, stamp: &str, spans: Option<&str>, args: &Args) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(format!("{stamp}\n").as_bytes())?;
    f.flush()?;
    if let Some(spans) = spans {
        let name = format!("spans-{}-{}.jsonl", args.workload, args.seed);
        std::fs::write(path.with_file_name(name), spans)?;
    }
    Ok(())
}
