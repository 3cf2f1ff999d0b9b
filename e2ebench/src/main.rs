//! End-to-end benchmark of the voltprop workspace.
//!
//! ```text
//! e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! Runs one seeded workload through the public API of `voltprop-core`
//! and `voltprop-serve`, checks every answer against an independent
//! reference, and prints two JSON lines on stdout: the attributed
//! record (build, machine, seed, sample counts and quartiles beside
//! every metric), then the summary line
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics from spans recorded around the benchmark's own calls
//! into each layer, and keeps its own end-to-end numbers in the record so
//! tracing overhead is visible. See `README.md` for the workloads and the
//! layer → metric map.

mod check;
mod decap;
mod probes;
mod serve;
mod stats;
mod sys;
mod table1;
mod trace;
mod whatif;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::Metric;
use trace::Tracer;
use voltprop_bench::alloc::{self, CountingAllocator};
use voltprop_serve::json::Json;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Worker threads of the `table1_c3` and `whatif_batch` sessions.
pub const PARALLELISM: usize = 2;
/// Set-up is repeated this many times in a timed run; `setup_s` is the median.
pub const SETUP_ROUNDS: u64 = 5;
/// Rounds for a set-up of tens of milliseconds or less, whose single
/// readings a page fault or a descheduled thread moves by a fifth.
pub const SHORT_SETUP_ROUNDS: u64 = 3 * SETUP_ROUNDS;

/// How much work a workload run does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The measured run: requests until the time is up, answers checked.
    Timed(Duration),
    /// A traced run's short pass over another workload's layers: one
    /// set-up, a request or two, no answer checks.
    Probe,
}

impl Budget {
    pub fn setup_rounds(self, rounds: u64) -> u64 {
        match self {
            Budget::Timed(_) => rounds,
            Budget::Probe => 1,
        }
    }

    pub fn checked(self) -> bool {
        matches!(self, Budget::Timed(_))
    }

    /// Closed-loop stop rule: a timed run sends until its time is up, a
    /// probe sends `probe_requests`.
    pub fn more(self, elapsed: Duration, sent: u64, probe_requests: u64) -> bool {
        match self {
            Budget::Timed(limit) => elapsed < limit,
            Budget::Probe => sent < probe_requests,
        }
    }
}

/// What one workload run reports.
pub struct Outcome {
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Attempted operations whose answer carries no field that depends on
    /// the node voltages, so only their status flags were checked.
    pub flag_checked: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1C3,
    WhatifBatch,
    DecapTransient,
    ServeMixed,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Table1C3,
    Workload::WhatifBatch,
    Workload::DecapTransient,
    Workload::ServeMixed,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Table1C3 => "table1_c3",
            Workload::WhatifBatch => "whatif_batch",
            Workload::DecapTransient => "decap_transient",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn run(self, seed: u64, budget: Budget, tracer: &Tracer, sweep_ns: Option<f64>) -> Outcome {
        match self {
            Workload::Table1C3 => table1::run(seed, budget, tracer, sweep_ns),
            Workload::WhatifBatch => whatif::run(seed, budget, tracer),
            Workload::DecapTransient => decap::run(seed, budget, tracer),
            Workload::ServeMixed => serve::run(seed, budget, tracer),
        }
    }

    /// Whether this workload's body produces the per-layer metric; the
    /// set-up layer metrics and the shared probes belong to every run.
    fn owns(self, metric: &str) -> bool {
        let home = if metric.starts_with("serve.") {
            Workload::ServeMixed
        } else if metric.starts_with("core.transient.") {
            Workload::DecapTransient
        } else if [
            "core.seq_ms_per_rhs",
            "core.batch1_ms",
            "core.lane_sweeps_max",
            "core.lane_sweeps_min",
        ]
        .contains(&metric)
        {
            Workload::WhatifBatch
        } else if ["core.outer_iters", "core.inner_sweeps", "core.sweep_share"].contains(&metric) {
            Workload::Table1C3
        } else {
            return true;
        };
        home == self
    }
}

/// The end-to-end metrics, in the order every untraced run prints them.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "mem_mb",
    "latency_p50_ms",
    "latency_p95_ms",
    "throughput_per_s",
];

/// The per-layer metrics, in the order every traced run prints them.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "grid.stack_ms",
        "core.build_ms",
        "core.session_mb",
        "core.outer_iters",
        "core.inner_sweeps",
        "core.sweep_share",
        "core.seq_ms_per_rhs",
        "core.batch1_ms",
        "core.lane_sweeps_max",
        "core.lane_sweeps_min",
        "core.transient.prefactor_ms",
        "core.transient.iters_per_step",
        "core.transient.solve_us_per_step",
        "core.transient.wave_us_per_step",
        "core.transient.sink_us_per_step",
        "solvers.sweep_ns",
        "solvers.sweep_seq_ns",
        "solvers.sweep_shard2_ns",
        "solvers.sweep_gbps",
        "solvers.batch_lane_sweep_ns",
        "solvers.pool_rt_us",
        "sparse.axpy_gbps",
        "serve.build_ms",
    ]
    .map(String::from)
    .to_vec();
    for layer in ["parse", "stack", "registry", "solve", "encode", "wire"] {
        for class in ["hot", "explicit", "voltages", "cold"] {
            names.push(format!("serve.{layer}_ms.{class}"));
        }
    }
    names.extend(["serve.late_ms_p95", "serve.evictions", "serve.overloaded"].map(String::from));
    names
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: e2ebench --workload <table1_c3|whatif_batch|decap_transient|serve_mixed> \
[--seed N] [--seconds S] [--trace 0|1] [--out PATH]";

/// `Ok(None)` means `--help`; `Err` carries what was wrong.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (1u64, 20.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    }))
}

/// A JSON object from `(key, value)` pairs, in order. Non-finite numbers
/// encode as `null`; the caller has already counted them as failures.
fn obj(members: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(members.into_iter().collect())
}

/// Every metric by name: its value and unit, and with `detail` also its
/// sample count, quartiles and note.
fn metrics_json(metrics: &[Metric], detail: bool) -> Json {
    obj(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value".to_string(), Json::from(m.value)),
            ("unit".to_string(), Json::from(m.unit)),
        ];
        if detail {
            fields.extend([
                ("n".to_string(), Json::from(m.n)),
                ("q1".to_string(), Json::from(m.q1)),
                ("q3".to_string(), Json::from(m.q3)),
                ("note".to_string(), Json::from(m.note.as_str())),
            ]);
        }
        (m.name.clone(), obj(fields))
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let tracer = Tracer::new(args.trace);

    let mut layers = Vec::new();
    let mut sweep_ns = None;
    if args.trace {
        layers = probes::layer_probes();
        sweep_ns = layers
            .iter()
            .find(|m| m.name == "solvers.sweep_ns")
            .map(|m| m.value);
        alloc::reset_peak();
    }
    let budget = Budget::Timed(Duration::from_secs_f64(args.seconds));
    let outcome = args.workload.run(args.seed, budget, &tracer, sweep_ns);
    let mut failed = outcome.failed;

    if args.trace {
        layers.extend(outcome.layers);
        for other in WORKLOADS.into_iter().filter(|&w| w != args.workload) {
            let probe = other.run(args.seed, Budget::Probe, &Tracer::new(true), sweep_ns);
            layers.extend(
                probe
                    .layers
                    .into_iter()
                    .filter(|m| other.owns(&m.name) && !args.workload.owns(&m.name)),
            );
        }
    }

    let wanted: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.map(String::from).to_vec()
    };
    let source = if args.trace { &layers } else { &outcome.e2e };
    let mut reported = Vec::new();
    for name in &wanted {
        match source.iter().find(|m| &m.name == name) {
            Some(m) => {
                if !m.value.is_finite() {
                    eprintln!("e2ebench: {name} is not finite");
                    failed += 1;
                }
                reported.push(m.clone());
            }
            None => {
                eprintln!("e2ebench: {name} was not measured");
                failed += 1;
                reported.push(Metric::one(name.clone(), "count", 0.0));
            }
        }
    }
    let correct = failed == 0 && outcome.attempted > 0;

    let field = |k: &str, v: Json| (k.to_string(), v);
    let context = obj([
        field("git_rev", sys::git_rev().into()),
        field("rustc", sys::rustc_version().into()),
        field(
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        field("l3_bytes", sys::l3_bytes().map_or(Json::Null, Json::from)),
    ]);
    let record = obj([
        field("benchmark", "voltprop-e2ebench".into()),
        field("workload", args.workload.name().into()),
        field("seed", Json::Num(args.seed as f64)),
        field("seconds", args.seconds.into()),
        field("trace", args.trace.into()),
        field("context", context),
        field("wall_s", started.elapsed().as_secs_f64().into()),
        field("correct", correct.into()),
        field("attempted", Json::Num(outcome.attempted as f64)),
        field("failed", Json::Num(failed as f64)),
        field("flag_checked", Json::Num(outcome.flag_checked as f64)),
        field("end_to_end", metrics_json(&outcome.e2e, true)),
        field(
            "per_layer",
            metrics_json(if args.trace { &reported } else { &[] }, true),
        ),
    ]);
    println!("{record}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{record}\n")) {
            eprintln!("e2ebench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let summary = obj([
        field("correct", correct.into()),
        field("attempted", Json::Num(outcome.attempted as f64)),
        field("failed", Json::Num(failed as f64)),
        field("metrics", metrics_json(&reported, false)),
    ]);
    println!("{summary}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_is_strict() {
        let ok = parse_args(&args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid")
        .expect("not help");
        assert_eq!(ok.workload, Workload::ServeMixed);
        assert_eq!(ok.seed, 3);
        assert!(ok.trace && ok.out.is_none());
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "table1_c3", "--bogus"])).is_err());
        assert!(parse_args(&args(&["--workload", "table1_c3", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
        assert!(parse_args(&args(&["--bogus", "--help"])).is_err());
        assert!(matches!(
            parse_args(&args(&["--help", "--bogus"])),
            Ok(None)
        ));
    }

    #[test]
    fn every_per_layer_metric_has_one_home() {
        let names = per_layer_names();
        assert_eq!(names.len(), 50);
        for name in &names {
            let homes = WORKLOADS.iter().filter(|w| w.owns(name)).count();
            assert!(homes == 1 || homes == WORKLOADS.len(), "{name}");
        }
    }
}
