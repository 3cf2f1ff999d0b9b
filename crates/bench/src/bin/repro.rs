//! `repro` — regenerates the paper's quantitative artifacts.
//!
//! ```sh
//! cargo run --release -p voltprop-bench --bin repro -- table1 [--full]
//! cargo run --release -p voltprop-bench --bin repro -- all
//! ```
//!
//! The command line is strict: an unknown experiment, or any argument
//! the experiment does not take, prints the usage to stderr and exits 2
//! before anything runs. `table1` and `accuracy` exit 1 when a
//! deterministic solver misses the paper's 0.5 mV budget against the
//! direct solve.

use voltprop_bench::alloc::CountingAllocator;
use voltprop_bench::experiments;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const HELP: &str = "\
repro - regenerate the DATE 2012 voltage propagation paper's results

USAGE:
    repro <experiment> [flags]

EXPERIMENTS:
    table1 [--full]   T1: Table I (memory/runtime, VP vs PCG vs direct).
                      Default sizes C0-C2; --full extends to C3-C5.
                      Fails if VP or PCG misses 0.5 mV of the direct solve.
    accuracy [edge]   E1: max error vs the direct reference (default edge 40).
                      Fails if a deterministic solver misses 0.5 mV.
    scaling [--full]  E2: PCG-over-VP speedup trend with circuit size.
    rw-trap           E3: random-walk TSV trap statistics.
    rb-vs-vp          E4: naive 3-D row-based degradation vs VP.
    tsv-patterns      E5: TSV distribution obliviousness.
    tiers             E6: tier-count scaling.
    selfcheck         verify the counting allocator measures this binary.
    all [--full]      run every experiment in order.
";

/// A parsed command line: the experiment, `--full`, and the accuracy
/// grid edge.
struct Invocation<'a> {
    cmd: &'a str,
    full: bool,
    edge: usize,
}

/// Parses the whole command line up front, so a bad one fails before
/// any experiment runs.
fn parse(args: &[String]) -> Result<Invocation<'_>, String> {
    let cmd = args.first().map_or("help", String::as_str);
    let mut inv = Invocation {
        cmd,
        full: false,
        edge: 40,
    };
    match (cmd, args.get(1..).unwrap_or_default()) {
        (_, []) => {}
        ("table1" | "scaling" | "all", [flag]) if flag == "--full" => inv.full = true,
        ("accuracy", [edge]) => {
            inv.edge = edge
                .parse()
                .ok()
                .filter(|&e: &usize| e > 0)
                .ok_or_else(|| {
                    format!("accuracy: edge must be a positive integer, got `{edge}`")
                })?;
        }
        (_, rest) => return Err(format!("`{cmd}` does not take `{}`", rest.join(" "))),
    }
    Ok(inv)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\n{HELP}");
        std::process::exit(2);
    });
    let code = match run(&inv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("repro {}: {e}", inv.cmd);
            1
        }
    };
    std::process::exit(code);
}

fn run(inv: &Invocation<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let full = inv.full;
    match inv.cmd {
        "table1" => print(experiments::table1(full)?),
        "accuracy" => print(experiments::accuracy(inv.edge)?),
        "scaling" => {
            let edges: &[usize] = if full {
                &[40, 80, 120, 173, 277, 577]
            } else {
                &[40, 80, 120, 173]
            };
            print(experiments::scaling(edges)?)
        }
        "rw-trap" => print(experiments::rw_trap()?),
        "rb-vs-vp" => print(experiments::rb_vs_vp()?),
        "tsv-patterns" => print(experiments::tsv_patterns()?),
        "tiers" => print(experiments::tiers()?),
        "selfcheck" => selfcheck(),
        "all" => {
            print(experiments::table1(full)?);
            print(experiments::accuracy(40)?);
            let edges: &[usize] = if full {
                &[40, 80, 120, 173, 277]
            } else {
                &[40, 80, 120, 173]
            };
            print(experiments::scaling(edges)?);
            print(experiments::rw_trap()?);
            print(experiments::rb_vs_vp()?);
            print(experiments::tsv_patterns()?);
            print(experiments::tiers()?);
        }
        "help" | "--help" | "-h" => println!("{HELP}"),
        other => {
            eprintln!("error: unknown experiment `{other}`\n\n{HELP}");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn print(report: String) {
    println!("{report}");
    println!("{}", "=".repeat(78));
}

/// Confirms the counting allocator actually tracks this process.
fn selfcheck() {
    let (v, peak) = voltprop_bench::alloc::measure_peak(|| vec![0u8; 8 * 1024 * 1024]);
    assert_eq!(v.len(), 8 * 1024 * 1024);
    assert!(
        peak >= 8 * 1024 * 1024,
        "allocator not installed? peak {peak}"
    );
    println!("counting allocator OK: measured {peak} bytes for an 8 MiB allocation");
}
