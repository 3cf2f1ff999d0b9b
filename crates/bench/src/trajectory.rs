//! The benchmark trajectory file: an append-only JSON record of perf runs.
//!
//! `perfsuite` writes one entry per invocation to the file its `--out`
//! names (the committed trajectory is `BENCH_rowbased.json` at the
//! repository root), so the performance history accumulates across changes
//! and regressions are visible as a time series. The file is plain JSON:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "runs": [
//!     { ...run 1... },
//!     { ...run 2... }
//!   ]
//! }
//! ```
//!
//! The workspace builds without serde, so appending splices text: the file
//! always ends with the exact marker `\n  ]\n}\n`, and a new run replaces
//! that suffix with `,\n<entry>\n  ]\n}\n`. Hand-edited files keep working
//! as long as the marker survives.
//!
//! # Run-entry sections
//!
//! Each run entry is one JSON object. The sections grow with the PRs:
//!
//! * `row_sweeps` (PR 1) — baseline vs prefactored-engine ns/sweep and
//!   cross-schedule agreement per grid;
//! * `vp_solver` (PR 1) — warm full-solver latency and allocator calls
//!   per `parallelism`;
//! * `vp_batch` (PR 2) — warm per-RHS batched-solve time per batch size
//!   (`hardware_threads`/`parallelism` context embedded);
//! * `pool_latency` (PR 3) — small-grid per-solve latency of the
//!   persistent worker pool at each thread count, with
//!   `pool_warm_alloc_calls` (asserted 0: warm pool solves never touch
//!   the allocator). Older entries also timed a scoped-spawn dispatch
//!   baseline (`scoped_spawn_ns_per_solve`, `scoped_over_pool`), since
//!   deleted;
//! * `batch_compaction` (older entries only) — fixed-budget masked
//!   batch sweeps at several active-lane counts, compacted vs
//!   uncompacted, against a scalar single-RHS reference. Active-lane
//!   compaction has since been deleted: batched sweeps always run the
//!   full lane-blocked kernel, so later entries have no such section;
//! * `session` (PR 4) — the `Session` lifecycle on one prefactored
//!   handle: warm single/batch/transient latencies with per-request
//!   `session_*_warm_alloc_calls` (asserted 0); since PR 5 the bitwise
//!   behavior is pinned by the `tests/session.rs` fixture instead of
//!   the (removed) deprecated `VpSolver` entry points;
//! * `pcg` (PR 5) — the `Backend::Pcg` reference route on the session's
//!   prefactored engine: warm single and batch-8 latencies vs the
//!   VoltProp route (`voltprop_speedup_over_pcg_*` — the method's
//!   committed speedup over the general sparse reference),
//!   `pcg_iterations`, `max_abs_dv_pcg_vs_voltprop` (asserted
//!   < 0.5 mV), and `pcg_*_warm_alloc_calls` (asserted 0);
//! * `kernels` (PR 6) — per-kernel effective GB/s of the vectorized
//!   hot loops (batched f64 solve sweep, red-black sweep at
//!   parallelism 2, PCG axpy/dot) under a fixed traffic model, the warm
//!   per-RHS solve latency at parallelism 2, and
//!   `warm_alloc_calls_f64_{batch,solve}` (asserted 0). Older entries
//!   also carry the since-deleted mixed-precision fields
//!   (`batch_sweep_mixed_ns_per_sweep`, `mixed_over_f64_sweep_throughput`,
//!   `solve_mixed_warm_ms_parallelism2`, `max_abs_dv_mixed_vs_f64`,
//!   `warm_alloc_calls_mixed_*`).

use std::fs;
use std::io;
use std::path::Path;

/// The suffix every trajectory file ends with.
const TAIL: &str = "\n  ]\n}\n";

/// Appends one run entry (a complete JSON object, no trailing comma) to
/// the trajectory at `path`, creating the file if needed.
///
/// # Errors
///
/// I/O errors from reading/writing the file, or
/// [`io::ErrorKind::InvalidData`] if an existing file does not end with
/// the expected marker (e.g. a hand edit broke the format).
pub fn append_run(path: &Path, entry: &str) -> io::Result<()> {
    let entry = indent(entry.trim(), "    ");
    let text = match fs::read_to_string(path) {
        Ok(existing) => {
            let head = existing.strip_suffix(TAIL).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} does not end with the trajectory marker; \
                         refusing to splice (fix or delete the file)",
                        path.display()
                    ),
                )
            })?;
            format!("{head},\n{entry}{TAIL}")
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            format!("{{\n  \"schema\": 1,\n  \"runs\": [\n{entry}{TAIL}")
        }
        Err(e) => return Err(e),
    };
    fs::write(path, text)
}

/// Prefixes every line of `text` with `pad`.
fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Formats an `f64` for the trajectory (finite → shortest roundtrip
/// representation, non-finite → `null`; JSON has no NaN/Infinity).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Formats a `bool` for the trajectory.
pub fn json_bool(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// Hardware threads visible to this process (1 when unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// JSON fragment recording the hardware context of a measurement: the
/// machine's `hardware_threads` next to the solver `parallelism` knob the
/// numbers were taken with. Embed this in every timing block — PR 1's
/// parallel speedups were uninterpretable without it (that container had
/// a single hardware thread).
pub fn hardware_context_json(parallelism: usize) -> String {
    format!(
        "\"hardware_threads\": {}, \"parallelism\": {parallelism}",
        hardware_threads()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("voltprop-trajectory-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn creates_then_appends() {
        let path = tmpfile("create");
        let _ = fs::remove_file(&path);
        append_run(&path, "{ \"run\": 1 }").unwrap();
        append_run(&path, "{ \"run\": 2 }").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"schema\": 1"));
        assert!(text.ends_with(TAIL));
        assert_eq!(text.matches("\"run\"").count(), 2);
        // Two runs are comma-separated inside the array.
        assert!(
            text.contains("{ \"run\": 1 },\n    { \"run\": 2 }"),
            "{text}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn refuses_corrupt_files() {
        let path = tmpfile("corrupt");
        fs::write(&path, "not a trajectory").unwrap();
        let err = append_run(&path, "{}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_bool_spells_json_literals() {
        assert_eq!(json_bool(true), "true");
        assert_eq!(json_bool(false), "false");
    }

    #[test]
    fn hardware_context_names_both_knobs() {
        assert!(hardware_threads() >= 1);
        let ctx = hardware_context_json(4);
        assert!(ctx.contains("\"hardware_threads\": "), "{ctx}");
        assert!(ctx.contains("\"parallelism\": 4"), "{ctx}");
    }
}
