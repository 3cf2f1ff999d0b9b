//! The reproduction experiments: one function per artifact (T1, E1–E7 of
//! DESIGN.md), run by the `repro` binary.

use crate::harness::{run_stack_solver, MeasuredRun};
use crate::paper;
use crate::table::{mib, secs, Table};
use std::error::Error;
use voltprop_core::{LoadCase, Session, VpConfig, VpSolver};
use voltprop_grid::{LoadProfile, NetKind, Stack3d, SynthConfig, TableCircuit, TsvPattern};
use voltprop_solvers::{DirectCholesky, Pcg, PrecondKind, RandomWalkSolver, Rb3d, StackSolver};

/// Benchmark seed shared by all experiments (deterministic workloads).
pub const SEED: u64 = 2012;

type Report = Result<String, Box<dyn Error>>;

/// The paper's accuracy claim as a gate: every `(solver, max error)`
/// pair must sit within [`paper::MAX_ERROR_VOLTS`] of the direct
/// reference. A miss (or a non-finite error) names each offender.
///
/// # Errors
///
/// One message listing every pair over the budget.
pub fn check_error_budget(errors: &[(String, f64)]) -> Result<(), String> {
    let misses: Vec<String> = errors
        .iter()
        .filter(|(_, err)| err.is_nan() || *err >= paper::MAX_ERROR_VOLTS)
        .map(|(who, err)| format!("{who} {:.4} mV", err * 1e3))
        .collect();
    if misses.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "over the paper's 0.5 mV budget against the direct solve: {}",
            misses.join(", ")
        ))
    }
}

/// `report` when `errors` pass [`check_error_budget`]; otherwise an
/// error carrying the report followed by the misses, so the failing
/// table still reaches the reader.
fn gated(report: String, errors: &[(String, f64)]) -> Report {
    match check_error_budget(errors) {
        Ok(()) => Ok(report),
        Err(miss) => Err(format!("{report}\n{miss}").into()),
    }
}

/// **T1 — Table I**: memory and runtime of VP vs PCG vs the direct
/// ("SPICE") solver on the paper's benchmark sizes.
///
/// By default runs C0–C2 with the direct solver on C0–C1 (the paper's
/// SPICE died past 230 K nodes; our direct solver hits the same fill-in
/// wall). `full` extends to C3–C5 and runs the direct solver on C2.
///
/// # Errors
///
/// Propagates solver failures, and fails (see [`check_error_budget`])
/// when the VP or PCG row misses the paper's 0.5 mV budget on a circuit
/// with a direct reference.
pub fn table1(full: bool) -> Report {
    let mut out = String::new();
    out.push_str("T1 / Table I: VP vs PCG vs direct (SPICE stand-in)\n\n");
    let circuits: &[TableCircuit] = if full {
        &TableCircuit::ALL
    } else {
        &[TableCircuit::C0, TableCircuit::C1, TableCircuit::C2]
    };
    let mut t = Table::new(vec![
        "circuit",
        "nodes",
        "solver",
        "iters",
        "time",
        "mem (MiB)",
        "err (mV)",
        "paper time",
        "paper mem",
    ]);
    let mut speedups: Vec<(TableCircuit, f64, f64)> = Vec::new();
    let mut errors: Vec<(String, f64)> = Vec::new();
    for &c in circuits {
        let stack = c.build(SEED)?;
        let paper_row = paper::row_for(c);
        // Direct reference where feasible (memory wall mirrors the paper).
        let direct_limit = if full { 230_000 } else { 100_000 };
        let reference: Option<(MeasuredRun, Vec<f64>)> = if c.num_nodes() <= direct_limit {
            Some(run_stack_solver(
                &DirectCholesky::new(),
                &stack,
                NetKind::Power,
                None,
            )?)
        } else {
            None
        };
        let ref_v = reference.as_ref().map(|(_, v)| v.as_slice());

        let (vp, _) = run_stack_solver(&VpSolver::default(), &stack, NetKind::Power, ref_v)?;
        let (pcg, _) = run_stack_solver(&Pcg::default(), &stack, NetKind::Power, ref_v)?;
        for (who, run) in [("VP", &vp), ("PCG", &pcg)] {
            if let Some(err) = run.max_error {
                errors.push((format!("{who} on {}", c.label()), err));
            }
        }

        let fmt_err = |e: Option<f64>| {
            e.map(|v| format!("{:.4}", v * 1e3))
                .unwrap_or_else(|| "-".into())
        };
        t.add_row(vec![
            c.label().into(),
            stack.num_nodes().to_string(),
            "VP".into(),
            vp.iterations.to_string(),
            secs(vp.seconds),
            mib(vp.memory_bytes()),
            fmt_err(vp.max_error),
            format!("{} s", paper_row.vp_time_s),
            format!("{} MB", paper_row.vp_memory_mb),
        ]);
        t.add_row(vec![
            "".into(),
            "".into(),
            "PCG".into(),
            pcg.iterations.to_string(),
            secs(pcg.seconds),
            mib(pcg.memory_bytes()),
            fmt_err(pcg.max_error),
            format!("{} s", paper_row.pcg_time_s),
            format!("{} MB", paper_row.pcg_memory_mb),
        ]);
        if let Some((direct, _)) = &reference {
            t.add_row(vec![
                "".into(),
                "".into(),
                "direct".into(),
                "1".into(),
                secs(direct.seconds),
                mib(direct.memory_bytes()),
                "0.0000".into(),
                paper_row
                    .spice_time_s
                    .map(|s| format!("{s} s"))
                    .unwrap_or_else(|| "OOM".into()),
                paper_row
                    .spice_memory_mb
                    .map(|m| format!("{m} MB"))
                    .unwrap_or_else(|| "OOM".into()),
            ]);
        } else {
            t.add_row(vec![
                "".into(),
                "".into(),
                "direct".into(),
                "-".into(),
                "skipped".into(),
                "(fill-in wall)".into(),
                "-".into(),
                paper_row
                    .spice_time_s
                    .map(|s| format!("{s} s"))
                    .unwrap_or_else(|| "OOM".into()),
                paper_row
                    .spice_memory_mb
                    .map(|m| format!("{m} MB"))
                    .unwrap_or_else(|| "OOM".into()),
            ]);
        }
        speedups.push((
            c,
            pcg.seconds / vp.seconds,
            pcg.memory_bytes() as f64 / vp.memory_bytes() as f64,
        ));
    }
    out.push_str(&t.to_string());
    out.push_str("\nshape checks (paper: speedup 10-20x growing with size; memory ratio ~3x):\n");
    for (c, s, m) in &speedups {
        let paper_row = paper::row_for(*c);
        out.push_str(&format!(
            "  {c}: measured speedup {s:.1}x (paper {:.1}x), memory ratio {m:.1}x (paper {:.1}x)\n",
            paper_row.speedup(),
            paper_row.memory_ratio(),
        ));
    }
    gated(out, &errors)
}

/// **E1 — accuracy**: max node-voltage error of every iterative solver
/// against the direct reference (paper budget: 0.5 mV; RW quoted at 5 mV).
///
/// # Errors
///
/// Propagates solver failures, and fails (see [`check_error_budget`])
/// when a deterministic solver misses the 0.5 mV budget. The
/// random-walk row is informational.
pub fn accuracy(edge: usize) -> Report {
    let stack = SynthConfig::new(edge, edge, 3).seed(SEED).build()?;
    let (_, ref_v) = run_stack_solver(&DirectCholesky::new(), &stack, NetKind::Power, None)?;
    let mut t = Table::new(vec!["solver", "iters", "time", "max err (mV)", "budget"]);
    let solvers: Vec<Box<dyn StackSolver>> = vec![
        Box::new(VpSolver::default()),
        Box::new(Pcg::with_preconditioner(PrecondKind::Ic0)),
        Box::new(Pcg::with_preconditioner(PrecondKind::Amg)),
        Box::new(Pcg::with_preconditioner(PrecondKind::Jacobi)),
        Box::new(Rb3d::default()),
    ];
    let mut errors: Vec<(String, f64)> = Vec::new();
    for s in &solvers {
        let (run, _) = run_stack_solver(s.as_ref(), &stack, NetKind::Power, Some(&ref_v))?;
        let err = run.max_error.expect("reference supplied");
        errors.push((run.name.to_string(), err));
        t.add_row(vec![
            run.name.into(),
            run.iterations.to_string(),
            secs(run.seconds),
            format!("{:.4}", err * 1e3),
            "0.5 mV".into(),
        ]);
    }
    // Random walks on the center node only (full-grid RW is the paper's
    // scalability complaint) — the paper quotes a 5 mV error margin.
    let rw = RandomWalkSolver::new(5000, SEED);
    let est = rw.estimate_node(&stack, NetKind::Power, 0, edge / 2, edge / 2)?;
    let truth = ref_v[stack.node_index(0, edge / 2, edge / 2)];
    t.add_row(vec![
        "random-walk (1 node)".into(),
        "5000 walks".into(),
        "-".into(),
        format!("{:.4}", (est.volts - truth).abs() * 1e3),
        "5 mV [4]".into(),
    ]);
    let mut out = String::from("E1 / accuracy vs direct reference\n\n");
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "\nall deterministic solvers within the paper's 0.5 mV budget: {}\n",
        if check_error_budget(&errors).is_ok() {
            "YES"
        } else {
            "NO"
        }
    ));
    gated(out, &errors)
}

/// **E2 — scaling**: the PCG-over-VP speedup trend with circuit size
/// (paper: 10× at 30 K nodes growing to 20× at 12 M).
///
/// # Errors
///
/// Propagates solver failures.
pub fn scaling(edges: &[usize]) -> Report {
    let mut t = Table::new(vec![
        "nodes", "VP time", "PCG time", "speedup", "VP mem", "PCG mem", "ratio",
    ]);
    for &edge in edges {
        let stack = SynthConfig::new(edge, edge, 3).seed(SEED).build()?;
        let (vp, _) = run_stack_solver(&VpSolver::default(), &stack, NetKind::Power, None)?;
        let (pcg, _) = run_stack_solver(&Pcg::default(), &stack, NetKind::Power, None)?;
        t.add_row(vec![
            stack.num_nodes().to_string(),
            secs(vp.seconds),
            secs(pcg.seconds),
            format!("{:.1}x", pcg.seconds / vp.seconds),
            mib(vp.memory_bytes()),
            mib(pcg.memory_bytes()),
            format!(
                "{:.1}x",
                pcg.memory_bytes() as f64 / vp.memory_bytes() as f64
            ),
        ]);
    }
    let mut out =
        String::from("E2 / speedup scaling (paper: 10x at 30K nodes -> 20x at 12M nodes)\n\n");
    out.push_str(&t.to_string());
    Ok(out)
}

/// **E3 — random-walk trap**: mean walk length and trap counts on planar
/// vs 3-D grids as TSV strength grows (paper §I–II: walks get "trapped in
/// the TSVs").
///
/// # Errors
///
/// Propagates solver failures.
pub fn rw_trap() -> Report {
    let mut t = Table::new(vec![
        "grid",
        "r_tsv",
        "mean steps",
        "vs planar",
        "walks for 5 mV",
        "walks for 0.5 mV",
    ]);
    let walks = 400;
    let rw = RandomWalkSolver::new(walks, SEED);
    let planar = Stack3d::builder(10, 10, 1).uniform_load(5e-4).build()?;
    let base = rw.estimate_node(&planar, NetKind::Power, 0, 5, 5)?;
    let walks_for = |std_err: f64, target: f64| {
        // stderr ~ sigma / sqrt(walks) → walks for target error.
        let sigma = std_err * (walks as f64).sqrt();
        ((sigma / target) * (sigma / target)).ceil() as usize
    };
    t.add_row(vec![
        "10x10x1".into(),
        "-".into(),
        format!("{:.1}", base.mean_steps),
        "1.0x".into(),
        walks_for(base.std_error, 5e-3).to_string(),
        walks_for(base.std_error, 5e-4).to_string(),
    ]);
    for r_tsv in [0.5, 0.05, 0.005] {
        let stacked = Stack3d::builder(10, 10, 3)
            .tsv_resistance(r_tsv)
            .uniform_load(5e-4)
            .build()?;
        let est = rw.estimate_node(&stacked, NetKind::Power, 0, 5, 5)?;
        t.add_row(vec![
            "10x10x3".into(),
            format!("{r_tsv}"),
            format!("{:.1}", est.mean_steps),
            format!("{:.1}x", est.mean_steps / base.mean_steps),
            walks_for(est.std_error, 5e-3).to_string(),
            walks_for(est.std_error, 5e-4).to_string(),
        ]);
    }
    let mut out = String::from(
        "E3 / random-walk TSV trap (paper: walks shuttle through low-R TSVs;\n\
         thousands of walks needed even for a 5 mV margin)\n\n",
    );
    out.push_str(&t.to_string());
    Ok(out)
}

/// **E4 — naive RB degradation vs VP**: sweep R_TSV on (a) the paper
/// topology (pads above every pillar) and (b) a sparse-pad topology where
/// the §III-A diagonal-dominance pathology bites.
///
/// # Errors
///
/// Propagates solver failures.
pub fn rb_vs_vp() -> Report {
    let mut out = String::from("E4 / naive 3-D row-based vs voltage propagation\n");
    out.push_str("\n(a) benchmark topology (package bumps on a 10-node lattice)\n\n");
    let mut t = Table::new(vec![
        "r_tsv",
        "rb3d sweeps",
        "rb3d time",
        "VP outer",
        "VP row sweeps",
        "VP time",
    ]);
    for r_tsv in [1.0, 0.1, 0.05, 0.01] {
        let stack = SynthConfig::new(24, 24, 3)
            .tsv_resistance(r_tsv)
            .seed(SEED)
            .build()?;
        let (rb, _) = run_stack_solver(&Rb3d::default(), &stack, NetKind::Power, None)?;
        let t0 = std::time::Instant::now();
        let mut session = Session::build(&stack, VpConfig::default())?;
        let vp = session.solve(&LoadCase::new(&stack))?;
        let vp_secs = t0.elapsed().as_secs_f64();
        t.add_row(vec![
            format!("{r_tsv}"),
            rb.iterations.to_string(),
            secs(rb.seconds),
            vp.report().outer_iterations.to_string(),
            vp.report().inner_sweeps.to_string(),
            secs(vp_secs),
        ]);
    }
    out.push_str(&t.to_string());

    out.push_str(
        "\n(b) very sparse pads (every 6th node): the SIII-A pathology\n\
         isolated - naive RB sweeps explode as TSVs strengthen, because\n\
         error shuttles between the free terminals of the barely-dominant\n\
         TSV rows:\n\n",
    );
    let mut t = Table::new(vec!["r_tsv", "rb3d sweeps", "rb3d time"]);
    for r_tsv in [1.0, 0.05, 0.01, 0.005] {
        let mut sites = vec![];
        for y in (0..24).step_by(6) {
            for x in (0..24).step_by(6) {
                sites.push((x, y));
            }
        }
        let stack = Stack3d::builder(24, 24, 3)
            .wire_resistance(1.0)
            .tsv_resistance(r_tsv)
            .pad_sites(sites)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-4,
                    max: 2e-3,
                },
                SEED,
            )
            .build()?;
        let (rb, _) = run_stack_solver(&Rb3d::default(), &stack, NetKind::Power, None)?;
        t.add_row(vec![
            format!("{r_tsv}"),
            rb.iterations.to_string(),
            secs(rb.seconds),
        ]);
    }
    out.push_str(&t.to_string());
    Ok(out)
}

/// **E5 — TSV distribution obliviousness** (§III-B-2): VP behaviour under
/// uniform, random, and clustered pillar placements at equal pillar count.
///
/// # Errors
///
/// Propagates solver failures.
pub fn tsv_patterns() -> Report {
    let (w, h) = (32usize, 32usize);
    let count = (w / 4) * (h / 4); // match the pitch-4 pillar budget
    let patterns: Vec<(&str, TsvPattern)> = vec![
        ("uniform pitch 4", TsvPattern::Uniform { pitch: 4 }),
        ("random", TsvPattern::Random { count, seed: 7 }),
        (
            "clustered (2 blocks)",
            TsvPattern::Clustered {
                centers: vec![(8, 8), (24, 24)],
                radius: 3,
            },
        ),
    ];
    let mut t = Table::new(vec![
        "pattern",
        "pillars",
        "VP outer",
        "row sweeps",
        "max err (mV)",
        "worst drop (mV)",
    ]);
    for (label, pattern) in patterns {
        let stack = Stack3d::builder(w, h, 3)
            .tsv_pattern(pattern.clone())
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-4,
                    max: 1e-3,
                },
                SEED,
            )
            .build()?;
        let (_, ref_v) = run_stack_solver(&DirectCholesky::new(), &stack, NetKind::Power, None)?;
        // Irregular patterns use the diagonal VDA fallback, which resolves
        // to ~2e-4 V (inside the 0.5 mV budget) but not to arbitrary ε;
        // escalate ε within the budget and let the error column keep the
        // result honest.
        let mut vp = None;
        let mut session = Session::build(&stack, VpConfig::default())?;
        for eps in [1e-4, 3e-4, 4.5e-4] {
            let case = LoadCase::new(&stack).params(voltprop_core::SolveParams::new().epsilon(eps));
            match session.solve(&case) {
                Ok(view) => {
                    vp = Some((view.voltages().to_vec(), *view.report()));
                    break;
                }
                Err(voltprop_core::SessionError::Solver(
                    voltprop_solvers::SolverError::DidNotConverge { .. },
                )) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let Some((voltages, report)) = vp else {
            t.add_row(vec![label.into(), "did not converge within 0.45 mV".into()]);
            continue;
        };
        let err = voltprop_solvers::residual::max_abs_error(&ref_v, &voltages);
        let worst = voltages.iter().fold(0.0f64, |m, &v| m.max(stack.vdd() - v));
        t.add_row(vec![
            label.into(),
            stack.tsv_sites().len().to_string(),
            report.outer_iterations.to_string(),
            report.inner_sweeps.to_string(),
            format!("{:.4}", err * 1e3),
            format!("{:.2}", worst * 1e3),
        ]);
    }
    let mut out = String::from(
        "E5 / TSV distribution obliviousness (paper SIII-B-2: the method is\n\
         oblivious to the TSV distribution)\n\n",
    );
    out.push_str(&t.to_string());
    Ok(out)
}

/// **E6 — tier count**: VP vs PCG as the stack deepens (conclusion claim:
/// "more tiers … are expected to benefit more").
///
/// # Errors
///
/// Propagates solver failures.
pub fn tiers() -> Report {
    let mut t = Table::new(vec![
        "tiers", "nodes", "VP time", "PCG time", "speedup", "VP outer",
    ]);
    for tiers in [2usize, 3, 4, 6] {
        let stack = SynthConfig::new(40, 40, tiers).seed(SEED).build()?;
        let t0 = std::time::Instant::now();
        let mut session = Session::build(&stack, VpConfig::default())?;
        let vp = session.solve(&LoadCase::new(&stack))?;
        let vp_secs = t0.elapsed().as_secs_f64();
        let (pcg, _) = run_stack_solver(&Pcg::default(), &stack, NetKind::Power, None)?;
        t.add_row(vec![
            tiers.to_string(),
            stack.num_nodes().to_string(),
            secs(vp_secs),
            secs(pcg.seconds),
            format!("{:.1}x", pcg.seconds / vp_secs),
            vp.report().outer_iterations.to_string(),
        ]);
    }
    let mut out =
        String::from("E6 / tier-count scaling (conclusion: deeper stacks benefit more)\n\n");
    out.push_str(&t.to_string());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiments_produce_reports() {
        // Smoke-test the cheap experiments end to end.
        let acc = accuracy(12).unwrap();
        assert!(acc.contains("voltage-propagation"));
        let trap = rw_trap().unwrap();
        assert!(trap.contains("10x10x3"));
        let pat = tsv_patterns().unwrap();
        assert!(pat.contains("uniform"));
    }

    #[test]
    fn error_budget_rejects_a_miss() {
        let ok = [
            ("VP on C0".to_string(), 1.7e-4),
            ("PCG".to_string(), 4.99e-4),
        ];
        assert!(check_error_budget(&ok).is_ok());
        let miss = [
            ("VP on C1".to_string(), 1.8e-4),
            ("PCG on C1".to_string(), 5.01e-4),
        ];
        let err = check_error_budget(&miss).unwrap_err();
        assert!(err.contains("PCG on C1 0.5010 mV"), "{err}");
        assert!(!err.contains("VP on C1"), "{err}");
        // A non-finite error is a miss, never a silent pass.
        assert!(check_error_budget(&[("VP".to_string(), f64::NAN)]).is_err());
        let gated_miss = gated("the table".into(), &miss).unwrap_err().to_string();
        assert!(gated_miss.starts_with("the table"), "{gated_miss}");
    }

    #[test]
    fn scaling_report_contains_speedups() {
        let rep = scaling(&[16]).unwrap();
        assert!(rep.contains("speedup"));
        assert!(rep.contains("x"));
    }
}
