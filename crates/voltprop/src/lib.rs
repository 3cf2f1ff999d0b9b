//! `voltprop` — voltage propagation IR-drop analysis for TSV-based 3-D
//! power grids.
//!
//! This facade crate re-exports the full public API of the workspace that
//! reproduces *"Voltage Propagation Method for 3-D Power Grid Analysis"*
//! (Zhang, Pavlidis, De Micheli, DATE 2012):
//!
//! * [`core`] — the [`Session`] handle and the voltage propagation
//!   solver itself;
//! * [`grid`] — power grid modeling, netlists, benchmark synthesis;
//! * [`solvers`] — the baseline solvers (direct Cholesky, PCG, row-based,
//!   random walks) the paper compares against;
//! * [`sparse`] — the sparse linear algebra substrate.
//!
//! The most common items are re-exported at the crate root. The primary
//! entry point is [`Session`]: build the prefactored solve state once,
//! then serve single solves, batched what-if sweeps, quasi-static step
//! sequences ([`Session::solve_steps`]), and true capacitive transients
//! ([`Session::transient_dynamic`]: backward-Euler/trapezoidal companion
//! models on a prefactored companion system, streaming [`Waveform`] in
//! and [`TransientSink`] out) from it — across backends — with zero warm
//! allocations.
//! [`SharedSession`] serves the same factorization to N threads
//! concurrently through a bounded scratch checkout pool (and the
//! `voltprop-serve` daemon builds a JSON-over-TCP service on top of it).
//!
//! # Quickstart
//!
//! ```
//! use voltprop::{LoadCase, Session, Stack3d, VpConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 3-tier 16x16 grid with the paper's TSV layout and random loads.
//! let stack = Stack3d::builder(16, 16, 3)
//!     .load_profile(voltprop::LoadProfile::UniformRandom {
//!         min: 1e-4, max: 2e-3,
//!     }, 42)
//!     .build()?;
//!
//! // Factor once; every request after this reuses the tier factors.
//! let mut session = Session::build(&stack, VpConfig::default())?;
//! let view = session.solve(&LoadCase::new(&stack))?;
//! assert!(view.converged());
//! println!("worst IR drop: {:.2} mV", view.worst_drop(stack.vdd()) * 1e3);
//!
//! // Batched what-if sweep on the same prefactored state: two DVFS
//! // corners as lanes of one solve.
//! let mut loads = stack.loads().to_vec();
//! loads.extend(stack.loads().iter().map(|l| 1.25 * l));
//! let sweep = session.solve_batch(&voltprop::LoadSet::new(&stack, &loads))?;
//! assert_eq!(sweep.lanes(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! Migrating from the old `VpSolver::solve{,_with,_batch}` entry points
//! (removed in this release)? See `MIGRATION.md` at the repository root
//! for a one-page map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use voltprop_core as core;
pub use voltprop_grid as grid;
pub use voltprop_solvers as solvers;
pub use voltprop_sparse as sparse;

pub use voltprop_core::{
    Backend, BuildError, BuildParams, Deadline, FnWaveform, Integrator, LoadCase, LoadSet,
    PwlWaveform, ScaledWaveform, Session, SessionCore, SessionError, SharedSession, SharedSolution,
    SolutionView, SolveParams, SolveScratch, TraceSink, TransientParams, TransientReport,
    TransientSink, TryCheckout, VpConfig, VpReport, VpSolver, Waveform,
};
pub use voltprop_grid::{
    GridError, LoadProfile, NetKind, Netlist, NetlistCircuit, Stack3d, StampedSystem, SynthConfig,
    TableCircuit, TsvPattern,
};
pub use voltprop_solvers::{
    ConjugateGradient, DirectCholesky, LaneReport, LinearSolver, Pcg, PcgEngine, PrecondKind,
    RandomWalkSolver, Rb3d, Rb3dEngine, SolveReport, SolverError, StackSolution, StackSolver,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // Touch a few re-exports so refactors that drop them fail here.
        let _ = crate::VpConfig::default();
        let _ = crate::DirectCholesky::new();
        let _ = crate::PrecondKind::Ic0;
        let _ = crate::Backend::VoltProp;
        let _ = crate::SolveParams::new();
    }
}
