//! The 3-D Voltage Propagation (VP) method — the contribution of
//! *"Voltage Propagation Method for 3-D Power Grid Analysis"*
//! (Zhang, Pavlidis, De Micheli, DATE 2012).
//!
//! # The algorithm
//!
//! A 3-D power grid stacks tier meshes joined by low-resistance TSV
//! pillars, with package pads above the pillars on the topmost tier.
//! Directly iterating on the assembled system stalls because TSV
//! conductances dwarf wire conductances; VP instead treats each pillar as
//! a one-dimensional boundary object and sweeps the stack *away from* the
//! pads:
//!
//! 1. **Intra-plane voltage calculation** — guess the pillar voltages on
//!    the bottommost tier (layer 0), pin them, and solve the rest of the
//!    tier with the row-based method (exact tridiagonal row solves).
//! 2. **TSV current computation** — Kirchhoff's current law at each pinned
//!    node yields the current its pillar must inject.
//! 3. **Voltage propagation** — the pillar current times R_TSV gives the
//!    voltage of the next tier's pillar terminal; pin, solve that tier,
//!    accumulate the pillar current, and repeat to the top.
//! 4. **Voltage difference adjustment (VDA)** — at the top, the propagated
//!    pad voltages are compared with VDD; the (damped) mismatch feeds back
//!    into the layer-0 guesses until the worst mismatch drops below ε.
//!
//! Because device loads are fixed current sources, pillar currents barely
//! depend on the guessed voltages, so the outer loop converges in a
//! handful of iterations; and because every tier solve sees pinned nodes
//! at one quarter of its sites, the inner row-based sweeps converge in a
//! handful of passes. The solver never assembles the global matrix, which
//! is where the paper's ~3× memory advantage over PCG comes from.
//!
//! # The `Session` handle — the primary entry point
//!
//! The method's asset is *reuse*: tier factorizations and the pillar
//! lattice are built once and amortized across every load pattern. The
//! API mirrors that through [`Session`]: [`Session::build`] factors the
//! voltage propagation engines up front, and every request — a single
//! [`LoadCase`], a batched [`LoadSet`], a [`Session::solve_steps`]
//! sequence, or a [`Session::transient_dynamic`] waveform (see below) —
//! flows through the same prefactored state and returns a
//! borrowed [`SolutionView`]. Geometry is a build-time contract
//! (mismatches surface as [`SessionError::GeometryChanged`], never a
//! silent rebuild), while loads, nets, tolerances ([`SolveParams`]) and
//! the [`Backend`] routing may change per request — [`Backend::Rb3d`]
//! and [`Backend::Pcg`] run the paper's baselines, each prefactored once
//! by the first request routed to it and shared by every later one. (The
//! deprecated `VpSolver::solve{,_with,_batch}`
//! shims and panicking scratch accessors were removed in this release;
//! see `MIGRATION.md` at the repository root.)
//!
//! # Performance: prefactored engines, parallelism, zero-allocation solves
//!
//! Each tier's row segments are factored once into a prefactored engine
//! ([`voltprop_solvers::TierEngine`]) shared across all outer iterations;
//! sweeps are substitution-only. Two properties build on that:
//!
//! * **[`VpConfig::parallelism`]** — with more than one thread the tier
//!   sweeps switch to the red-black row coloring
//!   ([`voltprop_solvers::SweepSchedule::RedBlack`]): same-color rows are
//!   solved concurrently, deterministically in the thread count, and the
//!   answer stays within the solver tolerance of the sequential
//!   schedule. `1` (the default) keeps the paper's sequential order.
//!   Parallel sweeps run on the process-wide persistent
//!   [`voltprop_solvers::WorkerPool`]: threads spawn once and park
//!   between solves, so warm parallel solves are allocation-free too.
//! * **Zero-allocation warm solves** — a [`Session`] owns every solve
//!   buffer (the internal scratch arena, sized by the first request of
//!   each backend and grown by a batch wider than any before), so warm
//!   requests run the entire outer loop — tier sweeps, pillar-current
//!   accumulation, VDA distribution, Anderson mixing — without touching
//!   the heap (measured by `perfsuite`: zero allocator calls across
//!   warm single, batch-64, and 24-step transient requests, at
//!   `parallelism = 1` and, once the pool is warm, at any thread
//!   count). Sparse-pad stacks are no exception: the VDA's coarse
//!   pillar-lattice solve is prefactored at build like the tiers.
//!
//! # Batched load sweeps and transients
//!
//! The tier matrices never change between load patterns, so what-if load
//! sweeps and transient stepping should not solve one right-hand side at
//! a time: [`Session::solve_batch`] takes `k` complete load vectors
//! (lane-major: lane `j`'s `num_nodes` currents contiguous at
//! `j * num_nodes`) and sweeps all of them together through the shared
//! prefactored segments. Internally the voltages and injections are held
//! **node-major / lane-minor** (lane `j` of flat node `i` at
//! `i * k + j`), so the substitution inner loops run unit-stride over the
//! lanes while each Thomas coefficient is loaded once per row — this
//! amortizes the factor traffic *and* breaks the recurrence's serial
//! latency chain across independent lanes (`perfsuite` measures the
//! 256×256×4 stack at batch 64 around 1.4× the per-RHS throughput of
//! sequential single solves on 2 hardware threads, with zero warm
//! allocator calls).
//!
//! There is one outer loop, over `k` lanes: a single [`Session::solve`]
//! (and every transient companion step) is the case `k = 1`, compiled
//! without lane masks or strides and swept with the scalar tier kernel.
//! The lanes of a batch run it in lockstep and each freezes the moment
//! it converges, so every converged lane's voltages
//! ([`SolutionView::lane_voltages`]) are **bitwise identical** to the
//! corresponding [`Session::solve`]; a lane that exhausts a budget
//! reports `converged = false` with its true residual instead of
//! discarding the batch. A one-lane batch costs what a single solve
//! costs; see `examples/load_sweep.rs` for a complete what-if sweep.
//!
//! # True transients: companion models on a prefactored system
//!
//! Quasi-static stepping ([`Session::solve_steps`], formerly
//! `Session::transient`) treats every time step as an independent DC
//! solve. The true transient engine ([`Session::transient_dynamic`])
//! integrates `G v + C v̇ = b(t)`: per-node grid/decap/pad capacitances
//! (stamped by [`voltprop_grid::StackBuilder`]) are folded into the
//! conductance system as a backward-Euler or trapezoidal companion model
//! `G + α·diag(C)`, prefactored **once** and reused across the whole
//! waveform — only a step-size, integrator, or capacitance change
//! re-prefactors. Waveform I/O streams: a [`Waveform`] produces one
//! step's loads at a time and a [`TransientSink`] consumes one step's
//! voltages at a time, so a million-step run never materializes a
//! million-lane arena, and warm steps perform zero heap allocations
//! (measured by `perfsuite`). All three [`Backend`]s serve the companion
//! system from the session's state; see `examples/transient.rs` for an
//! RC step response against the closed-form exponential.
//!
//! # Example
//!
//! ```
//! use voltprop_core::{LoadCase, Session, VpConfig};
//! use voltprop_grid::{Stack3d, NetKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stack = Stack3d::builder(16, 16, 3).uniform_load(3e-4).build()?;
//! let mut session = Session::build(&stack, VpConfig::default())?;
//! let view = session.solve(&LoadCase::new(&stack).net(NetKind::Power))?;
//! println!("worst IR drop: {:.2} mV", view.worst_drop(stack.vdd()) * 1e3);
//! assert!(view.converged());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anderson;
mod config;
mod deadline;
mod lattice;
mod report;
mod session;
mod shared;
mod solver;
mod tier_cache;
pub mod transient;
mod vda;

pub use config::{BuildParams, SolveParams, VpConfig};
pub use deadline::Deadline;
pub use report::VpReport;
pub use session::{
    Backend, BuildError, LoadCase, LoadSet, Session, SessionCore, SessionError, SolutionView,
    SolveScratch,
};
pub use shared::{SharedSession, SharedSolution, TryCheckout};
pub use solver::VpSolver;
pub use transient::{
    FnWaveform, Integrator, PwlWaveform, ScaledWaveform, TraceSink, TransientParams,
    TransientReport, TransientSink, Waveform,
};
pub use vda::VdaController;
