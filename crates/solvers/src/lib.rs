//! Baseline power grid solvers.
//!
//! The voltage propagation paper compares against three families of
//! methods, all provided here:
//!
//! * **Direct** — [`DirectCholesky`], the SPICE stand-in: one sparse
//!   Cholesky factorization of the MNA system.
//! * **Krylov** — [`ConjugateGradient`] and [`Pcg`] with pluggable
//!   preconditioners ([`PrecondKind`]: Jacobi, IC(0), SSOR, aggregation
//!   AMG), the paper's main comparator (refs \[6\], \[12\]). The
//!   serving-grade form is [`PcgEngine`]: the full 3-D system stamped
//!   and the IC(0) factor built once, warm solves allocation-free —
//!   `voltprop_core::Session` routes `Backend::Pcg` through it.
//! * **Stationary** — [`relax`] (point Jacobi / Gauss–Seidel / SOR), the
//!   structured [`RowBased`] method of Zhong & Wong (ref \[5\]) that the VP
//!   algorithm builds on, and [`Rb3d`], the naive extension of row-based
//!   iteration to 3-D whose convergence collapses when TSVs are strong
//!   (the paper's §III-A motivation).
//! * **Stochastic** — [`RandomWalkSolver`] (ref \[4\]), including the walk
//!   length statistics that expose the "trapped in TSVs" pathology.
//!
//! Matrix-based solvers implement [`LinearSolver`]; every `LinearSolver`
//! automatically solves whole stacks through [`StackSolver`] by stamping
//! the MNA system first. Structured solvers ([`Rb3d`],
//! [`RandomWalkSolver`]) implement [`StackSolver`] directly.
//!
//! # The prefactored engine and red-black parallelism
//!
//! The production row-sweep kernel is [`TierEngine`]: it cuts every grid
//! row into tridiagonal segments at the pinned nodes, factors each
//! segment **once** (the matrices never change between sweeps — only the
//! right-hand sides do), and then sweeps by substitution alone with zero
//! heap allocation. Its [`SweepSchedule`] picks the iteration order:
//!
//! * [`SweepSchedule::Sequential`] — the paper's alternating-direction
//!   row order; the default and the `parallelism = 1` special case.
//! * [`SweepSchedule::RedBlack`] — rows only couple to their vertical
//!   neighbours, so under an even/odd (red/black) row coloring every row
//!   of one color can be solved simultaneously while the other color is
//!   frozen. The engine runs each color phase across OS threads, and the
//!   result is **deterministic in the thread count** (bitwise identical
//!   for 1, 2, … threads); the converged solution agrees with the
//!   sequential schedule to the solve tolerance.
//!
//! Multi-threaded solves run on the persistent [`WorkerPool`]: threads
//! are spawned once per process, park between solves, and keep their
//! substitution scratch pinned, so **warm parallel solves are
//! allocation-free** end to end.
//! [`Rb3d::parallelism`] and `voltprop_core`'s `VpConfig::parallelism`
//! expose the thread knob one level up.
//!
//! Both schedules also run **batched**: [`TierEngine::solve_batch`]
//! sweeps `k` right-hand sides together (node-major/lane-minor layout,
//! `i * k + j`), freezing each lane independently the moment its own
//! update drops below tolerance — so every lane is bitwise identical to
//! its standalone solve while the factor loads and thread handoffs are
//! amortized over the whole batch. One lane-blocked kernel sweeps all
//! `k` lanes every sweep; a frozen lane is computed but never changed.
//! Per-lane outcomes come back as [`LaneReport`]s.
//!
//! # Example
//!
//! ```
//! use voltprop_grid::{Stack3d, NetKind};
//! use voltprop_solvers::{DirectCholesky, Pcg, StackSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stack = Stack3d::builder(8, 8, 3).uniform_load(1e-4).build()?;
//! let exact = DirectCholesky::new().solve_stack(&stack, NetKind::Power)?;
//! let pcg = Pcg::default().solve_stack(&stack, NetKind::Power)?;
//! let err = voltprop_solvers::residual::max_abs_error(
//!     &exact.voltages, &pcg.voltages);
//! assert!(err < 5e-4, "PCG within the paper's 0.5 mV budget");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amg;
mod cg;
mod direct;
pub mod engine;
mod error;
mod pcg;
pub mod pool;
mod precond;
pub mod random_walk;
pub mod rb3d;
pub mod relax;
mod report;
pub mod residual;
pub mod rowbased;
mod shard;
mod traits;

pub use amg::AmgHierarchy;
pub use cg::ConjugateGradient;
pub use direct::DirectCholesky;
pub use engine::{SweepSchedule, TierEngine};
pub use error::SolverError;
pub use pcg::{Pcg, PcgEngine};
pub use pool::{PoolJob, WorkerPool, WorkerScratch};
pub use precond::{PrecondKind, Preconditioner};
pub use random_walk::RandomWalkSolver;
pub use rb3d::{Rb3d, Rb3dEngine};
pub use report::{LaneReport, SolveReport};
pub use rowbased::{RowBased, TierProblem};
pub use traits::{LinearSolver, Solution, StackSolution, StackSolver};
