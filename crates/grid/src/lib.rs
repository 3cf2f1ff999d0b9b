//! 3-D power distribution network modeling.
//!
//! This crate provides the circuit substrate for the voltage propagation
//! paper (Zhang, Pavlidis, De Micheli, DATE 2012):
//!
//! * [`Stack3d`] — a TSV-based 3-D power grid: a stack of tier meshes joined
//!   by resistive TSV pillars, package pads on the topmost tier, and device
//!   loads modeled as DC current sources (the network of the paper's Fig. 1).
//! * [`stamp`] — modified nodal analysis: assembles the conductance matrix
//!   `G` and right-hand side of `G x = I`, folding ideal pads (Dirichlet
//!   nodes) into the RHS so the system stays symmetric positive definite.
//! * [`netlist`] — reader and writer for the SPICE subset used by the IBM
//!   power grid benchmarks (`R`/`I`/`V` cards, `.op`, `.end`).
//! * [`synth`] — synthetic benchmark generation, including presets `C0`–`C5`
//!   that match the node counts of the paper's Table I.
//! * [`loads`] — workload (current source) generators: uniform random and
//!   hotspot profiles, seeded for reproducibility.
//!
//! # Example
//!
//! Build a small 3-tier grid and assemble its MNA system:
//!
//! ```
//! use voltprop_grid::{Stack3d, TsvPattern, NetKind};
//!
//! # fn main() -> Result<(), voltprop_grid::GridError> {
//! let stack = Stack3d::builder(8, 8, 3)
//!     .wire_resistance(0.02)
//!     .tsv_resistance(0.05)
//!     .tsv_pattern(TsvPattern::Uniform { pitch: 2 })
//!     .uniform_load(1e-4)
//!     .vdd(1.8)
//!     .build()?;
//!
//! let sys = stack.stamp(NetKind::Power)?;
//! assert!(sys.matrix().is_symmetric(1e-12));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod loads;
pub mod netlist;
pub mod rng;
mod stack;
pub mod stamp;
pub mod stats;
pub mod synth;
mod validate;

pub use error::GridError;
pub use loads::LoadProfile;
pub use netlist::{Netlist, NetlistCircuit};
pub use stack::{NetKind, Stack3d, StackBuilder, TsvPattern};
pub use stamp::StampedSystem;
pub use synth::{SynthConfig, TableCircuit};
