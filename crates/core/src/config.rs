/// Tuning parameters of the voltage propagation solver.
///
/// The defaults follow the paper: convergence when the worst pad-voltage
/// mismatch falls below `epsilon` (well inside the 0.5 mV accuracy budget
/// of \[12\]), full-strength VDA feedback to start, and row-based inner
/// solves an order of magnitude tighter than the outer target.
///
/// A `VpConfig` is the union of two parameter families with different
/// lifetimes:
///
/// * **build-time** ([`BuildParams`], today just `parallelism`) — fixed
///   when the prefactored state is built ([`Session::build`](crate::Session));
/// * **per-solve** ([`SolveParams`] — tolerances, budgets, mixing gain,
///   SOR factor) — free to vary between solves on one session via
///   [`LoadCase::params`](crate::LoadCase::params).
///
/// [`VpConfig::build_params`] / [`VpConfig::solve_params`] project out
/// either family; [`Session::build`](crate::Session::build) consumes the
/// whole config and uses the per-solve half as the session defaults.
///
/// # Example
///
/// ```
/// use voltprop_core::VpConfig;
///
/// let config = VpConfig::new()
///     .epsilon(1e-5)
///     .sor_omega(1.2)
///     .max_outer_iterations(50);
/// assert_eq!(config.epsilon, 1e-5);
/// assert_eq!(config.solve_params().epsilon, 1e-5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VpConfig {
    /// Outer convergence threshold: worst pad-voltage mismatch (V).
    pub epsilon: f64,
    /// Initial VDA feedback gain β (adapted at runtime; see
    /// [`VdaController`](crate::VdaController)).
    pub damping: f64,
    /// Outer iteration budget.
    pub max_outer_iterations: usize,
    /// SOR factor for the single-tier (planar) row-based solve; the
    /// multi-tier tier solves use prefactored plain block GS, where the
    /// densely pinned rows converge in a handful of sweeps regardless.
    pub sor_omega: f64,
    /// Inner convergence threshold: worst per-sweep voltage update (V).
    /// Defaults to `epsilon / 10`.
    pub inner_tolerance: f64,
    /// Sweep budget per tier solve.
    pub max_inner_sweeps: usize,
    /// Worker threads for the inner row sweeps. `1` (the default) keeps
    /// the paper's sequential alternating-direction schedule; larger
    /// values switch the tier solves to the red-black row coloring (see
    /// [`voltprop_solvers::SweepSchedule`]) and split every tier into
    /// `parallelism` near-equal row bands (clamped to the tier height),
    /// one per thread of the persistent process-wide
    /// [`voltprop_solvers::WorkerPool`] — threads spawn on the first
    /// parallel solve and park between solves, so warm parallel solves
    /// stay allocation-free. Red-black results are bitwise identical at
    /// every `parallelism >= 2` (see [`BuildParams`]).
    pub parallelism: usize,
}

impl Default for VpConfig {
    fn default() -> Self {
        VpConfig {
            epsilon: 1e-4,
            damping: 1.0,
            max_outer_iterations: 200,
            sor_omega: 1.0,
            inner_tolerance: 1e-5,
            max_inner_sweeps: 10_000,
            parallelism: 1,
        }
    }
}

impl VpConfig {
    /// The default configuration (equivalent to `VpConfig::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the outer pad-mismatch threshold (V) and scales the inner
    /// tolerance to one tenth of it.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self.inner_tolerance = eps / 10.0;
        self
    }

    /// Sets the initial VDA gain.
    pub fn damping(mut self, beta: f64) -> Self {
        self.damping = beta;
        self
    }

    /// Sets the outer iteration budget.
    pub fn max_outer_iterations(mut self, n: usize) -> Self {
        self.max_outer_iterations = n;
        self
    }

    /// Sets the SOR factor of the inner row-based sweeps.
    pub fn sor_omega(mut self, omega: f64) -> Self {
        self.sor_omega = omega;
        self
    }

    /// Sets the inner sweep tolerance explicitly (V).
    pub fn inner_tolerance(mut self, tol: f64) -> Self {
        self.inner_tolerance = tol;
        self
    }

    /// Sets the per-tier sweep budget.
    pub fn max_inner_sweeps(mut self, n: usize) -> Self {
        self.max_inner_sweeps = n;
        self
    }

    /// Sets the inner-sweep worker thread count (`0` and `1` both mean
    /// the sequential schedule).
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// The build-time half of this config (what a
    /// [`Session`](crate::Session) fixes at construction).
    pub fn build_params(&self) -> BuildParams {
        BuildParams {
            parallelism: self.parallelism.max(1),
        }
    }

    /// The per-solve half of this config (what a
    /// [`LoadCase`](crate::LoadCase) may override per request).
    pub fn solve_params(&self) -> SolveParams {
        SolveParams {
            epsilon: self.epsilon,
            damping: self.damping,
            max_outer_iterations: self.max_outer_iterations,
            sor_omega: self.sor_omega,
            inner_tolerance: self.inner_tolerance,
            max_inner_sweeps: self.max_inner_sweeps,
        }
    }

    /// Reassembles a config from its two halves.
    pub fn from_parts(build: BuildParams, solve: SolveParams) -> Self {
        VpConfig {
            epsilon: solve.epsilon,
            damping: solve.damping,
            max_outer_iterations: solve.max_outer_iterations,
            sor_omega: solve.sor_omega,
            inner_tolerance: solve.inner_tolerance,
            max_inner_sweeps: solve.max_inner_sweeps,
            parallelism: build.parallelism.max(1),
        }
    }
}

/// Build-time solver parameters: everything that shapes the prefactored
/// state a [`Session`](crate::Session) allocates up front and therefore
/// cannot change between solves on one session.
///
/// Today this is the worker-thread count, which also fixes the row
/// bands every tier sweeps; a geometry-compatible stack can be served
/// with any per-solve [`SolveParams`], but changing it requires building
/// a new session.
///
/// # Determinism contract
///
/// At `parallelism >= 2` each tier footprint is split along the y-axis
/// into `parallelism` contiguous bands (clamped to the tier height) with
/// 1-row halos, and every inner sweep runs per band against a private
/// halo-extended voltage image, pushing the halos between the red and
/// black half-sweeps. The first solve sizes the images, and a batch
/// wider than any before grows them; they never shrink, so warm single,
/// batched (of any width served before), and transient solves all run
/// banded with no allocator calls. Banding
/// restructures dispatch and memory layout, never arithmetic: the
/// row-based routes — single solves, batches (masked or not), transient
/// steps — produce **bitwise identical** voltages, iteration counts, and
/// residuals at every `parallelism >= 2`, because per-sweep convergence
/// deltas are folded with exact `f64::max`, so lane freezing cannot
/// depend on the partition. The PCG backend has no row structure to
/// band and keeps its usual tolerance contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildParams {
    /// Worker threads (and row bands per tier) for the inner row sweeps
    /// (see [`VpConfig::parallelism`]).
    pub parallelism: usize,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams { parallelism: 1 }
    }
}

impl BuildParams {
    /// The default build parameters (sequential sweeps).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the inner-sweep worker thread count (`0` and `1` both mean
    /// the sequential schedule).
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }
}

/// Per-solve solver parameters: the knobs that may differ between
/// requests served by one prefactored [`Session`](crate::Session) —
/// tolerances, iteration budgets, the VDA gain, and the SOR factor.
///
/// Defaults mirror [`VpConfig::default`]. Attach explicit parameters to a
/// request with [`LoadCase::params`](crate::LoadCase::params) (or
/// [`LoadSet::params`](crate::LoadSet::params)); requests without them
/// use the session's defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveParams {
    /// Outer convergence threshold: worst pad-voltage mismatch (V).
    pub epsilon: f64,
    /// Initial VDA feedback gain β.
    pub damping: f64,
    /// Outer iteration budget.
    pub max_outer_iterations: usize,
    /// SOR factor for single-tier (planar) row sweeps; for the
    /// [`Backend::Rb3d`](crate::Backend::Rb3d) route this is the sweep
    /// over-relaxation factor.
    pub sor_omega: f64,
    /// Inner convergence threshold: worst per-sweep voltage update (V).
    /// For the [`Backend::Rb3d`](crate::Backend::Rb3d) route this is the
    /// full-stack convergence threshold; for
    /// [`Backend::Pcg`](crate::Backend::Pcg) it is the relative residual
    /// target `‖b − Ax‖₂ / ‖b‖₂`.
    pub inner_tolerance: f64,
    /// Sweep budget per tier solve; for the
    /// [`Backend::Rb3d`](crate::Backend::Rb3d) route the full-stack
    /// iteration budget, for [`Backend::Pcg`](crate::Backend::Pcg) the
    /// CG iteration budget.
    pub max_inner_sweeps: usize,
}

impl Default for SolveParams {
    fn default() -> Self {
        VpConfig::default().solve_params()
    }
}

impl SolveParams {
    /// The default per-solve parameters (same numbers as
    /// [`VpConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the outer pad-mismatch threshold (V) and scales the inner
    /// tolerance to one tenth of it.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self.inner_tolerance = eps / 10.0;
        self
    }

    /// Sets the initial VDA gain.
    pub fn damping(mut self, beta: f64) -> Self {
        self.damping = beta;
        self
    }

    /// Sets the outer iteration budget.
    pub fn max_outer_iterations(mut self, n: usize) -> Self {
        self.max_outer_iterations = n;
        self
    }

    /// Sets the SOR factor of the inner row-based sweeps.
    pub fn sor_omega(mut self, omega: f64) -> Self {
        self.sor_omega = omega;
        self
    }

    /// Sets the inner sweep tolerance explicitly (V).
    pub fn inner_tolerance(mut self, tol: f64) -> Self {
        self.inner_tolerance = tol;
        self
    }

    /// Sets the per-tier sweep budget.
    pub fn max_inner_sweeps(mut self, n: usize) -> Self {
        self.max_inner_sweeps = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = VpConfig::default();
        assert!(c.epsilon > 0.0 && c.epsilon < 5e-4, "inside 0.5 mV budget");
        assert!(c.inner_tolerance < c.epsilon);
        assert_eq!(c.damping, 1.0);
    }

    #[test]
    fn epsilon_scales_inner_tolerance() {
        let c = VpConfig::new().epsilon(1e-6);
        assert_eq!(c.inner_tolerance, 1e-7);
    }

    #[test]
    fn builder_chains() {
        let c = VpConfig::new()
            .damping(0.8)
            .max_outer_iterations(7)
            .sor_omega(1.3)
            .max_inner_sweeps(42)
            .inner_tolerance(3e-9)
            .parallelism(4);
        assert_eq!(c.damping, 0.8);
        assert_eq!(c.max_outer_iterations, 7);
        assert_eq!(c.sor_omega, 1.3);
        assert_eq!(c.max_inner_sweeps, 42);
        assert_eq!(c.inner_tolerance, 3e-9);
        assert_eq!(c.parallelism, 4);
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(VpConfig::new().parallelism(0).parallelism, 1);
        assert_eq!(VpConfig::default().parallelism, 1);
        assert_eq!(BuildParams::new().parallelism(0).parallelism, 1);
    }

    #[test]
    fn split_roundtrips() {
        let c = VpConfig::new()
            .epsilon(2e-5)
            .damping(0.7)
            .max_outer_iterations(33)
            .sor_omega(1.4)
            .max_inner_sweeps(99)
            .parallelism(3);
        let rebuilt = VpConfig::from_parts(c.build_params(), c.solve_params());
        assert_eq!(rebuilt, c);
    }

    #[test]
    fn solve_params_defaults_mirror_config() {
        let p = SolveParams::default();
        let c = VpConfig::default();
        assert_eq!(p.epsilon, c.epsilon);
        assert_eq!(p.inner_tolerance, c.inner_tolerance);
        assert_eq!(p.max_outer_iterations, c.max_outer_iterations);
        assert_eq!(SolveParams::new().epsilon(1e-6).inner_tolerance, 1e-7);
    }
}
