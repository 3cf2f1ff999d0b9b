//! The serving-grade entry point: one prefactored [`Session`] handle for
//! single, batched, and transient solves, across solver backends.
//!
//! The paper's central asset is *reuse*: the tier factorizations and the
//! pillar lattice are built once and amortized across every load pattern
//! that follows. A [`Session`] makes that the shape of the API —
//! [`Session::build`] factors the voltage propagation engines up front,
//! the comparison backends ([`Backend::Rb3d`], [`Backend::Pcg`]) are
//! factored once by the first request routed to each, and every request
//! flows through one request/response surface:
//!
//! * [`Session::solve`] — one load pattern ([`LoadCase`]);
//! * [`Session::solve_batch`] — `k` load patterns swept together
//!   ([`LoadSet`], lanes share the tier factors);
//! * [`Session::solve_steps`] — a sequence of load vectors solved with
//!   the steps as batch lanes (the *quasi-static* stepping pattern; no
//!   grid dynamics);
//! * [`Session::transient_dynamic`] — the **true** transient engine:
//!   `G v + C v̇ = b(t)` stepped with backward-Euler/trapezoidal
//!   companion models on a prefactored companion system (see
//!   [`crate::transient`]).
//!
//! Results come back as borrowed [`SolutionView`]s whose lane accessors
//! return `Result` instead of panicking, per-solve knobs (tolerances,
//! net, SOR factor) ride on the request via [`SolveParams`], and a
//! [`Backend`] selector routes the same session through the voltage
//! propagation engine, the naive 3-D row-based baseline, or the
//! preconditioned-CG reference solver for apples-to-apples comparisons
//! on shared prefactored state.
//!
//! A session holds only what it serves: a VoltProp-only session never
//! stamps the 3-D system or factors the PCG preconditioner, and each
//! scratch sizes a backend's buffers on its first request to it.
//!
//! Geometry is a build-time contract: a session never silently rebuilds.
//! Presenting a stack whose geometry differs from the one the session
//! was built for surfaces [`SessionError::GeometryChanged`]; loads (and
//! per-solve parameters) are free to vary.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use voltprop_grid::{GridError, NetKind, Stack3d};
use voltprop_solvers::{PcgEngine, Rb3dEngine, SolverError};
use voltprop_sparse::SparseError;

use crate::solver::{run_batch, run_single, validate_loads, VpScratch};
use crate::{BuildParams, Deadline, SolveParams, VpConfig, VpReport};

/// The solver engine a request is routed through.
///
/// All backends share one [`Session`]'s prefactored state. The
/// [`Backend::VoltProp`] engines are built by [`Session::build`]; the
/// [`Backend::Rb3d`] and [`Backend::Pcg`] engines are built once, by the
/// first request routed to each, and shared by every later request (and
/// every scratch of a [`SharedSession`](crate::SharedSession)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Backend {
    /// The paper's voltage propagation method (the default): tier-by-tier
    /// propagation with VDA feedback, prefactored row solves, batching
    /// with per-lane convergence freezing.
    #[default]
    VoltProp,
    /// The naive 3-D row-based baseline (paper §III-A): one block
    /// Gauss–Seidel iteration over all tiers with TSVs as ordinary
    /// couplings. Useful for the cross-solver comparisons the paper
    /// makes; expect many more sweeps when TSVs are strong. Parameter
    /// mapping: [`SolveParams::sor_omega`] is the sweep over-relaxation
    /// factor, [`SolveParams::inner_tolerance`] the full-stack
    /// convergence threshold, [`SolveParams::max_inner_sweeps`] the
    /// iteration budget.
    Rb3d,
    /// Preconditioned conjugate gradients on the assembled 3-D system —
    /// the paper's general-purpose comparator (refs \[6\], \[12\]),
    /// served from the session's prefactored
    /// [`voltprop_solvers::PcgEngine`]: the full MNA system is stamped
    /// and the IC(0) preconditioner factored once, by the first Pcg
    /// request (falling back to Jacobi scaling on a non-positive pivot),
    /// so warm requests are allocation-free. Parameter mapping:
    /// [`SolveParams::inner_tolerance`] is the relative residual target
    /// `‖b − Ax‖₂ / ‖b‖₂`, [`SolveParams::max_inner_sweeps`] the CG
    /// iteration budget. If the prefactor failed, this and every later
    /// Pcg request return [`SessionError::BackendUnavailable`] carrying
    /// the reason.
    Pcg,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::VoltProp => write!(f, "voltage-propagation"),
            Backend::Rb3d => write!(f, "rb3d-naive"),
            Backend::Pcg => write!(f, "pcg"),
        }
    }
}

/// Errors from [`Session::build`]: the stack cannot be served at all
/// (solve-time errors are [`SessionError`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// The stack's shape is outside what the session's engines support
    /// (e.g. pads away from the pillars — see [`crate::VpSolver`]).
    Unsupported {
        /// Human-readable description.
        what: String,
    },
    /// The grid model failed validation.
    Grid(GridError),
    /// A tier factorization failed numerically.
    Sparse(SparseError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Unsupported { what } => write!(f, "cannot build session: {what}"),
            BuildError::Grid(e) => write!(f, "cannot build session: {e}"),
            BuildError::Sparse(e) => write!(f, "cannot build session: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Grid(e) => Some(e),
            BuildError::Sparse(e) => Some(e),
            BuildError::Unsupported { .. } => None,
        }
    }
}

impl From<SolverError> for BuildError {
    fn from(e: SolverError) -> Self {
        match e {
            SolverError::Grid(g) => BuildError::Grid(g),
            SolverError::Sparse(s) => BuildError::Sparse(s),
            SolverError::Unsupported { what } => BuildError::Unsupported { what },
            // Build never iterates (`DidNotConverge` cannot occur), and
            // `SolverError` is non-exhaustive; folding the rest into
            // `Unsupported` keeps `From` total.
            other => BuildError::Unsupported {
                what: other.to_string(),
            },
        }
    }
}

/// Errors from serving a request on a built [`Session`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionError {
    /// The presented stack's geometry (footprint, tiers, resistances,
    /// TSV or pad sites) differs from the one the session was built for.
    /// Sessions never rebuild silently — build a new session for the new
    /// geometry. Loads and per-solve parameters are free to change.
    GeometryChanged {
        /// What the session was built for vs what it was given.
        what: String,
    },
    /// The requested [`Backend`] exists but this session cannot serve it
    /// — its prefactor, run by the first request routed to it, failed
    /// (e.g. the PCG preconditioner could not be factored for this grid).
    /// The failure is kept: later requests to the backend get the same
    /// error without retrying. The other backends remain usable;
    /// `reason` records what went wrong.
    BackendUnavailable {
        /// The backend that was requested.
        backend: Backend,
        /// Why the backend's prefactored state could not be built.
        reason: String,
    },
    /// A lane index beyond the solved lane count was requested from a
    /// [`SolutionView`].
    LaneOutOfRange {
        /// The requested lane.
        lane: usize,
        /// How many lanes the view holds.
        lanes: usize,
    },
    /// The underlying engine failed (convergence budget, malformed
    /// loads, …).
    Solver(SolverError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::GeometryChanged { what } => {
                write!(f, "stack geometry changed: {what}")
            }
            SessionError::BackendUnavailable { backend, reason } => {
                write!(f, "backend {backend} is unavailable: {reason}")
            }
            SessionError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range ({lanes} lanes)")
            }
            SessionError::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolverError> for SessionError {
    fn from(e: SolverError) -> Self {
        SessionError::Solver(e)
    }
}

/// One solve request: the stack carrying the loads, plus the per-solve
/// knobs that may differ between requests on one session — net, backend,
/// and optional [`SolveParams`] overriding the session defaults.
///
/// ```
/// use voltprop_core::{Backend, LoadCase, SolveParams};
/// use voltprop_grid::{NetKind, Stack3d};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(8, 8, 2).uniform_load(1e-4).build()?;
/// let case = LoadCase::new(&stack)
///     .net(NetKind::Ground)
///     .backend(Backend::VoltProp)
///     .params(SolveParams::new().epsilon(1e-5));
/// # let _ = case;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LoadCase<'a> {
    pub(crate) stack: &'a Stack3d,
    pub(crate) net: NetKind,
    pub(crate) backend: Backend,
    pub(crate) params: Option<SolveParams>,
    pub(crate) deadline: Deadline,
}

impl<'a> LoadCase<'a> {
    /// A power-net request on the stack's own loads, using the session's
    /// default backend ([`Backend::VoltProp`]) and parameters, with no
    /// deadline.
    pub fn new(stack: &'a Stack3d) -> Self {
        LoadCase {
            stack,
            net: NetKind::Power,
            backend: Backend::VoltProp,
            params: None,
            deadline: Deadline::NONE,
        }
    }

    /// Selects the net to analyse.
    pub fn net(mut self, net: NetKind) -> Self {
        self.net = net;
        self
    }

    /// Routes this request through a specific [`Backend`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the session's default per-solve parameters for this
    /// request only.
    pub fn params(mut self, params: SolveParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Attaches a wall-clock [`Deadline`]: the engine outer loops check
    /// it between iterations and abandon the solve with
    /// [`SessionError::Solver`]`(`[`SolverError::DeadlineExceeded`]`)`
    /// once it passes (see [`Deadline`] for the check granularity).
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The stack this request reads geometry and loads from.
    pub fn stack(&self) -> &'a Stack3d {
        self.stack
    }
}

/// A batched solve request: `k` complete load vectors served against one
/// stack's geometry, swept together through the shared tier factors.
///
/// `loads` is lane-major — lane `j`'s `stack.num_nodes()` currents are
/// contiguous at `j * num_nodes` — and replaces the stack's own loads.
/// Net, backend, and parameter overrides apply to every lane.
#[derive(Debug, Clone, Copy)]
pub struct LoadSet<'a> {
    pub(crate) stack: &'a Stack3d,
    pub(crate) loads: &'a [f64],
    pub(crate) net: NetKind,
    pub(crate) backend: Backend,
    pub(crate) params: Option<SolveParams>,
    pub(crate) deadline: Deadline,
}

impl<'a> LoadSet<'a> {
    /// A power-net batch over `loads` (lane-major, a whole number of
    /// `stack.num_nodes()`-sized vectors), with no deadline.
    pub fn new(stack: &'a Stack3d, loads: &'a [f64]) -> Self {
        LoadSet {
            stack,
            loads,
            net: NetKind::Power,
            backend: Backend::VoltProp,
            params: None,
            deadline: Deadline::NONE,
        }
    }

    /// Selects the net to analyse.
    pub fn net(mut self, net: NetKind) -> Self {
        self.net = net;
        self
    }

    /// Routes this batch through a specific [`Backend`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the session's default per-solve parameters for this
    /// batch only.
    pub fn params(mut self, params: SolveParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Attaches a wall-clock [`Deadline`] covering the whole batch: the
    /// lockstep outer loop (VoltProp) or per-lane loop (engine routes)
    /// checks it between iterations/lanes and abandons the batch with
    /// [`SessionError::Solver`]`(`[`SolverError::DeadlineExceeded`]`)`
    /// once it passes.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The stack this batch reads geometry from.
    pub fn stack(&self) -> &'a Stack3d {
        self.stack
    }

    /// The lane-major load buffer.
    pub fn loads(&self) -> &'a [f64] {
        self.loads
    }
}

/// A borrowed view of the most recent solve's results: per-lane voltages,
/// pillar currents, and convergence reports, living in the session's
/// arenas (nothing is copied out).
///
/// Lane accessors return [`SessionError::LaneOutOfRange`] instead of
/// panicking — these replace the deprecated panicking
/// `VpScratch::batch_voltages` / `batch_pillar_currents`. A single
/// [`Session::solve`] produces a one-lane view, so the lane-0
/// conveniences ([`SolutionView::voltages`], [`SolutionView::report`])
/// are always valid.
#[derive(Debug, Clone, Copy)]
pub struct SolutionView<'a> {
    /// Lane-major voltages, `lanes * nodes`.
    voltages: &'a [f64],
    /// Lane-major pillar currents, `lanes * sites` (empty for
    /// single-tier stacks and for backends that don't compute them).
    pillar_currents: &'a [f64],
    reports: &'a [VpReport],
    lanes: usize,
    nodes: usize,
    sites: usize,
}

impl<'a> SolutionView<'a> {
    /// Number of solved lanes (1 for [`Session::solve`], `k` for a
    /// batch, the step count for a transient).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Nodes per lane (the stack's `num_nodes`).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether **every** lane converged.
    pub fn converged(&self) -> bool {
        self.reports.iter().all(|r| r.converged)
    }

    /// Lane 0's per-node voltages (flat tier-major) — the whole solution
    /// of a single solve.
    pub fn voltages(&self) -> &'a [f64] {
        &self.voltages[..self.nodes]
    }

    /// Lane 0's per-pillar package currents (aligned with
    /// [`Stack3d::tsv_sites`]; empty for single-tier stacks and for the
    /// [`Backend::Rb3d`] and [`Backend::Pcg`] routes, which don't
    /// compute them).
    pub fn pillar_currents(&self) -> &'a [f64] {
        &self.pillar_currents[..self.sites.min(self.pillar_currents.len())]
    }

    /// Lane 0's convergence report.
    pub fn report(&self) -> &'a VpReport {
        &self.reports[0]
    }

    /// All per-lane convergence reports, in lane order.
    pub fn reports(&self) -> &'a [VpReport] {
        self.reports
    }

    fn check_lane(&self, lane: usize) -> Result<(), SessionError> {
        if lane < self.lanes {
            Ok(())
        } else {
            Err(SessionError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            })
        }
    }

    /// Lane `lane`'s per-node voltages (flat tier-major).
    ///
    /// # Errors
    ///
    /// [`SessionError::LaneOutOfRange`] if `lane >= self.lanes()`.
    pub fn lane_voltages(&self, lane: usize) -> Result<&'a [f64], SessionError> {
        self.check_lane(lane)?;
        Ok(&self.voltages[lane * self.nodes..(lane + 1) * self.nodes])
    }

    /// Lane `lane`'s per-pillar package currents (empty for single-tier
    /// stacks and the [`Backend::Rb3d`]/[`Backend::Pcg`] routes).
    ///
    /// # Errors
    ///
    /// [`SessionError::LaneOutOfRange`] if `lane >= self.lanes()`.
    pub fn lane_pillar_currents(&self, lane: usize) -> Result<&'a [f64], SessionError> {
        self.check_lane(lane)?;
        if self.pillar_currents.is_empty() {
            return Ok(&[]);
        }
        Ok(&self.pillar_currents[lane * self.sites..(lane + 1) * self.sites])
    }

    /// Lane `lane`'s convergence report.
    ///
    /// # Errors
    ///
    /// [`SessionError::LaneOutOfRange`] if `lane >= self.lanes()`.
    pub fn lane_report(&self, lane: usize) -> Result<&'a VpReport, SessionError> {
        self.check_lane(lane)?;
        Ok(&self.reports[lane])
    }

    /// Lane 0's worst IR drop below `rail` (V).
    pub fn worst_drop(&self, rail: f64) -> f64 {
        self.voltages().iter().fold(0.0f64, |m, &v| m.max(rail - v))
    }

    /// Lane `lane`'s worst IR drop below `rail` (V).
    ///
    /// # Errors
    ///
    /// [`SessionError::LaneOutOfRange`] if `lane >= self.lanes()`.
    pub fn lane_worst_drop(&self, lane: usize, rail: f64) -> Result<f64, SessionError> {
        Ok(self
            .lane_voltages(lane)?
            .iter()
            .fold(0.0f64, |m, &v| m.max(rail - v)))
    }
}

/// The frozen, shareable half of a session: every piece of read-only
/// post-build state — the voltage-propagation tier factors and pillar
/// lattice, and, once a request has been routed to them, the
/// [`Backend::Rb3d`] engine topology and the [`Backend::Pcg`] stamped
/// system with its IC(0) factor — plus the session's build-time and
/// default per-solve parameters.
///
/// # Ownership rules
///
/// * A `SessionCore` is **frozen after build**: no method takes
///   `&mut self`, so one core behind an [`Arc`] serves any number of
///   threads. The Rb3d and Pcg engines are each built at most once, by
///   the first request routed to them (concurrent first requests wait
///   for that one build), and never change afterwards.
/// * All per-request mutable state lives in [`SolveScratch`]es created
///   by [`SessionCore::new_scratch`]. A scratch internally holds its own
///   `Arc` references to the core's factors (forking never restamps or
///   refactors anything), so it remains valid even if the core handle
///   that created it is dropped first.
/// * A scratch is exclusively owned by whoever holds it: a [`Session`]
///   permanently owns one, a [`SharedSession`](crate::SharedSession)
///   keeps a bounded pool and checks one out per request. Solves fully
///   re-initialize every buffer they read, so identical requests on any
///   scratch of one core produce bitwise-identical results.
#[derive(Debug)]
pub struct SessionCore {
    build: BuildParams,
    defaults: SolveParams,
    width: usize,
    height: usize,
    tiers: usize,
    nn: usize,
    /// The voltage-propagation template: its tier factors and lattice are
    /// what every scratch forks; no solve ever runs on it, so it holds no
    /// per-solve buffers.
    vp: VpScratch,
    /// The Rb3d engine, built by the first [`Backend::Rb3d`] request (or
    /// why that build failed). Never solved on: scratches fork it.
    rb: OnceLock<Result<Rb3dEngine, String>>,
    /// The PCG engine, built by the first [`Backend::Pcg`] request (or
    /// why that build failed). Never solved on: scratches fork it.
    pcg: OnceLock<Result<PcgEngine, String>>,
}

/// The per-request mutable half of a session: every buffer a solve
/// writes — the VoltProp route's outer-loop lane arena (voltages,
/// injections, pillar state and Anderson histories), the
/// [`Backend::Rb3d`] sweep state, the
/// [`Backend::Pcg`] iteration vectors, the transient staging buffer, and
/// the per-lane reports.
///
/// A scratch is created by [`SessionCore::new_scratch`] and is tied to
/// that core's geometry; it shares the core's prefactored read-only
/// state internally and has no public operations of its own — solves
/// are driven through [`Session`] (which permanently owns one scratch)
/// or [`SharedSession`](crate::SharedSession) (which pools them and
/// checks one out per request). A new scratch holds the one-lane
/// VoltProp arena; the Rb3d and Pcg halves (and the engine routes'
/// voltage arena) are made by its first request to that backend. Every
/// solve re-initializes the buffers it reads, so a scratch never leaks
/// one request's state into the next.
#[derive(Debug)]
pub struct SolveScratch {
    pub(crate) vp: VpScratch,
    pub(crate) rb: Option<Rb3dEngine>,
    pub(crate) pcg: Option<PcgEngine>,
    /// Lane-major voltages of the engine routes ([`Backend::Rb3d`] and
    /// [`Backend::Pcg`]; grown to the largest lane count seen, empty
    /// until the first such request). One arena serves both: each engine
    /// overwrites every entry it reports before reading any (Rb3d starts
    /// from the rail, PCG expands its own zero-started iterate).
    pub(crate) voltages: Vec<f64>,
    /// Staging buffer for [`Session::solve_steps`] load sequences.
    pub(crate) transient_loads: Vec<f64>,
    /// Per-lane reports of the most recent request.
    pub(crate) reports: Vec<VpReport>,
    /// What the engines above report for the frozen halves they share
    /// with the core: [`SolveScratch::memory_bytes`] subtracts it, so a
    /// scratch counts only its own buffers.
    shared_bytes: usize,
}

impl SolveScratch {
    /// Estimated heap footprint of this scratch's own buffers. The
    /// factors it shares with its core are counted once, by
    /// [`SessionCore::memory_bytes`]. The figure grows when the scratch
    /// first serves a backend, and when a request needs more lanes than
    /// any before; warm requests leave it unchanged.
    pub fn memory_bytes(&self) -> usize {
        let reached = self.vp.memory_bytes()
            + self.rb.as_ref().map_or(0, Rb3dEngine::memory_bytes)
            + self.pcg.as_ref().map_or(0, PcgEngine::memory_bytes)
            + (self.voltages.capacity() + self.transient_loads.capacity()) * 8
            + self.reports.capacity() * std::mem::size_of::<VpReport>();
        // Never below zero: a pooled scratch is measured inside `Drop`.
        reached.saturating_sub(self.shared_bytes)
    }
}

impl SessionCore {
    /// Validates the stack and factors the voltage propagation engines
    /// (tier factors, pillar lattice). The [`Backend::Rb3d`] and
    /// [`Backend::Pcg`] engines are not built here: the first request
    /// routed to each builds it, from that request's stack (whose
    /// geometry is checked first), and a failed build is served as
    /// [`SessionError::BackendUnavailable`] from then on.
    ///
    /// # Errors
    ///
    /// [`BuildError`] if the grid fails validation, voltage propagation
    /// cannot serve the topology (pads away from pillars, resistive pads
    /// on a single tier), or a factorization fails.
    pub fn build(stack: &Stack3d, config: VpConfig) -> Result<SessionCore, BuildError> {
        let vp = VpScratch::new(stack, &config)?;
        Ok(SessionCore {
            build: config.build_params(),
            defaults: config.solve_params(),
            width: stack.width(),
            height: stack.height(),
            tiers: stack.tiers(),
            nn: stack.num_nodes(),
            vp,
            rb: OnceLock::new(),
            pcg: OnceLock::new(),
        })
    }

    /// A fresh [`SolveScratch`] for this core: the prefactored read-only
    /// state (tier factors, pin mask, lattice) is shared via `Arc` —
    /// nothing is refactored — and the one-lane VoltProp arena is freshly
    /// allocated. This is the cold, allocating step; the first request
    /// of each backend sizes that backend's buffers, and warm requests
    /// allocate nothing.
    #[must_use]
    pub fn new_scratch(&self) -> SolveScratch {
        SolveScratch {
            vp: self.vp.fork(),
            rb: None,
            pcg: None,
            voltages: Vec::new(),
            transient_loads: Vec::new(),
            reports: Vec::new(),
            shared_bytes: self.vp.memory_bytes(),
        }
    }

    /// The core's build-time parameters.
    pub fn build_params(&self) -> BuildParams {
        self.build
    }

    /// The core's default per-solve parameters (from the config given to
    /// [`SessionCore::build`]).
    pub fn defaults(&self) -> SolveParams {
        self.defaults
    }

    /// Number of grid nodes per lane (the build stack's `num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.nn
    }

    /// Estimated heap footprint of the prefactored state, each shared
    /// factor counted once: the voltage propagation engines, plus the
    /// Rb3d and Pcg engines once a request has built them. Scratches
    /// count their own buffers separately.
    pub fn memory_bytes(&self) -> usize {
        let rb = self.rb.get().and_then(|r| r.as_ref().ok());
        let pcg = self.pcg.get().and_then(|r| r.as_ref().ok());
        self.vp.frozen_bytes()
            + rb.map_or(0, Rb3dEngine::memory_bytes)
            + pcg.map_or(0, PcgEngine::memory_bytes)
    }

    /// Whether the stack's geometry matches what this core was built for
    /// (loads are ignored).
    pub fn serves(&self, stack: &Stack3d) -> bool {
        self.vp.geometry_matches(stack)
    }

    /// `scratch`'s Rb3d half: the core's engine, built from `stack` by
    /// the first Rb3d request of any scratch, is forked into the scratch
    /// on its own first one. `stack` must already have passed
    /// [`SessionCore::check_geometry`].
    fn rb_half<'s>(
        &self,
        half: &'s mut Option<Rb3dEngine>,
        shared_bytes: &mut usize,
        stack: &Stack3d,
    ) -> Result<&'s mut Rb3dEngine, SessionError> {
        let built = self.rb.get_or_init(|| {
            Rb3dEngine::build(stack, self.build.parallelism)
                .map_err(|e| format!("Rb3d prefactor failed: {e}"))
        });
        let engine = built_or_unavailable(Backend::Rb3d, built)?;
        Ok(half.get_or_insert_with(|| {
            *shared_bytes += engine.memory_bytes();
            engine.fork()
        }))
    }

    /// `scratch`'s Pcg half, made like [`SessionCore::rb_half`]'s.
    fn pcg_half<'s>(
        &self,
        half: &'s mut Option<PcgEngine>,
        shared_bytes: &mut usize,
        stack: &Stack3d,
    ) -> Result<&'s mut PcgEngine, SessionError> {
        let built = self.pcg.get_or_init(|| {
            PcgEngine::build(stack).map_err(|e| format!("PCG prefactor failed: {e}"))
        });
        let engine = built_or_unavailable(Backend::Pcg, built)?;
        Ok(half.get_or_insert_with(|| {
            *shared_bytes += engine.memory_bytes();
            engine.fork()
        }))
    }

    pub(crate) fn check_geometry(&self, stack: &Stack3d) -> Result<(), SessionError> {
        if self.serves(stack) {
            return Ok(());
        }
        Err(SessionError::GeometryChanged {
            what: format!(
                "session was built for a {}x{}x{} stack (same footprint, \
                 resistances, TSV and pad sites); got {}x{}x{} — build a \
                 new session for the new geometry (only loads and \
                 per-solve parameters may change)",
                self.width,
                self.height,
                self.tiers,
                stack.width(),
                stack.height(),
                stack.tiers(),
            ),
        })
    }

    /// Runs one [`LoadCase`] into `scratch` (no view yet — the borrow of
    /// the case stays separable from the result view, which
    /// [`SessionCore::view`] builds afterwards: a single solve is a
    /// one-lane batch on every backend).
    pub(crate) fn solve_on(
        &self,
        scratch: &mut SolveScratch,
        case: &LoadCase<'_>,
    ) -> Result<(), SessionError> {
        self.check_geometry(case.stack)?;
        case.stack.validate().map_err(SolverError::from)?;
        let params = case.params.unwrap_or(self.defaults);
        match case.backend {
            Backend::VoltProp => {
                let report = run_single(
                    &params,
                    case.stack,
                    case.net,
                    &mut scratch.vp,
                    case.deadline,
                )?;
                scratch.reports.clear();
                scratch.reports.push(report);
                Ok(())
            }
            Backend::Rb3d => {
                // A prefactored engine solve is one opaque call, so the
                // deadline is checked on entry only — the iteration
                // budget bounds the tail.
                case.deadline.check(0)?;
                let rb = self.rb_half(&mut scratch.rb, &mut scratch.shared_bytes, case.stack)?;
                let rep = rb.solve(
                    case.stack.loads(),
                    case.net,
                    params.sor_omega,
                    params.inner_tolerance,
                    params.max_inner_sweeps,
                    lane_voltages(&mut scratch.voltages, self.nn),
                )?;
                scratch.reports.clear();
                scratch.reports.push(rb_report(&rep, self.tiers));
                Ok(())
            }
            Backend::Pcg => {
                case.deadline.check(0)?;
                let engine =
                    self.pcg_half(&mut scratch.pcg, &mut scratch.shared_bytes, case.stack)?;
                let rep = engine.solve(
                    case.stack.loads(),
                    case.net,
                    params.inner_tolerance,
                    params.max_inner_sweeps,
                    lane_voltages(&mut scratch.voltages, self.nn),
                )?;
                scratch.reports.clear();
                scratch.reports.push(pcg_report(&rep));
                Ok(())
            }
        }
    }

    /// Runs a batched request into the backend's arena in `scratch` (no
    /// view yet — keeps the borrow of `loads` separable from the
    /// returned view).
    #[allow(clippy::too_many_arguments)] // the full batched-request surface
    pub(crate) fn batch_on(
        &self,
        scratch: &mut SolveScratch,
        stack: &Stack3d,
        net: NetKind,
        backend: Backend,
        params: Option<SolveParams>,
        loads: &[f64],
        deadline: Deadline,
    ) -> Result<(), SessionError> {
        self.check_geometry(stack)?;
        stack.validate().map_err(SolverError::from)?;
        let params = params.unwrap_or(self.defaults);
        match backend {
            Backend::VoltProp => {
                run_batch(
                    &params,
                    stack,
                    net,
                    loads,
                    &mut scratch.vp,
                    &mut scratch.reports,
                    deadline,
                )?;
                Ok(())
            }
            // Both engine routes share the per-lane loop; only the lane
            // solve and its budget-exhaustion report mapping differ. A
            // lane whose budget runs out reports its true residual with
            // `converged = false` instead of discarding the batch
            // (mirroring VoltProp); any other engine error — e.g. a PCG
            // numerical breakdown, which more lanes cannot fix — still
            // fails the whole request.
            Backend::Rb3d => {
                let rb = self.rb_half(&mut scratch.rb, &mut scratch.shared_bytes, stack)?;
                let tiers = self.tiers;
                run_engine_batch(
                    self.nn,
                    loads,
                    &mut scratch.voltages,
                    &mut scratch.reports,
                    deadline,
                    |lane_loads, v| match rb.solve(
                        lane_loads,
                        net,
                        params.sor_omega,
                        params.inner_tolerance,
                        params.max_inner_sweeps,
                        v,
                    ) {
                        Ok(rep) => Ok(rb_report(&rep, tiers)),
                        Err(SolverError::DidNotConverge {
                            iterations,
                            residual,
                            ..
                        }) => Ok(VpReport {
                            outer_iterations: iterations,
                            inner_sweeps: iterations * tiers,
                            pad_mismatch: residual,
                            final_beta: 0.0,
                            converged: false,
                            workspace_bytes: rb.memory_bytes(),
                        }),
                        Err(e) => Err(e),
                    },
                )
            }
            Backend::Pcg => {
                let engine = self.pcg_half(&mut scratch.pcg, &mut scratch.shared_bytes, stack)?;
                run_engine_batch(
                    self.nn,
                    loads,
                    &mut scratch.voltages,
                    &mut scratch.reports,
                    deadline,
                    |lane_loads, v| match engine.solve(
                        lane_loads,
                        net,
                        params.inner_tolerance,
                        params.max_inner_sweeps,
                        v,
                    ) {
                        Ok(rep) => Ok(pcg_report(&rep)),
                        Err(SolverError::DidNotConverge {
                            iterations,
                            residual,
                            ..
                        }) => Ok(VpReport {
                            outer_iterations: iterations,
                            inner_sweeps: iterations,
                            pad_mismatch: residual,
                            final_beta: 0.0,
                            converged: false,
                            workspace_bytes: engine.memory_bytes(),
                        }),
                        Err(e) => Err(e),
                    },
                )
            }
        }
    }

    /// The view over the arena the given backend's results live in (call
    /// only after a successful [`SessionCore::solve_on`] or
    /// [`SessionCore::batch_on`]).
    pub(crate) fn view<'s>(&self, scratch: &'s SolveScratch, backend: Backend) -> SolutionView<'s> {
        match backend {
            Backend::VoltProp => {
                let (voltages, pillar_currents, k) = scratch.vp.solution();
                SolutionView {
                    voltages,
                    pillar_currents,
                    reports: &scratch.reports,
                    lanes: k,
                    nodes: self.nn,
                    sites: scratch.vp.num_sites(),
                }
            }
            Backend::Rb3d | Backend::Pcg => {
                let k = scratch.reports.len();
                SolutionView {
                    voltages: &scratch.voltages[..k * self.nn],
                    pillar_currents: &[],
                    reports: &scratch.reports,
                    lanes: k,
                    nodes: self.nn,
                    sites: 0,
                }
            }
        }
    }

    /// Stages a sequence of load steps in `scratch` and runs it as one
    /// batched request (see [`Session::solve_steps`]).
    pub(crate) fn transient_on<F>(
        &self,
        scratch: &mut SolveScratch,
        case: &LoadCase<'_>,
        steps: usize,
        mut fill: F,
    ) -> Result<(), SessionError>
    where
        F: FnMut(usize, &mut [f64]),
    {
        let nn = self.nn;
        // Stage the waveform in the scratch buffer without holding a
        // borrow across the solve (take + restore is allocation-free).
        let mut loads = std::mem::take(&mut scratch.transient_loads);
        loads.resize(steps * nn, 0.0);
        for s in 0..steps {
            fill(s, &mut loads[s * nn..(s + 1) * nn]);
        }
        let outcome = self.batch_on(
            scratch,
            case.stack,
            case.net,
            case.backend,
            case.params,
            &loads,
            case.deadline,
        );
        scratch.transient_loads = loads;
        outcome
    }
}

/// The prefactored solve handle: tier factorizations, the pillar
/// lattice, and the solve buffers, built once and amortized across all
/// following requests. [`Session::build`] builds what voltage
/// propagation needs; the first request routed to [`Backend::Rb3d`] or
/// [`Backend::Pcg`] builds that engine, so a session holds only what it
/// serves.
///
/// A session is tied to one grid *geometry* (footprint, tiers,
/// resistances, TSV and pad sites) and one build-time configuration
/// (sweep parallelism). Within that contract everything may vary per
/// request: loads, net, tolerances, and the [`Backend`] the request is
/// routed through — voltage propagation, the naive row-based baseline,
/// and the prefactored PCG reference all serve from this one handle.
/// Warm requests — every request after the first of its backend and
/// lane count — perform **zero heap allocations** on the
/// [`Backend::VoltProp`] and [`Backend::Pcg`] routes (single, batched,
/// and transient — measured by `perfsuite`), on stacks with a pad on
/// every pillar and on sparse-pad stacks alike (whose VDA runs a
/// prefactored coarse pillar-lattice solve; pinned by the
/// `warm_allocs` test of `voltprop-bench`), and batched VoltProp lanes
/// are bitwise identical to the corresponding single solves.
///
/// Internally a session is a frozen [`Arc`]`<`[`SessionCore`]`>` (the
/// factors) plus one permanently-owned [`SolveScratch`] (the mutable
/// buffers) — the same split [`SharedSession`](crate::SharedSession)
/// uses to serve N threads from one factorization. A `Session` is the
/// single-owner view: `solve` takes `&mut self` and never contends.
///
/// # Example
///
/// ```
/// use voltprop_core::{LoadCase, LoadSet, Session, VpConfig};
/// use voltprop_grid::{NetKind, Stack3d};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(12, 12, 3).uniform_load(2e-4).build()?;
/// let mut session = Session::build(&stack, VpConfig::default())?;
///
/// // Single solve on the stack's own loads.
/// let view = session.solve(&LoadCase::new(&stack))?;
/// assert!(view.converged());
/// let worst = view.worst_drop(stack.vdd());
///
/// // A two-scenario what-if sweep on the same prefactored state.
/// let mut loads = stack.loads().to_vec();
/// loads.extend(stack.loads().iter().map(|l| 1.5 * l));
/// let sweep = session.solve_batch(&LoadSet::new(&stack, &loads))?;
/// assert_eq!(sweep.lanes(), 2);
/// assert!(sweep.lane_worst_drop(1, stack.vdd())? >= worst);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    pub(crate) core: Arc<SessionCore>,
    pub(crate) scratch: SolveScratch,
    /// The transient companion state ([`Session::transient_dynamic`]):
    /// `None` until the first transient run, then cached across runs and
    /// rebuilt only on a step-size/integrator/capacitance change.
    pub(crate) dynamic: Option<Box<crate::transient::TransientState>>,
}

impl Session {
    /// Validates the stack and factors the voltage propagation engines —
    /// see [`SessionCore::build`] for what is factored, and when the
    /// other backends are. The config's build-time half is fixed for the
    /// session's lifetime; its per-solve half becomes the session
    /// defaults that a [`LoadCase`]/[`LoadSet`] may override.
    ///
    /// The VoltProp outer loop runs every request as `k` lanes of one
    /// arena, built for one lane and grown by the first batch wider than
    /// any before (a cold call); later requests of any lane count it has
    /// room for — single and batched alternating — are allocation-free.
    ///
    /// # Errors
    ///
    /// [`BuildError`] if the grid fails validation, voltage propagation
    /// cannot serve the topology (pads away from pillars, resistive pads
    /// on a single tier), or a factorization fails.
    pub fn build(stack: &Stack3d, config: VpConfig) -> Result<Session, BuildError> {
        Ok(Session::from_core(Arc::new(SessionCore::build(
            stack, config,
        )?)))
    }

    /// A session serving an existing core: shares the factorization
    /// (nothing is rebuilt) and allocates this session's own
    /// [`SolveScratch`]. Useful to pair a single-owner `Session` with a
    /// [`SharedSession`](crate::SharedSession) on one factorization.
    pub fn from_core(core: Arc<SessionCore>) -> Session {
        let scratch = core.new_scratch();
        Session {
            core,
            scratch,
            dynamic: None,
        }
    }

    /// The frozen core this session solves against (share it to build
    /// more sessions on the same factorization).
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// The session's build-time parameters.
    pub fn build_params(&self) -> BuildParams {
        self.core.build_params()
    }

    /// The session's default per-solve parameters (from the config given
    /// to [`Session::build`]).
    pub fn defaults(&self) -> SolveParams {
        self.core.defaults()
    }

    /// Estimated heap footprint of all prefactored state and arenas, each
    /// allocation counted once: the core's factors (growing when a
    /// request first builds the Rb3d or Pcg engine) plus this session's
    /// own buffers (growing when a backend is first served, or a batch
    /// is wider than any before). Warm requests leave it unchanged. The
    /// transient companion state of [`Session::transient_dynamic`] is
    /// reported by its [`TransientReport`](crate::TransientReport)
    /// instead.
    pub fn memory_bytes(&self) -> usize {
        self.core.memory_bytes() + self.scratch.memory_bytes()
    }

    /// Whether the stack's geometry matches what this session was built
    /// for (loads are ignored).
    pub fn serves(&self, stack: &Stack3d) -> bool {
        self.core.serves(stack)
    }

    /// Serves one load pattern (the stack's own loads), routed through
    /// the case's [`Backend`]. The first request to [`Backend::Rb3d`] or
    /// [`Backend::Pcg`] builds that engine (after the geometry check);
    /// warm calls are allocation-free on every route.
    ///
    /// # Errors
    ///
    /// * [`SessionError::GeometryChanged`] if the case's stack differs
    ///   geometrically from the build-time stack.
    /// * [`SessionError::BackendUnavailable`] for a backend whose
    ///   prefactor failed (carrying the reason).
    /// * [`SessionError::Solver`] for engine failures (convergence
    ///   budget exhausted, numerical breakdown, invalid loads).
    pub fn solve(&mut self, case: &LoadCase<'_>) -> Result<SolutionView<'_>, SessionError> {
        self.core.solve_on(&mut self.scratch, case)?;
        Ok(self.core.view(&self.scratch, case.backend))
    }

    /// Serves `k` load patterns as one batched request. On the
    /// [`Backend::VoltProp`] route all lanes sweep together through the
    /// shared tier factors in lockstep — each converged lane is bitwise
    /// identical to the corresponding [`Session::solve`] — and a lane
    /// that exhausts a budget reports `converged = false` in its
    /// [`SolutionView::lane_report`] instead of failing the batch. The
    /// [`Backend::Rb3d`] and [`Backend::Pcg`] routes serve the lanes as
    /// per-lane solves on their prefactored engines (factorizations
    /// still amortized; a lane that finishes is final and never touched
    /// by later lanes, and a lane that exhausts its budget likewise
    /// reports `converged = false` instead of failing the batch).
    ///
    /// # Errors
    ///
    /// See [`Session::solve`]; additionally
    /// [`SessionError::Solver`]`(`[`SolverError::Unsupported`]`)` if the
    /// load buffer is empty, not a whole number of load vectors, or
    /// contains negative/non-finite currents.
    pub fn solve_batch(&mut self, set: &LoadSet<'_>) -> Result<SolutionView<'_>, SessionError> {
        self.core.batch_on(
            &mut self.scratch,
            set.stack,
            set.net,
            set.backend,
            set.params,
            set.loads,
            set.deadline,
        )?;
        Ok(self.core.view(&self.scratch, set.backend))
    }

    /// Serves a sequence of load steps: `steps` load vectors produced by
    /// `fill(step, lane_loads)` become the lanes of one batched solve —
    /// the *quasi-static* stepping pattern (grid fixed, currents moving,
    /// no capacitive dynamics: every step is an independent DC solve).
    /// The staged loads live in a session-owned buffer, so warm calls
    /// with an unchanged `steps` allocate nothing.
    ///
    /// For a true transient — capacitances integrated with companion
    /// models on a prefactored companion system, streaming waveform I/O
    /// instead of a steps-as-lanes arena — see
    /// [`Session::transient_dynamic`].
    ///
    /// `fill` is called once per step, in step order, with a zeroed (or
    /// previously used) slice of `stack.num_nodes()` entries to
    /// overwrite.
    ///
    /// # Errors
    ///
    /// See [`Session::solve_batch`].
    pub fn solve_steps<F>(
        &mut self,
        case: &LoadCase<'_>,
        steps: usize,
        fill: F,
    ) -> Result<SolutionView<'_>, SessionError>
    where
        F: FnMut(usize, &mut [f64]),
    {
        self.core
            .transient_on(&mut self.scratch, case, steps, fill)?;
        Ok(self.core.view(&self.scratch, case.backend))
    }
}

/// The built engine, or its recorded build failure as
/// [`SessionError::BackendUnavailable`].
fn built_or_unavailable<E>(
    backend: Backend,
    built: &Result<E, String>,
) -> Result<&E, SessionError> {
    built
        .as_ref()
        .map_err(|reason| SessionError::BackendUnavailable {
            backend,
            reason: reason.clone(),
        })
}

/// The first `nn` entries of the engine routes' voltage arena, grown to
/// one lane on the first engine-route request.
fn lane_voltages(voltages: &mut Vec<f64>, nn: usize) -> &mut [f64] {
    if voltages.len() < nn {
        voltages.resize(nn, 0.0);
    }
    &mut voltages[..nn]
}

/// The shared per-lane batch loop of the engine-backed routes
/// ([`Backend::Rb3d`], [`Backend::Pcg`]): validates the lane-major load
/// buffer, grows the lane-major voltage arena if this lane count is new
/// (warm calls with a seen count allocate nothing), and runs
/// `solve_lane` on each lane's slices in order — a finished lane is
/// final and never touched by later lanes. `solve_lane` returns the
/// lane's [`VpReport`] (budget exhaustion mapped to `converged = false`
/// by the caller) or a hard error that fails the whole request. The
/// request [`Deadline`] is checked before every lane — this per-lane
/// loop is the engine routes' cooperative cancellation point.
fn run_engine_batch(
    nn: usize,
    loads: &[f64],
    voltages: &mut Vec<f64>,
    reports: &mut Vec<VpReport>,
    deadline: Deadline,
    mut solve_lane: impl FnMut(&[f64], &mut [f64]) -> Result<VpReport, SolverError>,
) -> Result<(), SessionError> {
    let k = validate_loads(nn, loads)?;
    if voltages.len() < k * nn {
        voltages.resize(k * nn, 0.0);
    }
    reports.clear();
    for j in 0..k {
        deadline.check(j)?;
        let lane_loads = &loads[j * nn..(j + 1) * nn];
        let v = &mut voltages[j * nn..(j + 1) * nn];
        reports.push(solve_lane(lane_loads, v)?);
    }
    Ok(())
}

/// Maps an Rb3d [`voltprop_solvers::SolveReport`] into the session's
/// uniform per-lane [`VpReport`]: full-stack iterations count as outer
/// iterations, each of which sweeps every tier once; there is no VDA, so
/// `final_beta` is 0 and `pad_mismatch` carries the largest per-sweep
/// voltage update the iteration stopped at.
fn rb_report(rep: &voltprop_solvers::SolveReport, tiers: usize) -> VpReport {
    VpReport {
        outer_iterations: rep.iterations,
        inner_sweeps: rep.iterations * tiers,
        pad_mismatch: rep.residual,
        final_beta: 0.0,
        converged: rep.converged,
        workspace_bytes: rep.workspace_bytes,
    }
}

/// Maps a Pcg [`voltprop_solvers::SolveReport`] into the session's
/// uniform per-lane [`VpReport`]: CG iterations count as both outer
/// iterations and inner sweeps (there is no inner/outer split), there is
/// no VDA (`final_beta` 0), and `pad_mismatch` carries the relative
/// residual the iteration stopped at.
fn pcg_report(rep: &voltprop_solvers::SolveReport) -> VpReport {
    VpReport {
        outer_iterations: rep.iterations,
        inner_sweeps: rep.iterations,
        pad_mismatch: rep.residual,
        final_beta: 0.0,
        converged: rep.converged,
        workspace_bytes: rep.workspace_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltprop_grid::LoadProfile;

    fn stack() -> Stack3d {
        Stack3d::builder(10, 10, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                11,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn build_solve_roundtrip() {
        let s = stack();
        let mut session = Session::build(&s, VpConfig::default()).unwrap();
        let view = session.solve(&LoadCase::new(&s)).unwrap();
        assert!(view.converged());
        assert_eq!(view.lanes(), 1);
        assert_eq!(view.voltages().len(), s.num_nodes());
        assert_eq!(view.lane_voltages(0).unwrap(), view.voltages());
        assert!(matches!(
            view.lane_voltages(1),
            Err(SessionError::LaneOutOfRange { lane: 1, lanes: 1 })
        ));
        assert!(view.worst_drop(s.vdd()) > 0.0);
    }

    #[test]
    fn geometry_change_is_an_error_not_a_rebuild() {
        let s = stack();
        let mut session = Session::build(&s, VpConfig::default()).unwrap();
        let other = Stack3d::builder(8, 8, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        assert!(!session.serves(&other));
        let err = session.solve(&LoadCase::new(&other)).unwrap_err();
        assert!(matches!(err, SessionError::GeometryChanged { .. }));
        // Loads-only changes are served (no rebuild, no error).
        let mut relo = s.clone();
        relo.set_loads(s.loads().iter().map(|l| 2.0 * l).collect())
            .unwrap();
        assert!(session.serves(&relo));
        assert!(session.solve(&LoadCase::new(&relo)).is_ok());
    }

    #[test]
    fn pcg_backend_solves_through_the_session() {
        let s = stack();
        let mut session = Session::build(&s, VpConfig::default()).unwrap();
        let pcg_params = crate::SolveParams::new()
            .inner_tolerance(1e-8)
            .max_inner_sweeps(50_000);
        let vp = session
            .solve(&LoadCase::new(&s))
            .unwrap()
            .voltages()
            .to_vec();
        let view = session
            .solve(&LoadCase::new(&s).backend(Backend::Pcg).params(pcg_params))
            .unwrap();
        assert!(view.converged());
        assert!(view.pillar_currents().is_empty(), "pcg computes none");
        let err = vp
            .iter()
            .zip(view.voltages())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 5e-4, "pcg vs voltprop drift {err} V");
    }

    #[test]
    fn a_failed_backend_build_is_kept_and_served_as_unavailable() {
        let s = stack();
        let core = SessionCore::build(&s, VpConfig::default()).unwrap();
        let bytes = core.memory_bytes();
        core.pcg
            .set(Err("PCG prefactor failed: not positive definite".into()))
            .unwrap();
        let mut session = Session::from_core(Arc::new(core));
        for _ in 0..2 {
            match session.solve(&LoadCase::new(&s).backend(Backend::Pcg)) {
                Err(SessionError::BackendUnavailable { backend, reason }) => {
                    assert_eq!(backend, Backend::Pcg);
                    assert!(reason.contains("not positive definite"));
                }
                other => panic!("expected BackendUnavailable, got {other:?}"),
            }
        }
        assert_eq!(session.core().memory_bytes(), bytes, "nothing was built");
        assert!(session.solve(&LoadCase::new(&s)).unwrap().converged());
        let rb = LoadCase::new(&s).backend(Backend::Rb3d);
        assert!(session.solve(&rb).unwrap().converged());
    }

    #[test]
    fn errors_display_and_source() {
        let e = SessionError::GeometryChanged {
            what: "10x10x3 vs 8x8x2".into(),
        };
        assert!(e.to_string().contains("geometry"));
        assert!(e.source().is_none());
        let e = SessionError::BackendUnavailable {
            backend: Backend::Pcg,
            reason: "prefactor failed: not positive definite".into(),
        };
        assert!(e.to_string().contains("unavailable"));
        assert!(e.to_string().contains("prefactor failed"));
        assert!(e.source().is_none());
        let e = SessionError::from(SolverError::Unsupported { what: "x".into() });
        assert!(e.source().is_some());
        let b = BuildError::from(SolverError::Unsupported { what: "y".into() });
        assert!(b.to_string().contains("cannot build"));
    }
}
