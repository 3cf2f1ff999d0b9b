//! The true transient engine: companion models, a prefactored waveform
//! stepper, and streaming waveform I/O.
//!
//! The static [`Session`] already embodies the paper's central asset —
//! factor the structure once, reuse it for every right-hand side. A
//! transient solve has exactly the same shape: discretizing
//! `G v + C v̇ = b(t)` with backward Euler or the trapezoidal rule turns
//! every step into a *static* solve of the companion system
//! `(G + α·diag(C)) v_{n+1} = b(t_{n+1}) + i_eq(v_n)` with a **fixed**
//! matrix (`α = 1/h` for BE, `2/h` for trapezoidal). The engine therefore
//! prefactors the companion system once per step size — companion-
//! augmented tier factors for [`Backend::VoltProp`], a companion
//! [`Rb3dEngine`] for [`Backend::Rb3d`], a companion-stamped system with
//! its IC(0) factor for [`Backend::Pcg`] — and reuses it across the whole
//! waveform; only a step-size (or integrator) change re-prefactors.
//!
//! Waveform I/O streams: a [`Waveform`] produces each step's load vector
//! into a session-owned staging buffer, and a [`TransientSink`] receives
//! each step's observed voltages as they are produced, so a million-step
//! run never materializes a million-lane load or voltage arena. Warm
//! steps perform **zero heap allocations** (measured by `perfsuite`).
//!
//! The integration state (`v_n`, and for the trapezoidal rule the
//! capacitor currents `i_c,n`) is reset at the start of every
//! [`Session::transient_dynamic`] call: each run starts from the
//! unloaded steady state (every node at the net's rail, capacitor
//! currents zero), which makes runs deterministic and reproducible —
//! rerunning the same waveform with the same step size is bitwise
//! identical.
//!
//! Every step after the first starts its solve from the previous step's
//! voltages `v_n`, which on a capacitive stack are nearly the answer: the
//! state moves little in one step. The [`Backend::Rb3d`] and
//! [`Backend::Pcg`] routes iterate on `v_n` itself; the
//! [`Backend::VoltProp`] route seeds its node image and its layer-0
//! pillar guesses from it, so a warm step takes one outer pass. On a
//! stack without capacitance the VoltProp route keeps the rail start:
//! each of its steps *is* the DC solve, and starting it like one keeps it
//! equal to [`Session::solve`] (a start from `v_n` would move the answer
//! within the solver tolerance).

use voltprop_grid::{loads::first_invalid, NetKind, Stack3d};
use voltprop_solvers::{PcgEngine, Rb3dEngine, SolverError, TierEngine};

use crate::session::{Backend, Session, SessionError};
use crate::solver::{run_lanes, single_report, CompanionRef};
use crate::{Deadline, SolveParams};

/// The implicit integration rule of a transient run — both fold the
/// capacitance into the prefactored companion matrix; they differ in the
/// companion coefficient `α` and the per-step history currents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Integrator {
    /// Backward Euler: `α = 1/h`, `i_eq = (C/h)·v_n`. First-order,
    /// L-stable (numerically damped) — the robust default.
    #[default]
    BackwardEuler,
    /// Trapezoidal rule in the capacitor-current companion form:
    /// `α = 2/h`, `i_eq = (2C/h)·v_n + i_c,n`, with the post-solve state
    /// update `i_c,n+1 = (2C/h)·(v_{n+1} − v_n) − i_c,n`. Second-order
    /// accurate; the standard SPICE default.
    Trapezoidal,
}

impl Integrator {
    /// The companion coefficient `α` (1/s) this rule folds into the
    /// conductance system for step size `h`.
    pub fn alpha(self, h: f64) -> f64 {
        match self {
            Integrator::BackwardEuler => 1.0 / h,
            Integrator::Trapezoidal => 2.0 / h,
        }
    }
}

/// A streaming source of per-step load vectors. The stepper calls
/// [`Waveform::sample`] once per step, in step order, with a preallocated
/// `num_nodes`-sized buffer to overwrite — the waveform never has to
/// materialize more than one step's loads.
///
/// Implementations must write finite, non-negative currents (amperes,
/// flat tier-major); the stepper validates each sample and rejects the
/// run otherwise.
pub trait Waveform {
    /// Number of steps this waveform spans.
    fn steps(&self) -> usize;

    /// Writes the load vector at `time` (the *end* of step `step`, i.e.
    /// `t_{n+1} = (step + 1)·h`) into `loads`. The buffer holds the
    /// previous step's sample (or zeros on the first step) — overwrite
    /// every entry.
    fn sample(&mut self, step: usize, time: f64, loads: &mut [f64]);
}

/// A closure-backed [`Waveform`]: `f(step, time, loads)` fills each
/// step's load vector.
///
/// ```
/// use voltprop_core::{FnWaveform, Waveform};
/// let mut w = FnWaveform::new(4, |_step, time, loads: &mut [f64]| {
///     loads.fill(if time > 1e-9 { 2e-4 } else { 1e-4 });
/// });
/// assert_eq!(w.steps(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FnWaveform<F> {
    steps: usize,
    f: F,
}

impl<F: FnMut(usize, f64, &mut [f64])> FnWaveform<F> {
    /// A waveform of `steps` samples produced by `f(step, time, loads)`.
    pub fn new(steps: usize, f: F) -> Self {
        FnWaveform { steps, f }
    }
}

impl<F: FnMut(usize, f64, &mut [f64])> Waveform for FnWaveform<F> {
    fn steps(&self) -> usize {
        self.steps
    }

    fn sample(&mut self, step: usize, time: f64, loads: &mut [f64]) {
        (self.f)(step, time, loads);
    }
}

/// An iterator-backed [`Waveform`]: a fixed spatial load pattern scaled
/// by one factor per step (the common "activity waveform" shape —
/// where the currents flow is fixed by the floorplan, how hard they draw
/// follows the workload).
#[derive(Debug, Clone)]
pub struct ScaledWaveform {
    base: Vec<f64>,
    scales: Vec<f64>,
}

impl ScaledWaveform {
    /// A waveform whose step-`n` loads are `base · scales[n]`; the scale
    /// iterator's length is the step count.
    pub fn new(base: Vec<f64>, scales: impl IntoIterator<Item = f64>) -> Self {
        ScaledWaveform {
            base,
            scales: scales.into_iter().collect(),
        }
    }
}

impl Waveform for ScaledWaveform {
    fn steps(&self) -> usize {
        self.scales.len()
    }

    fn sample(&mut self, step: usize, _time: f64, loads: &mut [f64]) {
        let s = self.scales[step];
        for (l, b) in loads.iter_mut().zip(&self.base) {
            *l = s * b;
        }
    }
}

/// A piecewise-linear ramp [`Waveform`]: a fixed spatial load pattern
/// scaled by a PWL envelope over time — `(time, scale)` breakpoints with
/// linear interpolation between them, clamped to the first/last scale
/// outside them (a SPICE `PWL` source driving every load at once).
///
/// ```
/// use voltprop_core::{PwlWaveform, Waveform};
/// // 0 → full load over the first nanosecond, hold for nine more.
/// let mut w = PwlWaveform::new(vec![1e-4; 64], 100, 1e-10)
///     .breakpoint(0.0, 0.0)
///     .breakpoint(1e-9, 1.0);
/// assert_eq!(w.steps(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct PwlWaveform {
    base: Vec<f64>,
    steps: usize,
    points: Vec<(f64, f64)>,
}

impl PwlWaveform {
    /// A `steps`-step ramp over the spatial pattern `base`. `_h` is
    /// unused (sampling receives absolute times) and kept for
    /// self-documenting call sites. With no breakpoints the scale is 1.
    pub fn new(base: Vec<f64>, steps: usize, _h: f64) -> Self {
        PwlWaveform {
            base,
            steps,
            points: Vec::new(),
        }
    }

    /// Appends a `(time, scale)` breakpoint.
    ///
    /// # Panics
    ///
    /// If `time` is below the previous breakpoint's time (breakpoints
    /// must be added in non-decreasing time order).
    pub fn breakpoint(mut self, time: f64, scale: f64) -> Self {
        if let Some(&(prev, _)) = self.points.last() {
            assert!(
                time >= prev,
                "PWL breakpoints must be in non-decreasing time order ({time} < {prev})"
            );
        }
        self.points.push((time, scale));
        self
    }

    fn scale_at(&self, t: f64) -> f64 {
        match self.points.as_slice() {
            [] => 1.0,
            [(t0, s0), ..] if t <= *t0 => *s0,
            points => {
                let (tn, sn) = points[points.len() - 1];
                if t >= tn {
                    return sn;
                }
                let i = points.partition_point(|&(tp, _)| tp <= t);
                let (ta, sa) = points[i - 1];
                let (tb, sb) = points[i];
                if tb == ta {
                    sb
                } else {
                    sa + (sb - sa) * (t - ta) / (tb - ta)
                }
            }
        }
    }
}

impl Waveform for PwlWaveform {
    fn steps(&self) -> usize {
        self.steps
    }

    fn sample(&mut self, _step: usize, time: f64, loads: &mut [f64]) {
        let s = self.scale_at(time);
        for (l, b) in loads.iter_mut().zip(&self.base) {
            *l = s * b;
        }
    }
}

/// A streaming consumer of per-step results: [`TransientSink::record`]
/// is called once per step, in step order, with the observed voltages
/// (the [`TransientParams::observe`] nodes, or every node when no
/// observation set was given). The slice is only valid for the duration
/// of the call — copy what must outlive it.
///
/// Any `FnMut(usize, f64, &[f64])` closure is a sink.
pub trait TransientSink {
    /// Consumes step `step`'s solution at `time` (`(step + 1)·h`).
    fn record(&mut self, step: usize, time: f64, observed: &[f64]);
}

impl<F: FnMut(usize, f64, &[f64])> TransientSink for F {
    fn record(&mut self, step: usize, time: f64, observed: &[f64]) {
        self(step, time, observed);
    }
}

/// A preallocating in-memory [`TransientSink`]: records every step's
/// time and observed voltages into buffers sized up front, so recording
/// inside a warm step loop performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    times: Vec<f64>,
    values: Vec<f64>,
    width: usize,
}

impl TraceSink {
    /// A sink with room for `steps` records of `width` observed nodes
    /// each (allocate before the run; recording then never reallocates
    /// as long as the capacity holds).
    pub fn with_capacity(steps: usize, width: usize) -> Self {
        TraceSink {
            times: Vec::with_capacity(steps),
            values: Vec::with_capacity(steps * width),
            width,
        }
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The recorded step times, in step order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Step `step`'s recorded observed voltages.
    ///
    /// # Panics
    ///
    /// If `step >= self.len()`.
    pub fn step_values(&self, step: usize) -> &[f64] {
        &self.values[step * self.width..(step + 1) * self.width]
    }

    /// All recorded values, step-major (`len · width`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Forgets all records, keeping the allocations.
    pub fn clear(&mut self) {
        self.times.clear();
        self.values.clear();
    }
}

impl TransientSink for TraceSink {
    fn record(&mut self, _step: usize, time: f64, observed: &[f64]) {
        debug_assert!(self.width == 0 || observed.len() == self.width);
        self.times.push(time);
        self.values.extend_from_slice(observed);
    }
}

/// The per-run request of [`Session::transient_dynamic`]: the stack
/// (geometry + capacitances), the step size, and the knobs that may vary
/// between runs on one session.
#[derive(Debug, Clone, Copy)]
pub struct TransientParams<'a> {
    pub(crate) stack: &'a Stack3d,
    pub(crate) h: f64,
    pub(crate) integrator: Integrator,
    pub(crate) net: NetKind,
    pub(crate) backend: Backend,
    pub(crate) params: Option<SolveParams>,
    pub(crate) deadline: Deadline,
    pub(crate) observe: Option<&'a [usize]>,
    pub(crate) refactor_each_step: bool,
}

impl<'a> TransientParams<'a> {
    /// A power-net backward-Euler run at step size `h` (seconds) on the
    /// session's default backend and parameters, observing every node,
    /// with no deadline.
    pub fn new(stack: &'a Stack3d, h: f64) -> Self {
        TransientParams {
            stack,
            h,
            integrator: Integrator::BackwardEuler,
            net: NetKind::Power,
            backend: Backend::VoltProp,
            params: None,
            deadline: Deadline::NONE,
            observe: None,
            refactor_each_step: false,
        }
    }

    /// Selects the integration rule.
    pub fn integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Selects the net to analyse.
    pub fn net(mut self, net: NetKind) -> Self {
        self.net = net;
        self
    }

    /// Routes the run through a specific [`Backend`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the session's default per-solve parameters for this run.
    pub fn params(mut self, params: SolveParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Attaches a wall-clock [`Deadline`]: checked before every step, and
    /// exceeded mid-waveform it aborts the run with
    /// [`SolverError::DeadlineExceeded`] whose `iterations` field carries
    /// the step index the run stopped at.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Restricts what the sink receives to these flat node indices (in
    /// the given order). Without this, every step streams all
    /// `num_nodes` voltages.
    pub fn observe(mut self, nodes: &'a [usize]) -> Self {
        self.observe = Some(nodes);
        self
    }

    /// Benchmark knob: tear down and rebuild the companion prefactor on
    /// **every** step instead of reusing it, to measure what the
    /// factor-reuse contract is worth (`perfsuite` reports the ratio).
    /// Results are identical; only the cost changes.
    pub fn refactor_each_step(mut self, on: bool) -> Self {
        self.refactor_each_step = on;
        self
    }

    /// The step size `h` (seconds).
    pub fn step_size(&self) -> f64 {
        self.h
    }

    /// The stack this run reads geometry, capacitances, and (for
    /// waveforms that don't override them) loads from.
    pub fn stack(&self) -> &'a Stack3d {
        self.stack
    }
}

/// What a [`Session::transient_dynamic`] run did: how many steps ran,
/// how often the companion system was (re)prefactored, and the summed
/// solver effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct TransientReport {
    /// Steps completed (the waveform's step count on success).
    pub steps: usize,
    /// Companion prefactor builds performed during this call: 0 on a
    /// warm run at an unchanged step size/integrator/backend, 1 after a
    /// step-size change (or on the backend's first run), `steps` with
    /// [`TransientParams::refactor_each_step`].
    pub refactors: usize,
    /// Summed solver iterations across all steps (inner sweeps for
    /// [`Backend::VoltProp`]/[`Backend::Rb3d`], CG iterations for
    /// [`Backend::Pcg`]).
    pub solver_iterations: usize,
    /// Estimated heap footprint of the transient state (companion
    /// factors plus integration buffers).
    pub workspace_bytes: usize,
}

/// The session-cached transient state: the companion prefactors for the
/// current `(α, capacitances)` and the integration buffers. Built on the
/// first [`Session::transient_dynamic`] call, rebuilt only when the step
/// size, integrator, or capacitance map changes — warm runs at an
/// unchanged step size reuse everything and allocate nothing.
#[derive(Debug)]
pub(crate) struct TransientState {
    alpha: f64,
    /// Snapshot of the capacitance map the prefactors were built for
    /// (empty for a purely resistive stack).
    caps: Vec<f64>,
    /// `α·C` per node — the companion conductances (siemens).
    alpha_c: Vec<f64>,
    /// Companion tier factors for the VoltProp route (lazily built).
    vp_tiers: Option<Vec<TierEngine>>,
    /// Companion Rb3d engine (lazily built).
    rb: Option<Rb3dEngine>,
    /// Companion PCG engine (lazily built).
    pcg: Option<PcgEngine>,
    /// The integration state `v_n` (reset to the rail each run), and the
    /// start of the next step's solve.
    v: Vec<f64>,
    /// `v_{n-1}` staging for the trapezoidal current update.
    v_prev: Vec<f64>,
    /// Trapezoidal capacitor currents `i_c,n` (zeros for BE).
    ic: Vec<f64>,
    /// Companion currents `i_eq` staged per step.
    source: Vec<f64>,
    /// Waveform staging buffer (one step's loads).
    loads: Vec<f64>,
    /// Observation staging buffer (`observe.len()` entries).
    observed: Vec<f64>,
}

impl TransientState {
    fn new(nn: usize) -> Self {
        TransientState {
            alpha: f64::NAN,
            caps: Vec::new(),
            alpha_c: vec![0.0; nn],
            vp_tiers: None,
            rb: None,
            pcg: None,
            v: vec![0.0; nn],
            v_prev: vec![0.0; nn],
            ic: vec![0.0; nn],
            source: vec![0.0; nn],
            loads: vec![0.0; nn],
            observed: Vec::new(),
        }
    }

    /// Whether the cached prefactors serve this `(α, capacitances)`.
    fn matches(&self, alpha: f64, caps: Option<&[f64]>) -> bool {
        self.alpha == alpha && caps.unwrap_or(&[]) == &self.caps[..]
    }

    /// Drops the prefactors and rebinds the companion diagonal to a new
    /// `(α, capacitances)`; engines rebuild lazily per backend.
    fn rebind(&mut self, alpha: f64, caps: Option<&[f64]>) {
        self.alpha = alpha;
        self.caps.clear();
        self.caps.extend_from_slice(caps.unwrap_or(&[]));
        if self.caps.is_empty() {
            self.alpha_c.fill(0.0);
        } else {
            for (ac, &c) in self.alpha_c.iter_mut().zip(&self.caps) {
                *ac = alpha * c;
            }
        }
        self.vp_tiers = None;
        self.rb = None;
        self.pcg = None;
    }

    fn memory_bytes(&self) -> usize {
        (self.caps.len()
            + self.alpha_c.len()
            + self.v.len()
            + self.v_prev.len()
            + self.ic.len()
            + self.source.len()
            + self.loads.len()
            + self.observed.len())
            * 8
            + self
                .vp_tiers
                .as_ref()
                .map_or(0, |ts| ts.iter().map(TierEngine::memory_bytes).sum())
            + self.rb.as_ref().map_or(0, Rb3dEngine::memory_bytes)
            + self.pcg.as_ref().map_or(0, PcgEngine::memory_bytes)
    }
}

impl Session {
    /// Runs a true transient analysis: `G v + C v̇ = b(t)` stepped with
    /// the request's [`Integrator`], the companion system
    /// `G + α·diag(C)` prefactored **once** and reused across the whole
    /// waveform (re-prefactored only when the step size, integrator, or
    /// capacitance map changes between calls — the [`TransientReport`]
    /// counts the rebuilds). Each step draws its loads from the
    /// [`Waveform`] and streams its observed voltages into the
    /// [`TransientSink`]; nothing step-count-sized is ever allocated, and
    /// warm steps perform zero heap allocations.
    ///
    /// The run starts from the unloaded steady state — every node at the
    /// net's rail, capacitor currents zero — so identical runs are
    /// bitwise reproducible. Each later step's solve starts from the
    /// previous step's voltages, which on a capacitive stack are already
    /// close to its answer (a warm VoltProp step takes one outer pass). A
    /// stack without capacitance degenerates to quasi-static per-step
    /// solves (`α·C = 0`); VoltProp starts each from the rail, like the DC
    /// solve it equals.
    ///
    /// # Errors
    ///
    /// * [`SessionError::GeometryChanged`] if the stack differs
    ///   geometrically from the build-time stack.
    /// * [`SessionError::BackendUnavailable`] /
    ///   [`SessionError::Solver`] as [`Session::solve`]; additionally
    ///   [`SolverError::Unsupported`] for a non-finite or non-positive
    ///   step size, an out-of-range observation index, or a waveform
    ///   sample with negative/non-finite currents, and
    ///   [`SolverError::DeadlineExceeded`] (carrying the step index) if
    ///   the request deadline passes mid-waveform.
    pub fn transient_dynamic<W, S>(
        &mut self,
        waveform: &mut W,
        sink: &mut S,
        request: &TransientParams<'_>,
    ) -> Result<TransientReport, SessionError>
    where
        W: Waveform + ?Sized,
        S: TransientSink + ?Sized,
    {
        let core = std::sync::Arc::clone(&self.core);
        let nn = core.num_nodes();
        core.check_geometry(request.stack)?;
        request.stack.validate().map_err(SolverError::from)?;
        if !(request.h.is_finite() && request.h > 0.0) {
            return Err(SolverError::Unsupported {
                what: format!(
                    "transient step size must be finite and positive (got {} s)",
                    request.h
                ),
            }
            .into());
        }
        if let Some(nodes) = request.observe {
            if let Some(&bad) = nodes.iter().find(|&&n| n >= nn) {
                return Err(SolverError::Unsupported {
                    what: format!("observation node {bad} out of range ({nn} nodes)"),
                }
                .into());
            }
        }

        let h = request.h;
        let alpha = request.integrator.alpha(h);
        let caps = request.stack.capacitances();
        let params = request.params.unwrap_or(core.defaults());
        let parallelism = core.build_params().parallelism.max(1);
        let rail = match request.net {
            NetKind::Power => request.stack.vdd(),
            NetKind::Ground => 0.0,
        };

        if self.dynamic.is_none() {
            self.dynamic = Some(Box::new(TransientState::new(nn)));
        }
        let state = self.dynamic.as_mut().expect("just ensured");
        let mut refactors = 0usize;
        if !state.matches(alpha, caps) {
            state.rebind(alpha, caps);
        }

        // Initial condition: the unloaded steady state of the net.
        state.v.fill(rail);
        state.v_prev.fill(rail);
        state.ic.fill(0.0);
        state.source.fill(0.0);
        if let Some(nodes) = request.observe {
            state.observed.resize(nodes.len(), 0.0);
        }

        let trapezoidal = request.integrator == Integrator::Trapezoidal;
        let steps = waveform.steps();
        let mut solver_iterations = 0usize;
        for step in 0..steps {
            // The request deadline cancels mid-waveform; the typed error
            // carries the step index the run stopped at.
            request.deadline.check(step).map_err(remap_step(step))?;
            let time = (step as f64 + 1.0) * h;
            waveform.sample(step, time, &mut state.loads);
            validate_sample(step, &state.loads)?;

            if request.refactor_each_step {
                // Bench knob: pay the prefactor on every step.
                state.vp_tiers = None;
                state.rb = None;
                state.pcg = None;
            }

            if trapezoidal && step == 0 {
                // Self-starting startup: the trapezoidal rule assumes
                // `v̇` is continuous across the step, which a load
                // discontinuity at t = 0 (the usual step waveform)
                // violates — naive trap startup carries an O(h) error.
                // A backward-Euler step of size h/2 has companion
                // coefficient 1/(h/2) = 2/h — the *same* prefactored
                // matrix as the trapezoidal rule — so the first step is
                // taken as two L-stable BE half-steps on the shared
                // factor, and `i_c(h) = α·C·(v(h) − v(h/2))` seeds the
                // capacitor-current recursion. One extra solve, second
                // order preserved, no extra factorization.
                for i in 0..nn {
                    state.source[i] = state.alpha_c[i] * state.v[i];
                }
                solve_companion_step(
                    &mut self.scratch,
                    state,
                    request,
                    &params,
                    alpha,
                    parallelism,
                    &mut refactors,
                    &mut solver_iterations,
                )?;
                state.v_prev.copy_from_slice(&state.v);
                for i in 0..nn {
                    state.source[i] = state.alpha_c[i] * state.v[i];
                }
                solve_companion_step(
                    &mut self.scratch,
                    state,
                    request,
                    &params,
                    alpha,
                    parallelism,
                    &mut refactors,
                    &mut solver_iterations,
                )?;
                for i in 0..nn {
                    state.ic[i] = state.alpha_c[i] * (state.v[i] - state.v_prev[i]);
                }
            } else {
                // Companion currents from the previous state: i_eq =
                // α·C·v_n (+ i_c,n for trapezoidal), absolute sign.
                if trapezoidal {
                    for i in 0..nn {
                        state.source[i] = state.alpha_c[i] * state.v[i] + state.ic[i];
                    }
                    state.v_prev.copy_from_slice(&state.v);
                } else {
                    for i in 0..nn {
                        state.source[i] = state.alpha_c[i] * state.v[i];
                    }
                }
                solve_companion_step(
                    &mut self.scratch,
                    state,
                    request,
                    &params,
                    alpha,
                    parallelism,
                    &mut refactors,
                    &mut solver_iterations,
                )?;
                if trapezoidal {
                    // i_c,n+1 = α·C·(v_{n+1} − v_n) − i_c,n.
                    for i in 0..nn {
                        state.ic[i] =
                            state.alpha_c[i] * (state.v[i] - state.v_prev[i]) - state.ic[i];
                    }
                }
            }

            match request.observe {
                Some(nodes) => {
                    for (o, &n) in state.observed.iter_mut().zip(nodes) {
                        *o = state.v[n];
                    }
                    sink.record(step, time, &state.observed);
                }
                None => sink.record(step, time, &state.v),
            }
        }

        Ok(TransientReport {
            steps,
            refactors,
            solver_iterations,
            workspace_bytes: state.memory_bytes(),
        })
    }
}

/// One companion solve: `(G + α·diag(C)) v = b(loads) + source`, routed
/// through the request's backend, lazily building (and counting) that
/// backend's companion prefactor. Reads `state.loads`/`state.source`,
/// leaves the solution in `state.v`.
#[allow(clippy::too_many_arguments)] // internal fan-in of the step loop
fn solve_companion_step(
    scratch: &mut crate::session::SolveScratch,
    state: &mut TransientState,
    request: &TransientParams<'_>,
    params: &SolveParams,
    alpha: f64,
    parallelism: usize,
    refactors: &mut usize,
    solver_iterations: &mut usize,
) -> Result<(), SessionError> {
    match request.backend {
        Backend::VoltProp => {
            if state.vp_tiers.is_none() {
                state.vp_tiers = Some(
                    scratch
                        .vp
                        .build_companion_tiers(&state.alpha_c, parallelism)?,
                );
                *refactors += 1;
            }
            let tiers = state.vp_tiers.as_mut().expect("just ensured");
            // One lane through the outer loop; the waveform sample was
            // validated when it was drawn. With capacitance the solve
            // starts from v_n; a resistive step is the DC solve and
            // starts from the rail like one.
            run_lanes(
                params,
                request.net,
                &state.loads,
                1,
                &mut scratch.vp,
                Some(CompanionRef {
                    tiers,
                    alpha_c: &state.alpha_c,
                    source: &state.source,
                    v_n: (!state.caps.is_empty()).then_some(&state.v[..]),
                }),
                Deadline::NONE,
            )?;
            let report = single_report(params, &scratch.vp)?;
            *solver_iterations += report.inner_sweeps;
            state.v.copy_from_slice(scratch.vp.voltages());
        }
        Backend::Rb3d => {
            if state.rb.is_none() {
                state.rb = Some(Rb3dEngine::build_companion(
                    request.stack,
                    parallelism,
                    alpha,
                )?);
                *refactors += 1;
            }
            let rb = state.rb.as_mut().expect("just ensured");
            // Warm-started from v_n — the natural transient guess.
            let rep = rb.solve_with_source(
                &state.loads,
                request.net,
                &state.source,
                params.sor_omega,
                params.inner_tolerance,
                params.max_inner_sweeps,
                &mut state.v,
            )?;
            *solver_iterations += rep.iterations;
        }
        Backend::Pcg => {
            if state.pcg.is_none() {
                state.pcg = Some(PcgEngine::build_companion(request.stack, alpha)?);
                *refactors += 1;
            }
            let pcg = state.pcg.as_mut().expect("just ensured");
            let rep = pcg.solve_with_source(
                &state.loads,
                request.net,
                &state.source,
                params.inner_tolerance,
                params.max_inner_sweeps,
                &mut state.v,
            )?;
            *solver_iterations += rep.iterations;
        }
    }
    Ok(())
}

/// Rewrites a [`SolverError::DeadlineExceeded`] surfaced at the top of a
/// step so its `iterations` field carries the *step index* (the
/// per-step loop is the transient route's cooperative cancellation
/// point).
fn remap_step(step: usize) -> impl FnOnce(SolverError) -> SessionError {
    move |e| match e {
        SolverError::DeadlineExceeded { .. } => {
            SessionError::Solver(SolverError::DeadlineExceeded { iterations: step })
        }
        other => SessionError::Solver(other),
    }
}

/// Rejects a waveform sample containing negative or non-finite currents.
fn validate_sample(step: usize, loads: &[f64]) -> Result<(), SessionError> {
    if let Some(i) = first_invalid(loads) {
        return Err(SolverError::Unsupported {
            what: format!(
                "waveform step {step} produced load {} A at node {i}; \
                 loads must be finite, non-negative currents",
                loads[i]
            ),
        }
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VpConfig;

    #[test]
    fn pwl_scale_interpolates_and_clamps() {
        let w = PwlWaveform::new(vec![1.0], 10, 1e-9)
            .breakpoint(1.0, 0.0)
            .breakpoint(3.0, 1.0)
            .breakpoint(5.0, 0.5);
        assert_eq!(w.scale_at(0.0), 0.0);
        assert_eq!(w.scale_at(2.0), 0.5);
        assert_eq!(w.scale_at(4.0), 0.75);
        assert_eq!(w.scale_at(9.0), 0.5);
        let empty = PwlWaveform::new(vec![1.0], 3, 1e-9);
        assert_eq!(empty.scale_at(42.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn pwl_rejects_unsorted_breakpoints() {
        let _ = PwlWaveform::new(vec![1.0], 3, 1e-9)
            .breakpoint(2.0, 1.0)
            .breakpoint(1.0, 0.0);
    }

    #[test]
    fn scaled_waveform_samples() {
        let mut w = ScaledWaveform::new(vec![2.0, 3.0], [0.5, 1.0]);
        assert_eq!(w.steps(), 2);
        let mut buf = [0.0; 2];
        w.sample(0, 1e-9, &mut buf);
        assert_eq!(buf, [1.0, 1.5]);
    }

    #[test]
    fn trace_sink_records_without_reallocating() {
        let mut sink = TraceSink::with_capacity(4, 2);
        let cap_t = sink.times.capacity();
        let cap_v = sink.values.capacity();
        for s in 0..4 {
            sink.record(s, (s + 1) as f64, &[1.0, 2.0]);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.step_values(3), &[1.0, 2.0]);
        assert_eq!(sink.times.capacity(), cap_t);
        assert_eq!(sink.values.capacity(), cap_v);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.values.capacity(), cap_v);
    }

    #[test]
    fn bad_step_size_and_observation_are_typed_errors() {
        let stack = Stack3d::builder(8, 8, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let mut session = Session::build(&stack, VpConfig::default()).unwrap();
        let mut w = FnWaveform::new(1, |_, _, l: &mut [f64]| l.fill(1e-4));
        let mut sink = |_: usize, _: f64, _: &[f64]| {};
        for bad in [0.0, -1e-9, f64::NAN] {
            let err = session
                .transient_dynamic(&mut w, &mut sink, &TransientParams::new(&stack, bad))
                .unwrap_err();
            assert!(matches!(
                err,
                SessionError::Solver(SolverError::Unsupported { .. })
            ));
        }
        let far = [stack.num_nodes()];
        let err = session
            .transient_dynamic(
                &mut w,
                &mut sink,
                &TransientParams::new(&stack, 1e-10).observe(&far),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Solver(SolverError::Unsupported { .. })
        ));
    }
}
