use std::sync::Arc;

use crate::anderson::Anderson;
use crate::lattice::PillarLattice;
use crate::tier_cache::{shares_earlier_tier, tier_engines};
use crate::{VpConfig, VpReport};
use voltprop_grid::{loads::first_invalid, NetKind, Stack3d};
use voltprop_solvers::{LaneReport, SolverError, StackSolution, StackSolver, TierEngine};

/// The 3-D voltage propagation solver (see the [crate docs](crate) for the
/// algorithm).
///
/// The solver is *matrix-free*: it walks the structured [`Stack3d`]
/// directly, pinning TSV terminals tier by tier and solving each tier with
/// row-based sweeps. Requirements on the model (checked, returning
/// [`SolverError::Unsupported`] otherwise):
///
/// * power must be delivered through the pillars: on multi-tier stacks
///   every pad must sit on a TSV site. Pillars *without* pads are fine —
///   their top terminals are treated as free nodes fed by the accumulated
///   pillar current, and their propagation mismatch joins the VDA feedback
///   (this covers the sparse C4-bump layouts of the IBM-derived
///   benchmarks);
/// * single-tier stacks are solved directly with pinned pads (the 2-D
///   row-based special case).
///
/// With `config.parallelism > 1` the inner tier solves run red-black row
/// sweeps across that many threads (deterministic in the thread count);
/// `1` keeps the paper's sequential schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct VpSolver {
    /// Tuning parameters.
    pub config: VpConfig,
}

/// Reusable solve state: prefactored tier engines, the pillar lattice, and
/// the one outer-loop arena.
///
/// [`VpScratch::new`] factors the frozen half (tier engines, lattice,
/// geometry) and leaves every per-solve buffer unsized, so a scratch that
/// is only forked from — a session core's template — costs its frozen
/// half alone; [`VpScratch::fork`] shares that half and brings a one-lane
/// arena. The first solve sizes what is still missing; after it the
/// outer loop ([`run_lanes`], wrapped by [`run_single`] and
/// [`run_batch`]) runs the entire iteration — tier sweeps,
/// pillar-current accumulation, VDA distribution, Anderson mixing —
/// without touching the heap for any lane count up to the widest it has
/// served.
/// That holds with sparse pads too: the VDA distribution's coarse
/// lattice solve runs on an engine prefactored here (see
/// [`PillarLattice`]), and on the persistent worker pool once it is
/// warm. This is internal state: a [`Session`](crate::Session)'s core
/// keeps one as the frozen template, and each of its scratches serves
/// requests from a fork.
///
/// A scratch is tied to the stack's *geometry* (footprint, tiers,
/// resistances, TSV and pad sites) and the config's `parallelism`; loads
/// and tolerances may change freely between solves.
#[derive(Debug)]
pub(crate) struct VpScratch {
    width: usize,
    height: usize,
    tiers: usize,
    vdd: f64,
    r_tsv: f64,
    r_pad: f64,
    /// Per-tier `(g_h, g_v)` used to detect resistance changes.
    tier_g: Arc<[(f64, f64)]>,
    /// Flat (row-major) index of every pillar site. Empty for single-tier.
    site_flat: Arc<[usize]>,
    is_pad_site: Arc<[bool]>,
    /// Shared pin mask: pillar terminals (multi-tier) or pads
    /// (single-tier). One allocation serves every tier engine.
    fixed: Arc<[bool]>,
    lattice: Option<PillarLattice>,
    /// One prefactored engine per tier: every row segment is factored
    /// once here, so each sweep is pure substitution with zero heap
    /// allocation. Tiers with equal conductances share one set of
    /// factors. At `parallelism > 1` each sweeps `parallelism` row bands
    /// (at most one a row) on the persistent worker pool.
    engines: Vec<TierEngine>,
    /// Error amplification factor baked from the geometry (see
    /// [`VpScratch::new`]); scales the inner tolerance.
    amplification: f64,
    /// The outer-loop state of every lane: empty in a new scratch, one
    /// lane in a fork, grown by wider requests, never shrunk.
    arena: LaneArena,
}

/// The one outer-loop arena: every buffer the lockstep loop over `k`
/// lanes needs, sized for the widest request served so far. A `k`-lane
/// solve uses the first `k` lanes of every buffer, so warm solves of any
/// lane count seen before — single solves and batches alternating
/// included — perform no heap allocation (on every `parallelism` once
/// the persistent worker pool is warm).
///
/// The sweep-facing buffers (`v`, `injection`) are node-major/lane-minor
/// (lane `j` of flat node `i` at `i * k + j`) — the layout the batched
/// engines consume; the per-pillar outer-loop state is lane-major (lane
/// `j`'s `ns` pillar values contiguous at `j * ns`), matching the
/// per-lane VDA and Anderson operations. At `k = 1` both layouts are the
/// plain vectors.
#[derive(Debug, Default)]
struct LaneArena {
    /// Lane count of the most recent solve.
    k: usize,
    /// Node-major voltage image, `per · tiers · k` used. At `k = 1` this
    /// is the solution itself.
    v: Vec<f64>,
    /// Node-major per-tier injection staging, `per · k` used.
    injection: Vec<f64>,
    /// Lane-major solved voltages of a `k > 1` solve (the public view);
    /// empty until the first such solve.
    voltages: Vec<f64>,
    /// Per-lane tier-solve reports (scratch for the inner batch calls).
    lanes: Vec<LaneReport>,
    /// Outer-level lane mask: `true` while a lane still iterates.
    mask: Vec<bool>,
    /// Lane-major pillar guesses and feedback state, `ns · k` used each.
    v0: Vec<f64>,
    pillar_current: Vec<f64>,
    mismatch: Vec<f64>,
    correction: Vec<f64>,
    last_good_v0: Vec<f64>,
    last_good_correction: Vec<f64>,
    /// One Anderson mixing history per lane.
    anderson: Vec<Anderson>,
    /// Per-lane outer-loop scalar state.
    state: Vec<LaneOuterState>,
}

/// The scalar outer-loop state of one lane.
#[derive(Debug, Clone)]
struct LaneOuterState {
    vda: crate::VdaController,
    plain_mode: bool,
    stable_scale: f64,
    best_worst: f64,
    since_improvement: usize,
    worst: f64,
    inner_sweeps: usize,
    /// `Some((outer_iterations, converged))` once the lane finished.
    outcome: Option<(usize, bool)>,
    /// The sweep count of the tier solve that exhausted its budget, if
    /// one did: a single solve reports it as `DidNotConverge` at the
    /// inner tolerance, a batch as `converged = false`.
    tier_stall: Option<usize>,
}

impl LaneOuterState {
    fn new(damping: f64) -> Self {
        LaneOuterState {
            vda: crate::VdaController::new(damping),
            plain_mode: true,
            stable_scale: damping,
            best_worst: f64::INFINITY,
            since_improvement: 0,
            worst: f64::INFINITY,
            inner_sweeps: 0,
            outcome: None,
            tier_stall: None,
        }
    }
}

impl LaneArena {
    /// A one-lane arena: what every scratch starts with.
    fn new(nodes: usize, per: usize, ns: usize) -> Self {
        let mut arena = LaneArena {
            k: 1,
            ..LaneArena::default()
        };
        arena.ensure(1, nodes, per, ns);
        arena
    }

    /// Grows every buffer to `k` lanes as fresh zeroed allocations (solves
    /// rewrite what they read); a no-op with room. Lane-major voltages
    /// exist only for `k > 1`: a one-lane solve reads its answer off `v`.
    fn ensure(&mut self, k: usize, nodes: usize, per: usize, ns: usize) {
        if k > 1 && self.voltages.len() < nodes * k {
            self.voltages = vec![0.0; nodes * k];
        }
        if k <= self.mask.len() {
            return;
        }
        self.v = vec![0.0; nodes * k];
        self.injection = vec![0.0; per * k];
        self.lanes.resize(k, LaneReport::default());
        self.mask.resize(k, true);
        for buf in [
            &mut self.v0,
            &mut self.pillar_current,
            &mut self.mismatch,
            &mut self.correction,
            &mut self.last_good_v0,
            &mut self.last_good_correction,
        ] {
            *buf = vec![0.0; ns * k];
        }
        self.anderson.resize_with(k, || Anderson::new(4, ns));
        self.state.resize(k, LaneOuterState::new(1.0));
    }

    /// Rewinds the first `k` lanes to the start-of-solve state (no
    /// allocation; called at the top of each solve).
    fn reset(&mut self, k: usize, damping: f64) {
        self.k = k;
        self.lanes[..k].fill(LaneReport::default());
        self.mask[..k].fill(true);
        for a in &mut self.anderson[..k] {
            a.reset();
        }
        self.state[..k].fill(LaneOuterState::new(damping));
    }

    /// Estimated heap footprint in bytes.
    fn memory_bytes(&self) -> usize {
        (self.v.len()
            + self.injection.len()
            + self.voltages.len()
            + self.v0.len()
            + self.pillar_current.len()
            + self.mismatch.len()
            + self.correction.len()
            + self.last_good_v0.len()
            + self.last_good_correction.len())
            * 8
            + self.mask.len()
            + self.lanes.len() * std::mem::size_of::<LaneReport>()
            + self.state.len() * std::mem::size_of::<LaneOuterState>()
            + self
                .anderson
                .iter()
                .map(Anderson::memory_bytes)
                .sum::<usize>()
    }
}

impl VpScratch {
    /// Validates the stack for voltage propagation and factors the frozen
    /// half (tier engines, lattice); the first solve sizes the arena.
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] if pads don't sit on the pillars, a
    /// single-tier stack has resistive pads, or the grid fails validation.
    pub fn new(stack: &Stack3d, config: &VpConfig) -> Result<Self, SolverError> {
        stack.validate()?;
        let (w, h, tiers) = (stack.width(), stack.height(), stack.tiers());
        let per = w * h;
        let parallelism = config.parallelism.max(1);
        let tier_g: Vec<(f64, f64)> = (0..tiers)
            .map(|t| (1.0 / stack.r_horizontal(t), 1.0 / stack.r_vertical(t)))
            .collect();

        // Single-tier stacks pin their pads (the planar special case).
        // Multi-tier stacks pin every pillar terminal on every tier —
        // this keeps the row-based inner solves in their fast
        // densely-pinned regime. Pad-less pillars are closed by the VDA
        // instead: their accumulated excess current is redistributed
        // over the pillar lattice (see `PillarLattice`). The mask is
        // identical on every tier, so all tier engines share one
        // allocation.
        let mut fixed = vec![false; per];
        let (site_flat, is_pad_site) = if tiers == 1 {
            if stack.pad_resistance() != 0.0 {
                return Err(SolverError::Unsupported {
                    what: "single-tier voltage propagation requires ideal pads \
                           (use Rb3d or PCG for resistive pads)"
                        .into(),
                });
            }
            for (x, y) in stack.pad_sites() {
                fixed[y as usize * w + x as usize] = true;
            }
            (Vec::new(), Vec::new())
        } else {
            // Package power enters through the pillars: every pad must
            // sit on a pillar. Pillars *without* pads are allowed — their
            // top terminals are free nodes fed by the accumulated pillar
            // current (the sparse C4-bump topology of the IBM-derived
            // benchmarks).
            let sites = stack.tsv_sites();
            let is_pad_site: Vec<bool> = sites
                .iter()
                .map(|&(x, y)| stack.is_pad(x as usize, y as usize))
                .collect();
            let num_pad_sites = is_pad_site.iter().filter(|&&p| p).count();
            if stack.num_pads() != num_pad_sites {
                return Err(SolverError::Unsupported {
                    what: "pads exist away from TSV pillars; voltage propagation \
                           requires package power to enter through the pillars"
                        .into(),
                });
            }
            if num_pad_sites == 0 {
                return Err(SolverError::Unsupported {
                    what: "no pillar carries a pad; the stack has no voltage reference".into(),
                });
            }
            let site_flat: Vec<usize> = sites
                .iter()
                .map(|&(x, y)| y as usize * w + x as usize)
                .collect();
            for &s in &site_flat {
                fixed[s] = true;
            }
            (site_flat, is_pad_site)
        };
        let fixed: Arc<[bool]> = fixed.into();
        let engines = tier_engines(w, h, &tier_g, &fixed, None, parallelism)?;
        let lattice = if tiers == 1 {
            None
        } else {
            Some(PillarLattice::build(
                stack,
                stack.tsv_sites(),
                &is_pad_site,
                parallelism,
            )?)
        };

        // Tier-solve errors are amplified into the propagated pad voltages
        // by roughly `1 + R_TSV · G_local · (tiers-1) · C` — each volt of
        // tier error perturbs a pillar's current by G_local, every TSV
        // segment adds R·ΔI, and a contiguous cluster of C pinned sites
        // accumulates its members' current errors. The inner tolerance is
        // tightened by this factor so the measured mismatch resolves below
        // ε even on very conductive grids and clustered TSV maps. (One
        // tier has no propagation and no amplification.)
        let amplification = if tiers == 1 {
            1.0
        } else {
            let g_local_max = tier_g
                .iter()
                .map(|&(g_h, g_v)| 2.0 * g_h + 2.0 * g_v)
                .fold(0.0f64, f64::max);
            let cluster = largest_pillar_cluster(stack) as f64;
            1.0 + stack.tsv_resistance() * g_local_max * (tiers as f64 - 1.0) * cluster
        };

        Ok(VpScratch {
            width: w,
            height: h,
            tiers,
            vdd: stack.vdd(),
            r_tsv: stack.tsv_resistance(),
            r_pad: stack.pad_resistance(),
            tier_g: tier_g.into(),
            site_flat: site_flat.into(),
            is_pad_site: is_pad_site.into(),
            fixed,
            lattice,
            engines,
            amplification,
            arena: LaneArena::default(),
        })
    }

    /// A new scratch sharing this one's frozen half with fresh per-solve
    /// mutable state: the prefactored tier engines and the pillar
    /// lattice's coarse engine are shared through [`TierEngine::fork`]
    /// and [`PillarLattice::fork`] (no refactorization), the pin mask and
    /// site lists are shared `Arc`s, and a fresh one-lane arena is
    /// allocated (wider batches grow it on the fork's first such solve;
    /// the engines size their sweep buffers on their first solve).
    ///
    /// Forks solve independently — two forks may run concurrently from
    /// different threads — and reproduce the original scratch's solves
    /// bitwise: [`run_lanes`] re-initializes every buffer it reads
    /// before using it.
    #[must_use]
    pub(crate) fn fork(&self) -> VpScratch {
        let per = self.width * self.height;
        VpScratch {
            width: self.width,
            height: self.height,
            tiers: self.tiers,
            vdd: self.vdd,
            r_tsv: self.r_tsv,
            r_pad: self.r_pad,
            tier_g: Arc::clone(&self.tier_g),
            site_flat: Arc::clone(&self.site_flat),
            is_pad_site: Arc::clone(&self.is_pad_site),
            fixed: Arc::clone(&self.fixed),
            lattice: self.lattice.as_ref().map(PillarLattice::fork),
            engines: self.engines.iter().map(TierEngine::fork).collect(),
            amplification: self.amplification,
            arena: LaneArena::new(per * self.tiers, per, self.site_flat.len()),
        }
    }

    /// The most recent solve's results, lane-major:
    /// `(voltages, pillar_currents, lanes)`. A one-lane solve's answer is
    /// the node-major image itself (no second copy is kept).
    pub(crate) fn solution(&self) -> (&[f64], &[f64], usize) {
        let a = &self.arena;
        let nodes = self.width * self.height * self.tiers;
        let voltages = if a.k == 1 {
            &a.v[..nodes]
        } else {
            &a.voltages[..nodes * a.k]
        };
        (
            voltages,
            &a.pillar_current[..self.site_flat.len() * a.k],
            a.k,
        )
    }

    /// Lane 0's solved per-node voltages (flat tier-major) from the most
    /// recent solve.
    pub fn voltages(&self) -> &[f64] {
        let nodes = self.width * self.height * self.tiers;
        &self.solution().0[..nodes]
    }

    /// Whether this scratch's prefactored state fits the stack's
    /// *geometry* (footprint, tiers, resistances, pillar and pad sites).
    /// Loads and per-solve parameters are free to differ; the sweep
    /// parallelism is a build-time property the caller owns.
    pub(crate) fn geometry_matches(&self, stack: &Stack3d) -> bool {
        if self.width != stack.width()
            || self.height != stack.height()
            || self.tiers != stack.tiers()
            || self.vdd != stack.vdd()
            || self.r_tsv != stack.tsv_resistance()
            || self.r_pad != stack.pad_resistance()
        {
            return false;
        }
        let g_match = self.tier_g.iter().enumerate().all(|(t, &(g_h, g_v))| {
            g_h == 1.0 / stack.r_horizontal(t) && g_v == 1.0 / stack.r_vertical(t)
        });
        if !g_match {
            return false;
        }
        let w = self.width;
        if self.tiers == 1 {
            // Compare against the pad mask without allocating
            // (`pad_sites()` builds a Vec; this runs on every warm solve).
            (0..self.fixed.len()).all(|i| self.fixed[i] == stack.is_pad(i % w, i / w))
        } else {
            let sites = stack.tsv_sites();
            // Matching per-site pad flags *plus* an equal total pad count
            // proves every one of the stack's pads sits on a pillar with
            // the flag this scratch was built for — a pad added away
            // from the pillars changes num_pads and is caught here.
            let num_pad_sites = self.is_pad_site.iter().filter(|&&p| p).count();
            sites.len() == self.site_flat.len()
                && stack.num_pads() == num_pad_sites
                && sites
                    .iter()
                    .zip(self.site_flat.iter())
                    .all(|(&(x, y), &s)| y as usize * w + x as usize == s)
                && sites
                    .iter()
                    .zip(self.is_pad_site.iter())
                    .all(|(&(x, y), &p)| stack.is_pad(x as usize, y as usize) == p)
        }
    }

    /// Estimated heap footprint in bytes of everything this scratch
    /// reaches: the frozen half (counted per tier where tiers share
    /// factors, and again by every fork) plus its own buffers.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tier_g.len() * size_of::<(f64, f64)>()
            + self.site_flat.len() * size_of::<usize>()
            + self.is_pad_site.len()
            + self.lattice.as_ref().map_or(0, PillarLattice::memory_bytes)
            + self
                .engines
                .iter()
                .map(TierEngine::memory_bytes)
                .sum::<usize>()
            + self.arena.memory_bytes()
    }

    /// Heap bytes of the frozen half with every allocation counted once
    /// (tiers sharing factors count them once). Exact on a scratch no
    /// solve has run on, such as a session core's template.
    pub(crate) fn frozen_bytes(&self) -> usize {
        let twins: usize = (0..self.tiers)
            .filter(|&t| shares_earlier_tier(&self.tier_g, t))
            .map(|t| self.engines[t].memory_bytes())
            .sum();
        self.memory_bytes() - twins
    }

    /// Number of pillar sites this scratch serves (0 for single-tier).
    pub(crate) fn num_sites(&self) -> usize {
        self.site_flat.len()
    }

    /// Prefactors a full set of transient companion tier engines against
    /// this scratch's geometry: tier `t`'s engine carries
    /// `alpha_c[t·per + site]` (the `α·C` grounded companion
    /// conductances, siemens, flat tier-major over all `nn` nodes) on its
    /// diagonal, sharing this scratch's pin mask. Built once per step
    /// size by the transient engine and then reused across every step —
    /// the same factor-once contract as the static tier engines.
    ///
    /// # Errors
    ///
    /// See [`TierEngine::new`].
    pub(crate) fn build_companion_tiers(
        &self,
        alpha_c: &[f64],
        parallelism: usize,
    ) -> Result<Vec<TierEngine>, SolverError> {
        tier_engines(
            self.width,
            self.height,
            &self.tier_g,
            &self.fixed,
            Some(alpha_c),
            parallelism,
        )
    }
}

/// The transient companion context of a voltage-propagation solve: the
/// companion-augmented tier factors (`G_tier + diag(α·C)`), the `α·C`
/// diagonal itself (shared by every lane; the pinned-site KCL needs it),
/// the per-step companion currents `i_eq` (absolute sign, positive into
/// the node), lane-major like the loads, and the previous step's
/// voltages `v_n` the step starts from. `None` in [`run_lanes`] is the
/// static solve.
pub(crate) struct CompanionRef<'a> {
    /// Companion-augmented tier engines (from
    /// [`VpScratch::build_companion_tiers`]), one per tier.
    pub tiers: &'a mut [TierEngine],
    /// `α·C` per node (flat tier-major, `nn` entries, siemens).
    pub alpha_c: &'a [f64],
    /// Companion injections `i_eq` per lane and node (lane-major,
    /// `k · nn` entries, amperes).
    pub source: &'a [f64],
    /// The previous step's voltages `v_n` of a one-lane step (`nn`
    /// entries, flat tier-major): the node image and the layer-0 pillar
    /// guesses start from them instead of the rail. `None` on a stack
    /// without capacitance, whose every step *is* the DC solve and starts
    /// from the rail like one.
    pub v_n: Option<&'a [f64]>,
}

impl VpSolver {
    /// A solver with explicit configuration.
    pub fn new(config: VpConfig) -> Self {
        VpSolver { config }
    }
}

/// A single solve of the stack's own loads: the outer loop at `k = 1`
/// inside a scratch that **must already match the stack's geometry**
/// (callers check; [`Session`](crate::Session) surfaces a mismatch as
/// `GeometryChanged`). The stack only ever holds validated loads, so
/// they are not re-checked. Zero heap allocations once the scratch (and,
/// at `parallelism > 1`, the worker pool) is warm.
pub(crate) fn run_single(
    params: &crate::SolveParams,
    stack: &Stack3d,
    net: NetKind,
    scratch: &mut VpScratch,
    deadline: crate::Deadline,
) -> Result<VpReport, SolverError> {
    run_lanes(params, net, stack.loads(), 1, scratch, None, deadline)?;
    single_report(params, scratch)
}

/// The report of the one-lane solve [`run_lanes`] just ran, with a lane
/// that did not converge mapped to the single solve's error: a tier solve
/// out of sweeps fails with that solve's sweep count and residual at the
/// (amplification-tightened) inner tolerance, an exhausted outer budget
/// with the outer count and mismatch at ε. The planar single-tier case
/// has no outer loop; it reports `converged = false` with the true inner
/// residual instead.
pub(crate) fn single_report(
    params: &crate::SolveParams,
    scratch: &VpScratch,
) -> Result<VpReport, SolverError> {
    let report = lane_reports(params, scratch).next().expect("one lane");
    if report.converged || scratch.tiers == 1 {
        return Ok(report);
    }
    let st = &scratch.arena.state[0];
    Err(match st.tier_stall {
        Some(sweeps) => SolverError::DidNotConverge {
            iterations: sweeps,
            residual: st.worst,
            tolerance: params.inner_tolerance / scratch.amplification,
        },
        None => SolverError::DidNotConverge {
            iterations: report.outer_iterations,
            residual: st.worst,
            tolerance: params.epsilon,
        },
    })
}

/// The per-lane reports of the most recent [`run_lanes`] call.
fn lane_reports<'a>(
    params: &'a crate::SolveParams,
    scratch: &'a VpScratch,
) -> impl Iterator<Item = VpReport> + 'a {
    // Reported uniformly on every path (the scratch *is* the solver
    // workspace).
    let workspace_bytes = scratch.memory_bytes();
    scratch.arena.state[..scratch.arena.k]
        .iter()
        .map(move |st| {
            let (outer_iterations, converged) = st.outcome.expect("every lane resolved");
            VpReport {
                outer_iterations,
                inner_sweeps: st.inner_sweeps,
                pad_mismatch: st.worst,
                final_beta: params.damping,
                converged,
                workspace_bytes,
            }
        })
}

/// Validates a lane-major batch load buffer against the node count,
/// returning the lane count `k`.
pub(crate) fn validate_loads(nn: usize, loads: &[f64]) -> Result<usize, SolverError> {
    if loads.is_empty() || loads.len() % nn != 0 {
        return Err(SolverError::Unsupported {
            what: format!(
                "batch loads must be a non-empty whole number of {nn}-node \
                 load vectors (got {} entries)",
                loads.len()
            ),
        });
    }
    if let Some(i) = first_invalid(loads) {
        return Err(SolverError::Unsupported {
            what: format!(
                "load {} at batch index {i} is not a finite, non-negative current",
                loads[i]
            ),
        });
    }
    Ok(loads.len() / nn)
}

/// A batched solve: runs the `k` lanes of a lane-major load set
/// (validated by the caller, see [`validate_loads`]) through the outer
/// loop in lockstep and leaves one report per lane in `reports`. The
/// scratch **must already match the stack's geometry** (callers check).
/// A lane that exhausts a budget reports `converged = false` instead of
/// failing the batch.
pub(crate) fn run_batch(
    params: &crate::SolveParams,
    net: NetKind,
    loads: &[f64],
    k: usize,
    scratch: &mut VpScratch,
    reports: &mut Vec<VpReport>,
    deadline: crate::Deadline,
) -> Result<(), SolverError> {
    run_lanes(params, net, loads, k, scratch, None, deadline)?;
    reports.clear();
    reports.extend(lane_reports(params, scratch));
    Ok(())
}

/// The voltage propagation method over `k` lanes — the only copy of the
/// outer loop. Single solves (`k = 1`), batches, step sweeps and
/// transient companion steps all run here; the lanes of `loads`
/// (lane-major, `k · nn`, already validated) sweep in lockstep through
/// the shared tier factors, each lane freezing the moment it resolves,
/// so every lane's iterate is bitwise identical to its solve alone.
/// Per-lane outcomes are left in the arena ([`lane_reports`]).
///
/// With a [`CompanionRef`], the companion-augmented tier factors replace
/// the static ones, the companion currents join every tier's injection,
/// and the pinned-site KCL accounts for the `α·C` grounded conductance
/// (`+ α·C·v − i_eq`), so the propagated pillar currents solve the
/// companion system `(G + α·diag(C)) v = b`. The VDA feedback loop is
/// untouched — its fixed point is whatever system the tier solves and
/// the KCL describe.
///
/// Every lane starts from the rail, except a companion step that carries
/// `v_n`: its node image starts from `v_n`, and on multi-tier stacks its
/// layer-0 pillar guesses from `v_n`'s tier-0 pillar sites. With
/// capacitance the state moves little in one step, so that start is
/// already close to the answer.
///
/// The scratch **must already match the stack's geometry**. The arena
/// grows to `k` lanes on first use; after that the loop is
/// allocation-free. The [`Deadline`](crate::Deadline) is checked once
/// per lockstep outer pass (on entry for the single-tier case) and
/// governs the whole request.
pub(crate) fn run_lanes(
    params: &crate::SolveParams,
    net: NetKind,
    loads: &[f64],
    k: usize,
    scratch: &mut VpScratch,
    companion: Option<CompanionRef<'_>>,
    deadline: crate::Deadline,
) -> Result<(), SolverError> {
    let per = scratch.width * scratch.height;
    let nodes = per * scratch.tiers;
    scratch.arena.ensure(k, nodes, per, scratch.site_flat.len());
    scratch.arena.reset(k, params.damping);
    let (rail, sign) = match net {
        NetKind::Power => (scratch.vdd, 1.0),
        NetKind::Ground => (0.0, -1.0),
    };
    match companion.as_ref().and_then(|c| c.v_n) {
        Some(v_n) => scratch.arena.v[..nodes * k].copy_from_slice(v_n),
        None => scratch.arena.v[..nodes * k].fill(rail),
    }
    if scratch.tiers == 1 {
        // One opaque planar solve: check on entry, budget bounds the tail.
        deadline.check(0)?;
        planar(params, sign, loads, k, scratch, companion)?;
    } else if k == 1 {
        propagate::<true>(1, params, rail, sign, loads, scratch, companion, deadline)?;
    } else {
        propagate::<false>(k, params, rail, sign, loads, scratch, companion, deadline)?;
    }
    if k > 1 {
        let a = &mut scratch.arena;
        deinterleave(&a.v[..nodes * k], &mut a.voltages[..nodes * k], k);
    }
    Ok(())
}

/// Whether lane `j` still iterates, in a loop instantiated for one lane
/// (`ONE`) or for `k` masked lanes. A lone lane is only asked while it
/// iterates, so with `ONE` the lane loops compile to plain scalar loops:
/// no mask tests, no runtime stride.
#[inline(always)]
fn live<const ONE: bool>(mask: &[bool], j: usize) -> bool {
    ONE || mask[j]
}

/// Single-tier special case: pads pinned at the rail, one batched
/// row-based solve (the planar method the paper builds on). There is no
/// propagation loop, so each lane's `pad_mismatch` is its inner solve's
/// final residual (its largest per-sweep voltage update) and `converged`
/// its actual status. On the planar path every companion site is either
/// free (its `α·C` lives in the augmented factors, its `i_eq` in the
/// injection) or a pad pinned at the rail (where the companion branch is
/// inert), so only the factors and the injection change.
fn planar(
    params: &crate::SolveParams,
    sign: f64,
    loads: &[f64],
    k: usize,
    scratch: &mut VpScratch,
    companion: Option<CompanionRef<'_>>,
) -> Result<(), SolverError> {
    let per = scratch.width * scratch.height;
    let VpScratch { engines, arena, .. } = scratch;
    let (engines, source): (&mut [TierEngine], &[f64]) = match companion {
        Some(c) => (c.tiers, c.source),
        None => (engines, &[]),
    };
    let injection = &mut arena.injection[..per * k];
    fill_injection::<false>(k, injection, loads, source, per, 0, -sign, &arena.mask);
    let lanes = &mut arena.lanes[..k];
    engines[0].solve_batch_masked(
        injection,
        &mut arena.v[..per * k],
        params.inner_tolerance,
        params.max_inner_sweeps,
        params.sor_omega,
        None,
        lanes,
    )?;
    for (st, l) in arena.state.iter_mut().zip(&*lanes) {
        st.inner_sweeps = l.iterations;
        st.worst = l.residual;
        st.outcome = Some((1, l.converged));
    }
    Ok(())
}

/// The multi-tier outer loop over `k` lanes (`ONE`: the single lane of
/// a `k = 1` solve, see [`live`]): every lane
/// runs the paper's propagation/VDA iteration in lockstep, sharing each
/// tier's batched inner solve. Per-lane scalar state lives in the arena's
/// [`LaneOuterState`]; a lane that converges (or fails a budget) is
/// masked out of all later tier solves, so its iterate is never touched
/// again.
#[allow(clippy::too_many_arguments)] // run_lanes' surface, resolved
fn propagate<const ONE: bool>(
    k: usize,
    params: &crate::SolveParams,
    rail: f64,
    sign: f64,
    loads: &[f64],
    scratch: &mut VpScratch,
    companion: Option<CompanionRef<'_>>,
    deadline: crate::Deadline,
) -> Result<(), SolverError> {
    let k = if ONE { 1 } else { k };
    let (w, h, tiers) = (scratch.width, scratch.height, scratch.tiers);
    let (per, ns) = (w * h, scratch.site_flat.len());
    let nn = per * tiers;
    let (r_tsv, r_pad) = (scratch.r_tsv, scratch.r_pad);
    let tight_tol = params.inner_tolerance / scratch.amplification;
    let (eps, damping) = (params.epsilon, params.damping);
    let VpScratch {
        site_flat,
        is_pad_site,
        lattice,
        engines,
        tier_g,
        arena,
        ..
    } = scratch;
    let lattice = lattice.as_mut().expect("multi-tier scratch has a lattice");
    // The companion context swaps in the augmented tier factors; the
    // `α·C` / `i_eq` slices stay empty on the static path so the hot
    // loops branch on one bool.
    let v_n = companion.as_ref().and_then(|c| c.v_n);
    let (engines, alpha_c, source): (&mut [TierEngine], &[f64], &[f64]) = match companion {
        Some(c) => (c.tiers, c.alpha_c, c.source),
        None => (engines, &[], &[]),
    };
    let dynamic = !alpha_c.is_empty();
    let v = &mut arena.v[..nn * k];
    match v_n {
        // A seeded one-lane step guesses its layer-0 pillars where the
        // previous step left them (tier 0 is the head of `v_n`).
        Some(v_n) => {
            for (kk, &s) in site_flat.iter().enumerate() {
                arena.v0[kk] = v_n[s];
                arena.last_good_v0[kk] = v_n[s];
            }
        }
        None => {
            arena.v0[..ns * k].fill(rail);
            arena.last_good_v0[..ns * k].fill(rail);
        }
    }
    arena.last_good_correction[..ns * k].fill(0.0);

    let mut n_running = k;
    let mut outer = 0usize;
    'outer: while outer < params.max_outer_iterations && n_running > 0 {
        deadline.check(outer)?;
        // Every pass runs at the tight tolerance. (A "progressive"
        // scheme that loosened early passes was tried and reverted: the
        // noisy mismatch measurements it produced destabilized the VDA
        // far beyond what the cheaper sweeps saved — warm starts
        // already make post-first-pass solves nearly free.)
        for j in 0..k {
            if live::<ONE>(&arena.mask, j) {
                arena.pillar_current[j * ns..(j + 1) * ns].fill(0.0);
            }
        }
        for t in 0..tiers {
            // Phase 3 (voltage propagation): pin this tier's pillar
            // terminals per running lane — layer 0 from the VDA guesses,
            // upper layers from the accumulated pillar current through
            // R_TSV. The images are node-major/lane-minor, so these
            // loops (and the KCL below) walk nodes outside and lanes
            // inside.
            let mask = &arena.mask;
            if t == 0 {
                for (kk, &s) in site_flat.iter().enumerate() {
                    let row = &mut v[s * k..(s + 1) * k];
                    for j in 0..k {
                        if live::<ONE>(mask, j) {
                            row[j] = arena.v0[j * ns + kk];
                        }
                    }
                }
            } else {
                let (below, here) = v.split_at_mut(t * per * k);
                let below = &below[(t - 1) * per * k..];
                for (kk, &s) in site_flat.iter().enumerate() {
                    let (src, dst) = (&below[s * k..(s + 1) * k], &mut here[s * k..(s + 1) * k]);
                    for j in 0..k {
                        if live::<ONE>(mask, j) {
                            dst[j] = src[j] + arena.pillar_current[j * ns + kk] * r_tsv;
                        }
                    }
                }
            }
            // Phase 1 (intra-plane voltage calculation): one batched
            // row-based solve of this tier for every running lane. The
            // TSV resistance is deliberately absent: pinned terminals
            // carry it in the propagation phase instead. The companion
            // currents i_eq join the injection in their absolute
            // (net-independent) sign.
            let injection = &mut arena.injection[..per * k];
            fill_injection::<ONE>(k, injection, loads, source, nn, t * per, -sign, mask);
            engines[t].solve_batch_masked(
                injection,
                &mut v[t * per * k..(t + 1) * per * k],
                tight_tol,
                params.max_inner_sweeps,
                1.0,
                Some(&mask[..k]),
                &mut arena.lanes[..k],
            )?;
            for j in 0..k {
                if !arena.mask[j] {
                    continue;
                }
                let (st, l) = (&mut arena.state[j], &arena.lanes[j]);
                st.inner_sweeps += l.iterations;
                if !l.converged {
                    // The lane stops here with its true inner residual.
                    // `outer + 1` counts the pass it died in, like the
                    // other outcomes recorded post-increment.
                    st.worst = l.residual;
                    st.outcome = Some((outer + 1, false));
                    st.tier_stall = Some(l.iterations);
                    arena.mask[j] = false;
                    n_running -= 1;
                }
            }
            if n_running == 0 {
                break 'outer;
            }
            // Phase 2 (TSV current computation): KCL at each pinned
            // terminal gives the current its pillar injects into this
            // tier; accumulate toward the package. After the top tier
            // the accumulator holds the current each pillar asks of the
            // package — which must be zero at pad-less pillars.
            let (gh, gv) = tier_g[t];
            let tier_v = &v[t * per * k..(t + 1) * per * k];
            for (kk, &s) in site_flat.iter().enumerate() {
                let (x, y) = (s % w, s / w);
                let node = t * per + s;
                for j in 0..k {
                    if !live::<ONE>(&arena.mask, j) {
                        continue;
                    }
                    let vj = tier_v[s * k + j];
                    let mut out = sign * loads[j * nn + node];
                    if dynamic {
                        // The pinned node's own companion branch: its α·C
                        // grounded conductance draws α·C·v from the
                        // pillar and its companion source i_eq supplies
                        // current.
                        out += alpha_c[node] * vj - source[j * nn + node];
                    }
                    if x > 0 {
                        out += gh * (vj - tier_v[(s - 1) * k + j]);
                    }
                    if x + 1 < w {
                        out += gh * (vj - tier_v[(s + 1) * k + j]);
                    }
                    if y > 0 {
                        out += gv * (vj - tier_v[(s - w) * k + j]);
                    }
                    if y + 1 < h {
                        out += gv * (vj - tier_v[(s + w) * k + j]);
                    }
                    arena.pillar_current[j * ns + kk] += out;
                }
            }
        }
        outer += 1;
        // Phase 4 (VDA): padded pillars report the voltage gap between
        // their propagated top voltage and the rail (shifted by the pad
        // drop when pads are resistive); pad-less pillars report the
        // current they wrongly ask of the package. The lattice
        // redistributes both — the paper's "distributing the resulting
        // voltage difference" — into per-pillar voltage corrections. The
        // mismatches come first, in one node-outer pass over the top
        // tier.
        let top_v = &v[(tiers - 1) * per * k..];
        for (kk, &s) in site_flat.iter().enumerate() {
            for j in 0..k {
                if !live::<ONE>(&arena.mask, j) {
                    continue;
                }
                let pc = arena.pillar_current[j * ns + kk];
                arena.mismatch[j * ns + kk] = if is_pad_site[kk] {
                    let target = rail - pc * r_pad;
                    target - top_v[s * k + j]
                } else {
                    pc // amperes of excess, not volts
                };
            }
        }
        for j in 0..k {
            if !live::<ONE>(&arena.mask, j) {
                continue;
            }
            let mm = &arena.mismatch[j * ns..(j + 1) * ns];
            let corr = &mut arena.correction[j * ns..(j + 1) * ns];
            let worst = lattice.correction(mm, corr);
            let st = &mut arena.state[j];
            st.worst = worst;
            if worst < eps {
                st.outcome = Some((outer, true));
                arena.mask[j] = false;
                n_running -= 1;
                continue;
            }
            let v0_j = &mut arena.v0[j * ns..(j + 1) * ns];
            let lg_v0 = &mut arena.last_good_v0[j * ns..(j + 1) * ns];
            let lg_c = &mut arena.last_good_correction[j * ns..(j + 1) * ns];
            if worst <= st.best_worst {
                lg_v0.copy_from_slice(v0_j);
                lg_c.copy_from_slice(corr);
                st.since_improvement = 0;
            } else {
                st.since_improvement += 1;
            }
            // Outer fixed-point accelerator (see `anderson`): the VDA
            // step is the residual, Anderson mixing combines the recent
            // history. The loop starts in the paper's plain damped
            // mixing and escalates to safeguarded Anderson mixing on
            // divergence or plateau.
            if st.plain_mode {
                // The paper's VDA: plain damped mixing, halving the gain
                // when the mismatch grows (the contraction principle).
                // This converges in a handful of outers on benchmark
                // topologies; if it diverges or plateaus, hand the lane
                // to the accelerated mode below.
                if worst > 10.0 * st.best_worst.min(1e3) || st.since_improvement > 8 {
                    st.plain_mode = false;
                    st.since_improvement = 0;
                    v0_j.copy_from_slice(lg_v0);
                    st.stable_scale = 0.25 * damping;
                    for (g, c) in v0_j.iter_mut().zip(&*lg_c) {
                        *g += st.stable_scale * c;
                    }
                } else {
                    st.vda.apply(v0_j, corr);
                }
            } else if worst > 2.0 * st.best_worst {
                // Accelerated mode safeguard: roll back to the best
                // iterate, forget the mixing history, halve the
                // stability scale (a learned scale for history-less
                // steps, recovering by 1.5× per accepted improvement),
                // and retry with the damped plain step.
                st.stable_scale = (st.stable_scale * 0.5).max(1e-3);
                v0_j.copy_from_slice(lg_v0);
                for (g, c) in v0_j.iter_mut().zip(&*lg_c) {
                    *g += st.stable_scale * c;
                }
                arena.anderson[j].reset();
            } else {
                if worst <= st.best_worst {
                    st.stable_scale = (st.stable_scale * 1.5).min(damping);
                }
                arena.anderson[j].step(v0_j, corr, st.stable_scale);
            }
            // The reference decays by 15% per outer so that one lucky
            // transient cannot veto every later state (which deadlocks
            // the safeguard in a rollback limit cycle); sustained growth
            // is still caught.
            st.best_worst = st.best_worst.min(worst) * if st.plain_mode { 1.0 } else { 1.15 };
        }
    }
    // Lanes still running exhausted the outer budget.
    for st in &mut arena.state[..k] {
        if st.outcome.is_none() {
            st.outcome = Some((outer, false));
        }
    }
    Ok(())
}

/// Nodes per block of the lane-major ↔ node-major batch transposes: a
/// block's node-major tile (`64 × k` values, 8 KiB at k = 16) stays in
/// L1 while each lane's contiguous run streams through it.
const TRANSPOSE_BLOCK: usize = 64;

/// Stages `scale · loads (+ source)` of every running lane into the
/// node-major/lane-minor `injection` (`injection[i * k + j]`), reading
/// lane `j`'s `injection.len() / k` entries contiguously from
/// `loads[j * nn + offset..]` (lane-major, `nn` per lane) and likewise
/// from `source` when it is non-empty (the companion currents). A
/// blocked transpose: each element is the same expression as a plain
/// strided loop, so the staged bits do not depend on the blocking.
#[allow(clippy::too_many_arguments)] // the staging surface
#[inline(always)]
fn fill_injection<const ONE: bool>(
    k: usize,
    injection: &mut [f64],
    loads: &[f64],
    source: &[f64],
    nn: usize,
    offset: usize,
    scale: f64,
    mask: &[bool],
) {
    if ONE {
        // One lane: both layouts are the plain vector.
        let run = &loads[offset..offset + injection.len()];
        if source.is_empty() {
            for (x, &l) in injection.iter_mut().zip(run) {
                *x = scale * l;
            }
        } else {
            let src = &source[offset..offset + injection.len()];
            for ((x, &l), &s) in injection.iter_mut().zip(run).zip(src) {
                *x = scale * l + s;
            }
        }
        return;
    }
    let per = injection.len() / k;
    for i0 in (0..per).step_by(TRANSPOSE_BLOCK) {
        let i1 = (i0 + TRANSPOSE_BLOCK).min(per);
        let tile = &mut injection[i0 * k..i1 * k];
        for j in (0..k).filter(|&j| mask[j]) {
            let lane = j * nn + offset;
            let run = &loads[lane + i0..lane + i1];
            if source.is_empty() {
                for (ii, &l) in run.iter().enumerate() {
                    tile[ii * k + j] = scale * l;
                }
            } else {
                let src = &source[lane + i0..lane + i1];
                for (ii, (&l, &s)) in run.iter().zip(src).enumerate() {
                    tile[ii * k + j] = scale * l + s;
                }
            }
        }
    }
}

/// Copies the node-major/lane-minor batch image (`v[i * k + j]`) into
/// lane-major per-lane vectors (`out[j * n + i]`), so callers get each
/// lane's solution as one contiguous slice. Blocked like
/// [`fill_injection`].
fn deinterleave(v: &[f64], out: &mut [f64], k: usize) {
    debug_assert_eq!(v.len(), out.len());
    let n = v.len() / k;
    for i0 in (0..n).step_by(TRANSPOSE_BLOCK) {
        let i1 = (i0 + TRANSPOSE_BLOCK).min(n);
        let tile = &v[i0 * k..i1 * k];
        for j in 0..k {
            for (ii, x) in out[j * n + i0..j * n + i1].iter_mut().enumerate() {
                *x = tile[ii * k + j];
            }
        }
    }
}

/// Size of the largest 4-connected component of TSV sites (1 for any
/// pattern whose pillars never touch, e.g. uniform pitch ≥ 2).
fn largest_pillar_cluster(stack: &Stack3d) -> usize {
    let (w, h) = (stack.width(), stack.height());
    let mut seen = vec![false; w * h];
    let mut largest = 1usize;
    let mut queue = Vec::new();
    for &(sx, sy) in stack.tsv_sites() {
        let start = sy as usize * w + sx as usize;
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push((sx as usize, sy as usize));
        let mut size = 0usize;
        while let Some((x, y)) = queue.pop() {
            size += 1;
            let mut visit = |nx: usize, ny: usize| {
                let i = ny * w + nx;
                if !seen[i] && stack.is_tsv(nx, ny) {
                    seen[i] = true;
                    queue.push((nx, ny));
                }
            };
            if x > 0 {
                visit(x - 1, y);
            }
            if x + 1 < w {
                visit(x + 1, y);
            }
            if y > 0 {
                visit(x, y - 1);
            }
            if y + 1 < h {
                visit(x, y + 1);
            }
        }
        largest = largest.max(size);
    }
    largest
}

impl StackSolver for VpSolver {
    fn solve_stack(&self, stack: &Stack3d, net: NetKind) -> Result<StackSolution, SolverError> {
        let mut scratch = VpScratch::new(stack, &self.config)?;
        let report = run_single(
            &self.config.solve_params(),
            stack,
            net,
            &mut scratch,
            crate::Deadline::NONE,
        )?;
        // A fresh one-lane arena: the node-major image is the answer.
        Ok(StackSolution {
            voltages: std::mem::take(&mut scratch.arena.v),
            report: report.to_solve_report(),
        })
    }

    fn solver_name(&self) -> &'static str {
        "voltage-propagation"
    }
}
#[cfg(test)]
mod tests {
    // These unit tests drive the outer loop's wrappers (`run_single`,
    // `run_batch`) on a `VpScratch` — the layer below `Session`, whose
    // routing `session.rs` and the root integration tests cover.
    use super::*;
    use crate::Deadline;
    use voltprop_grid::{LoadProfile, TsvPattern};
    use voltprop_solvers::{residual, DirectCholesky};

    const HALF_MV: f64 = 5e-4; // the paper's accuracy budget

    /// A `w × h × tiers` stack with uniform-random loads of 10 µA–1 mA.
    fn random_stack(w: usize, h: usize, tiers: usize, seed: u64) -> Stack3d {
        let profile = LoadProfile::UniformRandom {
            min: 1e-5,
            max: 1e-3,
        };
        Stack3d::builder(w, h, tiers)
            .load_profile(profile, seed)
            .build()
            .unwrap()
    }

    /// Builds a scratch and runs a single solve on it.
    fn solve_fresh(
        config: &VpConfig,
        stack: &Stack3d,
        net: NetKind,
    ) -> Result<(VpScratch, VpReport), SolverError> {
        let mut scratch = VpScratch::new(stack, config)?;
        let report = run_single(
            &config.solve_params(),
            stack,
            net,
            &mut scratch,
            Deadline::NONE,
        )?;
        Ok((scratch, report))
    }

    /// A power-net batched solve of `loads` on `scratch`.
    fn batch(
        config: &VpConfig,
        stack: &Stack3d,
        loads: &[f64],
        scratch: &mut VpScratch,
    ) -> Result<Vec<VpReport>, SolverError> {
        let mut reports = Vec::new();
        let params = config.solve_params();
        let k = validate_loads(stack.num_nodes(), loads)?;
        run_batch(
            &params,
            NetKind::Power,
            loads,
            k,
            scratch,
            &mut reports,
            Deadline::NONE,
        )?;
        Ok(reports)
    }

    /// Lane `lane`'s voltages from the most recent solve.
    fn lane_voltages(scratch: &VpScratch, lane: usize) -> &[f64] {
        let (v, _, k) = scratch.solution();
        assert!(lane < k);
        let nn = v.len() / k;
        &v[lane * nn..(lane + 1) * nn]
    }

    /// Lane `lane`'s pillar currents from the most recent solve.
    fn lane_pillar_currents(scratch: &VpScratch, lane: usize) -> &[f64] {
        let (_, c, k) = scratch.solution();
        assert!(lane < k);
        let ns = scratch.num_sites();
        &c[lane * ns..(lane + 1) * ns]
    }

    fn assert_matches_direct(stack: &Stack3d, net: NetKind) -> (VpScratch, VpReport, Vec<f64>) {
        let exact = DirectCholesky::new().solve_stack(stack, net).unwrap();
        let (scratch, report) = solve_fresh(&VpConfig::default(), stack, net).unwrap();
        let err = residual::max_abs_error(
            &exact.voltages[..stack.num_nodes()],
            &scratch.voltages()[..stack.num_nodes()],
        );
        assert!(
            err < HALF_MV,
            "VP deviates {err} V from direct (> 0.5 mV budget)"
        );
        assert!(report.converged);
        (scratch, report, exact.voltages)
    }

    #[test]
    fn agrees_with_direct_on_paper_default_grid() {
        let stack = random_stack(12, 12, 3, 5);
        let (_, report, _) = assert_matches_direct(&stack, NetKind::Power);
        assert!(
            report.outer_iterations <= 20,
            "VP should converge in few outer iterations, took {}",
            report.outer_iterations
        );
    }

    #[test]
    fn agrees_on_hotspot_loads() {
        let stack = Stack3d::builder(14, 10, 3)
            .load_profile(
                LoadProfile::Hotspot {
                    background: 1e-5,
                    peak: 2e-3,
                    centers: vec![(0, 3, 3), (2, 10, 7)],
                    radius: 2.5,
                },
                0,
            )
            .build()
            .unwrap();
        assert_matches_direct(&stack, NetKind::Power);
    }

    #[test]
    fn agrees_on_two_and_four_tiers() {
        for tiers in [2, 4] {
            let stack = Stack3d::builder(10, 10, tiers)
                .load_profile(
                    LoadProfile::UniformRandom {
                        min: 1e-5,
                        max: 5e-4,
                    },
                    7,
                )
                .build()
                .unwrap();
            assert_matches_direct(&stack, NetKind::Power);
        }
    }

    #[test]
    fn agrees_on_anisotropic_tiers() {
        let stack = Stack3d::builder(9, 11, 3)
            .tier_resistance(0, 0.015, 0.03)
            .tier_resistance(1, 0.04, 0.02)
            .tier_resistance(2, 0.025, 0.025)
            .uniform_load(4e-4)
            .build()
            .unwrap();
        assert_matches_direct(&stack, NetKind::Power);
    }

    #[test]
    fn agrees_on_ground_net() {
        let stack = random_stack(10, 10, 3, 9);
        let (scratch, _, _) = assert_matches_direct(&stack, NetKind::Ground);
        // Ground bounce is positive (pads converge to 0 within epsilon).
        let eps = VpConfig::default().epsilon;
        assert!(scratch.voltages().iter().all(|&v| v >= -2.0 * eps));
    }

    #[test]
    fn agrees_with_resistive_pads() {
        let stack = Stack3d::builder(8, 8, 3)
            .pad_resistance(0.2)
            .uniform_load(3e-4)
            .build()
            .unwrap();
        assert_matches_direct(&stack, NetKind::Power);
    }

    #[test]
    fn oblivious_to_tsv_distribution() {
        // §III-B-2: the method works for any TSV distribution. Uniform
        // lattices converge to arbitrary ε through the grid-lattice VDA;
        // irregular patterns use the diagonal fallback, which resolves to
        // ~2e-4 V — still well inside the paper's 0.5 mV budget, so they
        // run with a matching ε (the limitation is recorded in
        // EXPERIMENTS.md).
        let patterns: Vec<(TsvPattern, f64)> = vec![
            (TsvPattern::Uniform { pitch: 2 }, 1e-4),
            (TsvPattern::Random { count: 20, seed: 3 }, 3e-4),
            (
                TsvPattern::Clustered {
                    centers: vec![(3, 3), (9, 9)],
                    radius: 2,
                },
                3e-4,
            ),
        ];
        for (pattern, eps) in patterns {
            let stack = Stack3d::builder(12, 12, 3)
                .tsv_pattern(pattern.clone())
                .uniform_load(2e-4)
                .build()
                .unwrap();
            let exact = DirectCholesky::new()
                .solve_stack(&stack, NetKind::Power)
                .unwrap();
            let config = VpConfig::new().epsilon(eps);
            let (scratch, report) = solve_fresh(&config, &stack, NetKind::Power).unwrap();
            let err = residual::max_abs_error(&exact.voltages, scratch.voltages());
            assert!(err < HALF_MV, "{pattern:?}: error {err}");
            assert!(
                report.outer_iterations <= 60,
                "{pattern:?}: {} outer iterations",
                report.outer_iterations
            );
        }
    }

    #[test]
    fn single_tier_reduces_to_planar_rb() {
        let stack = random_stack(12, 12, 1, 2);
        let (scratch, report, _) = assert_matches_direct(&stack, NetKind::Power);
        assert_eq!(report.outer_iterations, 1);
        assert!(lane_pillar_currents(&scratch, 0).is_empty());
    }

    #[test]
    fn pillar_currents_sum_to_total_load() {
        let stack = Stack3d::builder(10, 10, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-4,
                    max: 1e-3,
                },
                4,
            )
            .build()
            .unwrap();
        let (scratch, _) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        let delivered: f64 = lane_pillar_currents(&scratch, 0).iter().sum();
        let rel = (delivered - stack.total_load()).abs() / stack.total_load();
        assert!(
            rel < 1e-2,
            "pillar current {delivered} vs load {}",
            stack.total_load()
        );
    }

    #[test]
    fn kcl_residual_is_small() {
        let stack = Stack3d::builder(10, 10, 3)
            .uniform_load(5e-4)
            .build()
            .unwrap();
        let (scratch, _) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        let r = residual::kcl_residual_inf(&stack, NetKind::Power, scratch.voltages());
        // Free nodes satisfy KCL to the inner tolerance; pinned TSV nodes
        // close their balance through the pillar current by construction.
        assert!(r < 5e-2, "KCL residual {r} A");
    }

    #[test]
    fn zero_load_grid_is_exact_immediately() {
        let stack = Stack3d::builder(8, 8, 3).build().unwrap();
        let (scratch, report) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        for &v in scratch.voltages() {
            assert!((v - 1.8).abs() < 1e-9);
        }
        assert!(report.outer_iterations <= 2);
    }

    #[test]
    fn sparse_pads_agree_with_direct() {
        // The IBM-like topology: pads only on a coarse bump array, most
        // pillars pad-less.
        let mut pads = vec![];
        for y in (0..16).step_by(8) {
            for x in (0..16).step_by(8) {
                pads.push((x, y));
            }
        }
        let stack = Stack3d::builder(16, 16, 3)
            .pad_sites(pads)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 5e-4,
                },
                3,
            )
            .build()
            .unwrap();
        let (_, report, _) = assert_matches_direct(&stack, NetKind::Power);
        assert!(
            report.outer_iterations <= 60,
            "sparse pads took {} outer iterations",
            report.outer_iterations
        );
    }

    #[test]
    fn single_pad_pillar_agrees_with_direct() {
        let stack = Stack3d::builder(8, 8, 2)
            .pad_sites(vec![(4, 4)])
            .tsv_pattern(TsvPattern::Uniform { pitch: 2 })
            .uniform_load(1e-4)
            .build()
            .unwrap();
        assert_matches_direct(&stack, NetKind::Power);
    }

    #[test]
    fn pads_off_pillars_unsupported() {
        let mut pads: Vec<(usize, usize)> = Stack3d::builder(8, 8, 3)
            .build()
            .unwrap()
            .tsv_sites()
            .iter()
            .map(|&(x, y)| (x as usize, y as usize))
            .collect();
        pads.push((1, 1)); // not a TSV site (pitch 2 → odd coords are free)
        let stack = Stack3d::builder(8, 8, 3)
            .pad_sites(pads)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        assert!(matches!(
            VpScratch::new(&stack, &VpConfig::default()),
            Err(SolverError::Unsupported { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_error() {
        let stack = Stack3d::builder(10, 10, 3)
            .uniform_load(1e-3)
            .build()
            .unwrap();
        let config = VpConfig::new().epsilon(1e-13).max_outer_iterations(2);
        assert!(matches!(
            solve_fresh(&config, &stack, NetKind::Power),
            Err(SolverError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn stack_solver_interface() {
        let stack = Stack3d::builder(8, 8, 3)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let sol = VpSolver::default()
            .solve_stack(&stack, NetKind::Power)
            .unwrap();
        assert_eq!(sol.voltages.len(), stack.num_nodes());
        assert_eq!(VpSolver::default().solver_name(), "voltage-propagation");
    }

    #[test]
    fn workspace_is_linear_in_nodes() {
        // The memory pitch of the paper: VP's workspace is a few vectors,
        // no assembled matrix. ~9 f64-sized arrays per node is the cap.
        let stack = Stack3d::builder(20, 20, 3)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let (_, report) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        let per_node = report.workspace_bytes as f64 / stack.num_nodes() as f64;
        assert!(per_node < 9.0 * 8.0, "workspace {per_node} bytes/node");
    }

    #[test]
    fn parallel_solve_matches_sequential_on_multi_tier_stack() {
        // The parallelism knob must not change the answer: red-black
        // parallel tier sweeps and the sequential schedule both converge
        // to the same solution within solver tolerance.
        let stack = random_stack(14, 12, 4, 21);
        let exact = DirectCholesky::new()
            .solve_stack(&stack, NetKind::Power)
            .unwrap();
        let (seq, _) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        for threads in [2usize, 4] {
            let config = VpConfig::new().parallelism(threads);
            let (par, report) = solve_fresh(&config, &stack, NetKind::Power).unwrap();
            assert!(report.converged);
            // Accuracy: the parallel schedule meets the same 0.5 mV paper
            // budget against the exact solution...
            let err = residual::max_abs_error(&exact.voltages, par.voltages());
            assert!(
                err < HALF_MV,
                "parallelism {threads}: error {err} V vs direct"
            );
            // ...and therefore sits within 2ε-ish of the sequential
            // iterate (each schedule independently stops within ε).
            let drift = residual::max_abs_error(seq.voltages(), par.voltages());
            assert!(
                drift < 3.0 * VpConfig::default().epsilon,
                "parallelism {threads}: drift {drift} V vs sequential"
            );
        }
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_solves() {
        let stack_a = random_stack(10, 10, 3, 5);
        let config = VpConfig::default();
        let params = config.solve_params();
        let mut scratch = VpScratch::new(&stack_a, &config).unwrap();
        let r1 = run_single(
            &params,
            &stack_a,
            NetKind::Power,
            &mut scratch,
            Deadline::NONE,
        )
        .unwrap();
        assert!(r1.converged);
        let (fresh, _) = solve_fresh(&config, &stack_a, NetKind::Power).unwrap();
        assert_eq!(scratch.voltages(), fresh.voltages());
        assert_eq!(
            lane_pillar_currents(&scratch, 0),
            lane_pillar_currents(&fresh, 0)
        );

        // Same geometry, different loads: reuse without rebuilding.
        let mut stack_b = stack_a.clone();
        stack_b
            .set_loads(stack_a.loads().iter().map(|l| l * 1.5).collect())
            .unwrap();
        assert!(scratch.geometry_matches(&stack_b));
        let r2 = run_single(
            &params,
            &stack_b,
            NetKind::Power,
            &mut scratch,
            Deadline::NONE,
        )
        .unwrap();
        assert!(r2.converged);
        let (fresh_b, _) = solve_fresh(&config, &stack_b, NetKind::Power).unwrap();
        assert_eq!(scratch.voltages(), fresh_b.voltages());

        // Different geometry: the scratch reports the mismatch (callers
        // build a new one — nothing rebuilds silently anymore).
        let stack_c = Stack3d::builder(8, 8, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        assert!(!scratch.geometry_matches(&stack_c));
    }

    /// `k` load vectors derived from the stack's own loads with different
    /// magnitudes (so lanes converge along different trajectories).
    fn load_sweep(stack: &Stack3d, k: usize) -> Vec<f64> {
        let mut loads = Vec::with_capacity(k * stack.num_nodes());
        for j in 0..k {
            let scale = 0.5 + 0.4 * j as f64;
            loads.extend(stack.loads().iter().map(|l| scale * l));
        }
        loads
    }

    fn assert_batch_matches_sequential(stack: &Stack3d, config: VpConfig, k: usize) {
        let params = config.solve_params();
        let loads = load_sweep(stack, k);
        let mut scratch = VpScratch::new(stack, &config).unwrap();
        let reports = batch(&config, stack, &loads, &mut scratch).unwrap();
        assert_eq!(reports.len(), k);
        let nn = stack.num_nodes();
        let mut solo_scratch = VpScratch::new(stack, &config).unwrap();
        for j in 0..k {
            let mut lane_stack = stack.clone();
            lane_stack
                .set_loads(loads[j * nn..(j + 1) * nn].to_vec())
                .unwrap();
            let solo = run_single(
                &params,
                &lane_stack,
                NetKind::Power,
                &mut solo_scratch,
                Deadline::NONE,
            )
            .unwrap();
            assert_eq!(
                lane_voltages(&scratch, j),
                solo_scratch.voltages(),
                "lane {j} voltages must be bitwise identical to the sequential solve"
            );
            assert_eq!(
                lane_pillar_currents(&scratch, j),
                lane_pillar_currents(&solo_scratch, 0),
                "lane {j} pillar currents"
            );
            assert!(reports[j].converged);
            assert_eq!(
                reports[j].outer_iterations, solo.outer_iterations,
                "lane {j}"
            );
            assert_eq!(reports[j].inner_sweeps, solo.inner_sweeps, "lane {j}");
            assert_eq!(
                reports[j].pad_mismatch.to_bits(),
                solo.pad_mismatch.to_bits(),
                "lane {j}"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_solves_bitwise_multi_tier() {
        let stack = random_stack(10, 10, 3, 5);
        // Sequential and red-black (parallel) inner schedules.
        assert_batch_matches_sequential(&stack, VpConfig::new(), 3);
        assert_batch_matches_sequential(&stack, VpConfig::new().parallelism(2), 3);
        // Sparse pads: every outer iteration of every lane runs the
        // coarse pillar-lattice solve.
        let sparse = Stack3d::builder(16, 16, 3)
            .pad_lattice(4)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                6,
            )
            .build()
            .unwrap();
        assert_batch_matches_sequential(&sparse, VpConfig::new(), 5);
        assert_batch_matches_sequential(&sparse, VpConfig::new().parallelism(2), 5);
    }

    #[test]
    fn batch_matches_sequential_solves_bitwise_single_tier() {
        let stack = random_stack(12, 12, 1, 2);
        assert_batch_matches_sequential(&stack, VpConfig::new(), 4);
        assert_batch_matches_sequential(&stack, VpConfig::new().parallelism(4), 4);
    }

    #[test]
    fn batch_scratch_is_warm_on_second_call() {
        let stack = Stack3d::builder(8, 8, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let config = VpConfig::default();
        let loads = load_sweep(&stack, 3);
        let mut scratch = VpScratch::new(&stack, &config).unwrap();
        batch(&config, &stack, &loads, &mut scratch).unwrap();
        assert_eq!(scratch.solution().2, 3);
        let first: Vec<Vec<f64>> = (0..3)
            .map(|j| lane_voltages(&scratch, j).to_vec())
            .collect();
        // Second call reuses the arena and reproduces the solution.
        let reports = batch(&config, &stack, &loads, &mut scratch).unwrap();
        for j in 0..3 {
            assert_eq!(lane_voltages(&scratch, j), &first[j][..]);
        }
        let mem = scratch.memory_bytes();
        assert_eq!(reports[0].workspace_bytes, mem);
    }

    #[test]
    fn batch_rejects_malformed_loads() {
        let stack = Stack3d::builder(8, 8, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let config = VpConfig::default();
        let mut scratch = VpScratch::new(&stack, &config).unwrap();
        let nn = stack.num_nodes();
        for bad in [
            vec![],
            vec![1e-4; nn + 1],
            vec![-1e-4; nn],
            vec![f64::NAN; nn],
        ] {
            assert!(
                matches!(
                    batch(&config, &stack, &bad, &mut scratch),
                    Err(SolverError::Unsupported { .. })
                ),
                "loads of len {} accepted",
                bad.len()
            );
        }
    }

    #[test]
    fn forced_did_not_converge_surfaces_true_report_fields() {
        // Single-tier with a starved sweep budget: the report must carry
        // the inner solve's real residual and status, not the previously
        // hardcoded `pad_mismatch: 0.0` / `converged: true`.
        let stack = Stack3d::builder(16, 16, 1)
            .uniform_load(1e-3)
            .build()
            .unwrap();
        let config = VpConfig::new().inner_tolerance(1e-14).max_inner_sweeps(2);
        let (_, report) = solve_fresh(&config, &stack, NetKind::Power).unwrap();
        assert!(!report.converged, "2 sweeps cannot reach 1e-14");
        assert_eq!(report.inner_sweeps, 2);
        assert!(
            report.pad_mismatch.is_finite() && report.pad_mismatch > 1e-14,
            "true residual must be reported, got {}",
            report.pad_mismatch
        );
        // The batched path reports the same per-lane truth.
        let mut scratch = VpScratch::new(&stack, &config).unwrap();
        let reports = batch(&config, &stack, &load_sweep(&stack, 2), &mut scratch).unwrap();
        for (j, rep) in reports.iter().enumerate() {
            assert!(!rep.converged, "lane {j}");
            assert!(rep.pad_mismatch > 1e-14, "lane {j}: {}", rep.pad_mismatch);
        }
        // A converged single-tier solve reports its actual residual too.
        let (_, ok) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        assert!(ok.converged);
        assert!(
            ok.pad_mismatch > 0.0 && ok.pad_mismatch < VpConfig::default().inner_tolerance,
            "converged residual should be the real (non-hardcoded) value, got {}",
            ok.pad_mismatch
        );
    }

    #[test]
    fn workspace_bytes_reported_uniformly() {
        // Every return path must report the scratch's real footprint.
        let stack = Stack3d::builder(10, 10, 3)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let (scratch, rep) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        assert_eq!(rep.workspace_bytes, scratch.memory_bytes());
        let single = Stack3d::builder(10, 10, 1)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let (scratch1, rep1) = solve_fresh(&VpConfig::default(), &single, NetKind::Power).unwrap();
        assert_eq!(rep1.workspace_bytes, scratch1.memory_bytes());
    }

    #[test]
    fn scratch_memory_is_reported() {
        let stack = Stack3d::builder(10, 10, 3)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let scratch = VpScratch::new(&stack, &VpConfig::default()).unwrap();
        assert!(scratch.memory_bytes() > 0);
    }
}
