use std::sync::Arc;

use crate::anderson::Anderson;
use crate::lattice::PillarLattice;
use crate::tier_cache::CachedTier;
use crate::{VpConfig, VpReport};
use voltprop_grid::{NetKind, Stack3d};
use voltprop_solvers::{LaneReport, SolveReport, SolverError, StackSolution, StackSolver};

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
/// every outer-loop buffer.
///
/// Building the scratch is the only allocating step of a solve; once it
/// exists, the engine loops ([`run_single`], [`run_batch`]) run the
/// entire outer iteration — tier sweeps, pillar-current accumulation,
/// VDA distribution, Anderson mixing — without touching the heap. That
/// holds with sparse pads too: the VDA distribution's coarse lattice
/// solve runs on an engine prefactored here (see [`PillarLattice`]),
/// and on the persistent worker pool once it is warm. This
/// is internal state: [`Session`](crate::Session) absorbs one at build
/// and serves every request from it (the former public
/// `VpSolver::solve{_with,_batch}` shims around it were removed — see
/// `MIGRATION.md`).
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
    tier_g: Vec<(f64, f64)>,
    /// Flat (row-major) index of every pillar site. Empty for single-tier.
    site_flat: Vec<usize>,
    is_pad_site: Vec<bool>,
    /// Shared pin mask: pillar terminals (multi-tier) or pads
    /// (single-tier). One allocation serves every tier engine.
    fixed: Arc<[bool]>,
    lattice: Option<PillarLattice>,
    tier_cache: Vec<CachedTier>,
    /// Error amplification factor baked from the geometry (see
    /// [`VpScratch::new`]); scales the inner tolerance.
    amplification: f64,
    voltages: Vec<f64>,
    injection: Vec<f64>,
    v0: Vec<f64>,
    pillar_current: Vec<f64>,
    mismatch: Vec<f64>,
    correction: Vec<f64>,
    last_good_v0: Vec<f64>,
    last_good_correction: Vec<f64>,
    anderson: Anderson,
    /// Lazily sized multi-load (batched) solve state; `None` until the
    /// first [`run_batch`] call.
    batch: Option<BatchArena>,
}

/// The batch arena: every buffer a lockstep multi-load solve needs, sized
/// for a fixed lane count `k`. Built on the first
/// [`run_batch`] call with that `k` and reused afterwards, so
/// warm batched solves perform no heap allocation (on every
/// `parallelism` once the persistent worker pool is warm).
///
/// The sweep-facing buffers (`v`, `injection`) are node-major/lane-minor
/// (lane `j` of flat node `i` at `i * k + j`) — the layout the batched
/// engines consume; the per-pillar outer-loop state is lane-major (lane
/// `j`'s `ns` pillar values contiguous at `j * ns`), matching the
/// per-lane VDA and Anderson operations.
#[derive(Debug)]
struct BatchArena {
    /// Lane count every buffer below is sized for.
    k: usize,
    /// Node-major voltage image, `per · tiers · k`.
    v: Vec<f64>,
    /// Node-major per-tier injection staging, `per · k`.
    injection: Vec<f64>,
    /// Lane-major solved voltages, `per · tiers · k` (the public view).
    voltages: Vec<f64>,
    /// Per-lane tier-solve reports (scratch for the inner batch calls).
    lanes: Vec<LaneReport>,
    /// Outer-level lane mask: `true` while a lane still iterates.
    mask: Vec<bool>,
    /// Lane-major pillar guesses and feedback state, `ns · k` each.
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

/// The scalar outer-loop state of one batch lane — exactly the locals of
/// the single-load [`run_single`] loop, so the lockstep batch iteration
/// reproduces it bit for bit.
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
}

impl BatchArena {
    fn new(k: usize, per: usize, tiers: usize, ns: usize, damping: f64) -> Self {
        BatchArena {
            k,
            v: vec![0.0; per * tiers * k],
            injection: vec![0.0; per * k],
            voltages: vec![0.0; per * tiers * k],
            lanes: vec![LaneReport::default(); k],
            mask: vec![true; k],
            v0: vec![0.0; ns * k],
            pillar_current: vec![0.0; ns * k],
            mismatch: vec![0.0; ns * k],
            correction: vec![0.0; ns * k],
            last_good_v0: vec![0.0; ns * k],
            last_good_correction: vec![0.0; ns * k],
            anderson: (0..k).map(|_| Anderson::new(4, ns)).collect(),
            state: vec![
                LaneOuterState {
                    vda: crate::VdaController::new(damping),
                    plain_mode: true,
                    stable_scale: damping,
                    best_worst: f64::INFINITY,
                    since_improvement: 0,
                    worst: f64::INFINITY,
                    inner_sweeps: 0,
                    outcome: None,
                };
                k
            ],
        }
    }

    /// Rewinds every per-lane record to the start-of-solve state (no
    /// allocation; called at the top of each batched solve).
    fn reset(&mut self, damping: f64) {
        self.lanes.fill(LaneReport::default());
        self.mask.fill(true);
        for a in &mut self.anderson {
            a.reset();
        }
        for s in &mut self.state {
            *s = LaneOuterState {
                vda: crate::VdaController::new(damping),
                plain_mode: true,
                stable_scale: damping,
                best_worst: f64::INFINITY,
                since_improvement: 0,
                worst: f64::INFINITY,
                inner_sweeps: 0,
                outcome: None,
            };
        }
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
    /// Validates the stack for voltage propagation and builds the full
    /// solve state (prefactored tier engines, lattice, buffers).
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
        let shards = config.shards.max(1);
        let tier_g: Vec<(f64, f64)> = (0..tiers)
            .map(|t| (1.0 / stack.r_horizontal(t), 1.0 / stack.r_vertical(t)))
            .collect();

        if tiers == 1 {
            if stack.pad_resistance() != 0.0 {
                return Err(SolverError::Unsupported {
                    what: "single-tier voltage propagation requires ideal pads \
                           (use Rb3d or PCG for resistive pads)"
                        .into(),
                });
            }
            let mut fixed = vec![false; per];
            for (x, y) in stack.pad_sites() {
                fixed[y as usize * w + x as usize] = true;
            }
            let fixed: Arc<[bool]> = fixed.into();
            let tier_cache = vec![CachedTier::new(
                w,
                h,
                tier_g[0].0,
                tier_g[0].1,
                fixed.clone(),
                parallelism,
                shards,
            )?];
            return Ok(VpScratch {
                width: w,
                height: h,
                tiers,
                vdd: stack.vdd(),
                r_tsv: stack.tsv_resistance(),
                r_pad: stack.pad_resistance(),
                tier_g,
                site_flat: Vec::new(),
                is_pad_site: Vec::new(),
                fixed,
                lattice: None,
                tier_cache,
                amplification: 1.0,
                voltages: vec![0.0; per],
                injection: vec![0.0; per],
                v0: Vec::new(),
                pillar_current: Vec::new(),
                mismatch: Vec::new(),
                correction: Vec::new(),
                last_good_v0: Vec::new(),
                last_good_correction: Vec::new(),
                anderson: Anderson::new(4, 0),
                batch: None,
            });
        }

        // Package power enters through the pillars: every pad must sit on a
        // pillar. Pillars *without* pads are allowed — their top terminals
        // are free nodes fed by the accumulated pillar current (the sparse
        // C4-bump topology of the IBM-derived benchmarks).
        let sites = stack.tsv_sites();
        let mut num_pad_sites = 0usize;
        let is_pad_site: Vec<bool> = sites
            .iter()
            .map(|&(x, y)| {
                let p = stack.is_pad(x as usize, y as usize);
                num_pad_sites += usize::from(p);
                p
            })
            .collect();
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
        let ns = site_flat.len();

        // Every tier pins every pillar terminal — this keeps the row-based
        // inner solves in their fast densely-pinned regime. Pad-less
        // pillars are closed by the VDA instead: their accumulated excess
        // current is redistributed over the pillar lattice (see
        // `PillarLattice`). The mask is identical on every tier, so all
        // tier engines share one allocation.
        let mut fixed = vec![false; per];
        for &s in &site_flat {
            fixed[s] = true;
        }
        let fixed: Arc<[bool]> = fixed.into();
        let tier_cache: Vec<CachedTier> = tier_g
            .iter()
            .map(|&(g_h, g_v)| CachedTier::new(w, h, g_h, g_v, fixed.clone(), parallelism, shards))
            .collect::<Result<_, _>>()?;
        let lattice = PillarLattice::build(stack, sites, &is_pad_site, parallelism)?;

        // Tier-solve errors are amplified into the propagated pad voltages
        // by roughly `1 + R_TSV · G_local · (tiers-1) · C` — each volt of
        // tier error perturbs a pillar's current by G_local, every TSV
        // segment adds R·ΔI, and a contiguous cluster of C pinned sites
        // accumulates its members' current errors. The inner tolerance is
        // tightened by this factor so the measured mismatch resolves below
        // ε even on very conductive grids and clustered TSV maps.
        let g_local_max = tier_g
            .iter()
            .map(|&(g_h, g_v)| 2.0 * g_h + 2.0 * g_v)
            .fold(0.0f64, f64::max);
        let cluster = largest_pillar_cluster(stack) as f64;
        let amplification =
            1.0 + stack.tsv_resistance() * g_local_max * (tiers as f64 - 1.0) * cluster;

        Ok(VpScratch {
            width: w,
            height: h,
            tiers,
            vdd: stack.vdd(),
            r_tsv: stack.tsv_resistance(),
            r_pad: stack.pad_resistance(),
            tier_g,
            site_flat,
            is_pad_site,
            fixed,
            lattice: Some(lattice),
            tier_cache,
            amplification,
            voltages: vec![0.0; per * tiers],
            injection: vec![0.0; per],
            v0: vec![0.0; ns],
            pillar_current: vec![0.0; ns],
            mismatch: vec![0.0; ns],
            correction: vec![0.0; ns],
            last_good_v0: vec![0.0; ns],
            last_good_correction: vec![0.0; ns],
            anderson: Anderson::new(4, ns),
            batch: None,
        })
    }

    /// A new scratch sharing this one's frozen half with fresh per-solve
    /// mutable state: the prefactored tier engines and the pillar
    /// lattice's coarse engine are shared through [`CachedTier::fork`]
    /// and [`PillarLattice::fork`] (no refactorization), the pin mask
    /// `Arc` is cloned, and every outer-loop buffer is freshly
    /// allocated. The batch arena starts empty and is sized
    /// lazily on the fork's first batched solve.
    ///
    /// Forks solve independently — two forks may run concurrently from
    /// different threads — and reproduce the original scratch's solves
    /// bitwise: [`run_single`] and [`run_batch`] re-initialize every
    /// buffer they read before using it.
    #[must_use]
    pub(crate) fn fork(&self) -> VpScratch {
        let ns = self.v0.len();
        VpScratch {
            width: self.width,
            height: self.height,
            tiers: self.tiers,
            vdd: self.vdd,
            r_tsv: self.r_tsv,
            r_pad: self.r_pad,
            tier_g: self.tier_g.clone(),
            site_flat: self.site_flat.clone(),
            is_pad_site: self.is_pad_site.clone(),
            fixed: Arc::clone(&self.fixed),
            lattice: self.lattice.as_ref().map(PillarLattice::fork),
            tier_cache: self.tier_cache.iter().map(CachedTier::fork).collect(),
            amplification: self.amplification,
            voltages: vec![0.0; self.voltages.len()],
            injection: vec![0.0; self.injection.len()],
            v0: vec![0.0; ns],
            pillar_current: vec![0.0; ns],
            mismatch: vec![0.0; ns],
            correction: vec![0.0; ns],
            last_good_v0: vec![0.0; ns],
            last_good_correction: vec![0.0; ns],
            anderson: Anderson::new(4, ns),
            batch: None,
        }
    }

    /// The solved per-node voltages of the most recent [`run_single`]
    /// call (flat tier-major).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The per-pillar package currents of the most recent solve (empty for
    /// single-tier stacks).
    pub fn pillar_currents(&self) -> &[f64] {
        &self.pillar_current
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
                    .zip(&self.site_flat)
                    .all(|(&(x, y), &s)| y as usize * w + x as usize == s)
                && sites
                    .iter()
                    .zip(&self.is_pad_site)
                    .all(|(&(x, y), &p)| stack.is_pad(x as usize, y as usize) == p)
        }
    }

    /// Estimated heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let ns_vectors = self.v0.len()
            + self.pillar_current.len()
            + self.mismatch.len()
            + self.correction.len()
            + self.last_good_v0.len()
            + self.last_good_correction.len();
        (self.voltages.len() + self.injection.len() + ns_vectors) * 8
            + self.fixed.len()
            + self.lattice.as_ref().map_or(0, PillarLattice::memory_bytes)
            + self
                .tier_cache
                .iter()
                .map(CachedTier::memory_bytes)
                .sum::<usize>()
            + self.anderson.memory_bytes()
            + self.batch.as_ref().map_or(0, BatchArena::memory_bytes)
    }

    /// Lane count of the most recent [`run_batch`] call (0 if no batched
    /// solve ran on this scratch yet).
    #[cfg(test)]
    pub fn batch_lanes(&self) -> usize {
        self.batch.as_ref().map_or(0, |b| b.k)
    }

    /// The lane-major batch result buffers of the most recent batched
    /// solve: `(voltages, pillar_currents, lanes)`. `None` until a
    /// batched solve ran on this scratch.
    pub(crate) fn batch_view(&self) -> Option<(&[f64], &[f64], usize)> {
        self.batch
            .as_ref()
            .map(|b| (&b.voltages[..], &b.pillar_current[..], b.k))
    }

    /// Number of pillar sites this scratch serves (0 for single-tier).
    pub(crate) fn num_sites(&self) -> usize {
        self.site_flat.len()
    }

    /// Number of grid nodes this scratch serves.
    #[cfg(test)]
    pub(crate) fn num_nodes(&self) -> usize {
        self.width * self.height * self.tiers
    }

    /// Prefactors a full set of transient companion tier engines against
    /// this scratch's geometry: tier `t`'s engine carries
    /// `alpha_c[t·per + site]` (the `α·C` grounded companion
    /// conductances, siemens, flat tier-major over all `nn` nodes) on its
    /// diagonal, sharing this scratch's pin mask. Built once per step
    /// size by the transient engine and then reused across every step —
    /// the same factor-once contract as the static tier cache.
    ///
    /// # Errors
    ///
    /// See [`CachedTier::new_companion`].
    pub(crate) fn build_companion_tiers(
        &self,
        alpha_c: &[f64],
        parallelism: usize,
        shards: usize,
    ) -> Result<Vec<CachedTier>, SolverError> {
        let per = self.width * self.height;
        self.tier_g
            .iter()
            .enumerate()
            .map(|(t, &(g_h, g_v))| {
                CachedTier::new_companion(
                    self.width,
                    self.height,
                    g_h,
                    g_v,
                    self.fixed.clone(),
                    Some(&alpha_c[t * per..(t + 1) * per]),
                    parallelism,
                    shards,
                )
            })
            .collect()
    }
}

/// The transient companion context of one voltage-propagation solve: the
/// companion-augmented tier factors (`G_tier + diag(α·C)`), the `α·C`
/// diagonal itself (needed by the pinned-site KCL), and the per-step
/// companion currents `i_eq` (absolute sign, positive into the node).
/// `None` in [`run_single`] is the static solve.
pub(crate) struct CompanionRef<'a> {
    /// Companion-augmented tier engines (from
    /// [`VpScratch::build_companion_tiers`]), one per tier.
    pub tiers: &'a mut [CachedTier],
    /// `α·C` per node (flat tier-major, `nn` entries, siemens).
    pub alpha_c: &'a [f64],
    /// Companion injections `i_eq` per node (flat tier-major, amperes).
    pub source: &'a [f64],
}

impl VpSolver {
    /// A solver with explicit configuration.
    pub fn new(config: VpConfig) -> Self {
        VpSolver { config }
    }
}

/// The single-load outer loop: runs the full voltage propagation method
/// inside a scratch that **must already match the stack's geometry**
/// (callers check; [`Session`](crate::Session) surfaces a mismatch as
/// `GeometryChanged`).
/// Zero heap allocations once the scratch (and, at `parallelism > 1`,
/// the worker pool) is warm, whether or not every pillar has a pad. The
/// request
/// [`Deadline`](crate::Deadline) is checked once per outer iteration —
/// the cooperative cancellation hook of this route.
pub(crate) fn run_single(
    params: &crate::SolveParams,
    stack: &Stack3d,
    net: NetKind,
    scratch: &mut VpScratch,
    deadline: crate::Deadline,
) -> Result<VpReport, SolverError> {
    run_single_dynamic(params, stack, net, stack.loads(), scratch, deadline, None)
}

/// [`run_single`] with an explicit load vector (the transient stepper
/// feeds waveform samples without mutating the stack) and an optional
/// transient [`CompanionRef`]: companion-augmented tier factors replace
/// the static ones, the companion currents join every tier's injection,
/// and the pinned-site KCL accounts for the `α·C` grounded conductance
/// (`+ α·C·v − i_eq`) so the propagated pillar currents solve the
/// companion system `(G + α·diag(C)) v = b`. The VDA feedback loop is
/// untouched — its fixed point is whatever system the tier solves and
/// the KCL describe.
#[allow(clippy::too_many_arguments)] // the full dynamic-solve surface
pub(crate) fn run_single_dynamic(
    params: &crate::SolveParams,
    stack: &Stack3d,
    net: NetKind,
    loads: &[f64],
    scratch: &mut VpScratch,
    deadline: crate::Deadline,
    companion: Option<CompanionRef<'_>>,
) -> Result<VpReport, SolverError> {
    let rail = match net {
        NetKind::Power => stack.vdd(),
        NetKind::Ground => 0.0,
    };
    let sign = match net {
        NetKind::Power => 1.0,
        NetKind::Ground => -1.0,
    };
    if scratch.tiers == 1 {
        // One opaque planar solve: check on entry, budget bounds the tail.
        deadline.check(0)?;
        return run_single_tier(params, loads, rail, sign, scratch, companion);
    }

    let (w, h, tiers) = (scratch.width, scratch.height, scratch.tiers);
    let per = w * h;
    let r_tsv = scratch.r_tsv;
    let r_pad = scratch.r_pad;
    let top = tiers - 1;
    let tight_tol = params.inner_tolerance / scratch.amplification;
    let mixed = params.precision.resolve() == crate::Precision::MixedF32;

    let VpScratch {
        site_flat,
        is_pad_site,
        lattice,
        tier_cache,
        tier_g,
        voltages: v,
        injection,
        v0,
        pillar_current,
        mismatch,
        correction,
        last_good_v0,
        last_good_correction,
        anderson,
        ..
    } = scratch;
    let lattice = lattice.as_mut().expect("multi-tier scratch has a lattice");
    // The companion context swaps in the augmented tier factors; the
    // `α·C` / `i_eq` slices stay empty on the static path so the hot
    // loops branch on one bool.
    let (tier_cache, comp_alpha_c, comp_source): (&mut [CachedTier], &[f64], &[f64]) =
        match companion {
            Some(c) => (c.tiers, c.alpha_c, c.source),
            None => (tier_cache, &[], &[]),
        };
    let dynamic = !comp_alpha_c.is_empty();

    v.fill(rail);
    v0.fill(rail);
    last_good_v0.fill(rail);
    last_good_correction.fill(0.0);
    anderson.reset();

    // Outer fixed-point accelerator (see `anderson`): the VDA step is
    // the residual, Anderson mixing combines the recent history. A
    // safeguard resets the history and falls back to a heavily damped
    // plain step if the mismatch ever inflates.
    let mut best_worst = f64::INFINITY;
    // Start in the paper's plain damped-mixing mode; escalate to
    // safeguarded Anderson mixing on divergence or plateau.
    let mut plain_mode = true;
    let mut vda = crate::VdaController::new(params.damping);
    let mut since_improvement = 0usize;
    // Learned stability scale for plain (history-less) steps: halved on
    // every rollback, recovering by 20% per accepted improvement. It
    // also damps Anderson's first step after a reset, so a reset cannot
    // immediately re-trigger the divergence that caused it.
    let mut stable_scale = params.damping;
    let mut inner_sweeps = 0usize;
    let mut outer = 0usize;
    let mut worst = f64::INFINITY;
    let mut converged = false;
    while outer < params.max_outer_iterations {
        deadline.check(outer)?;
        // Every pass runs at the tight tolerance. (A "progressive"
        // scheme that loosened early passes was tried and reverted: the
        // noisy mismatch measurements it produced destabilized the VDA
        // far beyond what the cheaper sweeps saved — warm starts
        // already make post-first-pass solves nearly free.)
        pillar_current.fill(0.0);
        for t in 0..tiers {
            // Phase 3 (voltage propagation): pin this tier's pillar
            // terminals — layer 0 from the VDA guesses, upper layers
            // from the accumulated pillar current through R_TSV.
            if t == 0 {
                for (k, &s) in site_flat.iter().enumerate() {
                    v[s] = v0[k];
                }
            } else {
                for (k, &s) in site_flat.iter().enumerate() {
                    v[t * per + s] = v[(t - 1) * per + s] + pillar_current[k] * r_tsv;
                }
            }
            // Phase 1 (intra-plane voltage calculation). The TSV
            // resistance is deliberately absent: pinned terminals carry
            // it in the propagation phase instead. The companion
            // currents i_eq join the injection in their absolute
            // (net-independent) sign.
            if dynamic {
                for i in 0..per {
                    injection[i] = -sign * loads[t * per + i] + comp_source[t * per + i];
                }
            } else {
                for i in 0..per {
                    injection[i] = -sign * loads[t * per + i];
                }
            }
            let tier_v = &mut v[t * per..(t + 1) * per];
            let rep = if mixed {
                tier_cache[t].solve_mixed_with_omega(
                    injection,
                    tier_v,
                    tight_tol,
                    params.max_inner_sweeps,
                    1.0,
                )?
            } else {
                tier_cache[t].solve(injection, tier_v, tight_tol, params.max_inner_sweeps)?
            };
            inner_sweeps += rep.iterations;
            // Phase 2 (TSV current computation): KCL at each pinned
            // terminal gives the current its pillar injects into this
            // tier; accumulate toward the package. After the top tier
            // the accumulator holds the current each pillar asks of the
            // package — which must be zero at pad-less pillars.
            let (gh, gv) = tier_g[t];
            for (k, &s) in site_flat.iter().enumerate() {
                let (x, y) = (s % w, s / w);
                let vj = tier_v[s];
                let mut out = sign * loads[t * per + s];
                if dynamic {
                    // The pinned node's own companion branch: its α·C
                    // grounded conductance draws α·C·v from the pillar
                    // and its companion source i_eq supplies current.
                    out += comp_alpha_c[t * per + s] * vj - comp_source[t * per + s];
                }
                if x > 0 {
                    out += gh * (vj - tier_v[s - 1]);
                }
                if x + 1 < w {
                    out += gh * (vj - tier_v[s + 1]);
                }
                if y > 0 {
                    out += gv * (vj - tier_v[s - w]);
                }
                if y + 1 < h {
                    out += gv * (vj - tier_v[s + w]);
                }
                pillar_current[k] += out;
            }
        }
        outer += 1;
        // Phase 4 (VDA): padded pillars report the voltage gap between
        // their propagated top voltage and the rail (shifted by the pad
        // drop when pads are resistive); pad-less pillars report the
        // current they wrongly ask of the package. The lattice
        // redistributes both — the paper's "distributing the resulting
        // voltage difference" — into per-pillar voltage corrections.
        for (k, &s) in site_flat.iter().enumerate() {
            mismatch[k] = if is_pad_site[k] {
                let target = rail - pillar_current[k] * r_pad;
                target - v[top * per + s]
            } else {
                pillar_current[k] // amperes of excess, not volts
            };
        }
        worst = lattice.correction(mismatch, correction);
        // Only a pass whose tier solves ran at the tight tolerance may
        // declare convergence; a loose pass that lands under ε simply
        // makes the next (tight) pass cheap.
        if worst < params.epsilon {
            converged = true;
            break;
        }
        if worst <= best_worst {
            last_good_v0.copy_from_slice(v0);
            last_good_correction.copy_from_slice(correction);
            since_improvement = 0;
        } else {
            since_improvement += 1;
        }
        if plain_mode {
            // The paper's VDA: plain damped mixing, halving the gain
            // when the mismatch grows (the contraction principle). This
            // converges in a handful of outers on benchmark topologies;
            // if it diverges or plateaus, hand the loop to the
            // accelerated mode below.
            if worst > 10.0 * best_worst.min(1e3) || since_improvement > 8 {
                plain_mode = false;
                since_improvement = 0;
                v0.copy_from_slice(last_good_v0);
                stable_scale = 0.25 * params.damping;
                for (g, c) in v0.iter_mut().zip(&*last_good_correction) {
                    *g += stable_scale * c;
                }
            } else {
                vda.apply(v0, correction);
            }
        } else if worst > 2.0 * best_worst {
            // Accelerated mode safeguard: roll back to the best
            // iterate, forget the mixing history, halve the stability
            // scale, and retry with the damped plain step.
            anderson.reset();
            stable_scale = (stable_scale * 0.5).max(1e-3);
            v0.copy_from_slice(last_good_v0);
            for (g, c) in v0.iter_mut().zip(&*last_good_correction) {
                *g += stable_scale * c;
            }
        } else {
            if worst <= best_worst {
                stable_scale = (stable_scale * 1.5).min(params.damping);
            }
            anderson.step(v0, correction, stable_scale);
        }
        // The reference decays by 15% per outer so that one lucky
        // transient cannot veto every later state (which deadlocks the
        // safeguard in a rollback limit cycle); sustained growth is
        // still caught.
        best_worst = best_worst.min(worst) * if plain_mode { 1.0 } else { 1.15 };
    }
    if converged {
        return Ok(VpReport {
            outer_iterations: outer,
            inner_sweeps,
            pad_mismatch: worst,
            final_beta: params.damping,
            converged: true,
            // Reported uniformly on every return path (the scratch
            // *is* the solver workspace).
            workspace_bytes: scratch.memory_bytes(),
        });
    }
    Err(SolverError::DidNotConverge {
        iterations: outer,
        residual: worst,
        tolerance: params.epsilon,
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
    for (i, &a) in loads.iter().enumerate() {
        if !a.is_finite() || a < 0.0 {
            return Err(SolverError::Unsupported {
                what: format!("load {a} at batch index {i} is not a finite, non-negative current"),
            });
        }
    }
    Ok(loads.len() / nn)
}

/// The batched outer loop: validates the load set, (re)sizes the batch
/// arena for the lane count, and runs every lane in lockstep through the
/// shared tier factors. The scratch **must already match the stack's
/// geometry** (callers check). Warm calls with an unchanged lane count
/// perform no heap allocation, sparse-pad stacks included. The
/// [`Deadline`](crate::Deadline) is
/// checked once per lockstep outer pass (it governs the whole batch).
pub(crate) fn run_batch(
    params: &crate::SolveParams,
    stack: &Stack3d,
    net: NetKind,
    loads: &[f64],
    scratch: &mut VpScratch,
    reports: &mut Vec<VpReport>,
    deadline: crate::Deadline,
) -> Result<(), SolverError> {
    let k = validate_loads(stack.num_nodes(), loads)?;
    let per = scratch.width * scratch.height;
    let ns = scratch.site_flat.len();
    if scratch.batch.as_ref().is_none_or(|b| b.k != k) {
        scratch.batch = Some(BatchArena::new(k, per, scratch.tiers, ns, params.damping));
    }
    let rail = match net {
        NetKind::Power => stack.vdd(),
        NetKind::Ground => 0.0,
    };
    let sign = match net {
        NetKind::Power => 1.0,
        NetKind::Ground => -1.0,
    };
    if scratch.tiers == 1 {
        // One opaque batched solve: check on entry, budget bounds the tail.
        deadline.check(0)?;
        run_batch_single_tier(params, rail, sign, loads, k, scratch, reports)
    } else {
        run_batch_multi(params, rail, sign, loads, k, scratch, reports, deadline)
    }
}

/// Single-tier batched path: one batched row-based solve with the
/// pads pinned at the rail (per-lane reports mirror
/// [`run_single_tier`]).
fn run_batch_single_tier(
    params: &crate::SolveParams,
    rail: f64,
    sign: f64,
    loads: &[f64],
    k: usize,
    scratch: &mut VpScratch,
    reports: &mut Vec<VpReport>,
) -> Result<(), SolverError> {
    let per = scratch.width * scratch.height;
    {
        let VpScratch {
            tier_cache, batch, ..
        } = scratch;
        let arena = batch.as_mut().expect("batch arena sized");
        arena.reset(params.damping);
        arena.v.fill(rail);
        fill_injection(&mut arena.injection, loads, per, 0, -sign, &arena.mask);
        if params.precision.resolve() == crate::Precision::MixedF32 {
            tier_cache[0].solve_batch_masked_mixed(
                &arena.injection,
                &mut arena.v,
                params.inner_tolerance,
                params.max_inner_sweeps,
                params.sor_omega,
                None,
                &mut arena.lanes,
            )?;
        } else {
            tier_cache[0].solve_batch_masked(
                &arena.injection,
                &mut arena.v,
                params.inner_tolerance,
                params.max_inner_sweeps,
                params.sor_omega,
                None,
                &mut arena.lanes,
            )?;
        }
        deinterleave(&arena.v, &mut arena.voltages, k);
    }
    let ws = scratch.memory_bytes();
    let arena = scratch.batch.as_ref().expect("batch arena sized");
    reports.clear();
    reports.extend(arena.lanes.iter().map(|l| VpReport {
        outer_iterations: 1,
        inner_sweeps: l.iterations,
        pad_mismatch: l.residual,
        final_beta: params.damping,
        converged: l.converged,
        workspace_bytes: ws,
    }));
    Ok(())
}

/// Multi-tier batched path: every lane runs the propagation/VDA outer
/// loop of [`run_single`] in lockstep, sharing each tier's
/// batched inner solve. Per-lane scalar state lives in the arena's
/// [`LaneOuterState`]; a lane that converges (or fails a budget) is
/// masked out of all later tier solves, so its iterate — bitwise
/// identical to the sequential solve — is never touched again.
#[allow(clippy::too_many_arguments)] // mirrors run_batch's surface
fn run_batch_multi(
    params: &crate::SolveParams,
    rail: f64,
    sign: f64,
    loads: &[f64],
    k: usize,
    scratch: &mut VpScratch,
    reports: &mut Vec<VpReport>,
    deadline: crate::Deadline,
) -> Result<(), SolverError> {
    let (w, h, tiers) = (scratch.width, scratch.height, scratch.tiers);
    let per = w * h;
    let nn = per * tiers;
    let ns = scratch.site_flat.len();
    let r_tsv = scratch.r_tsv;
    let r_pad = scratch.r_pad;
    let top = tiers - 1;
    let tight_tol = params.inner_tolerance / scratch.amplification;
    let eps = params.epsilon;
    let damping = params.damping;
    let mixed = params.precision.resolve() == crate::Precision::MixedF32;
    {
        let VpScratch {
            site_flat,
            is_pad_site,
            lattice,
            tier_cache,
            tier_g,
            batch,
            ..
        } = scratch;
        let lattice = lattice.as_mut().expect("multi-tier scratch has a lattice");
        let arena = batch.as_mut().expect("batch arena sized");
        arena.reset(damping);
        arena.v.fill(rail);
        arena.v0.fill(rail);
        arena.last_good_v0.fill(rail);
        arena.last_good_correction.fill(0.0);

        let mut n_running = k;
        let mut outer = 0usize;
        while outer < params.max_outer_iterations && n_running > 0 {
            deadline.check(outer)?;
            for j in 0..k {
                if arena.mask[j] {
                    arena.pillar_current[j * ns..(j + 1) * ns].fill(0.0);
                }
            }
            for t in 0..tiers {
                // Phase 3 (voltage propagation): pin this tier's pillar
                // terminals per running lane. The batch buffers are
                // node-major/lane-minor, so these loops (and the KCL
                // below) walk nodes outside and lanes inside.
                let mask = &arena.mask;
                if t == 0 {
                    for (kk, &s) in site_flat.iter().enumerate() {
                        let row = &mut arena.v[s * k..(s + 1) * k];
                        for j in 0..k {
                            if mask[j] {
                                row[j] = arena.v0[j * ns + kk];
                            }
                        }
                    }
                } else {
                    let (below, here) = arena.v.split_at_mut(t * per * k);
                    let below = &below[(t - 1) * per * k..];
                    for (kk, &s) in site_flat.iter().enumerate() {
                        let (src, dst) =
                            (&below[s * k..(s + 1) * k], &mut here[s * k..(s + 1) * k]);
                        for j in 0..k {
                            if mask[j] {
                                dst[j] = src[j] + arena.pillar_current[j * ns + kk] * r_tsv;
                            }
                        }
                    }
                }
                // Phase 1 (intra-plane): batched row-based solve of
                // this tier for every running lane.
                fill_injection(&mut arena.injection, loads, nn, t * per, -sign, mask);
                let tier_v = &mut arena.v[t * per * k..(t + 1) * per * k];
                if mixed {
                    tier_cache[t].solve_batch_masked_mixed(
                        &arena.injection,
                        tier_v,
                        tight_tol,
                        params.max_inner_sweeps,
                        1.0,
                        Some(&arena.mask),
                        &mut arena.lanes,
                    )?;
                } else {
                    tier_cache[t].solve_batch_masked(
                        &arena.injection,
                        tier_v,
                        tight_tol,
                        params.max_inner_sweeps,
                        1.0,
                        Some(&arena.mask),
                        &mut arena.lanes,
                    )?;
                }
                for j in 0..k {
                    if !arena.mask[j] {
                        continue;
                    }
                    arena.state[j].inner_sweeps += arena.lanes[j].iterations;
                    if !arena.lanes[j].converged {
                        // The sequential path would abort this load
                        // with `DidNotConverge`; the batch freezes the
                        // lane and reports its true inner residual.
                        // `outer + 1` counts the pass it died in, like
                        // the other outcomes recorded post-increment.
                        arena.state[j].worst = arena.lanes[j].residual;
                        arena.state[j].outcome = Some((outer + 1, false));
                        arena.mask[j] = false;
                        n_running -= 1;
                    }
                }
                // Phase 2 (TSV current computation) per running lane.
                let (gh, gv) = tier_g[t];
                let tier_v = &arena.v[t * per * k..(t + 1) * per * k];
                for (kk, &s) in site_flat.iter().enumerate() {
                    let (x, y) = (s % w, s / w);
                    for j in 0..k {
                        if !arena.mask[j] {
                            continue;
                        }
                        let vj = tier_v[s * k + j];
                        let mut out = sign * loads[j * nn + t * per + s];
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
            // Phase 4 (VDA + mixing) per running lane — the scalar
            // logic of `run_single`, verbatim, on the lane's slices. The
            // mismatches come first, in one node-outer pass over the top
            // tier.
            let top_v = &arena.v[top * per * k..];
            for (kk, &s) in site_flat.iter().enumerate() {
                for j in 0..k {
                    if !arena.mask[j] {
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
                if !arena.mask[j] {
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
                if st.plain_mode {
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
                st.best_worst = st.best_worst.min(worst) * if st.plain_mode { 1.0 } else { 1.15 };
            }
        }
        // Lanes still running exhausted the outer budget.
        for j in 0..k {
            if arena.mask[j] {
                arena.state[j].outcome = Some((outer, false));
                arena.mask[j] = false;
            }
        }
        deinterleave(&arena.v, &mut arena.voltages, k);
    }
    let ws = scratch.memory_bytes();
    let arena = scratch.batch.as_ref().expect("batch arena sized");
    reports.clear();
    reports.extend(arena.state.iter().map(|st| {
        let (outer_iterations, converged) = st.outcome.expect("every lane resolved");
        VpReport {
            outer_iterations,
            inner_sweeps: st.inner_sweeps,
            pad_mismatch: st.worst,
            final_beta: damping,
            converged,
            workspace_bytes: ws,
        }
    }));
    Ok(())
}

/// Single-tier special case: pads pinned at the rail, one row-based
/// solve (the planar method the paper builds on).
///
/// There is no propagation loop here, so `pad_mismatch` reports the
/// inner solve's final residual (its largest per-sweep voltage
/// update) and `converged` its actual status — a sweep budget that
/// runs out comes back as `converged = false` with the true residual,
/// not as an error.
fn run_single_tier(
    params: &crate::SolveParams,
    loads: &[f64],
    rail: f64,
    sign: f64,
    scratch: &mut VpScratch,
    companion: Option<CompanionRef<'_>>,
) -> Result<VpReport, SolverError> {
    let per = scratch.width * scratch.height;
    let VpScratch {
        tier_cache,
        voltages,
        injection,
        ..
    } = scratch;
    voltages.fill(rail);
    for (inj, load) in injection.iter_mut().zip(&loads[..per]) {
        *inj = -sign * load;
    }
    // On the planar path every companion site is either free (its α·C
    // lives in the augmented factors, its i_eq in the injection) or a
    // pad pinned at the rail (where the companion branch is inert), so
    // only the factors and the injection change.
    let tier_cache: &mut [CachedTier] = match companion {
        Some(c) => {
            for (inj, src) in injection.iter_mut().zip(&c.source[..per]) {
                *inj += src;
            }
            c.tiers
        }
        None => tier_cache,
    };
    let mixed = params.precision.resolve() == crate::Precision::MixedF32;
    let attempt = if mixed {
        tier_cache[0].solve_mixed_with_omega(
            injection,
            voltages,
            params.inner_tolerance,
            params.max_inner_sweeps,
            params.sor_omega,
        )
    } else {
        tier_cache[0].solve_with_omega(
            injection,
            voltages,
            params.inner_tolerance,
            params.max_inner_sweeps,
            params.sor_omega,
        )
    };
    let rep = match attempt {
        Ok(rep) => rep,
        Err(SolverError::DidNotConverge {
            iterations,
            residual,
            ..
        }) => SolveReport {
            iterations,
            residual,
            converged: false,
            workspace_bytes: 0,
        },
        Err(e) => return Err(e),
    };
    Ok(VpReport {
        outer_iterations: 1,
        inner_sweeps: rep.iterations,
        pad_mismatch: rep.residual,
        final_beta: params.damping,
        converged: rep.converged,
        workspace_bytes: scratch.memory_bytes(),
    })
}

/// Nodes per block of the lane-major ↔ node-major batch transposes: a
/// block's node-major tile (`64 × k` values, 8 KiB at k = 16) stays in
/// L1 while each lane's contiguous run streams through it.
const TRANSPOSE_BLOCK: usize = 64;

/// Stages `scale · loads` of every lane `mask` marks running into the
/// node-major/lane-minor `injection` (`injection[i * k + j]`), reading
/// lane `j`'s `injection.len() / k` loads contiguously from
/// `loads[j * nn + offset..]` (lane-major, `nn` per lane). A blocked
/// transpose: each element is the same single multiply as a plain
/// strided loop, so the staged bits do not depend on the blocking.
fn fill_injection(
    injection: &mut [f64],
    loads: &[f64],
    nn: usize,
    offset: usize,
    scale: f64,
    mask: &[bool],
) {
    let k = mask.len();
    let per = injection.len() / k;
    for i0 in (0..per).step_by(TRANSPOSE_BLOCK) {
        let i1 = (i0 + TRANSPOSE_BLOCK).min(per);
        let tile = &mut injection[i0 * k..i1 * k];
        for j in (0..k).filter(|&j| mask[j]) {
            let run = &loads[j * nn + offset + i0..j * nn + offset + i1];
            for (ii, &l) in run.iter().enumerate() {
                tile[ii * k + j] = scale * l;
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
        Ok(StackSolution {
            voltages: std::mem::take(&mut scratch.voltages),
            report: report.to_solve_report(),
        })
    }

    fn solver_name(&self) -> &'static str {
        "voltage-propagation"
    }
}
#[cfg(test)]
mod tests {
    // These unit tests exercise the engine loops (`run_single`,
    // `run_batch`) directly on a `VpScratch` — the layer below
    // `Session`, whose routing is covered by `session.rs` and the root
    // integration tests. The former deprecated `VpSolver` shims were
    // removed; see MIGRATION.md.
    use super::*;
    use crate::Deadline;
    use voltprop_grid::{LoadProfile, TsvPattern};
    use voltprop_solvers::{residual, DirectCholesky};

    const HALF_MV: f64 = 5e-4; // the paper's accuracy budget

    /// Builds a scratch and runs the single-load engine loop on it.
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
            crate::Deadline::NONE,
        )?;
        Ok((scratch, report))
    }

    /// Lane `lane`'s voltages from the most recent batched solve.
    fn lane_voltages(scratch: &VpScratch, lane: usize) -> &[f64] {
        let (v, _, k) = scratch.batch_view().expect("batched solve ran");
        assert!(lane < k);
        let nn = scratch.num_nodes();
        &v[lane * nn..(lane + 1) * nn]
    }

    /// Lane `lane`'s pillar currents from the most recent batched solve.
    fn lane_pillar_currents(scratch: &VpScratch, lane: usize) -> &[f64] {
        let (_, c, k) = scratch.batch_view().expect("batched solve ran");
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
        let stack = Stack3d::builder(12, 12, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                5,
            )
            .build()
            .unwrap();
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
        let stack = Stack3d::builder(10, 10, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                9,
            )
            .build()
            .unwrap();
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
        let stack = Stack3d::builder(12, 12, 1)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                2,
            )
            .build()
            .unwrap();
        let (scratch, report, _) = assert_matches_direct(&stack, NetKind::Power);
        assert_eq!(report.outer_iterations, 1);
        assert!(scratch.pillar_currents().is_empty());
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
        let delivered: f64 = scratch.pillar_currents().iter().sum();
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
        // no assembled matrix. ~9 f64-sized arrays per node, plus the
        // mixed-precision path's f32 shadow factors and residual diagonal
        // (~2.5 more f64-equivalents), is the cap.
        let stack = Stack3d::builder(20, 20, 3)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let (_, report) = solve_fresh(&VpConfig::default(), &stack, NetKind::Power).unwrap();
        let per_node = report.workspace_bytes as f64 / stack.num_nodes() as f64;
        assert!(per_node < 11.5 * 8.0, "workspace {per_node} bytes/node");
    }

    #[test]
    fn parallel_solve_matches_sequential_on_multi_tier_stack() {
        // The parallelism knob must not change the answer: red-black
        // parallel tier sweeps and the sequential schedule both converge
        // to the same solution within solver tolerance.
        let stack = Stack3d::builder(14, 12, 4)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                21,
            )
            .build()
            .unwrap();
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
        let stack_a = Stack3d::builder(10, 10, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                5,
            )
            .build()
            .unwrap();
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
        assert_eq!(scratch.pillar_currents(), fresh.pillar_currents());

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
        let mut reports = Vec::new();
        run_batch(
            &params,
            stack,
            NetKind::Power,
            &loads,
            &mut scratch,
            &mut reports,
            Deadline::NONE,
        )
        .unwrap();
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
                solo_scratch.pillar_currents(),
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
        let stack = Stack3d::builder(10, 10, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                5,
            )
            .build()
            .unwrap();
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
        let stack = Stack3d::builder(12, 12, 1)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                2,
            )
            .build()
            .unwrap();
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
        let params = config.solve_params();
        let loads = load_sweep(&stack, 3);
        let mut scratch = VpScratch::new(&stack, &config).unwrap();
        let mut reports = Vec::new();
        run_batch(
            &params,
            &stack,
            NetKind::Power,
            &loads,
            &mut scratch,
            &mut reports,
            Deadline::NONE,
        )
        .unwrap();
        assert_eq!(scratch.batch_lanes(), 3);
        let first: Vec<Vec<f64>> = (0..3)
            .map(|j| lane_voltages(&scratch, j).to_vec())
            .collect();
        // Second call reuses the arena and reproduces the solution.
        run_batch(
            &params,
            &stack,
            NetKind::Power,
            &loads,
            &mut scratch,
            &mut reports,
            Deadline::NONE,
        )
        .unwrap();
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
        let params = config.solve_params();
        let mut scratch = VpScratch::new(&stack, &config).unwrap();
        let mut reports = Vec::new();
        let nn = stack.num_nodes();
        for bad in [
            vec![],
            vec![1e-4; nn + 1],
            vec![-1e-4; nn],
            vec![f64::NAN; nn],
        ] {
            assert!(
                matches!(
                    run_batch(
                        &params,
                        &stack,
                        NetKind::Power,
                        &bad,
                        &mut scratch,
                        &mut reports,
                        Deadline::NONE
                    ),
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
        let mut reports = Vec::new();
        run_batch(
            &config.solve_params(),
            &stack,
            NetKind::Power,
            &load_sweep(&stack, 2),
            &mut scratch,
            &mut reports,
            Deadline::NONE,
        )
        .unwrap();
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
