use crate::{loads::first_invalid, GridError, LoadProfile};

/// Which supply net of the power delivery network is being analyzed.
///
/// A resistive-only PDN decouples into two independent linear systems; the
/// ground net is the mirror image of the power net (pads at 0 V, device
/// currents injected *into* the net).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetKind {
    /// The VDD net: pads at `vdd`, devices draw current out of the net.
    #[default]
    Power,
    /// The ground net: pads at 0 V, devices push current into the net.
    Ground,
}

/// Where TSV pillars are placed on the tier footprint.
#[derive(Debug, Clone, PartialEq)]
pub enum TsvPattern {
    /// A TSV at every node whose x and y are both multiples of `pitch`.
    ///
    /// `pitch: 2` gives the paper's "one TSV node for every four nodes".
    Uniform {
        /// Spacing between TSV sites in nodes; must be ≥ 1.
        pitch: usize,
    },
    /// `count` TSVs at uniformly random distinct sites (seeded).
    Random {
        /// Number of pillars.
        count: usize,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// TSVs packed into square clusters around given centers.
    Clustered {
        /// Cluster centers `(x, y)`.
        centers: Vec<(usize, usize)>,
        /// Half-width of each square cluster in nodes.
        radius: usize,
    },
    /// Explicit list of TSV sites.
    Explicit(Vec<(usize, usize)>),
}

/// A TSV-based 3-D power grid: `tiers` stacked `width`×`height` resistive
/// meshes, joined by vertical TSV pillars at selected `(x, y)` sites, with
/// package pads on the *topmost* tier and per-node DC current loads.
///
/// Tier 0 is the **bottommost** tier — the one farthest from the package —
/// matching the paper's convention that voltage propagation starts at
/// layer 0 and walks toward the pads.
///
/// Nodes are indexed flat, tier-major: `(tier * height + y) * width + x`.
///
/// # Example
///
/// ```
/// use voltprop_grid::{Stack3d, TsvPattern};
///
/// # fn main() -> Result<(), voltprop_grid::GridError> {
/// let stack = Stack3d::builder(4, 4, 3)
///     .wire_resistance(0.02)
///     .tsv_resistance(0.05)
///     .tsv_pattern(TsvPattern::Uniform { pitch: 2 })
///     .uniform_load(1e-4)
///     .build()?;
/// assert_eq!(stack.num_nodes(), 48);
/// assert_eq!(stack.tsv_sites().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Stack3d {
    width: usize,
    height: usize,
    tiers: usize,
    /// Horizontal (along-x) segment resistance per tier, ohms.
    r_h: Vec<f64>,
    /// Vertical (along-y) segment resistance per tier, ohms.
    r_v: Vec<f64>,
    /// TSV segment resistance between adjacent tiers, ohms.
    r_tsv: f64,
    /// Pad resistance (0 = ideal Dirichlet pad), ohms.
    r_pad: f64,
    /// `width*height` mask of pillar sites; pillars span every interface.
    tsv_mask: Vec<bool>,
    /// Cached ordered list of pillar sites.
    tsv_sites: Vec<(u32, u32)>,
    /// `width*height` mask of pad sites on the top tier.
    pad_mask: Vec<bool>,
    /// Per-node load current (A), flat tier-major; ≥ 0.
    loads: Vec<f64>,
    /// Per-node capacitance to ground (F), flat tier-major; empty for a
    /// resistive-only stack (the pre-transient model, and the default).
    caps: Vec<f64>,
    /// Supply voltage (V).
    vdd: f64,
}

impl Stack3d {
    /// Starts building a stack with the given footprint and tier count.
    pub fn builder(width: usize, height: usize, tiers: usize) -> StackBuilder {
        StackBuilder::new(width, height, tiers)
    }

    /// Footprint width in nodes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Footprint height in nodes.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of stacked tiers.
    pub fn tiers(&self) -> usize {
        self.tiers
    }

    /// Total node count `width * height * tiers`.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height * self.tiers
    }

    /// Nodes per tier.
    pub fn nodes_per_tier(&self) -> usize {
        self.width * self.height
    }

    /// Supply voltage.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// TSV segment resistance (Ω) between adjacent tiers.
    pub fn tsv_resistance(&self) -> f64 {
        self.r_tsv
    }

    /// Pad resistance (Ω); `0.0` means ideal pads.
    pub fn pad_resistance(&self) -> f64 {
        self.r_pad
    }

    /// Horizontal segment resistance of `tier` (Ω).
    ///
    /// # Panics
    ///
    /// Panics if `tier >= self.tiers()`.
    pub fn r_horizontal(&self, tier: usize) -> f64 {
        self.r_h[tier]
    }

    /// Vertical segment resistance of `tier` (Ω).
    ///
    /// # Panics
    ///
    /// Panics if `tier >= self.tiers()`.
    pub fn r_vertical(&self, tier: usize) -> f64 {
        self.r_v[tier]
    }

    /// Flat node index of `(tier, x, y)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the coordinate is out of range.
    #[inline]
    pub fn node_index(&self, tier: usize, x: usize, y: usize) -> usize {
        debug_assert!(tier < self.tiers && x < self.width && y < self.height);
        (tier * self.height + y) * self.width + x
    }

    /// Inverse of [`Stack3d::node_index`].
    pub fn node_coords(&self, index: usize) -> (usize, usize, usize) {
        let per_tier = self.nodes_per_tier();
        let tier = index / per_tier;
        let rem = index % per_tier;
        (tier, rem % self.width, rem / self.width)
    }

    /// Whether a TSV pillar passes through footprint site `(x, y)`.
    #[inline]
    pub fn is_tsv(&self, x: usize, y: usize) -> bool {
        self.tsv_mask[y * self.width + x]
    }

    /// Whether the top tier has a pad at `(x, y)`.
    #[inline]
    pub fn is_pad(&self, x: usize, y: usize) -> bool {
        self.pad_mask[y * self.width + x]
    }

    /// Ordered list of pillar sites.
    pub fn tsv_sites(&self) -> &[(u32, u32)] {
        &self.tsv_sites
    }

    /// Ordered list of pad sites on the top tier.
    pub fn pad_sites(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for y in 0..self.height {
            for x in 0..self.width {
                if self.pad_mask[y * self.width + x] {
                    v.push((x as u32, y as u32));
                }
            }
        }
        v
    }

    /// Number of pads.
    pub fn num_pads(&self) -> usize {
        self.pad_mask.iter().filter(|&&p| p).count()
    }

    /// The load current drawn at `(tier, x, y)` in amperes.
    pub fn load(&self, tier: usize, x: usize, y: usize) -> f64 {
        self.loads[self.node_index(tier, x, y)]
    }

    /// All load currents, flat tier-major.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Replaces the load vector.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidLoad`] if any entry is negative or
    /// non-finite, and [`GridError::InvalidDimension`] if the length is not
    /// `num_nodes()`.
    pub fn set_loads(&mut self, loads: Vec<f64>) -> Result<(), GridError> {
        if loads.len() != self.num_nodes() {
            return Err(GridError::InvalidDimension {
                what: "load vector length",
                value: loads.len(),
            });
        }
        if let Some(node) = first_invalid(&loads) {
            return Err(GridError::InvalidLoad {
                node,
                amps: loads[node],
            });
        }
        self.loads = loads;
        Ok(())
    }

    /// Total current drawn by all loads (A).
    pub fn total_load(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Whether the stack carries any capacitance — i.e. whether transient
    /// analysis sees real grid dynamics. A resistive-only stack (the
    /// default) has none; every node then responds instantaneously.
    pub fn has_dynamics(&self) -> bool {
        !self.caps.is_empty()
    }

    /// Per-node capacitance to ground (F), flat tier-major, or `None` for
    /// a resistive-only stack. Includes grid capacitance, decap cells, and
    /// package/pad capacitance, summed per node at build time.
    pub fn capacitances(&self) -> Option<&[f64]> {
        (!self.caps.is_empty()).then_some(&self.caps[..])
    }

    /// The capacitance to ground at `(tier, x, y)` in farads (`0.0` for a
    /// resistive-only stack).
    pub fn capacitance(&self, tier: usize, x: usize, y: usize) -> f64 {
        if self.caps.is_empty() {
            0.0
        } else {
            self.caps[self.node_index(tier, x, y)]
        }
    }

    /// Total capacitance hanging on the net (F).
    pub fn total_capacitance(&self) -> f64 {
        self.caps.iter().sum()
    }

    /// Estimated heap footprint of the model itself in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.loads.len() * 8
            + self.caps.len() * 8
            + self.tsv_mask.len()
            + self.pad_mask.len()
            + self.tsv_sites.len() * 8
            + (self.r_h.len() + self.r_v.len()) * 8
    }
}

/// Builder for [`Stack3d`] (see [`Stack3d::builder`]).
///
/// Defaults: wire segment resistance 1 Ω (typical of the IBM benchmark
/// grids, and 20× the TSV resistance — the paper's premise that TSVs are
/// far more conductive than wires), TSV resistance 0.05 Ω (the paper's
/// value), ideal pads at every TSV site, uniform TSVs at pitch 2 (one TSV
/// node per four nodes, as in the paper's benchmarks), zero loads,
/// VDD = 1.8 V.
#[derive(Debug, Clone)]
pub struct StackBuilder {
    width: usize,
    height: usize,
    tiers: usize,
    r_h: Vec<f64>,
    r_v: Vec<f64>,
    r_tsv: f64,
    r_pad: f64,
    tsv_pattern: TsvPattern,
    pad_sites: Option<Vec<(usize, usize)>>,
    pad_lattice: Option<usize>,
    loads: Option<Vec<f64>>,
    load_profile: Option<(LoadProfile, u64)>,
    c_grid: f64,
    c_tier: Vec<Option<f64>>,
    c_pad: f64,
    decaps: Vec<(usize, usize, usize, f64)>,
    caps: Option<Vec<f64>>,
    vdd: f64,
}

impl StackBuilder {
    fn new(width: usize, height: usize, tiers: usize) -> Self {
        StackBuilder {
            width,
            height,
            tiers,
            r_h: vec![1.0; tiers],
            r_v: vec![1.0; tiers],
            r_tsv: 0.05,
            r_pad: 0.0,
            tsv_pattern: TsvPattern::Uniform { pitch: 2 },
            pad_sites: None,
            pad_lattice: None,
            loads: None,
            load_profile: None,
            c_grid: 0.0,
            c_tier: vec![None; tiers],
            c_pad: 0.0,
            decaps: Vec::new(),
            caps: None,
            vdd: 1.8,
        }
    }

    /// Sets both horizontal and vertical wire segment resistance for all
    /// tiers.
    pub fn wire_resistance(mut self, ohms: f64) -> Self {
        self.r_h = vec![ohms; self.tiers];
        self.r_v = vec![ohms; self.tiers];
        self
    }

    /// Sets the wire resistances of one tier (anisotropic meshes, or tiers
    /// fabricated in different metal stacks).
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range.
    pub fn tier_resistance(mut self, tier: usize, r_h: f64, r_v: f64) -> Self {
        self.r_h[tier] = r_h;
        self.r_v[tier] = r_v;
        self
    }

    /// Sets the TSV segment resistance (Ω).
    pub fn tsv_resistance(mut self, ohms: f64) -> Self {
        self.r_tsv = ohms;
        self
    }

    /// Sets the pad resistance (Ω); `0.0` (the default) models ideal pads.
    pub fn pad_resistance(mut self, ohms: f64) -> Self {
        self.r_pad = ohms;
        self
    }

    /// Chooses where TSV pillars are placed.
    pub fn tsv_pattern(mut self, pattern: TsvPattern) -> Self {
        self.tsv_pattern = pattern;
        self
    }

    /// Places pads at an explicit list of top-tier sites instead of the
    /// default (a pad above every TSV pillar).
    pub fn pad_sites(mut self, sites: Vec<(usize, usize)>) -> Self {
        self.pad_sites = Some(sites);
        self.pad_lattice = None;
        self
    }

    /// Places pads only at TSV sites on a coarse `pitch × pitch` lattice —
    /// the sparse C4-bump layout of package-fed grids. Overridden by
    /// [`StackBuilder::pad_sites`].
    pub fn pad_lattice(mut self, pitch: usize) -> Self {
        self.pad_lattice = Some(pitch);
        self.pad_sites = None;
        self
    }

    /// Attaches the same load current (A) to every non-TSV node.
    pub fn uniform_load(mut self, amps: f64) -> Self {
        self.load_profile = Some((LoadProfile::Constant(amps), 0));
        self.loads = None;
        self
    }

    /// Generates loads from a [`LoadProfile`] with the given seed.
    pub fn load_profile(mut self, profile: LoadProfile, seed: u64) -> Self {
        self.load_profile = Some((profile, seed));
        self.loads = None;
        self
    }

    /// Supplies an explicit per-node load vector (flat tier-major,
    /// `width*height*tiers` entries).
    pub fn loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = Some(loads);
        self.load_profile = None;
        self
    }

    /// Attaches the same capacitance to ground (F) to every node of every
    /// tier — the distributed on-die grid capacitance (device + wire).
    /// Zero (the default) keeps the stack resistive-only.
    pub fn grid_capacitance(mut self, farads: f64) -> Self {
        self.c_grid = farads;
        self
    }

    /// Overrides the per-node grid capacitance of one tier (tiers
    /// fabricated in different processes, or an interposer tier).
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range.
    pub fn tier_capacitance(mut self, tier: usize, farads: f64) -> Self {
        self.c_tier[tier] = Some(farads);
        self
    }

    /// Adds an explicit decap cell (F) at `(tier, x, y)`, on top of the
    /// grid capacitance. Repeated calls on the same node accumulate.
    pub fn decap(mut self, tier: usize, x: usize, y: usize, farads: f64) -> Self {
        self.decaps.push((tier, x, y, farads));
        self
    }

    /// Adds package/pad capacitance (F) at every pad site on the top tier.
    ///
    /// Only meaningful with resistive pads (a positive
    /// [`StackBuilder::pad_resistance`]): an ideal pad is a Dirichlet node
    /// pinned to the rail, so any capacitance hanging on it carries no
    /// dynamics.
    pub fn pad_capacitance(mut self, farads: f64) -> Self {
        self.c_pad = farads;
        self
    }

    /// Supplies an explicit per-node capacitance vector (flat tier-major,
    /// `width*height*tiers` entries), replacing the grid/tier uniform base.
    /// Decap cells and pad capacitance still add on top.
    pub fn node_capacitances(mut self, farads: Vec<f64>) -> Self {
        self.caps = Some(farads);
        self
    }

    /// Sets the supply voltage (V).
    pub fn vdd(mut self, volts: f64) -> Self {
        self.vdd = volts;
        self
    }

    /// Validates the configuration and builds the stack.
    ///
    /// # Errors
    ///
    /// * [`GridError::InvalidDimension`] for zero width/height/tiers.
    /// * [`GridError::InvalidResistance`] for non-positive or non-finite
    ///   resistances (pad resistance may be zero).
    /// * [`GridError::NoTsvs`] if the pattern yields no pillar (for stacks
    ///   with more than one tier).
    /// * [`GridError::NoPads`] if no pad site is valid.
    /// * [`GridError::CoordOutOfBounds`] for explicit sites off the grid.
    /// * [`GridError::InvalidLoad`] for negative/non-finite load entries.
    pub fn build(self) -> Result<Stack3d, GridError> {
        if self.width == 0 {
            return Err(GridError::InvalidDimension {
                what: "width",
                value: 0,
            });
        }
        if self.height == 0 {
            return Err(GridError::InvalidDimension {
                what: "height",
                value: 0,
            });
        }
        if self.tiers == 0 {
            return Err(GridError::InvalidDimension {
                what: "tiers",
                value: 0,
            });
        }
        for (what, r) in [("horizontal wire", &self.r_h), ("vertical wire", &self.r_v)] {
            for &ohms in r {
                if !(ohms.is_finite() && ohms > 0.0) {
                    return Err(GridError::InvalidResistance { what, ohms });
                }
            }
        }
        if !(self.r_tsv.is_finite() && self.r_tsv > 0.0) {
            return Err(GridError::InvalidResistance {
                what: "TSV",
                ohms: self.r_tsv,
            });
        }
        if !(self.r_pad.is_finite() && self.r_pad >= 0.0) {
            return Err(GridError::InvalidResistance {
                what: "pad",
                ohms: self.r_pad,
            });
        }
        if !(self.vdd.is_finite()) {
            return Err(GridError::InvalidResistance {
                what: "vdd (volts, reported as resistance field)",
                ohms: self.vdd,
            });
        }

        let (w, h) = (self.width, self.height);
        let mut tsv_mask = vec![false; w * h];
        match &self.tsv_pattern {
            TsvPattern::Uniform { pitch } => {
                if *pitch == 0 {
                    return Err(GridError::InvalidDimension {
                        what: "TSV pitch",
                        value: 0,
                    });
                }
                for y in (0..h).step_by(*pitch) {
                    for x in (0..w).step_by(*pitch) {
                        tsv_mask[y * w + x] = true;
                    }
                }
            }
            TsvPattern::Random { count, seed } => {
                let mut rng = crate::rng::SmallRng::new(*seed);
                let mut all: Vec<usize> = (0..w * h).collect();
                rng.shuffle(&mut all);
                for &site in all.iter().take(*count) {
                    tsv_mask[site] = true;
                }
            }
            TsvPattern::Clustered { centers, radius } => {
                for &(cx, cy) in centers {
                    if cx >= w || cy >= h {
                        return Err(GridError::CoordOutOfBounds {
                            coord: (cx, cy),
                            extent: (w, h),
                        });
                    }
                    let r = *radius;
                    for y in cy.saturating_sub(r)..=(cy + r).min(h - 1) {
                        for x in cx.saturating_sub(r)..=(cx + r).min(w - 1) {
                            tsv_mask[y * w + x] = true;
                        }
                    }
                }
            }
            TsvPattern::Explicit(sites) => {
                for &(x, y) in sites {
                    if x >= w || y >= h {
                        return Err(GridError::CoordOutOfBounds {
                            coord: (x, y),
                            extent: (w, h),
                        });
                    }
                    tsv_mask[y * w + x] = true;
                }
            }
        }
        let tsv_sites: Vec<(u32, u32)> = (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .filter(|&(x, y)| tsv_mask[y * w + x])
            .map(|(x, y)| (x as u32, y as u32))
            .collect();
        if tsv_sites.is_empty() && self.tiers > 1 {
            return Err(GridError::NoTsvs);
        }

        let mut pad_mask = vec![false; w * h];
        match (&self.pad_sites, self.pad_lattice) {
            (None, Some(pitch)) => {
                if pitch == 0 {
                    return Err(GridError::InvalidDimension {
                        what: "pad lattice pitch",
                        value: 0,
                    });
                }
                for &(x, y) in &tsv_sites {
                    if x as usize % pitch == 0 && y as usize % pitch == 0 {
                        pad_mask[y as usize * w + x as usize] = true;
                    }
                }
            }
            (None, None) => {
                // Default: a pad above every pillar; for single-tier stacks
                // with no TSVs, a pad at every pitch-2 site.
                if tsv_sites.is_empty() {
                    for y in (0..h).step_by(2) {
                        for x in (0..w).step_by(2) {
                            pad_mask[y * w + x] = true;
                        }
                    }
                } else {
                    for &(x, y) in &tsv_sites {
                        pad_mask[y as usize * w + x as usize] = true;
                    }
                }
            }
            (Some(sites), _) => {
                for &(x, y) in sites {
                    if x >= w || y >= h {
                        return Err(GridError::CoordOutOfBounds {
                            coord: (x, y),
                            extent: (w, h),
                        });
                    }
                    pad_mask[y * w + x] = true;
                }
            }
        }
        if !pad_mask.iter().any(|&p| p) {
            return Err(GridError::NoPads);
        }

        let n = w * h * self.tiers;
        let loads = match (self.loads, self.load_profile) {
            (Some(l), _) => {
                if l.len() != n {
                    return Err(GridError::InvalidDimension {
                        what: "load vector length",
                        value: l.len(),
                    });
                }
                l
            }
            (None, Some((profile, seed))) => profile.generate(w, h, self.tiers, &tsv_mask, seed),
            (None, None) => vec![0.0; n],
        };
        if let Some(node) = first_invalid(&loads) {
            return Err(GridError::InvalidLoad {
                node,
                amps: loads[node],
            });
        }

        for (what, c) in [("grid", self.c_grid), ("pad", self.c_pad)] {
            if !(c.is_finite() && c >= 0.0) {
                return Err(GridError::InvalidCapacitance { what, farads: c });
            }
        }
        for c in self.c_tier.iter().flatten() {
            if !(c.is_finite() && *c >= 0.0) {
                return Err(GridError::InvalidCapacitance {
                    what: "tier",
                    farads: *c,
                });
            }
        }
        let has_caps = self.caps.is_some()
            || self.c_grid != 0.0
            || self.c_pad != 0.0
            || self.c_tier.iter().any(Option::is_some)
            || !self.decaps.is_empty();
        let caps = if has_caps {
            let mut caps = match self.caps {
                Some(c) => {
                    if c.len() != n {
                        return Err(GridError::InvalidDimension {
                            what: "capacitance vector length",
                            value: c.len(),
                        });
                    }
                    c
                }
                None => {
                    let mut c = Vec::with_capacity(n);
                    for tier in 0..self.tiers {
                        let per_node = self.c_tier[tier].unwrap_or(self.c_grid);
                        c.extend(std::iter::repeat_n(per_node, w * h));
                    }
                    c
                }
            };
            for &(tier, x, y, farads) in &self.decaps {
                if tier >= self.tiers {
                    return Err(GridError::InvalidDimension {
                        what: "decap tier",
                        value: tier,
                    });
                }
                if x >= w || y >= h {
                    return Err(GridError::CoordOutOfBounds {
                        coord: (x, y),
                        extent: (w, h),
                    });
                }
                if !(farads.is_finite() && farads >= 0.0) {
                    return Err(GridError::InvalidCapacitance {
                        what: "decap",
                        farads,
                    });
                }
                caps[(tier * h + y) * w + x] += farads;
            }
            if self.c_pad != 0.0 {
                let top = self.tiers - 1;
                for y in 0..h {
                    for x in 0..w {
                        if pad_mask[y * w + x] {
                            caps[(top * h + y) * w + x] += self.c_pad;
                        }
                    }
                }
            }
            for &c in &caps {
                if !(c.is_finite() && c >= 0.0) {
                    return Err(GridError::InvalidCapacitance {
                        what: "node",
                        farads: c,
                    });
                }
            }
            caps
        } else {
            Vec::new()
        };

        Ok(Stack3d {
            width: w,
            height: h,
            tiers: self.tiers,
            r_h: self.r_h,
            r_v: self.r_v,
            r_tsv: self.r_tsv,
            r_pad: self.r_pad,
            tsv_mask,
            tsv_sites,
            pad_mask,
            loads,
            caps,
            vdd: self.vdd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let s = Stack3d::builder(4, 4, 3).build().unwrap();
        assert_eq!(s.tsv_resistance(), 0.05);
        assert_eq!(s.vdd(), 1.8);
        assert_eq!(s.pad_resistance(), 0.0);
        // pitch 2 on 4x4 → TSVs at (0,0),(2,0),(0,2),(2,2).
        assert_eq!(s.tsv_sites().len(), 4);
        // One TSV node per four nodes, as the paper specifies.
        assert_eq!(s.nodes_per_tier() / s.tsv_sites().len(), 4);
    }

    #[test]
    fn node_index_roundtrip() {
        let s = Stack3d::builder(5, 7, 3).build().unwrap();
        for tier in 0..3 {
            for y in 0..7 {
                for x in 0..5 {
                    let i = s.node_index(tier, x, y);
                    assert_eq!(s.node_coords(i), (tier, x, y));
                }
            }
        }
        assert_eq!(s.num_nodes(), 105);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(matches!(
            Stack3d::builder(0, 4, 3).build().unwrap_err(),
            GridError::InvalidDimension { what: "width", .. }
        ));
        assert!(matches!(
            Stack3d::builder(4, 0, 3).build().unwrap_err(),
            GridError::InvalidDimension { what: "height", .. }
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 0).build().unwrap_err(),
            GridError::InvalidDimension { what: "tiers", .. }
        ));
    }

    #[test]
    fn bad_resistances_rejected() {
        assert!(matches!(
            Stack3d::builder(4, 4, 3).wire_resistance(0.0).build(),
            Err(GridError::InvalidResistance { .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 3).tsv_resistance(-0.05).build(),
            Err(GridError::InvalidResistance { .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 3).pad_resistance(f64::NAN).build(),
            Err(GridError::InvalidResistance { .. })
        ));
        // Zero pad resistance is explicitly allowed (ideal pads).
        assert!(Stack3d::builder(4, 4, 3)
            .pad_resistance(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn explicit_tsvs_and_pads() {
        let s = Stack3d::builder(4, 4, 2)
            .tsv_pattern(TsvPattern::Explicit(vec![(1, 1), (3, 2)]))
            .pad_sites(vec![(1, 1)])
            .build()
            .unwrap();
        assert!(s.is_tsv(1, 1));
        assert!(s.is_tsv(3, 2));
        assert!(!s.is_tsv(0, 0));
        assert!(s.is_pad(1, 1));
        assert!(!s.is_pad(3, 2));
        assert_eq!(s.num_pads(), 1);
    }

    #[test]
    fn explicit_out_of_bounds_rejected() {
        assert!(matches!(
            Stack3d::builder(4, 4, 2)
                .tsv_pattern(TsvPattern::Explicit(vec![(9, 0)]))
                .build(),
            Err(GridError::CoordOutOfBounds { .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2).pad_sites(vec![(0, 9)]).build(),
            Err(GridError::CoordOutOfBounds { .. })
        ));
    }

    #[test]
    fn random_pattern_is_seeded_and_counted() {
        let a = Stack3d::builder(10, 10, 2)
            .tsv_pattern(TsvPattern::Random {
                count: 13,
                seed: 42,
            })
            .build()
            .unwrap();
        let b = Stack3d::builder(10, 10, 2)
            .tsv_pattern(TsvPattern::Random {
                count: 13,
                seed: 42,
            })
            .build()
            .unwrap();
        assert_eq!(a.tsv_sites(), b.tsv_sites());
        assert_eq!(a.tsv_sites().len(), 13);
        let c = Stack3d::builder(10, 10, 2)
            .tsv_pattern(TsvPattern::Random {
                count: 13,
                seed: 43,
            })
            .build()
            .unwrap();
        assert_ne!(a.tsv_sites(), c.tsv_sites());
    }

    #[test]
    fn clustered_pattern_clips_to_grid() {
        let s = Stack3d::builder(6, 6, 2)
            .tsv_pattern(TsvPattern::Clustered {
                centers: vec![(0, 0)],
                radius: 1,
            })
            .build()
            .unwrap();
        assert_eq!(s.tsv_sites().len(), 4); // 2x2 corner
    }

    #[test]
    fn no_tsvs_rejected_for_multi_tier() {
        let err = Stack3d::builder(4, 4, 3)
            .tsv_pattern(TsvPattern::Explicit(vec![]))
            .build()
            .unwrap_err();
        assert_eq!(err, GridError::NoTsvs);
    }

    #[test]
    fn single_tier_without_tsvs_allowed() {
        let s = Stack3d::builder(4, 4, 1)
            .tsv_pattern(TsvPattern::Explicit(vec![]))
            .build()
            .unwrap();
        assert_eq!(s.tiers(), 1);
        assert!(s.num_pads() > 0);
    }

    #[test]
    fn pad_lattice_selects_coarse_bumps() {
        let s = Stack3d::builder(12, 12, 3)
            .tsv_pattern(TsvPattern::Uniform { pitch: 2 })
            .pad_lattice(4)
            .build()
            .unwrap();
        // Pads only at TSV sites with both coordinates on the 4-lattice.
        assert_eq!(s.num_pads(), 9); // x,y ∈ {0,4,8}
        assert!(s.is_pad(0, 0));
        assert!(s.is_pad(4, 8));
        assert!(!s.is_pad(2, 0), "pillar without a bump");
        // All pads are pillars.
        for (x, y) in s.pad_sites() {
            assert!(s.is_tsv(x as usize, y as usize));
        }
    }

    #[test]
    fn pad_lattice_zero_pitch_rejected() {
        assert!(matches!(
            Stack3d::builder(8, 8, 2).pad_lattice(0).build(),
            Err(GridError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn pad_lattice_missing_pillars_yields_no_pads() {
        // A lattice that misses every pillar (odd pitch on even pillar
        // coordinates away from zero is fine — (0,0) always matches), so
        // use explicit pillars away from the lattice.
        let err = Stack3d::builder(8, 8, 2)
            .tsv_pattern(TsvPattern::Explicit(vec![(1, 1), (3, 3)]))
            .pad_lattice(2)
            .build()
            .unwrap_err();
        assert_eq!(err, GridError::NoPads);
    }

    #[test]
    fn loads_validated() {
        let err = Stack3d::builder(2, 2, 1)
            .loads(vec![0.1, -0.2, 0.0, 0.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, GridError::InvalidLoad { node: 1, .. }));

        let err = Stack3d::builder(2, 2, 1)
            .loads(vec![0.1])
            .build()
            .unwrap_err();
        assert!(matches!(err, GridError::InvalidDimension { .. }));
    }

    #[test]
    fn set_loads_replaces() {
        let mut s = Stack3d::builder(2, 2, 1).build().unwrap();
        s.set_loads(vec![0.0, 1e-3, 2e-3, 0.0]).unwrap();
        assert_eq!(s.load(0, 1, 0), 1e-3);
        assert!((s.total_load() - 3e-3).abs() < 1e-15);
        assert!(s.set_loads(vec![f64::NAN; 4]).is_err());
    }

    #[test]
    fn uniform_load_skips_tsv_nodes() {
        let s = Stack3d::builder(4, 4, 2)
            .uniform_load(1e-3)
            .build()
            .unwrap();
        for tier in 0..2 {
            for y in 0..4 {
                for x in 0..4 {
                    let l = s.load(tier, x, y);
                    if s.is_tsv(x, y) {
                        assert_eq!(l, 0.0, "TSV keep-out violated at ({x},{y})");
                    } else {
                        assert_eq!(l, 1e-3);
                    }
                }
            }
        }
    }

    #[test]
    fn tier_resistance_override() {
        let s = Stack3d::builder(3, 3, 2)
            .wire_resistance(0.02)
            .tier_resistance(1, 0.04, 0.05)
            .build()
            .unwrap();
        assert_eq!(s.r_horizontal(0), 0.02);
        assert_eq!(s.r_horizontal(1), 0.04);
        assert_eq!(s.r_vertical(1), 0.05);
    }

    #[test]
    fn memory_bytes_nonzero() {
        let s = Stack3d::builder(3, 3, 2).build().unwrap();
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn default_stack_has_no_dynamics() {
        let s = Stack3d::builder(4, 4, 2).build().unwrap();
        assert!(!s.has_dynamics());
        assert_eq!(s.capacitances(), None);
        assert_eq!(s.capacitance(0, 1, 1), 0.0);
        assert_eq!(s.total_capacitance(), 0.0);
    }

    #[test]
    fn capacitance_layers_compose() {
        let s = Stack3d::builder(4, 4, 2)
            .grid_capacitance(1e-12)
            .tier_capacitance(1, 2e-12)
            .decap(0, 1, 1, 5e-12)
            .decap(0, 1, 1, 5e-12) // accumulates
            .pad_resistance(0.1)
            .pad_capacitance(1e-9)
            .build()
            .unwrap();
        assert!(s.has_dynamics());
        assert_eq!(s.capacitance(0, 0, 0), 1e-12);
        assert_eq!(s.capacitance(1, 1, 0), 2e-12);
        assert!((s.capacitance(0, 1, 1) - 1.1e-11).abs() < 1e-24);
        // Pads sit on the top tier at TSV sites.
        assert!((s.capacitance(1, 0, 0) - (2e-12 + 1e-9)).abs() < 1e-22);
        let caps = s.capacitances().unwrap();
        assert_eq!(caps.len(), s.num_nodes());
        assert!((s.total_capacitance() - caps.iter().sum::<f64>()).abs() < 1e-20);
    }

    #[test]
    fn explicit_capacitance_vector_replaces_base() {
        let n = 2 * 2;
        let s = Stack3d::builder(2, 2, 1)
            .grid_capacitance(1e-12) // replaced by the explicit vector
            .node_capacitances(vec![1e-15; n])
            .decap(0, 1, 1, 3e-15)
            .build()
            .unwrap();
        assert_eq!(s.capacitance(0, 0, 1), 1e-15);
        assert!((s.capacitance(0, 1, 1) - 4e-15).abs() < 1e-28);
    }

    #[test]
    fn bad_capacitances_rejected() {
        assert!(matches!(
            Stack3d::builder(4, 4, 2).grid_capacitance(-1e-12).build(),
            Err(GridError::InvalidCapacitance { what: "grid", .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2)
                .tier_capacitance(0, f64::NAN)
                .build(),
            Err(GridError::InvalidCapacitance { what: "tier", .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2).decap(0, 1, 1, -1e-15).build(),
            Err(GridError::InvalidCapacitance { what: "decap", .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2).decap(5, 1, 1, 1e-15).build(),
            Err(GridError::InvalidDimension {
                what: "decap tier",
                ..
            })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2).decap(0, 9, 1, 1e-15).build(),
            Err(GridError::CoordOutOfBounds { .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2)
                .node_capacitances(vec![0.0; 3])
                .build(),
            Err(GridError::InvalidDimension { .. })
        ));
        assert!(matches!(
            Stack3d::builder(4, 4, 2)
                .node_capacitances(vec![f64::INFINITY; 32])
                .build(),
            Err(GridError::InvalidCapacitance { what: "node", .. })
        ));
    }
}
