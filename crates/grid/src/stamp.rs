//! Modified nodal analysis: assembling `G x = J` from a power grid.
//!
//! Ideal pads are Dirichlet nodes: they are *folded out* of the linear
//! system (their conductance contributions move to the right-hand side),
//! which keeps the assembled matrix symmetric positive definite — a
//! requirement of both Cholesky and conjugate gradients.

use crate::{GridError, NetKind, Stack3d};
use voltprop_sparse::{CsrMatrix, TripletMatrix};

/// Sentinel for "this node is Dirichlet, not in the system".
const FIXED: u32 = u32::MAX;

/// An assembled MNA system `G x = J` plus the bookkeeping to map between
/// full circuit nodes and the reduced (pad-folded) unknown vector.
///
/// # Example
///
/// ```
/// use voltprop_grid::{Stack3d, NetKind};
/// use voltprop_sparse::Cholesky;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(6, 6, 3).uniform_load(1e-4).build()?;
/// let sys = stack.stamp(NetKind::Power)?;
/// let x = Cholesky::factor(sys.matrix())?.solve(sys.rhs());
/// let v = sys.expand(&x); // full per-node voltages, pads included
/// assert_eq!(v.len(), stack.num_nodes());
/// // Pads sit exactly at VDD; everything else sags below it.
/// assert!(v.iter().all(|&vi| vi <= 1.8 + 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StampedSystem {
    matrix: CsrMatrix,
    rhs: Vec<f64>,
    /// Per circuit node: reduced index, or `FIXED`.
    sys_index: Vec<u32>,
    /// Fixed voltage per circuit node (meaningful where `sys_index == FIXED`).
    fixed_voltage: Vec<f64>,
    num_nodes: usize,
}

impl StampedSystem {
    /// Assembles a system from parts. Used by the stack and netlist
    /// stampers; exposed for custom circuit sources.
    ///
    /// `edges` are two-terminal conductances between circuit nodes,
    /// `injections` are per-node current injections (A, positive into the
    /// node), and `fixed` maps Dirichlet nodes to their voltages.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyCircuit`] if there are no free nodes.
    pub fn assemble(
        num_nodes: usize,
        edges: impl Iterator<Item = (usize, usize, f64)>,
        injections: &[f64],
        fixed: &[(usize, f64)],
    ) -> Result<Self, GridError> {
        Self::assemble_with_ground(num_nodes, edges, &[], injections, fixed)
    }

    /// [`StampedSystem::assemble`] with an additional per-node conductance
    /// to the 0 V reference: `ground[node]` is added to the diagonal of the
    /// node's row (no right-hand-side contribution). This is how transient
    /// companion models fold `C/h` into the conductance system — each
    /// grounded capacitor becomes a grounded conductance whose companion
    /// current rides on the per-step right-hand side instead.
    ///
    /// `ground` may be shorter than `num_nodes` (missing entries are zero);
    /// entries on Dirichlet nodes are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyCircuit`] if there are no free nodes.
    pub fn assemble_with_ground(
        num_nodes: usize,
        edges: impl Iterator<Item = (usize, usize, f64)>,
        ground: &[f64],
        injections: &[f64],
        fixed: &[(usize, f64)],
    ) -> Result<Self, GridError> {
        let mut sys_index = vec![0u32; num_nodes];
        let mut fixed_voltage = vec![0.0; num_nodes];
        for &(node, volts) in fixed {
            sys_index[node] = FIXED;
            fixed_voltage[node] = volts;
        }
        let mut dim = 0u32;
        for s in sys_index.iter_mut() {
            if *s != FIXED {
                *s = dim;
                dim += 1;
            }
        }
        if dim == 0 {
            return Err(GridError::EmptyCircuit);
        }

        let mut trip = TripletMatrix::new(dim as usize, dim as usize);
        let mut rhs = vec![0.0; dim as usize];
        for (node, &inj) in injections.iter().enumerate() {
            if inj != 0.0 && sys_index[node] != FIXED {
                rhs[sys_index[node] as usize] += inj;
            }
        }
        for (a, b, g) in edges {
            match (sys_index[a], sys_index[b]) {
                (FIXED, FIXED) => {}
                (ia, FIXED) => {
                    trip.stamp_to_ground(ia as usize, g);
                    rhs[ia as usize] += g * fixed_voltage[b];
                }
                (FIXED, ib) => {
                    trip.stamp_to_ground(ib as usize, g);
                    rhs[ib as usize] += g * fixed_voltage[a];
                }
                (ia, ib) => trip.stamp_conductance(ia as usize, ib as usize, g),
            }
        }
        for (node, &g) in ground.iter().enumerate() {
            if g != 0.0 && sys_index[node] != FIXED {
                trip.stamp_to_ground(sys_index[node] as usize, g);
            }
        }
        Ok(StampedSystem {
            matrix: trip.to_csr(),
            rhs,
            sys_index,
            fixed_voltage,
            num_nodes,
        })
    }

    /// The reduced conductance matrix `G` (free nodes only).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The reduced right-hand side `J`.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Number of unknowns (free nodes).
    pub fn dim(&self) -> usize {
        self.rhs.len()
    }

    /// Number of circuit nodes, including folded Dirichlet nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The reduced index of a circuit node, or `None` if it is a Dirichlet
    /// node.
    pub fn reduced_index(&self, node: usize) -> Option<usize> {
        let s = self.sys_index[node];
        (s != FIXED).then_some(s as usize)
    }

    /// Expands a reduced solution vector to full per-node voltages,
    /// inserting the fixed voltages at Dirichlet nodes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn expand(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "solution length mismatch");
        (0..self.num_nodes)
            .map(|n| {
                let s = self.sys_index[n];
                if s == FIXED {
                    self.fixed_voltage[n]
                } else {
                    x[s as usize]
                }
            })
            .collect()
    }

    /// Allocation-free variant of [`StampedSystem::expand`]: writes the
    /// leading `v.len()` circuit nodes' voltages into `v`, substituting
    /// `rail` at Dirichlet nodes instead of the voltages recorded at
    /// stamp time (every Dirichlet node of a power grid sits at the
    /// net's rail, so callers serving both nets from one stamped matrix
    /// pass the rail of the net the solve ran on). Passing a `v` of
    /// `stack.num_nodes()` entries skips the virtual rail node a
    /// resistive-pad stamp appends past the grid.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `v.len() > self.num_nodes()`.
    pub fn expand_into(&self, x: &[f64], rail: f64, v: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "solution length mismatch");
        assert!(v.len() <= self.num_nodes, "voltage vector too long");
        for (n, out) in v.iter_mut().enumerate() {
            let s = self.sys_index[n];
            *out = if s == FIXED { rail } else { x[s as usize] };
        }
    }

    /// Restricts full per-node voltages to the reduced unknown vector
    /// (inverse of [`StampedSystem::expand`] on free nodes).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.num_nodes()`.
    pub fn restrict(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.num_nodes, "voltage vector length mismatch");
        let mut x = vec![0.0; self.dim()];
        for n in 0..self.num_nodes {
            let s = self.sys_index[n];
            if s != FIXED {
                x[s as usize] = v[n];
            }
        }
        x
    }

    /// Estimated heap footprint in bytes (matrix + rhs + index maps).
    pub fn memory_bytes(&self) -> usize {
        self.matrix.memory_bytes()
            + self.rhs.len() * 8
            + self.sys_index.len() * 4
            + self.fixed_voltage.len() * 8
    }
}

impl Stack3d {
    /// Assembles the MNA system for one supply net of this stack.
    ///
    /// For [`NetKind::Power`], ideal pads are folded at `vdd` and each load
    /// current is *drawn out* of its node; for [`NetKind::Ground`], pads are
    /// folded at 0 V and load currents are *injected*. With nonzero pad
    /// resistance the pad nodes stay in the system, connected to the rail by
    /// `1 / r_pad`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyCircuit`] if folding leaves no unknowns
    /// (e.g. a 1×1×1 grid whose only node is a pad).
    pub fn stamp(&self, net: NetKind) -> Result<StampedSystem, GridError> {
        self.stamp_dynamic(net, 0.0)
    }

    /// Assembles the transient companion system `G + α·diag(C)` for one
    /// supply net: [`Stack3d::stamp`] plus each node's capacitance scaled
    /// by `alpha` added to the diagonal of its row.
    ///
    /// `alpha` is the companion coefficient of the integration rule —
    /// `1/h` for backward Euler, `2/h` for the trapezoidal rule — so the
    /// returned matrix is the one a transient stepper factors once and
    /// reuses across every step of a fixed-`h` waveform. The companion
    /// *currents* (`α·C·v_n` plus, for trapezoidal, the capacitor-current
    /// state) are per-step right-hand-side terms and are **not** stamped
    /// here; `alpha = 0.0` (or a stack without capacitance) degenerates to
    /// the static stamp.
    ///
    /// # Errors
    ///
    /// [`GridError::InvalidCapacitance`] for a negative or non-finite
    /// `alpha`; otherwise as [`Stack3d::stamp`].
    pub fn stamp_dynamic(&self, net: NetKind, alpha: f64) -> Result<StampedSystem, GridError> {
        self.stamp_with(net, alpha, true)
    }

    /// [`Stack3d::stamp_dynamic`] with the loads left out: the same
    /// matrix, with a right-hand side holding only the rail-folding terms
    /// of the pads. A solver that stamps once and serves many load
    /// vectors adds each request's loads to this base, so its answers
    /// cannot depend on the loads the stack carried when it was stamped.
    /// On [`NetKind::Ground`] the rail is 0 V and the base is all zeros.
    ///
    /// # Errors
    ///
    /// As [`Stack3d::stamp_dynamic`].
    pub fn stamp_unloaded(&self, net: NetKind, alpha: f64) -> Result<StampedSystem, GridError> {
        self.stamp_with(net, alpha, false)
    }

    fn stamp_with(
        &self,
        net: NetKind,
        alpha: f64,
        loaded: bool,
    ) -> Result<StampedSystem, GridError> {
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(GridError::InvalidCapacitance {
                what: "companion coefficient (alpha, 1/s)",
                farads: alpha,
            });
        }
        let n = self.num_nodes();
        let (w, h, t) = (self.width(), self.height(), self.tiers());
        let top = t - 1;
        let rail = match net {
            NetKind::Power => self.vdd(),
            NetKind::Ground => 0.0,
        };
        let load_sign = match net {
            NetKind::Power => -1.0,
            NetKind::Ground => 1.0,
        };

        let mut injections = vec![0.0; n];
        if loaded {
            for (i, &l) in self.loads().iter().enumerate() {
                injections[i] = load_sign * l;
            }
        }

        let ideal_pads = self.pad_resistance() == 0.0;
        let mut fixed = Vec::new();
        if ideal_pads {
            for (x, y) in self.pad_sites() {
                fixed.push((self.node_index(top, x as usize, y as usize), rail));
            }
        } else {
            let g_pad = 1.0 / self.pad_resistance();
            for (x, y) in self.pad_sites() {
                let node = self.node_index(top, x as usize, y as usize);
                injections[node] += g_pad * rail;
                // The diagonal pad conductance is stamped via a synthetic
                // edge to a Dirichlet rail below (handled as extra edge).
            }
        }

        // Edge iterator: in-plane wires, TSV segments, and (for resistive
        // pads) pad conductances expressed as diagonal stamps via a virtual
        // fixed node appended at index n.
        let g_pad = if ideal_pads {
            0.0
        } else {
            1.0 / self.pad_resistance()
        };
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for tier in 0..t {
            let gh = 1.0 / self.r_horizontal(tier);
            let gv = 1.0 / self.r_vertical(tier);
            for y in 0..h {
                for x in 0..w {
                    let a = self.node_index(tier, x, y);
                    if x + 1 < w {
                        edges.push((a, self.node_index(tier, x + 1, y), gh));
                    }
                    if y + 1 < h {
                        edges.push((a, self.node_index(tier, x, y + 1), gv));
                    }
                }
            }
        }
        let g_tsv = 1.0 / self.tsv_resistance();
        for &(x, y) in self.tsv_sites() {
            for tier in 0..t.saturating_sub(1) {
                edges.push((
                    self.node_index(tier, x as usize, y as usize),
                    self.node_index(tier + 1, x as usize, y as usize),
                    g_tsv,
                ));
            }
        }
        let (num_total, injections, fixed) = if ideal_pads {
            (n, injections, fixed)
        } else {
            // Virtual rail node n, fixed at `rail`, connected to each pad.
            let mut inj = injections;
            inj.push(0.0);
            for (x, y) in self.pad_sites() {
                let node = self.node_index(top, x as usize, y as usize);
                // Remove the direct injection added above; model as edge.
                inj[node] -= g_pad * rail;
                edges.push((node, n, g_pad));
            }
            (n + 1, inj, vec![(n, rail)])
        };

        let ground: Vec<f64> = match (alpha != 0.0, self.capacitances()) {
            (true, Some(caps)) => caps.iter().map(|&c| alpha * c).collect(),
            _ => Vec::new(),
        };
        StampedSystem::assemble_with_ground(
            num_total,
            edges.into_iter(),
            &ground,
            &injections,
            &fixed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltprop_sparse::Cholesky;

    fn solve(sys: &StampedSystem) -> Vec<f64> {
        let x = Cholesky::factor(sys.matrix()).unwrap().solve(sys.rhs());
        sys.expand(&x)
    }

    #[test]
    fn zero_load_gives_flat_vdd() {
        let s = Stack3d::builder(4, 4, 3).build().unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let v = solve(&sys);
        for &vi in &v {
            assert!((vi - 1.8).abs() < 1e-12);
        }
    }

    #[test]
    fn loads_pull_voltage_below_vdd() {
        let s = Stack3d::builder(6, 6, 3)
            .uniform_load(1e-3)
            .build()
            .unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let v = solve(&sys);
        let top_pad = s.node_index(2, 0, 0);
        assert!((v[top_pad] - 1.8).abs() < 1e-12, "pad stays at VDD");
        // Bottom-tier center sags the most.
        let bottom_center = s.node_index(0, 3, 3);
        assert!(v[bottom_center] < 1.8 - 1e-5);
        assert!(v.iter().all(|&vi| vi <= 1.8 + 1e-12 && vi > 0.0));
    }

    #[test]
    fn ground_net_mirrors_power_net() {
        let s = Stack3d::builder(5, 5, 2)
            .uniform_load(1e-3)
            .build()
            .unwrap();
        let vp = solve(&s.stamp(NetKind::Power).unwrap());
        let vg = solve(&s.stamp(NetKind::Ground).unwrap());
        for (p, g) in vp.iter().zip(&vg) {
            // V_gnd bounce equals VDD sag by symmetry of the two nets.
            assert!((1.8 - p - g).abs() < 1e-10);
        }
    }

    #[test]
    fn kcl_total_current_balances() {
        // Sum of pad currents must equal total load current.
        let s = Stack3d::builder(6, 4, 3)
            .load_profile(
                crate::LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                9,
            )
            .build()
            .unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let v = solve(&sys);
        // Pad current = sum over pad neighbors of (VDD - V_neighbor) * g.
        let top = s.tiers() - 1;
        let mut pad_current = 0.0;
        for (x, y) in s.pad_sites() {
            let (x, y) = (x as usize, y as usize);
            let vp = 1.8;
            let gh = 1.0 / s.r_horizontal(top);
            let gv = 1.0 / s.r_vertical(top);
            if x > 0 {
                pad_current += (vp - v[s.node_index(top, x - 1, y)]) * gh;
            }
            if x + 1 < s.width() {
                pad_current += (vp - v[s.node_index(top, x + 1, y)]) * gh;
            }
            if y > 0 {
                pad_current += (vp - v[s.node_index(top, x, y - 1)]) * gv;
            }
            if y + 1 < s.height() {
                pad_current += (vp - v[s.node_index(top, x, y + 1)]) * gv;
            }
            // TSV below the pad.
            let g_tsv = 1.0 / s.tsv_resistance();
            pad_current += (vp - v[s.node_index(top - 1, x, y)]) * g_tsv;
        }
        assert!(
            (pad_current - s.total_load()).abs() < 1e-9 * s.total_load().max(1.0),
            "pad current {pad_current} != total load {}",
            s.total_load()
        );
    }

    #[test]
    fn resistive_pads_sag_at_the_pad() {
        let s = Stack3d::builder(4, 4, 2)
            .uniform_load(1e-3)
            .pad_resistance(0.5)
            .build()
            .unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let v = solve(&sys);
        let pad = s.node_index(1, 0, 0);
        // With pad resistance the pad node itself drops below VDD.
        assert!(v[pad] < 1.8 - 1e-6);
        // The system includes every grid node plus the virtual rail.
        assert_eq!(sys.num_nodes(), s.num_nodes() + 1);
    }

    #[test]
    fn reduced_index_skips_pads() {
        let s = Stack3d::builder(4, 4, 2).build().unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let top_pad = s.node_index(1, 0, 0);
        assert_eq!(sys.reduced_index(top_pad), None);
        let bottom = s.node_index(0, 0, 0);
        assert!(sys.reduced_index(bottom).is_some());
        assert_eq!(sys.dim(), s.num_nodes() - s.num_pads());
    }

    #[test]
    fn expand_restrict_roundtrip() {
        let s = Stack3d::builder(3, 3, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let x: Vec<f64> = (0..sys.dim()).map(|i| i as f64 * 0.01).collect();
        let v = sys.expand(&x);
        assert_eq!(sys.restrict(&v), x);
    }

    #[test]
    fn matrix_is_spd_shaped() {
        let s = Stack3d::builder(5, 4, 3)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        let m = sys.matrix();
        assert!(m.is_symmetric(1e-12));
        assert!(m.diagonal_dominance() >= 1.0);
        // Rows adjacent to folded pads are strictly dominant.
        assert!(Cholesky::factor(m).is_ok());
    }

    #[test]
    fn single_node_all_pad_is_empty_circuit() {
        let s = Stack3d::builder(1, 1, 1)
            .pad_sites(vec![(0, 0)])
            .build()
            .unwrap();
        assert!(matches!(
            s.stamp(NetKind::Power),
            Err(GridError::EmptyCircuit)
        ));
    }

    #[test]
    fn companion_stamp_adds_alpha_c_to_diagonal_only() {
        let s = Stack3d::builder(4, 4, 2)
            .uniform_load(1e-4)
            .grid_capacitance(2e-12)
            .decap(0, 1, 1, 1e-10)
            .build()
            .unwrap();
        let base = s.stamp(NetKind::Power).unwrap();
        let alpha = 1.0 / 1e-9; // h = 1 ns
        let companion = s.stamp_dynamic(NetKind::Power, alpha).unwrap();
        assert_eq!(base.dim(), companion.dim());
        assert_eq!(base.rhs(), companion.rhs(), "companion rhs is per-step");
        let caps = s.capacitances().unwrap();
        for node in 0..s.num_nodes() {
            let (Some(i), Some(j)) = (base.reduced_index(node), companion.reduced_index(node))
            else {
                continue;
            };
            assert_eq!(i, j);
            let expect = base.matrix().get(i, i) + alpha * caps[node];
            assert!(
                (companion.matrix().get(i, i) - expect).abs() < 1e-9 * expect.abs(),
                "diagonal of node {node} off"
            );
            let (cols, vals) = base.matrix().row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize != i {
                    assert_eq!(companion.matrix().get(i, c as usize), v);
                }
            }
        }
        assert!(companion.matrix().is_symmetric(1e-12));
        assert!(Cholesky::factor(companion.matrix()).is_ok());
    }

    #[test]
    fn companion_stamp_without_caps_matches_static() {
        let s = Stack3d::builder(4, 4, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let base = s.stamp(NetKind::Power).unwrap();
        let dynamic = s.stamp_dynamic(NetKind::Power, 1e9).unwrap();
        assert_eq!(base.matrix().values(), dynamic.matrix().values());
        assert_eq!(base.rhs(), dynamic.rhs());
        assert!(matches!(
            s.stamp_dynamic(NetKind::Power, -1.0),
            Err(GridError::InvalidCapacitance { .. })
        ));
    }

    #[test]
    fn unloaded_stamp_keeps_the_matrix_and_only_the_rail_terms() {
        for r_pad in [0.0, 0.3] {
            let s = Stack3d::builder(5, 4, 3)
                .pad_resistance(r_pad)
                .uniform_load(2e-4)
                .build()
                .unwrap();
            let mut zero = s.clone();
            zero.set_loads(vec![0.0; s.num_nodes()]).unwrap();
            for net in [NetKind::Power, NetKind::Ground] {
                let loaded = s.stamp(net).unwrap();
                let base = s.stamp_unloaded(net, 0.0).unwrap();
                assert_eq!(loaded.matrix().values(), base.matrix().values());
                assert_eq!(base.rhs(), zero.stamp(net).unwrap().rhs());
            }
            let ground = s.stamp_unloaded(NetKind::Ground, 0.0).unwrap();
            assert!(ground.rhs().iter().all(|&b| b.to_bits() == 0));
        }
    }

    #[test]
    fn tsv_dominates_matrix_rows() {
        // The §III-A observation: TSV conductance (20 S) dwarfs wire
        // conductance (50 S? no — 1/0.02 = 50). Use a slower wire to match
        // the paper's regime where g_tsv >> g_wire.
        let s = Stack3d::builder(4, 4, 3)
            .wire_resistance(1.0)
            .tsv_resistance(0.05)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let sys = s.stamp(NetKind::Power).unwrap();
        // Minimum dominance ratio collapses toward 1 because of TSV rows.
        let dom = sys.matrix().diagonal_dominance();
        assert!(dom < 1.2, "TSV rows should be barely dominant, got {dom}");
    }
}
