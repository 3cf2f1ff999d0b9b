//! Shard-count invariance: `BuildParams::shards` partitions the sweep,
//! never the answer. 1/2/4 shards must reproduce the unsharded engine
//! bitwise on VoltProp and Rb3d (and within the tolerance contract on
//! Pcg, which has no row structure to shard), including
//! masked/compacted batches and a transient run with a
//! mid-run refactor.
//!
//! Both sides of every comparison run with `parallelism(2)` so the
//! baseline uses the red-black schedule that `shards >= 2` forces —
//! the determinism contract is stated on `BuildParams::shards`.
//!
//! The default stack puts a pad on every pillar, which leaves the VDA's
//! pillar-lattice solve nothing to do; a sparse-pad stack runs that
//! coarse solve on every outer iteration, and must be invariant in the
//! thread count as well as the shard count.

use voltprop::{
    Backend, FnWaveform, LoadCase, LoadProfile, LoadSet, Session, SolveParams, Stack3d, TraceSink,
    TransientParams, VpConfig,
};

const SHARD_COUNTS: [usize; 2] = [2, 4];

fn stack() -> Stack3d {
    Stack3d::builder(12, 12, 3)
        .load_profile(
            LoadProfile::UniformRandom {
                min: 1e-5,
                max: 1e-3,
            },
            77,
        )
        .build()
        .unwrap()
}

/// Pads on one pillar in four (every other pillar row and column): the
/// pad-less pillars are closed by the coarse pillar-lattice solve.
fn sparse_pad_stack() -> Stack3d {
    Stack3d::builder(16, 16, 3)
        .pad_lattice(4)
        .load_profile(
            LoadProfile::UniformRandom {
                min: 1e-5,
                max: 1e-3,
            },
            78,
        )
        .build()
        .unwrap()
}

fn config(shards: usize) -> VpConfig {
    VpConfig::new().parallelism(2).shards(shards)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: index {i} diverges: {x:e} vs {y:e}"
        );
    }
}

/// `k` lanes at diverging magnitudes so they freeze at different sweep
/// counts — the converged lanes exercise the masked/compacted batch
/// kernels while the stragglers keep sweeping.
fn load_sweep(stack: &Stack3d, k: usize) -> Vec<f64> {
    let mut loads = Vec::with_capacity(k * stack.num_nodes());
    for j in 0..k {
        let scale = 0.25 + 0.45 * j as f64;
        loads.extend(stack.loads().iter().map(|l| scale * l));
    }
    loads
}

#[test]
fn single_solves_are_shard_count_invariant() {
    let stack = stack();
    for backend in [Backend::VoltProp, Backend::Rb3d] {
        let case = || LoadCase::new(&stack).backend(backend);
        let mut base = Session::build(&stack, config(1)).unwrap();
        let want = base.solve(&case()).unwrap().voltages().to_vec();
        for shards in SHARD_COUNTS {
            let mut session = Session::build(&stack, config(shards)).unwrap();
            let view = session.solve(&case()).unwrap();
            assert!(view.converged(), "{backend:?} x{shards}");
            assert_bits_eq(
                &want,
                view.voltages(),
                &format!("{backend:?}/shards={shards}"),
            );
        }
    }
}

#[test]
fn sparse_pad_solves_are_thread_and_shard_count_invariant() {
    let stack = sparse_pad_stack();
    let k = 4;
    let loads = load_sweep(&stack, k);
    let case = || LoadCase::new(&stack);
    let set = || LoadSet::new(&stack, &loads);
    let mut base = Session::build(&stack, config(1)).unwrap();
    let view = base.solve(&case()).unwrap();
    assert!(view.converged());
    let want = view.voltages().to_vec();
    let batch = base.solve_batch(&set()).unwrap();
    let want_lanes: Vec<Vec<f64>> = (0..k)
        .map(|j| batch.lane_voltages(j).unwrap().to_vec())
        .collect();
    for (parallelism, shards) in [(4, 1), (2, 2), (4, 2), (2, 4), (4, 4)] {
        let what = format!("parallelism={parallelism}/shards={shards}");
        let config = VpConfig::new().parallelism(parallelism).shards(shards);
        let mut session = Session::build(&stack, config).unwrap();
        assert_bits_eq(&want, session.solve(&case()).unwrap().voltages(), &what);
        let got = session.solve_batch(&set()).unwrap();
        for (j, want_lane) in want_lanes.iter().enumerate() {
            assert_bits_eq(
                want_lane,
                got.lane_voltages(j).unwrap(),
                &format!("{what}/lane={j}"),
            );
        }
    }
}

#[test]
fn pcg_accepts_the_shards_knob_within_its_tolerance_contract() {
    // Pcg has no row-band structure: the knob is accepted (so one config
    // can drive all backends) but the Krylov solve runs unsharded, and
    // the contract is agreement within the requested tolerance rather
    // than bitwise identity.
    let stack = stack();
    let case = || {
        LoadCase::new(&stack).backend(Backend::Pcg).params(
            SolveParams::new()
                .inner_tolerance(1e-10)
                .max_inner_sweeps(50_000),
        )
    };
    let mut base = Session::build(&stack, config(1)).unwrap();
    let want = base.solve(&case()).unwrap().voltages().to_vec();
    for shards in SHARD_COUNTS {
        let mut session = Session::build(&stack, config(shards)).unwrap();
        let view = session.solve(&case()).unwrap();
        assert!(view.converged(), "pcg x{shards}");
        let worst = want
            .iter()
            .zip(view.voltages())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-8, "pcg shards={shards} drifts {worst:e} V");
    }
}

#[test]
fn masked_batches_are_shard_count_invariant() {
    let stack = stack();
    let k = 5;
    let loads = load_sweep(&stack, k);
    for backend in [Backend::VoltProp, Backend::Rb3d] {
        let set = || LoadSet::new(&stack, &loads).backend(backend);
        let mut base = Session::build(&stack, config(1)).unwrap();
        let want = base.solve_batch(&set()).unwrap();
        let want_lanes: Vec<Vec<f64>> = (0..k)
            .map(|j| want.lane_voltages(j).unwrap().to_vec())
            .collect();
        for shards in SHARD_COUNTS {
            let mut session = Session::build(&stack, config(shards)).unwrap();
            let got = session.solve_batch(&set()).unwrap();
            assert_eq!(got.lanes(), k);
            for (j, want_lane) in want_lanes.iter().enumerate() {
                assert_bits_eq(
                    want_lane,
                    got.lane_voltages(j).unwrap(),
                    &format!("{backend:?}/shards={shards}/lane={j}"),
                );
            }
        }
    }
}

#[test]
fn step_sweeps_are_shard_count_invariant() {
    let stack = stack();
    let nn = stack.num_nodes();
    let steps = 3;
    let loads = load_sweep(&stack, steps);
    let run = |session: &mut Session| -> Vec<Vec<f64>> {
        let view = session
            .solve_steps(&LoadCase::new(&stack), steps, |s, lane: &mut [f64]| {
                lane.copy_from_slice(&loads[s * nn..(s + 1) * nn]);
            })
            .unwrap();
        (0..steps)
            .map(|s| view.lane_voltages(s).unwrap().to_vec())
            .collect()
    };
    let mut base = Session::build(&stack, config(1)).unwrap();
    let want = run(&mut base);
    for shards in SHARD_COUNTS {
        let mut session = Session::build(&stack, config(shards)).unwrap();
        let got = run(&mut session);
        for s in 0..steps {
            assert_bits_eq(&want[s], &got[s], &format!("shards={shards}/step={s}"));
        }
    }
}

#[test]
fn transient_with_a_mid_run_refactor_is_shard_count_invariant() {
    let stack = Stack3d::builder(10, 10, 2)
        .grid_capacitance(2e-12)
        .decap(0, 3, 4, 5e-11)
        .decap(1, 6, 2, 2e-11)
        .load_profile(
            LoadProfile::UniformRandom {
                min: 1e-5,
                max: 8e-4,
            },
            31,
        )
        .build()
        .unwrap();
    let nn = stack.num_nodes();
    let base_loads = stack.loads().to_vec();
    // Two segments at different step sizes on one session: the h change
    // between them forces a companion re-prefactor mid-run, and the
    // rebuilt sharded factors must still match the unsharded rebuild.
    let run = |session: &mut Session| -> (Vec<f64>, usize) {
        let mut trace = Vec::new();
        let mut refactors = 0;
        for h in [1e-11, 4e-12] {
            let steps = 4;
            let mut wave = FnWaveform::new(steps, |s, _t, loads: &mut [f64]| {
                for (l, b) in loads.iter_mut().zip(&base_loads) {
                    *l = b * (1.0 + 0.15 * s as f64);
                }
            });
            let mut sink = TraceSink::with_capacity(steps, nn);
            let report = session
                .transient_dynamic(&mut wave, &mut sink, &TransientParams::new(&stack, h))
                .unwrap();
            assert_eq!(report.steps, steps);
            refactors += report.refactors;
            trace.extend_from_slice(sink.values());
        }
        (trace, refactors)
    };
    let mut base = Session::build(&stack, config(1)).unwrap();
    let (want, base_refactors) = run(&mut base);
    assert_eq!(base_refactors, 2, "cold prefactor + mid-run re-prefactor");
    for shards in SHARD_COUNTS {
        let mut session = Session::build(&stack, config(shards)).unwrap();
        let (got, refactors) = run(&mut session);
        assert_eq!(refactors, 2, "shards={shards}");
        assert_bits_eq(&want, &got, &format!("transient/shards={shards}"));
    }
}

#[test]
fn oversized_shard_counts_clamp_and_stay_invariant() {
    // More shards than grid rows clamps to one band per row; the result
    // is still bitwise identical and memory accounting stays positive.
    let stack = stack();
    let mut base = Session::build(&stack, config(1)).unwrap();
    let want = base
        .solve(&LoadCase::new(&stack))
        .unwrap()
        .voltages()
        .to_vec();
    let base_bytes = base.memory_bytes();
    let mut session = Session::build(&stack, config(64)).unwrap();
    let view = session.solve(&LoadCase::new(&stack)).unwrap();
    assert_bits_eq(&want, view.voltages(), "shards=64");
    assert!(
        session.memory_bytes() > base_bytes,
        "halo images must be accounted: {} !> {}",
        session.memory_bytes(),
        base_bytes
    );
}
