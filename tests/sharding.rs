//! Band-count invariance: a session's tiers sweep one row band per
//! `parallelism` thread, and the bands partition the sweep, never the
//! answer. Sessions at parallelism 2, 3 and 4 (2, 3 and 4 bands, three
//! distinct partitions) must agree bitwise on VoltProp and Rb3d single
//! solves, batches (masked or not), step sweeps, the sparse-pad coarse
//! solve, and transient runs with a mid-run refactor.
//!
//! Every comparison is against the parallelism-2 session. Parallelism 1
//! runs the sequential schedule, which reaches the same fixed point by a
//! different path, so it is no bitwise reference. The independent
//! references for the band job are the engine tests against the
//! one-thread red-black slices (`RedBlack { threads: 1 }`) and the
//! parallelism-2 block of `tests/fixtures/routes_pinned.txt`.
//!
//! The default stack puts a pad on every pillar, which leaves the VDA's
//! pillar-lattice solve nothing to do; a sparse-pad stack runs that
//! coarse solve on every outer iteration, on an engine banded by
//! `parallelism` as well.

use voltprop::{
    Backend, FnWaveform, LoadCase, LoadProfile, LoadSet, Session, Stack3d, TraceSink,
    TransientParams, VpConfig,
};

/// The reference parallelism, and the ones compared against it.
const BASE: usize = 2;
const PARALLELISMS: [usize; 2] = [3, 4];

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

fn session(stack: &Stack3d, parallelism: usize) -> Session {
    Session::build(stack, VpConfig::new().parallelism(parallelism)).unwrap()
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
/// counts — the converged lanes exercise the batch kernel's frozen-lane
/// write gate while the stragglers keep sweeping.
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
        let want = session(&stack, BASE)
            .solve(&case())
            .unwrap()
            .voltages()
            .to_vec();
        for p in PARALLELISMS {
            let mut session = session(&stack, p);
            let view = session.solve(&case()).unwrap();
            assert!(view.converged(), "{backend:?} x{p}");
            assert_bits_eq(
                &want,
                view.voltages(),
                &format!("{backend:?}/parallelism={p}"),
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
    let mut base = session(&stack, BASE);
    let view = base.solve(&case()).unwrap();
    assert!(view.converged());
    let want = view.voltages().to_vec();
    let batch = base.solve_batch(&set()).unwrap();
    let want_lanes: Vec<Vec<f64>> = (0..k)
        .map(|j| batch.lane_voltages(j).unwrap().to_vec())
        .collect();
    for p in PARALLELISMS {
        let what = format!("parallelism={p}");
        let mut session = session(&stack, p);
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
fn masked_batches_are_shard_count_invariant() {
    let stack = stack();
    let k = 5;
    let loads = load_sweep(&stack, k);
    for backend in [Backend::VoltProp, Backend::Rb3d] {
        let set = || LoadSet::new(&stack, &loads).backend(backend);
        let mut base = session(&stack, BASE);
        let want = base.solve_batch(&set()).unwrap();
        let want_lanes: Vec<Vec<f64>> = (0..k)
            .map(|j| want.lane_voltages(j).unwrap().to_vec())
            .collect();
        for p in PARALLELISMS {
            let mut session = session(&stack, p);
            let got = session.solve_batch(&set()).unwrap();
            assert_eq!(got.lanes(), k);
            for (j, want_lane) in want_lanes.iter().enumerate() {
                assert_bits_eq(
                    want_lane,
                    got.lane_voltages(j).unwrap(),
                    &format!("{backend:?}/parallelism={p}/lane={j}"),
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
    for backend in [Backend::VoltProp, Backend::Rb3d] {
        let run = |session: &mut Session| -> Vec<Vec<f64>> {
            let case = LoadCase::new(&stack).backend(backend);
            let view = session
                .solve_steps(&case, steps, |s, lane: &mut [f64]| {
                    lane.copy_from_slice(&loads[s * nn..(s + 1) * nn]);
                })
                .unwrap();
            (0..steps)
                .map(|s| view.lane_voltages(s).unwrap().to_vec())
                .collect()
        };
        let want = run(&mut session(&stack, BASE));
        for p in PARALLELISMS {
            let got = run(&mut session(&stack, p));
            for s in 0..steps {
                assert_bits_eq(
                    &want[s],
                    &got[s],
                    &format!("{backend:?}/parallelism={p}/step={s}"),
                );
            }
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
    for backend in [Backend::VoltProp, Backend::Rb3d] {
        // Two segments at different step sizes on one session: the h
        // change between them forces a companion re-prefactor mid-run,
        // and the rebuilt banded factors must still match the
        // parallelism-2 rebuild.
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
                let params = TransientParams::new(&stack, h).backend(backend);
                let report = session
                    .transient_dynamic(&mut wave, &mut sink, &params)
                    .unwrap();
                assert_eq!(report.steps, steps);
                refactors += report.refactors;
                trace.extend_from_slice(sink.values());
            }
            (trace, refactors)
        };
        let (want, base_refactors) = run(&mut session(&stack, BASE));
        assert_eq!(base_refactors, 2, "cold prefactor + mid-run re-prefactor");
        for p in PARALLELISMS {
            let (got, refactors) = run(&mut session(&stack, p));
            assert_eq!(refactors, 2, "{backend:?}/parallelism={p}");
            assert_bits_eq(
                &want,
                &got,
                &format!("{backend:?}/transient/parallelism={p}"),
            );
        }
    }
}

#[test]
fn oversized_shard_counts_clamp_and_stay_invariant() {
    // Three rows under four threads clamp to one band per row; the
    // result is still bitwise identical, and the third band's halo
    // images show up in the memory accounting.
    let stack = Stack3d::builder(12, 3, 3)
        .load_profile(
            LoadProfile::UniformRandom {
                min: 1e-5,
                max: 1e-3,
            },
            79,
        )
        .build()
        .unwrap();
    let mut base = session(&stack, BASE);
    let want = base
        .solve(&LoadCase::new(&stack))
        .unwrap()
        .voltages()
        .to_vec();
    let base_bytes = base.memory_bytes();
    let mut session = session(&stack, 4);
    let view = session.solve(&LoadCase::new(&stack)).unwrap();
    assert!(view.converged());
    assert_bits_eq(&want, view.voltages(), "parallelism=4 on 3 rows");
    assert!(
        session.memory_bytes() > base_bytes,
        "halo images must be accounted: {} !> {}",
        session.memory_bytes(),
        base_bytes
    );
}
