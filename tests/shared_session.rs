//! Concurrency determinism: N threads solving disjoint load cases on one
//! `SharedSession` must produce voltages **bitwise identical** to the
//! same cases solved sequentially on a plain `Session`, across all three
//! backends.
//!
//! The pool is built with fewer slots than threads, so the run also
//! exercises admission control (some threads block in checkout) — which
//! must not perturb the numerics either.

use voltprop::{
    Backend, LoadCase, LoadProfile, Session, SharedSession, Stack3d, TsvPattern, VpConfig,
};

/// More threads than pool slots, and at least the 4 the acceptance
/// criteria require.
const THREADS: usize = 8;
const SLOTS: usize = 4;

/// One geometry, many load vectors: every seed yields the same grid with
/// a different per-node draw pattern, so all cases share one session.
fn case_stack(seed: u64) -> Stack3d {
    Stack3d::builder(12, 12, 3)
        .tsv_pattern(TsvPattern::Uniform { pitch: 2 })
        .load_profile(
            LoadProfile::UniformRandom {
                min: 5e-5,
                max: 2e-3,
            },
            seed,
        )
        .build()
        .expect("stack builds")
}

fn assert_bitwise(expected: &[Vec<f64>], got: &[Vec<f64>], what: &str) {
    assert_eq!(expected.len(), got.len());
    for (case, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(e.len(), g.len(), "{what} case {case}: length mismatch");
        for (node, (a, b)) in e.iter().zip(g).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what} case {case} node {node}: sequential {a:e} != concurrent {b:e}"
            );
        }
    }
}

/// [`case_stack`] with pads on one pillar in four: every VoltProp outer
/// iteration then runs the coarse pillar-lattice solve.
fn sparse_pad_stack(seed: u64) -> Stack3d {
    Stack3d::builder(16, 16, 3)
        .pad_lattice(4)
        .load_profile(
            LoadProfile::UniformRandom {
                min: 5e-5,
                max: 2e-3,
            },
            seed,
        )
        .build()
        .expect("stack builds")
}

/// Sequential reference on a plain `Session`, then the same cases (one
/// `stack_of` seed per thread) fanned out over `THREADS` scoped threads
/// on a `SharedSession`.
fn run_determinism(stack_of: fn(u64) -> Stack3d, backend_of: impl Fn(usize) -> Backend + Sync) {
    let stacks: Vec<Stack3d> = (0..THREADS as u64).map(stack_of).collect();

    let mut session = Session::build(&stacks[0], VpConfig::default()).expect("session builds");
    let expected: Vec<Vec<f64>> = stacks
        .iter()
        .enumerate()
        .map(|(i, stack)| {
            let case = LoadCase::new(stack).backend(backend_of(i));
            session
                .solve(&case)
                .expect("sequential solve succeeds")
                .voltages()
                .to_vec()
        })
        .collect();

    let shared =
        SharedSession::build(&stacks[0], VpConfig::default(), SLOTS).expect("shared builds");
    let got: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stacks
            .iter()
            .enumerate()
            .map(|(i, stack)| {
                let shared = &shared;
                let backend_of = &backend_of;
                scope.spawn(move || {
                    let case = LoadCase::new(stack).backend(backend_of(i));
                    let solution = shared.solve(&case).expect("concurrent solve succeeds");
                    solution.view().voltages().to_vec()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver thread does not panic"))
            .collect()
    });

    assert_bitwise(&expected, &got, "shared vs sequential");
    assert_eq!(
        shared.available(),
        SLOTS,
        "all scratch slots returned to the pool"
    );
}

#[test]
fn voltprop_backend_is_bitwise_deterministic_f64() {
    run_determinism(case_stack, |_| Backend::VoltProp);
}

#[test]
fn voltprop_backend_is_bitwise_deterministic_on_sparse_pads() {
    run_determinism(sparse_pad_stack, |_| Backend::VoltProp);
}

#[test]
fn rb3d_backend_is_bitwise_deterministic_f64() {
    run_determinism(case_stack, |_| Backend::Rb3d);
}

#[test]
fn pcg_backend_is_bitwise_deterministic_f64() {
    run_determinism(case_stack, |_| Backend::Pcg);
}

/// Threads cycling through *different* backends on one shared session:
/// backend routing is per-request state in the scratch, so interleaving
/// must not cross-contaminate results.
#[test]
fn interleaved_backends_stay_bitwise_deterministic() {
    let rotation = [Backend::VoltProp, Backend::Rb3d, Backend::Pcg];
    run_determinism(case_stack, |i| rotation[i % rotation.len()]);
}

/// The lazy contract: four threads send a fresh four-slot pool its first
/// Pcg requests at once, then its first Rb3d requests at once, each
/// thread holding its solution until all four have one (so every slot
/// serves one request of each). The answers match a sequential `Session`
/// bitwise, and the pool's bytes come out equal on two repetitions: each
/// engine was built once, not once per thread.
#[test]
fn concurrent_first_requests_build_each_backend_once() {
    const FIRST: usize = 4;
    let stacks: Vec<Stack3d> = (0..FIRST as u64).map(case_stack).collect();
    let backends = [Backend::Pcg, Backend::Rb3d];

    let mut session = Session::build(&stacks[0], VpConfig::default()).expect("session builds");
    let expected: Vec<Vec<f64>> = backends
        .iter()
        .flat_map(|&backend| stacks.iter().map(move |stack| (backend, stack)))
        .map(|(backend, stack)| {
            let case = LoadCase::new(stack).backend(backend);
            let view = session.solve(&case).expect("sequential solve succeeds");
            view.voltages().to_vec()
        })
        .collect();

    let mut bytes = Vec::new();
    for _ in 0..2 {
        let shared =
            SharedSession::build(&stacks[0], VpConfig::default(), FIRST).expect("shared builds");
        let built = shared.memory_bytes();
        let all_hold = std::sync::Barrier::new(FIRST);
        let mut got: Vec<Vec<f64>> = Vec::new();
        for &backend in &backends {
            got.extend(std::thread::scope(|scope| {
                let handles: Vec<_> = stacks
                    .iter()
                    .map(|stack| {
                        let (shared, all_hold) = (&shared, &all_hold);
                        scope.spawn(move || {
                            all_hold.wait();
                            let case = LoadCase::new(stack).backend(backend);
                            let solution = shared.solve(&case).expect("first request succeeds");
                            let v = solution.view().voltages().to_vec();
                            all_hold.wait();
                            v
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("solver thread does not panic"))
                    .collect::<Vec<_>>()
            }));
        }
        assert_bitwise(&expected, &got, "first requests vs sequential");
        assert!(shared.memory_bytes() > built, "both engines are counted");
        bytes.push(shared.memory_bytes());
    }
    assert_eq!(bytes[0], bytes[1], "one build per engine, every repetition");
}
