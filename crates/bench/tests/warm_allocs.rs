//! The zero-allocation contract on a sparse-pad stack: once a session is
//! warm, single and batched VoltProp solves of a Table-I preset make no
//! allocator calls — single solves and batches of mixed widths
//! alternating included — and so does the pillar-lattice correction,
//! which only stacks with pad-less pillars run.
//!
//! The counting allocator is process-wide, so this binary holds a single
//! test: nothing else may allocate while a warm solve is measured.

use voltprop_bench::alloc::{self, CountingAllocator};
use voltprop_core::{LoadCase, LoadSet, Session, VpConfig};
use voltprop_grid::TableCircuit;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocator calls made by `run` on its second invocation (the first
/// warms the session's arenas and the worker pool). The second
/// invocation must also leave the session's `memory_bytes` unchanged.
fn warm_alloc_calls(session: &mut Session, run: impl Fn(&mut Session)) -> usize {
    run(session);
    let bytes = session.memory_bytes();
    let before = alloc::alloc_calls();
    run(session);
    let calls = alloc::alloc_calls() - before;
    assert_eq!(
        session.memory_bytes(),
        bytes,
        "a warm pass grew the session"
    );
    calls
}

#[test]
fn warm_solves_on_sparse_pads_do_not_allocate() {
    let stack = TableCircuit::C0.build(11).unwrap();
    let pads = stack
        .tsv_sites()
        .iter()
        .filter(|&&(x, y)| stack.is_pad(x as usize, y as usize))
        .count();
    assert!(
        pads < stack.tsv_sites().len(),
        "the preset must leave pillars without pads"
    );
    let load_set = |k: usize| -> Vec<f64> {
        (0..k)
            .flat_map(|j| {
                stack
                    .loads()
                    .iter()
                    .map(move |l| l * (0.8 + 0.1 * j as f64))
            })
            .collect()
    };
    let (k, wide) = (4, 8);
    let (loads, wide_loads) = (load_set(k), load_set(wide));
    for parallelism in [1, 2] {
        let mut session = Session::build(&stack, VpConfig::new().parallelism(parallelism)).unwrap();
        let single = warm_alloc_calls(&mut session, |s| {
            assert!(s.solve(&LoadCase::new(&stack)).unwrap().converged());
        });
        assert_eq!(single, 0, "warm single solve at parallelism {parallelism}");
        let batch = warm_alloc_calls(&mut session, |s| {
            assert!(s
                .solve_batch(&LoadSet::new(&stack, &loads))
                .unwrap()
                .converged());
        });
        assert_eq!(batch, 0, "warm {k}-lane batch at parallelism {parallelism}");
        // Alternating lane counts share one outer-loop arena and one
        // state per tier engine, grown to the widest batch: neither may
        // be resized when k changes.
        let alternating = warm_alloc_calls(&mut session, |s| {
            assert!(s.solve(&LoadCase::new(&stack)).unwrap().converged());
            for set in [&loads, &wide_loads, &loads] {
                let view = s.solve_batch(&LoadSet::new(&stack, set)).unwrap();
                assert!(view.converged());
            }
            assert!(s.solve(&LoadCase::new(&stack)).unwrap().converged());
        });
        assert_eq!(
            alternating, 0,
            "warm single → {k} → {wide} → {k} lanes → single at parallelism {parallelism}"
        );
    }
}
