//! `memory_bytes` counts each allocation once: a `Session` and a two-slot
//! `SharedSession` on Table-I C1 at parallelism 2 report within 5% of the
//! heap they hold, right after build (VoltProp engines only) and again
//! after a first Pcg request has built that engine in the core.
//!
//! The counting allocator is process-wide, so this binary holds a single
//! test: nothing else may allocate while a heap delta is measured.

use voltprop_bench::alloc::{self, CountingAllocator};
use voltprop_core::{Backend, LoadCase, Session, SharedSession, VpConfig};
use voltprop_grid::TableCircuit;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn assert_within_5_percent(what: &str, reported: usize, heap: usize) {
    let off = (reported as f64 - heap as f64).abs() / heap as f64;
    assert!(
        off <= 0.05,
        "{what}: memory_bytes {reported} against a heap of {heap} ({:.1}% off)",
        100.0 * off
    );
}

#[test]
fn memory_bytes_matches_the_heap_after_build_and_after_a_first_pcg_request() {
    let stack = TableCircuit::C1.build(7).unwrap();
    let config = VpConfig::new().parallelism(2);
    let pcg = LoadCase::new(&stack).backend(Backend::Pcg);

    let base = alloc::current_bytes();
    let mut session = Session::build(&stack, config).unwrap();
    assert_within_5_percent(
        "session after build",
        session.memory_bytes(),
        alloc::current_bytes() - base,
    );
    let built = session.memory_bytes();
    assert!(session.solve(&pcg).unwrap().converged());
    assert!(session.memory_bytes() > built, "the Pcg engine is counted");
    assert_within_5_percent(
        "session after a first Pcg request",
        session.memory_bytes(),
        alloc::current_bytes() - base,
    );
    drop(session);

    let base = alloc::current_bytes();
    let shared = SharedSession::build(&stack, config, 2).unwrap();
    assert_within_5_percent(
        "shared session after build",
        shared.memory_bytes(),
        alloc::current_bytes() - base,
    );
    drop(shared.solve(&pcg).unwrap());
    assert_within_5_percent(
        "shared session after a first Pcg request",
        shared.memory_bytes(),
        alloc::current_bytes() - base,
    );
}
