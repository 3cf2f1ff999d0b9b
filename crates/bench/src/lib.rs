//! Reproduction harness for the DATE 2012 voltage propagation paper.
//!
//! This crate regenerates every quantitative artifact of the paper's
//! evaluation:
//!
//! * [`alloc`] — a counting global allocator so the `repro` binary can
//!   report *peak memory* per solver, the paper's Table-I memory column.
//! * [`harness`] — timed, memory-metered solver runs with accuracy checks
//!   against the direct reference.
//! * [`paper`] — the numbers the paper reports, for side-by-side output.
//! * [`table`] — fixed-width table rendering for terminal reports.
//! * [`experiments`] — one function per experiment (T1, E1–E7 of
//!   DESIGN.md), run by the `repro` binary.
//!
//! Run `cargo run --release -p voltprop-bench --bin repro -- help` for the
//! experiment menu.

#![warn(missing_docs)]

pub mod alloc;
pub mod experiments;
pub mod harness;
pub mod paper;
pub mod table;
pub mod trajectory;
