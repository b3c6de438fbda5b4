//! # rio-bench — benchmark harnesses
//!
//! Binaries that regenerate the paper's evaluation artifacts:
//!
//! * `table1` — Table 1 (emulation → cache → links → traces) on crafty/vpr.
//! * `table2` — Table 2 (decode+encode time and memory per level).
//! * `figure5` — Figure 5 (normalized execution time, six client bars,
//!   whole suite).
//! * `ablation_threshold`, `ablation_inline_ib`, `ablation_tracesize` —
//!   parameter sweeps for the design choices called out in DESIGN.md.
//!
//! `table1`, `figure5` and the ablations are each one [`Sweep`]: native
//! baselines run once, then a grid of engine runs, every cell checked
//! against native execution and reported as cycles over native. Every
//! binary distributes its engine runs over the worker-pool runner in
//! [`harness`] (`--jobs N` / `RIO_JOBS`, default: available parallelism).
//! Because the simulation is deterministic and results are collected in
//! item order, output is byte-identical for any job count.
//!
//! Host-time measurements live in the separate `perfbench/` package.

#![forbid(unsafe_code)]

pub mod harness;
pub mod suite_cli;
pub mod sweep;

pub use harness::{jobs, run_parallel};
pub use suite_cli::{print_rows, print_suite_rows, Args};
pub use sweep::{geomean, Sweep};
