//! # rio-bench — benchmark harnesses
//!
//! * [`reports`] — the simulated-cycle evaluation reports: Table 1,
//!   Figure 5, the suite characteristics table and the design-choice
//!   ablations. `rio golden` prints them and diffs them against
//!   `tests/golden/`.
//! * the `table2` binary — Table 2 (decode+encode host time and memory per
//!   level); it reports host timing, so it is not a golden.
//!
//! `table1`, `figure5` and the ablations are each built on a [`Sweep`]:
//! native baselines run once, then a grid of engine runs, every cell
//! checked against native execution and reported as cycles over native.
//! Every report distributes its runs over the worker-pool runner in
//! [`harness`]. Because the simulation is deterministic and results are
//! collected in item order, output is byte-identical for any job count.
//!
//! Host-time measurements live in the separate `perfbench/` package.

#![forbid(unsafe_code)]

pub mod harness;
pub mod reports;
pub mod suite_cli;
pub mod sweep;

pub use harness::run_parallel;
pub use suite_cli::Args;
pub use sweep::{geomean, Sweep};
