//! # rio-core — the RIO dynamic code modification engine
//!
//! A Rust reproduction of the DynamoRIO infrastructure described in *An
//! Infrastructure for Adaptive Dynamic Optimization* (CGO 2003): a dynamic
//! translator that copies application basic blocks into a code cache, links
//! them, resolves indirect branches through a fast lookup, stitches hot
//! sequences into traces — and exports a **client interface** for building
//! custom dynamic analyses and optimizations on top.
//!
//! The public surface mirrors the paper:
//!
//! * [`Client`] — the hook functions of Table 3 (`dynamorio_basic_block`,
//!   `dynamorio_trace`, `dynamorio_fragment_deleted`,
//!   `dynamorio_end_trace`, ...).
//! * [`Core`] — the exported API of §3.2: transparent I/O, register spill
//!   slots, client thread-local storage, custom exit stubs, clean calls,
//!   processor identification, plus the **adaptive-optimization interface**
//!   of §3.4 ([`Core::decode_fragment`] / [`Core::replace_fragment`]) and
//!   the **custom-trace interface** of §3.5 ([`Core::mark_trace_head`] +
//!   [`Client::end_trace`]).
//! * [`Options`] — the rows of Table 1 ([`ExecMode`]: emulation, block
//!   cache, direct links, indirect links, traces) for ablation experiments.
//! * [`Rio`] — the engine itself.
//!
//! ## Quick start
//!
//! ```no_run
//! use rio_core::{Rio, NullClient, Options};
//! use rio_sim::{Image, CpuKind};
//!
//! let image = Image::from_code(vec![0xf4]); // hlt: trivial program
//! let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
//! let result = rio.run();
//! println!("normalized stats: {}", result.stats);
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod cache;
pub mod client;
pub mod config;
#[allow(clippy::module_inception)]
mod core;
pub mod emit;
pub mod engine;
pub mod inject;
pub mod link;
pub mod mangle;
pub mod stats;
pub mod verify;

pub use crate::core::Core;
pub use cache::{ExitKind, Fragment, FragmentId, FragmentKind, IndKind, Translation};
pub use client::{Client, EndTraceDecision, NullClient};
pub use config::{layout, ExecMode, Options};
pub use engine::{
    check_transparent, Divergence, Fault, Rio, RioRunResult, StepBudget, StepOutcome, StopReason,
};
pub use inject::{FaultInjector, InjectionPlan};
pub use mangle::{elide_ret_check, find_ib_checks, IbCheck, Note};
pub use rio_sim::FaultKind;
pub use stats::Stats;
pub use verify::{Check, Violation};
