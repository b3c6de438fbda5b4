//! # rio-fuzz — differential conformance fuzzing for the rio engine
//!
//! The engine's contract is simple to state: a program under `rio` must
//! behave exactly as it does natively, for every configuration of the
//! engine and for every client. This crate turns that contract into a
//! fuzzing campaign:
//!
//! * [`gen`] — a deterministic generator of Dyna programs (seeded by a
//!   xorshift64* [`Rng`]; seed = program identity). Programs exercise the
//!   parts of the engine where transparency bugs live: division faults
//!   and handler delivery, self-modifying stores into watched code,
//!   deep call/return chains, and indirect-call tables.
//! * [`oracle`] — runs a program natively and through a 12-point
//!   configuration matrix (emulation, cache, traces, bounded cache,
//!   single-instruction stepping, verifier; each × null/combined
//!   clients), comparing output, exit code, a digest of final
//!   app-visible state, and verifier violations.
//! * [`shrink`] — delta-debugs a finding to a minimal statement tree and
//!   the simplest configuration that still diverges.
//! * [`corpus`] — persists minimized findings as `tests/corpus/*.dyna`
//!   regression tests that replay through the whole matrix.
//! * [`scenario`] — the declarative scenario tables behind `rio faults`,
//!   `rio smc`, and `rio verify`, and the one [`scenario::drive`] every
//!   engine run here goes through (the oracle's included).
//! * [`campaign`] — ties it together over [`rio_bench::run_parallel`],
//!   so campaign output is byte-identical at any `--jobs N`.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod scenario;
pub mod shrink;

pub use campaign::{run_campaign, run_seed, CampaignOptions, DEFAULT_BASE_SEED};
pub use corpus::{load_dir, replay_entry, CorpusEntry};
pub use gen::{render, Program, E, S};
pub use oracle::{
    check_image, diverges, run_engine, run_native_baseline, CheckSummary, EngineConfig, FuzzConfig,
    Mismatch, Outcome,
};
pub use rng::Rng;
pub use shrink::{shrink_config, shrink_program};
