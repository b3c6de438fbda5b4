//! # rio-clients — sample RIO clients
//!
//! The four optimizations of the paper's §4, built on the
//! [`rio_core`] client interface, plus instrumentation clients
//! demonstrating non-optimization uses:
//!
//! | Client | Paper section | What it does |
//! |---|---|---|
//! | [`Rlr`] | §4.1 | removes redundant loads within traces |
//! | [`Inc2Add`] | §4.2, Fig. 3 | `inc`→`add 1` strength reduction on the Pentium 4 |
//! | [`IbDispatch`] | §4.3, Fig. 4 | adaptive indirect-branch dispatch with self-rewriting traces |
//! | [`CTrace`] | §4.4 | custom call-inlining traces with return elision |
//! | [`Combined`] | §5, Fig. 5 last bar | all four at once |
//! | [`InsCount`], [`BbProfile`], [`OpStats`] | abstract | instrumentation / profiling |
//! | [`Shepherd`] | conclusion / ref \[23\] | program shepherding: shadow-stack return-address checking |
//!
//! [`ClientKind`] names each of them (one `parse`/`label` for every command
//! line and table), and [`ClientKind::build`] returns an [`AnyClient`] that
//! forwards every hook to the chosen client.
//!
//! ## Example
//!
//! ```no_run
//! use rio_clients::Inc2Add;
//! use rio_core::{Rio, Options};
//! use rio_sim::{Image, CpuKind};
//!
//! let image = Image::from_code(vec![0xf4]);
//! let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, Inc2Add::new());
//! let result = rio.run();
//! println!("{}", result.client_output);
//! ```

#![forbid(unsafe_code)]

pub mod combined;
pub mod ctrace;
pub mod ibdispatch;
pub mod inc2add;
pub mod instrument;
pub mod kind;
#[cfg(test)]
mod programs;
pub mod rlr;
pub mod shepherd;

pub use combined::Combined;
pub use ctrace::CTrace;
pub use ibdispatch::IbDispatch;
pub use inc2add::Inc2Add;
pub use instrument::{BbProfile, InsCount, OpStats};
pub use kind::{AnyClient, ClientKind};
pub use rlr::Rlr;
pub use shepherd::Shepherd;
