//! # rio-ia32 — IA-32 subset instruction manipulation library
//!
//! This crate implements the instruction-representation layer of the RIO
//! dynamic code modification system, reproducing the design described in
//! *An Infrastructure for Adaptive Dynamic Optimization* (CGO 2003):
//!
//! * authentic variable-length IA-32 machine-code **encodings** (ModRM, SIB,
//!   displacements, immediates, opcode groups, short special forms),
//! * an **adaptive level-of-detail** instruction representation with five
//!   levels ([`Level`]), from raw byte bundles (Level 0) up to fully decoded,
//!   synthesized instructions (Level 4),
//! * [`Instr`] and [`InstrList`] — the linear single-entry multiple-exit
//!   code-sequence representation used for basic blocks and traces,
//! * a table-driven, multi-strategy **decoder** ([`decode`]) — one opcode
//!   table read by boundary scan, opcode+eflags decode and full operand
//!   decode — and a template-matching **encoder**
//!   ([`encode`]) with a raw-bit fast path,
//! * instruction-creation constructors ([`create`]) mirroring the paper's
//!   `INSTR_CREATE_*` macros, and
//! * a disassembler ([`disasm`]) printing the `srcs -> dsts` style shown in
//!   Figure 2 of the paper.
//!
//! ## Example
//!
//! ```
//! use rio_ia32::{InstrList, Level};
//!
//! // The Figure 2 example bytes: lea; mov; sub; movzx; shl; cmp; jnl
//! let bytes: &[u8] = &[
//!     0x8d, 0x34, 0x01, 0x8b, 0x46, 0x0c, 0x2b, 0x46, 0x1c, 0x0f, 0xb7,
//!     0x4e, 0x08, 0xc1, 0xe1, 0x07, 0x3b, 0xc1, 0x0f, 0x8d, 0xa2, 0x0a,
//!     0x00, 0x00,
//! ];
//! let ilist = InstrList::decode_block(bytes, 0x40_0000, Level::L1)?;
//! assert_eq!(ilist.len(), 7);
//! # Ok::<(), rio_ia32::DecodeError>(())
//! ```

#![forbid(unsafe_code)]

pub mod create;
pub mod decode;
pub mod disasm;
pub mod eflags;
pub mod encode;
pub mod ilist;
pub mod instr;
pub mod liveness;
pub mod opcode;
pub mod opnd;
pub mod reg;

pub use decode::{decode_instr, decode_opcode, decode_sizeof, DecodeError};
pub use eflags::{Eflags, EflagsEffect};
pub use encode::{encode_instr, EncodeError};
pub use ilist::{InstrId, InstrList};
pub use instr::{Instr, Level, Target};
pub use liveness::{effects, Effects, LiveState, Liveness, RegSet};
pub use opcode::{Cc, Opcode};
pub use opnd::{MemRef, OpSize, Opnd};
pub use reg::Reg;
