//! # rio-sim — simulated IA-32 machine
//!
//! The execution substrate for the RIO dynamic code modification system.
//! The original system ran its code cache natively on Pentium hardware; this
//! crate substitutes a simulated machine that **executes the encoded bytes**
//! produced by [`rio_ia32`]'s encoder through an interpreter, together with a
//! cycle cost model capturing the microarchitectural effects the paper's
//! evaluation turns on:
//!
//! * a 2-bit-counter conditional branch predictor,
//! * a branch target buffer (BTB) for indirect jumps — the *only* predictor
//!   available to translated indirect branches,
//! * a return address stack (RAS) that engages only for real `call`/`ret`
//!   pairs — which is why native execution predicts returns well while the
//!   translated code (returns become indirect jumps) does not, exactly the
//!   effect discussed in §5 of the paper,
//! * per-opcode costs including the Pentium 4 `inc`/`dec` flags-merge
//!   penalty targeted by the strength-reduction client.
//!
//! ## Example
//!
//! ```
//! use rio_sim::{Machine, Image, CpuExit, CpuKind};
//! use rio_ia32::{InstrList, create, Opnd, Reg, encode_instr};
//! use rio_ia32::encode::encode_list;
//!
//! // A tiny program: eax = 6 * 7, then halt.
//! let mut il = InstrList::new();
//! il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(6)));
//! il.push_back(create::imul3(Reg::Eax, Opnd::reg(Reg::Eax), Opnd::imm32(7)));
//! il.push_back(create::hlt());
//! let code = encode_list(&il, Image::CODE_BASE)?.bytes;
//!
//! let mut m = Machine::new(CpuKind::Pentium4);
//! m.load_image(&Image::from_code(code));
//! let exit = m.run();
//! assert_eq!(exit, CpuExit::Halt);
//! assert_eq!(m.cpu.reg(Reg::Eax), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod cpu;
pub mod image;
pub mod machine;
pub mod mem;
pub mod os;
pub mod perf;
mod spare;

pub use cpu::{CpuExit, CpuState, FaultKind};
pub use image::Image;
pub use machine::{DecodeCacheStats, ExecRegion, Machine};
pub use mem::Memory;
pub use os::{
    run_native, run_native_guarded, Os, OsEvent, RunResult, FAULT_DELIVERY_COST,
    MAX_FAULT_DELIVERIES, SET_FAULT_HANDLER_SYSCALL, SYSCALL_VECTOR, TRAP_EXIT_CODE,
};
pub use perf::{CostModel, Counters, CpuKind};

pub use rio_ia32 as ia32;
