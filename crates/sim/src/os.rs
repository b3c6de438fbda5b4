//! The simulated OS: the `int 0x80` system-call table, the cooperative
//! thread scheduler, trap semantics, and guest fault delivery.
//!
//! [`Os`] is the single owner of every OS decision. The native runner
//! ([`run_native`]) and both engine modes (emulation and the code cache)
//! hand each machine exit to [`Os::handle`] and each guest fault to
//! [`Os::deliver_fault`], so the application sees the same OS however it
//! runs. The engine only mirrors thread changes ([`OsEvent`]) in its own
//! per-thread state.
//!
//! The workload programs use these calls, selected by `%eax`:
//!
//! | `%eax` | call          | arguments / result                          |
//! |--------|---------------|---------------------------------------------|
//! | 1      | `exit`        | `%ebx` = status (ends the whole program)    |
//! | 2      | `print_int`   | `%ebx` = value (decimal)                    |
//! | 3      | `print_chr`   | `%bl` = byte                                |
//! | 10     | `spawn`       | `%ebx` = entry pc → `%eax` = thread id (0 = failure) |
//! | 11     | `yield`       | cooperative switch to the next thread       |
//! | 12     | `thread_exit` | ends the calling thread                     |
//! | 20     | `set_fault_handler` | `%ebx` = handler pc (0 clears) → `%eax` = previous handler |
//!
//! Any other `%eax` ends the program with status `0x1000 + %eax`, so a bad
//! call surfaces in tests.
//!
//! Threads are cooperative and scheduled round robin: a thread runs until
//! it yields or retires. Thread `t` gets its own stack below
//! `Image::STACK_TOP - t * THREAD_STACK_SIZE`, and at most [`MAX_THREADS`]
//! threads (the initial one included) are ever created. `hlt` and
//! `thread_exit` retire the current thread; the program exits with status 0
//! when the last one retires. `exit` ends every thread at once.
//!
//! `int3` and `int n` with `n != 0x80` are stray traps: they end the
//! program with [`TRAP_EXIT_CODE`]. An unhandled fault ends it with
//! [`FaultKind::exit_code`] (`128 + kind`).
//!
//! Output is buffered in [`Os::output`] — never written to the host's
//! stdout — which is also how the RIO engine keeps *its* I/O transparent
//! with respect to the application's.

use std::collections::VecDeque;

use rio_ia32::Reg;

use crate::cpu::{CpuExit, CpuState, FaultKind};
use crate::image::Image;
use crate::machine::{ExecRegion, Machine};

/// The system-call vector used by workloads.
pub const SYSCALL_VECTOR: u8 = 0x80;

/// Cycle cost of the (simulated) kernel round trip.
pub const SYSCALL_COST: u64 = 200;

/// Cycle cost of a thread switch.
pub const THREAD_SWITCH_COST: u64 = 400;

/// `%eax` selector of the `set_fault_handler` system call.
pub const SET_FAULT_HANDLER_SYSCALL: u32 = 20;

/// Exit status of a program that executes a stray trap (`int3`, or `int n`
/// with `n != 0x80`). The native runner also uses it when control escapes
/// the machine's execution region.
pub const TRAP_EXIT_CODE: i32 = 0x2000;

/// Cycle cost of delivering a fault to a guest handler (kernel entry +
/// frame push + redirect). Charged identically in native, emulate, and
/// cache modes so delivery does not perturb differential comparisons.
pub const FAULT_DELIVERY_COST: u64 = 350;

/// Hard cap on delivered faults per program. A handler that itself faults
/// (or re-executes a faulting instruction forever) would otherwise loop;
/// past the cap the fault is treated as unhandled — identically in native
/// and translated runs.
pub const MAX_FAULT_DELIVERIES: u32 = 1024;

/// Per-thread stack size (each thread's stack top is
/// `STACK_TOP - tid * THREAD_STACK_SIZE`).
pub const THREAD_STACK_SIZE: u32 = 0x0010_0000;

/// Maximum threads per program, the initial one included (the RIO engine's
/// thread-private cache partitioning holds at least this many).
pub const MAX_THREADS: u32 = 8;

/// What the OS decided about a machine exit it owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsEvent {
    /// Keep running the current thread.
    Continue,
    /// The program exited with this status (all threads stop).
    Exited(i32),
    /// A thread with this id was created and queued; it starts at its entry
    /// pc on its first turn. The caller's `%eax` holds the id.
    Spawned(usize),
    /// The CPU now holds thread `to`'s state. Thread `from` was queued
    /// behind the others (`yield`) or `retired` for good (`hlt`,
    /// `thread_exit`). [`THREAD_SWITCH_COST`] has been charged.
    Switched {
        /// The thread that left the CPU.
        from: usize,
        /// The thread now on the CPU.
        to: usize,
        /// Whether `from` is done.
        retired: bool,
    },
}

/// Simulated OS state: program output, the registered guest fault handler,
/// and the cooperative run queue.
#[derive(Clone, Debug, Default)]
pub struct Os {
    /// Bytes written by the program (via `print_int` / `print_chr`).
    pub output: String,
    /// Guest fault handler registered via `set_fault_handler` (syscall 20).
    pub fault_handler: Option<u32>,
    /// Faults delivered so far (bounded by [`MAX_FAULT_DELIVERIES`]).
    pub fault_deliveries: u32,
    /// Id of the thread on the CPU.
    cur: usize,
    /// Threads spawned so far (the initial thread is id 0).
    spawned: usize,
    /// Threads waiting for their turn, in round-robin order.
    run_queue: VecDeque<(usize, CpuState)>,
}

impl Os {
    /// Fresh OS state.
    pub fn new() -> Os {
        Os::default()
    }

    /// Act on a machine exit. Returns `None` for exits the OS does not own
    /// (faults, out-of-region control, code writes, fuel exhaustion).
    #[inline]
    pub fn handle(&mut self, m: &mut Machine, exit: CpuExit) -> Option<OsEvent> {
        Some(match exit {
            CpuExit::Halt => self.switch(m, true),
            CpuExit::Syscall(SYSCALL_VECTOR) => self.syscall(m),
            CpuExit::Syscall(_) | CpuExit::Breakpoint => OsEvent::Exited(TRAP_EXIT_CODE),
            _ => return None,
        })
    }

    fn syscall(&mut self, m: &mut Machine) -> OsEvent {
        m.charge(SYSCALL_COST);
        match m.cpu.reg(Reg::Eax) {
            1 => OsEvent::Exited(m.cpu.reg(Reg::Ebx) as i32),
            2 => {
                use std::fmt::Write;
                let v = m.cpu.reg(Reg::Ebx) as i32;
                let _ = writeln!(self.output, "{v}");
                OsEvent::Continue
            }
            3 => {
                self.output.push(m.cpu.reg(Reg::Bl) as u8 as char);
                OsEvent::Continue
            }
            10 => self.spawn(m),
            11 => self.switch(m, false),
            12 => self.switch(m, true),
            SET_FAULT_HANDLER_SYSCALL => {
                let new = m.cpu.reg(Reg::Ebx);
                let old = self.fault_handler.take().unwrap_or(0);
                if new != 0 {
                    self.fault_handler = Some(new);
                }
                m.cpu.set_reg(Reg::Eax, old);
                OsEvent::Continue
            }
            other => OsEvent::Exited(0x1000 + other as i32),
        }
    }

    /// Create a thread at the entry pc in `%ebx` and queue it; `%eax`
    /// receives its id, or 0 once [`MAX_THREADS`] exist.
    fn spawn(&mut self, m: &mut Machine) -> OsEvent {
        let tid = self.spawned + 1;
        if tid >= MAX_THREADS as usize {
            m.cpu.set_reg(Reg::Eax, 0);
            return OsEvent::Continue;
        }
        self.spawned = tid;
        let mut cpu = CpuState::new();
        cpu.eip = m.cpu.reg(Reg::Ebx);
        cpu.set_reg(
            Reg::Esp,
            Image::STACK_TOP - tid as u32 * THREAD_STACK_SIZE - 16,
        );
        self.run_queue.push_back((tid, cpu));
        m.cpu.set_reg(Reg::Eax, tid as u32);
        OsEvent::Spawned(tid)
    }

    /// Put the next queued thread on the CPU, queueing the current one
    /// behind it or, if `retire`, dropping it. With no other thread, a
    /// yield continues and a retirement ends the program with status 0.
    fn switch(&mut self, m: &mut Machine, retire: bool) -> OsEvent {
        let Some((to, cpu)) = self.run_queue.pop_front() else {
            return if retire {
                OsEvent::Exited(0)
            } else {
                OsEvent::Continue
            };
        };
        let prev = std::mem::replace(&mut m.cpu, cpu);
        let from = std::mem::replace(&mut self.cur, to);
        if !retire {
            self.run_queue.push_back((from, prev));
        }
        m.charge(THREAD_SWITCH_COST);
        OsEvent::Switched {
            from,
            to,
            retired: retire,
        }
    }

    /// Deliver a fault at application pc `app_pc` to the registered guest
    /// handler. Returns `false`, changing nothing, when no handler is
    /// registered or [`MAX_FAULT_DELIVERIES`] have already been made.
    ///
    /// The frame, from deepest to top of stack, is `app_pc`, the fault code
    /// ([`FaultKind::code`]), then the resume pc: the address after the
    /// faulting instruction, or `app_pc` itself if it does not decode. After
    /// a standard handler prologue (`push %ebp; mov %ebp, %esp`) the code
    /// is at `8(%ebp)` and the faulting pc at `12(%ebp)`, and the handler's
    /// `ret` skips the faulting instruction. All register state other than
    /// `%esp`/`%eip` is the faulting instruction's (transparency: the
    /// handler observes original state). [`FAULT_DELIVERY_COST`] is charged.
    pub fn deliver_fault(&mut self, m: &mut Machine, kind: FaultKind, app_pc: u32) -> bool {
        let Some(handler) = self.fault_handler else {
            return false;
        };
        if self.fault_deliveries >= MAX_FAULT_DELIVERIES {
            return false;
        }
        self.fault_deliveries += 1;
        let mut buf = [0u8; 16];
        m.mem.read_bytes(app_pc, &mut buf);
        let resume_pc = match rio_ia32::decode_instr(&buf, app_pc) {
            Ok((_, len)) => app_pc.wrapping_add(len),
            Err(_) => app_pc,
        };
        let mut esp = m.cpu.reg(Reg::Esp);
        for v in [app_pc, kind.code(), resume_pc] {
            esp = esp.wrapping_sub(4);
            m.mem.write_u32(esp, v);
        }
        m.cpu.set_reg(Reg::Esp, esp);
        m.cpu.eip = handler;
        m.charge(FAULT_DELIVERY_COST);
        true
    }
}

/// Result of running a program to completion.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Exit status (`exit` argument, or 0 once every thread has retired).
    pub exit_code: i32,
    /// Buffered program output.
    pub output: String,
    /// Final machine counters.
    pub counters: crate::perf::Counters,
    /// Digest of the final application-visible state (registers + image
    /// data segments; see [`Machine::app_state_digest`]) — the baseline the
    /// differential fuzzer compares engine runs against.
    pub state_digest: u64,
}

/// Execute an image natively (no dynamic translator) to completion.
///
/// This is the baseline every normalized-execution-time experiment divides
/// by. Guest faults are delivered to the registered handler (syscall 20),
/// or end the run with exit code `128 + kind` when unhandled — never a
/// panic.
///
/// # Examples
///
/// ```
/// use rio_sim::{run_native, Image, CpuKind};
/// use rio_ia32::{InstrList, create, Opnd, Reg};
/// use rio_ia32::encode::encode_list;
///
/// let mut il = InstrList::new();
/// il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1))); // exit
/// il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(7))); // status
/// il.push_back(create::int(0x80));
/// let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
/// let r = run_native(&Image::from_code(code), CpuKind::Pentium4);
/// assert_eq!(r.exit_code, 7);
/// ```
pub fn run_native(image: &Image, kind: crate::perf::CpuKind) -> RunResult {
    run_native_guarded(image, kind, None)
}

/// As [`run_native`], with a guarded data region installed before execution
/// (accesses into it raise [`FaultKind::MemFault`]).
pub fn run_native_guarded(
    image: &Image,
    kind: crate::perf::CpuKind,
    guard: Option<ExecRegion>,
) -> RunResult {
    let mut m = Machine::new(kind);
    m.load_image(image);
    m.set_guard_region(guard);
    let mut os = Os::new();
    let exit_code = loop {
        let exit = m.run();
        match (os.handle(&mut m, exit), exit) {
            (Some(OsEvent::Exited(code)), _) => break code,
            (Some(_), _) => {}
            (None, CpuExit::Fault { kind, pc, .. }) => {
                if !os.deliver_fault(&mut m, kind, pc) {
                    break kind.exit_code();
                }
            }
            // Control escaped the machine: finish with a distinctive
            // status instead of panicking.
            (None, _) => break TRAP_EXIT_CODE,
        }
    };
    RunResult {
        exit_code,
        output: os.output,
        counters: m.counters,
        state_digest: m.app_state_digest(image),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::CpuKind;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, InstrList, Opnd};

    fn program(build: impl FnOnce(&mut InstrList)) -> Image {
        let mut il = InstrList::new();
        build(&mut il);
        Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes)
    }

    #[test]
    fn exit_status_propagates() {
        let img = program(|il| {
            il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
            il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(42)));
            il.push_back(create::int(SYSCALL_VECTOR));
        });
        let r = run_native(&img, CpuKind::Pentium4);
        assert_eq!(r.exit_code, 42);
    }

    #[test]
    fn print_int_buffers_output() {
        let img = program(|il| {
            il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(2)));
            il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(-5)));
            il.push_back(create::int(SYSCALL_VECTOR));
            il.push_back(create::hlt());
        });
        let r = run_native(&img, CpuKind::Pentium4);
        assert_eq!(r.output, "-5\n");
        assert_eq!(r.exit_code, 0);
    }

    #[test]
    fn print_chr_appends_bytes() {
        let img = program(|il| {
            for c in [b'h', b'i'] {
                il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(3)));
                il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(c as i32)));
                il.push_back(create::int(SYSCALL_VECTOR));
            }
            il.push_back(create::hlt());
        });
        let r = run_native(&img, CpuKind::Pentium4);
        assert_eq!(r.output, "hi");
    }

    #[test]
    fn unknown_syscall_exits_with_marker() {
        let img = program(|il| {
            il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(99)));
            il.push_back(create::int(SYSCALL_VECTOR));
        });
        let r = run_native(&img, CpuKind::Pentium4);
        assert_eq!(r.exit_code, 0x1000 + 99);
    }

    #[test]
    fn stray_traps_end_the_program() {
        for trap in [create::int3(), create::int(0x21)] {
            let img = program(|il| {
                il.push_back(trap);
                il.push_back(create::hlt());
            });
            let r = run_native(&img, CpuKind::Pentium4);
            assert_eq!(r.exit_code, TRAP_EXIT_CODE);
        }
    }

    #[test]
    fn syscall_cost_is_charged() {
        let img = program(|il| {
            il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
            il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(0)));
            il.push_back(create::int(SYSCALL_VECTOR));
        });
        let r = run_native(&img, CpuKind::Pentium4);
        assert!(r.counters.charged_overhead >= SYSCALL_COST);
    }
}

#[cfg(test)]
mod thread_tests {
    use super::*;
    use crate::perf::CpuKind;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, InstrList, Opnd, Target};

    /// main prints 'A', yields, prints 'A', exits program with 7;
    /// worker prints 'B', yields, prints 'B', thread-exits.
    fn two_thread_image() -> Image {
        let mut il = InstrList::new();
        let emit_putc = |il: &mut InstrList, c: u8| {
            il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(3)));
            il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(c as i32)));
            il.push_back(create::int(SYSCALL_VECTOR));
        };
        let emit_yield = |il: &mut InstrList| {
            il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(11)));
            il.push_back(create::int(SYSCALL_VECTOR));
        };
        // spawn(worker)
        let patch = il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(10)));
        il.push_back(create::int(SYSCALL_VECTOR));
        emit_putc(&mut il, b'A');
        emit_yield(&mut il);
        emit_putc(&mut il, b'A');
        emit_yield(&mut il);
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(7)));
        il.push_back(create::int(SYSCALL_VECTOR));
        // worker:
        let worker = il.push_back(create::label());
        emit_putc(&mut il, b'B');
        emit_yield(&mut il);
        emit_putc(&mut il, b'B');
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(12)));
        il.push_back(create::int(SYSCALL_VECTOR));
        il.push_back(create::hlt());
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let worker_addr = Image::CODE_BASE + enc.offset_of(worker).unwrap();
        il.get_mut(patch)
            .set_src(0, Opnd::imm32(worker_addr as i32));
        let _ = Target::Pc(0);
        Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes)
    }

    #[test]
    fn threads_interleave_cooperatively() {
        let r = run_native(&two_thread_image(), CpuKind::Pentium4);
        assert_eq!(r.output, "ABAB");
        assert_eq!(r.exit_code, 7);
    }

    #[test]
    fn program_exit_stops_all_threads() {
        // main exits before the worker's second print.
        let r = run_native(&two_thread_image(), CpuKind::Pentium4);
        assert_eq!(r.exit_code, 7); // from main's exit(7), not worker
    }
}
