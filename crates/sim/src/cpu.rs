//! CPU architectural state, ALU flag semantics, and exit conditions.

use std::fmt;

use rio_ia32::{Cc, Eflags, OpSize, Reg};

/// Architectural register and flags state.
///
/// # Examples
///
/// ```
/// use rio_sim::CpuState;
/// use rio_ia32::Reg;
/// let mut c = CpuState::new();
/// c.set_reg(Reg::Eax, 0x1122_3344);
/// assert_eq!(c.reg(Reg::Ax), 0x3344);
/// assert_eq!(c.reg(Reg::Ah), 0x33);
/// c.set_reg(Reg::Al, 0xFF);
/// assert_eq!(c.reg(Reg::Eax), 0x1122_33FF);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuState {
    regs: [u32; 8],
    /// Arithmetic EFLAGS bits (CF/PF/AF/ZF/SF/OF at architectural positions).
    pub eflags: u32,
    /// Instruction pointer.
    pub eip: u32,
}

impl CpuState {
    /// Fresh state (all zero).
    pub fn new() -> CpuState {
        CpuState::default()
    }

    /// Read a register view (zero-extended to 32 bits).
    pub fn reg(&self, r: Reg) -> u32 {
        let full = self.regs[r.parent32().number() as usize];
        match r.size() {
            OpSize::S32 => full,
            OpSize::S16 => full & 0xFFFF,
            OpSize::S8 => {
                if r.number() >= 4 && r.size() == OpSize::S8 && is_high8(r) {
                    (full >> 8) & 0xFF
                } else {
                    full & 0xFF
                }
            }
        }
    }

    /// Write a register view, preserving unaffected bits of the parent.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        let slot = &mut self.regs[r.parent32().number() as usize];
        match r.size() {
            OpSize::S32 => *slot = v,
            OpSize::S16 => *slot = (*slot & 0xFFFF_0000) | (v & 0xFFFF),
            OpSize::S8 => {
                if is_high8(r) {
                    *slot = (*slot & 0xFFFF_00FF) | ((v & 0xFF) << 8);
                } else {
                    *slot = (*slot & 0xFFFF_FF00) | (v & 0xFF);
                }
            }
        }
    }

    /// The 32-bit register with register-file index `i` (`Reg::number`
    /// order); the index is taken modulo 8.
    #[inline]
    pub(crate) fn gpr(&self, i: u8) -> u32 {
        self.regs[usize::from(i & 7)]
    }

    /// Write the whole 32-bit register with register-file index `i`.
    #[inline]
    pub(crate) fn set_gpr(&mut self, i: u8, v: u32) {
        self.regs[usize::from(i & 7)] = v;
    }

    /// Whether a condition code holds under the current flags.
    pub fn cc_holds(&self, cc: Cc) -> bool {
        let f = |m: Eflags| self.eflags & m.0 != 0;
        match cc {
            Cc::O => f(Eflags::OF),
            Cc::No => !f(Eflags::OF),
            Cc::B => f(Eflags::CF),
            Cc::Nb => !f(Eflags::CF),
            Cc::Z => f(Eflags::ZF),
            Cc::Nz => !f(Eflags::ZF),
            Cc::Be => f(Eflags::CF) || f(Eflags::ZF),
            Cc::Nbe => !f(Eflags::CF) && !f(Eflags::ZF),
            Cc::S => f(Eflags::SF),
            Cc::Ns => !f(Eflags::SF),
            Cc::P => f(Eflags::PF),
            Cc::Np => !f(Eflags::PF),
            Cc::L => f(Eflags::SF) != f(Eflags::OF),
            Cc::Nl => f(Eflags::SF) == f(Eflags::OF),
            Cc::Le => f(Eflags::ZF) || (f(Eflags::SF) != f(Eflags::OF)),
            Cc::Nle => !f(Eflags::ZF) && (f(Eflags::SF) == f(Eflags::OF)),
        }
    }

    /// Replace the given flag bits with `value`'s bits.
    pub fn set_flags(&mut self, mask: Eflags, value: u32) {
        self.eflags = (self.eflags & !mask.0) | (value & mask.0);
    }
}

fn is_high8(r: Reg) -> bool {
    matches!(r, Reg::Ah | Reg::Ch | Reg::Dh | Reg::Bh)
}

/// The architectural class of a guest fault (the x86 exceptions the subset
/// can raise). `code()` gives the value pushed to guest fault handlers;
/// `exit_code()` the status of a process the fault ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `div`/`idiv` by zero or quotient overflow (x86 #DE).
    DivideError,
    /// Undecodable bytes — or a pseudo-instruction — reached the
    /// instruction pointer (x86 #UD).
    InvalidOpcode,
    /// A memory access touched a guarded (unmapped) region (x86 #PF-like).
    MemFault,
}

impl FaultKind {
    /// Numeric fault code delivered to guest handlers (1-based so that code
    /// 0 never looks like a valid fault).
    pub fn code(self) -> u32 {
        match self {
            FaultKind::DivideError => 1,
            FaultKind::InvalidOpcode => 2,
            FaultKind::MemFault => 3,
        }
    }

    /// Exit status of a process ended by an unhandled fault of this kind:
    /// `128 + code`, the fatal-signal shell convention (129 divide error,
    /// 130 invalid opcode, 131 memory fault).
    pub fn exit_code(self) -> i32 {
        128 + self.code() as i32
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::DivideError => "divide error",
            FaultKind::InvalidOpcode => "invalid opcode",
            FaultKind::MemFault => "memory fault",
        })
    }
}

/// Why [`Machine::run`](crate::Machine::run) stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuExit {
    /// `hlt` executed — normal program termination.
    Halt,
    /// `int n` executed — a simulated system call; `eip` points after the
    /// instruction.
    Syscall(u8),
    /// `int3` executed.
    Breakpoint,
    /// Control left the permitted execution region; `eip` holds the target
    /// address (e.g. a RIO runtime sentinel or unlinked fragment exit).
    OutOfRegion(u32),
    /// The step budget was exhausted.
    FuelExhausted,
    /// A guest fault was raised at a precise boundary: `eip` still points at
    /// the faulting instruction (`pc`) and no architectural side effect of
    /// that instruction has been applied, so the machine can be resumed
    /// (e.g. after delivering the fault to a guest handler).
    Fault {
        /// The fault class.
        kind: FaultKind,
        /// Address of the faulting instruction.
        pc: u32,
        /// Faulting data address for [`FaultKind::MemFault`]; equal to `pc`
        /// for the other kinds.
        addr: u32,
    },
    /// A guest store landed inside a watched code region
    /// ([`Machine::set_watch_region`](crate::Machine::set_watch_region)).
    /// Unlike [`CpuExit::Fault`], the store *has committed* and `eip`
    /// already points past the writing instruction, so resuming makes
    /// forward progress even when an instruction overwrites itself.
    CodeWrite {
        /// Address of the writing instruction.
        pc: u32,
        /// Start address of the store that touched a watched region.
        addr: u32,
        /// Length in bytes of the store.
        len: u32,
    },
}

/// Flag-computation results: `(result, new_arith_flags)`.
pub(crate) type AluOut = (u32, u32);

fn width_bits(size: OpSize) -> u32 {
    size.bytes() * 8
}

fn mask_of(size: OpSize) -> u32 {
    match size {
        OpSize::S8 => 0xFF,
        OpSize::S16 => 0xFFFF,
        OpSize::S32 => 0xFFFF_FFFF,
    }
}

fn msb_of(size: OpSize) -> u32 {
    1 << (width_bits(size) - 1)
}

fn szp_flags(res: u32, size: OpSize) -> u32 {
    let mut f = 0u32;
    if res & mask_of(size) == 0 {
        f |= Eflags::ZF.0;
    }
    if res & msb_of(size) != 0 {
        f |= Eflags::SF.0;
    }
    if (res as u8).count_ones().is_multiple_of(2) {
        f |= Eflags::PF.0;
    }
    f
}

/// `a + b + cin` at the given width.
pub(crate) fn alu_add(a: u32, b: u32, cin: u32, size: OpSize) -> AluOut {
    let m = mask_of(size);
    let (a, b) = (a & m, b & m);
    let wide = a as u64 + b as u64 + cin as u64;
    let res = (wide as u32) & m;
    let mut f = szp_flags(res, size);
    if wide > m as u64 {
        f |= Eflags::CF.0;
    }
    if (a ^ res) & (b ^ res) & msb_of(size) != 0 {
        f |= Eflags::OF.0;
    }
    if (a ^ b ^ res) & 0x10 != 0 {
        f |= Eflags::AF.0;
    }
    (res, f)
}

/// `a - b - bin` at the given width.
pub(crate) fn alu_sub(a: u32, b: u32, bin: u32, size: OpSize) -> AluOut {
    let m = mask_of(size);
    let (a, b) = (a & m, b & m);
    let res = a.wrapping_sub(b).wrapping_sub(bin) & m;
    let mut f = szp_flags(res, size);
    if (a as u64) < (b as u64 + bin as u64) {
        f |= Eflags::CF.0;
    }
    if (a ^ b) & (a ^ res) & msb_of(size) != 0 {
        f |= Eflags::OF.0;
    }
    if (a ^ b ^ res) & 0x10 != 0 {
        f |= Eflags::AF.0;
    }
    (res, f)
}

/// Bitwise ops: CF = OF = AF = 0.
pub(crate) fn alu_logic(res: u32, size: OpSize) -> AluOut {
    (res & mask_of(size), szp_flags(res & mask_of(size), size))
}

/// Shift left; `count` must be pre-masked and nonzero.
pub(crate) fn alu_shl(a: u32, count: u32, size: OpSize) -> AluOut {
    let m = mask_of(size);
    let a = a & m;
    let res = (a << count) & m;
    let mut f = szp_flags(res, size);
    let cf = (a >> (width_bits(size) - count)) & 1;
    if cf != 0 {
        f |= Eflags::CF.0;
    }
    if ((res & msb_of(size) != 0) as u32) ^ cf != 0 {
        f |= Eflags::OF.0;
    }
    (res, f)
}

/// Logical shift right; `count` must be pre-masked and nonzero.
pub(crate) fn alu_shr(a: u32, count: u32, size: OpSize) -> AluOut {
    let m = mask_of(size);
    let a = a & m;
    let res = a >> count;
    let mut f = szp_flags(res, size);
    if (a >> (count - 1)) & 1 != 0 {
        f |= Eflags::CF.0;
    }
    if a & msb_of(size) != 0 {
        f |= Eflags::OF.0; // defined for count==1; harmless approximation otherwise
    }
    (res, f)
}

/// Arithmetic shift right; `count` must be pre-masked and nonzero.
pub(crate) fn alu_sar(a: u32, count: u32, size: OpSize) -> AluOut {
    let m = mask_of(size);
    let bits = width_bits(size);
    // Sign-extend to i32 at the operand width, shift, re-mask.
    let sx = ((a & m) << (32 - bits)) as i32 >> (32 - bits);
    let res = ((sx >> count) as u32) & m;
    let mut f = szp_flags(res, size);
    if (sx >> (count - 1)) & 1 != 0 {
        f |= Eflags::CF.0;
    }
    (res, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_flags() {
        // 0xFFFFFFFF + 1 = 0 with carry, zero.
        let (r, f) = alu_add(0xFFFF_FFFF, 1, 0, OpSize::S32);
        assert_eq!(r, 0);
        assert!(f & Eflags::CF.0 != 0);
        assert!(f & Eflags::ZF.0 != 0);
        assert!(f & Eflags::OF.0 == 0);
        // 0x7FFFFFFF + 1 overflows signed.
        let (r, f) = alu_add(0x7FFF_FFFF, 1, 0, OpSize::S32);
        assert_eq!(r, 0x8000_0000);
        assert!(f & Eflags::OF.0 != 0);
        assert!(f & Eflags::SF.0 != 0);
        assert!(f & Eflags::CF.0 == 0);
    }

    #[test]
    fn sub_flags() {
        // 1 - 2 borrows.
        let (r, f) = alu_sub(1, 2, 0, OpSize::S32);
        assert_eq!(r, 0xFFFF_FFFF);
        assert!(f & Eflags::CF.0 != 0);
        assert!(f & Eflags::SF.0 != 0);
        // 0x80000000 - 1 overflows signed.
        let (_, f) = alu_sub(0x8000_0000, 1, 0, OpSize::S32);
        assert!(f & Eflags::OF.0 != 0);
        // equal -> ZF, no CF.
        let (_, f) = alu_sub(5, 5, 0, OpSize::S32);
        assert!(f & Eflags::ZF.0 != 0);
        assert!(f & Eflags::CF.0 == 0);
    }

    #[test]
    fn eight_bit_width_flags() {
        let (r, f) = alu_add(0xFF, 1, 0, OpSize::S8);
        assert_eq!(r, 0);
        assert!(f & Eflags::CF.0 != 0);
        assert!(f & Eflags::ZF.0 != 0);
        let (r, f) = alu_add(0x7F, 1, 0, OpSize::S8);
        assert_eq!(r, 0x80);
        assert!(f & Eflags::OF.0 != 0);
    }

    #[test]
    fn parity_is_low_byte_even_ones() {
        let (_, f) = alu_logic(0b11, OpSize::S32); // two ones -> even -> PF
        assert!(f & Eflags::PF.0 != 0);
        let (_, f) = alu_logic(0b111, OpSize::S32); // three -> odd -> no PF
        assert!(f & Eflags::PF.0 == 0);
    }

    #[test]
    fn shifts() {
        let (r, f) = alu_shl(0x8000_0001, 1, OpSize::S32);
        assert_eq!(r, 2);
        assert!(f & Eflags::CF.0 != 0);
        let (r, f) = alu_shr(0x3, 1, OpSize::S32);
        assert_eq!(r, 1);
        assert!(f & Eflags::CF.0 != 0);
        let (r, _) = alu_sar(0x8000_0000, 4, OpSize::S32);
        assert_eq!(r, 0xF800_0000);
        let (r, _) = alu_sar(0x80, 4, OpSize::S8);
        assert_eq!(r, 0xF8);
    }

    #[test]
    fn sub_register_views() {
        let mut c = CpuState::new();
        c.set_reg(Reg::Ebx, 0xAABB_CCDD);
        assert_eq!(c.reg(Reg::Bl), 0xDD);
        assert_eq!(c.reg(Reg::Bh), 0xCC);
        assert_eq!(c.reg(Reg::Bx), 0xCCDD);
        c.set_reg(Reg::Bh, 0x11);
        assert_eq!(c.reg(Reg::Ebx), 0xAABB_11DD);
    }

    #[test]
    fn cc_evaluation() {
        let mut c = CpuState::new();
        c.eflags = Eflags::ZF.0;
        assert!(c.cc_holds(Cc::Z));
        assert!(c.cc_holds(Cc::Le));
        assert!(!c.cc_holds(Cc::Nz));
        assert!(c.cc_holds(Cc::Nl)); // SF == OF == 0
        c.eflags = Eflags::SF.0;
        assert!(c.cc_holds(Cc::L)); // SF != OF
        c.eflags = Eflags::SF.0 | Eflags::OF.0;
        assert!(c.cc_holds(Cc::Nl));
    }
}
