//! Opcode definitions and per-opcode metadata.
//!
//! Each [`Opcode`] carries the metadata the rest of the system needs without
//! consulting encoding tables: mnemonic, arithmetic-eflags effect (the Level 2
//! payload), and control-transfer classification.

use std::fmt;

use crate::eflags::{Eflags, EflagsEffect};

/// IA-32 condition codes, numbered as in the `Jcc`/`SETcc` opcode encodings
/// (`0x70+cc`, `0x0F 0x80+cc`, `0x0F 0x90+cc`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Cc {
    /// Overflow.
    O = 0,
    /// Not overflow.
    No = 1,
    /// Below (unsigned <), aka carry.
    B = 2,
    /// Not below (unsigned >=).
    Nb = 3,
    /// Zero / equal.
    Z = 4,
    /// Not zero / not equal.
    Nz = 5,
    /// Below or equal (unsigned <=).
    Be = 6,
    /// Not below or equal (unsigned >).
    Nbe = 7,
    /// Sign (negative).
    S = 8,
    /// Not sign.
    Ns = 9,
    /// Parity even.
    P = 10,
    /// Parity odd.
    Np = 11,
    /// Less (signed <).
    L = 12,
    /// Not less (signed >=).
    Nl = 13,
    /// Less or equal (signed <=).
    Le = 14,
    /// Not less or equal (signed >).
    Nle = 15,
}

impl Cc {
    /// All sixteen condition codes in encoding order.
    pub const ALL: [Cc; 16] = [
        Cc::O,
        Cc::No,
        Cc::B,
        Cc::Nb,
        Cc::Z,
        Cc::Nz,
        Cc::Be,
        Cc::Nbe,
        Cc::S,
        Cc::Ns,
        Cc::P,
        Cc::Np,
        Cc::L,
        Cc::Nl,
        Cc::Le,
        Cc::Nle,
    ];

    /// Encoding number (0..=15).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Condition code from its encoding number.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16`.
    pub fn from_code(code: u8) -> Cc {
        Cc::ALL[code as usize]
    }

    /// The logically negated condition (`Z` ↔ `Nz`, etc.). Flipping the low
    /// encoding bit negates any IA-32 condition.
    pub fn negate(self) -> Cc {
        Cc::from_code(self.code() ^ 1)
    }

    /// The arithmetic flags this condition reads.
    pub fn flags_read(self) -> Eflags {
        match self {
            Cc::O | Cc::No => Eflags::OF,
            Cc::B | Cc::Nb => Eflags::CF,
            Cc::Z | Cc::Nz => Eflags::ZF,
            Cc::Be | Cc::Nbe => Eflags::CF | Eflags::ZF,
            Cc::S | Cc::Ns => Eflags::SF,
            Cc::P | Cc::Np => Eflags::PF,
            Cc::L | Cc::Nl => Eflags::SF | Eflags::OF,
            Cc::Le | Cc::Nle => Eflags::SF | Eflags::OF | Eflags::ZF,
        }
    }

    /// Mnemonic suffix (`"z"`, `"nl"`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            Cc::O => "o",
            Cc::No => "no",
            Cc::B => "b",
            Cc::Nb => "nb",
            Cc::Z => "z",
            Cc::Nz => "nz",
            Cc::Be => "be",
            Cc::Nbe => "nbe",
            Cc::S => "s",
            Cc::Ns => "ns",
            Cc::P => "p",
            Cc::Np => "np",
            Cc::L => "l",
            Cc::Nl => "nl",
            Cc::Le => "le",
            Cc::Nle => "nle",
        }
    }
}

impl fmt::Display for Cc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// The instruction opcodes of the supported IA-32 subset.
///
/// Direct and indirect control transfers are distinct opcodes (`Jmp` vs
/// `JmpInd`, `Call` vs `CallInd`), mirroring DynamoRIO's `OP_jmp` /
/// `OP_jmp_ind` split: the dynamic translator treats them completely
/// differently (linking vs hashtable lookup).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Load effective address.
    Lea,
    /// Move register/memory/immediate.
    Mov,
    /// Move with zero extension.
    Movzx,
    /// Move with sign extension.
    Movsx,
    /// Integer add.
    Add,
    /// Bitwise or.
    Or,
    /// Add with carry.
    Adc,
    /// Subtract with borrow.
    Sbb,
    /// Bitwise and.
    And,
    /// Integer subtract.
    Sub,
    /// Bitwise xor.
    Xor,
    /// Compare (subtract, flags only).
    Cmp,
    /// Increment by one (does not write CF).
    Inc,
    /// Decrement by one (does not write CF).
    Dec,
    /// Two's-complement negate.
    Neg,
    /// One's-complement not (no flags).
    Not,
    /// Logical compare (and, flags only).
    Test,
    /// Exchange.
    Xchg,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Signed multiply (one-, two-, or three-operand forms).
    Imul,
    /// Unsigned multiply (`edx:eax = eax * r/m`).
    Mul,
    /// Unsigned divide.
    Div,
    /// Signed divide.
    Idiv,
    /// Sign-extend `eax` into `edx:eax`.
    Cdq,
    /// Sign-extend `ax` into `eax`.
    Cwde,
    /// Push onto stack.
    Push,
    /// Pop from stack.
    Pop,
    /// Push EFLAGS.
    Pushfd,
    /// Pop EFLAGS.
    Popfd,
    /// Load AH from flags.
    Lahf,
    /// Store AH into flags.
    Sahf,
    /// Set byte on condition.
    Set(Cc),
    /// Conditional move (`cmovcc r32, r/m32`).
    Cmov(Cc),
    /// Rotate left.
    Rol,
    /// Rotate right.
    Ror,
    /// Bit test (`bt r/m32, r32|imm8`): sets CF to the selected bit.
    Bt,
    /// Byte-swap a 32-bit register.
    Bswap,
    /// No operation.
    Nop,
    /// Breakpoint trap.
    Int3,
    /// Software interrupt (used as the simulated system-call gate).
    Int,
    /// Halt.
    Hlt,
    /// Direct unconditional jump.
    Jmp,
    /// Indirect unconditional jump.
    JmpInd,
    /// Conditional direct jump.
    Jcc(Cc),
    /// Jump if `%ecx` is zero (reads no eflags — DynamoRIO's flag-free
    /// indirect-branch comparison trick relies on this).
    Jecxz,
    /// Direct call.
    Call,
    /// Indirect call.
    CallInd,
    /// Near return.
    Ret,
    /// Pseudo-instruction: branch target label (never encoded; zero length).
    Label,
}

impl Opcode {
    /// The number of distinct opcodes, each condition of `Set`, `Cmov` and
    /// `Jcc` counted apart: the length of a table indexed by
    /// [`Opcode::index`].
    pub(crate) const COUNT: usize = 96;

    /// A dense number below [`Opcode::COUNT`], for tables indexed by opcode.
    pub(crate) fn index(self) -> usize {
        match self {
            Opcode::Set(cc) | Opcode::Cmov(cc) | Opcode::Jcc(cc) => self.numbered().0 + cc as usize,
            _ => self.numbered().0,
        }
    }

    /// Mnemonic string (AT&T style, no size suffix).
    pub fn mnemonic(self) -> String {
        match self {
            Opcode::Set(cc) | Opcode::Cmov(cc) | Opcode::Jcc(cc) => {
                format!("{}{cc}", self.numbered().1)
            }
            _ => self.numbered().1.into(),
        }
    }

    /// The opcode's first [`Opcode::index`] and its mnemonic, without the
    /// condition suffix.
    fn numbered(self) -> (usize, &'static str) {
        use Opcode::*;
        match self {
            Lea => (0, "lea"),
            Mov => (1, "mov"),
            Movzx => (2, "movzx"),
            Movsx => (3, "movsx"),
            Add => (4, "add"),
            Or => (5, "or"),
            Adc => (6, "adc"),
            Sbb => (7, "sbb"),
            And => (8, "and"),
            Sub => (9, "sub"),
            Xor => (10, "xor"),
            Cmp => (11, "cmp"),
            Inc => (12, "inc"),
            Dec => (13, "dec"),
            Neg => (14, "neg"),
            Not => (15, "not"),
            Test => (16, "test"),
            Xchg => (17, "xchg"),
            Shl => (18, "shl"),
            Shr => (19, "shr"),
            Sar => (20, "sar"),
            Imul => (21, "imul"),
            Mul => (22, "mul"),
            Div => (23, "div"),
            Idiv => (24, "idiv"),
            Cdq => (25, "cdq"),
            Cwde => (26, "cwde"),
            Push => (27, "push"),
            Pop => (28, "pop"),
            Pushfd => (29, "pushfd"),
            Popfd => (30, "popfd"),
            Lahf => (31, "lahf"),
            Sahf => (32, "sahf"),
            Rol => (33, "rol"),
            Ror => (34, "ror"),
            Bt => (35, "bt"),
            Bswap => (36, "bswap"),
            Nop => (37, "nop"),
            Int3 => (38, "int3"),
            Int => (39, "int"),
            Hlt => (40, "hlt"),
            Jmp => (41, "jmp"),
            JmpInd => (42, "jmp*"),
            Jecxz => (43, "jecxz"),
            Call => (44, "call"),
            CallInd => (45, "call*"),
            Ret => (46, "ret"),
            Label => (47, "<label>"),
            Set(_) => (48, "set"),
            Cmov(_) => (64, "cmov"),
            Jcc(_) => (80, "j"),
        }
    }

    /// The instruction's effect on the arithmetic eflags.
    ///
    /// Flags left architecturally *undefined* are reported as written
    /// (clobbered). Shifts are conservative: a zero shift count leaves flags
    /// unchanged at runtime, but transformations must assume they are
    /// written.
    pub fn eflags_effect(self) -> EflagsEffect {
        use Opcode::*;
        match self {
            Add | Sub | Cmp | Neg | Test | And | Or | Xor | Imul | Mul | Div | Idiv => {
                EflagsEffect::writes(Eflags::ALL6)
            }
            Adc | Sbb => EflagsEffect::read_write(Eflags::CF, Eflags::ALL6),
            Inc | Dec => EflagsEffect::writes(Eflags::NOT_CF),
            Shl | Shr | Sar => EflagsEffect::writes(Eflags::ALL6),
            Jcc(cc) | Set(cc) | Cmov(cc) => EflagsEffect::reads(cc.flags_read()),
            Rol | Ror => EflagsEffect::writes(Eflags(Eflags::CF.0 | Eflags::OF.0)),
            Bt => EflagsEffect::writes(Eflags::CF),
            Sahf => EflagsEffect::writes(Eflags(
                Eflags::CF.0 | Eflags::PF.0 | Eflags::AF.0 | Eflags::ZF.0 | Eflags::SF.0,
            )),
            Lahf => EflagsEffect::reads(Eflags(
                Eflags::CF.0 | Eflags::PF.0 | Eflags::AF.0 | Eflags::ZF.0 | Eflags::SF.0,
            )),
            Pushfd => EflagsEffect::reads(Eflags::ALL6),
            Popfd => EflagsEffect::writes(Eflags::ALL6),
            _ => EflagsEffect::NONE,
        }
    }

    /// Whether this is a control-transfer instruction (CTI) — the only kind
    /// of instruction that may terminate a basic block.
    pub fn is_cti(self) -> bool {
        matches!(
            self,
            Opcode::Jmp
                | Opcode::JmpInd
                | Opcode::Jcc(_)
                | Opcode::Jecxz
                | Opcode::Call
                | Opcode::CallInd
                | Opcode::Ret
        )
    }

    /// Whether this CTI's target varies at runtime (requires hashtable
    /// lookup under the dynamic translator).
    pub fn is_indirect_cti(self) -> bool {
        matches!(self, Opcode::JmpInd | Opcode::CallInd | Opcode::Ret)
    }

    /// Whether this CTI falls through when its condition fails.
    pub fn is_conditional_cti(self) -> bool {
        matches!(self, Opcode::Jcc(_) | Opcode::Jecxz)
    }

    /// Whether this is a call (pushes a return address).
    pub fn is_call(self) -> bool {
        matches!(self, Opcode::Call | Opcode::CallInd)
    }

    /// Whether the instruction terminates the program's control flow from
    /// the translator's perspective (`hlt` ends the simulated program).
    pub fn is_halt(self) -> bool {
        matches!(self, Opcode::Hlt)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_negation_flips_low_bit() {
        assert_eq!(Cc::Z.negate(), Cc::Nz);
        assert_eq!(Cc::Nl.negate(), Cc::L);
        for cc in Cc::ALL {
            assert_eq!(cc.negate().negate(), cc);
            assert_eq!(cc.flags_read(), cc.negate().flags_read());
        }
    }

    #[test]
    fn cc_round_trips_through_code() {
        for cc in Cc::ALL {
            assert_eq!(Cc::from_code(cc.code()), cc);
        }
    }

    #[test]
    fn inc_does_not_write_cf_but_add_does() {
        // The exact property the paper's inc2add client checks (Fig. 3).
        assert!(!Opcode::Inc.eflags_effect().written.contains(Eflags::CF));
        assert!(Opcode::Add.eflags_effect().written.contains(Eflags::CF));
        assert!(!Opcode::Dec.eflags_effect().written.contains(Eflags::CF));
        assert!(Opcode::Sub.eflags_effect().written.contains(Eflags::CF));
    }

    #[test]
    fn jnl_reads_sf_and_of() {
        // Matches Figure 2's "RSO" annotation on jnl.
        let eff = Opcode::Jcc(Cc::Nl).eflags_effect();
        assert_eq!(eff.read, Eflags::SF | Eflags::OF);
        assert!(eff.written.is_empty());
    }

    #[test]
    fn jecxz_reads_no_eflags() {
        // The property the flag-free indirect-branch comparison relies on.
        assert_eq!(Opcode::Jecxz.eflags_effect(), EflagsEffect::NONE);
    }

    #[test]
    fn cti_classification() {
        assert!(Opcode::Ret.is_cti());
        assert!(Opcode::Ret.is_indirect_cti());
        assert!(!Opcode::Ret.is_conditional_cti());
        assert!(Opcode::Jcc(Cc::Z).is_conditional_cti());
        assert!(Opcode::Jecxz.is_conditional_cti());
        assert!(!Opcode::Jmp.is_indirect_cti());
        assert!(Opcode::CallInd.is_indirect_cti());
        assert!(Opcode::Call.is_call());
        assert!(!Opcode::Mov.is_cti());
    }

    #[test]
    fn mnemonics_include_cc_suffixes() {
        assert_eq!(Opcode::Jcc(Cc::Nle).mnemonic(), "jnle");
        assert_eq!(Opcode::Set(Cc::B).mnemonic(), "setb");
    }

    #[test]
    fn lahf_sahf_exclude_of() {
        assert!(!Opcode::Sahf.eflags_effect().written.contains(Eflags::OF));
        assert!(!Opcode::Lahf.eflags_effect().read.contains(Eflags::OF));
        assert!(Opcode::Sahf.eflags_effect().written.contains(Eflags::CF));
    }
}
