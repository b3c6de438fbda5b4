//! Table-driven IA-32 decoder.
//!
//! "To support the multiple `Instr` levels, multiple decoding strategies are
//! employed" (paper §3.1). The strategies share one decode table: a single
//! `match` over the opcode bytes (`classify`) yields a form holding the
//! opcode, with any group digit and condition code already resolved, the
//! opcode length, whether a ModRM byte follows, the immediate width, the
//! operand size, and templates for the source and destination operands.
//! Each strategy classifies an instruction once and reads only what its
//! level needs:
//!
//! * [`decode_sizeof`] — Levels 0/1: the instruction boundary ("even this is
//!   non-trivial for IA-32"), from the opcode length, the ModRM cluster and
//!   the immediate width.
//! * [`decode_opcode`] — Level 2: the boundary plus the opcode, which fixes
//!   the instruction's effect on the eflags.
//! * [`decode_operands`] — Level 3 without an [`Instr`]: the operand templates
//!   filled in from the ModRM cluster, the immediate and the pc, implicit
//!   operands included, and written into fixed slots of any [`Operand`]
//!   form. Nothing is allocated, so a consumer that only executes (the
//!   simulator's decode cache) binds operands straight into the form it
//!   runs.
//! * [`decode_instr`] — Levels 3/4: the same fill into [`Opnd`] slots,
//!   which a new [`Instr`] keeps, with its raw bytes inline; nothing is
//!   allocated either.
//!
//! [`InstrList::decode_block`](crate::InstrList::decode_block) decodes whole
//! blocks through the same path, at any level, and the
//! [`encode`](crate::encode) module takes its templates from the same table.

use std::error::Error;
use std::fmt;

use crate::instr::{Instr, Level};
use crate::opcode::{Cc, Opcode};
use crate::opnd::{MemRef, OpSize, Opnd};
use crate::reg::Reg;

/// Errors produced when decoding machine bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte (or byte pair / group digit) is not part of the
    /// supported subset.
    InvalidOpcode {
        /// The offending opcode byte.
        byte: u8,
        /// Whether it followed a `0x0F` escape.
        two_byte: bool,
    },
    /// The byte stream ended in the middle of an instruction.
    Truncated,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidOpcode { byte, two_byte } => {
                if *two_byte {
                    write!(f, "invalid opcode 0f {byte:02x}")
                } else {
                    write!(f, "invalid opcode {byte:02x}")
                }
            }
            DecodeError::Truncated => write!(f, "instruction truncated"),
        }
    }
}

impl Error for DecodeError {}

fn get(bytes: &[u8], i: usize) -> Result<u8, DecodeError> {
    bytes.get(i).copied().ok_or(DecodeError::Truncated)
}

/// A little-endian value of 0, 1, 2 or 4 bytes, sign- or zero-extended.
fn le_value(raw: &[u8], signed: bool) -> i32 {
    match *raw {
        [] => 0,
        [b] if signed => b as i8 as i32,
        [b] => b as i32,
        [lo, hi] if signed => i16::from_le_bytes([lo, hi]) as i32,
        [lo, hi] => u16::from_le_bytes([lo, hi]) as i32,
        [a, b, c, d] => i32::from_le_bytes([a, b, c, d]),
        _ => unreachable!("values are 0, 1, 2 or 4 bytes"),
    }
}

/// A parsed ModRM cluster: the ModRM byte, any SIB byte and displacement.
#[derive(Clone, Copy, Debug)]
struct ModRm {
    /// Total bytes consumed starting at the ModRM byte.
    len: u32,
    modrm: u8,
    /// The SIB byte, or 0 when there is none.
    sib: u8,
    disp: i32,
}

impl ModRm {
    #[inline]
    fn parse(bytes: &[u8]) -> Result<ModRm, DecodeError> {
        let modrm = get(bytes, 0)?;
        let (mod_, rm) = (modrm >> 6, modrm & 7);
        let has_sib = mod_ != 3 && rm == 4;
        let sib = if has_sib { get(bytes, 1)? } else { 0 };
        let at = 1 + has_sib as usize;
        let disp_len = match mod_ {
            // disp32 with no base: absolute, or a SIB byte with base 5.
            0 if rm == 5 || (has_sib && sib & 7 == 5) => 4,
            1 => 1,
            2 => 4,
            _ => 0,
        };
        let disp = bytes.get(at..at + disp_len).ok_or(DecodeError::Truncated)?;
        Ok(ModRm {
            len: (at + disp_len) as u32,
            modrm,
            sib,
            disp: le_value(disp, true),
        })
    }

    /// The `reg` field: a register operand or a group digit.
    fn reg(&self) -> u8 {
        (self.modrm >> 3) & 7
    }

    /// The r/m operand; `size` is its data size.
    #[inline(always)]
    fn operand<T: Operand>(&self, size: OpSize) -> T {
        let (mod_, rm) = (self.modrm >> 6, self.modrm & 7);
        if mod_ == 3 {
            return T::reg(rm, size);
        }
        let (base, index, scale) = if rm == 4 {
            let (index, base) = ((self.sib >> 3) & 7, self.sib & 7);
            (
                (base != 5 || mod_ != 0).then_some(base),
                (index != 4).then_some(index), // %esp cannot be an index
                1 << (self.sib >> 6),
            )
        } else {
            ((rm != 5 || mod_ != 0).then_some(rm), None, 1)
        };
        T::mem(base, index, scale, self.disp, size)
    }
}

/// The eight "group 1" arithmetic opcodes in encoding order.
const GRP1: [Opcode; 8] = [
    Opcode::Add,
    Opcode::Or,
    Opcode::Adc,
    Opcode::Sbb,
    Opcode::And,
    Opcode::Sub,
    Opcode::Xor,
    Opcode::Cmp,
];

/// The "group 2" shifts and rotates by ModRM digit; the others are not in
/// the subset.
const GRP2: [Option<Opcode>; 8] = [
    Some(Opcode::Rol),
    Some(Opcode::Ror),
    None,
    None,
    Some(Opcode::Shl),
    Some(Opcode::Shr),
    None,
    Some(Opcode::Sar),
];

/// Where one operand of a [`Form`] comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tmpl {
    /// The ModRM r/m operand, at the form's size.
    Rm,
    /// The register in the ModRM `reg` field, at the form's size.
    ModReg,
    /// The ModRM `reg` register at 32 bits (the movzx/movsx destination).
    ModReg32,
    /// The register in the low three bits of the last opcode byte, at the
    /// form's size.
    OpReg,
    /// The accumulator (`%al` or `%eax`) at the form's size.
    Acc,
    /// The immediate, sign-extended.
    Imm,
    /// The immediate, zero-extended.
    UImm,
    /// The immediate as a displacement from the next instruction's address.
    Rel,
    /// A fixed register.
    Fixed(Reg),
    /// Implicit stack memory at `disp(%esp)`.
    Stack(i8),
    /// The constant 1 (shift by one).
    One,
}

use Tmpl::*;

const AL: Tmpl = Fixed(Reg::Al);
const AX: Tmpl = Fixed(Reg::Ax);
const EAX: Tmpl = Fixed(Reg::Eax);
const EDX: Tmpl = Fixed(Reg::Edx);
const ESP: Tmpl = Fixed(Reg::Esp);
/// Destinations of every push: `%esp` and the new top of stack.
const PUSHED: [Tmpl; 2] = [ESP, Stack(-4)];
/// Sources of every pop: `%esp` and the old top of stack.
const POPPED: [Tmpl; 2] = [ESP, Stack(0)];

/// One row of the decode table: what every strategy needs to know about an
/// instruction once its opcode bytes (and group digit) are known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Form {
    pub(crate) op: Opcode,
    /// Opcode bytes: 1, or 2 after the `0x0F` escape.
    pub(crate) opcode_len: u8,
    /// Whether a ModRM byte (with any SIB byte and displacement) follows.
    pub(crate) modrm: bool,
    /// Immediate bytes after the ModRM cluster: 0, 1, 2 or 4.
    pub(crate) imm: u8,
    /// Size of the `Rm`, `ModReg`, `OpReg` and `Acc` operands.
    pub(crate) size: OpSize,
    pub(crate) srcs: &'static [Tmpl],
    pub(crate) dsts: &'static [Tmpl],
}

impl Form {
    /// A form with no ModRM byte, no immediate and 32-bit operands
    /// (`classify` sets the opcode length).
    fn new(op: Opcode, srcs: &'static [Tmpl], dsts: &'static [Tmpl]) -> Form {
        Form {
            op,
            opcode_len: 1,
            modrm: false,
            imm: 0,
            size: OpSize::S32,
            srcs,
            dsts,
        }
    }

    fn modrm(self) -> Form {
        Form {
            modrm: true,
            ..self
        }
    }

    fn imm(self, imm: u8) -> Form {
        Form { imm, ..self }
    }

    fn size(self, size: OpSize) -> Form {
        Form { size, ..self }
    }

    /// Parse the ModRM cluster, if any, and check that the whole
    /// instruction is present. Returns the cluster and the length. Inlined
    /// like `classify`: out of line, Level 1 cost about as much as Level 2.
    #[inline(always)]
    fn scan(&self, bytes: &[u8]) -> Result<(Option<ModRm>, u32), DecodeError> {
        let mut len = self.opcode_len as u32;
        let modrm = if self.modrm {
            let m = ModRm::parse(&bytes[len as usize..])?;
            len += m.len;
            Some(m)
        } else {
            None
        };
        len += self.imm as u32;
        if bytes.len() < len as usize {
            return Err(DecodeError::Truncated);
        }
        Ok((modrm, len))
    }

    /// Fill the operand templates of the `len`-byte instruction at `pc`
    /// into fixed slots.
    #[inline(always)]
    fn fill<T: Operand>(
        &self,
        bytes: &[u8],
        pc: u32,
        len: u32,
        modrm: Option<ModRm>,
    ) -> Operands<T> {
        let mut srcs = [T::NONE; MAX_SRCS];
        let mut dsts = [T::NONE; MAX_DSTS];
        for (slot, &t) in srcs.iter_mut().zip(self.srcs) {
            *slot = self.operand(t, bytes, pc, len, modrm);
        }
        for (slot, &t) in dsts.iter_mut().zip(self.dsts) {
            *slot = self.operand(t, bytes, pc, len, modrm);
        }
        Operands {
            op: self.op,
            len,
            srcs,
            nsrcs: self.srcs.len() as u8,
            dsts,
            ndsts: self.dsts.len() as u8,
        }
    }

    /// Operand template `t` of the `len`-byte instruction at `pc`.
    #[inline(always)]
    fn operand<T: Operand>(
        &self,
        t: Tmpl,
        bytes: &[u8],
        pc: u32,
        len: u32,
        modrm: Option<ModRm>,
    ) -> T {
        let imm = &bytes[(len - self.imm as u32) as usize..len as usize];
        let imm_size = match self.imm {
            1 => OpSize::S8,
            2 => OpSize::S16,
            _ => OpSize::S32,
        };
        let m = || modrm.expect("form has a ModRM byte");
        match t {
            Rm => m().operand(self.size),
            ModReg => T::reg(m().reg(), self.size),
            ModReg32 => T::reg(m().reg(), OpSize::S32),
            OpReg => T::reg(bytes[self.opcode_len as usize - 1] & 7, self.size),
            Acc => T::reg(0, self.size),
            Imm => T::imm(le_value(imm, true), imm_size),
            UImm => T::imm(le_value(imm, false), imm_size),
            Rel => T::pc(
                pc.wrapping_add(len)
                    .wrapping_add(le_value(imm, true) as u32),
            ),
            Fixed(r) => T::reg(r.number(), r.size()),
            Stack(disp) => T::mem(Some(Reg::Esp.number()), None, 1, disp.into(), OpSize::S32),
            One => T::imm(1, OpSize::S8),
        }
    }
}

/// A group-1 form for `op first, second` in Intel order, following the
/// DynamoRIO convention: `cmp` only reads, in operand order; the others read
/// `[second, first]` and write `first`. A macro, so the templates stay
/// static.
macro_rules! arith {
    ($op:expr, $first:expr, $second:expr) => {{
        let op = $op;
        if op == Opcode::Cmp {
            Form::new(op, &[$first, $second], &[])
        } else {
            Form::new(op, &[$second, $first], &[$first])
        }
    }};
}

/// The escape byte that starts every two-byte opcode.
const ESCAPE: u8 = 0x0F;

/// The decode table: classify the opcode bytes at the start of `bytes`.
///
/// Reads the byte after a `0x0F` escape and, for opcode groups and `lea`,
/// the ModRM byte; the rest of the instruction is left to [`Form::scan`].
/// Always inlined, so each strategy keeps only the work for the fields it
/// reads: out of line, Level 1 decoding took about three times as long.
#[inline(always)]
fn classify(bytes: &[u8]) -> Result<Form, DecodeError> {
    use OpSize::{S16, S32, S8};
    use Opcode::*;

    let b = get(bytes, 0)?;
    // One key for the whole opcode space: `0f xx` becomes `0x0fxx`.
    let (key, at) = if b == ESCAPE {
        (0x0F00 | get(bytes, 1)? as u16, 2)
    } else {
        (b as u16, 1)
    };
    let last = key as u8;
    let invalid = DecodeError::InvalidOpcode {
        byte: last,
        two_byte: at == 2,
    };
    // The ModRM `reg` field, which picks the operation in opcode groups.
    let digit = || get(bytes, at).map(|m| (m >> 3) & 7);
    // Bit 0 of most one-byte opcodes picks 8- or 32-bit operands and
    // immediates.
    let (w, iw) = if last & 1 == 0 { (S8, 1) } else { (S32, 4) };
    let cc = Cc::from_code(last & 0xF);
    // Group 1 in `0x00..=0x3D`: opcode bits 3..5 pick the operation.
    let grp1 = GRP1[usize::from(last >> 3) & 7];
    let grp2 = || GRP2[usize::from(digit()?)].ok_or(invalid);

    let form = match key {
        0x00..=0x3D if key & 7 <= 5 => match key & 7 {
            0 | 1 => arith!(grp1, Rm, ModReg).modrm(),
            2 | 3 => arith!(grp1, ModReg, Rm).modrm(),
            _ => arith!(grp1, Acc, Imm).imm(iw),
        }
        .size(w),
        0x40..=0x47 => Form::new(Inc, &[OpReg], &[OpReg]),
        0x48..=0x4F => Form::new(Dec, &[OpReg], &[OpReg]),
        0x50..=0x57 => Form::new(Push, &[OpReg, ESP], &PUSHED),
        0x58..=0x5F => Form::new(Pop, &POPPED, &[OpReg, ESP]),
        0x68 => Form::new(Push, &[Imm, ESP], &PUSHED).imm(4),
        0x6A => Form::new(Push, &[Imm, ESP], &PUSHED).imm(1),
        0x69 => Form::new(Imul, &[Rm, Imm], &[ModReg]).modrm().imm(4),
        0x6B => Form::new(Imul, &[Rm, Imm], &[ModReg]).modrm().imm(1),
        0x70..=0x7F => Form::new(Jcc(cc), &[Rel], &[]).imm(1),
        0x80 | 0x81 | 0x83 => arith!(GRP1[digit()? as usize], Rm, Imm)
            .modrm()
            .size(w)
            .imm(if key == 0x81 { 4 } else { 1 }),
        0x84 | 0x85 => Form::new(Test, &[Rm, ModReg], &[]).modrm().size(w),
        0x86 | 0x87 => Form::new(Xchg, &[Rm, ModReg], &[Rm, ModReg])
            .modrm()
            .size(w),
        0x88 | 0x89 => Form::new(Mov, &[ModReg], &[Rm]).modrm().size(w),
        0x8A | 0x8B => Form::new(Mov, &[Rm], &[ModReg]).modrm().size(w),
        // lea needs a memory operand (mod != 3).
        0x8D if get(bytes, at)? >> 6 != 3 => Form::new(Lea, &[Rm], &[ModReg]).modrm(),
        0x8F if digit()? == 0 => Form::new(Pop, &POPPED, &[Rm, ESP]).modrm(),
        0x90 => Form::new(Nop, &[], &[]),
        0x91..=0x97 => Form::new(Xchg, &[EAX, OpReg], &[EAX, OpReg]),
        0x98 => Form::new(Cwde, &[AX], &[EAX]),
        0x99 => Form::new(Cdq, &[EAX], &[EDX]),
        0x9C => Form::new(Pushfd, &[ESP], &PUSHED),
        0x9D => Form::new(Popfd, &POPPED, &[ESP]),
        0x9E => Form::new(Sahf, &[Fixed(Reg::Ah)], &[]),
        0x9F => Form::new(Lahf, &[], &[Fixed(Reg::Ah)]),
        0xA8 | 0xA9 => Form::new(Test, &[Acc, Imm], &[]).size(w).imm(iw),
        0xB0..=0xB7 => Form::new(Mov, &[Imm], &[OpReg]).size(S8).imm(1),
        0xB8..=0xBF => Form::new(Mov, &[Imm], &[OpReg]).imm(4),
        0xC0 | 0xC1 => Form::new(grp2()?, &[Imm, Rm], &[Rm]).modrm().size(w).imm(1),
        0xC2 => Form::new(Ret, &[UImm, ESP, Stack(0)], &[ESP]).imm(2),
        0xC3 => Form::new(Ret, &POPPED, &[ESP]),
        0xC6 | 0xC7 if digit()? == 0 => Form::new(Mov, &[Imm], &[Rm]).modrm().size(w).imm(iw),
        0xCC => Form::new(Int3, &[], &[]),
        0xCD => Form::new(Int, &[UImm], &[]).imm(1),
        0xD0 | 0xD1 => Form::new(grp2()?, &[One, Rm], &[Rm]).modrm().size(w),
        0xD2 | 0xD3 => Form::new(grp2()?, &[Fixed(Reg::Cl), Rm], &[Rm])
            .modrm()
            .size(w),
        0xE3 => Form::new(Jecxz, &[Rel, Fixed(Reg::Ecx)], &[]).imm(1),
        0xE8 => Form::new(Call, &[Rel, ESP], &PUSHED).imm(4),
        0xE9 => Form::new(Jmp, &[Rel], &[]).imm(4),
        0xEB => Form::new(Jmp, &[Rel], &[]).imm(1),
        0xF4 => Form::new(Hlt, &[], &[]),
        0xF6 | 0xF7 => match (digit()?, w) {
            (0, _) => Form::new(Test, &[Rm, Imm], &[]).imm(iw),
            (1, _) => return Err(invalid),
            (2, _) => Form::new(Not, &[Rm], &[Rm]),
            (3, _) => Form::new(Neg, &[Rm], &[Rm]),
            // The 8-bit forms multiply `%al` into `%ax` and divide `%ax`.
            (4, S8) => Form::new(Mul, &[Rm, AL], &[AX]),
            (5, S8) => Form::new(Imul, &[Rm, AL], &[AX]),
            (6, S8) => Form::new(Div, &[Rm, AX], &[AX]),
            (7, S8) => Form::new(Idiv, &[Rm, AX], &[AX]),
            (4, _) => Form::new(Mul, &[Rm, EAX], &[EDX, EAX]),
            (5, _) => Form::new(Imul, &[Rm, EAX], &[EDX, EAX]),
            (6, _) => Form::new(Div, &[Rm, EDX, EAX], &[EDX, EAX]),
            _ => Form::new(Idiv, &[Rm, EDX, EAX], &[EDX, EAX]),
        }
        .modrm()
        .size(w),
        0xFE | 0xFF => match digit()? {
            0 => Form::new(Inc, &[Rm], &[Rm]),
            1 => Form::new(Dec, &[Rm], &[Rm]),
            2 if key == 0xFF => Form::new(CallInd, &[Rm, ESP], &PUSHED),
            4 if key == 0xFF => Form::new(JmpInd, &[Rm], &[]),
            6 if key == 0xFF => Form::new(Push, &[Rm, ESP], &PUSHED),
            _ => return Err(invalid),
        }
        .modrm()
        .size(w),
        0x0F40..=0x0F4F => Form::new(Cmov(cc), &[Rm, ModReg], &[ModReg]).modrm(),
        0x0F80..=0x0F8F => Form::new(Jcc(cc), &[Rel], &[]).imm(4),
        0x0F90..=0x0F9F => Form::new(Set(cc), &[], &[Rm]).modrm().size(S8),
        0x0FA3 => Form::new(Bt, &[Rm, ModReg], &[]).modrm(),
        0x0FAF => Form::new(Imul, &[Rm, ModReg], &[ModReg]).modrm(),
        0x0FB6 | 0x0FB7 | 0x0FBE | 0x0FBF => {
            let op = if last < 0xBE { Movzx } else { Movsx };
            let size = if last & 1 == 0 { S8 } else { S16 };
            Form::new(op, &[Rm], &[ModReg32]).modrm().size(size)
        }
        // Group 8: only bt (/4).
        0x0FBA if digit()? == 4 => Form::new(Bt, &[Rm, Imm], &[]).modrm().imm(1),
        0x0FC8..=0x0FCF => Form::new(Bswap, &[OpReg], &[OpReg]),
        _ => return Err(invalid),
    };
    Ok(Form {
        opcode_len: at as u8,
        ..form
    })
}

/// Every row of the decode table, for the encoder: each opcode key (`0x0fxx`
/// for two-byte opcodes) and ModRM `reg` field that classifies, with its form
/// and whether the form's r/m operand must be memory (`lea`).
pub(crate) fn rows() -> impl Iterator<Item = (u16, u8, Form, bool)> {
    let one_byte = (0..=0xFF).filter(|&k| k != u16::from(ESCAPE));
    let two_byte = (0..=0xFF).map(|b| u16::from_be_bytes([ESCAPE, b]));
    let keys = one_byte.chain(two_byte);
    keys.flat_map(|key| (0..8).map(move |digit| (key, digit)))
        .filter_map(|(key, digit)| {
            // The opcode bytes, then a ModRM byte with this digit and a
            // memory (mod=00) or register (mod=11) operand.
            let [escape, last] = key.to_be_bytes();
            let form_with = |mod_bits: u8| {
                let bytes = [escape, last, mod_bits << 6 | digit << 3];
                classify(&bytes[usize::from(key <= 0xFF)..]).ok()
            };
            let form = form_with(0)?;
            Some((key, digit, form, form.modrm && form_with(3).is_none()))
        })
}

/// Decode the instruction at the start of `bytes`, located at `pc`, to
/// Level 1, 2 or 3 (`L0` is treated as `L1`, `L4` as `L3`). Returns the
/// instruction and its length. Level 3 operands come from the same fill as
/// [`decode_operands`], whose fixed slots the `Instr` keeps as they are, so
/// no level allocates.
pub(crate) fn decode_at(bytes: &[u8], pc: u32, level: Level) -> Result<(Instr, u32), DecodeError> {
    let form = classify(bytes)?;
    let (modrm, len) = form.scan(bytes)?;
    let mut instr = Instr::raw(&bytes[..len as usize], pc);
    match level {
        Level::L0 | Level::L1 => {}
        Level::L2 => instr.install_l2(form.op),
        Level::L3 | Level::L4 => instr.install_l3(&form.fill(bytes, pc, len, modrm)),
    }
    Ok((instr, len))
}

/// Most source operands a decoded instruction has (`div`, `ret imm16`).
pub const MAX_SRCS: usize = 3;
/// Most destination operands a decoded instruction has.
pub const MAX_DSTS: usize = 2;

/// A form an operand can be decoded straight into, with no [`Opnd`] in
/// between. Registers arrive as their hardware number and size (8-bit
/// numbers 4–7 are `%ah`–`%bh`); a memory operand's base and index are
/// numbers of 32-bit registers.
pub trait Operand: Copy {
    /// The value of the slots past an instruction's operand count.
    const NONE: Self;
    /// Register `number` at `size`.
    fn reg(number: u8, size: OpSize) -> Self;
    /// Memory at `disp(base, index, scale)`, accessed at `size`.
    fn mem(base: Option<u8>, index: Option<u8>, scale: u8, disp: i32, size: OpSize) -> Self;
    /// An immediate of `size`, already sign- or zero-extended.
    fn imm(value: i32, size: OpSize) -> Self;
    /// A branch target.
    fn pc(target: u32) -> Self;
}

impl Operand for Opnd {
    const NONE: Opnd = Opnd::Imm(0, OpSize::S32);

    fn reg(number: u8, size: OpSize) -> Opnd {
        Opnd::Reg(Reg::from_number(number, size))
    }

    fn mem(base: Option<u8>, index: Option<u8>, scale: u8, disp: i32, size: OpSize) -> Opnd {
        let r32 = |n| Reg::from_number(n, OpSize::S32);
        Opnd::Mem(MemRef {
            base: base.map(r32),
            index: index.map(r32),
            scale,
            disp,
            size,
        })
    }

    fn imm(value: i32, size: OpSize) -> Opnd {
        Opnd::Imm(value, size)
    }

    fn pc(target: u32) -> Opnd {
        Opnd::Pc(target)
    }
}

/// One instruction decoded to its opcode, length and operands, the operands
/// in fixed slots: `srcs[..nsrcs]` and `dsts[..ndsts]` hold them, in the
/// order [`decode_instr`] lists them, and every other slot is
/// [`Operand::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Operands<T> {
    /// The opcode.
    pub op: Opcode,
    /// The instruction length in bytes.
    pub len: u32,
    /// Source operand slots.
    pub srcs: [T; MAX_SRCS],
    /// Number of source operands.
    pub nsrcs: u8,
    /// Destination operand slots.
    pub dsts: [T; MAX_DSTS],
    /// Number of destination operands.
    pub ndsts: u8,
}

impl<T> Operands<T> {
    /// The source operands.
    pub fn srcs(&self) -> &[T] {
        &self.srcs[..usize::from(self.nsrcs)]
    }

    /// The destination operands.
    pub fn dsts(&self) -> &[T] {
        &self.dsts[..usize::from(self.ndsts)]
    }
}

/// Decode the instruction at the start of `bytes`, located at `pc`, straight
/// into its operands, with no [`Instr`] and no heap allocation: the same
/// operands [`decode_instr`] gives, implicit ones included, in the form `T`
/// the caller executes or analyses.
///
/// # Errors
///
/// Returns [`DecodeError`] for unsupported opcodes or truncated input.
///
/// # Examples
///
/// ```
/// use rio_ia32::decode::{decode_operands, Operands};
/// use rio_ia32::{Opcode, Opnd, Reg};
/// let ops: Operands<Opnd> = decode_operands(&[0x8b, 0x46, 0x0c], 0x1000)?;
/// assert_eq!((ops.op, ops.len), (Opcode::Mov, 3));
/// assert_eq!(ops.dsts(), &[Opnd::reg(Reg::Eax)]);
/// # Ok::<(), rio_ia32::DecodeError>(())
/// ```
#[inline]
pub fn decode_operands<T: Operand>(bytes: &[u8], pc: u32) -> Result<Operands<T>, DecodeError> {
    let form = classify(bytes)?;
    let (modrm, len) = form.scan(bytes)?;
    Ok(form.fill(bytes, pc, len, modrm))
}

/// Compute the length of the instruction at the start of `bytes` without
/// decoding it — the Level 0/1 strategy.
///
/// # Errors
///
/// Returns [`DecodeError`] for unsupported opcodes or truncated input.
///
/// # Examples
///
/// ```
/// use rio_ia32::decode_sizeof;
/// assert_eq!(decode_sizeof(&[0x8d, 0x34, 0x01])?, 3); // lea (%ecx,%eax,1)
/// assert_eq!(decode_sizeof(&[0x0f, 0x8d, 0, 0, 0, 0])?, 6); // jnl rel32
/// # Ok::<(), rio_ia32::DecodeError>(())
/// ```
pub fn decode_sizeof(bytes: &[u8]) -> Result<u32, DecodeError> {
    Ok(classify(bytes)?.scan(bytes)?.1)
}

/// Decode only the opcode (Level 2 strategy). Returns the opcode and the
/// instruction length.
///
/// # Errors
///
/// Returns [`DecodeError`] for unsupported opcodes or truncated input.
pub fn decode_opcode(bytes: &[u8]) -> Result<(Opcode, u32), DecodeError> {
    let form = classify(bytes)?;
    Ok((form.op, form.scan(bytes)?.1))
}

/// Fully decode the instruction at the start of `bytes`, located at
/// application address `pc`. Returns the instruction (Level 3: operands
/// decoded, raw bits retained) and its length.
///
/// Implicit operands are materialized (e.g. `%esp` and stack memory for
/// push/pop/call/ret, `%edx:%eax` or `%ax` for mul/div), so dataflow
/// analyses can treat `srcs()`/`dsts()` as complete.
///
/// # Errors
///
/// Returns [`DecodeError`] for unsupported opcodes or truncated input.
///
/// # Examples
///
/// ```
/// use rio_ia32::{decode_instr, Opcode, Opnd, Reg};
/// let (instr, len) = decode_instr(&[0x8b, 0x46, 0x0c], 0x1000)?;
/// assert_eq!(len, 3);
/// assert_eq!(instr.opcode(), Some(Opcode::Mov));
/// assert_eq!(instr.dst(0), &Opnd::reg(Reg::Eax));
/// # Ok::<(), rio_ia32::DecodeError>(())
/// ```
pub fn decode_instr(bytes: &[u8], pc: u32) -> Result<(Instr, u32), DecodeError> {
    decode_at(bytes, pc, Level::L3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2 instruction bytes from the paper.
    const FIG2: &[u8] = &[
        0x8d, 0x34, 0x01, // lea (%ecx,%eax,1) -> %esi
        0x8b, 0x46, 0x0c, // mov 0xc(%esi) -> %eax
        0x2b, 0x46, 0x1c, // sub 0x1c(%esi) %eax -> %eax
        0x0f, 0xb7, 0x4e, 0x08, // movzx 0x8(%esi) -> %ecx
        0xc1, 0xe1, 0x07, // shl $0x07 %ecx -> %ecx
        0x3b, 0xc1, // cmp %eax %ecx
        0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00, // jnl
    ];

    #[test]
    fn every_form_fits_the_operand_slots() {
        for (key, digit, form, _) in rows() {
            assert!(
                form.srcs.len() <= MAX_SRCS && form.dsts.len() <= MAX_DSTS,
                "{key:#06x} /{digit}: {form:?}"
            );
        }
    }

    #[test]
    fn operand_fill_matches_the_full_decode() {
        for bytes in [FIG2, &[0xf7, 0xfb], &[0xc2, 0x08, 0x00], &[0x50], &[0x90]] {
            let ops: Operands<Opnd> = decode_operands(bytes, 0x1000).unwrap();
            let (i, len) = decode_instr(bytes, 0x1000).unwrap();
            assert_eq!((Some(ops.op), ops.len), (i.opcode(), len));
            assert_eq!((ops.srcs(), ops.dsts()), (i.srcs(), i.dsts()));
            assert!(ops.srcs[ops.srcs().len()..]
                .iter()
                .all(|&o| o == Opnd::NONE));
            assert!(ops.dsts[ops.dsts().len()..]
                .iter()
                .all(|&o| o == Opnd::NONE));
        }
    }

    #[test]
    fn sizeof_walks_figure2_block() {
        let mut off = 0usize;
        let mut lens = Vec::new();
        while off < FIG2.len() {
            let len = decode_sizeof(&FIG2[off..]).unwrap() as usize;
            lens.push(len);
            off += len;
        }
        assert_eq!(lens, vec![3, 3, 3, 4, 3, 2, 6]);
    }

    #[test]
    fn opcode_decode_matches_figure2() {
        let expected = [
            Opcode::Lea,
            Opcode::Mov,
            Opcode::Sub,
            Opcode::Movzx,
            Opcode::Shl,
            Opcode::Cmp,
            Opcode::Jcc(Cc::Nl),
        ];
        let mut off = 0usize;
        for want in expected {
            let (op, len) = decode_opcode(&FIG2[off..]).unwrap();
            assert_eq!(op, want);
            off += len as usize;
        }
    }

    #[test]
    fn full_decode_lea_with_sib() {
        let (i, len) = decode_instr(&[0x8d, 0x34, 0x01], 0).unwrap();
        assert_eq!(len, 3);
        assert_eq!(i.opcode(), Some(Opcode::Lea));
        let m = i.src(0).as_mem().unwrap();
        assert_eq!(m.base, Some(Reg::Ecx));
        assert_eq!(m.index, Some(Reg::Eax));
        assert_eq!(m.scale, 1);
        assert_eq!(i.dst(0).as_reg(), Some(Reg::Esi));
    }

    #[test]
    fn full_decode_sub_operand_convention() {
        // sub %eax, 0x1c(%esi): srcs = [mem, eax], dsts = [eax]
        let (i, _) = decode_instr(&[0x2b, 0x46, 0x1c], 0).unwrap();
        assert_eq!(i.opcode(), Some(Opcode::Sub));
        assert!(i.src(0).as_mem().is_some());
        assert_eq!(i.src(1).as_reg(), Some(Reg::Eax));
        assert_eq!(i.dst(0).as_reg(), Some(Reg::Eax));
    }

    #[test]
    fn full_decode_jcc_target() {
        // jnl at pc=0x1000, len 6, disp 0xaa2 -> target 0x1000+6+0xaa2
        let (i, len) = decode_instr(&[0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00], 0x1000).unwrap();
        assert_eq!(len, 6);
        assert_eq!(i.src(0), &Opnd::Pc(0x1000 + 6 + 0xaa2));
        assert!(i.is_exit_cti());
    }

    #[test]
    fn rel8_jump_sign_extends() {
        // jmp -2 (infinite loop): EB FE at pc 0x2000 -> target 0x2000
        let (i, _) = decode_instr(&[0xeb, 0xfe], 0x2000).unwrap();
        assert_eq!(i.src(0), &Opnd::Pc(0x2000));
    }

    #[test]
    fn push_pop_materialize_stack_operands() {
        let (push, _) = decode_instr(&[0x50], 0).unwrap(); // push %eax
        assert_eq!(push.opcode(), Some(Opcode::Push));
        assert_eq!(push.src(1).as_reg(), Some(Reg::Esp));
        assert_eq!(push.dst(0).as_reg(), Some(Reg::Esp));
        assert!(push.dst(1).as_mem().is_some());

        let (pop, _) = decode_instr(&[0x5b], 0).unwrap(); // pop %ebx
        assert_eq!(pop.dst(0).as_reg(), Some(Reg::Ebx));
        assert!(pop.src(1).as_mem().is_some());
    }

    #[test]
    fn ret_decodes_with_stack_operands() {
        let (ret, _) = decode_instr(&[0xc3], 0).unwrap();
        assert_eq!(ret.opcode(), Some(Opcode::Ret));
        assert!(ret.is_exit_cti());
        let (retn, len) = decode_instr(&[0xc2, 0x08, 0x00], 0).unwrap();
        assert_eq!(len, 3);
        assert_eq!(retn.src(0).as_imm(), Some(8));
    }

    #[test]
    fn grp3_test_has_immediate_but_neg_does_not() {
        // test $5, %ebx = f7 c3 05 00 00 00
        assert_eq!(decode_sizeof(&[0xf7, 0xc3, 5, 0, 0, 0]).unwrap(), 6);
        // neg %ebx = f7 db
        assert_eq!(decode_sizeof(&[0xf7, 0xdb]).unwrap(), 2);
        let (t, _) = decode_instr(&[0xf7, 0xc3, 5, 0, 0, 0], 0).unwrap();
        assert_eq!(t.opcode(), Some(Opcode::Test));
        let (n, _) = decode_instr(&[0xf7, 0xdb], 0).unwrap();
        assert_eq!(n.opcode(), Some(Opcode::Neg));
    }

    #[test]
    fn div_materializes_edx_eax() {
        let (d, _) = decode_instr(&[0xf7, 0xfb], 0).unwrap(); // idiv %ebx
        assert_eq!(d.opcode(), Some(Opcode::Idiv));
        assert_eq!(d.srcs().len(), 3);
        assert_eq!(d.dsts().len(), 2);
    }

    #[test]
    fn modrm_disp_forms() {
        // mov 0x12345678, %eax (absolute): 8b 05 78 56 34 12
        let (i, len) = decode_instr(&[0x8b, 0x05, 0x78, 0x56, 0x34, 0x12], 0).unwrap();
        assert_eq!(len, 6);
        let m = i.src(0).as_mem().unwrap();
        assert_eq!(m.base, None);
        assert_eq!(m.disp, 0x12345678);

        // mov disp8(%ebp): 8b 45 fc
        let (i, _) = decode_instr(&[0x8b, 0x45, 0xfc], 0).unwrap();
        let m = i.src(0).as_mem().unwrap();
        assert_eq!(m.base, Some(Reg::Ebp));
        assert_eq!(m.disp, -4);

        // mov disp32(%esi): 8b 86 00 01 00 00
        let (i, _) = decode_instr(&[0x8b, 0x86, 0, 1, 0, 0], 0).unwrap();
        assert_eq!(i.src(0).as_mem().unwrap().disp, 0x100);

        // SIB with esp base: mov (%esp), %ecx = 8b 0c 24
        let (i, _) = decode_instr(&[0x8b, 0x0c, 0x24], 0).unwrap();
        let m = i.src(0).as_mem().unwrap();
        assert_eq!(m.base, Some(Reg::Esp));
        assert_eq!(m.index, None);

        // SIB no-base: mov 0x10(,%ebx,4), %eax = 8b 04 9d 10 00 00 00
        let (i, len) = decode_instr(&[0x8b, 0x04, 0x9d, 0x10, 0, 0, 0], 0).unwrap();
        assert_eq!(len, 7);
        let m = i.src(0).as_mem().unwrap();
        assert_eq!(m.base, None);
        assert_eq!(m.index, Some(Reg::Ebx));
        assert_eq!(m.scale, 4);
        assert_eq!(m.disp, 0x10);
    }

    #[test]
    fn indirect_ctis() {
        let (c, _) = decode_instr(&[0xff, 0xd0], 0).unwrap(); // call *%eax
        assert_eq!(c.opcode(), Some(Opcode::CallInd));
        let (j, _) = decode_instr(&[0xff, 0x24, 0x85, 0, 0, 0, 0x08], 0).unwrap(); // jmp *0x8000000(,%eax,4)
        assert_eq!(j.opcode(), Some(Opcode::JmpInd));
        let m = j.src(0).as_mem().unwrap();
        assert_eq!(m.index, Some(Reg::Eax));
        assert_eq!(m.scale, 4);
    }

    #[test]
    fn invalid_opcode_rejected() {
        assert!(matches!(
            decode_sizeof(&[0xD7]),
            Err(DecodeError::InvalidOpcode { byte: 0xD7, .. })
        ));
        assert!(matches!(
            decode_instr(&[0x0f, 0x05], 0),
            Err(DecodeError::InvalidOpcode {
                byte: 0x05,
                two_byte: true
            })
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(
            decode_sizeof(&[0x81, 0xc0, 1, 2]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(decode_sizeof(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode_sizeof(&[0x0f]), Err(DecodeError::Truncated));
    }

    #[test]
    fn setcc_and_movsx() {
        let (s, _) = decode_instr(&[0x0f, 0x94, 0xc0], 0).unwrap(); // setz %al
        assert_eq!(s.opcode(), Some(Opcode::Set(Cc::Z)));
        assert_eq!(s.dst(0).as_reg(), Some(Reg::Al));
        let (m, _) = decode_instr(&[0x0f, 0xbe, 0xc3], 0).unwrap(); // movsx %bl -> %eax
        assert_eq!(m.opcode(), Some(Opcode::Movsx));
        assert_eq!(m.src(0).as_reg(), Some(Reg::Bl));
        assert_eq!(m.dst(0).as_reg(), Some(Reg::Eax));
    }

    #[test]
    fn shift_by_cl_and_by_one() {
        let (s, _) = decode_instr(&[0xd3, 0xe0], 0).unwrap(); // shl %cl, %eax
        assert_eq!(s.opcode(), Some(Opcode::Shl));
        assert_eq!(s.src(0).as_reg(), Some(Reg::Cl));
        let (s, _) = decode_instr(&[0xd1, 0xf8], 0).unwrap(); // sar $1, %eax
        assert_eq!(s.opcode(), Some(Opcode::Sar));
        assert_eq!(s.src(0).as_imm(), Some(1));
    }

    #[test]
    fn jecxz_reads_ecx() {
        let (j, _) = decode_instr(&[0xe3, 0x05], 0x100).unwrap();
        assert_eq!(j.opcode(), Some(Opcode::Jecxz));
        assert_eq!(j.src(0), &Opnd::Pc(0x107));
        assert_eq!(j.src(1).as_reg(), Some(Reg::Ecx));
    }
}
