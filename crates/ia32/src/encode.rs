//! Template-matching IA-32 encoder.
//!
//! "To encode an `Instr`, first the raw bit pointer is checked. If it is
//! valid, the instruction is encoded by simply copying the raw bits. If the
//! raw bits are invalid (Level 4), the instruction must be fully encoded from
//! its operands. Encoding an IA-32 instruction is costly, as many
//! instructions have special forms when the operands have certain values.
//! The encoder must walk through every operand and find an instruction
//! template that matches." (paper §3.1)
//!
//! The templates are the decoder's own table: on first use, every opcode key
//! and ModRM digit is run through the decoder's classifier, and each form is
//! kept with the bytes that select it, indexed by opcode. So only the decode
//! table knows the opcode layout. An instruction is emitted in the first of
//! its opcode's forms whose operand templates all match, trying the shortest
//! first (ties in table order), except that:
//!
//! * a form that would truncate an immediate (a shift count of 200, say)
//!   is used only when no form holds it exactly;
//! * a code address (`Opnd::Pc`) fills only a 4-byte immediate;
//! * direct branches take rel32 wherever it exists, so sizes never depend on
//!   the target (`jecxz` has only rel8);
//! * a register-to-register `mov` keeps `8b /r`, as compiled images always
//!   have;
//! * `test` and `xchg`, being symmetric, also take the register first.
//!
//! Direct CTIs are position-dependent, so a decoded direct CTI is always
//! re-encoded from its absolute target rather than copied — this is what
//! allows fragments to be placed anywhere in the code cache.
//!
//! [`encode_list`] returns an [`EncodedList`] of its own, its bytes exactly
//! sized (compiled images keep them). [`EncodedList::encode`] refills one
//! in place instead: its owner (each code cache keeps one for emission)
//! encodes with no allocation once the storage fits its largest list.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use crate::decode::{rows, Form, Tmpl};
use crate::ilist::{InstrId, InstrList, Positions};
use crate::instr::Instr;
use crate::opcode::Opcode;
use crate::opnd::{MemRef, OpSize, Opnd};
use crate::reg::Reg;

/// Errors produced when encoding instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// No encoding template matches the instruction's operands.
    NoTemplate(Opcode),
    /// The instruction has neither valid raw bits nor decoded operands.
    NotDecoded,
    /// A branch names a label that the resolver cannot place.
    UnresolvedLabel(InstrId),
    /// A rel8-only branch (`jecxz`) target is out of range.
    TargetOutOfRange {
        /// The required displacement.
        disp: i64,
    },
    /// An operand combination that IA-32 cannot express (e.g. `%esp` index,
    /// bad scale).
    InvalidOperand,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NoTemplate(op) => write!(f, "no encoding template for {op}"),
            EncodeError::NotDecoded => write!(f, "instruction not decoded and raw bits invalid"),
            EncodeError::UnresolvedLabel(id) => write!(f, "unresolved label {id:?}"),
            EncodeError::TargetOutOfRange { disp } => {
                write!(f, "branch displacement {disp} out of range")
            }
            EncodeError::InvalidOperand => write!(f, "operand not encodable"),
        }
    }
}

impl Error for EncodeError {}

/// Target resolver: maps an intra-list label id to its code address.
pub type Resolver<'a> = &'a dyn Fn(InstrId) -> Option<u32>;

/// Whether `v` survives truncation to `bits` bits and sign extension back.
fn fits(v: i32, bits: u32) -> bool {
    bits >= 32 || (v << (32 - bits)) >> (32 - bits) == v
}

/// Emit a ModRM byte (plus SIB/displacement) for `reg_digit` and the given
/// r/m operand.
fn emit_modrm(out: &mut Vec<u8>, reg_digit: u8, rm: &Opnd) -> Result<(), EncodeError> {
    match rm {
        Opnd::Reg(r) => {
            out.push(0xC0 | (reg_digit << 3) | r.number());
            Ok(())
        }
        Opnd::Mem(m) => emit_modrm_mem(out, reg_digit, m),
        _ => Err(EncodeError::InvalidOperand),
    }
}

fn emit_modrm_mem(out: &mut Vec<u8>, reg_digit: u8, m: &MemRef) -> Result<(), EncodeError> {
    let scales = [1, 2, 4, 8];
    let bad_index = |i: Reg| i == Reg::Esp || i.size() != OpSize::S32 || !scales.contains(&m.scale);
    if m.index.is_some_and(bad_index) || m.base.is_some_and(|b| b.size() != OpSize::S32) {
        return Err(EncodeError::InvalidOperand);
    }
    let scale_bits = scales.iter().position(|&s| s == m.scale).unwrap_or(0) as u8;

    let disp_len = match (m.base, m.index) {
        // Absolute: mod=00 rm=101 disp32.
        (None, None) => {
            out.push((reg_digit << 3) | 5);
            4
        }
        // SIB with no base: mod=00 rm=100, sib base=101, disp32.
        (None, Some(idx)) => {
            out.push((reg_digit << 3) | 4);
            out.push((scale_bits << 6) | (idx.number() << 3) | 5);
            4
        }
        (Some(base), index) => {
            // mod selection: %ebp base cannot use mod=00 (that means disp32).
            let (mod_bits, disp_len) = if m.disp == 0 && base != Reg::Ebp {
                (0u8, 0)
            } else if fits(m.disp, 8) {
                (1, 1)
            } else {
                (2, 4)
            };
            if index.is_some() || base == Reg::Esp {
                out.push((mod_bits << 6) | (reg_digit << 3) | 4);
                let idx_bits = index.map_or(4, |i| i.number());
                out.push((scale_bits << 6) | (idx_bits << 3) | base.number());
            } else {
                out.push((mod_bits << 6) | (reg_digit << 3) | base.number());
            }
            disp_len
        }
    };
    out.extend_from_slice(&m.disp.to_le_bytes()[..disp_len]);
    Ok(())
}

/// One encoding template: a row of the decode table with the opcode bytes
/// and ModRM digit that select it.
#[derive(Clone, Copy, Debug)]
struct Template {
    form: Form,
    /// The opcode bytes as one key, `0x0fxx` for two-byte opcodes, with the
    /// register bits clear in a register-in-opcode family.
    key: u16,
    /// The ModRM `reg` field wherever no operand fills it (a group digit).
    digit: u8,
    /// The operand signatures ([`signature`]) this form can take: those
    /// whose bits under `mask` equal `value`.
    mask: u64,
    value: u64,
    /// For forms with a register in the opcode's low three bits, the
    /// registers (bit `n` for register number `n`) the table gives this form.
    op_regs: u8,
}

/// Operands bound to a template's slots.
#[derive(Default)]
struct Binding {
    rm: Option<Opnd>,
    /// The register number in the ModRM `reg` field or the opcode.
    reg: Option<u8>,
    imm: i32,
    target: Option<Opnd>,
    /// Whether the immediate had to be truncated to fit the form.
    truncated: bool,
}

impl Template {
    /// Bind the operands, whose [`signature`] is `sig`, to this form's
    /// templates, or `None` if any operand does not fit its slot.
    fn bind(&self, sig: u64, srcs: &[Opnd], dsts: &[Opnd]) -> Option<Binding> {
        if sig & self.mask != self.value {
            return None;
        }
        let mut b = Binding::default();
        for (ts, os) in [(self.form.srcs, srcs), (self.form.dsts, dsts)] {
            for (&t, o) in ts.iter().zip(os) {
                if !self.bind_one(t, o, &mut b) {
                    return None;
                }
            }
        }
        Some(b)
    }

    /// Bind one operand whose kind and size the signature has matched.
    #[inline(always)]
    fn bind_one(&self, t: Tmpl, o: &Opnd, b: &mut Binding) -> bool {
        let reg = o.as_reg().map_or(8, Reg::number);
        let mut bind_reg = |n: u8| *b.reg.get_or_insert(n) == n;
        match t {
            Tmpl::Rm => *b.rm.get_or_insert(*o) == *o,
            Tmpl::ModReg | Tmpl::ModReg32 => bind_reg(reg),
            Tmpl::OpReg => self.op_regs & 1 << reg != 0 && bind_reg(reg),
            Tmpl::Acc => reg == 0,
            Tmpl::Imm | Tmpl::UImm => {
                let bits = 8 * u32::from(self.form.imm);
                b.imm = match *o {
                    Opnd::Imm(v, _) => v,
                    Opnd::Pc(pc) => pc as i32,
                    _ => return false,
                };
                b.truncated = if t == Tmpl::Imm {
                    !fits(b.imm, bits)
                } else {
                    bits < 32 && (b.imm as u32) >> bits != 0
                };
                true
            }
            Tmpl::Rel => {
                b.target = Some(*o);
                true
            }
            Tmpl::Fixed(r) => *o == Opnd::Reg(r),
            Tmpl::Stack(disp) => {
                *o == Opnd::Mem(MemRef::base_disp(Reg::Esp, disp.into(), OpSize::S32))
            }
            Tmpl::One => matches!(o, Opnd::Imm(1, _)),
        }
    }

    /// Append this form with the bound operands, placed at `at_pc`.
    fn emit(
        &self,
        b: &Binding,
        at_pc: u32,
        resolve: Resolver<'_>,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        let start = out.len();
        let key = self.key | u16::from(b.reg.filter(|_| self.op_regs != 0).unwrap_or(0));
        out.extend_from_slice(&key.to_be_bytes()[2 - usize::from(self.form.opcode_len)..]);
        if let Some(rm) = &b.rm {
            emit_modrm(out, b.reg.unwrap_or(self.digit), rm)?;
        }
        let width = usize::from(self.form.imm);
        let value = match b.target {
            Some(target) => {
                let target = match target {
                    Opnd::Pc(pc) => pc,
                    Opnd::Instr(id) => resolve(id).ok_or(EncodeError::UnresolvedLabel(id))?,
                    _ => return Err(EncodeError::InvalidOperand),
                };
                let next = at_pc.wrapping_add((out.len() - start + width) as u32);
                let disp = target.wrapping_sub(next) as i32;
                if !fits(disp, 8 * width as u32) {
                    return Err(EncodeError::TargetOutOfRange { disp: disp.into() });
                }
                disp
            }
            None => b.imm,
        };
        out.extend_from_slice(&value.to_le_bytes()[..width]);
        Ok(())
    }
}

/// An operand's class: two bits of kind (register, memory, immediate, code
/// address) above two bits of size.
fn class(o: &Opnd) -> u64 {
    let (kind, size) = match o {
        Opnd::Reg(r) => (0, r.size()),
        Opnd::Mem(m) => (1, m.size),
        Opnd::Imm(_, size) => (2, *size),
        Opnd::Pc(_) | Opnd::Instr(_) => (3, OpSize::S32),
    };
    kind << 2 | size as u64
}

/// The operand counts in the top two bytes, above the classes of the first
/// twelve operands, sources first.
fn signature(srcs: &[Opnd], dsts: &[Opnd]) -> u64 {
    let count = |v: &[Opnd]| v.len().min(255) as u64;
    let classes = srcs.iter().chain(dsts).take(12).enumerate();
    let sig = classes.fold(0, |sig, (i, o)| sig | class(o) << (4 * i));
    sig | count(srcs) << 48 | count(dsts) << 56
}

/// The `(mask, value)` that a signature must match to fit `form`'s
/// templates; `mem_only` when its r/m operand must be memory (`lea`).
fn filter(form: &Form, mem_only: bool) -> (u64, u64) {
    let count = |v: &[Tmpl]| v.len() as u64;
    let mut mask = 0xFFFF << 48;
    let mut value = count(form.srcs) << 48 | count(form.dsts) << 56;
    let (size, s32, mem) = (form.size as u64, OpSize::S32 as u64, 0b0100);
    for (i, &t) in form.srcs.iter().chain(form.dsts).enumerate() {
        let (m, v) = match t {
            Tmpl::Rm if mem_only => (0b1111, mem | size),
            // A register or memory operand of the form's size.
            Tmpl::Rm => (0b1011, size),
            Tmpl::ModReg | Tmpl::OpReg | Tmpl::Acc => (0b1111, size),
            Tmpl::ModReg32 => (0b1111, s32),
            Tmpl::Fixed(r) => (0b1111, r.size() as u64),
            Tmpl::Stack(_) => (0b1111, mem | s32),
            // A 4-byte immediate also holds a code address.
            Tmpl::Imm | Tmpl::UImm if form.imm == 4 => (0b1000, 0b1000),
            Tmpl::Imm | Tmpl::UImm | Tmpl::One => (0b1100, 0b1000),
            Tmpl::Rel => (0b1100, 0b1100),
        };
        mask |= m << (4 * i);
        value |= v << (4 * i);
    }
    (mask, value)
}

/// The forms of `op`, in selection order. The index, the table's forms by
/// [`Opcode::index`], is built on first use.
fn forms_of(op: Opcode) -> &'static [Template] {
    static INDEX: OnceLock<Vec<Vec<Template>>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        let mut all: Vec<Template> = Vec::new();
        for (key, digit, form, mem_only) in rows() {
            // Other digits of a non-group opcode give the same form, and so
            // do the eight opcodes of a register-in-opcode family.
            let op_reg = form.srcs.contains(&Tmpl::OpReg) || form.dsts.contains(&Tmpl::OpReg);
            let same = |t: &&mut Template| {
                t.form == form && (t.key == key || op_reg && t.key >> 3 == key >> 3)
            };
            let mut block = all.iter_mut().rev().take_while(|t| t.key >> 3 == key >> 3);
            if let Some(t) = block.find(same) {
                t.op_regs |= u8::from(op_reg) << (key & 7);
                continue;
            }
            let (mask, value) = filter(&form, mem_only);
            all.push(Template {
                form,
                key: if op_reg { key & !7 } else { key },
                digit,
                mask,
                value,
                op_regs: u8::from(op_reg) << (key & 7),
            });
        }
        all.sort_by_key(|t| {
            let f = &t.form;
            let rel32 = f.srcs.first() == Some(&Tmpl::Rel) && f.imm == 4;
            // The length, less the SIB byte and displacement that every form
            // with a ModRM byte shares.
            let len = f.opcode_len + f.modrm as u8 + f.imm;
            let mov_to_reg = f.op == Opcode::Mov && f.dsts == [Tmpl::ModReg];
            (!rel32, len, !mov_to_reg, t.key, t.digit)
        });
        let mut index = vec![Vec::new(); Opcode::COUNT];
        for t in all {
            index[t.form.op.index()].push(t);
        }
        index
    });
    &index[op.index()]
}

/// The first form of `op` that holds the operands exactly, else the first
/// that holds them with a truncated immediate.
fn select(op: Opcode, srcs: &[Opnd], dsts: &[Opnd]) -> Option<(&'static Template, Binding)> {
    let sig = signature(srcs, dsts);
    let mut truncated = None;
    for t in forms_of(op) {
        if let Some(b) = t.bind(sig, srcs, dsts) {
            if !b.truncated {
                return Some((t, b));
            }
            truncated = truncated.or(Some((t, b)));
        }
    }
    truncated
}

/// Encode a single instruction placed at address `at_pc`.
///
/// `resolve` maps intra-list label ids to addresses; pass `&|_| None` when
/// the instruction cannot contain label targets.
///
/// # Errors
///
/// Returns [`EncodeError`] if no template matches, a label is unresolved, or
/// a rel8 target is out of range.
///
/// # Examples
///
/// ```
/// use rio_ia32::{create, encode_instr, Opnd, Reg};
/// let i = create::add(Opnd::reg(Reg::Eax), Opnd::imm8(1));
/// let bytes = encode_instr(&i, 0x1000, &|_| None)?;
/// assert_eq!(bytes, vec![0x83, 0xc0, 0x01]); // short imm8 form
/// # Ok::<(), rio_ia32::EncodeError>(())
/// ```
pub fn encode_instr(
    instr: &Instr,
    at_pc: u32,
    resolve: Resolver<'_>,
) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    encode_into(instr, at_pc, resolve, &mut out)?;
    Ok(out)
}

/// Append the encoding of `instr`, placed at `at_pc`, to `out`.
fn encode_into(
    instr: &Instr,
    at_pc: u32,
    resolve: Resolver<'_>,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    // Raw bits are copied verbatim, except a direct CTI's: its target is
    // position-dependent, so it is encoded again from the absolute target.
    if instr.is_label() || (instr.raw_valid() && instr.target().is_none()) {
        out.extend_from_slice(instr.raw_bytes().unwrap_or_default());
        return Ok(());
    }
    let op = instr.opcode().ok_or(EncodeError::NotDecoded)?;
    let (srcs, dsts) = (instr.srcs(), instr.dsts());
    let rev = |v: &[Opnd]| v.iter().rev().copied().collect::<Vec<_>>();
    let symmetric = matches!(op, Opcode::Test | Opcode::Xchg);
    let (t, b) = select(op, srcs, dsts)
        .or_else(|| symmetric.then(|| select(op, &rev(srcs), &rev(dsts)))?)
        .ok_or(EncodeError::NoTemplate(op))?;
    t.emit(&b, at_pc, resolve, out)
}

/// Result of encoding an entire [`InstrList`]: the bytes plus each
/// instruction's offset within them.
#[derive(Clone, Debug, Default)]
pub struct EncodedList {
    /// The encoded machine code.
    pub bytes: Vec<u8>,
    /// The encoded list's ids.
    ids: Positions,
    /// Each instruction's offset, in list order. Labels get the offset of
    /// the following instruction.
    offsets: Vec<u32>,
}

impl EncodedList {
    /// Offset of instruction `id`, if present.
    pub fn offset_of(&self, id: InstrId) -> Option<u32> {
        self.ids.get(id).map(|i| self.offsets[i])
    }

    /// Encoded length of instruction `id` (zero for a label), if present.
    pub fn len_of(&self, id: InstrId) -> Option<u32> {
        let i = self.ids.get(id)?;
        let end = self.offsets.get(i + 1).copied();
        Some(end.unwrap_or(self.bytes.len() as u32) - self.offsets[i])
    }

    /// [`encode_list`] into this list, in place of its contents and in its
    /// storage. On error the contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if any instruction fails to encode.
    pub fn encode(&mut self, il: &InstrList, start_pc: u32) -> Result<(), EncodeError> {
        self.ids.refill(il);
        self.bytes.clear();
        self.offsets.clear();
        for &id in &self.ids.order {
            let at = start_pc.wrapping_add(self.bytes.len() as u32);
            self.offsets.push(self.bytes.len() as u32);
            encode_into(il.get(id), at, &|_| Some(at), &mut self.bytes)?;
        }
        // Encode each instruction that names a label again, past the end,
        // and move it into place.
        let end = self.bytes.len();
        for (i, &id) in self.ids.order.iter().enumerate() {
            let instr = il.get(id);
            if !instr.srcs().iter().any(|o| matches!(o, Opnd::Instr(_))) {
                continue;
            }
            let off = self.offsets[i];
            let lookup = |l| Some(start_pc.wrapping_add(self.offsets[self.ids.get(l)?]));
            encode_into(instr, start_pc.wrapping_add(off), &lookup, &mut self.bytes)?;
            let next = self.offsets.get(i + 1).map_or(end, |&o| o as usize);
            debug_assert_eq!(self.bytes.len() - end, next - off as usize, "a label moved");
            self.bytes.copy_within(end.., off as usize);
            self.bytes.truncate(end);
        }
        Ok(())
    }
}

/// Encode a whole list at `start_pc`, resolving intra-list label targets.
///
/// Every instruction is encoded once, in order, with labels resolved to the
/// naming instruction's own address. Sizes never depend on branch targets
/// (synthesized direct branches use rel32 forms, and a self-targeting rel8
/// `jecxz` is in range), so the offsets are final after that pass, and only
/// the instructions that name a label are encoded again. The returned
/// bytes take exactly their length.
///
/// # Errors
///
/// Returns [`EncodeError`] if any instruction fails to encode.
pub fn encode_list(il: &InstrList, start_pc: u32) -> Result<EncodedList, EncodeError> {
    let mut list = EncodedList::default();
    list.encode(il, start_pc)?;
    list.bytes.shrink_to_fit();
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create;
    use crate::decode::decode_instr;
    use crate::instr::Target;

    fn no_labels(_: InstrId) -> Option<u32> {
        None
    }

    fn enc(i: &Instr) -> Vec<u8> {
        encode_instr(i, 0x1000, &no_labels).unwrap()
    }

    #[test]
    fn short_forms_are_selected() {
        // inc %eax -> one byte
        assert_eq!(enc(&create::inc(Opnd::reg(Reg::Eax))), vec![0x40]);
        // add $1, %ecx -> 83 c1 01 (imm8 form)
        assert_eq!(
            enc(&create::add(Opnd::reg(Reg::Ecx), Opnd::imm8(1))),
            vec![0x83, 0xC1, 0x01]
        );
        // add $0x1000, %eax -> accumulator form 05
        assert_eq!(
            enc(&create::add(Opnd::reg(Reg::Eax), Opnd::imm32(0x1000))),
            vec![0x05, 0x00, 0x10, 0x00, 0x00]
        );
        // push $3 -> 6a 03
        assert_eq!(enc(&create::push(Opnd::imm8(3))), vec![0x6A, 0x03]);
        // shl $1, %eax -> d1 e0
        assert_eq!(
            enc(&create::shl(Opnd::reg(Reg::Eax), Opnd::imm8(1))),
            vec![0xD1, 0xE0]
        );
    }

    #[test]
    fn raw_fast_path_copies_bytes() {
        let (i, _) = decode_instr(&[0x8b, 0x46, 0x0c], 0x400000).unwrap();
        assert!(i.raw_valid());
        assert_eq!(enc(&i), vec![0x8b, 0x46, 0x0c]);
    }

    #[test]
    fn direct_cti_is_rematerialized_not_copied() {
        // jmp rel8 decoded at 0x2000 targeting 0x2000; encoded at 0x1000 it
        // must still target 0x2000 (now rel32).
        let (i, _) = decode_instr(&[0xeb, 0xfe], 0x2000).unwrap();
        let bytes = enc(&i);
        assert_eq!(bytes[0], 0xE9);
        let (re, _) = decode_instr(&bytes, 0x1000).unwrap();
        assert_eq!(re.src(0), &Opnd::Pc(0x2000));
    }

    #[test]
    fn modrm_addressing_round_trips() {
        let cases: Vec<MemRef> = vec![
            MemRef::base_disp(Reg::Esi, 0xc, OpSize::S32),
            MemRef::base_disp(Reg::Ebp, 0, OpSize::S32), // needs disp8=0
            MemRef::base_disp(Reg::Esp, 8, OpSize::S32), // needs SIB
            MemRef::base_disp(Reg::Eax, -300, OpSize::S32), // disp32
            MemRef::base_index(Reg::Ecx, Reg::Eax, 1, 0, OpSize::S32),
            MemRef::base_index(Reg::Ebp, Reg::Edi, 8, 5, OpSize::S32),
            MemRef::index_disp(Reg::Ebx, 4, 0x10, OpSize::S32),
            MemRef::absolute(0x12345678, OpSize::S32),
        ];
        for m in cases {
            let i = create::mov(Opnd::reg(Reg::Edx), Opnd::Mem(m));
            let bytes = enc(&i);
            let (re, len) = decode_instr(&bytes, 0).unwrap();
            assert_eq!(len as usize, bytes.len());
            assert_eq!(re.src(0).as_mem(), Some(&m), "case {m}");
        }
    }

    #[test]
    fn esp_index_rejected() {
        let m = MemRef::base_index(Reg::Eax, Reg::Esp, 1, 0, OpSize::S32);
        let i = create::mov(Opnd::reg(Reg::Edx), Opnd::Mem(m));
        assert_eq!(
            encode_instr(&i, 0, &no_labels),
            Err(EncodeError::InvalidOperand)
        );
    }

    #[test]
    fn jecxz_range_enforced() {
        let j = create::jecxz(Target::Pc(0x10_0000));
        assert!(matches!(
            encode_instr(&j, 0, &no_labels),
            Err(EncodeError::TargetOutOfRange { .. })
        ));
        let near = create::jecxz(Target::Pc(0x1010));
        assert!(encode_instr(&near, 0x1000, &no_labels).is_ok());
    }

    #[test]
    fn encode_list_resolves_forward_and_backward_labels() {
        let mut il = InstrList::new();
        // L1: nop; jmp L2; nop; L2: jmp L1
        let top = il.push_back(Instr::label());
        il.push_back(create::nop());
        let mut fwd = create::jmp(Target::Pc(0));

        il.push_back(create::nop());
        let bottom = il.push_back(Instr::label());
        let mut back = create::jmp(Target::Pc(0));
        back.set_target(Target::Instr(top));
        il.push_back(back);
        fwd.set_target(Target::Instr(bottom));
        let fwd_id = il.insert_after(il.ids().nth(1).unwrap(), fwd);

        let encoded = encode_list(&il, 0x5000).unwrap();
        // Verify the forward jmp targets the bottom label's offset.
        let fwd_off = encoded.offset_of(fwd_id).unwrap();
        let disp = i32::from_le_bytes(
            encoded.bytes[(fwd_off + 1) as usize..(fwd_off + 5) as usize]
                .try_into()
                .unwrap(),
        );
        let target = 0x5000u32
            .wrapping_add(fwd_off + 5)
            .wrapping_add(disp as u32);
        assert_eq!(Some(target - 0x5000), encoded.offset_of(bottom));
    }

    #[test]
    fn semantic_round_trip_after_invalidation() {
        // decode -> mutate (invalidate raw) -> encode -> decode must agree.
        let originals: Vec<Vec<u8>> = vec![
            vec![0x2b, 0x46, 0x1c],             // sub mem, eax
            vec![0x0f, 0xb7, 0x4e, 0x08],       // movzx
            vec![0xc1, 0xe1, 0x07],             // shl imm
            vec![0xf7, 0xdb],                   // neg ebx
            vec![0x6b, 0xc3, 0x09],             // imul eax, ebx, 9
            vec![0x0f, 0x94, 0xc1],             // setz %cl
            vec![0x87, 0xd9],                   // xchg
            vec![0xc7, 0x45, 0xfc, 1, 0, 0, 0], // mov $1 -> -4(%ebp)
            vec![0xf6, 0xeb],                   // imul %bl (8-bit)
        ];
        for bytes in originals {
            let (mut i, _) = decode_instr(&bytes, 0).unwrap();
            i.invalidate_raw();
            let re = encode_instr(&i, 0, &no_labels).unwrap();
            let (j, _) = decode_instr(&re, 0).unwrap();
            assert_eq!(i.opcode(), j.opcode(), "bytes {bytes:x?}");
            assert_eq!(i.srcs(), j.srcs(), "bytes {bytes:x?}");
            assert_eq!(i.dsts(), j.dsts(), "bytes {bytes:x?}");
        }
    }

    #[test]
    fn every_table_opcode_has_its_own_forms() {
        for (_, _, form, _) in crate::decode::rows() {
            let forms = forms_of(form.op);
            assert!(!forms.is_empty());
            assert!(forms.iter().all(|t| t.form.op == form.op), "{}", form.op);
        }
        assert!(Opcode::Label.index() < Opcode::COUNT);
    }

    #[test]
    fn ret_forms() {
        assert_eq!(enc(&create::ret()), vec![0xC3]);
        assert_eq!(enc(&create::ret_imm(8)), vec![0xC2, 0x08, 0x00]);
    }

    #[test]
    fn push_pc_uses_imm32_form() {
        let i = create::push(Opnd::Pc(0x0040_1234));
        assert_eq!(enc(&i), vec![0x68, 0x34, 0x12, 0x40, 0x00]);
    }
}
