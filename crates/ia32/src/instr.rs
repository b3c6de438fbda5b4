//! The [`Instr`] data structure with adaptive levels of detail.
//!
//! "A single instruction, or a group of bundled un-decoded instructions, is
//! represented in the list by an `Instr` data structure" (paper §3.1). The
//! five levels:
//!
//! * **Level 0** — raw bytes of a *series* of instructions; only the final
//!   instruction boundary is recorded.
//! * **Level 1** — one `Instr` per machine instruction, raw bytes only.
//! * **Level 2** — opcode and eflags effect decoded, raw bytes retained.
//! * **Level 3** — fully decoded operands, raw bytes still valid (fast
//!   re-encode by copying).
//! * **Level 4** — fully decoded, modified or newly created; raw bytes
//!   invalid, must be encoded from operands.
//!
//! Mutating operations implicitly raise an instruction to Level 4
//! ("modifying an operand will cause the raw bytes to become invalid").

use std::fmt;
use std::mem;

use crate::decode::{Operand, Operands, MAX_DSTS, MAX_SRCS};
use crate::eflags::EflagsEffect;
use crate::ilist::InstrId;
use crate::opcode::Opcode;
use crate::opnd::Opnd;

/// The longest IA-32 instruction, in bytes.
pub const MAX_INSTR_LEN: usize = 15;

/// The five levels of instruction detail (paper §3.1, Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Bundle of un-decoded instructions; final boundary recorded.
    L0,
    /// Un-decoded raw bits for a single instruction.
    L1,
    /// Opcode and eflags effect known.
    L2,
    /// Fully decoded, raw bits valid.
    L3,
    /// Fully decoded, raw bits invalid (requires full encode).
    L4,
}

/// A control-transfer target: an application address or another instruction
/// (label) in the same [`InstrList`](crate::InstrList).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Target {
    /// Original application code address.
    Pc(u32),
    /// An instruction in the same list, resolved at encode time.
    Instr(InstrId),
}

impl Target {
    /// Convert to the operand form stored in `srcs[0]` of a direct CTI.
    pub fn to_opnd(self) -> Opnd {
        match self {
            Target::Pc(pc) => Opnd::Pc(pc),
            Target::Instr(id) => Opnd::Instr(id),
        }
    }

    /// Extract a target from an operand, if it is one.
    pub fn from_opnd(op: &Opnd) -> Option<Target> {
        match op {
            Opnd::Pc(pc) => Some(Target::Pc(*pc)),
            Opnd::Instr(id) => Some(Target::Instr(*id)),
            _ => None,
        }
    }
}

/// Raw machine bytes: one instruction's inline, a Level 0 bundle's out of
/// line.
#[derive(Clone, Debug, PartialEq)]
enum Raw {
    /// The first `len` bytes; the rest are zero.
    Inline(u8, [u8; MAX_INSTR_LEN]),
    /// A bundle's bytes.
    Bundle(Vec<u8>),
}

/// No raw bytes.
const NO_RAW: Raw = Raw::Inline(0, [0; MAX_INSTR_LEN]);

/// `ops` in `N` fixed slots, the rest [`Operand::NONE`], and their count.
fn slots<const N: usize>(ops: &[Opnd]) -> ([Opnd; N], u8) {
    assert!(ops.len() <= N, "{} operands for {N} slots", ops.len());
    let mut slots = [Opnd::NONE; N];
    slots[..ops.len()].copy_from_slice(ops);
    (slots, ops.len() as u8)
}

/// A single instruction (or Level 0 bundle) in the adaptive representation.
///
/// Only a Level 0 bundle owns heap memory (its bytes). One instruction's raw
/// bytes are stored inline, and its operands in fixed slots sized by the
/// decode table ([`MAX_SRCS`] sources, [`MAX_DSTS`] destinations), which hold
/// every decoded form and every [`create`](crate::create) constructor.
///
/// # Examples
///
/// Creating and inspecting a synthesized (Level 4) instruction:
///
/// ```
/// use rio_ia32::{create, Opcode, Opnd, Reg, Level};
///
/// let add = create::add(Opnd::reg(Reg::Eax), Opnd::imm8(1));
/// assert_eq!(add.level(), Level::L4);
/// assert_eq!(add.opcode(), Some(Opcode::Add));
/// assert!(!add.raw_valid());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Instr {
    level: Level,
    /// Original application pc (0 for synthesized instructions).
    app_pc: u32,
    /// Raw machine bytes; meaningful when `raw_valid`.
    raw: Raw,
    raw_valid: bool,
    /// For Level 0 bundles: byte offset of the final instruction.
    bundle_last_off: u32,
    /// For Level 0 bundles: number of bundled instructions.
    bundle_count: u32,
    opcode: Option<Opcode>,
    eflags: EflagsEffect,
    /// `srcs[..nsrcs]` and `dsts[..ndsts]` are the operands; every other
    /// slot is [`Operand::NONE`].
    srcs: [Opnd; MAX_SRCS],
    nsrcs: u8,
    dsts: [Opnd; MAX_DSTS],
    ndsts: u8,
    prefixes: u16,
    /// Free-form client annotation field (paper §3.2: "a field in the Instr
    /// data structure that can be used by the client for annotations").
    pub note: u64,
}

impl Instr {
    /// An instruction at `level` with no opcode and no operands.
    fn empty(level: Level, app_pc: u32, raw: Raw) -> Instr {
        Instr {
            level,
            app_pc,
            raw_valid: level < Level::L4,
            raw,
            bundle_last_off: 0,
            bundle_count: 1,
            opcode: None,
            eflags: EflagsEffect::NONE,
            srcs: [Opnd::NONE; MAX_SRCS],
            nsrcs: 0,
            dsts: [Opnd::NONE; MAX_DSTS],
            ndsts: 0,
            prefixes: 0,
            note: 0,
        }
    }

    /// Create a Level 0 bundle over `bytes`, which hold `count` instructions,
    /// the last one beginning at `last_off`.
    pub fn bundle(bytes: Vec<u8>, app_pc: u32, last_off: u32, count: u32) -> Instr {
        Instr {
            bundle_last_off: last_off,
            bundle_count: count,
            ..Instr::empty(Level::L0, app_pc, Raw::Bundle(bytes))
        }
    }

    /// Create a Level 1 instruction holding only raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`MAX_INSTR_LEN`].
    pub fn raw(bytes: &[u8], app_pc: u32) -> Instr {
        let mut raw = [0; MAX_INSTR_LEN];
        raw[..bytes.len()].copy_from_slice(bytes);
        Instr::empty(Level::L1, app_pc, Raw::Inline(bytes.len() as u8, raw))
    }

    /// Create a synthesized (Level 4) instruction from opcode and operands.
    ///
    /// This is the workhorse behind the [`create`](crate::create)
    /// constructors; the eflags effect is derived from the opcode.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SRCS`] sources or [`MAX_DSTS`]
    /// destinations.
    pub fn new(opcode: Opcode, srcs: &[Opnd], dsts: &[Opnd]) -> Instr {
        let ((srcs, nsrcs), (dsts, ndsts)) = (slots(srcs), slots(dsts));
        Instr {
            opcode: Some(opcode),
            eflags: opcode.eflags_effect(),
            srcs,
            nsrcs,
            dsts,
            ndsts,
            ..Instr::empty(Level::L4, 0, NO_RAW)
        }
    }

    /// Create a label pseudo-instruction (a zero-length branch target).
    pub fn label() -> Instr {
        Instr::new(Opcode::Label, &[], &[])
    }
    /// Current level of detail.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Original application address, or 0 for synthesized instructions.
    pub fn app_pc(&self) -> u32 {
        self.app_pc
    }

    /// Set the recorded application address (used when synthesized code
    /// stands in for an application instruction, e.g. strength reduction).
    pub fn set_app_pc(&mut self, pc: u32) {
        self.app_pc = pc;
    }

    /// Whether the stored raw bytes are a valid encoding of the instruction.
    pub fn raw_valid(&self) -> bool {
        self.raw_valid
    }

    /// The raw bytes, if valid.
    pub fn raw_bytes(&self) -> Option<&[u8]> {
        self.raw_valid.then_some(match &self.raw {
            Raw::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Raw::Bundle(bytes) => bytes,
        })
    }

    /// A Level 0 bundle's byte storage; `None` for any other instruction.
    pub(crate) fn into_bundle_bytes(self) -> Option<Vec<u8>> {
        match self.raw {
            Raw::Bundle(bytes) => Some(bytes),
            Raw::Inline(..) => None,
        }
    }

    /// For Level 0 bundles, the byte offset of the final bundled instruction.
    pub fn bundle_last_offset(&self) -> u32 {
        self.bundle_last_off
    }

    /// For Level 0 bundles, the number of bundled instructions.
    pub fn bundle_count(&self) -> u32 {
        self.bundle_count
    }

    /// The opcode, if decoded to Level 2 or above (paper:
    /// `instr_get_opcode`).
    pub fn opcode(&self) -> Option<Opcode> {
        self.opcode
    }

    /// The eflags effect, if decoded to Level 2 or above (paper:
    /// `instr_get_eflags`).
    pub fn eflags(&self) -> EflagsEffect {
        self.eflags
    }

    /// Encoded prefix bits (paper: `instr_get_prefixes`).
    pub fn prefixes(&self) -> u16 {
        self.prefixes
    }

    /// Set prefix bits (paper: `instr_set_prefixes`).
    pub fn set_prefixes(&mut self, prefixes: u16) {
        self.prefixes = prefixes;
    }

    /// Source operands (valid at Level 3+). Implicit operands are
    /// materialized, so e.g. `pop %eax` lists `%esp` and `(%esp)` as sources.
    pub fn srcs(&self) -> &[Opnd] {
        &self.srcs[..usize::from(self.nsrcs)]
    }

    /// Destination operands (valid at Level 3+).
    pub fn dsts(&self) -> &[Opnd] {
        &self.dsts[..usize::from(self.ndsts)]
    }

    /// Source operand `i` (paper: `instr_get_src`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn src(&self, i: usize) -> &Opnd {
        &self.srcs()[i]
    }

    /// Destination operand `i` (paper: `instr_get_dst`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dst(&self, i: usize) -> &Opnd {
        &self.dsts()[i]
    }

    /// Replace source operand `i`, invalidating raw bytes (level → 4).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_src(&mut self, i: usize, op: Opnd) {
        self.srcs[..usize::from(self.nsrcs)][i] = op;
        self.invalidate_raw();
    }

    /// Replace destination operand `i`, invalidating raw bytes (level → 4).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_dst(&mut self, i: usize, op: Opnd) {
        self.dsts[..usize::from(self.ndsts)][i] = op;
        self.invalidate_raw();
    }

    /// The branch target of a direct CTI (stored as `srcs[0]`).
    pub fn target(&self) -> Option<Target> {
        let op = self.opcode?;
        if op.is_cti() && !op.is_indirect_cti() && op != Opcode::Ret {
            self.srcs().first().and_then(Target::from_opnd)
        } else {
            None
        }
    }

    /// Set the branch target of a direct CTI, invalidating raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a direct CTI decoded to Level 3+.
    pub fn set_target(&mut self, target: Target) {
        let op = self
            .opcode
            .expect("set_target requires a decoded instruction");
        assert!(
            op.is_cti() && !op.is_indirect_cti() && op != Opcode::Ret,
            "set_target on non-direct-CTI {op}"
        );
        self.nsrcs = self.nsrcs.max(1);
        self.srcs[0] = target.to_opnd();
        self.invalidate_raw();
    }

    /// Whether this is a control-transfer instruction.
    pub fn is_cti(&self) -> bool {
        self.opcode.is_some_and(Opcode::is_cti)
    }

    /// Whether this is a CTI that exits the enclosing fragment, i.e. its
    /// target is an application pc rather than a label in the same list
    /// (paper: `instr_is_exit_cti`). Indirect CTIs always exit.
    pub fn is_exit_cti(&self) -> bool {
        match self.opcode {
            Some(op) if op.is_indirect_cti() => true,
            Some(op) if op.is_cti() => {
                matches!(self.srcs().first(), Some(Opnd::Pc(_)))
            }
            _ => false,
        }
    }

    /// Whether this is a label pseudo-instruction.
    pub fn is_label(&self) -> bool {
        self.opcode == Some(Opcode::Label)
    }

    /// Explicitly mark raw bytes invalid, raising the level to 4.
    ///
    /// Implied by every mutating operation; exposed for clients that mutate
    /// state the representation cannot observe.
    pub fn invalidate_raw(&mut self) {
        self.raw_valid = false;
        self.raw = NO_RAW;
        if self.level >= Level::L3 {
            self.level = Level::L4;
        }
    }

    /// Install decoded Level 2 state (opcode + eflags). Used by the decoder.
    pub(crate) fn install_l2(&mut self, opcode: Opcode) {
        self.opcode = Some(opcode);
        self.eflags = opcode.eflags_effect();
        if self.level < Level::L2 {
            self.level = Level::L2;
        }
    }

    /// Install decoded Level 3 state: the decoder's operand slots, copied
    /// as they are. Used by the decoder.
    pub(crate) fn install_l3(&mut self, ops: &Operands<Opnd>) {
        self.install_l2(ops.op);
        (self.srcs, self.nsrcs) = (ops.srcs, ops.nsrcs);
        (self.dsts, self.ndsts) = (ops.dsts, ops.ndsts);
        if self.level < Level::L3 {
            self.level = Level::L3;
        }
    }

    /// Byte length of this instruction when encoded, if cheaply known (raw
    /// bytes valid). Labels have length 0.
    pub fn known_len(&self) -> Option<u32> {
        if self.is_label() {
            Some(0)
        } else {
            self.raw_bytes().map(|raw| raw.len() as u32)
        }
    }

    /// Approximate memory footprint in bytes, for the Table 2
    /// reproduction: the structure, a bundle's out-of-line bytes, and the
    /// operands this level materialises (not the empty slots), so Levels
    /// 0–2 pay for no operands.
    pub fn memory_bytes(&self) -> usize {
        let opnd = mem::size_of::<Opnd>();
        let bundle = match &self.raw {
            Raw::Bundle(bytes) => bytes.capacity(),
            Raw::Inline(..) => 0,
        };
        mem::size_of::<Instr>() - (MAX_SRCS + MAX_DSTS) * opnd
            + usize::from(self.nsrcs + self.ndsts) * opnd
            + bundle
    }

    /// Rewrite intra-list targets using `map` (used when an `InstrList` is
    /// appended into another and ids are remapped).
    pub(crate) fn remap_instr_targets(&mut self, map: &dyn Fn(InstrId) -> InstrId) {
        for op in self.srcs.iter_mut().chain(self.dsts.iter_mut()) {
            if let Opnd::Instr(id) = op {
                *id = map(*id);
            }
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::fmt_instr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opnd::OpSize;
    use crate::reg::Reg;

    #[test]
    fn synthesized_instr_is_level4() {
        let i = Instr::new(
            Opcode::Add,
            &[Opnd::imm8(1), Opnd::reg(Reg::Eax)],
            &[Opnd::reg(Reg::Eax)],
        );
        assert_eq!(i.level(), Level::L4);
        assert!(!i.raw_valid());
        assert_eq!(i.opcode(), Some(Opcode::Add));
    }

    #[test]
    fn raw_instr_is_level1() {
        let i = Instr::raw(&[0x90], 0x400000);
        assert_eq!(i.level(), Level::L1);
        assert!(i.raw_valid());
        assert_eq!(i.known_len(), Some(1));
        assert_eq!(i.opcode(), None);
    }

    #[test]
    fn bundle_records_final_boundary_only() {
        let i = Instr::bundle(vec![0x90, 0x90, 0x8d, 0x34, 0x01], 0x1000, 2, 3);
        assert_eq!(i.level(), Level::L0);
        assert_eq!(i.bundle_last_offset(), 2);
        assert_eq!(i.bundle_count(), 3);
    }

    #[test]
    fn mutation_invalidates_raw_and_raises_level() {
        let (mut i, _) = crate::decode_instr(&[0x40], 0x1000).unwrap(); // inc %eax
        assert_eq!(i.level(), Level::L3);
        assert!(i.raw_valid());
        i.set_dst(0, Opnd::reg(Reg::Ebx));
        assert_eq!(i.level(), Level::L4);
        assert!(!i.raw_valid());
        assert_eq!(i.known_len(), None);
    }

    #[test]
    fn target_accessors_work_on_direct_ctis() {
        let mut j = Instr::new(Opcode::Jmp, &[Opnd::Pc(0x5000)], &[]);
        assert_eq!(j.target(), Some(Target::Pc(0x5000)));
        assert!(j.is_exit_cti());
        j.set_target(Target::Instr(InstrId::from_raw(3)));
        assert_eq!(j.target(), Some(Target::Instr(InstrId::from_raw(3))));
        assert!(!j.is_exit_cti()); // now intra-list
    }

    #[test]
    fn indirect_ctis_always_exit() {
        let r = Instr::new(
            Opcode::Ret,
            &[
                Opnd::reg(Reg::Esp),
                Opnd::mem(crate::MemRef::base_disp(Reg::Esp, 0, OpSize::S32)),
            ],
            &[Opnd::reg(Reg::Esp)],
        );
        assert!(r.is_exit_cti());
        assert_eq!(r.target(), None);
    }

    #[test]
    fn labels_have_zero_length() {
        let l = Instr::label();
        assert!(l.is_label());
        assert_eq!(l.known_len(), Some(0));
    }

    #[test]
    #[should_panic(expected = "set_target on non-direct-CTI")]
    fn set_target_rejects_non_cti() {
        let mut i = Instr::new(Opcode::Nop, &[], &[]);
        i.set_target(Target::Pc(0));
    }

    #[test]
    fn memory_accounting_grows_with_operands() {
        let small = Instr::raw(&[0x90], 0);
        let big = Instr::new(
            Opcode::Add,
            &[Opnd::imm32(5), Opnd::reg(Reg::Eax)],
            &[Opnd::reg(Reg::Eax)],
        );
        let opnd = mem::size_of::<Opnd>();
        assert_eq!(big.memory_bytes(), small.memory_bytes() + 3 * opnd);
    }

    #[test]
    #[should_panic(expected = "4 operands for 3 slots")]
    fn operands_past_the_slots_are_rejected() {
        let r = Opnd::reg(Reg::Eax);
        Instr::new(Opcode::Add, &[r, r, r, r], &[]);
    }
}
