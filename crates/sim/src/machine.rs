//! The simulated machine: memory + CPU + cost model + interpreter.
//!
//! The interpreter executes machine code *from memory bytes* — the same
//! bytes the RIO encoder emits into the code cache — so the entire
//! decode/translate/encode/link path of the dynamic translator is exercised
//! for real. A direct-mapped decoded-instruction cache makes interpretation
//! fast; the RIO core invalidates it whenever it patches code (linking,
//! fragment replacement), and every interpreted store invalidates the span
//! it writes, modelling self-modifying code correctly.
//!
//! The decode cache is host infrastructure, not part of the modelled
//! machine, and is built to cost little per step:
//!
//! * its 32K slot words are allocated zeroed, so a fresh [`Machine`] pays
//!   only for the slots its code actually uses;
//! * it is direct-mapped, and its index keeps apart code in different
//!   16 MiB regions: bit 24 of the pc is folded into the top index bit, so
//!   two copies of hot code 16 MiB apart (a basic block and its trace,
//!   say) fill opposite halves of the cache and both stay cached. A pc
//!   with a zero top byte, which is all application code and so every
//!   native run, keeps the plain `pc ^ (pc >> 15)` slot;
//! * decoded entries live in a slab in which each slot owns at most one
//!   entry and overwrites it in place, so memory tracks the executed code
//!   footprint and stays bounded;
//! * a step executes its decode by reference out of the slab;
//! * a per-page bitmap of pages that may hold a cached decode lets stores to
//!   data and stack pages (nearly all of them) skip the invalidation probe.
//!
//! [`Machine::decode_cache_stats`] reports hits, misses and invalidations
//! for profiling; they never reach [`Counters`].
//!
//! A cached decode is ready to execute, so a step re-derives nothing that is
//! fixed once the bytes are decoded:
//!
//! * operands are bound at decode time: a register operand is a
//!   register-file index plus a view (32-bit, 16-bit, low or high byte), and
//!   a memory operand is `{base, index, scale, disp, size}` with register
//!   indices;
//! * the instruction shapes that dominate the dynamic mix (`mov` between
//!   registers, memory and immediates, `push`/`pop` of a register, `add`,
//!   `sub`, `and`, `xor`, `cmp`, `test` on registers, `movzx` and `setcc`
//!   on registers, `inc` of memory, and the transfers `jcc`, `jmp`,
//!   `call`, `call *r32` and `ret`) each get one executor, chosen
//!   once at decode time; every other shape runs the generic operand-list
//!   interpreter. All executors share the generic order of effects (guards
//!   before any change, each store noted before it is written, the step
//!   accounted before a watched-store exit), so the simulated counters do
//!   not depend on which executor ran;
//! * [`Machine::run_steps`] lends the exec regions and the decode slab out
//!   of the machine for the whole call, since no step can change the
//!   regions or move a slab entry.

use rio_ia32::{decode_instr, Cc, Eflags, Instr, MemRef, OpSize, Opcode, Opnd, Reg};

use crate::cpu::{
    alu_add, alu_logic, alu_sar, alu_shl, alu_shr, alu_sub, CpuExit, CpuState, FaultKind,
};
use crate::image::Image;
use crate::mem::Memory;
use crate::perf::{CostModel, Counters, CpuKind};

/// A half-open `[start, end)` address range the CPU may execute from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecRegion {
    /// Inclusive start.
    pub start: u32,
    /// Exclusive end.
    pub end: u32,
}

impl ExecRegion {
    /// Construct a region.
    pub fn new(start: u32, end: u32) -> ExecRegion {
        ExecRegion { start, end }
    }

    /// Whether `pc` falls inside the region.
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.start && pc < self.end
    }
}

/// Register-file index of the registers the interpreter names implicitly.
const EAX: u8 = 0;
const ECX: u8 = 1;
const EDX: u8 = 2;
const ESP: u8 = 4;
/// `MemOp` base or index slot that holds no register.
const NO_REG: u8 = 8;

/// The part of a 32-bit register a register operand names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum View {
    R32,
    R16,
    Low8,
    High8,
}

/// A register operand bound at decode time: the register-file index of the
/// backing 32-bit register and the view of it the operand names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RegOp {
    idx: u8,
    view: View,
}

/// `%ah`, which `lahf`/`sahf` name implicitly.
const AH: RegOp = RegOp {
    idx: EAX,
    view: View::High8,
};

impl RegOp {
    fn bind(r: Reg) -> RegOp {
        let view = match r.size() {
            OpSize::S32 => View::R32,
            OpSize::S16 => View::R16,
            // 8-bit numbers 4..7 are %ah..%bh.
            OpSize::S8 if r.number() >= 4 => View::High8,
            OpSize::S8 => View::Low8,
        };
        RegOp {
            idx: r.parent32().number(),
            view,
        }
    }

    /// The register-file index, if the operand names a whole 32-bit register.
    fn r32(self) -> Option<u8> {
        (self.view == View::R32).then_some(self.idx)
    }

    fn size(self) -> OpSize {
        match self.view {
            View::R32 => OpSize::S32,
            View::R16 => OpSize::S16,
            View::Low8 | View::High8 => OpSize::S8,
        }
    }
}

/// A memory operand bound at decode time: `disp(base, index, scale)` with
/// register-file indices ([`NO_REG`] when absent). The decoder only forms
/// addresses from 32-bit registers.
#[derive(Clone, Copy, Debug)]
struct MemOp {
    base: u8,
    index: u8,
    scale: u8,
    size: OpSize,
    disp: i32,
}

impl MemOp {
    fn bind(m: &MemRef) -> MemOp {
        let idx = |r: Option<Reg>| r.map_or(NO_REG, |r| r.parent32().number());
        MemOp {
            base: idx(m.base),
            index: idx(m.index),
            scale: m.scale,
            size: m.size,
            disp: m.disp,
        }
    }
}

/// Compact executable form of one decoded instruction.
#[derive(Clone, Copy, Debug)]
struct Lowered {
    op: Opcode,
    len: u8,
    ndst: u8,
    shape: Shape,
    srcs: [LOpnd; 4],
    dsts: [LOpnd; 4],
}

#[derive(Clone, Copy, Debug)]
enum LOpnd {
    None,
    Reg(RegOp),
    Imm(i32, OpSize),
    Mem(MemOp),
    Pc(u32),
}

impl LOpnd {
    fn from_opnd(op: &Opnd) -> LOpnd {
        match op {
            Opnd::Reg(r) => LOpnd::Reg(RegOp::bind(*r)),
            Opnd::Imm(v, s) => LOpnd::Imm(*v, *s),
            Opnd::Mem(m) => LOpnd::Mem(MemOp::bind(m)),
            Opnd::Pc(pc) => LOpnd::Pc(*pc),
            Opnd::Instr(_) => LOpnd::None, // labels never reach execution
        }
    }

    fn size(&self) -> OpSize {
        match self {
            LOpnd::Reg(r) => r.size(),
            LOpnd::Imm(_, s) => *s,
            LOpnd::Mem(m) => m.size,
            _ => OpSize::S32,
        }
    }

    /// The register-file index, if the operand is a whole 32-bit register.
    fn r32(&self) -> Option<u8> {
        match self {
            LOpnd::Reg(r) => r.r32(),
            _ => None,
        }
    }

    /// The bound memory operand, if it is a 32-bit access.
    fn m32(&self) -> Option<MemOp> {
        match self {
            LOpnd::Mem(m) if m.size == OpSize::S32 => Some(*m),
            _ => None,
        }
    }
}

/// The executor of one instruction, chosen once at decode time. Each
/// variant is one (opcode, operand shape) pair that is hot in the suite's
/// dynamic mix, with its operands already bound; every other instruction
/// runs the generic operand-list interpreter. Register fields are
/// register-file indices of whole 32-bit registers.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Generic,
    /// `mov r32, r32` (dst, src).
    MovRR(u8, u8),
    /// `mov r32, imm`.
    MovRI(u8, u32),
    /// `mov r32, m32`.
    MovRM(u8, MemOp),
    /// `mov m32, r32`.
    MovMR(MemOp, u8),
    /// `push r32`.
    Push(u8),
    /// `pop r32`.
    Pop(u8),
    /// `add r32, r32` (dst, src).
    AddRR(u8, u8),
    /// `add r32, imm`.
    AddRI(u8, u32),
    /// `sub r32, r32` (dst, src).
    SubRR(u8, u8),
    /// `sub r32, imm`.
    SubRI(u8, u32),
    /// `and r32, r32` (dst, src).
    AndRR(u8, u8),
    /// `and r32, imm`.
    AndRI(u8, u32),
    /// `xor r32, r32` (dst, src).
    XorRR(u8, u8),
    /// `xor r32, imm`.
    XorRI(u8, u32),
    /// `cmp r32, r32`.
    CmpRR(u8, u8),
    /// `test r32, r32`.
    TestRR(u8, u8),
    /// `j<cc> target`.
    Jcc(Cc, u32),
    /// `jmp target`.
    Jmp(u32),
    /// `call target`.
    Call(u32),
    /// `call *r32`.
    CallIndR(u8),
    /// `ret` without an immediate.
    Ret,
    /// `movzx r32, r8/r16`.
    MovzxR(u8, RegOp),
    /// `set<cc> r8`.
    SetR(Cc, RegOp),
    /// `inc m32`.
    IncM(MemOp),
}

impl Shape {
    fn of(op: Opcode, srcs: &[LOpnd; 4], dsts: &[LOpnd; 4]) -> Shape {
        let (s0, s1, d0) = (&srcs[0], &srcs[1], &dsts[0]);
        let (imm, pc) = match *s0 {
            LOpnd::Imm(v, _) => (Some(v as u32), None),
            LOpnd::Pc(t) => (None, Some(t)),
            _ => (None, None),
        };
        // (src, dst) register pairs and (imm, dst) pairs of whole registers.
        let rr = s0.r32().zip(d0.r32());
        let ri = imm.zip(d0.r32());
        match op {
            Opcode::Mov => match (rr, ri, s0.m32().zip(d0.r32()), s0.r32().zip(d0.m32())) {
                (Some((s, d)), ..) => Shape::MovRR(d, s),
                (_, Some((v, d)), ..) => Shape::MovRI(d, v),
                (_, _, Some((m, d)), _) => Shape::MovRM(d, m),
                (.., Some((s, m))) => Shape::MovMR(m, s),
                _ => Shape::Generic,
            },
            Opcode::Push => s0.r32().map_or(Shape::Generic, Shape::Push),
            Opcode::Pop => d0.r32().map_or(Shape::Generic, Shape::Pop),
            Opcode::Add | Opcode::Sub | Opcode::And | Opcode::Xor => match (op, rr, ri) {
                (Opcode::Add, Some((s, d)), _) => Shape::AddRR(d, s),
                (Opcode::Add, _, Some((v, d))) => Shape::AddRI(d, v),
                (Opcode::Sub, Some((s, d)), _) => Shape::SubRR(d, s),
                (Opcode::Sub, _, Some((v, d))) => Shape::SubRI(d, v),
                (Opcode::And, Some((s, d)), _) => Shape::AndRR(d, s),
                (Opcode::And, _, Some((v, d))) => Shape::AndRI(d, v),
                (Opcode::Xor, Some((s, d)), _) => Shape::XorRR(d, s),
                (Opcode::Xor, _, Some((v, d))) => Shape::XorRI(d, v),
                _ => Shape::Generic,
            },
            Opcode::Cmp | Opcode::Test => match (op, s0.r32().zip(s1.r32())) {
                (Opcode::Cmp, Some((a, b))) => Shape::CmpRR(a, b),
                (_, Some((a, b))) => Shape::TestRR(a, b),
                _ => Shape::Generic,
            },
            Opcode::Jcc(cc) => pc.map_or(Shape::Generic, |t| Shape::Jcc(cc, t)),
            Opcode::Jmp => pc.map_or(Shape::Generic, Shape::Jmp),
            Opcode::Call => pc.map_or(Shape::Generic, Shape::Call),
            Opcode::CallInd => s0.r32().map_or(Shape::Generic, Shape::CallIndR),
            Opcode::Ret if imm.is_none() => Shape::Ret,
            Opcode::Movzx => match (*s0, d0.r32()) {
                (LOpnd::Reg(s), Some(d)) => Shape::MovzxR(d, s),
                _ => Shape::Generic,
            },
            Opcode::Set(cc) => match *d0 {
                LOpnd::Reg(d) => Shape::SetR(cc, d),
                _ => Shape::Generic,
            },
            Opcode::Inc => d0.m32().map_or(Shape::Generic, Shape::IncM),
            _ => Shape::Generic,
        }
    }
}

fn lower(instr: &Instr, len: u32) -> Lowered {
    let mut srcs = [LOpnd::None; 4];
    let mut dsts = [LOpnd::None; 4];
    for (slot, s) in srcs.iter_mut().zip(instr.srcs()) {
        *slot = LOpnd::from_opnd(s);
    }
    for (slot, d) in dsts.iter_mut().zip(instr.dsts()) {
        *slot = LOpnd::from_opnd(d);
    }
    let op = instr.opcode().expect("lower requires decoded instr");
    Lowered {
        op,
        len: len as u8, // at most MAX_INSTR_BYTES
        ndst: instr.dsts().len().min(4) as u8,
        shape: Shape::of(op, &srcs, &dsts),
        srcs,
        dsts,
    }
}

const DCACHE_BITS: usize = 15;
const DCACHE_SIZE: usize = 1 << DCACHE_BITS;
/// Longest instruction fetch: a decode at `pc` can consume bytes up to
/// `pc + MAX_INSTR_BYTES - 1`, so a write at `addr` can stale any decode
/// starting as far back as `addr - MAX_INSTR_BYTES + 1`.
const MAX_INSTR_BYTES: u32 = 16;
const PAGE_SHIFT: u32 = 12;
const PAGE_MASK: u32 = (1 << PAGE_SHIFT) - 1;
/// Pages in the 32-bit address space, one bit each in the code-page bitmap.
const PAGES: u32 = 1 << (32 - PAGE_SHIFT);

/// Slot word layout: `pc << 32 | VALID | slab index + 1`. An all-zero word
/// is a slot that has never been filled and owns no slab entry.
const SLOT_VALID: u64 = 1 << 31;
const SLOT_INDEX: u64 = SLOT_VALID - 1;

/// One decoded instruction, owned by exactly one direct-mapped slot.
struct DecodeCacheEntry {
    /// Raw bytes the decode was made from (first `lowered.len` are live);
    /// kept so verification mode can prove a hit is not stale.
    bytes: [u8; 16],
    lowered: Lowered,
}

/// Host-side decode-cache activity, for profiling the interpreter. These
/// counts are not part of the modelled machine: they never feed
/// [`Counters`] or any simulated output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Steps served from a cached decode.
    pub hits: u64,
    /// Steps that had to decode from memory.
    pub misses: u64,
    /// Cached decodes dropped by invalidation (store, range, or whole).
    pub invalidated: u64,
}

/// Direct-mapped software decode cache keyed by pc.
///
/// * [`DecodeCache::index`] is `pc ^ (pc >> 15)` with bit 24, the lowest
///   bit of the top address byte, also folded into the top index bit.
///   Pcs with a zero top byte keep the plain `pc ^ (pc >> 15)` slot. Bits
///   24–29 reach the index in independent patterns, so pcs that differ
///   only there never share a slot, and the first 16 KiB of two regions
///   16 MiB apart fill opposite halves of the slots.
/// * `slots` holds one word per direct-mapped slot: the pc tag, a valid
///   bit, and the 1-based index of the slab entry the slot owns. It is
///   allocated zeroed and only touched where code runs.
/// * `slab` holds the decoded entries. A slot claims one entry the first
///   time it is filled and overwrites that same entry on every later fill,
///   so the slab grows with the executed code footprint and never beyond
///   one entry per slot.
/// * `code_pages` is a bitmap with one bit per 4 KiB page. Invariant: for
///   every valid slot with tag `pc`, the pages holding `pc` and
///   `pc + MAX_INSTR_BYTES - 1` are marked. A byte at `a` can only stale a
///   decode whose `[pc, pc + 16)` window contains `a`, and that window lies
///   on one of those two pages, so a write touching no marked page cannot
///   stale anything and skips the probe. Bits are set by `put` and cleared
///   only by `invalidate_all`, so the bitmap may over-approximate but
///   never under-approximates.
///
/// Invalidation touches only `slots` (and `stats`), never `slab`, which is
/// what lets the interpreter borrow a slab entry while it executes.
struct DecodeCache {
    slots: Vec<u64>,
    slab: Vec<DecodeCacheEntry>,
    code_pages: Vec<u64>,
    stats: DecodeCacheStats,
}

impl DecodeCache {
    fn new() -> DecodeCache {
        DecodeCache {
            slots: vec![0; DCACHE_SIZE],
            slab: Vec::new(),
            code_pages: vec![0; PAGES as usize / 64],
            stats: DecodeCacheStats::default(),
        }
    }

    /// The slot of `pc` (see the type docs).
    fn index(pc: u32) -> usize {
        let fold = pc ^ (pc >> DCACHE_BITS) ^ ((pc >> 24) << (DCACHE_BITS - 1));
        fold as usize & (DCACHE_SIZE - 1)
    }

    /// The tag and valid bits of a slot word holding a valid decode of `pc`.
    fn valid_tag(pc: u32) -> u64 {
        u64::from(pc) << 32 | SLOT_VALID
    }

    /// Slab index of the valid decode for `pc`, if cached.
    #[inline]
    fn get(&self, pc: u32) -> Option<usize> {
        let word = self.slots[Self::index(pc)];
        if word & !SLOT_INDEX == Self::valid_tag(pc) {
            Some((word & SLOT_INDEX) as usize - 1)
        } else {
            None
        }
    }

    /// Cache a decode for `pc` in its slot's own slab entry; returns the
    /// slab index.
    fn put(&mut self, pc: u32, bytes: [u8; 16], lowered: Lowered) -> usize {
        let slot = Self::index(pc);
        let entry = DecodeCacheEntry { bytes, lowered };
        let i = match (self.slots[slot] & SLOT_INDEX) as usize {
            0 => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
            owned => {
                self.slab[owned - 1] = entry;
                owned - 1
            }
        };
        self.slots[slot] = Self::valid_tag(pc) | (i as u64 + 1);
        self.mark_page(pc);
        self.mark_page(pc.wrapping_add(MAX_INSTR_BYTES - 1));
        i
    }

    fn mark_page(&mut self, addr: u32) {
        let page = (addr >> PAGE_SHIFT) as usize;
        self.code_pages[page / 64] |= 1 << (page % 64);
    }

    /// Whether any page holding one of the `len` bytes at `start` (wrapping)
    /// may hold part of a cached decode.
    fn touches_code_page(&self, start: u32, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        let first = start >> PAGE_SHIFT;
        let last_offset = (u64::from(start & PAGE_MASK) + u64::from(len) - 1) >> PAGE_SHIFT;
        (0..=last_offset as u32).any(|k| {
            let page = (first.wrapping_add(k) % PAGES) as usize;
            self.code_pages[page / 64] & (1 << (page % 64)) != 0
        })
    }

    fn invalidate_all(&mut self) {
        for word in &mut self.slots {
            if *word & SLOT_VALID != 0 {
                *word &= !SLOT_VALID;
                self.stats.invalidated += 1;
            }
        }
        self.code_pages.fill(0);
    }

    /// Drop every cached decode whose bytes may overlap the `len` bytes at
    /// `start`, wrapping past the top of the address space exactly as the
    /// write did. A decode starting at `pc` covers at most `[pc, pc + 16)`,
    /// so only pcs in `[start - 15, start + len)` can be affected; each
    /// lives at its own direct-mapped slot, so the walk is bounded by
    /// `len + 15` probes. Writes that touch no code page skip the walk.
    fn invalidate_range(&mut self, start: u32, len: u32) {
        if !self.touches_code_page(start, len) {
            return;
        }
        let lo = start.wrapping_sub(MAX_INSTR_BYTES - 1);
        for k in 0..u64::from(len) + u64::from(MAX_INSTR_BYTES - 1) {
            let pc = lo.wrapping_add(k as u32);
            let word = &mut self.slots[Self::index(pc)];
            if *word & !SLOT_INDEX == Self::valid_tag(pc) {
                *word &= !SLOT_VALID;
                self.stats.invalidated += 1;
            }
        }
    }
}

/// Whether the `len` bytes at `addr`, wrapping past the top of the address
/// space like the store that writes them, touch region `r`. The written
/// bytes form one contiguous run modulo 2^32, so they meet the (non-empty)
/// region iff the first byte lies inside it or the region's first byte lies
/// within the run.
fn touches(r: &ExecRegion, addr: u32, len: u32) -> bool {
    r.contains(addr) || (r.start < r.end && r.start.wrapping_sub(addr) < len)
}

/// The simulated machine.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: CpuState,
    /// Memory.
    pub mem: Memory,
    /// The cycle cost model and predictor state.
    pub cost: CostModel,
    /// Accumulated execution statistics.
    pub counters: Counters,
    dcache: DecodeCache,
    regions: Vec<ExecRegion>,
    /// Guarded data regions: any load/store touching one raises
    /// [`FaultKind::MemFault`] *before* the instruction mutates state.
    /// Empty by default (the sparse memory otherwise zero-fills).
    guards: Vec<ExecRegion>,
    /// One-shot injected fault: raised in place of the next instruction
    /// once `counters.instructions` reaches the trigger count.
    inject: Option<(u64, FaultKind)>,
    /// Watched code regions: a committed guest store touching one stops
    /// execution with [`CpuExit::CodeWrite`]. Empty by default.
    watches: Vec<ExecRegion>,
    /// Store into a watched region recorded by the current instruction
    /// (`(addr, len)`), turned into an exit at the end of the step.
    step_code_write: Option<(u32, u32)>,
    /// When set, every decode-cache hit is re-verified against the live
    /// memory bytes; mismatches count in `stale_decode_hits`.
    verify_decodes: bool,
    stale_decode_hits: u64,
    step_loads: u64,
    step_stores: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Machine(eip={:#x}, {})", self.cpu.eip, self.counters)
    }
}

impl Machine {
    /// Create a machine of the given processor family with empty memory.
    pub fn new(kind: CpuKind) -> Machine {
        Machine {
            cpu: CpuState::new(),
            mem: Memory::new(),
            cost: CostModel::new(kind),
            counters: Counters::default(),
            dcache: DecodeCache::new(),
            regions: Vec::new(),
            guards: Vec::new(),
            inject: None,
            watches: Vec::new(),
            step_code_write: None,
            verify_decodes: false,
            stale_decode_hits: 0,
            step_loads: 0,
            step_stores: 0,
        }
    }

    /// Load an image: code + data into memory, `eip` at the entry point,
    /// `esp` at the stack top, and the code range as the sole exec region.
    pub fn load_image(&mut self, img: &Image) {
        img.load(&mut self.mem);
        self.cpu.eip = img.entry;
        self.cpu.set_reg(Reg::Esp, Image::STACK_TOP - 16);
        let (s, e) = img.code_range();
        self.regions = vec![ExecRegion::new(s, e)];
    }

    /// Replace the set of regions the CPU may execute from. Control leaving
    /// them stops [`Machine::run`] with [`CpuExit::OutOfRegion`].
    pub fn set_exec_regions(&mut self, regions: Vec<ExecRegion>) {
        self.regions = regions;
    }

    /// Current execution regions.
    pub fn exec_regions(&self) -> &[ExecRegion] {
        &self.regions
    }

    /// Install guarded data regions: any memory access touching one raises
    /// a precise [`FaultKind::MemFault`] before the instruction commits any
    /// architectural state. The default (empty) set never faults — the
    /// sparse memory zero-fills unmapped pages.
    pub fn set_guard_regions(&mut self, guards: Vec<ExecRegion>) {
        self.guards = guards;
    }

    /// Current guard regions.
    pub fn guard_regions(&self) -> &[ExecRegion] {
        &self.guards
    }

    /// Install watched code regions: a guest store whose bytes touch one
    /// stops execution with [`CpuExit::CodeWrite`] *after* the store (and
    /// the whole instruction) has committed, so resuming at `eip` makes
    /// forward progress even when an instruction overwrites itself. Writes
    /// made through [`Machine::mem`] directly (fragment emission, link
    /// patching) are exempt — only interpreted guest stores are monitored.
    pub fn set_watch_regions(&mut self, watches: Vec<ExecRegion>) {
        self.watches = watches;
    }

    /// Current watch regions.
    pub fn watch_regions(&self) -> &[ExecRegion] {
        &self.watches
    }

    /// Enable or disable decode verification: every decode-cache hit is
    /// compared against the live memory bytes, and a mismatch (a stale
    /// decode that would have executed) is counted in
    /// [`Machine::stale_decode_hits`] and re-decoded from memory.
    pub fn set_verify_decodes(&mut self, on: bool) {
        self.verify_decodes = on;
    }

    /// Number of decode-cache hits whose cached bytes no longer matched
    /// memory (only counted while verification is enabled). Staying zero
    /// proves range invalidation never let a stale decode execute.
    pub fn stale_decode_hits(&self) -> u64 {
        self.stale_decode_hits
    }

    /// FNV-1a digest of the application-visible machine state: the eight
    /// general-purpose registers plus the current bytes of every data
    /// segment the image declared (globals and arrays). `eip` is excluded
    /// (under the engine it is a code-cache address by design) and so is
    /// `eflags` (transformation clients may legally rewrite dead flag
    /// updates, e.g. `inc` → `add`). Two runs of the same image that end
    /// with the same digest agree on every register and every global.
    pub fn app_state_digest(&self, image: &Image) -> u64 {
        use rio_ia32::Reg as R;
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        for r in [
            R::Eax,
            R::Ecx,
            R::Edx,
            R::Ebx,
            R::Esp,
            R::Ebp,
            R::Esi,
            R::Edi,
        ] {
            for b in self.cpu.reg(r).to_le_bytes() {
                mix(b);
            }
        }
        let mut buf = Vec::new();
        for (base, bytes) in &image.data {
            buf.resize(bytes.len(), 0);
            self.mem.read_bytes(*base, &mut buf);
            for &b in &buf {
                mix(b);
            }
        }
        h
    }

    /// Arm a one-shot fault injection: once the machine has executed
    /// `instr_count` instructions, the next instruction raises `kind`
    /// instead of executing (a precise, resumable boundary). The trigger
    /// clears when it fires, so the machine can be resumed past it.
    pub fn inject_fault_at(&mut self, instr_count: u64, kind: FaultKind) {
        self.inject = Some((instr_count, kind));
    }

    /// The armed (not yet fired) injection, if any.
    pub fn pending_injection(&self) -> Option<(u64, FaultKind)> {
        self.inject
    }

    /// Charge runtime-overhead cycles (dispatch, hashtable lookup,
    /// optimization time) to the cycle counter.
    pub fn charge(&mut self, cycles: u64) {
        self.counters.cycles += cycles;
        self.counters.charged_overhead += cycles;
    }

    /// Invalidate the *entire* decoded-instruction cache. Needed only when
    /// code changed at unknown addresses; prefer
    /// [`Machine::invalidate_code_range`], which the engine uses on every
    /// fragment emission and link patch.
    pub fn invalidate_code(&mut self) {
        self.dcache.invalidate_all();
    }

    /// Invalidate decoded instructions overlapping the `len` bytes at
    /// `addr` (wrapping past the top of the address space, like the write).
    /// Must be called after any write to memory that may hold code; cost is
    /// bounded by `len + 15` cache probes, and is a bitmap test alone when
    /// the written pages hold no cached decode, so hot emit/patch paths
    /// never wipe unrelated decodes.
    pub fn invalidate_code_range(&mut self, addr: u32, len: u32) {
        self.dcache.invalidate_range(addr, len);
    }

    /// Host-side decode-cache hit, miss and invalidation counts since the
    /// machine was created. Purely a profiling aid: the simulated machine
    /// and its [`Counters`] are identical whether or not anyone looks.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.dcache.stats
    }

    /// Run until an exit condition with a default fuel of 2^44 steps.
    pub fn run(&mut self) -> CpuExit {
        self.run_steps(1 << 44)
    }

    /// Run at most `max_steps` instructions.
    pub fn run_steps(&mut self, max_steps: u64) -> CpuExit {
        // Nothing a step does can change the exec regions, so they are lent
        // out for the whole call. The decode slab is lent out the same way
        // (see `step_in`).
        let regions = std::mem::take(&mut self.regions);
        let mut slab = std::mem::take(&mut self.dcache.slab);
        let mut exit = CpuExit::FuelExhausted;
        for _ in 0..max_steps {
            let pc = self.cpu.eip;
            if !regions.iter().any(|r| r.contains(pc)) {
                exit = CpuExit::OutOfRegion(pc);
                break;
            }
            if let Some(e) = self.step_in(&mut slab) {
                exit = e;
                break;
            }
        }
        self.dcache.slab = slab;
        self.regions = regions;
        exit
    }

    /// Execute exactly one instruction (region checks are the caller's
    /// responsibility). Returns `Some(exit)` if the instruction stops
    /// execution.
    pub fn step(&mut self) -> Option<CpuExit> {
        let mut slab = std::mem::take(&mut self.dcache.slab);
        let exit = self.step_in(&mut slab);
        self.dcache.slab = slab;
        exit
    }

    /// One step with the decode slab lent out of the cache. `exec` can
    /// invalidate slots (every store goes through `note_store`) but never
    /// touches the slab, so the step executes its decode in place; only a
    /// miss hands the slab back to the cache to fill a slot.
    fn step_in(&mut self, slab: &mut Vec<DecodeCacheEntry>) -> Option<CpuExit> {
        let pc = self.cpu.eip;
        if let Some((at, kind)) = self.inject {
            if self.counters.instructions >= at {
                self.inject = None; // one-shot: resuming runs past it
                return Some(CpuExit::Fault { kind, pc, addr: pc });
            }
        }
        let cached = match self.dcache.get(pc) {
            Some(i) if self.verify_decodes && !self.cached_bytes_match(pc, &slab[i]) => {
                self.stale_decode_hits += 1;
                None
            }
            hit => hit,
        };
        let i = match cached {
            Some(i) => {
                self.dcache.stats.hits += 1;
                i
            }
            None => {
                self.dcache.stats.misses += 1;
                let mut buf = [0u8; 16];
                self.mem.read_bytes(pc, &mut buf);
                let Ok((instr, len)) = decode_instr(&buf, pc) else {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::InvalidOpcode,
                        pc,
                        addr: pc,
                    });
                };
                self.dcache.slab = std::mem::take(slab);
                let i = self.dcache.put(pc, buf, lower(&instr, len));
                *slab = std::mem::take(&mut self.dcache.slab);
                i
            }
        };
        self.exec(pc, &slab[i].lowered)
    }

    /// Verification mode: whether cached decode `e` of `pc` still matches
    /// the live memory bytes.
    fn cached_bytes_match(&self, pc: u32, e: &DecodeCacheEntry) -> bool {
        let len = e.lowered.len as usize;
        let mut buf = [0u8; 16];
        self.mem.read_bytes(pc, &mut buf[..len]);
        buf[..len] == e.bytes[..len]
    }

    fn addr_of(&self, m: &MemOp) -> u32 {
        let mut a = m.disp as u32;
        if m.base != NO_REG {
            a = a.wrapping_add(self.cpu.gpr(m.base));
        }
        if m.index != NO_REG {
            a = a.wrapping_add(self.cpu.gpr(m.index).wrapping_mul(u32::from(m.scale)));
        }
        a
    }

    /// First guarded byte of `[addr, addr + bytes)`, if any.
    fn guarded(&self, addr: u32, bytes: u32) -> Option<u32> {
        (0..bytes)
            .map(|i| addr.wrapping_add(i))
            .find(|a| self.guards.iter().any(|g| g.contains(*a)))
    }

    /// Check every memory address the instruction will touch against the
    /// guard regions — *before* execution, so a [`FaultKind::MemFault`] is
    /// precise (no architectural state has changed).
    fn check_guards(&self, pc: u32, l: &Lowered) -> Option<CpuExit> {
        let fault = |addr| {
            Some(CpuExit::Fault {
                kind: FaultKind::MemFault,
                pc,
                addr,
            })
        };
        // Explicit memory operands (`lea` only computes the address).
        if l.op != Opcode::Lea {
            for op in l.srcs.iter().chain(l.dsts.iter()) {
                if let LOpnd::Mem(m) = op {
                    if let Some(bad) = self.guarded(self.addr_of(m), m.size.bytes()) {
                        return fault(bad);
                    }
                }
            }
        }
        // Implicit stack accesses.
        let esp = self.cpu.gpr(ESP);
        match l.op {
            Opcode::Push | Opcode::Pushfd | Opcode::Call | Opcode::CallInd => {
                if let Some(bad) = self.guarded(esp.wrapping_sub(4), 4) {
                    return fault(bad);
                }
            }
            Opcode::Pop | Opcode::Popfd | Opcode::Ret => {
                if let Some(bad) = self.guarded(esp, 4) {
                    return fault(bad);
                }
            }
            _ => {}
        }
        None
    }

    fn read_reg(&self, r: RegOp) -> u32 {
        let full = self.cpu.gpr(r.idx);
        match r.view {
            View::R32 => full,
            View::R16 => full & 0xFFFF,
            View::Low8 => full & 0xFF,
            View::High8 => (full >> 8) & 0xFF,
        }
    }

    /// Write a register view, preserving the unaffected bits of its parent.
    fn write_reg(&mut self, r: RegOp, v: u32) {
        let full = self.cpu.gpr(r.idx);
        let merged = match r.view {
            View::R32 => v,
            View::R16 => (full & 0xFFFF_0000) | (v & 0xFFFF),
            View::Low8 => (full & 0xFFFF_FF00) | (v & 0xFF),
            View::High8 => (full & 0xFFFF_00FF) | ((v & 0xFF) << 8),
        };
        self.cpu.set_gpr(r.idx, merged);
    }

    fn load(&mut self, m: &MemOp) -> u32 {
        self.step_loads += 1;
        let a = self.addr_of(m);
        match m.size {
            OpSize::S8 => self.mem.read_u8(a) as u32,
            OpSize::S16 => self.mem.read_u16(a) as u32,
            OpSize::S32 => self.mem.read_u32(a),
        }
    }

    fn store(&mut self, m: &MemOp, v: u32) {
        let a = self.addr_of(m);
        self.note_store(a, m.size.bytes());
        match m.size {
            OpSize::S8 => self.mem.write_u8(a, v as u8),
            OpSize::S16 => self.mem.write_u16(a, v as u16),
            OpSize::S32 => self.mem.write_u32(a, v),
        }
    }

    fn read(&mut self, op: &LOpnd) -> u32 {
        match op {
            LOpnd::Reg(r) => self.read_reg(*r),
            LOpnd::Imm(v, _) => *v as u32,
            LOpnd::Pc(pc) => *pc,
            LOpnd::Mem(m) => self.load(m),
            LOpnd::None => 0,
        }
    }

    /// Bookkeeping for every interpreted guest store: keep the decode
    /// cache coherent with the written bytes (so self-modifying code is
    /// correct in every mode, with no manual invalidation), and flag
    /// stores that land in a watched code region.
    fn note_store(&mut self, addr: u32, bytes: u32) {
        self.step_stores += 1;
        self.dcache.invalidate_range(addr, bytes);
        if self.watches.iter().any(|w| touches(w, addr, bytes)) {
            self.step_code_write = Some(match self.step_code_write {
                None => (addr, bytes),
                Some((a0, l0)) => {
                    let lo = a0.min(addr);
                    let hi =
                        (u64::from(a0) + u64::from(l0)).max(u64::from(addr) + u64::from(bytes));
                    (lo, (hi - u64::from(lo)).min(u64::from(u32::MAX)) as u32)
                }
            });
        }
    }

    fn write(&mut self, op: &LOpnd, v: u32) {
        match op {
            LOpnd::Reg(r) => self.write_reg(*r, v),
            LOpnd::Mem(m) => self.store(m, v),
            _ => {}
        }
    }

    fn push32(&mut self, v: u32) {
        let esp = self.cpu.gpr(ESP).wrapping_sub(4);
        self.cpu.set_gpr(ESP, esp);
        self.note_store(esp, 4);
        self.mem.write_u32(esp, v);
    }

    fn pop32(&mut self) -> u32 {
        let esp = self.cpu.gpr(ESP);
        self.step_loads += 1;
        let v = self.mem.read_u32(esp);
        self.cpu.set_gpr(ESP, esp.wrapping_add(4));
        v
    }

    /// `dst op= src` on whole 32-bit registers, setting the six arithmetic
    /// flags from `alu`.
    fn alu_r32(&mut self, dst: u8, src: u32, alu: impl FnOnce(u32, u32) -> (u32, u32)) {
        let (res, f) = alu(self.cpu.gpr(dst), src);
        self.cpu.set_gpr(dst, res);
        self.cpu.set_flags(Eflags::ALL6, f);
    }

    /// Execute one decoded instruction through its executor. The order of
    /// effects is the same for every shape: guards are checked before any
    /// state changes, each store is noted before it is written, the step
    /// is accounted, and only then does a store into a watched region stop
    /// execution.
    fn exec(&mut self, pc: u32, l: &Lowered) -> Option<CpuExit> {
        self.step_loads = 0;
        self.step_stores = 0;
        self.step_code_write = None;
        if !self.guards.is_empty() {
            if let Some(exit) = self.check_guards(pc, l) {
                return Some(exit);
            }
        }
        let next_pc = pc.wrapping_add(u32::from(l.len));
        let mut new_eip = next_pc;
        let mut branch_penalty = 0u64;
        let add = |a, b| alu_add(a, b, 0, OpSize::S32);
        let sub = |a, b| alu_sub(a, b, 0, OpSize::S32);
        let and = |a: u32, b| alu_logic(a & b, OpSize::S32);
        let xor = |a: u32, b| alu_logic(a ^ b, OpSize::S32);
        match l.shape {
            Shape::Generic => match self.exec_generic(pc, next_pc, l) {
                Ok((eip, penalty)) => (new_eip, branch_penalty) = (eip, penalty),
                Err(exit) => return Some(exit),
            },
            Shape::MovRR(d, s) => self.cpu.set_gpr(d, self.cpu.gpr(s)),
            Shape::MovRI(d, v) => self.cpu.set_gpr(d, v),
            Shape::MovRM(d, m) => {
                let v = self.load(&m);
                self.cpu.set_gpr(d, v);
            }
            Shape::MovMR(m, s) => self.store(&m, self.cpu.gpr(s)),
            Shape::Push(s) => self.push32(self.cpu.gpr(s)),
            Shape::Pop(d) => {
                let v = self.pop32();
                self.cpu.set_gpr(d, v);
            }
            Shape::AddRR(d, s) => self.alu_r32(d, self.cpu.gpr(s), add),
            Shape::AddRI(d, v) => self.alu_r32(d, v, add),
            Shape::SubRR(d, s) => self.alu_r32(d, self.cpu.gpr(s), sub),
            Shape::SubRI(d, v) => self.alu_r32(d, v, sub),
            Shape::AndRR(d, s) => self.alu_r32(d, self.cpu.gpr(s), and),
            Shape::AndRI(d, v) => self.alu_r32(d, v, and),
            Shape::XorRR(d, s) => self.alu_r32(d, self.cpu.gpr(s), xor),
            Shape::XorRI(d, v) => self.alu_r32(d, v, xor),
            Shape::CmpRR(a, b) => {
                let (_, f) = sub(self.cpu.gpr(a), self.cpu.gpr(b));
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Shape::TestRR(a, b) => {
                let (_, f) = and(self.cpu.gpr(a), self.cpu.gpr(b));
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Shape::Jcc(cc, target) => {
                let taken = self.cpu.cc_holds(cc);
                if taken {
                    new_eip = target;
                }
                branch_penalty = self.cost.cond_branch(pc, taken, &mut self.counters);
            }
            Shape::Jmp(target) => {
                new_eip = target;
                branch_penalty = self.cost.direct_branch(&mut self.counters);
            }
            Shape::Call(target) => {
                self.push32(next_pc);
                self.cost.ras_push(next_pc);
                new_eip = target;
                branch_penalty = self.cost.direct_branch(&mut self.counters);
            }
            Shape::CallIndR(r) => {
                let target = self.cpu.gpr(r);
                self.push32(next_pc);
                self.cost.ras_push(next_pc);
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, false, &mut self.counters);
            }
            Shape::Ret => {
                let target = self.pop32();
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, true, &mut self.counters);
            }
            Shape::MovzxR(d, s) => self.cpu.set_gpr(d, self.read_reg(s)),
            Shape::SetR(cc, d) => self.write_reg(d, u32::from(self.cpu.cc_holds(cc))),
            Shape::IncM(m) => {
                let (res, f) = add(self.load(&m), 1);
                self.store(&m, res);
                // inc leaves CF unchanged.
                self.cpu.set_flags(Eflags::NOT_CF, f);
            }
        }
        self.cpu.eip = new_eip;
        self.finish_step(l, branch_penalty);
        // A committed store into a watched code region stops execution
        // *after* the instruction: state is architecturally complete and
        // `eip` is past the writer, so resumption cannot livelock.
        self.step_code_write
            .take()
            .map(|(addr, len)| CpuExit::CodeWrite { pc, addr, len })
    }

    /// The generic operand-list interpreter, for every instruction shape
    /// without its own executor. Returns the next `eip` and the branch
    /// penalty, or the exit that ends the step early: a fault (nothing
    /// committed), or a trap or `hlt` (already accounted).
    #[allow(clippy::too_many_lines)]
    fn exec_generic(&mut self, pc: u32, next_pc: u32, l: &Lowered) -> Result<(u32, u64), CpuExit> {
        let mut new_eip = next_pc;
        let mut branch_penalty = 0u64;
        let fault = |kind| Err(CpuExit::Fault { kind, pc, addr: pc });

        match l.op {
            Opcode::Mov => {
                let v = self.read(&l.srcs[0]);
                self.write(&l.dsts[0], v);
            }
            Opcode::Lea => {
                if let LOpnd::Mem(m) = l.srcs[0] {
                    let a = self.addr_of(&m);
                    self.write(&l.dsts[0], a);
                }
            }
            Opcode::Movzx => {
                let v = self.read(&l.srcs[0]); // reads zero-extended
                self.write(&l.dsts[0], v);
            }
            Opcode::Movsx => {
                let v = self.read(&l.srcs[0]);
                let sx = match l.srcs[0].size() {
                    OpSize::S8 => v as u8 as i8 as i32 as u32,
                    OpSize::S16 => v as u16 as i16 as i32 as u32,
                    OpSize::S32 => v,
                };
                self.write(&l.dsts[0], sx);
            }
            Opcode::Add | Opcode::Adc | Opcode::Sub | Opcode::Sbb => {
                let dst = l.dsts[0];
                let b = self.read(&l.srcs[0]);
                let a = self.read(&dst);
                let size = dst.size();
                let carry_in = if matches!(l.op, Opcode::Adc | Opcode::Sbb)
                    && self.cpu.eflags & Eflags::CF.0 != 0
                {
                    1
                } else {
                    0
                };
                let (res, f) = match l.op {
                    Opcode::Add | Opcode::Adc => alu_add(a, b, carry_in, size),
                    _ => alu_sub(a, b, carry_in, size),
                };
                self.write(&dst, res);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::And | Opcode::Or | Opcode::Xor => {
                let dst = l.dsts[0];
                let b = self.read(&l.srcs[0]);
                let a = self.read(&dst);
                let raw = match l.op {
                    Opcode::And => a & b,
                    Opcode::Or => a | b,
                    _ => a ^ b,
                };
                let (res, f) = alu_logic(raw, dst.size());
                self.write(&dst, res);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Cmp => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                let size = l.srcs[0].size().max(l.srcs[1].size());
                let (_, f) = alu_sub(a, b, 0, size);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Test => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                let size = l.srcs[0].size().max(l.srcs[1].size());
                let (_, f) = alu_logic(a & b, size);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Inc | Opcode::Dec => {
                let dst = l.dsts[0];
                let a = self.read(&dst);
                let (res, f) = if l.op == Opcode::Inc {
                    alu_add(a, 1, 0, dst.size())
                } else {
                    alu_sub(a, 1, 0, dst.size())
                };
                self.write(&dst, res);
                // inc/dec leave CF unchanged.
                self.cpu.set_flags(Eflags::NOT_CF, f);
            }
            Opcode::Neg => {
                let dst = l.dsts[0];
                let a = self.read(&dst);
                let (res, mut f) = alu_sub(0, a, 0, dst.size());
                // CF is set unless the operand was zero (alu_sub already
                // computes borrow 0 < a, which matches).
                if a == 0 {
                    f &= !Eflags::CF.0;
                }
                self.write(&dst, res);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Not => {
                let dst = l.dsts[0];
                let a = self.read(&dst);
                self.write(&dst, !a);
            }
            Opcode::Xchg => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                self.write(&l.dsts[0], b);
                self.write(&l.dsts[1], a);
            }
            Opcode::Shl | Opcode::Shr | Opcode::Sar => {
                let dst = l.dsts[0];
                let count = self.read(&l.srcs[0]) & 31;
                if count != 0 {
                    let a = self.read(&dst);
                    let (res, f) = match l.op {
                        Opcode::Shl => alu_shl(a, count, dst.size()),
                        Opcode::Shr => alu_shr(a, count, dst.size()),
                        _ => alu_sar(a, count, dst.size()),
                    };
                    self.write(&dst, res);
                    self.cpu.set_flags(Eflags::ALL6, f);
                }
            }
            Opcode::Imul => {
                if l.ndst == 2 {
                    // One-operand form: edx:eax = eax * rm (signed).
                    let a = self.cpu.gpr(EAX) as i32 as i64;
                    let b = self.read(&l.srcs[0]) as i32 as i64;
                    let wide = a * b;
                    self.cpu.set_gpr(EAX, wide as u32);
                    self.cpu.set_gpr(EDX, (wide >> 32) as u32);
                    let overflow = wide != (wide as i32 as i64);
                    self.set_mul_flags(overflow);
                } else {
                    let a = self.read(&l.srcs[0]) as i32 as i64;
                    let b = self.read(&l.srcs[1]) as i32 as i64;
                    let wide = a * b;
                    self.write(&l.dsts[0], wide as u32);
                    let overflow = wide != (wide as i32 as i64);
                    self.set_mul_flags(overflow);
                }
            }
            Opcode::Mul => {
                let a = self.cpu.gpr(EAX) as u64;
                let b = self.read(&l.srcs[0]) as u64;
                let wide = a * b;
                self.cpu.set_gpr(EAX, wide as u32);
                self.cpu.set_gpr(EDX, (wide >> 32) as u32);
                self.set_mul_flags(wide >> 32 != 0);
            }
            Opcode::Div => {
                let divisor = self.read(&l.srcs[0]) as u64;
                let dividend = ((self.cpu.gpr(EDX) as u64) << 32) | self.cpu.gpr(EAX) as u64;
                if divisor == 0 || dividend / divisor > u32::MAX as u64 {
                    return fault(FaultKind::DivideError);
                }
                self.cpu.set_gpr(EAX, (dividend / divisor) as u32);
                self.cpu.set_gpr(EDX, (dividend % divisor) as u32);
            }
            Opcode::Idiv => {
                let divisor = self.read(&l.srcs[0]) as i32 as i64;
                let dividend =
                    (((self.cpu.gpr(EDX) as u64) << 32) | self.cpu.gpr(EAX) as u64) as i64;
                if divisor == 0 {
                    return fault(FaultKind::DivideError);
                }
                let q = dividend.wrapping_div(divisor);
                if q != (q as i32 as i64) {
                    return fault(FaultKind::DivideError);
                }
                self.cpu.set_gpr(EAX, q as u32);
                self.cpu.set_gpr(EDX, dividend.wrapping_rem(divisor) as u32);
            }
            Opcode::Cdq => {
                let v = if self.cpu.gpr(EAX) & 0x8000_0000 != 0 {
                    0xFFFF_FFFF
                } else {
                    0
                };
                self.cpu.set_gpr(EDX, v);
            }
            Opcode::Cwde => {
                let v = self.cpu.gpr(EAX) as u16 as i16 as i32 as u32;
                self.cpu.set_gpr(EAX, v);
            }
            Opcode::Push => {
                let v = self.read(&l.srcs[0]);
                self.push32(v);
            }
            Opcode::Pop => {
                let v = self.pop32();
                self.write(&l.dsts[0], v);
            }
            Opcode::Pushfd => {
                let v = (self.cpu.eflags & Eflags::ALL6.0) | 0x2;
                self.push32(v);
            }
            Opcode::Popfd => {
                let v = self.pop32();
                self.cpu.set_flags(Eflags::ALL6, v);
            }
            Opcode::Lahf => {
                // AH = SF:ZF:0:AF:0:PF:1:CF.
                let f = self.cpu.eflags;
                let ah = (f & 0xFF) | 0x2;
                self.write_reg(AH, ah);
            }
            Opcode::Sahf => {
                let ah = self.read_reg(AH);
                let mask = Eflags(
                    Eflags::CF.0 | Eflags::PF.0 | Eflags::AF.0 | Eflags::ZF.0 | Eflags::SF.0,
                );
                self.cpu.set_flags(mask, ah);
            }
            Opcode::Set(cc) => {
                let v = self.cpu.cc_holds(cc) as u32;
                self.write(&l.dsts[0], v);
            }
            Opcode::Cmov(cc) => {
                // The load happens regardless of the condition (as on real
                // hardware); only the register write is conditional.
                let v = self.read(&l.srcs[0]);
                if self.cpu.cc_holds(cc) {
                    self.write(&l.dsts[0], v);
                }
            }
            Opcode::Rol | Opcode::Ror => {
                let dst = l.dsts[0];
                let count = self.read(&l.srcs[0]) & 31;
                if count != 0 {
                    let a = self.read(&dst);
                    let bits = dst.size().bytes() * 8;
                    let c = count % bits;
                    let res = if l.op == Opcode::Rol {
                        a.rotate_left(c) // 32-bit only in the subset
                    } else {
                        a.rotate_right(c)
                    };
                    self.write(&dst, res);
                    // CF = bit rotated into position; OF approximated as
                    // written (architecturally defined only for count==1).
                    let cf = if l.op == Opcode::Rol {
                        res & 1
                    } else {
                        (res >> (bits - 1)) & 1
                    };
                    let mut f = 0;
                    if cf != 0 {
                        f |= Eflags::CF.0;
                    }
                    self.cpu.set_flags(Eflags(Eflags::CF.0 | Eflags::OF.0), f);
                }
            }
            Opcode::Bt => {
                let base = self.read(&l.srcs[0]);
                let bit = self.read(&l.srcs[1]) & 31;
                let cf = (base >> bit) & 1;
                self.cpu
                    .set_flags(Eflags::CF, if cf != 0 { Eflags::CF.0 } else { 0 });
            }
            Opcode::Bswap => {
                let v = self.read(&l.dsts[0]);
                self.write(&l.dsts[0], v.swap_bytes());
            }
            Opcode::Nop => {}
            Opcode::Int3 => {
                self.cpu.eip = next_pc;
                self.finish_step(l, 0);
                return Err(CpuExit::Breakpoint);
            }
            Opcode::Int => {
                let n = self.read(&l.srcs[0]) as u8;
                self.cpu.eip = next_pc;
                // Account the instruction before returning.
                self.finish_step(l, 0);
                return Err(CpuExit::Syscall(n));
            }
            Opcode::Hlt => {
                self.finish_step(l, 0);
                return Err(CpuExit::Halt);
            }
            Opcode::Jmp => {
                new_eip = self.read(&l.srcs[0]);
                branch_penalty = self.cost.direct_branch(&mut self.counters);
            }
            Opcode::Jcc(cc) => {
                let taken = self.cpu.cc_holds(cc);
                if taken {
                    new_eip = self.read(&l.srcs[0]);
                }
                branch_penalty = self.cost.cond_branch(pc, taken, &mut self.counters);
            }
            Opcode::Jecxz => {
                let taken = self.cpu.gpr(ECX) == 0;
                if taken {
                    new_eip = self.read(&l.srcs[0]);
                }
                branch_penalty = self.cost.cond_branch(pc, taken, &mut self.counters);
            }
            Opcode::Call => {
                let target = self.read(&l.srcs[0]);
                self.push32(next_pc);
                self.cost.ras_push(next_pc);
                new_eip = target;
                branch_penalty = self.cost.direct_branch(&mut self.counters);
            }
            Opcode::CallInd => {
                let target = self.read(&l.srcs[0]);
                self.push32(next_pc);
                self.cost.ras_push(next_pc);
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, false, &mut self.counters);
            }
            Opcode::JmpInd => {
                let target = self.read(&l.srcs[0]);
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, false, &mut self.counters);
            }
            Opcode::Ret => {
                let target = self.pop32();
                if let LOpnd::Imm(extra, _) = l.srcs[0] {
                    let esp = self.cpu.gpr(ESP).wrapping_add(extra as u32);
                    self.cpu.set_gpr(ESP, esp);
                }
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, true, &mut self.counters);
            }
            Opcode::Label => {
                // A label pseudo-instruction reached the interpreter:
                // report it as the guest-visible invalid-opcode fault.
                return fault(FaultKind::InvalidOpcode);
            }
        }
        Ok((new_eip, branch_penalty))
    }

    fn set_mul_flags(&mut self, overflow: bool) {
        let v = if overflow {
            Eflags::CF.0 | Eflags::OF.0
        } else {
            0
        };
        self.cpu.set_flags(Eflags::ALL6, v);
    }

    fn finish_step(&mut self, l: &Lowered, branch_penalty: u64) {
        self.counters.instructions += 1;
        self.counters.loads += self.step_loads;
        self.counters.stores += self.step_stores;
        self.counters.cycles += self
            .cost
            .instr_cost(l.op, self.step_loads, self.step_stores)
            + branch_penalty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, InstrList, Target};

    fn run_program(il: &InstrList) -> (Machine, CpuExit) {
        let code = encode_list(il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        let exit = m.run();
        (m, exit)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(10)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(32)));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 42);
        assert_eq!(m.counters.instructions, 3);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // eax = sum of 1..=100 via a dec loop.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(100)));
        let top = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Ebx)));
        il.push_back(create::dec(Opnd::reg(Reg::Ebx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 5050);
        // The loop branch should be well predicted after warmup.
        assert!(m.counters.cond_mispredicts < 5);
    }

    #[test]
    fn memory_and_stack() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
        il.push_back(create::push(Opnd::reg(Reg::Eax)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::pop(Opnd::reg(Reg::Ebx)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(Image::DATA_BASE, OpSize::S32)),
            Opnd::reg(Reg::Ebx),
        ));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 7);
        assert_eq!(m.mem.read_u32(Image::DATA_BASE), 7);
    }

    #[test]
    fn call_and_ret_round_trip() {
        // main: call f; hlt.  f: mov eax, 99; ret.
        let mut il = InstrList::new();
        let call_site = create::call(Target::Pc(0));
        let c = il.push_back(call_site);
        il.push_back(create::hlt());
        let f = il.push_back(create::label());
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(99)));
        il.push_back(create::ret());
        il.get_mut(c).set_target(Target::Instr(f));
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 99);
        // RAS should predict the matched ret (cold BTB doesn't matter).
        assert_eq!(m.counters.ind_mispredicts, 0);
    }

    #[test]
    fn indirect_jump_via_register() {
        let mut il = InstrList::new();
        let j = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::jmp_ind(Opnd::reg(Reg::Eax)));
        il.push_back(create::int3()); // skipped
        let target = il.push_back(create::label());
        il.push_back(create::hlt());
        // Resolve the label's address by encoding once.
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let target_addr = Image::CODE_BASE + enc.offset_of(target).unwrap();
        il.get_mut(j).set_src(0, Opnd::imm32(target_addr as i32));
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.counters.ind_mispredicts, 1); // cold BTB
    }

    #[test]
    fn syscall_exit() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::int(0x80));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Syscall(0x80));
        // eip advanced past the int, ready to resume.
        assert_eq!(m.cpu.eip, Image::CODE_BASE + 5 + 2);
    }

    #[test]
    fn out_of_region_exit() {
        let mut il = InstrList::new();
        il.push_back(create::jmp(Target::Pc(0xC000_0000)));
        let (_, exit) = {
            let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
            let mut m = Machine::new(CpuKind::Pentium4);
            m.load_image(&Image::from_code(code));
            let e = m.run();
            (m, e)
        };
        assert_eq!(exit, CpuExit::OutOfRegion(0xC000_0000));
    }

    #[test]
    fn divide_error_is_precise_and_resumable() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::cdq());
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(0)));
        il.push_back(create::idiv(Opnd::reg(Reg::Ebx)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        let exit = m.run();
        let CpuExit::Fault { kind, pc, addr } = exit else {
            panic!("expected fault, got {exit:?}");
        };
        assert_eq!(kind, FaultKind::DivideError);
        // eip still points at the faulting idiv; nothing was committed.
        assert_eq!(pc, m.cpu.eip);
        assert_eq!(addr, pc);
        assert_eq!(m.cpu.reg(Reg::Eax), 1);
        assert_eq!(m.counters.instructions, 3);
        // The machine is resumable: skip the 2-byte idiv and finish.
        m.cpu.eip = pc + 2;
        assert_eq!(m.run(), CpuExit::Halt);
    }

    #[test]
    fn guard_region_faults_before_any_state_change() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0x2000_0000, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m.set_guard_regions(vec![ExecRegion::new(0x2000_0000, 0x2000_1000)]);
        let exit = m.run();
        assert_eq!(
            exit,
            CpuExit::Fault {
                kind: FaultKind::MemFault,
                pc: m.cpu.eip,
                addr: 0x2000_0000,
            }
        );
        // The guarded store never happened.
        assert_eq!(m.mem.read_u32(0x2000_0000), 0);
        // Without the guard the same program completes.
        m.set_guard_regions(Vec::new());
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.mem.read_u32(0x2000_0000), 7);
    }

    #[test]
    fn injected_fault_fires_once_at_the_trigger_count() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m.inject_fault_at(1, FaultKind::InvalidOpcode);
        let exit = m.run();
        let CpuExit::Fault { kind, pc, .. } = exit else {
            panic!("expected injected fault, got {exit:?}");
        };
        assert_eq!(kind, FaultKind::InvalidOpcode);
        assert_eq!(m.counters.instructions, 1);
        assert_eq!(pc, m.cpu.eip);
        assert_eq!(m.pending_injection(), None);
        // One-shot: resuming runs to completion.
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 2);
    }

    #[test]
    fn undecodable_bytes_fault_as_invalid_opcode() {
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(vec![0x0F, 0xFF, 0xFF, 0xFF]));
        let exit = m.run();
        assert_eq!(
            exit,
            CpuExit::Fault {
                kind: FaultKind::InvalidOpcode,
                pc: Image::CODE_BASE,
                addr: Image::CODE_BASE,
            }
        );
    }

    #[test]
    fn signed_division_semantics() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(-7)));
        il.push_back(create::cdq());
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2)));
        il.push_back(create::idiv(Opnd::reg(Reg::Ebx)));
        il.push_back(create::hlt());
        let (m, _) = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Eax) as i32, -3);
        assert_eq!(m.cpu.reg(Reg::Edx) as i32, -1);
    }

    #[test]
    fn inc_preserves_carry() {
        let mut il = InstrList::new();
        // Set CF via 0xFFFFFFFF + 1, then inc; CF must survive.
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(-1)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::inc(Opnd::reg(Reg::Ebx)));
        il.push_back(create::sbb(Opnd::reg(Reg::Ecx), Opnd::reg(Reg::Ecx))); // ecx = CF ? -1 : 0
        il.push_back(create::hlt());
        let (m, _) = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Ecx), 0xFFFF_FFFF);
    }

    #[test]
    fn flags_save_restore_via_lahf_sahf() {
        let mut il = InstrList::new();
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Eax))); // ZF=1
        il.push_back(create::lahf());
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(1))); // ZF=0
        il.push_back(create::sahf()); // restore ZF=1
        il.push_back(create::setcc(Cc::Z, Opnd::reg(Reg::Cl)));
        il.push_back(create::hlt());
        let (m, _) = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Cl), 1);
    }

    #[test]
    fn self_modifying_code_requires_invalidation() {
        // Write a mov imm; hlt, run; patch the immediate; without
        // invalidation the stale decode executes, with it the new value.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 1);
        // Patch immediate to 2.
        m.mem.write_u32(Image::CODE_BASE + 1, 2);
        m.invalidate_code();
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 2);
    }

    #[test]
    fn interpreted_self_modifying_store_needs_no_manual_invalidation() {
        // A loop patches its own `add` immediate from 1000 to 2000
        // mid-run (imm32 values, so the 4-byte immediate is encoded). The
        // interpreter must invalidate its decode cache on the store by
        // itself: pass 1 adds 1000, pass 2 must add the patched 2000.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(2)));
        let top = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1000)));
        let after_add = il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2000)));
        let patch = il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0, OpSize::S32)), // fixed up below
            Opnd::reg(Reg::Ebx),
        ));
        il.push_back(create::dec(Opnd::reg(Reg::Ecx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        // The add's imm32 occupies the 4 bytes before the next instruction.
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let imm_addr = Image::CODE_BASE + enc.offset_of(after_add).unwrap() - 4;
        il.get_mut(patch)
            .set_dst(0, Opnd::Mem(MemRef::absolute(imm_addr, OpSize::S32)));
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m.set_verify_decodes(true);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 3000); // 1000 + patched 2000
        assert_eq!(m.stale_decode_hits(), 0); // never served a stale decode
    }

    #[test]
    fn watched_store_exits_after_commit_with_eip_advanced() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x90)));
        let store = il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(Image::CODE_BASE + 0x40, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(7)));
        il.push_back(create::hlt());
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let store_pc = Image::CODE_BASE + enc.offset_of(store).unwrap();
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(enc.bytes));
        m.set_watch_regions(vec![ExecRegion::new(
            Image::CODE_BASE,
            Image::CODE_BASE + 0x100,
        )]);
        let exit = m.run();
        assert_eq!(
            exit,
            CpuExit::CodeWrite {
                pc: store_pc,
                addr: Image::CODE_BASE + 0x40,
                len: 4,
            }
        );
        // The store committed and eip is past the writer: resumable.
        assert_eq!(m.mem.read_u32(Image::CODE_BASE + 0x40), 0x90);
        assert!(m.cpu.eip > store_pc);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 7);
    }

    #[test]
    fn range_invalidation_spares_unrelated_decodes() {
        // Writes far from any decoded pc must not clear cached entries;
        // writes overlapping one must. Probed via the public behaviour:
        // a stale decode would execute the old immediate.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        assert_eq!(m.run(), CpuExit::Halt);
        // Patch the immediate through memory, invalidating just that range.
        m.mem.write_u32(Image::CODE_BASE + 1, 2);
        m.invalidate_code_range(Image::CODE_BASE + 1, 4);
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 2);
    }

    fn load(code: Vec<u8>) -> Machine {
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m
    }

    fn stats(hits: u64, misses: u64, invalidated: u64) -> DecodeCacheStats {
        DecodeCacheStats {
            hits,
            misses,
            invalidated,
        }
    }

    #[test]
    fn decode_cache_hits_on_reexecution() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(2)));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(0, 3, 0));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(3, 3, 0));
        // Host-only: the simulated counters never see the cache.
        assert_eq!(m.counters.instructions, 6);
    }

    #[test]
    fn decode_cache_misses_after_code_bytes_are_patched() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        assert_eq!(m.run(), CpuExit::Halt);
        m.mem.write_u32(Image::CODE_BASE + 1, 2);
        m.invalidate_code_range(Image::CODE_BASE + 1, 4);
        // The 4-byte write reaches back over the `mov` at CODE_BASE only;
        // the `hlt` after it is untouched.
        assert_eq!(m.decode_cache_stats(), stats(0, 2, 1));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 2);
        assert_eq!(m.decode_cache_stats(), stats(1, 3, 1));
        // The refill reused the slot's own slab entry.
        assert_eq!(m.dcache.slab.len(), 2);
    }

    #[test]
    fn stack_stores_skip_the_invalidation_probe() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
        il.push_back(create::push(Opnd::reg(Reg::Eax)));
        il.push_back(create::push(Opnd::reg(Reg::Eax)));
        il.push_back(create::pop(Opnd::reg(Reg::Ebx)));
        il.push_back(create::pop(Opnd::reg(Reg::Ecx)));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats().invalidated, 0);
        assert_eq!(m.counters.stores, 2);
        // The gate: the stack page holds no decode, the code page does.
        let esp = m.cpu.reg(Reg::Esp);
        assert!(!m.dcache.touches_code_page(esp - 8, 8));
        assert!(m.dcache.touches_code_page(Image::CODE_BASE, 1));
    }

    #[test]
    fn store_to_second_page_invalidates_a_straddling_decode() {
        // `int 0x20` sits at the last byte of the first code page, so its
        // vector byte is the first byte of the second page, where nothing
        // else ever executes. A guest store to that byte must still reach
        // the decode, which starts on the first page.
        let straddle = Image::CODE_BASE + 0xFFF;
        let mut il = InstrList::new();
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(straddle + 1, OpSize::S8)),
            Opnd::imm8(0x21),
        ));
        il.push_back(create::jmp(Target::Pc(straddle)));
        let mut code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        code.resize(0xFFF, 0x90);
        let mut int = InstrList::new();
        int.push_back(create::int(0x20));
        code.extend(encode_list(&int, straddle).unwrap().bytes);
        let mut m = load(code);
        m.set_verify_decodes(true);
        m.cpu.eip = straddle;
        assert_eq!(m.run(), CpuExit::Syscall(0x20));
        // The straddling decode is the only one so far, and it marked the
        // second page.
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 0));
        assert!(m.dcache.touches_code_page(straddle + 1, 1));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Syscall(0x21));
        assert_eq!(m.decode_cache_stats(), stats(0, 4, 1));
        assert_eq!(m.stale_decode_hits(), 0);

        // Symmetrically, a store to the first page reaches a straddling
        // decode when nothing else runs there.
        let mut m = Machine::new(CpuKind::Pentium4);
        m.mem.write_bytes(0x1FFF, &[0xCD, 0x20]); // int 0x20
        m.cpu.eip = 0x1FFF;
        assert_eq!(m.step(), Some(CpuExit::Syscall(0x20)));
        m.note_store(0x1FFF, 1);
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 1));
    }

    #[test]
    fn invalidate_code_then_reuse_of_a_slot() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(5)));
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        assert_eq!(m.run(), CpuExit::Halt);
        m.invalidate_code();
        assert_eq!(m.decode_cache_stats(), stats(0, 3, 3));
        assert!(!m.dcache.touches_code_page(Image::CODE_BASE, 1));
        // Nothing is served stale, and every slot refills its own entry.
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 6);
        assert_eq!(m.decode_cache_stats(), stats(0, 6, 3));
        assert_eq!(m.dcache.slab.len(), 3);
        assert!(m.dcache.touches_code_page(Image::CODE_BASE, 1));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(3, 6, 3));
    }

    #[test]
    fn aliasing_pcs_share_one_slab_entry() {
        // Two pcs that map to the same direct-mapped slot evict each other
        // in place: the slab never holds more than one entry per slot.
        let a = Image::CODE_BASE;
        let b = (1..u32::MAX)
            .map(|k| a.wrapping_add(k))
            .find(|&pc| DecodeCache::index(pc) == DecodeCache::index(a))
            .unwrap();
        let mut m = Machine::new(CpuKind::Pentium4);
        m.mem.write_u8(a, 0xF4); // hlt
        m.mem.write_u8(b, 0xF4);
        for pc in [a, b, a, b] {
            m.cpu.eip = pc;
            assert_eq!(m.step(), Some(CpuExit::Halt));
        }
        assert_eq!(m.decode_cache_stats(), stats(0, 4, 0));
        assert_eq!(m.dcache.slab.len(), 1);
    }

    #[test]
    fn index_keeps_native_slots_and_separates_the_top_byte() {
        for pc in (0..1u32 << 24).step_by(4099).chain([0x00FF_FFFF]) {
            let plain = (pc ^ (pc >> DCACHE_BITS)) as usize & (DCACHE_SIZE - 1);
            assert_eq!(DecodeCache::index(pc), plain, "{pc:#x}");
            // Top bytes that differ only in bits 24-29 (here 0xC0..=0xFF)
            // give the same low 24 bits a slot each.
            let mut slots: Vec<usize> = (0xC0..=0xFF)
                .map(|top: u32| DecodeCache::index(top << 24 | pc))
                .collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), 64, "{pc:#x}");
        }
    }

    #[test]
    fn code_16_mib_apart_keeps_both_decodes() {
        // Two 4 KiB straight-line runs 16 MiB apart, laid out like a block
        // and its trace copy, each ending in a `jmp` to the other. Executed
        // alternately, both stay cached: after the first round every step
        // hits.
        let (block, trace) = (0xC000_0000u32, 0xC100_0000u32);
        let mut m = Machine::new(CpuKind::Pentium4);
        for (at, to) in [(block, trace), (trace, block)] {
            let mut il = InstrList::new();
            for _ in 0..4091 {
                il.push_back(create::inc(Opnd::reg(Reg::Eax)));
            }
            il.push_back(create::jmp(Target::Pc(to)));
            let code = encode_list(&il, at).unwrap().bytes;
            assert_eq!(code.len(), 4096);
            m.mem.write_bytes(at, &code);
        }
        m.set_exec_regions(vec![
            ExecRegion::new(block, block + 4096),
            ExecRegion::new(trace, trace + 4096),
        ]);
        m.cpu.eip = block;
        let round = 2 * 4092;
        assert_eq!(m.run_steps(round), CpuExit::FuelExhausted);
        assert_eq!(m.decode_cache_stats(), stats(0, round, 0));
        for rounds in 2..=3 {
            assert_eq!(m.run_steps(round), CpuExit::FuelExhausted);
            assert_eq!(
                m.decode_cache_stats(),
                stats((rounds - 1) * round, round, 0)
            );
        }
        assert_eq!(m.cpu.eip, block);
        assert_eq!(m.cpu.reg(Reg::Eax), 3 * 2 * 4091);

        // One store into the trace copy drops only that decode: the block
        // copy still hits, and the trace refills its first instruction.
        m.mem.write_u8(trace, 0x43); // inc ebx
        m.invalidate_code_range(trace, 1);
        assert_eq!(m.decode_cache_stats(), stats(2 * round, round, 1));
        assert_eq!(m.run_steps(round), CpuExit::FuelExhausted);
        assert_eq!(m.decode_cache_stats(), stats(3 * round - 1, round + 1, 1));
        assert_eq!(m.cpu.reg(Reg::Ebx), 1);
    }

    #[test]
    fn store_wrapping_past_the_top_invalidates_both_ends() {
        // A 4-byte store at 0xFFFF_FFFE writes 0xFFFF_FFFE..=0xFFFF_FFFF
        // and 0..=1; decodes at 0xFFFF_FFFF, 0 and 1 all read those bytes.
        let mut m = Machine::new(CpuKind::Pentium4);
        let pcs = [0xFFFF_FFFF, 0, 1];
        for pc in pcs {
            m.mem.write_u8(pc, 0x90); // nop
            m.cpu.eip = pc;
            assert_eq!(m.step(), None);
            assert!(m.dcache.get(pc).is_some());
        }
        m.note_store(0xFFFF_FFFE, 4);
        assert_eq!(m.decode_cache_stats(), stats(0, 3, 3));
        assert!(pcs.iter().all(|&pc| m.dcache.get(pc).is_none()));
        // The public range entry point wraps the same way.
        m.cpu.eip = 1;
        assert_eq!(m.step(), None);
        m.invalidate_code_range(0xFFFF_FFFE, 4);
        assert_eq!(m.dcache.get(1), None);
    }

    #[test]
    fn watch_check_wraps_like_the_store() {
        let low = ExecRegion::new(0, 0x10);
        let top = ExecRegion::new(0xFFFF_FF00, 0xFFFF_FFFF);
        assert!(touches(&low, 0xFFFF_FFFE, 4));
        assert!(touches(&top, 0xFFFF_FFFE, 4));
        assert!(!touches(&low, 0xFFFF_FFFE, 2));
        assert!(!touches(&ExecRegion::new(0x10, 0x20), 0xFFFF_FFFE, 4));
        assert!(!touches(&ExecRegion::new(8, 8), 6, 4)); // empty region
        assert!(touches(&ExecRegion::new(8, 9), 6, 4));
        assert!(!touches(&ExecRegion::new(8, 9), 9, 4));

        // End to end: a guest store wrapping into a watched low page exits.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(-1)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0xFFFF_FFFE, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        m.set_watch_regions(vec![low]);
        let exit = m.run();
        assert!(
            matches!(
                exit,
                CpuExit::CodeWrite {
                    addr: 0xFFFF_FFFE,
                    len: 4,
                    ..
                }
            ),
            "{exit:?}"
        );
        assert_eq!(m.mem.read_u16(0), 0xFFFF);
    }

    #[test]
    fn charged_overhead_is_tracked_separately() {
        let mut m = Machine::new(CpuKind::Pentium4);
        m.charge(100);
        assert_eq!(m.counters.cycles, 100);
        assert_eq!(m.counters.charged_overhead, 100);
    }

    /// One specialised executor, run for a single step from a fresh
    /// Pentium 4 machine with the instruction at `CODE_BASE`.
    struct ShapeCase {
        name: &'static str,
        instr: Instr,
        /// Debug name of the executor `lower` must choose.
        shape: &'static str,
        /// Registers, flags, memory and regions before the step.
        setup: fn(&mut Machine),
        exit: Option<CpuExit>,
        /// `eip` after the step; `None` for the next instruction.
        eip: Option<u32>,
        regs: &'static [(Reg, u32)],
        eflags: u32,
        mem: &'static [(u32, &'static [u8])],
        counters: Counters,
        /// Further checks on the machine after the step.
        check: fn(&Machine),
    }

    /// `Counters` of one step: P4 costs are base 1, `inc` 4, +3 per load,
    /// +2 per store, +1 per taken branch, +20 per mispredict.
    fn step_counters(cycles: u64, loads: u64, stores: u64) -> Counters {
        Counters {
            instructions: 1,
            cycles,
            loads,
            stores,
            ..Counters::default()
        }
    }

    #[test]
    fn specialised_executors_match_hand_computed_state() {
        use rio_ia32::Eflags as F;
        const CODE: u32 = Image::CODE_BASE;
        const STACK: u32 = 0x6000_1000;
        let (cf, pf, af, zf, sf, of) = (F::CF.0, F::PF.0, F::AF.0, F::ZF.0, F::SF.0, F::OF.0);
        let r = Opnd::reg;
        let abs = |addr: u32| Opnd::Mem(MemRef::absolute(addr, OpSize::S32));
        let nothing = |_: &Machine| {};
        let cases = [
            ShapeCase {
                name: "push %esp pushes the old esp",
                instr: create::push(r(Reg::Esp)),
                shape: "Push",
                setup: |m| m.cpu.set_reg(Reg::Esp, STACK),
                exit: None,
                eip: None,
                regs: &[(Reg::Esp, STACK - 4)],
                eflags: 0,
                mem: &[(STACK - 4, &[0x00, 0x10, 0x00, 0x60])],
                counters: step_counters(3, 0, 1),
                check: nothing,
            },
            ShapeCase {
                name: "pop %esp loads esp last",
                instr: create::pop(r(Reg::Esp)),
                shape: "Pop",
                setup: |m| {
                    m.cpu.set_reg(Reg::Esp, STACK);
                    m.mem.write_u32(STACK, 0x1234_5678);
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Esp, 0x1234_5678)],
                eflags: 0,
                mem: &[],
                counters: step_counters(4, 1, 0),
                check: nothing,
            },
            ShapeCase {
                name: "call pushes the return address",
                instr: create::call(Target::Pc(CODE + 0x100)),
                shape: "Call",
                setup: |m| m.cpu.set_reg(Reg::Esp, STACK),
                exit: None,
                eip: Some(CODE + 0x100),
                regs: &[(Reg::Esp, STACK - 4)],
                eflags: 0,
                mem: &[(STACK - 4, &[0x05, 0x00, 0x40, 0x00])],
                counters: Counters {
                    taken_branches: 1,
                    ..step_counters(4, 0, 1)
                },
                check: nothing,
            },
            ShapeCase {
                name: "ret predicted by the return stack",
                instr: create::ret(),
                shape: "Ret",
                setup: |m| {
                    m.cpu.set_reg(Reg::Esp, STACK);
                    m.mem.write_u32(STACK, CODE + 0x1234);
                    m.cost.ras_push(CODE + 0x1234);
                },
                exit: None,
                eip: Some(CODE + 0x1234),
                regs: &[(Reg::Esp, STACK + 4)],
                eflags: 0,
                mem: &[],
                counters: Counters {
                    taken_branches: 1,
                    ..step_counters(5, 1, 0)
                },
                check: nothing,
            },
            ShapeCase {
                name: "ret with an empty return stack mispredicts",
                instr: create::ret(),
                shape: "Ret",
                setup: |m| {
                    m.cpu.set_reg(Reg::Esp, STACK);
                    m.mem.write_u32(STACK, CODE + 0x1234);
                },
                exit: None,
                eip: Some(CODE + 0x1234),
                regs: &[(Reg::Esp, STACK + 4)],
                eflags: 0,
                mem: &[],
                counters: Counters {
                    taken_branches: 1,
                    ind_mispredicts: 1,
                    ..step_counters(25, 1, 0)
                },
                check: nothing,
            },
            ShapeCase {
                name: "setz %ah writes bits 8..16 only",
                instr: create::setcc(Cc::Z, r(Reg::Ah)),
                shape: "SetR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0x1122_3344);
                    m.cpu.eflags = F::ZF.0;
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0x1122_0144)],
                eflags: zf,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "setnz %bh clears bits 8..16 only",
                instr: create::setcc(Cc::Nz, r(Reg::Bh)),
                shape: "SetR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Ebx, 0xAABB_CCDD);
                    m.cpu.eflags = F::ZF.0;
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Ebx, 0xAABB_00DD)],
                eflags: zf,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "movzx %bh zero-extends bits 8..16",
                instr: create::movzx(Reg::Eax, r(Reg::Bh)),
                shape: "MovzxR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0xFFFF_FFFF);
                    m.cpu.set_reg(Reg::Ebx, 0xAABB_CCDD);
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0xCC), (Reg::Ebx, 0xAABB_CCDD)],
                eflags: 0,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "movzx %ah into its own parent",
                instr: create::movzx(Reg::Eax, r(Reg::Ah)),
                shape: "MovzxR",
                setup: |m| m.cpu.set_reg(Reg::Eax, 0x1122_3344),
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0x33)],
                eflags: 0,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "add 0x7fffffff + 1 overflows without carry",
                instr: create::add(r(Reg::Eax), Opnd::imm32(1)),
                shape: "AddRI",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0x7FFF_FFFF);
                    m.cpu.eflags = F::CF.0 | F::ZF.0;
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0x8000_0000)],
                eflags: of | sf | af | pf,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "add 0xffffffff + 1 carries to zero",
                instr: create::add(r(Reg::Eax), r(Reg::Ebx)),
                shape: "AddRR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0xFFFF_FFFF);
                    m.cpu.set_reg(Reg::Ebx, 1);
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0), (Reg::Ebx, 1)],
                eflags: cf | zf | pf | af,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "sub 0 - 1 borrows",
                instr: create::sub(r(Reg::Eax), r(Reg::Ecx)),
                shape: "SubRR",
                setup: |m| m.cpu.set_reg(Reg::Ecx, 1),
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0xFFFF_FFFF), (Reg::Ecx, 1)],
                eflags: cf | pf | af | sf,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "sub 0x80000000 - 1 overflows",
                instr: create::sub(r(Reg::Edx), Opnd::imm32(1)),
                shape: "SubRI",
                setup: |m| m.cpu.set_reg(Reg::Edx, 0x8000_0000),
                exit: None,
                eip: None,
                regs: &[(Reg::Edx, 0x7FFF_FFFF)],
                eflags: of | af | pf,
                mem: &[],
                counters: step_counters(1, 0, 0),
                check: nothing,
            },
            ShapeCase {
                name: "inc m32 wrapping to zero leaves CF clear",
                instr: create::inc(abs(Image::DATA_BASE)),
                shape: "IncM",
                setup: |m| {
                    m.mem.write_u32(Image::DATA_BASE, 0xFFFF_FFFF);
                    m.cpu.eflags = F::SF.0;
                },
                exit: None,
                eip: None,
                regs: &[],
                eflags: zf | pf | af,
                mem: &[(Image::DATA_BASE, &[0, 0, 0, 0])],
                counters: step_counters(9, 1, 1),
                check: nothing,
            },
            ShapeCase {
                name: "inc m32 keeps a set CF",
                instr: create::inc(abs(Image::DATA_BASE)),
                shape: "IncM",
                setup: |m| {
                    m.mem.write_u32(Image::DATA_BASE, 0x7FFF_FFFF);
                    m.cpu.eflags = F::CF.0 | F::ZF.0;
                },
                exit: None,
                eip: None,
                regs: &[],
                eflags: cf | of | sf | af | pf,
                mem: &[(Image::DATA_BASE, &[0, 0, 0, 0x80])],
                counters: step_counters(9, 1, 1),
                check: nothing,
            },
            ShapeCase {
                name: "32-bit load straddling a page, base + index * 4 - 2",
                instr: create::mov(
                    r(Reg::Eax),
                    Opnd::Mem(MemRef::base_index(Reg::Esi, Reg::Edi, 4, -2, OpSize::S32)),
                ),
                shape: "MovRM",
                setup: |m| {
                    m.cpu.set_reg(Reg::Esi, 0x1000_0000);
                    m.cpu.set_reg(Reg::Edi, 0x400);
                    m.mem.write_bytes(0x1000_0FFE, &[0x11, 0x22, 0x33, 0x44]);
                },
                exit: None,
                eip: None,
                regs: &[(Reg::Eax, 0x4433_2211)],
                eflags: 0,
                mem: &[],
                counters: step_counters(4, 1, 0),
                check: nothing,
            },
            ShapeCase {
                name: "32-bit store straddling a page",
                instr: create::mov(abs(0x1000_1FFE), r(Reg::Ebx)),
                shape: "MovMR",
                setup: |m| m.cpu.set_reg(Reg::Ebx, 0x4433_2211),
                exit: None,
                eip: None,
                regs: &[],
                eflags: 0,
                mem: &[(0x1000_1FFE, &[0x11, 0x22, 0x33, 0x44])],
                counters: step_counters(3, 0, 1),
                check: nothing,
            },
            ShapeCase {
                name: "store into a code page invalidates its decode",
                instr: create::mov(abs(CODE + 0x40), r(Reg::Eax)),
                shape: "MovMR",
                setup: |m| {
                    m.mem.write_u8(CODE + 0x40, 0x90); // nop, decoded once
                    m.cpu.eip = CODE + 0x40;
                    assert_eq!(m.step(), None);
                    m.cpu.eip = CODE;
                    m.counters = Counters::default();
                    m.cpu.set_reg(Reg::Eax, 0xCCCC_CCCC);
                },
                exit: None,
                eip: None,
                regs: &[],
                eflags: 0,
                mem: &[(CODE + 0x40, &[0xCC; 4])],
                counters: step_counters(3, 0, 1),
                check: |m| {
                    assert_eq!(m.dcache.get(CODE + 0x40), None);
                    assert_eq!(m.decode_cache_stats().invalidated, 1);
                },
            },
            ShapeCase {
                name: "store into a watched region exits after commit",
                instr: create::mov(abs(CODE + 0x100), r(Reg::Eax)),
                shape: "MovMR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0x0102_0304);
                    m.set_watch_regions(vec![ExecRegion::new(CODE + 0x100, CODE + 0x200)]);
                },
                exit: Some(CpuExit::CodeWrite {
                    pc: CODE,
                    addr: CODE + 0x100,
                    len: 4,
                }),
                eip: None,
                regs: &[],
                eflags: 0,
                mem: &[(CODE + 0x100, &[0x04, 0x03, 0x02, 0x01])],
                counters: step_counters(3, 0, 1),
                check: nothing,
            },
            ShapeCase {
                name: "guarded push faults before esp moves",
                instr: create::push(r(Reg::Eax)),
                shape: "Push",
                setup: |m| {
                    m.cpu.set_reg(Reg::Esp, STACK);
                    m.cpu.set_reg(Reg::Eax, 7);
                    m.set_guard_regions(vec![ExecRegion::new(STACK - 0x1000, STACK)]);
                },
                exit: Some(CpuExit::Fault {
                    kind: FaultKind::MemFault,
                    pc: CODE,
                    addr: STACK - 4,
                }),
                eip: Some(CODE),
                regs: &[(Reg::Esp, STACK)],
                eflags: 0,
                mem: &[(STACK - 4, &[0; 4])],
                counters: Counters::default(),
                check: nothing,
            },
            ShapeCase {
                name: "guarded store faults before writing",
                instr: create::mov(abs(0x2000_0FFE), r(Reg::Eax)),
                shape: "MovMR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0xFFFF_FFFF);
                    m.set_guard_regions(vec![ExecRegion::new(0x2000_1000, 0x2000_2000)]);
                },
                exit: Some(CpuExit::Fault {
                    kind: FaultKind::MemFault,
                    pc: CODE,
                    addr: 0x2000_1000,
                }),
                eip: Some(CODE),
                regs: &[],
                eflags: 0,
                mem: &[(0x2000_0FFE, &[0; 4])],
                counters: Counters::default(),
                check: nothing,
            },
        ];
        for case in cases {
            let mut il = InstrList::new();
            il.push_back(case.instr);
            let code = encode_list(&il, CODE).unwrap().bytes;
            let (decoded, len) = decode_instr(&code, CODE).unwrap();
            let shape = format!("{:?}", lower(&decoded, len).shape);
            assert!(shape.starts_with(case.shape), "{}: {shape}", case.name);

            let mut m = Machine::new(CpuKind::Pentium4);
            m.mem.write_bytes(CODE, &code);
            m.cpu.eip = CODE;
            (case.setup)(&mut m);
            assert_eq!(m.step(), case.exit, "{}", case.name);
            let eip = case.eip.unwrap_or(CODE + len);
            assert_eq!(m.cpu.eip, eip, "{}", case.name);
            for &(reg, v) in case.regs {
                assert_eq!(m.cpu.reg(reg), v, "{}: {reg}", case.name);
            }
            assert_eq!(m.cpu.eflags, case.eflags, "{}: eflags", case.name);
            for &(addr, bytes) in case.mem {
                let mut got = vec![0; bytes.len()];
                m.mem.read_bytes(addr, &mut got);
                assert_eq!(got, bytes, "{}: memory at {addr:#x}", case.name);
            }
            assert_eq!(m.counters, case.counters, "{}", case.name);
            (case.check)(&m);
        }
    }

    #[test]
    fn specialised_executors_agree_with_the_generic_interpreter() {
        // Every specialised shape, run on pseudo-random registers, flags
        // and memory, with and without a guard or watch on the bytes it
        // touches, must leave exactly the state the generic interpreter
        // leaves for the same decode.
        let r = Opnd::reg;
        let mem = |base, index: Option<Reg>, disp| {
            Opnd::Mem(MemRef {
                base: Some(base),
                index,
                scale: 4,
                disp,
                size: OpSize::S32,
            })
        };
        let mut instrs = vec![
            create::mov(r(Reg::Eax), r(Reg::Ebx)),
            create::mov(r(Reg::Esp), r(Reg::Ecx)),
            create::mov(r(Reg::Edx), Opnd::imm32(0x1234_5678)),
            create::mov(r(Reg::Eax), mem(Reg::Esi, Some(Reg::Edi), 8)),
            create::mov(r(Reg::Ecx), mem(Reg::Ebp, None, -4)),
            create::mov(mem(Reg::Ebx, None, 12), r(Reg::Eax)),
            create::mov(mem(Reg::Esp, None, 0), r(Reg::Esp)),
            create::push(r(Reg::Eax)),
            create::push(r(Reg::Esp)),
            create::pop(r(Reg::Ecx)),
            create::pop(r(Reg::Esp)),
            create::cmp(r(Reg::Eax), r(Reg::Ebx)),
            create::test(r(Reg::Ecx), r(Reg::Edx)),
            create::movzx(Reg::Eax, r(Reg::Bh)),
            create::movzx(Reg::Ecx, r(Reg::Al)),
            create::movzx(Reg::Edx, r(Reg::Bx)),
            create::inc(mem(Reg::Esi, None, 4)),
            create::jmp(Target::Pc(Image::CODE_BASE + 0x100)),
            create::call(Target::Pc(Image::CODE_BASE + 0x100)),
            create::call_ind(r(Reg::Eax)),
            create::call_ind(r(Reg::Esp)),
            create::ret(),
        ];
        for alu in [create::add, create::sub, create::and, create::xor] {
            instrs.push(alu(r(Reg::Ebx), r(Reg::Ecx)));
            instrs.push(alu(r(Reg::Eax), Opnd::imm32(1)));
            instrs.push(alu(r(Reg::Edi), Opnd::imm32(0x7FFF_FFFF)));
        }
        for cc in Cc::ALL {
            instrs.push(create::jcc(cc, Target::Pc(Image::CODE_BASE + 0x100)));
            instrs.push(create::setcc(cc, r(Reg::Ah)));
            instrs.push(create::setcc(cc, r(Reg::Dl)));
        }

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        const EDGES: [u32; 6] = [0, 1, 0x7F, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF];
        for instr in instrs {
            let mut il = InstrList::new();
            il.push_back(instr);
            let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
            let (decoded, len) = decode_instr(&code, Image::CODE_BASE).unwrap();
            let special = lower(&decoded, len);
            assert!(!matches!(special.shape, Shape::Generic), "{decoded}");
            let generic = Lowered {
                shape: Shape::Generic,
                ..special
            };
            for trial in 0..48 {
                let regs: Vec<u32> = (0..8)
                    .map(|_| match next() % 3 {
                        0 => EDGES[next() as usize % EDGES.len()],
                        _ => next(),
                    })
                    .collect();
                let eflags = next() & Eflags::ALL6.0;
                let mut machines = [special, generic].map(|_| Machine::new(CpuKind::Pentium4));
                for m in &mut machines {
                    for (i, &v) in regs.iter().enumerate() {
                        m.cpu.set_gpr(i as u8, v);
                    }
                    m.cpu.eflags = eflags;
                }
                // The bytes the instruction may touch: its memory operands
                // and the stack slots on either side of esp.
                let esp = regs[usize::from(ESP)];
                let mut probes = vec![esp.wrapping_sub(4), esp];
                for op in special.srcs.iter().chain(&special.dsts) {
                    if let LOpnd::Mem(m) = op {
                        probes.insert(0, machines[0].addr_of(m));
                    }
                }
                let words: Vec<u32> = probes.iter().map(|_| next()).collect();
                for m in &mut machines {
                    for (&a, &w) in probes.iter().zip(&words) {
                        m.mem.write_u32(a, w);
                    }
                    let touched = vec![ExecRegion::new(probes[0], probes[0].wrapping_add(1))];
                    match trial % 3 {
                        1 => m.set_guard_regions(touched),
                        2 => m.set_watch_regions(touched),
                        _ => {}
                    }
                }
                let [a, b] = &mut machines;
                let exits = (
                    a.exec(Image::CODE_BASE, &special),
                    b.exec(Image::CODE_BASE, &generic),
                );
                let what = format!("{decoded} trial {trial}");
                assert_eq!(exits.0, exits.1, "{what}");
                assert_eq!(a.cpu, b.cpu, "{what}");
                assert_eq!(a.counters, b.counters, "{what}");
                assert_eq!(a.decode_cache_stats(), b.decode_cache_stats(), "{what}");
                for &p in &probes {
                    for addr in (0..8).map(|k| p.wrapping_sub(4).wrapping_add(k)) {
                        assert_eq!(a.mem.read_u8(addr), b.mem.read_u8(addr), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn cmov_moves_only_when_condition_holds() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(99)));
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::imm32(1))); // ZF=1
        il.push_back(create::cmov(Cc::Z, Reg::Ecx, Opnd::reg(Reg::Ebx))); // taken
        il.push_back(create::cmov(Cc::Nz, Reg::Edx, Opnd::reg(Reg::Ebx))); // not taken
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ecx), 99);
        assert_eq!(m.cpu.reg(Reg::Edx), 0);
    }

    #[test]
    fn rotates() {
        let mut il = InstrList::new();
        il.push_back(create::mov(
            Opnd::reg(Reg::Eax),
            Opnd::imm32(0x8000_0001u32 as i32),
        ));
        il.push_back(create::rol(Opnd::reg(Reg::Eax), Opnd::imm8(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(0x1)));
        il.push_back(create::ror(Opnd::reg(Reg::Ebx), Opnd::imm8(4)));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x3);
        assert_eq!(m.cpu.reg(Reg::Ebx), 0x1000_0000);
    }

    #[test]
    fn bit_test_sets_carry() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0b1000)));
        il.push_back(create::bt(Opnd::reg(Reg::Eax), Opnd::imm8(3)));
        il.push_back(create::sbb(Opnd::reg(Reg::Ecx), Opnd::reg(Reg::Ecx))); // -CF
        il.push_back(create::bt(Opnd::reg(Reg::Eax), Opnd::imm8(2)));
        il.push_back(create::sbb(Opnd::reg(Reg::Edx), Opnd::reg(Reg::Edx)));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ecx), 0xFFFF_FFFF); // bit 3 was set
        assert_eq!(m.cpu.reg(Reg::Edx), 0); // bit 2 clear
    }

    #[test]
    fn bswap_reverses_bytes() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x1234_5678)));
        il.push_back(create::bswap(Reg::Eax));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x7856_3412);
    }
}
