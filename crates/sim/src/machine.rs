//! The simulated machine: memory + CPU + cost model + interpreter.
//!
//! The interpreter executes machine code *from memory bytes* — the same
//! bytes the RIO encoder emits into the code cache — so the entire
//! decode/translate/encode/link path of the dynamic translator is exercised
//! for real. A direct-mapped cache of decoded basic blocks makes
//! interpretation fast; the RIO core invalidates it whenever it patches
//! code (linking, fragment replacement), and every interpreted store
//! invalidates the span it writes, modelling self-modifying code correctly.
//!
//! The decode cache is host infrastructure, not part of the modelled
//! machine, and is built to cost little per instruction:
//!
//! * it caches straight-line blocks, not single instructions: a block runs
//!   from its start pc to the first control transfer, `int`, `int3` or
//!   `hlt` (or stops earlier before an undecodable instruction, or at a cap
//!   of 32 instructions and 128 bytes). [`Machine::run_steps`] looks up,
//!   tests the exec region, the armed injection and the fuel once per
//!   block, then runs the block's instructions back to back. It cuts a
//!   block where the region ends, where the injection fires and where the
//!   fuel runs out, so every budget stays instruction-precise, and running
//!   a block leaves exactly the state stepping its instructions one at a
//!   time does. `run_steps(1)` runs a block of at most one instruction;
//! * a block is decoded only as far as execution needs it and extended when
//!   execution reaches its end, so a pc that is only ever single-stepped
//!   costs one decode;
//! * its 32K slot words and its code-page bitmap are reused from machines
//!   dropped earlier on the same thread, cleared where they were used, so a
//!   fresh [`Machine`] neither allocates nor zeroes them and pays only for
//!   the slots its code actually uses (a thread's first machine allocates
//!   them zeroed);
//! * it is direct-mapped by start pc, and its index keeps apart code in
//!   different 16 MiB regions: bit 24 of the pc is folded into the top
//!   index bit, so two copies of hot code 16 MiB apart (a basic block and
//!   its trace, say) fill opposite halves of the cache and both stay
//!   cached. A pc with a zero top byte, which is all application code and
//!   so every native run, keeps the plain `pc ^ (pc >> 15)` slot;
//! * a miss decodes straight into the executable form (no `Instr`, no heap
//!   allocation) and appends it to one arena per machine, which grows with
//!   the program; when it reaches its bound the whole cache is reset, so
//!   memory stays bounded;
//! * a block executes by reference out of the arena;
//! * a per-page bitmap of pages that may hold a cached block lets stores to
//!   data and stack pages (nearly all of them) skip the invalidation probe
//!   after testing two bits, those of their first and last byte. A store
//!   that does reach a cached block drops it and sets the one flag tested
//!   after each instruction, which ends the running block there, so a store
//!   into the block that is executing runs the new bytes next.
//!
//! [`Machine::decode_cache_stats`] reports block hits, misses and
//! invalidations for profiling; they never reach [`Counters`].
//!
//! A cached decode is ready to execute, so an instruction re-derives nothing
//! that is fixed once the bytes are decoded:
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
//! * a step's cycles are bound at decode time too: `instr_cost` for the
//!   loads and stores its executor always makes, under the machine's cost
//!   model. Only the generic interpreter prices anything as it runs: the
//!   loads and stores it made;
//! * [`Machine::run_steps`] copies the exec region and lends the decode
//!   arena out of the machine for the whole call, since no instruction can
//!   change the region or move an arena entry.

use rio_ia32::decode::{decode_operands, Operand, Operands, MAX_DSTS, MAX_SRCS};
use rio_ia32::{Cc, Eflags, OpSize, Opcode, Reg};

use crate::cpu::{
    alu_add, alu_logic, alu_sar, alu_shl, alu_shr, alu_sub, CpuExit, CpuState, FaultKind,
};
use crate::image::Image;
use crate::mem::Memory;
use crate::perf::{CostModel, Counters, CpuKind};
use crate::spare::{self, Spares};

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

/// The low `bits` bits of `v`, sign- or zero-extended (a 64-bit value
/// unsigned keeps its bit pattern).
fn extend(v: u64, bits: u32, signed: bool) -> i64 {
    let shift = 64 - bits;
    if signed {
        ((v << shift) as i64) >> shift
    } else {
        ((v << shift) >> shift) as i64
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
    /// Register `number` at `size`, as the decoder names it.
    fn new(number: u8, size: OpSize) -> RegOp {
        let (idx, view) = match size {
            OpSize::S32 => (number, View::R32),
            OpSize::S16 => (number, View::R16),
            // 8-bit numbers 4..7 are %ah..%bh, the high bytes of 0..3.
            OpSize::S8 if number >= 4 => (number - 4, View::High8),
            OpSize::S8 => (number, View::Low8),
        };
        RegOp { idx, view }
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MemOp {
    base: u8,
    index: u8,
    scale: u8,
    size: OpSize,
    disp: i32,
}

/// Compact executable form of one decoded instruction. The fields every
/// executor reads (opcode, length, cycles, executor) come first, in 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
struct Lowered {
    op: Opcode,
    len: u8,
    /// `instr_cost` for the loads and stores the executor always makes (the
    /// generic one makes none, and prices those it makes as it runs).
    cycles: u8,
    shape: Shape,
    srcs: [LOpnd; MAX_SRCS],
    dsts: [LOpnd; MAX_DSTS],
}

impl Lowered {
    /// The executable form of a decoded instruction: its operands are
    /// already bound, so only the executor and its cost are left to choose.
    fn new(d: Operands<LOpnd>, cost: &CostModel) -> Lowered {
        let shape = Shape::of(d.op, &d.srcs, &d.dsts);
        let (loads, stores) = match shape {
            Shape::MovRM(..) | Shape::Pop(_) | Shape::Ret => (1, 0),
            Shape::MovMR(..) | Shape::Push(_) | Shape::Call(_) | Shape::CallIndR(_) => (0, 1),
            Shape::IncM(_) => (1, 1),
            _ => (0, 0),
        };
        Lowered {
            op: d.op,
            len: d.len as u8, // at most MAX_INSTR_BYTES
            cycles: u8::try_from(cost.instr_cost(d.op, loads, stores)).expect("costs fit a byte"),
            shape,
            srcs: d.srcs,
            dsts: d.dsts,
        }
    }
}

/// An operand bound at decode time. An immediate keeps only its value,
/// already extended: the width of an operation comes from its register or
/// memory operand, so dropping the immediate's width keeps every operand in
/// eight bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LOpnd {
    None,
    Reg(RegOp),
    Imm(i32),
    Mem(MemOp),
    Pc(u32),
}

/// The decoder binds operands straight into this form: register numbers
/// are register-file indices, so nothing is looked up again.
impl Operand for LOpnd {
    const NONE: LOpnd = LOpnd::None;

    fn reg(number: u8, size: OpSize) -> LOpnd {
        LOpnd::Reg(RegOp::new(number, size))
    }

    fn mem(base: Option<u8>, index: Option<u8>, scale: u8, disp: i32, size: OpSize) -> LOpnd {
        LOpnd::Mem(MemOp {
            base: base.unwrap_or(NO_REG),
            index: index.unwrap_or(NO_REG),
            scale,
            size,
            disp,
        })
    }

    fn imm(value: i32, _size: OpSize) -> LOpnd {
        LOpnd::Imm(value)
    }

    fn pc(target: u32) -> LOpnd {
        LOpnd::Pc(target)
    }
}

impl LOpnd {
    /// The width of a register or memory operand.
    fn size(&self) -> OpSize {
        match self {
            LOpnd::Reg(r) => r.size(),
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    fn of(op: Opcode, srcs: &[LOpnd; MAX_SRCS], dsts: &[LOpnd; MAX_DSTS]) -> Shape {
        let (s0, s1, d0) = (&srcs[0], &srcs[1], &dsts[0]);
        let (imm, pc) = match *s0 {
            LOpnd::Imm(v) => (Some(v as u32), None),
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

const DCACHE_BITS: usize = 15;
const DCACHE_SIZE: usize = 1 << DCACHE_BITS;
/// Longest instruction fetch: a decode at `pc` reads at most the bytes up to
/// `pc + MAX_INSTR_BYTES - 1`.
const MAX_INSTR_BYTES: u32 = 16;
/// Most instructions in one cached block.
const MAX_BLOCK_INSTRS: u32 = 32;
/// Most bytes one cached block spans. A block takes no further instruction
/// once it spans more than `MAX_BLOCK_BYTES - MAX_INSTR_BYTES`, so a write
/// at `addr` can stale only blocks starting at `addr - MAX_BLOCK_BYTES + 1`
/// or later.
const MAX_BLOCK_BYTES: u32 = 128;
/// Decoded instructions the arena holds. The arena grows with the program,
/// doubling from [`ARENA_FIRST_INSTRS`], up to this bound: when it cannot
/// take one more whole block within the bound, the whole cache is reset.
const ARENA_INSTRS: usize = 1 << 15;
/// The arena's first allocation, on a machine's first miss: 80 KiB, enough
/// that a program decoding up to 1,024 instructions never copies its arena
/// (each copy briefly holds both arenas, which would raise peak memory).
const ARENA_FIRST_INSTRS: usize = 1 << 10;
const PAGE_SHIFT: u32 = 12;
const PAGE_MASK: u32 = (1 << PAGE_SHIFT) - 1;
/// Pages in the 32-bit address space, one bit each in the code-page bitmap.
const PAGES: u32 = 1 << (32 - PAGE_SHIFT);

/// Slot word layout, high bit to low: the start pc (32 bits), `VALID`,
/// `LAST` (the block is complete and is never extended), the byte span
/// (8 bits), the instruction count (6 bits) and the arena index of the
/// first instruction (16 bits). An all-zero word is an empty slot.
const SLOT_VALID: u64 = 1 << 31;
const SLOT_LAST: u64 = 1 << 30;
const SLOT_SPAN_SHIFT: u32 = 22;
const SLOT_LEN_SHIFT: u32 = 16;
/// The bits a lookup compares: the pc tag and `VALID`.
const SLOT_TAG: u64 = !(SLOT_VALID - 1);

/// Whether `op` ends a block: every control transfer, and the instructions
/// that always stop the machine.
fn ends_block(op: Opcode) -> bool {
    op.is_cti() || matches!(op, Opcode::Int | Opcode::Int3 | Opcode::Hlt)
}

/// One decoded instruction of a cached block. Aligned to 16 bytes, so the
/// first 16 bytes of every arena entry, which the executors read, lie in one
/// cache line (an unaligned 72-byte entry let them straddle two, and ran
/// the suite measurably slower).
#[derive(Clone, Copy)]
#[repr(C, align(16))]
struct Decoded {
    lowered: Lowered,
    /// Raw bytes the decode was made from (first `lowered.len` are live);
    /// kept so verification mode can prove a hit is not stale.
    bytes: [u8; 16],
}

/// A cached block: its slot word, which says where its `len` decoded
/// instructions lie in the arena and how many bytes from its start pc they
/// span. It stays packed, so a hit unpacks only the fields it reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Block(u64);

impl Block {
    fn new(pc: u32, start: usize, len: u32, span: u32, last: bool) -> Block {
        let last = if last { SLOT_LAST } else { 0 };
        Block(
            DecodeCache::valid_tag(pc)
                | last
                | u64::from(span) << SLOT_SPAN_SHIFT
                | u64::from(len) << SLOT_LEN_SHIFT
                | start as u64,
        )
    }

    /// Arena index of the first instruction.
    fn start(self) -> usize {
        (self.0 & 0xFFFF) as usize
    }

    /// Number of instructions.
    fn len(self) -> u32 {
        (self.0 >> SLOT_LEN_SHIFT) as u32 & 0x3F
    }

    /// Bytes covered from the start pc.
    fn span(self) -> u32 {
        (self.0 >> SLOT_SPAN_SHIFT) as u32 & 0xFF
    }

    /// Whether the block is complete: it ends at a block-ending
    /// instruction, before an undecodable one, or at a cap, so it is never
    /// extended.
    fn last(self) -> bool {
        self.0 & SLOT_LAST != 0
    }

    /// Whether the block can run as it is: it holds the `want`
    /// instructions asked for, or can take no more (it is complete, or it
    /// reaches the end of the region, `room` bytes from its start).
    fn serves(self, want: u64, room: u32) -> bool {
        u64::from(self.len()) >= want || self.last() || self.span() >= room
    }

    /// The arena range of its instructions.
    fn instrs(self) -> std::ops::Range<usize> {
        self.start()..self.start() + self.len() as usize
    }
}

/// Host-side decode-cache activity, for profiling the interpreter. These
/// counts are not part of the modelled machine: they never feed
/// [`Counters`] or any simulated output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Block lookups served from the cache without decoding.
    pub hits: u64,
    /// Block lookups that decoded: a new block, or a cached one extended.
    pub misses: u64,
    /// Cached blocks dropped by invalidation (store, range, or whole) or
    /// by a reset when the arena is full.
    pub invalidated: u64,
    /// Instructions decoded by misses (a block extended in place or copied
    /// decodes only its new instructions).
    pub decoded: u64,
}

/// Direct-mapped software cache of decoded straight-line blocks, keyed by
/// start pc.
///
/// * A block is the run of instructions from its start pc up to and
///   including the first control transfer, `int`, `int3` or `hlt`. It ends
///   earlier before an undecodable instruction, or at a cap of
///   [`MAX_BLOCK_INSTRS`] instructions and [`MAX_BLOCK_BYTES`] bytes. A
///   block is decoded only as far as execution needs it and extended when
///   execution reaches its end, so a pc that is only ever single-stepped
///   costs one decode.
/// * [`DecodeCache::index`] is `pc ^ (pc >> 15)` with bit 24, the lowest
///   bit of the top address byte, also folded into the top index bit.
///   Pcs with a zero top byte keep the plain `pc ^ (pc >> 15)` slot. Bits
///   24–29 reach the index in independent patterns, so pcs that differ
///   only there never share a slot, and the first 16 KiB of two regions
///   16 MiB apart fill opposite halves of the slots.
/// * `slots` holds one word per direct-mapped slot: the start pc, a valid
///   bit, and where the block lies (see `SLOT_VALID`). It and `code_pages`
///   are [`Tables`], reused from machines dropped on the same thread.
/// * `arena` holds every block's decoded instructions back to back. It is
///   allocated on the first miss at [`ARENA_FIRST_INSTRS`] entries and
///   doubles whenever a fill might not fit, so a machine pays only for the
///   code it runs. A dropped machine leaves its arena, emptied, to the next
///   machine on its thread with the tables, so an arena is allocated and
///   grown once per thread, not once per machine. A new block is appended;
///   a block grows in place while it is the newest and is copied to the
///   end otherwise; a replaced or invalidated block's instructions stay
///   behind until the arena reaches [`ARENA_INSTRS`] entries, and then the
///   whole cache is reset, so memory stays bounded. Blocks name their instructions by arena index, so
///   growing the arena moves no block.
/// * `code_pages` is a bitmap with one bit per 4 KiB page. Invariant: for
///   every valid slot with start `pc` and span `s`, the pages holding `pc`
///   and `pc + s - 1` are marked. A byte at `a` can only stale a block
///   whose `[pc, pc + s)` contains `a`, and that range lies on one of those
///   two pages, so a write touching no marked page cannot stale anything
///   and skips the probe. Bits are set when a block is filled and cleared
///   only by `invalidate_all`, so the bitmap may over-approximate but
///   never under-approximates.
///
/// Invalidation touches only the tables (and `stats`), never `arena`, which
/// is what lets the interpreter borrow the arena while it executes a block.
struct DecodeCache {
    tables: Tables,
    arena: Vec<Decoded>,
    stats: DecodeCacheStats,
}

/// Slots per chunk of the slot index whose use [`Tables`] tracks.
const SLOT_CHUNK: usize = 1 << 10;
const _: () = assert!(DCACHE_SIZE / SLOT_CHUNK <= 32);

thread_local! {
    /// The tables and emptied arenas of decode caches dropped on this thread.
    static SPARE_TABLES: Spares<(Tables, Vec<Decoded>)> = const { Spares::new(Vec::new()) };
}

/// The decode cache's fixed-size tables: the slot index and the code-page
/// bitmap, 384 KiB together. A new machine takes a cleared set from those
/// of machines dropped on its thread (see [`DecodeCache::new`]), and
/// allocates them zeroed only when there is none, so it pays only for the
/// slots its code actually uses.
/// Clearing touches only what was used: each table records which of its
/// parts (a chunk of [`SLOT_CHUNK`] slots, a bitmap word) may be nonzero,
/// and both marks are set on a fill, never on a lookup or a store.
#[derive(Default)]
struct Tables {
    slots: Vec<u64>,
    code_pages: Vec<u64>,
    /// Bit `c`: chunk `c` of `slots` may hold a nonzero word.
    used_chunks: u32,
    /// Bit `w`: `code_pages[w]` may be nonzero.
    used_words: Vec<u64>,
}

/// The indices of the set bits of `mask`, lowest first.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

impl Tables {
    fn new() -> Tables {
        let words = PAGES as usize / 64;
        Tables {
            slots: vec![0; DCACHE_SIZE],
            code_pages: vec![0; words],
            used_chunks: 0,
            used_words: vec![0; words / 64],
        }
    }

    /// Zero what was used.
    fn clear(&mut self) {
        for chunk in set_bits(self.used_chunks.into()) {
            self.slots[chunk * SLOT_CHUNK..][..SLOT_CHUNK].fill(0);
        }
        self.used_chunks = 0;
        self.clear_pages();
    }

    /// Store `word` in slot `index`, marking its chunk used.
    fn set_slot(&mut self, index: usize, word: u64) {
        self.slots[index] = word;
        self.used_chunks |= 1 << (index / SLOT_CHUNK);
    }

    /// Mark the page holding `addr` as holding code, and its word used.
    fn mark_page(&mut self, addr: u32) {
        let page = (addr >> PAGE_SHIFT) as usize;
        let word = page / 64;
        self.code_pages[word] |= 1 << (page % 64);
        self.used_words[word / 64] |= 1 << (word % 64);
    }

    /// Zero every bitmap word that may be set.
    fn clear_pages(&mut self) {
        for (i, used) in self.used_words.iter_mut().enumerate() {
            for bit in set_bits(std::mem::take(used)) {
                self.code_pages[i * 64 + bit] = 0;
            }
        }
    }
}

impl Drop for DecodeCache {
    fn drop(&mut self) {
        // The empty defaults left behind allocate nothing.
        let mut tables = std::mem::take(&mut self.tables);
        let mut arena = std::mem::take(&mut self.arena);
        tables.clear();
        arena.clear();
        spare::give(&SPARE_TABLES, (tables, arena));
    }
}

impl DecodeCache {
    /// A cache with cleared tables and an empty arena: a machine's dropped
    /// earlier on this thread, or new ones.
    fn new() -> DecodeCache {
        let (tables, arena) =
            spare::take(&SPARE_TABLES).unwrap_or_else(|| (Tables::new(), Vec::new()));
        DecodeCache {
            tables,
            arena,
            stats: DecodeCacheStats::default(),
        }
    }

    /// The slot of `pc` (see the type docs).
    fn index(pc: u32) -> usize {
        let fold = pc ^ (pc >> DCACHE_BITS) ^ ((pc >> 24) << (DCACHE_BITS - 1));
        fold as usize & (DCACHE_SIZE - 1)
    }

    /// The tag and valid bits of a slot word holding a valid block at `pc`.
    fn valid_tag(pc: u32) -> u64 {
        u64::from(pc) << 32 | SLOT_VALID
    }

    /// The valid block starting at `pc`, if cached.
    #[inline]
    fn get(&self, pc: u32) -> Option<Block> {
        let word = self.tables.slots[Self::index(pc)];
        (word & SLOT_TAG == Self::valid_tag(pc)).then_some(Block(word))
    }

    /// Decode into the block at `pc`, the arena lent out as `arena`:
    /// extend `found`, or start a new block when there is none. The block
    /// takes instructions until it holds `want` of them, is complete, or
    /// reaches `room` bytes from `pc` (the end of the exec region). Returns
    /// `None` when a new block's first instruction is undecodable.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &mut self,
        mem: &Memory,
        cost: &CostModel,
        arena: &mut Vec<Decoded>,
        pc: u32,
        mut found: Option<Block>,
        want: u32,
        room: u32,
    ) -> Option<Block> {
        if ARENA_INSTRS - arena.len() < MAX_BLOCK_INSTRS as usize {
            self.invalidate_all();
            arena.clear();
            found = None;
        }
        // Room for a whole block, so the fill below never reallocates.
        if arena.capacity() - arena.len() < MAX_BLOCK_INSTRS as usize {
            let grown = (2 * arena.capacity()).clamp(ARENA_FIRST_INSTRS, ARENA_INSTRS);
            arena.reserve_exact(grown - arena.len());
        }
        // Blocks passed in for extension are never complete.
        let (start, mut len, mut span) = match found {
            Some(b) if b.start() + b.len() as usize == arena.len() => {
                (b.start(), b.len(), b.span())
            }
            Some(b) => {
                let start = arena.len();
                arena.extend_from_within(b.instrs());
                (start, b.len(), b.span())
            }
            None => (arena.len(), 0, 0),
        };
        let mut last = false;
        while len < want && !last && (len == 0 || span < room) {
            let at = pc.wrapping_add(span);
            let mut bytes = [0u8; 16];
            mem.read_bytes(at, &mut bytes);
            let Ok(ops) = decode_operands(&bytes, at) else {
                if len == 0 {
                    return None;
                }
                last = true;
                break;
            };
            let lowered = Lowered::new(ops, cost);
            arena.push(Decoded { lowered, bytes });
            self.stats.decoded += 1;
            len += 1;
            span += ops.len;
            last = ends_block(lowered.op)
                || len == MAX_BLOCK_INSTRS
                || span > MAX_BLOCK_BYTES - MAX_INSTR_BYTES;
        }
        let b = Block::new(pc, start, len, span, last);
        self.tables.set_slot(Self::index(pc), b.0);
        self.tables.mark_page(pc);
        self.tables.mark_page(pc.wrapping_add(span - 1));
        Some(b)
    }

    /// Whether any page holding one of the `len` bytes at `start` (wrapping)
    /// may hold part of a cached block: for a run of at most a page, that of
    /// its first or of its last byte; a longer run always may.
    fn touches_code_page(&self, start: u32, len: u32) -> bool {
        let marked = |addr: u32| {
            let page = (addr >> PAGE_SHIFT) as usize;
            self.tables.code_pages[page / 64] & (1 << (page % 64)) != 0
        };
        len > PAGE_MASK + 1 || (len > 0 && (marked(start) || marked(start.wrapping_add(len - 1))))
    }

    /// Drop every block. The arena's contents become garbage; the caller
    /// that holds the arena clears it.
    fn invalidate_all(&mut self) {
        let tables = &mut self.tables;
        for chunk in set_bits(tables.used_chunks.into()) {
            for word in &mut tables.slots[chunk * SLOT_CHUNK..][..SLOT_CHUNK] {
                if *word & SLOT_VALID != 0 {
                    *word &= !SLOT_VALID;
                    self.stats.invalidated += 1;
                }
            }
        }
        tables.clear_pages();
    }

    /// Drop every cached block whose bytes overlap the `len` bytes at
    /// `start`, wrapping past the top of the address space exactly as the
    /// write did. A block spans at most [`MAX_BLOCK_BYTES`], so only start
    /// pcs in `[start - 127, start + len)` can be affected; each lives at
    /// its own direct-mapped slot, so the walk is bounded by `len + 127`
    /// probes, and the span in the slot word decides the overlap. Writes
    /// that touch no code page skip the walk. Returns whether a block was
    /// dropped.
    fn invalidate_range(&mut self, start: u32, len: u32) -> bool {
        if !self.touches_code_page(start, len) {
            return false;
        }
        let before = self.stats.invalidated;
        let lo = start.wrapping_sub(MAX_BLOCK_BYTES - 1);
        for k in 0..u64::from(len) + u64::from(MAX_BLOCK_BYTES - 1) {
            let pc = lo.wrapping_add(k as u32);
            let word = &mut self.tables.slots[Self::index(pc)];
            if *word & SLOT_TAG == Self::valid_tag(pc)
                && (start.wrapping_sub(pc) < Block(*word).span() || pc.wrapping_sub(start) < len)
            {
                *word &= !SLOT_VALID;
                self.stats.invalidated += 1;
            }
        }
        self.stats.invalidated != before
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
/// It executes from one region ([`Machine::set_exec_region`]; the loaded
/// image's code by default) and may watch one code region for stores
/// ([`Machine::set_watch_region`]) and guard one data region against
/// access ([`Machine::set_guard_region`]). See the [crate docs](crate) for
/// an end-to-end example.
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: CpuState,
    /// Memory.
    pub mem: Memory,
    /// The cycle cost model and predictor state (decodes bind its costs).
    cost: CostModel,
    /// Accumulated execution statistics.
    pub counters: Counters,
    dcache: DecodeCache,
    /// The one region the CPU may execute from.
    region: ExecRegion,
    /// Guarded data region: any load/store touching it raises
    /// [`FaultKind::MemFault`] *before* the instruction mutates state.
    /// None by default (the sparse memory otherwise zero-fills).
    guard: Option<ExecRegion>,
    /// One-shot injected fault: raised in place of the next instruction
    /// once `counters.instructions` reaches the trigger count.
    inject: Option<(u64, FaultKind)>,
    /// Watched code region: a committed guest store touching it stops
    /// execution with [`CpuExit::CodeWrite`]. None by default.
    watch: Option<ExecRegion>,
    /// Store into a watched region recorded by the current instruction
    /// (`(addr, len)`), turned into an exit at the end of the step.
    step_code_write: Option<(u32, u32)>,
    /// Set by a store that dropped a cached block or touched the watched
    /// region: the one flag `run_blocks` tests after each step.
    code_stored: bool,
    /// When set, every decode-cache hit is re-verified against the live
    /// memory bytes; mismatches count in `stale_decode_hits`.
    verify_decodes: bool,
    stale_decode_hits: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Machine(eip={:#x}, {})", self.cpu.eip, self.counters)
    }
}

impl Machine {
    /// Create a machine of the given processor family with empty memory.
    /// Once a machine has been dropped on this thread, this allocates
    /// nothing: the decode cache's tables and the branch predictors' tables
    /// are the dropped machine's, reset, and memory allocates on first
    /// write.
    pub fn new(kind: CpuKind) -> Machine {
        Machine {
            cpu: CpuState::new(),
            mem: Memory::new(),
            cost: CostModel::new(kind),
            counters: Counters::default(),
            dcache: DecodeCache::new(),
            region: ExecRegion::new(0, 0),
            guard: None,
            inject: None,
            watch: None,
            step_code_write: None,
            code_stored: false,
            verify_decodes: false,
            stale_decode_hits: 0,
        }
    }

    /// Load an image: code + data into memory, `eip` at the entry point,
    /// `esp` at the stack top, and the code range as the exec region.
    pub fn load_image(&mut self, img: &Image) {
        img.load(&mut self.mem);
        self.cpu.eip = img.entry;
        self.cpu.set_reg(Reg::Esp, Image::STACK_TOP - 16);
        let (s, e) = img.code_range();
        self.set_exec_region(ExecRegion::new(s, e));
    }

    /// Make `region` the region the CPU may execute from. Control leaving
    /// it stops [`Machine::run`] with [`CpuExit::OutOfRegion`]; a new
    /// machine's region is empty.
    pub fn set_exec_region(&mut self, region: ExecRegion) {
        self.region = region;
    }

    /// The current execution region.
    pub fn exec_region(&self) -> ExecRegion {
        self.region
    }

    /// Install (or with `None` remove) the guarded data region: any memory
    /// access touching it raises a precise [`FaultKind::MemFault`] before
    /// the instruction commits any architectural state. Without one no
    /// access faults — the sparse memory zero-fills unmapped pages.
    pub fn set_guard_region(&mut self, guard: Option<ExecRegion>) {
        self.guard = guard;
    }

    /// Install (or with `None` remove) the watched code region: a guest
    /// store whose bytes touch it stops execution with
    /// [`CpuExit::CodeWrite`] *after* the store (and the whole instruction)
    /// has committed, so resuming at `eip` makes forward progress even when
    /// an instruction overwrites itself. Writes made through
    /// [`Machine::mem`] directly (fragment emission, link patching) are
    /// exempt — only interpreted guest stores are monitored.
    pub fn set_watch_region(&mut self, watch: Option<ExecRegion>) {
        self.watch = watch;
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

    /// The modelled processor family (paper: `proc_get_family`).
    pub fn cpu_kind(&self) -> CpuKind {
        self.cost.kind()
    }

    /// Account, through the BTB, an indirect jump at `pc` to `target` that the
    /// interpreter did not run (the engine's shared lookup routine ends in one).
    pub fn predict_indirect_jump(&mut self, pc: u32, target: u32) {
        self.counters.cycles += self.indirect_branch(pc, target, false);
    }

    /// Account an indirect transfer through the predictors; its penalty.
    fn indirect_branch(&mut self, pc: u32, target: u32, is_ret: bool) -> u64 {
        self.cost
            .indirect_branch(pc, target, is_ret, &mut self.counters)
    }

    /// Charge runtime-overhead cycles (dispatch, hashtable lookup,
    /// optimization time) to the cycle counter.
    pub fn charge(&mut self, cycles: u64) {
        self.counters.cycles += cycles;
        self.counters.charged_overhead += cycles;
    }

    /// Invalidate the *entire* decode cache and free its arena for reuse.
    /// Needed only when code changed at unknown addresses; prefer
    /// [`Machine::invalidate_code_range`], which the engine uses on every
    /// fragment emission and link patch.
    pub fn invalidate_code(&mut self) {
        self.dcache.invalidate_all();
        self.dcache.arena.clear();
    }

    /// Invalidate cached blocks overlapping the `len` bytes at `addr`
    /// (wrapping past the top of the address space, like the write). Must
    /// be called after any write to memory that may hold code; cost is
    /// bounded by `len + 127` cache probes, and is a bitmap test alone when
    /// the written pages hold no cached block, so hot emit/patch paths
    /// never wipe unrelated blocks.
    pub fn invalidate_code_range(&mut self, addr: u32, len: u32) {
        self.dcache.invalidate_range(addr, len);
    }

    /// Host-side decode-cache hit, miss and invalidation counts since the
    /// machine was created, in blocks. Purely a profiling aid: the
    /// simulated machine and its [`Counters`] are identical whether or not
    /// anyone looks.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.dcache.stats
    }

    /// Run until an exit condition with a default fuel of 2^44 steps.
    pub fn run(&mut self) -> CpuExit {
        self.run_steps(1 << 44)
    }

    /// Run at most `max_steps` instructions, a cached block at a time.
    /// Inlined so that a caller stepping one instruction at a time reaches
    /// `run_blocks` in one call.
    #[inline]
    pub fn run_steps(&mut self, max_steps: u64) -> CpuExit {
        // The decode arena is lent out for the whole call (see
        // `run_blocks`); nothing a step does can change the exec region.
        let mut arena = std::mem::take(&mut self.dcache.arena);
        let exit = self.run_blocks(&mut arena, self.region, max_steps);
        self.dcache.arena = arena;
        exit
    }

    /// Run cached blocks with the decode arena lent out of the cache, until
    /// `fuel` instructions have run or one stops execution. Control must
    /// stay inside `region`.
    ///
    /// The region, the armed injection and the fuel are tested once per
    /// block, and the block is cut where the region ends, where the
    /// injection fires and where the fuel runs out, so every budget stays
    /// instruction-precise. `exec` can invalidate slots (every store goes
    /// through `note_store`) but never touches the arena, so a block
    /// executes in place. A store that drops a cached block ends the block
    /// after the current instruction, so a store into the executing block
    /// runs the new bytes next; both that and a watched store set one flag.
    fn run_blocks(
        &mut self,
        arena: &mut Vec<Decoded>,
        region: ExecRegion,
        mut fuel: u64,
    ) -> CpuExit {
        // The rest of the current block: arena entries `next..end`, the
        // first of them at `pc`, all valid while no store has dropped a
        // cached block since the block began.
        let (mut next, mut end, mut pc) = (0, 0, 0);
        loop {
            if next == end {
                if fuel == 0 {
                    return CpuExit::FuelExhausted;
                }
                pc = self.cpu.eip;
                if !region.contains(pc) {
                    return CpuExit::OutOfRegion(pc);
                }
                // The bytes from `pc` to the end of the region.
                let room = region.end - pc;
                let mut want = fuel;
                if let Some((at, kind)) = self.inject {
                    let done = self.counters.instructions;
                    if done >= at {
                        self.inject = None; // one-shot: resuming runs past it
                        return CpuExit::Fault { kind, pc, addr: pc };
                    }
                    want = want.min(at - done);
                }
                let b = match self.dcache.get(pc) {
                    Some(b) if !self.verify_decodes && b.serves(want, room) => {
                        self.dcache.stats.hits += 1;
                        b
                    }
                    found => match self.refill(arena, pc, found, want, room) {
                        Some(b) => b,
                        None => {
                            return CpuExit::Fault {
                                kind: FaultKind::InvalidOpcode,
                                pc,
                                addr: pc,
                            }
                        }
                    },
                };
                next = b.start();
                end = next + want.min(u64::from(b.len())) as usize;
                if b.span() > room {
                    end = next + Self::instrs_before(&arena[next..end], room);
                }
            }
            let l = &arena[next].lowered;
            if let Some(exit) = self.exec(pc, l) {
                return exit;
            }
            next += 1;
            fuel -= 1;
            if self.code_stored {
                (self.code_stored, end) = (false, next);
                // A watched store stops execution once its instruction has
                // committed, with `eip` past the writer: no livelock.
                if let Some((addr, len)) = self.step_code_write.take() {
                    return CpuExit::CodeWrite { pc, addr, len };
                }
            }
            pc = pc.wrapping_add(u32::from(l.len));
        }
    }

    /// The block at `pc` when the fast lookup did not serve it: `found` is
    /// missing, too short for `want` instructions, or unverified. Verifies
    /// a found block when verification is on, counts the hit or miss, and
    /// decodes what is missing. `None` if `pc` holds no decodable
    /// instruction.
    #[cold]
    #[inline(never)]
    fn refill(
        &mut self,
        arena: &mut Vec<Decoded>,
        pc: u32,
        mut found: Option<Block>,
        want: u64,
        room: u32,
    ) -> Option<Block> {
        if let Some(b) = found {
            if self.verify_decodes && !self.block_matches(arena, pc, b) {
                self.stale_decode_hits += 1;
                found = None;
            } else if b.serves(want, room) {
                self.dcache.stats.hits += 1;
                return found;
            }
        }
        self.dcache.stats.misses += 1;
        let want = want.min(u64::from(MAX_BLOCK_INSTRS)) as u32;
        self.dcache
            .fill(&self.mem, &self.cost, arena, pc, found, want, room)
    }

    /// How many of `instrs` start fewer than `room` bytes into the block.
    #[cold]
    fn instrs_before(instrs: &[Decoded], room: u32) -> usize {
        let mut offset = 0;
        instrs
            .iter()
            .take_while(|d| {
                let inside = offset < room;
                offset += u32::from(d.lowered.len);
                inside
            })
            .count()
    }

    /// Verification mode: whether every instruction of block `b` at `pc`
    /// still matches the live memory bytes.
    fn block_matches(&self, arena: &[Decoded], pc: u32, b: Block) -> bool {
        let mut at = pc;
        arena[b.instrs()].iter().all(|d| {
            let len = usize::from(d.lowered.len);
            let mut buf = [0u8; 16];
            self.mem.read_bytes(at, &mut buf[..len]);
            at = at.wrapping_add(len as u32);
            buf[..len] == d.bytes[..len]
        })
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

    /// Check every memory address the instruction will touch against the
    /// guard region — *before* execution, so a [`FaultKind::MemFault`] is
    /// precise (no architectural state has changed). The decoder lists the
    /// stack slot of every push, pop, call and return as a memory operand,
    /// so the operands cover those too.
    fn check_guard(&self, guard: ExecRegion, pc: u32, l: &Lowered) -> Option<CpuExit> {
        // `lea` only computes its address.
        if l.op == Opcode::Lea {
            return None;
        }
        let bad = l.srcs.iter().chain(l.dsts.iter()).find_map(|op| match op {
            // The first guarded byte of the access, if any.
            LOpnd::Mem(m) => {
                let addr = self.addr_of(m);
                (0..m.size.bytes())
                    .map(|i| addr.wrapping_add(i))
                    .find(|&a| guard.contains(a))
            }
            _ => None,
        })?;
        Some(CpuExit::Fault {
            kind: FaultKind::MemFault,
            pc,
            addr: bad,
        })
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
        self.counters.loads += 1;
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
            LOpnd::Imm(v) => *v as u32,
            LOpnd::Pc(pc) => *pc,
            LOpnd::Mem(m) => self.load(m),
            LOpnd::None => 0,
        }
    }

    /// Bookkeeping for every interpreted guest store: keep the decode
    /// cache coherent with the written bytes (so self-modifying code is
    /// correct in every mode, with no manual invalidation), and record
    /// stores that land in a watched code region; either sets `code_stored`.
    fn note_store(&mut self, addr: u32, bytes: u32) {
        self.counters.stores += 1;
        if self.dcache.invalidate_range(addr, bytes) {
            self.code_stored = true;
        }
        if self.watch.is_some_and(|w| touches(&w, addr, bytes)) {
            self.code_stored = true;
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
        self.counters.loads += 1;
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
    /// adds the cycles bound at decode, and only then does `run_blocks` stop
    /// execution for a store into a watched region.
    fn exec(&mut self, pc: u32, l: &Lowered) -> Option<CpuExit> {
        if let Some(guard) = self.guard {
            if let Some(exit) = self.check_guard(guard, pc, l) {
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
                branch_penalty = self.indirect_branch(pc, target, false);
            }
            Shape::Ret => {
                let target = self.pop32();
                new_eip = target;
                branch_penalty = self.indirect_branch(pc, target, true);
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
        None
    }

    /// The generic operand-list interpreter, for every instruction shape
    /// without its own executor. Returns the next `eip` and the cycles of its
    /// branch penalty, loads and stores, or the exit that ends the step
    /// early: a fault (nothing committed), or a trap or `hlt` (accounted).
    #[allow(clippy::too_many_lines)]
    fn exec_generic(&mut self, pc: u32, next_pc: u32, l: &Lowered) -> Result<(u32, u64), CpuExit> {
        let (loads, stores) = (self.counters.loads, self.counters.stores);
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
            // The first operand is the register or memory one, at the
            // operation's width; a second immediate is sign-extended to it.
            Opcode::Cmp => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                let (_, f) = alu_sub(a, b, 0, l.srcs[0].size());
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Test => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                let (_, f) = alu_logic(a & b, l.srcs[0].size());
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
            // `%edx:%eax = %eax * r/m32`, `%ax = %al * r/m8`, or the two- and
            // three-operand `imul r32, r/m32, r32|imm`.
            Opcode::Mul | Opcode::Imul => {
                let bits = 8 * l.srcs[0].size().bytes();
                let ext = |v: u32| extend(v.into(), bits, l.op == Opcode::Imul);
                // The low 64 bits of the product, which hold all of it.
                let wide = ext(self.read(&l.srcs[0])).wrapping_mul(ext(self.read(&l.srcs[1])));
                if l.dsts[1] != LOpnd::None {
                    self.cpu.set_gpr(EAX, wide as u32);
                    self.cpu.set_gpr(EDX, (wide >> 32) as u32);
                } else {
                    self.write(&l.dsts[0], wide as u32);
                }
                self.set_mul_flags(wide != ext(wide as u32));
            }
            // `%eax`, `%edx` = `%edx:%eax` / r/m32, or `%al`, `%ah` =
            // `%ax` / r/m8; #DE on a zero divisor or a quotient too wide.
            Opcode::Div | Opcode::Idiv => {
                let (bits, signed) = (8 * l.srcs[0].size().bytes(), l.op == Opcode::Idiv);
                let divisor = extend(self.read(&l.srcs[0]).into(), bits, signed);
                // Twice the divisor's width: `%ax` or `%edx:%eax`.
                let edx_eax = u64::from(self.cpu.gpr(EDX)) << 32 | u64::from(self.cpu.gpr(EAX));
                let dividend = extend(edx_eax, 2 * bits, signed);
                let qr = if signed {
                    dividend
                        .checked_div(divisor)
                        .zip(dividend.checked_rem(divisor))
                } else {
                    let (n, d) = (dividend as u64, divisor as u64);
                    n.checked_div(d).map(|q| (q as i64, (n % d) as i64))
                };
                let fits = |&(q, _): &(i64, i64)| q == extend(q as u64, bits, signed);
                let Some((q, r)) = qr.filter(fits) else {
                    self.counters.loads = loads; // the faulting step counts no load
                    return fault(FaultKind::DivideError);
                };
                if bits == 8 {
                    self.write(&l.dsts[0], (r as u32 & 0xFF) << 8 | (q as u32 & 0xFF));
                } else {
                    self.cpu.set_gpr(EAX, q as u32);
                    self.cpu.set_gpr(EDX, r as u32);
                }
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
                    // Rotate within the operand width.
                    let bits = dst.size().bytes() * 8;
                    let mask = u32::MAX >> (32 - bits);
                    let a = self.read(&dst) & mask;
                    let c = count % bits;
                    let res = match (c, l.op) {
                        (0, _) => a,
                        (_, Opcode::Rol) => ((a << c) | (a >> (bits - c))) & mask,
                        _ => ((a >> c) | (a << (bits - c))) & mask,
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
                branch_penalty = self.indirect_branch(pc, target, false);
            }
            Opcode::JmpInd => {
                let target = self.read(&l.srcs[0]);
                new_eip = target;
                branch_penalty = self.indirect_branch(pc, target, false);
            }
            Opcode::Ret => {
                let target = self.pop32();
                if let LOpnd::Imm(extra) = l.srcs[0] {
                    let esp = self.cpu.gpr(ESP).wrapping_add(extra as u32);
                    self.cpu.set_gpr(ESP, esp);
                }
                new_eip = target;
                branch_penalty = self.indirect_branch(pc, target, true);
            }
            Opcode::Label => {
                // A label pseudo-instruction reached the interpreter:
                // report it as the guest-visible invalid-opcode fault.
                return fault(FaultKind::InvalidOpcode);
            }
        }
        let (loads, stores) = (self.counters.loads - loads, self.counters.stores - stores);
        Ok((
            new_eip,
            branch_penalty + self.cost.access_cost(loads, stores),
        ))
    }

    fn set_mul_flags(&mut self, overflow: bool) {
        let v = if overflow {
            Eflags::CF.0 | Eflags::OF.0
        } else {
            0
        };
        self.cpu.set_flags(Eflags::ALL6, v);
    }

    /// Account a completed step: its bound cycles plus `extra`.
    fn finish_step(&mut self, l: &Lowered, extra: u64) {
        self.counters.instructions += 1;
        self.counters.cycles += u64::from(l.cycles) + extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, decode_instr, DecodeError, Instr, InstrList, MemRef, Opnd, Target};

    /// The reference lowering: a full Level 3 [`Instr`], then each [`Opnd`]
    /// bound to its register-file indices one at a time. The decode cache
    /// lowered this way before it decoded straight into [`Lowered`], which
    /// must give the same result.
    fn lower(instr: &Instr, len: u32, cost: &CostModel) -> Lowered {
        let reg = |r: Reg| {
            let view = match r.size() {
                OpSize::S32 => View::R32,
                OpSize::S16 => View::R16,
                OpSize::S8 if r.number() >= 4 => View::High8,
                OpSize::S8 => View::Low8,
            };
            RegOp {
                idx: r.parent32().number(),
                view,
            }
        };
        let bind = |op: &Opnd| match op {
            Opnd::Reg(r) => LOpnd::Reg(reg(*r)),
            Opnd::Imm(v, _) => LOpnd::Imm(*v),
            Opnd::Mem(m) => {
                let idx = |r: Option<Reg>| r.map_or(NO_REG, |r| r.parent32().number());
                LOpnd::Mem(MemOp {
                    base: idx(m.base),
                    index: idx(m.index),
                    scale: m.scale,
                    size: m.size,
                    disp: m.disp,
                })
            }
            Opnd::Pc(pc) => LOpnd::Pc(*pc),
            Opnd::Instr(_) => LOpnd::None,
        };
        let mut srcs = [LOpnd::None; MAX_SRCS];
        let mut dsts = [LOpnd::None; MAX_DSTS];
        for (slot, s) in srcs.iter_mut().zip(instr.srcs()) {
            *slot = bind(s);
        }
        for (slot, d) in dsts.iter_mut().zip(instr.dsts()) {
            *slot = bind(d);
        }
        let d = Operands {
            op: instr.opcode().expect("lower requires decoded instr"),
            len,
            srcs,
            nsrcs: instr.srcs().len() as u8,
            dsts,
            ndsts: instr.dsts().len() as u8,
        };
        Lowered::new(d, cost)
    }

    /// The decode cache's lowering of the instruction at the start of
    /// `bytes`, located at `pc`, with its cost under `cost`.
    fn lowered(bytes: &[u8], pc: u32, cost: &CostModel) -> Result<Lowered, DecodeError> {
        decode_operands(bytes, pc).map(|d| Lowered::new(d, cost))
    }

    #[test]
    fn decoded_instructions_stay_small() {
        // `ARENA_FIRST_INSTRS` is sized for this entry: five eight-byte
        // operands, the executor and the raw bytes, padded to 16 bytes.
        assert_eq!(std::mem::size_of::<LOpnd>(), 8);
        assert_eq!(std::mem::size_of::<Decoded>(), 80);
    }

    #[test]
    fn lowering_without_an_instr_matches_the_reference_everywhere() {
        // Every one-byte and `0f`-prefixed opcode under every ModRM byte,
        // followed by SIB bytes with and without an index and with base 5,
        // and displacement and immediate bytes that are zero, negative and
        // mixed; each also cut short. A pc near the top of the address space
        // makes relative targets wrap.
        const PC: u32 = 0xFFFF_FFF0;
        let cost = CostModel::new(CpuKind::Pentium4);
        let tails: [[u8; 6]; 3] = [
            [0; 6],
            [0x80, 0xFF, 0xFF, 0xFF, 0xFE, 0xFF],
            [0x7F, 0x12, 0x34, 0x56, 0x78, 0x9A],
        ];
        let mut checked = 0;
        for escape in [false, true] {
            for op in 0..=0xFFu8 {
                for modrm in 0..=0xFFu8 {
                    for sib in [0x00, 0x24, 0x65, 0xDD] {
                        for tail in &tails {
                            let mut bytes = Vec::with_capacity(16);
                            if escape {
                                bytes.push(0x0F);
                            }
                            bytes.extend([op, modrm, sib]);
                            bytes.extend(tail);
                            bytes.resize(16, 0xCC);
                            for cut in [16, 7, 4, 2, 1] {
                                let bytes = &bytes[..cut];
                                let want =
                                    decode_instr(bytes, PC).map(|(i, n)| lower(&i, n, &cost));
                                assert_eq!(lowered(bytes, PC, &cost), want, "{bytes:02x?}");
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 256 * 256 * 4 * 3 * 5);
    }

    /// A machine with nothing loaded that may execute anywhere below the
    /// top byte of the address space.
    fn bare() -> Machine {
        let mut m = Machine::new(CpuKind::Pentium4);
        m.set_exec_region(ExecRegion::new(0, u32::MAX));
        m
    }

    /// A machine with `il` assembled and loaded at [`Image::CODE_BASE`].
    fn loaded(il: &InstrList) -> Machine {
        let code = encode_list(il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m
    }

    fn run_program(il: &InstrList) -> (Machine, CpuExit) {
        let mut m = loaded(il);
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
        let (_, exit) = run_program(&il);
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
        let (mut m, exit) = run_program(&il);
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

        // A faulting step counts nothing, not even a divisor it loaded.
        let mut il = InstrList::new();
        let zero = MemRef::absolute(Image::DATA_BASE, OpSize::S32);
        il.push_back(create::div(Opnd::Mem(zero)));
        let (m, exit) = run_program(&il);
        assert!(
            matches!(
                exit,
                CpuExit::Fault {
                    kind: FaultKind::DivideError,
                    ..
                }
            ),
            "{exit:?}"
        );
        assert_eq!(m.counters, Counters::default());
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
        let mut m = loaded(&il);
        m.set_guard_region(Some(ExecRegion::new(0x2000_0000, 0x2000_1000)));
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
        m.set_guard_region(None);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.mem.read_u32(0x2000_0000), 7);
    }

    #[test]
    fn injected_fault_fires_once_at_the_trigger_count() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2)));
        il.push_back(create::hlt());
        let mut m = loaded(&il);
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

    /// Runs `op %bl` with `eax`, `edx` and `ebx` preset.
    fn byte_op(op: fn(Opnd) -> Instr, eax: i32, edx: i32, ebx: i32) -> (Machine, CpuExit) {
        let mut il = InstrList::new();
        for (r, v) in [(Reg::Eax, eax), (Reg::Edx, edx), (Reg::Ebx, ebx)] {
            il.push_back(create::mov(Opnd::reg(r), Opnd::imm32(v)));
        }
        il.push_back(op(Opnd::reg(Reg::Bl)));
        il.push_back(create::hlt());
        run_program(&il)
    }

    #[test]
    fn byte_multiply_and_divide_use_ax_not_edx() {
        // mul %bl: %ax = %al * %bl; %edx is untouched.
        let (m, exit) = byte_op(create::mul, 0x1210, 0x1234, 3);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!((m.cpu.reg(Reg::Eax), m.cpu.reg(Reg::Edx)), (0x30, 0x1234));
        // div %bl: %al = %ax / %bl, %ah = %ax % %bl.
        let (m, exit) = byte_op(create::div, 0x107, 0x1234, 2);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!((m.cpu.reg(Reg::Eax), m.cpu.reg(Reg::Edx)), (0x183, 0x1234));
        // idiv %bl: -7 / 2 = -3 remainder -1.
        let (m, _) = byte_op(create::idiv, 0xFFF9, 0, 2);
        assert_eq!(m.cpu.reg(Reg::Eax), 0xFFFD);
        // A quotient wider than 8 bits is a divide error.
        let (_, exit) = byte_op(create::div, 0x200, 0, 2);
        assert!(matches!(
            exit,
            CpuExit::Fault {
                kind: FaultKind::DivideError,
                ..
            }
        ));
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
        let mut m = loaded(&il);
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
        let mut m = loaded(&il);
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
        m.set_watch_region(Some(ExecRegion::new(
            Image::CODE_BASE,
            Image::CODE_BASE + 0x100,
        )));
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
        let mut m = loaded(&il);
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

    fn stats(hits: u64, misses: u64, invalidated: u64, decoded: u64) -> DecodeCacheStats {
        DecodeCacheStats {
            hits,
            misses,
            invalidated,
            decoded,
        }
    }

    #[test]
    fn decode_cache_hits_on_reexecution() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(2)));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        // The three instructions are one block, ended by the `hlt`.
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 0, 3));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(1, 1, 0, 3));
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
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 0, 2));
        m.mem.write_u32(Image::CODE_BASE + 1, 2);
        m.invalidate_code_range(Image::CODE_BASE + 1, 4);
        // The 4-byte write lands inside the one `mov; hlt` block.
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 1, 2));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 2);
        assert_eq!(m.decode_cache_stats(), stats(0, 2, 1, 4));
        // The refill was appended; the dropped block stays in the arena
        // until it fills.
        assert_eq!(m.dcache.arena.len(), 4);
    }

    #[test]
    fn a_dropped_machines_tables_come_back_cleared() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        assert_eq!(m.run(), CpuExit::Halt);
        // A block 16 KiB into the cache region: another chunk of slots.
        let pc = Image::CACHE_BASE + 0x4000;
        m.mem.write_bytes(pc, &[0xF4]);
        m.cpu.eip = pc;
        m.set_exec_region(ExecRegion::new(Image::CACHE_BASE, Image::CACHE_END));
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.dcache.tables.used_chunks.count_ones(), 2);
        drop(m);
        // This thread's next machine takes the set just given back.
        let m = Machine::new(CpuKind::Pentium4);
        let t = &m.dcache.tables;
        assert_eq!(t.used_chunks, 0);
        assert!(t
            .slots
            .iter()
            .chain(&t.code_pages)
            .chain(&t.used_words)
            .all(|&w| w == 0));
        assert!(m.dcache.arena.is_empty());
        assert_eq!(m.dcache.arena.capacity(), ARENA_FIRST_INSTRS);
        assert_eq!(m.decode_cache_stats(), DecodeCacheStats::default());
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
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 0, 1));
        assert!(m.dcache.touches_code_page(straddle + 1, 1));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Syscall(0x21));
        // The store ends its block, so the `jmp` is decoded twice.
        assert_eq!(m.decode_cache_stats(), stats(0, 4, 1, 5));
        assert_eq!(m.stale_decode_hits(), 0);

        // Symmetrically, a store to the first page reaches a straddling
        // decode when nothing else runs there.
        let mut m = bare();
        m.mem.write_bytes(0x1FFF, &[0xCD, 0x20]); // int 0x20
        m.cpu.eip = 0x1FFF;
        assert_eq!(m.run_steps(1), CpuExit::Syscall(0x20));
        m.note_store(0x1FFF, 1);
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 1, 1));
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
        // One block of three instructions was dropped, and the arena freed.
        assert_eq!(m.decode_cache_stats(), stats(0, 1, 1, 3));
        assert!(!m.dcache.touches_code_page(Image::CODE_BASE, 1));
        assert!(m.dcache.arena.is_empty());
        // Nothing is served stale, and the block refills from the start of
        // the arena.
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 6);
        assert_eq!(m.decode_cache_stats(), stats(0, 2, 1, 6));
        assert_eq!(m.dcache.arena.len(), 3);
        assert!(m.dcache.touches_code_page(Image::CODE_BASE, 1));
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(1, 2, 1, 6));
    }

    #[test]
    fn aliasing_pcs_share_one_slot_and_a_full_arena_resets() {
        // On a thread of its own, so the arena is new, not a dropped one.
        std::thread::scope(|s| s.spawn(a_full_arena_resets).join().unwrap());
    }

    fn a_full_arena_resets() {
        // Two pcs that map to the same direct-mapped slot evict each other:
        // each refill appends a block, and the evicted one is garbage.
        let a = Image::CODE_BASE;
        let b = (1..u32::MAX)
            .map(|k| a.wrapping_add(k))
            .find(|&pc| DecodeCache::index(pc) == DecodeCache::index(a))
            .unwrap();
        let mut m = bare();
        m.mem.write_u8(a, 0xF4); // hlt
        m.mem.write_u8(b, 0xF4);
        for pc in [a, b, a, b] {
            m.cpu.eip = pc;
            assert_eq!(m.run_steps(1), CpuExit::Halt);
        }
        assert_eq!(m.decode_cache_stats(), stats(0, 4, 0, 4));
        assert_eq!(m.dcache.arena.len(), 4);
        assert_eq!(m.dcache.arena.capacity(), ARENA_FIRST_INSTRS);
        // The arena grows up to its bound: once it cannot take a whole
        // block within it, the next miss drops the one live block and
        // starts over.
        let fills = ARENA_INSTRS - MAX_BLOCK_INSTRS as usize + 1;
        for k in 4..fills {
            m.cpu.eip = [a, b][k % 2];
            assert_eq!(m.run_steps(1), CpuExit::Halt);
        }
        let fills = fills as u64;
        assert_eq!(m.decode_cache_stats(), stats(0, fills, 0, fills));
        m.cpu.eip = b;
        assert_eq!(m.run_steps(1), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(0, fills + 1, 1, fills + 1));
        assert_eq!(m.dcache.arena.len(), 1);
        assert_eq!(m.dcache.arena.capacity(), ARENA_INSTRS);
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
        // and its trace copy, each ending in a `jmp` to the other. Each run
        // is 128 blocks: 127 of 32 `inc`s and one of 27 `inc`s and the
        // `jmp`. Executed alternately under one exec region spanning both,
        // both stay cached: after the first round every block hits.
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
        m.set_exec_region(ExecRegion::new(block, trace + 4096));
        m.cpu.eip = block;
        let (round, blocks) = (2 * 4092, 2 * 128);
        assert_eq!(m.run_steps(round), CpuExit::FuelExhausted);
        assert_eq!(m.decode_cache_stats(), stats(0, blocks, 0, round));
        for rounds in 2..=3 {
            assert_eq!(m.run_steps(round), CpuExit::FuelExhausted);
            assert_eq!(
                m.decode_cache_stats(),
                stats((rounds - 1) * blocks, blocks, 0, round)
            );
        }
        assert_eq!(m.cpu.eip, block);
        assert_eq!(m.cpu.reg(Reg::Eax), 3 * 2 * 4091);

        // One store into the trace copy drops only the block holding that
        // byte: the block copy still hits, and the trace refills its first
        // block.
        m.mem.write_u8(trace, 0x43); // inc ebx
        m.invalidate_code_range(trace, 1);
        assert_eq!(m.decode_cache_stats(), stats(2 * blocks, blocks, 1, round));
        assert_eq!(m.run_steps(round), CpuExit::FuelExhausted);
        assert_eq!(
            m.decode_cache_stats(),
            stats(3 * blocks - 1, blocks + 1, 1, round + 32)
        );
        assert_eq!(m.cpu.reg(Reg::Ebx), 1);
    }

    /// `mov [addr], eax` then `hlt`, at [`Image::CODE_BASE`].
    fn store_eax_then_halt(addr: u32) -> Vec<u8> {
        let mut il = InstrList::new();
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(addr, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::hlt());
        encode_list(&il, Image::CODE_BASE).unwrap().bytes
    }

    #[test]
    fn store_wrapping_past_the_top_invalidates_both_ends() {
        // A 4-byte guest store at 0xFFFF_FFFE writes 0xFFFF_FFFE..=0xFFFF_FFFF
        // and 0..=1; decodes at 0xFFFF_FFFE, 0 and 1 all read those bytes.
        let mut m = bare();
        let pcs = [0xFFFF_FFFE, 0, 1];
        for pc in pcs {
            m.mem.write_u8(pc, 0x90); // nop
            m.cpu.eip = pc;
            assert_eq!(m.run_steps(1), CpuExit::FuelExhausted);
            assert!(m.dcache.get(pc).is_some());
        }
        m.mem
            .write_bytes(Image::CODE_BASE, &store_eax_then_halt(0xFFFF_FFFE));
        m.cpu.eip = Image::CODE_BASE;
        m.cpu.set_reg(Reg::Eax, 0x9090_9090);
        assert_eq!(m.run(), CpuExit::Halt);
        // The store cut its block, so the `hlt` is decoded again.
        assert_eq!(m.decode_cache_stats(), stats(0, 5, 3, 6));
        assert!(pcs.iter().all(|&pc| m.dcache.get(pc).is_none()));
        // The public range entry point wraps the same way.
        m.cpu.eip = 1;
        assert_eq!(m.run_steps(1), CpuExit::FuelExhausted);
        m.invalidate_code_range(0xFFFF_FFFE, 4);
        assert_eq!(m.dcache.get(1), None);
    }

    #[test]
    fn store_ending_on_a_cached_page_invalidates_its_block() {
        // A 4-byte store at page offset 0xFFE writes two bytes on each of
        // two pages; only the second holds a cached block, `mov al, 1; hlt`
        // at its start, whose first two bytes the store rewrites to
        // `mov al, 7`.
        let data = 0x2000_0000;
        let block = data + 0x1000;
        let mut m = bare();
        m.mem.write_bytes(block, &[0xB0, 0x01, 0xF4]);
        m.cpu.eip = block;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 1);
        assert!(!m.dcache.touches_code_page(data, 1));
        m.mem
            .write_bytes(Image::CODE_BASE, &store_eax_then_halt(data + 0xFFE));
        m.cpu.eip = Image::CODE_BASE;
        m.cpu.set_reg(Reg::Eax, 0x07B0_0000);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats().invalidated, 1);
        m.cpu.eip = block;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x07B0_0007);
    }

    #[test]
    fn a_watched_store_into_the_running_block_exits_then_runs_the_new_bytes() {
        // `mov [imm32 of the next mov], eax` rewrites the `mov ebx, 1` after
        // it, in the same block and inside the watched region: one store
        // both drops the running block and ends the step with `CodeWrite`.
        let mut il = InstrList::new();
        let store = il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0, OpSize::S32)), // fixed up below
            Opnd::reg(Reg::Eax),
        ));
        let target = il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let (store_pc, target_pc) = [store, target]
            .map(|id| Image::CODE_BASE + enc.offset_of(id).unwrap())
            .into();
        il.get_mut(store)
            .set_dst(0, Opnd::Mem(MemRef::absolute(target_pc + 1, OpSize::S32)));
        let mut m = load(encode_list(&il, Image::CODE_BASE).unwrap().bytes);
        m.set_watch_region(Some(ExecRegion::new(target_pc, target_pc + 5)));
        m.cpu.set_reg(Reg::Eax, 2);
        let exit = m.run_steps(100);
        assert_eq!(
            exit,
            CpuExit::CodeWrite {
                pc: store_pc,
                addr: target_pc + 1,
                len: 4,
            }
        );
        assert_eq!(m.cpu.eip, target_pc);
        assert_eq!(m.decode_cache_stats().invalidated, 1);
        assert_eq!(m.run_steps(100), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 2);
        assert_eq!(m.counters.instructions, 3);
    }

    #[test]
    fn a_pentium3_machine_after_a_dropped_pentium4_one_charges_pentium3_cycles() {
        // On a thread of its own, so the second machine takes exactly the
        // first one's dropped decode arena and tables.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut il = InstrList::new();
                let data = Opnd::Mem(MemRef::absolute(Image::DATA_BASE, OpSize::S32));
                il.push_back(create::mov(Opnd::reg(Reg::Eax), data)); // one load
                il.push_back(create::inc(Opnd::reg(Reg::Eax))); // generic
                il.push_back(create::inc(data)); // a load and a store
                il.push_back(create::push(Opnd::reg(Reg::Eax))); // one store
                il.push_back(create::pop(Opnd::reg(Reg::Ebx))); // one load
                il.push_back(create::imul(Reg::Eax, Opnd::reg(Reg::Ebx))); // generic
                il.push_back(create::hlt());
                let cycles = |kind| {
                    let mut m = Machine::new(kind);
                    m.load_image(&Image::from_code(
                        encode_list(&il, Image::CODE_BASE).unwrap().bytes,
                    ));
                    assert_eq!(m.run(), CpuExit::Halt);
                    m.counters.cycles
                };
                // Pentium 4: 1+3, 4, 4+3+2, 1+2, 1+3, 10, 1.
                assert_eq!(cycles(CpuKind::Pentium4), 35);
                // Pentium 3: 1+2, 1, 1+2+2, 1+2, 1+2, 5, 1.
                assert_eq!(cycles(CpuKind::Pentium3), 21);
            })
            .join()
            .unwrap();
        });
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
        m.set_watch_region(Some(low));
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
        exit: CpuExit,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                exit: CpuExit::FuelExhausted,
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
                    assert_eq!(m.run_steps(1), CpuExit::FuelExhausted);
                    m.cpu.eip = CODE;
                    m.counters = Counters::default();
                    m.cpu.set_reg(Reg::Eax, 0xCCCC_CCCC);
                },
                exit: CpuExit::FuelExhausted,
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
                    m.set_watch_region(Some(ExecRegion::new(CODE + 0x100, CODE + 0x200)));
                },
                exit: CpuExit::CodeWrite {
                    pc: CODE,
                    addr: CODE + 0x100,
                    len: 4,
                },
                eip: None,
                regs: &[],
                eflags: 0,
                mem: &[(CODE + 0x100, &[0x04, 0x03, 0x02, 0x01])],
                counters: step_counters(3, 0, 1),
                check: nothing,
            },
            ShapeCase {
                name: "guarded store faults before writing",
                instr: create::mov(abs(0x2000_0FFE), r(Reg::Eax)),
                shape: "MovMR",
                setup: |m| {
                    m.cpu.set_reg(Reg::Eax, 0xFFFF_FFFF);
                    m.set_guard_region(Some(ExecRegion::new(0x2000_1000, 0x2000_2000)));
                },
                exit: CpuExit::Fault {
                    kind: FaultKind::MemFault,
                    pc: CODE,
                    addr: 0x2000_1000,
                },
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
            let l = lowered(&code, CODE, &CostModel::new(CpuKind::Pentium4)).unwrap();
            let (shape, len) = (format!("{:?}", l.shape), u32::from(l.len));
            assert!(shape.starts_with(case.shape), "{}: {shape}", case.name);

            let mut m = bare();
            m.mem.write_bytes(CODE, &code);
            m.cpu.eip = CODE;
            (case.setup)(&mut m);
            assert_eq!(m.run_steps(1), case.exit, "{}", case.name);
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
    fn guarded_stack_slots_fault_before_any_state_change() {
        const STACK: u32 = 0x6000_1000;
        const DATA: u32 = 0x2000_0000;
        let m32 = || Opnd::Mem(MemRef::absolute(DATA, OpSize::S32));
        // Each form with its stack slot: below esp for a push, at esp for a
        // pop.
        let (pushed, popped) = (STACK - 4, STACK);
        let cases = [
            (create::push(Opnd::reg(Reg::Eax)), pushed),
            (create::push(Opnd::imm32(7)), pushed),
            (create::push(m32()), pushed),
            (create::pop(Opnd::reg(Reg::Eax)), popped),
            (create::pop(m32()), popped),
            (create::pushfd(), pushed),
            (create::popfd(), popped),
            (create::call(Target::Pc(Image::CODE_BASE + 0x100)), pushed),
            (create::call_ind(Opnd::reg(Reg::Eax)), pushed),
            (create::ret(), popped),
            (create::ret_imm(8), popped),
        ];
        for (instr, slot) in cases {
            let name = instr.to_string();
            let mut il = InstrList::new();
            il.push_back(instr);
            let mut m = bare();
            let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
            m.mem.write_bytes(Image::CODE_BASE, &code);
            m.cpu.eip = Image::CODE_BASE;
            m.cpu.set_reg(Reg::Esp, STACK);
            m.mem.write_u32(slot, 0xA5A5_A5A5);
            m.set_guard_region(Some(ExecRegion::new(slot, slot + 4)));
            let fault = CpuExit::Fault {
                kind: FaultKind::MemFault,
                pc: Image::CODE_BASE,
                addr: slot,
            };
            assert_eq!(m.run_steps(1), fault, "{name}");
            assert_eq!(m.cpu.eip, Image::CODE_BASE, "{name}");
            assert_eq!(m.cpu.reg(Reg::Esp), STACK, "{name}");
            assert_eq!(m.mem.read_u32(slot), 0xA5A5_A5A5, "{name}");
            assert_eq!(m.mem.read_u32(DATA), 0, "{name}");
        }
    }

    /// Decode the one instruction at `eip` into the cache as a block of its
    /// own, in the generic interpreter's form when `generic` is set, so the
    /// next `run_steps(1)` hits it.
    fn prime(m: &mut Machine, generic: bool) {
        let mut arena = std::mem::take(&mut m.dcache.arena);
        let pc = m.cpu.eip;
        let room = m.region.end - pc;
        let b = m
            .dcache
            .fill(&m.mem, &m.cost, &mut arena, pc, None, 1, room);
        let l = &mut arena[b.expect("the instruction decodes").start()].lowered;
        if generic {
            let cycles = m.cost.instr_cost(l.op, 0, 0) as u8;
            *l = Lowered {
                shape: Shape::Generic,
                cycles,
                ..*l
            };
        }
        m.dcache.arena = arena;
    }

    #[test]
    fn specialised_executors_agree_with_the_generic_interpreter() {
        // Every specialised shape, stepped once through `run_steps` on
        // pseudo-random registers, flags and memory, with and without a
        // guard or watch on the bytes it touches, on both processor models,
        // must leave exactly the exit, state and counters the generic
        // interpreter leaves for the same decode: so each shape's cycles,
        // bound at decode, equal the generic count of its loads and stores.
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
        const CODE: u32 = Image::CODE_BASE;
        for (instr, kind) in instrs
            .iter()
            .flat_map(|i| [CpuKind::Pentium4, CpuKind::Pentium3].map(|k| (i, k)))
        {
            let mut il = InstrList::new();
            il.push_back(instr.clone());
            let code = encode_list(&il, CODE).unwrap().bytes;
            let (decoded, _) = decode_instr(&code, CODE).unwrap();
            let special = lowered(&code, CODE, &CostModel::new(kind)).unwrap();
            assert!(!matches!(special.shape, Shape::Generic), "{decoded}");
            for trial in 0..48 {
                let regs: Vec<u32> = (0..8)
                    .map(|_| match next() % 3 {
                        0 => EDGES[next() as usize % EDGES.len()],
                        _ => next(),
                    })
                    .collect();
                let eflags = next() & Eflags::ALL6.0;
                let mut machines = [false, true].map(|_| Machine::new(kind));
                for m in &mut machines {
                    m.set_exec_region(ExecRegion::new(0, u32::MAX));
                    m.mem.write_bytes(CODE, &code);
                    m.cpu.eip = CODE;
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
                    let touched = Some(ExecRegion::new(probes[0], probes[0].wrapping_add(1)));
                    match trial % 3 {
                        1 => m.set_guard_region(touched),
                        2 => m.set_watch_region(touched),
                        _ => {}
                    }
                }
                let [a, b] = &mut machines;
                prime(a, false);
                prime(b, true);
                let exits = (a.run_steps(1), b.run_steps(1));
                let what = format!("{decoded} on {kind:?}, trial {trial}");
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

    /// One block-versus-step case: a program at `CODE_BASE`, its machine
    /// set-up, and the fix-up both runs apply after each exit.
    struct BlockCase {
        name: &'static str,
        code: fn() -> Vec<u8>,
        setup: fn(&mut Machine),
        /// Applied after every exit but `FuelExhausted`; returns whether to
        /// run on.
        resume: fn(&mut Machine, CpuExit) -> bool,
        /// An exit the run must take.
        expect: fn(CpuExit) -> bool,
        /// Checks on the final machine.
        check: fn(&Machine),
    }

    fn encode(il: &InstrList) -> Vec<u8> {
        encode_list(il, Image::CODE_BASE).unwrap().bytes
    }

    /// `count` copies of `instr` followed by `hlt`.
    fn repeated(instr: fn() -> Instr, count: usize) -> Vec<u8> {
        let mut il = InstrList::new();
        for _ in 0..count {
            il.push_back(instr());
        }
        il.push_back(create::hlt());
        encode(&il)
    }

    fn inc_eax() -> Instr {
        create::inc(Opnd::reg(Reg::Eax))
    }

    fn add_eax_imm32() -> Instr {
        create::add(Opnd::reg(Reg::Eax), Opnd::imm32(0x100))
    }

    /// Run the program once so its blocks are cached whole, then restart
    /// it: later runs find blocks longer than their budget or region.
    fn warm(m: &mut Machine) {
        assert_eq!(m.run(), CpuExit::Halt);
        m.cpu.eip = Image::CODE_BASE;
        m.cpu.set_reg(Reg::Eax, 0);
        m.counters = Counters::default();
    }

    /// Whether a run goes on after `exit`: every exit but `hlt` resumes.
    fn runs_on(exit: CpuExit) -> bool {
        exit != CpuExit::Halt
    }

    /// One `run_steps(fuel)` call, or the same budget spent one
    /// `run_steps(1)` call at a time up to the first exit that is not
    /// `FuelExhausted`.
    fn slice(m: &mut Machine, fuel: u64, stepped: bool) -> CpuExit {
        if !stepped {
            return m.run_steps(fuel);
        }
        for _ in 0..fuel {
            match m.run_steps(1) {
                CpuExit::FuelExhausted => {}
                exit => return exit,
            }
        }
        CpuExit::FuelExhausted
    }

    /// Run `case` in slices of `fuel` instructions to the end; the machine
    /// and every exit it took.
    fn run_case(case: &BlockCase, fuel: u64, stepped: bool) -> (Machine, Vec<CpuExit>) {
        let mut m = load((case.code)());
        m.set_verify_decodes(true);
        (case.setup)(&mut m);
        let mut exits = Vec::new();
        for _ in 0..1000 {
            let exit = slice(&mut m, fuel, stepped);
            exits.push(exit);
            if exit != CpuExit::FuelExhausted && !(case.resume)(&mut m, exit) {
                return (m, exits);
            }
        }
        panic!("{}: no end after 1000 slices", case.name);
    }

    #[test]
    fn running_a_block_equals_stepping_its_instructions() {
        let cases = [
            BlockCase {
                name: "guard fault mid-block",
                code: || {
                    let mut il = InstrList::new();
                    il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
                    il.push_back(create::inc(Opnd::reg(Reg::Ecx)));
                    il.push_back(create::mov(
                        Opnd::Mem(MemRef::absolute(0x2000_0000, OpSize::S32)),
                        Opnd::reg(Reg::Eax),
                    ));
                    il.push_back(create::inc(Opnd::reg(Reg::Ecx)));
                    il.push_back(create::hlt());
                    encode(&il)
                },
                setup: |m| m.set_guard_region(Some(ExecRegion::new(0x2000_0000, 0x2000_1000))),
                resume: |m, exit| {
                    m.set_guard_region(None);
                    runs_on(exit)
                },
                expect: |exit| {
                    matches!(exit, CpuExit::Fault { kind: FaultKind::MemFault, pc, .. }
                        if pc == Image::CODE_BASE + 6)
                },
                check: |m| assert_eq!(m.mem.read_u32(0x2000_0000), 7),
            },
            BlockCase {
                name: "watched store mid-block",
                code: || {
                    let mut il = InstrList::new();
                    il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x90)));
                    il.push_back(create::mov(
                        Opnd::Mem(MemRef::absolute(Image::CODE_BASE + 0x100, OpSize::S32)),
                        Opnd::reg(Reg::Eax),
                    ));
                    il.push_back(create::inc(Opnd::reg(Reg::Ecx)));
                    il.push_back(create::hlt());
                    encode(&il)
                },
                setup: |m| {
                    let base = Image::CODE_BASE;
                    m.set_watch_region(Some(ExecRegion::new(base + 0x100, base + 0x200)));
                },
                resume: |m, exit| {
                    if let CpuExit::CodeWrite { pc, .. } = exit {
                        assert!(m.cpu.eip > pc, "eip advanced past the writer");
                    }
                    runs_on(exit)
                },
                expect: |exit| matches!(exit, CpuExit::CodeWrite { len: 4, .. }),
                check: |m| assert_eq!(m.cpu.reg(Reg::Ecx), 1),
            },
            BlockCase {
                name: "store into a later instruction of the running block",
                code: || {
                    // `mov [imm], ebx` rewrites the immediate of an `add`
                    // 20 bytes further on, in the same block.
                    let mut il = InstrList::new();
                    il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2000)));
                    let patch = il.push_back(create::mov(
                        Opnd::Mem(MemRef::absolute(0, OpSize::S32)),
                        Opnd::reg(Reg::Ebx),
                    ));
                    for _ in 0..16 {
                        il.push_back(create::inc(Opnd::reg(Reg::Ecx)));
                    }
                    il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1000)));
                    let after = il.push_back(create::hlt());
                    let imm = Image::CODE_BASE
                        + encode_list(&il, Image::CODE_BASE)
                            .unwrap()
                            .offset_of(after)
                            .unwrap()
                        - 4;
                    il.get_mut(patch)
                        .set_dst(0, Opnd::Mem(MemRef::absolute(imm, OpSize::S32)));
                    encode(&il)
                },
                setup: |_| {},
                resume: |_, exit| runs_on(exit),
                expect: |exit| exit == CpuExit::Halt,
                check: |m| assert_eq!(m.cpu.reg(Reg::Eax), 2000),
            },
            BlockCase {
                name: "fuel running out mid-block",
                code: || repeated(inc_eax, 20),
                setup: warm,
                resume: |_, exit| runs_on(exit),
                expect: |exit| exit == CpuExit::Halt,
                check: |m| assert_eq!(m.cpu.reg(Reg::Eax), 20),
            },
            BlockCase {
                name: "injected fault mid-block",
                code: || repeated(inc_eax, 6),
                setup: |m| {
                    warm(m);
                    m.inject_fault_at(3, FaultKind::InvalidOpcode);
                },
                resume: |_, exit| runs_on(exit),
                expect: |exit| {
                    exit == CpuExit::Fault {
                        kind: FaultKind::InvalidOpcode,
                        pc: Image::CODE_BASE + 3,
                        addr: Image::CODE_BASE + 3,
                    }
                },
                check: |m| assert_eq!(m.cpu.reg(Reg::Eax), 6),
            },
            BlockCase {
                name: "exec region ending mid-block",
                code: || repeated(inc_eax, 10),
                setup: |m| {
                    warm(m);
                    let base = Image::CODE_BASE;
                    m.set_exec_region(ExecRegion::new(base, base + 4));
                },
                resume: |m, exit| {
                    let end = Image::CODE_BASE + 0x100;
                    m.set_exec_region(ExecRegion::new(Image::CODE_BASE, end));
                    runs_on(exit)
                },
                expect: |exit| exit == CpuExit::OutOfRegion(Image::CODE_BASE + 4),
                check: |m| assert_eq!(m.cpu.reg(Reg::Eax), 10),
            },
            BlockCase {
                name: "undecodable bytes after a valid prefix",
                code: || {
                    let mut code = repeated(inc_eax, 3);
                    code.pop(); // the hlt
                    code.extend([0x0F, 0xFF, 0xFF, 0xFF]);
                    code
                },
                setup: |_| {},
                resume: |m, exit| {
                    // Patch a `hlt` over the bad bytes, as a handler might.
                    if let CpuExit::Fault { pc, .. } = exit {
                        m.mem.write_u8(pc, 0xF4);
                        m.invalidate_code_range(pc, 1);
                    }
                    runs_on(exit)
                },
                expect: |exit| {
                    exit == CpuExit::Fault {
                        kind: FaultKind::InvalidOpcode,
                        pc: Image::CODE_BASE + 3,
                        addr: Image::CODE_BASE + 3,
                    }
                },
                check: |m| assert_eq!(m.cpu.reg(Reg::Eax), 3),
            },
            BlockCase {
                name: "blocks hitting the instruction and byte caps",
                code: || {
                    let mut code = repeated(inc_eax, 40);
                    code.pop();
                    code.extend(repeated(add_eax_imm32, 30));
                    code
                },
                setup: |_| {},
                resume: |_, exit| runs_on(exit),
                expect: |exit| exit == CpuExit::Halt,
                check: |m| assert_eq!(m.cpu.reg(Reg::Eax), 40 + 30 * 0x100),
            },
        ];
        let memory = |m: &Machine| {
            let mut bytes = vec![0; 3 * 0x200];
            let spans = [Image::CODE_BASE, Image::DATA_BASE, Image::STACK_TOP - 0x200];
            for (chunk, base) in bytes.chunks_mut(0x200).zip(spans) {
                m.mem.read_bytes(base, chunk);
            }
            bytes
        };
        for case in &cases {
            let (stepped, stepped_exits) = run_case(case, 1, true);
            (case.check)(&stepped);
            assert!(
                stepped_exits.iter().any(|&e| (case.expect)(e)),
                "{}: {stepped_exits:?}",
                case.name
            );
            for fuel in [1, 2, 5, 7, 32, 1000] {
                let what = format!("{} at fuel {fuel}", case.name);
                let (block, block_exits) = run_case(case, fuel, false);
                let (m, exits) = run_case(case, fuel, true);
                assert_eq!(block_exits, exits, "{what}");
                assert_eq!(block.cpu, m.cpu, "{what}");
                assert_eq!(block.counters, m.counters, "{what}");
                assert_eq!(memory(&block), memory(&m), "{what}");
                assert_eq!(block.stale_decode_hits(), 0, "{what}");
                assert_eq!(m.stale_decode_hits(), 0, "{what}");
                (case.check)(&block);
            }
        }
    }

    #[test]
    fn blocks_end_at_their_caps() {
        // 40 one-byte `inc`s, 30 five-byte `add`s and a `hlt`: the first
        // block stops at 32 instructions; the second takes the last 8
        // `inc`s and 21 `add`s, ending once it spans more than 112 bytes;
        // the third is the other 9 `add`s and the `hlt`.
        let mut code = repeated(inc_eax, 40);
        code.pop();
        code.extend(repeated(add_eax_imm32, 30));
        let mut m = load(code);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(0, 3, 0, 71));
        let spans: Vec<_> = [0, 32, 32 + 113]
            .map(|off| m.dcache.get(Image::CODE_BASE + off).unwrap())
            .iter()
            .map(|b| (b.len(), b.span(), b.last()))
            .collect();
        assert_eq!(spans, [(32, 32, true), (29, 113, true), (10, 46, true)]);
        assert_eq!(m.dcache.arena.len(), 71);
    }

    #[test]
    fn single_steps_decode_once_and_a_run_extends_the_block() {
        // Stepped one at a time, each pc holds a block of one instruction;
        // a later run from the first pc extends that block in place while
        // it is the arena's newest, and copies it to the end otherwise.
        let mut m = load(repeated(inc_eax, 4));
        for _ in 0..4 {
            assert_eq!(m.run_steps(1), CpuExit::FuelExhausted);
        }
        assert_eq!(m.run_steps(1), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(0, 5, 0, 5));
        assert_eq!(m.dcache.arena.len(), 5);
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        // One miss: the one-instruction block at CODE_BASE was copied to
        // the end and extended to all five instructions.
        assert_eq!(m.decode_cache_stats(), stats(0, 6, 0, 9));
        assert_eq!(m.dcache.arena.len(), 10);
        let b = m.dcache.get(Image::CODE_BASE).unwrap();
        assert_eq!((b.start(), b.len(), b.span(), b.last()), (5, 5, 5, true));
        // The newest block grows in place.
        m.cpu.eip = Image::CODE_BASE + 1;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.decode_cache_stats(), stats(0, 7, 0, 12));
        let b = m.dcache.get(Image::CODE_BASE + 1).unwrap();
        assert_eq!((b.start(), b.len()), (10, 4));
        assert_eq!(m.dcache.arena.len(), 14);
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
        // 8-bit rotates stay within the byte; CF is the bit rotated round.
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(0x80)));
        il.push_back(create::rol(Opnd::reg(Reg::Cl), Opnd::imm8(1)));
        il.push_back(create::sbb(Opnd::reg(Reg::Esi), Opnd::reg(Reg::Esi))); // -CF
        il.push_back(create::mov(Opnd::reg(Reg::Edx), Opnd::imm32(1)));
        il.push_back(create::ror(Opnd::reg(Reg::Dl), Opnd::imm8(1)));
        il.push_back(create::sbb(Opnd::reg(Reg::Edi), Opnd::reg(Reg::Edi)));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x3);
        assert_eq!(m.cpu.reg(Reg::Ebx), 0x1000_0000);
        assert_eq!(m.cpu.reg(Reg::Ecx), 0x01); // rol $1, 0x80
        assert_eq!(m.cpu.reg(Reg::Esi), 0xFFFF_FFFF);
        assert_eq!(m.cpu.reg(Reg::Edx), 0x80); // ror $1, 0x01
        assert_eq!(m.cpu.reg(Reg::Edi), 0xFFFF_FFFF);
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
