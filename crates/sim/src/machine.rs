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
//! * decoded entries live in a slab in which each slot owns at most one
//!   entry and overwrites it in place, so memory tracks the executed code
//!   footprint and stays bounded;
//! * a step executes its decode by reference out of the slab;
//! * a per-page bitmap of pages that may hold a cached decode lets stores to
//!   data and stack pages (nearly all of them) skip the invalidation probe.
//!
//! [`Machine::decode_cache_stats`] reports hits, misses and invalidations
//! for profiling; they never reach [`Counters`].

use rio_ia32::{decode_instr, Instr, MemRef, OpSize, Opcode, Opnd, Reg};

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

/// Compact executable form of one decoded instruction.
#[derive(Clone, Copy, Debug)]
struct Lowered {
    op: Opcode,
    len: u32,
    ndst: u8,
    srcs: [LOpnd; 4],
    dsts: [LOpnd; 4],
}

#[derive(Clone, Copy, Debug)]
enum LOpnd {
    None,
    Reg(Reg),
    Imm(i32, OpSize),
    Mem(MemRef),
    Pc(u32),
}

impl LOpnd {
    fn from_opnd(op: &Opnd) -> LOpnd {
        match op {
            Opnd::Reg(r) => LOpnd::Reg(*r),
            Opnd::Imm(v, s) => LOpnd::Imm(*v, *s),
            Opnd::Mem(m) => LOpnd::Mem(*m),
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
}

fn lower(instr: &Instr, len: u32) -> Lowered {
    let mut l = Lowered {
        op: instr.opcode().expect("lower requires decoded instr"),
        len,
        ndst: instr.dsts().len().min(4) as u8,
        srcs: [LOpnd::None; 4],
        dsts: [LOpnd::None; 4],
    };
    for (i, s) in instr.srcs().iter().take(4).enumerate() {
        l.srcs[i] = LOpnd::from_opnd(s);
    }
    for (i, d) in instr.dsts().iter().take(4).enumerate() {
        l.dsts[i] = LOpnd::from_opnd(d);
    }
    l
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

    fn index(pc: u32) -> usize {
        ((pc ^ (pc >> DCACHE_BITS as u32)) as usize) & (DCACHE_SIZE - 1)
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

    fn in_region(&self, pc: u32) -> bool {
        self.regions.iter().any(|r| r.contains(pc))
    }

    /// Run until an exit condition with a default fuel of 2^44 steps.
    pub fn run(&mut self) -> CpuExit {
        self.run_steps(1 << 44)
    }

    /// Run at most `max_steps` instructions.
    pub fn run_steps(&mut self, max_steps: u64) -> CpuExit {
        for _ in 0..max_steps {
            if !self.in_region(self.cpu.eip) {
                return CpuExit::OutOfRegion(self.cpu.eip);
            }
            if let Some(exit) = self.step() {
                return exit;
            }
        }
        CpuExit::FuelExhausted
    }

    /// Execute exactly one instruction (region checks are the caller's
    /// responsibility). Returns `Some(exit)` if the instruction stops
    /// execution.
    pub fn step(&mut self) -> Option<CpuExit> {
        let pc = self.cpu.eip;
        if let Some((at, kind)) = self.inject {
            if self.counters.instructions >= at {
                self.inject = None; // one-shot: resuming runs past it
                return Some(CpuExit::Fault { kind, pc, addr: pc });
            }
        }
        let cached = match self.dcache.get(pc) {
            Some(i) if self.verify_decodes && !self.cached_bytes_match(pc, i) => {
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
                match decode_instr(&buf, pc) {
                    Ok((instr, len)) => self.dcache.put(pc, buf, lower(&instr, len)),
                    Err(_) => {
                        return Some(CpuExit::Fault {
                            kind: FaultKind::InvalidOpcode,
                            pc,
                            addr: pc,
                        });
                    }
                }
            }
        };
        // Execute the decode in place. `exec` can invalidate slots (every
        // store goes through `note_store`) but never touches the slab, so
        // the slab is lent out for the duration of the instruction.
        let slab = std::mem::take(&mut self.dcache.slab);
        let exit = self.exec(pc, &slab[i].lowered);
        self.dcache.slab = slab;
        exit
    }

    /// Verification mode: whether cached decode `i` still matches the live
    /// memory bytes at `pc`.
    fn cached_bytes_match(&self, pc: u32, i: usize) -> bool {
        let e = &self.dcache.slab[i];
        let len = e.lowered.len as usize;
        let mut buf = [0u8; 16];
        self.mem.read_bytes(pc, &mut buf[..len]);
        buf[..len] == e.bytes[..len]
    }

    fn addr_of(&self, m: &MemRef) -> u32 {
        let base = m.base.map_or(0, |r| self.cpu.reg(r));
        let index = m.index.map_or(0, |r| self.cpu.reg(r));
        base.wrapping_add(index.wrapping_mul(m.scale as u32))
            .wrapping_add(m.disp as u32)
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
        let esp = self.cpu.reg(Reg::Esp);
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

    fn read(&mut self, op: &LOpnd) -> u32 {
        match op {
            LOpnd::Reg(r) => self.cpu.reg(*r),
            LOpnd::Imm(v, _) => *v as u32,
            LOpnd::Pc(pc) => *pc,
            LOpnd::Mem(m) => {
                self.step_loads += 1;
                let a = self.addr_of(m);
                match m.size {
                    OpSize::S8 => self.mem.read_u8(a) as u32,
                    OpSize::S16 => self.mem.read_u16(a) as u32,
                    OpSize::S32 => self.mem.read_u32(a),
                }
            }
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
            LOpnd::Reg(r) => self.cpu.set_reg(*r, v),
            LOpnd::Mem(m) => {
                let a = self.addr_of(m);
                self.note_store(a, m.size.bytes());
                match m.size {
                    OpSize::S8 => self.mem.write_u8(a, v as u8),
                    OpSize::S16 => self.mem.write_u16(a, v as u16),
                    OpSize::S32 => self.mem.write_u32(a, v),
                }
            }
            _ => {}
        }
    }

    fn push32(&mut self, v: u32) {
        let esp = self.cpu.reg(Reg::Esp).wrapping_sub(4);
        self.cpu.set_reg(Reg::Esp, esp);
        self.note_store(esp, 4);
        self.mem.write_u32(esp, v);
    }

    fn pop32(&mut self) -> u32 {
        let esp = self.cpu.reg(Reg::Esp);
        self.step_loads += 1;
        let v = self.mem.read_u32(esp);
        self.cpu.set_reg(Reg::Esp, esp.wrapping_add(4));
        v
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: u32, l: &Lowered) -> Option<CpuExit> {
        use rio_ia32::Eflags;
        self.step_loads = 0;
        self.step_stores = 0;
        self.step_code_write = None;
        if !self.guards.is_empty() {
            if let Some(exit) = self.check_guards(pc, l) {
                return Some(exit);
            }
        }
        let next_pc = pc.wrapping_add(l.len);
        let mut new_eip = next_pc;
        let mut branch_penalty = 0u64;
        let mut exit: Option<CpuExit> = None;

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
                    let a = self.cpu.reg(Reg::Eax) as i32 as i64;
                    let b = self.read(&l.srcs[0]) as i32 as i64;
                    let wide = a * b;
                    self.cpu.set_reg(Reg::Eax, wide as u32);
                    self.cpu.set_reg(Reg::Edx, (wide >> 32) as u32);
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
                let a = self.cpu.reg(Reg::Eax) as u64;
                let b = self.read(&l.srcs[0]) as u64;
                let wide = a * b;
                self.cpu.set_reg(Reg::Eax, wide as u32);
                self.cpu.set_reg(Reg::Edx, (wide >> 32) as u32);
                self.set_mul_flags(wide >> 32 != 0);
            }
            Opcode::Div => {
                let divisor = self.read(&l.srcs[0]) as u64;
                let dividend =
                    ((self.cpu.reg(Reg::Edx) as u64) << 32) | self.cpu.reg(Reg::Eax) as u64;
                if divisor == 0 || dividend / divisor > u32::MAX as u64 {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::DivideError,
                        pc,
                        addr: pc,
                    });
                }
                self.cpu.set_reg(Reg::Eax, (dividend / divisor) as u32);
                self.cpu.set_reg(Reg::Edx, (dividend % divisor) as u32);
            }
            Opcode::Idiv => {
                let divisor = self.read(&l.srcs[0]) as i32 as i64;
                let dividend = (((self.cpu.reg(Reg::Edx) as u64) << 32)
                    | self.cpu.reg(Reg::Eax) as u64) as i64;
                if divisor == 0 {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::DivideError,
                        pc,
                        addr: pc,
                    });
                }
                let q = dividend.wrapping_div(divisor);
                if q != (q as i32 as i64) {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::DivideError,
                        pc,
                        addr: pc,
                    });
                }
                self.cpu.set_reg(Reg::Eax, q as u32);
                self.cpu
                    .set_reg(Reg::Edx, dividend.wrapping_rem(divisor) as u32);
            }
            Opcode::Cdq => {
                let v = if self.cpu.reg(Reg::Eax) & 0x8000_0000 != 0 {
                    0xFFFF_FFFF
                } else {
                    0
                };
                self.cpu.set_reg(Reg::Edx, v);
            }
            Opcode::Cwde => {
                let v = self.cpu.reg(Reg::Ax) as u16 as i16 as i32 as u32;
                self.cpu.set_reg(Reg::Eax, v);
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
                self.cpu.set_reg(Reg::Ah, ah);
            }
            Opcode::Sahf => {
                let ah = self.cpu.reg(Reg::Ah);
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
                use rio_ia32::Eflags;
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
                use rio_ia32::Eflags;
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
                exit = Some(CpuExit::Breakpoint);
            }
            Opcode::Int => {
                let n = self.read(&l.srcs[0]) as u8;
                self.cpu.eip = next_pc;
                // Account the instruction before returning.
                self.finish_step(l, 0);
                return Some(CpuExit::Syscall(n));
            }
            Opcode::Hlt => {
                self.finish_step(l, 0);
                return Some(CpuExit::Halt);
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
                let taken = self.cpu.reg(Reg::Ecx) == 0;
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
                    let esp = self.cpu.reg(Reg::Esp).wrapping_add(extra as u32);
                    self.cpu.set_reg(Reg::Esp, esp);
                }
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, true, &mut self.counters);
            }
            Opcode::Label => {
                // A label pseudo-instruction reached the interpreter:
                // report it as the guest-visible invalid-opcode fault.
                return Some(CpuExit::Fault {
                    kind: FaultKind::InvalidOpcode,
                    pc,
                    addr: pc,
                });
            }
        }

        self.cpu.eip = new_eip;
        self.finish_step(l, branch_penalty);
        if exit.is_none() {
            // A committed store into a watched code region stops execution
            // *after* the instruction: state is architecturally complete
            // and `eip` is past the writer, so resumption cannot livelock.
            if let Some((addr, len)) = self.step_code_write.take() {
                return Some(CpuExit::CodeWrite { pc, addr, len });
            }
        }
        exit
    }

    fn set_mul_flags(&mut self, overflow: bool) {
        use rio_ia32::Eflags;
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
    use rio_ia32::{create, Cc, InstrList, Target};

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
    fn store_wrapping_past_the_top_invalidates_both_ends() {
        // A 4-byte store at 0xFFFF_FFFE writes 0xFFFF_FFFE..=0xFFFF_FFFF
        // and 0..=1; decodes at 0xFFFF_FFFF, 0 and 1 all read those bytes.
        // (0xFFFF_FFFF and 0 share a slot, so they are probed in turn.)
        let mut m = Machine::new(CpuKind::Pentium4);
        for pcs in [&[0xFFFF_FFFF, 1][..], &[0]] {
            for &pc in pcs {
                m.mem.write_u8(pc, 0x90); // nop
                m.cpu.eip = pc;
                assert_eq!(m.step(), None);
                assert!(m.dcache.get(pc).is_some());
            }
            let before = m.decode_cache_stats().invalidated;
            m.note_store(0xFFFF_FFFE, 4);
            assert_eq!(
                m.decode_cache_stats().invalidated - before,
                pcs.len() as u64
            );
            assert!(pcs.iter().all(|&pc| m.dcache.get(pc).is_none()));
        }
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
}

#[cfg(test)]
mod extended_isa_exec_tests {
    use super::*;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, Cc, InstrList};

    fn run_program(il: &InstrList) -> Machine {
        let code = encode_list(il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        assert_eq!(m.run(), crate::cpu::CpuExit::Halt);
        m
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
        let m = run_program(&il);
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
        let m = run_program(&il);
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
        let m = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Ecx), 0xFFFF_FFFF); // bit 3 was set
        assert_eq!(m.cpu.reg(Reg::Edx), 0); // bit 2 clear
    }

    #[test]
    fn bswap_reverses_bytes() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x1234_5678)));
        il.push_back(create::bswap(Reg::Eax));
        il.push_back(create::hlt());
        let m = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x7856_3412);
    }
}
