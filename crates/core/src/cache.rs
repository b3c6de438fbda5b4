//! Fragments, exit stubs, and the code cache.
//!
//! A *fragment* is "either a basic block or a trace in the code cache"
//! (paper §2). Every simulated thread owns a private cache, split into a
//! basic-block and a trace sub-cache. Each sub-cache is one record: a bump
//! allocator over its 16 MiB slice of the simulated address space, its tag
//! table, its live-byte count and its FIFO eviction head. The paper's
//! evaluation runs with unlimited cache space, and so does this
//! implementation by default. Deleted fragments are unlinked, dropped from
//! the lookup tables and tombstoned, but their bytes are not reused: only a
//! whole sub-cache flush resets its allocator.
//!
//! Each [`Exit`] records the one rel32 [`Word`] that linking patches and,
//! for a custom stub, the one that never moves; emission works both out
//! once, so linking, unlinking and the verifier never ask how the exit's
//! stub was built.

use rio_sim::{Image, Memory};

use crate::emit::Scratch;
use crate::tagmap::TagMap;

/// Identifies a fragment for the lifetime of the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId(pub u32);

/// Basic block or trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FragmentKind {
    /// A single-entry single-CTI-terminated block.
    BasicBlock,
    /// A stitched sequence of hot blocks.
    Trace,
}

/// Which kind of indirect branch an exit translates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndKind {
    /// A near return.
    Ret,
    /// An indirect jump.
    Jmp,
    /// An indirect call.
    Call,
}

/// Where an exit goes when control leaves the fragment through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitKind {
    /// Direct transfer to a known application address.
    Direct {
        /// Target application tag.
        target: u32,
    },
    /// Indirect transfer; the target is computed at runtime into `%ecx`.
    Indirect {
        /// The kind of original indirect branch.
        kind: IndKind,
    },
}

/// A branch's rel32 displacement word in the code cache, and the target it
/// holds while its exit is unlinked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Word {
    /// Cache address of the displacement.
    pub addr: u32,
    /// Where the branch lands while the exit is unlinked: the stub sentinel,
    /// or the entry of the exit's custom stub.
    pub unlinked: u32,
}

impl Word {
    /// Where the rel32 displacement at `addr` currently sends its branch.
    pub fn resolve(mem: &Memory, addr: u32) -> u32 {
        addr.wrapping_add(4).wrapping_add(mem.read_u32(addr))
    }
}

/// One exit from a fragment.
///
/// An exit owns one or two rel32 words. A plain exit has only its branch.
/// An exit with a custom stub (paper §3.2) has the branch, aimed at the stub
/// entry, and the stub's final `jmp`, aimed at the sentinel. Linking patches
/// `link_word`: the branch, or the stub's `jmp` when the stub is forced so
/// its code keeps running. The other word is `fixed_word` and never moves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exit {
    /// Classification and (for direct exits) the target tag.
    pub kind: ExitKind,
    /// Global stub index (sentinel = `layout::stub_sentinel(stub)`).
    pub stub: u32,
    /// The word linking rewrites, and its target while unlinked.
    pub link_word: Word,
    /// A custom stub's other word, which always rests on `unlinked`.
    pub fixed_word: Option<Word>,
    /// Fragment this exit is currently linked to.
    pub linked_to: Option<FragmentId>,
    /// Byte offset of the exit branch instruction within the fragment.
    pub branch_instr_off: u32,
}

/// One row of a fragment's fault-translation table: from this byte offset
/// (until the next row) the fragment executes the translation of the
/// application instruction at `app_pc`, and `ecx_spilled` records whether
/// the application's `%ecx` currently lives in the spill slot (a mangling
/// side effect that must be rolled back to present original register
/// state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Byte offset within the fragment body.
    pub cache_off: u32,
    /// Application pc of the instruction translated here.
    pub app_pc: u32,
    /// Whether the application's `%ecx` is in the spill slot here.
    pub ecx_spilled: bool,
    /// The row covers a Level 0 bundle whose bytes were copied into the
    /// cache verbatim: cache offsets past `cache_off` map 1:1 onto
    /// application pcs past `app_pc`, so one row translates every
    /// instruction in the bundle precisely.
    pub linear: bool,
}

/// A fragment resident in the code cache.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Identity.
    pub id: FragmentId,
    /// Application address this fragment translates (paper: "the tag
    /// parameters serve to uniquely identify fragments by their original
    /// application origin").
    pub tag: u32,
    /// Basic block or trace.
    pub kind: FragmentKind,
    /// Cache address of the fragment entry.
    pub start: u32,
    /// Length of the body in bytes (exit stubs follow the body).
    pub body_len: u32,
    /// Total length including stubs.
    pub total_len: u32,
    /// The fragment's exits in emission order.
    pub exits: Vec<Exit>,
    /// Incoming links as `(source fragment, exit index)`.
    pub incoming: Vec<(FragmentId, usize)>,
    /// Whether this basic block is a trace head (counter maintained by
    /// dispatch; trace heads are never link targets).
    pub is_trace_head: bool,
    /// Trace-head execution counter.
    pub counter: u32,
    /// Whether the fragment has been deleted (awaiting or past the safe
    /// deletion point).
    pub deleted: bool,
    /// Fault-translation table, sorted by `cache_off` (built at emit time
    /// from the `app_pc` values threaded through mangling).
    pub translations: Vec<Translation>,
    /// Guest faults raised while executing this fragment (drives the
    /// self-healing eviction of repeatedly-faulting fragments).
    pub faults: u32,
    /// Application `[start, end)` spans of every constituent block — one
    /// for a basic block, one per stitched block for a trace. A guest
    /// write overlapping any span makes this fragment stale (its cache
    /// copy was translated from bytes that no longer exist).
    pub src_ranges: Vec<(u32, u32)>,
}

impl Fragment {
    /// The `[start, end)` cache range of body + stubs.
    pub fn range(&self) -> (u32, u32) {
        (self.start, self.start + self.total_len)
    }

    /// Whether a cache address falls within this fragment.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.start + self.total_len
    }

    /// Whether any of this fragment's source-code spans overlaps the
    /// application range `[lo, hi)`.
    pub fn overlaps_src(&self, lo: u32, hi: u32) -> bool {
        self.src_ranges.iter().any(|&(s, e)| s < hi && e > lo)
    }

    /// Translate a cache address inside this fragment back to application
    /// state: the row with the largest `cache_off` not beyond the address.
    /// For a `linear` (verbatim bundle) row the returned `app_pc` is
    /// adjusted by the byte offset into the bundle, so it names the exact
    /// application instruction. `None` when the address precedes the first
    /// translated instruction (e.g. a trampoline) or the table is empty.
    pub fn translate(&self, cache_addr: u32) -> Option<Translation> {
        let off = cache_addr.checked_sub(self.start)?;
        let mut t = *self
            .translations
            .iter()
            .take_while(|t| t.cache_off <= off)
            .last()?;
        if t.linear {
            t.app_pc += off - t.cache_off;
        }
        Some(t)
    }
}

/// Maps a global stub index back to its fragment and exit.
#[derive(Clone, Copy, Debug)]
pub struct StubRecord {
    /// Owning fragment.
    pub frag: FragmentId,
    /// Index into [`Fragment::exits`].
    pub exit_idx: usize,
}

/// One sub-cache: a bump allocator over its half of the thread's region, its
/// tag table, and the bookkeeping capacity eviction reads.
#[derive(Debug, Default)]
struct SubCache {
    base: u32,
    limit: u32,
    next: u32,
    /// Bytes occupied by *live* fragments — unlike the bump allocator's
    /// high-water mark, this shrinks when fragments are deleted, so capacity
    /// policies can count what is actually resident.
    live: u32,
    /// FIFO head: every fragment below it is deleted or of the other kind,
    /// so the eviction walk never revisits tombstones.
    fifo: u32,
    by_tag: TagMap<FragmentId>,
}

impl SubCache {
    fn new(base: u32, limit: u32) -> SubCache {
        SubCache {
            base,
            limit,
            next: base,
            ..SubCache::default()
        }
    }
}

/// The code cache: fragment storage, tag lookup tables, stub records, and
/// the two sub-caches.
///
/// Caches are **thread-private** (paper §2: "DynamoRIO maintains
/// thread-private code caches"): each simulated thread owns one, carved out
/// of a disjoint slice of the cache region, so no synchronization between
/// threads is ever needed and a thread can only ever execute its own
/// fragments.
#[derive(Debug, Default)]
pub struct CodeCache {
    frags: Vec<Fragment>,
    stubs: Vec<StubRecord>,
    entry_by_addr: TagMap<FragmentId>,
    stub_offset: u32,
    /// The basic-block and trace sub-caches, indexed by [`FragmentKind`].
    subs: [SubCache; 2],
    /// Emission's reused storage, lent to each [`emit_fragment`](crate::emit::emit_fragment).
    pub(crate) scratch: Scratch,
}

/// Address-space slice per thread-private cache (16 MiB bb + 16 MiB trace).
const THREAD_SLICE: u32 = 0x0200_0000;
/// Maximum simulated threads (bounded by the cache region).
pub const MAX_THREADS: u32 = (Image::CACHE_END - Image::CACHE_BASE) / THREAD_SLICE;
/// Stub-index space per thread (8 threads x 512Ki indices fit exactly in
/// the 16 MiB stub sentinel range).
const STUBS_PER_THREAD: u32 = 1 << 19;

impl CodeCache {
    /// Create the cache for thread 0.
    pub fn new() -> CodeCache {
        CodeCache::for_thread(0)
    }

    /// Create the thread-private cache for thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= MAX_THREADS`.
    pub fn for_thread(t: u32) -> CodeCache {
        assert!(t < MAX_THREADS, "too many threads (max {MAX_THREADS})");
        let base = Image::CACHE_BASE + t * THREAD_SLICE;
        let mid = base + THREAD_SLICE / 2;
        CodeCache {
            stub_offset: t * STUBS_PER_THREAD,
            subs: [
                SubCache::new(base, mid),
                SubCache::new(mid, base + THREAD_SLICE),
            ],
            ..CodeCache::default()
        }
    }

    fn sub(&self, kind: FragmentKind) -> &SubCache {
        &self.subs[kind as usize]
    }

    fn sub_mut(&mut self, kind: FragmentKind) -> &mut SubCache {
        &mut self.subs[kind as usize]
    }

    /// This cache's `[start, end)` region (both sub-caches) — the only
    /// addresses its thread may execute.
    pub fn region(&self) -> (u32, u32) {
        (self.subs[0].base, self.subs[1].limit)
    }

    /// Where the next [`CodeCache::alloc`] of `kind` starts. Allocation is
    /// a bump pointer, so a fragment can be encoded at its final address
    /// before its length is known.
    pub fn next_start(&self, kind: FragmentKind) -> u32 {
        self.sub(kind).next
    }

    /// Reserve `len` bytes in the basic-block or trace cache. Returns
    /// `None` once the sub-cache's 16 MiB slice is used up: eviction frees
    /// capacity accounting, not address space, so a long run under a small
    /// [`Options::cache_limit`](crate::Options::cache_limit) can get there.
    pub fn alloc(&mut self, kind: FragmentKind, len: u32) -> Option<u32> {
        let sub = self.sub_mut(kind);
        let start = sub.next;
        if start.checked_add(len)? >= sub.limit {
            return None;
        }
        // Align fragments to 16 bytes like the original (cache-line
        // friendliness of fragment entries).
        sub.next = (start + len + 15) & !15;
        Some(start)
    }

    /// Bytes occupied by live (non-deleted) fragments of `kind` — the
    /// quantity capacity policies bound. Maintained by
    /// [`CodeCache::insert`] and by fragment deletion.
    pub fn live_bytes(&self, kind: FragmentKind) -> u32 {
        self.sub(kind).live
    }

    /// Delete a fragment: drop it from the lookup tables and tombstone it,
    /// updating the live-byte accounting and the FIFO head exactly once
    /// however many times it is called. Its bytes stay resident. Every
    /// deletion path (safe deletion, capacity eviction, flush, precise
    /// invalidation, fault eviction) ends here, through
    /// [`Core`](crate::Core)'s one removal routine, which unlinks first.
    pub(crate) fn remove(&mut self, id: FragmentId) {
        self.remove_from_maps(id);
        let f = &mut self.frags[id.0 as usize];
        if f.deleted {
            return;
        }
        f.deleted = true;
        let (kind, len) = (f.kind, f.total_len);
        let mut head = self.sub(kind).fifo;
        while let Some(f) = self.frags.get(head as usize) {
            if !f.deleted && f.kind == kind {
                break;
            }
            head += 1;
        }
        let sub = self.sub_mut(kind);
        sub.live -= len;
        sub.fifo = head;
    }

    /// The oldest (lowest-id, i.e. first-emitted) live fragment of `kind`
    /// whose id is at least `from` — the FIFO eviction candidate. The walk
    /// starts no earlier than the sub-cache's FIFO head.
    pub fn oldest_live(&self, kind: FragmentKind, from: FragmentId) -> Option<FragmentId> {
        self.frags[from.0.max(self.sub(kind).fifo) as usize..]
            .iter()
            .find(|f| f.kind == kind && !f.deleted)
            .map(|f| f.id)
    }

    /// The live fragments that satisfy `pred`, oldest first.
    pub(crate) fn live_ids(&self, pred: impl Fn(&Fragment) -> bool) -> Vec<FragmentId> {
        self.frags
            .iter()
            .filter(|f| !f.deleted && pred(f))
            .map(|f| f.id)
            .collect()
    }

    /// Reset a sub-cache's allocator once every fragment in it has been
    /// removed (a whole-sub-cache flush). Old bytes stay valid until new
    /// fragments overwrite them, so this is safe at any engine safe point.
    pub(crate) fn reset_alloc(&mut self, kind: FragmentKind) {
        debug_assert_eq!(self.live_bytes(kind), 0, "reset of a live sub-cache");
        let sub = self.sub_mut(kind);
        sub.next = sub.base;
    }

    /// The fragment executing for `tag` if control may enter it without
    /// going through dispatch — the one rule for direct links and in-cache
    /// indirect-branch hits: it is live, and it is not a basic block that
    /// is a trace head (those are reached through dispatch so their
    /// counters tick; traces are freely linkable).
    pub(crate) fn link_target(&self, tag: u32) -> Option<FragmentId> {
        self.lookup(tag).filter(|&id| {
            let f = self.frag(id);
            let counted_head = f.kind == FragmentKind::BasicBlock && f.is_trace_head;
            !f.deleted && !counted_head
        })
    }

    /// Register a fragment built by the emitter. Returns its id.
    pub fn insert(&mut self, mut frag: Fragment) -> FragmentId {
        let id = FragmentId(self.frags.len() as u32);
        frag.id = id;
        let sub = self.sub_mut(frag.kind);
        sub.by_tag.insert(frag.tag, id);
        sub.live += frag.total_len;
        self.entry_by_addr.insert(frag.start, id);
        self.frags.push(frag);
        id
    }

    /// Reserve the next `exits` stub indices for a fragment being built.
    /// Indices are globally unique across thread-private caches: each cache
    /// owns a disjoint range of `STUBS_PER_THREAD`, and `None` means this
    /// cache's range cannot hold them (indices are never reused).
    pub fn reserve_stubs(&mut self, frag: FragmentId, exits: usize) -> Option<u32> {
        let base = self.stubs.len();
        if base + exits > STUBS_PER_THREAD as usize {
            return None;
        }
        self.stubs
            .extend((0..exits).map(|exit_idx| StubRecord { frag, exit_idx }));
        Some(self.stub_offset + base as u32)
    }

    /// Pre-assign the fragment id the next [`CodeCache::insert`] will use.
    pub fn next_id(&self) -> FragmentId {
        FragmentId(self.frags.len() as u32)
    }

    /// Resolve a stub index (accepts this cache's global indices).
    pub fn stub(&self, index: u32) -> Option<StubRecord> {
        let local = index.checked_sub(self.stub_offset)?;
        self.stubs.get(local as usize).copied()
    }

    /// Borrow a fragment.
    pub fn frag(&self, id: FragmentId) -> &Fragment {
        &self.frags[id.0 as usize]
    }

    /// Mutably borrow a fragment.
    pub fn frag_mut(&mut self, id: FragmentId) -> &mut Fragment {
        &mut self.frags[id.0 as usize]
    }

    /// The fragment to execute for `tag`: the trace if one exists, else the
    /// basic block (paper: traces shadow their head blocks).
    pub fn lookup(&self, tag: u32) -> Option<FragmentId> {
        self.lookup_trace(tag).or_else(|| self.lookup_bb(tag))
    }

    /// The basic block for `tag`, ignoring traces.
    pub fn lookup_bb(&self, tag: u32) -> Option<FragmentId> {
        self.sub(FragmentKind::BasicBlock).by_tag.get(&tag).copied()
    }

    /// The trace for `tag`, if any.
    pub fn lookup_trace(&self, tag: u32) -> Option<FragmentId> {
        self.sub(FragmentKind::Trace).by_tag.get(&tag).copied()
    }

    /// The fragment whose entry is exactly the cache address `addr`.
    pub fn by_entry(&self, addr: u32) -> Option<FragmentId> {
        self.entry_by_addr.get(&addr).copied()
    }

    /// The fragment whose cache range contains `addr` — the lookup a fault
    /// needs, since a fault lands mid-body rather than at an entry point.
    /// Prefers a live fragment when ranges overlap with a deleted one whose
    /// bytes are still resident.
    pub fn frag_by_addr(&self, addr: u32) -> Option<FragmentId> {
        let mut found = None;
        for f in &self.frags {
            if f.contains(addr) {
                if !f.deleted {
                    return Some(f.id);
                }
                found.get_or_insert(f.id);
            }
        }
        found
    }

    /// Remove a fragment from the lookup tables (it can no longer be entered
    /// or linked; its bytes stay resident until control has left them).
    pub fn remove_from_maps(&mut self, id: FragmentId) {
        let &Fragment {
            tag, kind, start, ..
        } = self.frag(id);
        let by_tag = &mut self.sub_mut(kind).by_tag;
        if by_tag.get(&tag) == Some(&id) {
            by_tag.remove(&tag);
        }
        if self.entry_by_addr.get(&start) == Some(&id) {
            self.entry_by_addr.remove(&start);
        }
    }

    /// Iterate over all fragments ever created (including deleted ones).
    pub fn iter(&self) -> impl Iterator<Item = &Fragment> {
        self.frags.iter()
    }

    /// Number of fragments ever created.
    pub fn len(&self) -> usize {
        self.frags.len()
    }

    /// Whether no fragments exist.
    pub fn is_empty(&self) -> bool {
        self.frags.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_frag(tag: u32, kind: FragmentKind, start: u32) -> Fragment {
        Fragment {
            id: FragmentId(0),
            tag,
            kind,
            start,
            body_len: 10,
            total_len: 20,
            exits: Vec::new(),
            incoming: Vec::new(),
            is_trace_head: false,
            counter: 0,
            deleted: false,
            translations: Vec::new(),
            faults: 0,
            src_ranges: Vec::new(),
        }
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut c = CodeCache::new();
        let a = c.alloc(FragmentKind::BasicBlock, 33).unwrap();
        let b = c.alloc(FragmentKind::BasicBlock, 7).unwrap();
        assert_eq!(a % 16, 0);
        assert_eq!(b % 16, 0);
        assert!(b >= a + 33);
        let t = c.alloc(FragmentKind::Trace, 100).unwrap();
        assert!(t >= Image::CACHE_BASE + THREAD_SLICE / 2);
    }

    #[test]
    fn thread_caches_occupy_disjoint_regions_and_stub_spaces() {
        let mut c0 = CodeCache::for_thread(0);
        let mut c1 = CodeCache::for_thread(1);
        let (s0, e0) = c0.region();
        let (s1, e1) = c1.region();
        assert!(e0 <= s1 || e1 <= s0, "regions overlap");
        let a0 = c0.alloc(FragmentKind::BasicBlock, 64).unwrap();
        let a1 = c1.alloc(FragmentKind::BasicBlock, 64).unwrap();
        assert!(a0 < e0 && a0 >= s0);
        assert!(a1 < e1 && a1 >= s1);
        // Stub index spaces are disjoint and self-resolving.
        let id0 = c0.next_id();
        let id1 = c1.next_id();
        let b0 = c0.reserve_stubs(id0, 2).unwrap();
        let b1 = c1.reserve_stubs(id1, 2).unwrap();
        assert_ne!(b0, b1);
        assert!(c0.stub(b0).is_some());
        assert!(c0.stub(b1).is_none(), "foreign stub must not resolve");
        assert!(c1.stub(b1).is_some());
    }

    #[test]
    #[should_panic(expected = "too many threads")]
    fn thread_count_is_bounded() {
        let _ = CodeCache::for_thread(MAX_THREADS);
    }

    #[test]
    fn trace_shadows_basic_block() {
        let mut c = CodeCache::new();
        let bb_start = c.alloc(FragmentKind::BasicBlock, 16).unwrap();
        let bb = c.insert(dummy_frag(0x1000, FragmentKind::BasicBlock, bb_start));
        assert_eq!(c.lookup(0x1000), Some(bb));
        let tr_start = c.alloc(FragmentKind::Trace, 16).unwrap();
        let tr = c.insert(dummy_frag(0x1000, FragmentKind::Trace, tr_start));
        assert_eq!(c.lookup(0x1000), Some(tr));
        assert_eq!(c.lookup_bb(0x1000), Some(bb));
        assert_eq!(c.by_entry(bb_start), Some(bb));
        assert_eq!(c.by_entry(tr_start), Some(tr));
    }

    #[test]
    fn stub_records_round_trip() {
        let mut c = CodeCache::new();
        let id = c.next_id();
        let base = c.reserve_stubs(id, 3).unwrap();
        assert_eq!(base, 0);
        let rec = c.stub(base + 2).unwrap();
        assert_eq!(rec.frag, id);
        assert_eq!(rec.exit_idx, 2);
        assert!(c.stub(99).is_none());
    }

    #[test]
    fn stub_reservations_stay_inside_the_threads_range() {
        // The last thread's range ends where the clean-call sentinels
        // begin, so one index past it would read as clean call 0.
        let mut c = CodeCache::for_thread(MAX_THREADS - 1);
        let id = c.next_id();
        let per_thread = STUBS_PER_THREAD as usize;
        let base = c.reserve_stubs(id, per_thread - 1).unwrap();
        let last = c.reserve_stubs(id, 1).unwrap();
        assert_eq!(last, base + STUBS_PER_THREAD - 1);
        let sentinel = crate::config::layout::stub_sentinel(last);
        assert_eq!(crate::config::layout::stub_index(sentinel), Some(last));
        assert_eq!(c.reserve_stubs(id, 1), None);
        assert_eq!(c.reserve_stubs(id, 0), Some(last + 1));
        assert!(c.stub(last).is_some());
    }

    #[test]
    fn remove_from_maps_hides_fragment() {
        let mut c = CodeCache::new();
        let start = c.alloc(FragmentKind::BasicBlock, 16).unwrap();
        let id = c.insert(dummy_frag(0x2000, FragmentKind::BasicBlock, start));
        c.remove_from_maps(id);
        assert_eq!(c.lookup(0x2000), None);
        assert_eq!(c.by_entry(start), None);
        // Fragment data still accessible by id (bytes stay resident).
        assert_eq!(c.frag(id).tag, 0x2000);
        assert!(!c.frag(id).deleted);
        c.remove(id);
        assert!(c.frag(id).deleted);
    }

    #[test]
    fn link_target_excludes_trace_head_blocks_but_not_traces() {
        let mut c = CodeCache::new();
        let s = c.alloc(FragmentKind::BasicBlock, 16).unwrap();
        let bb = c.insert(dummy_frag(0x1000, FragmentKind::BasicBlock, s));
        assert_eq!(c.link_target(0x1000), Some(bb));
        c.frag_mut(bb).is_trace_head = true;
        assert_eq!(c.link_target(0x1000), None);
        let s = c.alloc(FragmentKind::Trace, 16).unwrap();
        let tr = c.insert(dummy_frag(0x1000, FragmentKind::Trace, s));
        c.frag_mut(tr).is_trace_head = true;
        assert_eq!(c.link_target(0x1000), Some(tr));
        c.remove(tr);
        assert_eq!(c.link_target(0x1000), None);
        assert_eq!(c.link_target(0x2000), None);
    }

    #[test]
    fn remove_does_not_clobber_replacement() {
        // After a replacement installs a new fragment for the same tag,
        // removing the old one must not hide the new one.
        let mut c = CodeCache::new();
        let s1 = c.alloc(FragmentKind::Trace, 16).unwrap();
        let old = c.insert(dummy_frag(0x3000, FragmentKind::Trace, s1));
        let s2 = c.alloc(FragmentKind::Trace, 16).unwrap();
        let new = c.insert(dummy_frag(0x3000, FragmentKind::Trace, s2));
        assert_eq!(c.lookup(0x3000), Some(new));
        c.remove_from_maps(old);
        assert_eq!(c.lookup(0x3000), Some(new));
    }

    #[test]
    fn frag_by_addr_finds_mid_body_addresses_and_prefers_live() {
        let mut c = CodeCache::new();
        let s1 = c.alloc(FragmentKind::BasicBlock, 32).unwrap();
        let a = c.insert(dummy_frag(0x4000, FragmentKind::BasicBlock, s1));
        assert_eq!(c.frag_by_addr(s1 + 5), Some(a));
        assert_eq!(c.frag_by_addr(s1 + 19), Some(a));
        assert_eq!(c.frag_by_addr(s1 + 20), None); // total_len is 20
        c.frag_mut(a).deleted = true;
        // Deleted fragments still resolve (bytes resident) unless a live
        // fragment covers the same address.
        assert_eq!(c.frag_by_addr(s1 + 5), Some(a));
    }

    #[test]
    fn alloc_reports_an_exhausted_sub_cache() {
        let mut c = CodeCache::new();
        // Each 4095-byte fragment takes a 16-byte-aligned 4 KiB chunk, so
        // exactly 16 MiB / 4 KiB of them fit in the trace slice.
        let mut n = 0;
        while c.alloc(FragmentKind::Trace, 4095).is_some() {
            n += 1;
        }
        assert_eq!(n, THREAD_SLICE / 2 / 4096);
        assert_eq!(c.alloc(FragmentKind::Trace, 1), None);
        assert_eq!(c.alloc(FragmentKind::BasicBlock, u32::MAX), None);
        // The bb slice is separate and untouched; a flush's allocator
        // reset makes the trace slice usable again.
        assert!(c.alloc(FragmentKind::BasicBlock, 16).is_some());
        c.reset_alloc(FragmentKind::Trace);
        let trace_base = Image::CACHE_BASE + THREAD_SLICE / 2;
        assert_eq!(c.alloc(FragmentKind::Trace, 16), Some(trace_base));
    }

    #[test]
    fn live_bytes_shrink_on_deletion_exactly_once() {
        let mut c = CodeCache::new();
        let s1 = c.alloc(FragmentKind::BasicBlock, 20).unwrap();
        let a = c.insert(dummy_frag(0x1000, FragmentKind::BasicBlock, s1));
        let s2 = c.alloc(FragmentKind::BasicBlock, 20).unwrap();
        let b = c.insert(dummy_frag(0x2000, FragmentKind::BasicBlock, s2));
        assert_eq!(c.live_bytes(FragmentKind::BasicBlock), 40);
        // The bump allocator's high-water mark never shrinks...
        assert!(c.next_start(FragmentKind::BasicBlock) - c.region().0 >= 40);
        c.remove(a);
        assert_eq!(c.live_bytes(FragmentKind::BasicBlock), 20);
        // ...and double-deletion must not double-count.
        c.remove(a);
        assert_eq!(c.live_bytes(FragmentKind::BasicBlock), 20);
        assert!(c.next_start(FragmentKind::BasicBlock) - c.region().0 >= 40);
        c.remove(b);
        assert_eq!(c.live_bytes(FragmentKind::BasicBlock), 0);
    }

    #[test]
    fn oldest_live_walks_in_fifo_order() {
        let mut c = CodeCache::new();
        let mut ids = Vec::new();
        for i in 0..3 {
            let s = c.alloc(FragmentKind::BasicBlock, 16).unwrap();
            ids.push(c.insert(dummy_frag(0x1000 + i * 0x100, FragmentKind::BasicBlock, s)));
        }
        assert_eq!(
            c.oldest_live(FragmentKind::BasicBlock, FragmentId(0)),
            Some(ids[0])
        );
        c.remove(ids[0]);
        assert_eq!(
            c.oldest_live(FragmentKind::BasicBlock, FragmentId(0)),
            Some(ids[1])
        );
        // Resuming from a cursor skips earlier ids without rescanning.
        assert_eq!(
            c.oldest_live(FragmentKind::BasicBlock, ids[2]),
            Some(ids[2])
        );
        // The FIFO head has moved past the tombstone.
        assert_eq!(c.sub(FragmentKind::BasicBlock).fifo, ids[1].0);
        c.remove(ids[1]);
        c.remove(ids[2]);
        assert_eq!(c.oldest_live(FragmentKind::BasicBlock, FragmentId(0)), None);
    }

    #[test]
    fn src_range_overlap_detects_any_constituent_block() {
        let mut f = dummy_frag(0x5000, FragmentKind::Trace, 0x100);
        f.src_ranges = vec![(0x5000, 0x5010), (0x7000, 0x7008)];
        assert!(f.overlaps_src(0x5008, 0x500C));
        assert!(!f.overlaps_src(0x700F, 0x7010));
        assert!(f.overlaps_src(0x7004, 0x7005));
        assert!(!f.overlaps_src(0x5010, 0x7000)); // gap between blocks
        assert!(!f.overlaps_src(0x4FFF, 0x5000)); // half-open boundaries
    }

    #[test]
    fn translate_picks_last_row_at_or_before_the_address() {
        let mut f = dummy_frag(0x5000, FragmentKind::BasicBlock, 0x100);
        f.translations = vec![
            Translation {
                cache_off: 0,
                app_pc: 0x5000,
                ecx_spilled: false,
                linear: false,
            },
            Translation {
                cache_off: 4,
                app_pc: 0x5002,
                ecx_spilled: true,
                linear: false,
            },
        ];
        assert_eq!(f.translate(0x100).unwrap().app_pc, 0x5000);
        assert_eq!(f.translate(0x103).unwrap().app_pc, 0x5000);
        let t = f.translate(0x109).unwrap();
        assert_eq!(t.app_pc, 0x5002);
        assert!(t.ecx_spilled);
        assert_eq!(f.translate(0xFF), None); // before the fragment
    }

    #[test]
    fn linear_rows_translate_bundle_interiors_precisely() {
        let mut f = dummy_frag(0x5000, FragmentKind::BasicBlock, 0x100);
        f.translations = vec![
            // A verbatim 9-byte bundle of app instructions at 0x5000.
            Translation {
                cache_off: 0,
                app_pc: 0x5000,
                ecx_spilled: false,
                linear: true,
            },
            // The mangled block terminator.
            Translation {
                cache_off: 9,
                app_pc: 0x5009,
                ecx_spilled: false,
                linear: false,
            },
        ];
        assert_eq!(f.translate(0x100).unwrap().app_pc, 0x5000);
        // Interior of the bundle: byte offsets map 1:1 onto app pcs.
        assert_eq!(f.translate(0x103).unwrap().app_pc, 0x5003);
        assert_eq!(f.translate(0x108).unwrap().app_pc, 0x5008);
        // Past the bundle the non-linear terminator row wins.
        assert_eq!(f.translate(0x10C).unwrap().app_pc, 0x5009);
    }
}
