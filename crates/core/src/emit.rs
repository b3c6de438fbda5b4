//! Fragment emission: placing a mangled `InstrList` into the code cache.
//!
//! Emission scans the list for exit CTIs (direct branches targeting
//! application addresses, and indirect-branch exit jumps targeting the
//! lookup sentinel), materializes one exit stub per exit — including any
//! client-supplied custom stub instructions (§3.2) — encodes the whole list
//! into cache memory, and records the displacement words that linking will
//! patch.
//!
//! Emission works in storage that outlives it: the [`CodeCache`] keeps the
//! encoded list, the exit scan and the translation rows, and the engine
//! keeps the list every basic block is decoded into, mangled in and emitted
//! from ([`decode_bb_into`](crate::build::decode_bb_into)). So a warm
//! engine builds a block with no allocation but the records its fragment
//! keeps: the exit list, the translation table and the source ranges.

use std::borrow::BorrowMut;
use std::error::Error;
use std::fmt;

use rio_ia32::encode::EncodedList;
use rio_ia32::{create, EncodeError, Instr, InstrId, InstrList, Level, Opcode, Target};
use rio_sim::{Image, Machine};

use crate::cache::{
    CodeCache, Exit, ExitKind, Fragment, FragmentId, FragmentKind, IndKind, Translation, Word,
};
use crate::config::layout;
use crate::mangle::Note;

/// Errors from fragment emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitError {
    /// The list failed to encode.
    Encode(EncodeError),
    /// The fragment's sub-cache has no address space left.
    CacheExhausted,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Encode(e) => write!(f, "fragment encoding failed: {e}"),
            EmitError::CacheExhausted => write!(f, "code cache exhausted"),
        }
    }
}

impl Error for EmitError {}

impl From<EncodeError> for EmitError {
    fn from(e: EncodeError) -> EmitError {
        EmitError::Encode(e)
    }
}

/// A client-supplied custom exit stub: instructions prepended to the stub
/// for `exit_instr`, and whether the exit must route through the stub even
/// when linked.
#[derive(Debug)]
pub struct CustomStub {
    /// The exit CTI this stub belongs to.
    pub exit_instr: InstrId,
    /// Instructions to prepend to the stub.
    pub instrs: InstrList,
    /// Keep routing through the stub after linking.
    pub force_stub: bool,
}

/// Classify an instruction as an exit CTI of a cache-ready list.
fn exit_kind_of(instr: &Instr) -> Option<ExitKind> {
    let op = instr.opcode().filter(|_| instr.is_cti())?;
    // Mangling removes all indirect CTIs (which have no target); none
    // should remain.
    debug_assert!(!op.is_indirect_cti(), "unmangled indirect CTI reached emit");
    match instr.target() {
        Some(Target::Pc(p)) if p == layout::IB_LOOKUP => {
            let kind = match Note::parse(instr.note) {
                Some(Note::IbExit(k)) => k,
                _ => IndKind::Jmp,
            };
            Some(ExitKind::Indirect { kind })
        }
        Some(Target::Pc(p)) if p < Image::CACHE_BASE => Some(ExitKind::Direct { target: p }),
        _ => None,
    }
}

/// The storage emission reuses from one fragment to the next: the encoded
/// list, the exit scan (branch, kind, link-word and fixed-word
/// instructions) and the translation rows.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    encoded: EncodedList,
    exits: Vec<(InstrId, ExitKind, InstrId, Option<InstrId>)>,
    translations: Vec<Translation>,
}

/// Emit `il` (owned or borrowed; left mangled for emission) as a fragment
/// of the given kind for `tag`.
///
/// `custom_stubs` carries any client-requested exit-stub additions (matched
/// by exit instruction id). `src_ranges` lists the application `[start,
/// end)` span of every constituent block (one for a basic block, one per
/// stitched block for a trace) — the index precise invalidation consults
/// when a guest write lands in application code.
///
/// # Errors
///
/// Returns [`EmitError`] if the list cannot be encoded or its sub-cache
/// has no room or stub indices left. The cache then drops its scratch
/// storage.
pub fn emit_fragment(
    machine: &mut Machine,
    cache: &mut CodeCache,
    kind: FragmentKind,
    tag: u32,
    mut il: impl BorrowMut<InstrList>,
    mut custom_stubs: Vec<CustomStub>,
    src_ranges: impl Into<Vec<(u32, u32)>>,
) -> Result<FragmentId, EmitError> {
    let (il, mut s) = (il.borrow_mut(), std::mem::take(&mut cache.scratch));
    // Find the exits, each its own link word for now. A jecxz exit cannot
    // encode a rel32 target: a trampoline jmp at the start of the stub area
    // (in rel8 range), which the scan reaches last, is the exit in its place.
    let boundary = il.push_back(Instr::label());
    s.exits.clear();
    let mut next = il.first_id();
    while let Some(id) = next {
        next = il.next_id(id);
        let i = il.get(id);
        let Some(kind) = exit_kind_of(i) else {
            continue;
        };
        if i.opcode() == Some(Opcode::Jecxz) {
            let target = i.target().expect("an exit has a target");
            let lbl = il.push_back(Instr::label());
            il.push_back(create::jmp(target));
            il.get_mut(id).set_target(Target::Instr(lbl));
        } else {
            s.exits.push((id, kind, id, None));
        }
    }

    // Give the `i`th exit stub `stub_base + i`. A custom stub adds the
    // stub's `jmp`, and forcing the stub makes that `jmp` the word linking
    // patches.
    let frag_id = cache.next_id();
    let stub_base = cache
        .reserve_stubs(frag_id, s.exits.len())
        .ok_or(EmitError::CacheExhausted)?;
    for (stub, (branch, _, link, fixed)) in (stub_base..).zip(&mut s.exits) {
        let sentinel = Target::Pc(layout::stub_sentinel(stub));
        let Some(pos) = custom_stubs.iter().position(|c| c.exit_instr == *branch) else {
            il.get_mut(*branch).set_target(sentinel);
            continue;
        };
        let custom = custom_stubs.swap_remove(pos);
        let entry = il.push_back(Instr::label());
        il.append(custom.instrs);
        let stub_jmp = il.push_back(create::jmp(sentinel));
        il.get_mut(*branch).set_target(Target::Instr(entry));
        if custom.force_stub {
            (*link, *fixed) = (stub_jmp, Some(*branch));
        } else {
            *fixed = Some(stub_jmp);
        }
    }

    // Encode once, at the address the sub-cache's bump allocator hands out
    // next, then allocate exactly that span.
    let at = cache.next_start(kind);
    let encoded = &mut s.encoded;
    encoded.encode(il, at)?;
    let total_len = encoded.bytes.len() as u32;
    let start = cache
        .alloc(kind, total_len)
        .ok_or(EmitError::CacheExhausted)?;
    debug_assert_eq!(start, at, "fragment encoded for a different address");
    machine.mem.write_bytes(start, &encoded.bytes);
    // Only the decodes overlapping the freshly written bytes can be stale;
    // emitting a fragment no longer wipes unrelated decodes.
    machine.invalidate_code_range(start, total_len);

    let offset_of = |id: InstrId| encoded.offset_of(id).expect("instr was encoded");
    let len_of = |id: InstrId| encoded.len_of(id).expect("instr was encoded");

    let body_len = offset_of(boundary);

    // Build the fault-translation table: one row per encoded body
    // instruction, recording the application pc it translates and whether
    // the application's %ecx lives in the spill slot at its start.
    // Mangling-inserted instructions (zero `app_pc`) inherit the pc of the
    // application instruction they expand; anything before the first
    // app-tagged instruction belongs to the block entry (`tag`).
    s.translations.clear();
    let mut spilled = false;
    let mut cur_pc = tag;
    for iid in il.ids().take_while(|&id| id != boundary) {
        let instr = il.get(iid);
        // Skip zero-width labels — but not Level 0 bundles, which also have
        // no single opcode yet occupy bytes and need a translation row.
        if instr.is_label() {
            continue;
        }
        if instr.app_pc() != 0 {
            cur_pc = instr.app_pc();
        }
        s.translations.push(Translation {
            cache_off: offset_of(iid),
            app_pc: cur_pc,
            ecx_spilled: spilled,
            // Level 0 bundles are copied into the cache verbatim, so one
            // row translates the whole bundle by linear offset.
            linear: instr.level() == Level::L0,
        });
        // The spill itself executes with %ecx intact (faults are precise),
        // so the state flips *after* the marked instruction; likewise the
        // restore ends the spilled region only once it has executed.
        match Note::parse(instr.note) {
            Some(Note::Spill) | Some(Note::IbCheckBegin { .. }) => spilled = true,
            Some(Note::IbCheckEnd) => spilled = false,
            _ => {}
        }
    }

    // A word rests, unlinked, where its instruction was just encoded to go.
    let word = |id: InstrId| {
        let addr = start + offset_of(id) + len_of(id) - 4;
        Word {
            addr,
            unlinked: Word::resolve(&machine.mem, addr),
        }
    };
    let exits: Vec<Exit> = (stub_base..)
        .zip(&s.exits)
        .map(|(stub, &(branch, kind, link, fixed))| Exit {
            kind,
            stub,
            link_word: word(link),
            fixed_word: fixed.map(word),
            linked_to: None,
            branch_instr_off: offset_of(branch),
        })
        .collect();

    let id = cache.insert(Fragment {
        id: frag_id,
        tag,
        kind,
        start,
        body_len,
        total_len,
        exits,
        incoming: Vec::new(),
        is_trace_head: false,
        counter: 0,
        deleted: false,
        translations: s.translations.to_vec(),
        faults: 0,
        src_ranges: src_ranges.into(),
    });
    debug_assert_eq!(id, frag_id);
    cache.scratch = s;
    Ok(id)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mangle::mangle_bb;
    use rio_ia32::{MemRef, OpSize, Opnd, Reg};
    use rio_sim::{CpuKind, ExecRegion};

    /// Decode, mangle and emit the block `bytes` at `tag`. With
    /// `force_stub`, its last exit gets a custom stub that increments
    /// `SCRATCH_SLOT`, forced or not.
    fn emit_into(
        m: &mut Machine,
        cache: &mut CodeCache,
        bytes: &[u8],
        tag: u32,
        force_stub: Option<bool>,
    ) -> FragmentId {
        let mut il = InstrList::decode_block(bytes, tag, Level::L3).unwrap();
        let end = tag + bytes.len() as u32;
        mangle_bb(&mut il, end);
        let stub = force_stub.map(|force_stub| {
            let mut instrs = InstrList::new();
            let slot = MemRef::absolute(layout::SCRATCH_SLOT, OpSize::S32);
            instrs.push_back(create::inc(Opnd::Mem(slot)));
            let exit_instr = il.last_id().unwrap();
            CustomStub {
                exit_instr,
                instrs,
                force_stub,
            }
        });
        let stubs = stub.into_iter().collect();
        emit_fragment(
            m,
            cache,
            FragmentKind::BasicBlock,
            tag,
            il,
            stubs,
            vec![(tag, end)],
        )
        .unwrap()
    }

    fn emit_block(bytes: &[u8], tag: u32) -> (Machine, CodeCache, FragmentId) {
        let mut m = Machine::new(CpuKind::Pentium4);
        let mut cache = CodeCache::new();
        let id = emit_into(&mut m, &mut cache, bytes, tag, None);
        (m, cache, id)
    }

    /// Two unlinked blocks, ready to run: A at tag 0x1000 (`jmp 0x2000`,
    /// with a custom stub per [`emit_into`]) and B at tag 0x2000
    /// (`mov $9, %eax; hlt`).
    pub(crate) fn two_blocks(
        force_stub: Option<bool>,
    ) -> (Machine, CodeCache, FragmentId, FragmentId) {
        let mut m = Machine::new(CpuKind::Pentium4);
        let mut cache = CodeCache::new();
        let fa = emit_into(
            &mut m,
            &mut cache,
            &[0xE9, 0xFB, 0x0F, 0, 0],
            0x1000,
            force_stub,
        );
        let fb = emit_into(&mut m, &mut cache, &[0xB8, 9, 0, 0, 0, 0xF4], 0x2000, None);
        m.set_exec_region(ExecRegion::new(Image::CACHE_BASE, Image::CACHE_END));
        (m, cache, fa, fb)
    }

    #[test]
    fn direct_jmp_block_has_one_exit() {
        // mov eax,1 ; jmp +0x10
        let (m, cache, id) = emit_block(&[0xB8, 1, 0, 0, 0, 0xE9, 0x10, 0, 0, 0], 0x1000);
        let f = cache.frag(id);
        assert_eq!(f.exits.len(), 1);
        assert!(matches!(
            f.exits[0].kind,
            ExitKind::Direct { target: 0x101a }
        ));
        // The branch is the link word, resting on the stub sentinel.
        let w = f.exits[0].link_word;
        assert_eq!(w.unlinked, layout::stub_sentinel(f.exits[0].stub));
        assert_eq!(Word::resolve(&m.mem, w.addr), w.unlinked);
        assert_eq!(w.addr, f.start + f.exits[0].branch_instr_off + 1);
        assert_eq!(f.exits[0].fixed_word, None);
    }

    #[test]
    fn jcc_block_has_two_exits() {
        // jz +5 at 0x1000
        let (_, cache, id) = emit_block(&[0x74, 0x05], 0x1000);
        let f = cache.frag(id);
        assert_eq!(f.exits.len(), 2);
        assert!(matches!(
            f.exits[0].kind,
            ExitKind::Direct { target: 0x1007 }
        ));
        assert!(matches!(
            f.exits[1].kind,
            ExitKind::Direct { target: 0x1002 }
        ));
    }

    #[test]
    fn ret_block_has_indirect_exit() {
        let (_, cache, id) = emit_block(&[0xC3], 0x1000);
        let f = cache.frag(id);
        assert_eq!(f.exits.len(), 1);
        assert!(matches!(
            f.exits[0].kind,
            ExitKind::Indirect { kind: IndKind::Ret }
        ));
    }

    #[test]
    fn body_len_excludes_stub_area() {
        let (_, cache, id) = emit_block(&[0xB8, 1, 0, 0, 0, 0xC3], 0x1000);
        let f = cache.frag(id);
        assert!(f.body_len > 0);
        assert!(f.body_len <= f.total_len);
    }

    #[test]
    fn translation_table_maps_cache_offsets_and_tracks_the_spill() {
        // mov eax,1 (app 0x1000) ; ret (app 0x1005, mangled to
        // spill/pop/exit-jmp which all inherit the ret's pc).
        let (_, cache, id) = emit_block(&[0xB8, 1, 0, 0, 0, 0xC3], 0x1000);
        let f = cache.frag(id);
        assert_eq!(f.translations.len(), 4);
        assert_eq!(
            f.translations[0],
            Translation {
                cache_off: 0,
                app_pc: 0x1000,
                ecx_spilled: false,
                linear: false
            }
        );
        // The spill itself still sees the app's %ecx; everything after it
        // until the exit is in the spilled region.
        assert_eq!(f.translations[1].app_pc, 0x1005);
        assert!(!f.translations[1].ecx_spilled);
        assert!(f.translations[2].ecx_spilled);
        assert!(f.translations[3].ecx_spilled);
        // A fault mid-body (at the pop) translates to the ret's app pc.
        let t = f.translate(f.start + f.translations[2].cache_off).unwrap();
        assert_eq!(t.app_pc, 0x1005);
        assert!(t.ecx_spilled);
    }

    #[test]
    fn custom_stub_instructions_are_emitted() {
        for force_stub in [false, true] {
            let (m, cache, id, _) = two_blocks(Some(force_stub));
            let f = cache.frag(id);
            // The stub area contains the inc: find the 0xFF opcode of inc m32.
            let mut bytes = vec![0u8; f.total_len as usize];
            m.mem.read_bytes(f.start, &mut bytes);
            assert!(bytes[f.body_len as usize..].contains(&0xFF));
            // The branch rests on the stub entry, the stub's jmp on the
            // sentinel; forcing the stub makes the jmp the link word.
            let exit = &f.exits[0];
            let fixed = exit.fixed_word.unwrap();
            let (branch, stub_jmp) = if force_stub {
                (fixed, exit.link_word)
            } else {
                (exit.link_word, fixed)
            };
            assert_eq!(branch.addr, f.start + exit.branch_instr_off + 1);
            assert!(branch.unlinked >= f.start + f.body_len);
            assert!(branch.unlinked < stub_jmp.addr);
            assert_eq!(stub_jmp.unlinked, layout::stub_sentinel(exit.stub));
            for w in [branch, stub_jmp] {
                assert_eq!(Word::resolve(&m.mem, w.addr), w.unlinked);
            }
        }
    }

    #[test]
    fn reused_scratch_emits_what_a_fresh_cache_does() {
        // A jecxz exit (a trampoline and a labelled re-encode), a forced
        // custom stub, a plain block, then the first block again.
        let blocks: [(&[u8], u32, Option<bool>); 4] = [
            (&[0xE3, 0x05], 0x1000, None),
            (&[0xE9, 0xFB, 0x0F, 0, 0], 0x2000, Some(true)),
            (&[0xB8, 1, 0, 0, 0, 0xC3], 0x3000, None),
            (&[0xE3, 0x05], 0x1000, None),
        ];
        let bytes_of = |m: &Machine, f: &Fragment| {
            let mut bytes = vec![0u8; f.total_len as usize];
            m.mem.read_bytes(f.start, &mut bytes);
            bytes
        };
        let mut m = Machine::new(CpuKind::Pentium4);
        let mut cache = CodeCache::new();
        for (bytes, tag, stub) in blocks {
            let id = emit_into(&mut m, &mut cache, bytes, tag, stub);
            let warm = cache.frag(id);
            // The same block into a fresh cache, brought to the same
            // address and stub index first.
            let mut fresh_m = Machine::new(CpuKind::Pentium4);
            let mut fresh = CodeCache::new();
            fresh.alloc(FragmentKind::BasicBlock, warm.start - fresh.region().0);
            let first_stub = warm.exits[0].stub as usize;
            fresh.reserve_stubs(fresh.next_id(), first_stub).unwrap();
            let id = emit_into(&mut fresh_m, &mut fresh, bytes, tag, stub);
            let cold = fresh.frag(id);
            assert_eq!(cold.start, warm.start);
            assert_eq!(
                bytes_of(&fresh_m, cold),
                bytes_of(&m, warm),
                "block {tag:#x}"
            );
            assert_eq!(cold.exits, warm.exits);
            assert_eq!(cold.translations, warm.translations);
            assert_eq!(cold.body_len, warm.body_len);
        }
    }

    #[test]
    fn emitted_block_executes_to_stub_sentinel() {
        let (mut m, cache, id) = emit_block(&[0xB8, 7, 0, 0, 0, 0xE9, 0x10, 0, 0, 0], 0x1000);
        let f = cache.frag(id);
        m.set_exec_region(ExecRegion::new(Image::CACHE_BASE, Image::CACHE_END));
        m.cpu.eip = f.start;
        let exit = m.run();
        assert_eq!(
            exit,
            rio_sim::CpuExit::OutOfRegion(layout::stub_sentinel(f.exits[0].stub))
        );
        assert_eq!(m.cpu.reg(Reg::Eax), 7);
    }
}
