//! Static verification: the cache verifier and the client-safety lints.
//!
//! After emission, linking, invalidation, and eviction have all mutated the
//! code cache, nothing in the running engine re-checks that the *bytes* in
//! the cache still agree with the engine's metadata. This module closes
//! that gap in the spirit of DynamoRIO's `-checklevel` consistency asserts
//! and the closed-cache property program shepherding depends on: it decodes
//! the actual encoded bytes of every live fragment and checks the
//! structural invariants the rest of the engine merely assumes.
//!
//! Two halves:
//!
//! * **Cache verifier** (`verify_fragment`, surfaced as
//!   `Core::verify_cache`): every byte decodes cleanly; every control-flow
//!   target is within-fragment, a registered exit stub, a linked fragment
//!   entry recorded in the link maps, or an engine entry point; each
//!   exit's link word resolves to its linked fragment's entry (or rests on
//!   its unlinked target), its fixed word rests on its own target, and the
//!   backward link maps agree;
//!   translation-table rows are strictly increasing, land on instruction
//!   boundaries, and cover the whole body; `%ecx` spill regions derived
//!   from the bytes agree with the rows and are balanced at every exit; and
//!   `src_ranges` lie inside the watched application code.
//!
//! * **Client-safety lints** (`LintSnapshot`): around every client hook
//!   that may edit an [`InstrList`], a snapshot of per-instruction write
//!   effects is diffed against the post-hook list under a backward liveness
//!   analysis. Client-*inserted* code must not clobber live application
//!   registers or flag bits (instrumentation safety, validating `shepherd`'s
//!   clean calls), and client *edits* may only add writes to registers and
//!   flags proven dead (transformation safety, validating `inc2add` and
//!   `rlr`).

use std::fmt;

use rio_ia32::decode::{decode_operands, Operands};
use rio_ia32::liveness::{effects, Liveness, RegSet};
use rio_ia32::{Eflags, InstrId, InstrList, MemRef, OpSize, Opcode, Opnd, Reg};
use rio_sim::{Image, Machine};

use crate::cache::{CodeCache, ExitKind, FragmentId, Word};
use crate::config::layout;

/// Which invariant a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// A cache byte range failed to decode as instructions.
    Decode,
    /// A control-flow target escapes the closed world (not within-fragment,
    /// not a registered stub, not a live fragment entry, not an engine
    /// entry point).
    Cfg,
    /// A patched displacement word disagrees with the exit's recorded link
    /// state.
    LinkForward,
    /// A linked target's `incoming` list does not record the link (or
    /// records one that does not exist).
    LinkBackward,
    /// Translation rows are not strictly increasing, point off instruction
    /// boundaries, or fail to cover the body.
    Translation,
    /// The `%ecx` spill state derived from the bytes disagrees with the
    /// translation rows, or is unbalanced at a fragment exit.
    EcxBalance,
    /// A recorded source range lies outside the watched application code.
    SrcRanges,
    /// Client-inserted code clobbers a live application register or flag.
    InstrumentationLint,
    /// A client edit writes a register or flag not proven dead.
    TransformationLint,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Check::Decode => "decode",
            Check::Cfg => "cfg",
            Check::LinkForward => "link-forward",
            Check::LinkBackward => "link-backward",
            Check::Translation => "translation",
            Check::EcxBalance => "ecx-balance",
            Check::SrcRanges => "src-ranges",
            Check::InstrumentationLint => "lint-instrumentation",
            Check::TransformationLint => "lint-transformation",
        };
        write!(f, "{s}")
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Thread whose cache (or hook) the violation was found in.
    pub thread: usize,
    /// Tag of the offending fragment (or the block/trace being built).
    pub tag: u32,
    /// The invariant broken.
    pub check: Check,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] t{} tag={:#010x}: {}",
            self.check, self.thread, self.tag, self.detail
        )
    }
}

// ---------------------------------------------------------------------------
// Cache verifier
// ---------------------------------------------------------------------------

/// A fragment's instructions as the verifier decodes them: each one's
/// offset in the fragment and its operands, with no `Instr` in between.
pub(crate) type Decoded = Vec<(u32, Operands<Opnd>)>;

/// Verify every structural invariant of one live fragment against the
/// actual bytes in cache memory. `clean_call_count` bounds the valid
/// clean-call sentinel tokens; `app_code_range` is the watched application
/// code span. `decoded` is scratch space, reused across calls so a clean
/// fragment allocates nothing.
pub(crate) fn verify_fragment(
    machine: &Machine,
    cache: &CodeCache,
    thread: usize,
    id: FragmentId,
    app_code_range: (u32, u32),
    clean_call_count: u32,
    decoded: &mut Decoded,
) -> Vec<Violation> {
    let frag = cache.frag(id);
    let mut v = Vec::new();
    let mut report = |check: Check, detail: String| {
        v.push(Violation {
            thread,
            tag: frag.tag,
            check,
            detail,
        });
    };

    // (1) Every byte in [start, start + total_len) decodes cleanly.
    decoded.clear();
    let mut pc = frag.start;
    let end = frag.start + frag.total_len;
    let mut buf = [0u8; 16];
    while pc < end {
        machine.mem.read_bytes(pc, &mut buf);
        match decode_operands(&buf, pc) {
            Ok(ops) => {
                decoded.push((pc - frag.start, ops));
                pc += ops.len;
            }
            Err(e) => {
                report(
                    Check::Decode,
                    format!(
                        "undecodable byte at cache offset {:#x}: {e}",
                        pc - frag.start
                    ),
                );
                // The rest of the walk would be misaligned; stop here.
                return v;
            }
        }
    }
    if pc != end {
        report(
            Check::Decode,
            format!(
                "instruction lengths overshoot the fragment: decode ends at {:#x}, \
                 fragment at {:#x}",
                pc, end
            ),
        );
        return v;
    }

    let decoded = &*decoded;
    let on_boundary = |off: u32| decoded.binary_search_by_key(&off, |(o, _)| *o).is_ok();
    let body = || decoded.iter().filter(|(off, _)| *off < frag.body_len);

    // (2) Closed-world control flow: classify every decoded CTI target (a
    // decoded `Pc` operand is always a direct CTI's first source).
    for (off, ops) in decoded {
        let Some(&Opnd::Pc(t)) = ops.srcs().first() else {
            continue;
        };
        let within = t >= frag.start && t < end;
        let ok = if within {
            on_boundary(t - frag.start)
        } else if t == layout::IB_LOOKUP {
            true
        } else if let Some(k) = layout::clean_call_index(t) {
            k < clean_call_count
        } else if let Some(k) = layout::stub_index(t) {
            // An exit to a stub sentinel must be this fragment's own stub.
            cache.stub(k).is_some_and(|rec| rec.frag == id)
        } else if (Image::CACHE_BASE..Image::CACHE_END).contains(&t) {
            // A branch into the cache must land exactly on a live
            // fragment's entry — anything else is an escape into the
            // middle of foreign code.
            cache
                .by_entry(t)
                .is_some_and(|dst| !cache.frag(dst).deleted)
        } else {
            false
        };
        if !ok {
            report(
                Check::Cfg,
                format!(
                    "branch at cache offset {off:#x} targets {t:#010x}, which is not \
                     within-fragment, a registered stub, a live fragment entry, or an \
                     engine entry point"
                ),
            );
        }
    }

    // (3)+(4) Link agreement: every exit's link word resolves to its linked
    // fragment's entry (or rests unlinked), and its fixed word never moves.
    for (i, exit) in frag.exits.iter().enumerate() {
        let mut want = exit.link_word.unlinked;
        if let Some(dst) = exit.linked_to {
            let dst_frag = cache.frag(dst);
            want = dst_frag.start;
            if matches!(exit.kind, ExitKind::Indirect { .. }) {
                report(
                    Check::LinkForward,
                    format!("indirect exit {i} claims a direct link"),
                );
            }
            if dst_frag.deleted {
                report(
                    Check::LinkForward,
                    format!("exit {i} is linked to deleted fragment {}", dst.0),
                );
            }
            if !dst_frag.incoming.contains(&(id, i)) {
                report(
                    Check::LinkBackward,
                    format!(
                        "exit {i} is linked to fragment {} but its incoming list does not \
                         record the link",
                        dst.0
                    ),
                );
            }
        }
        let fixed = exit.fixed_word.map(|w| (w, w.unlinked));
        for (word, want) in [(exit.link_word, want)].into_iter().chain(fixed) {
            let got = Word::resolve(&machine.mem, word.addr);
            if got != want {
                report(
                    Check::LinkForward,
                    format!(
                        "exit {i} word at {:#010x} resolves to {got:#010x}, expected \
                         {want:#010x}",
                        word.addr
                    ),
                );
            }
        }
    }
    // (4) Backward agreement: every incoming record must name a live source
    // whose exit is actually linked here.
    for (src, exit_idx) in &frag.incoming {
        let src_frag = cache.frag(*src);
        let ok = !src_frag.deleted
            && src_frag
                .exits
                .get(*exit_idx)
                .is_some_and(|e| e.linked_to == Some(id));
        if !ok {
            report(
                Check::LinkBackward,
                format!(
                    "incoming record ({}, {exit_idx}) does not correspond to a live \
                     linked exit",
                    src.0
                ),
            );
        }
    }

    // (5) Translation rows: strictly increasing, on instruction boundaries,
    // first row at offset zero, all within the body, covering every body
    // instruction (directly or through a linear Level-0 bundle row).
    let rows = &frag.translations;
    let body_instrs = body().count();
    if rows.is_empty() && body_instrs > 0 {
        report(
            Check::Translation,
            "no translation rows for a non-empty body".into(),
        );
    }
    if let Some(first) = rows.first() {
        if first.cache_off != 0 {
            report(
                Check::Translation,
                format!(
                    "first translation row starts at {:#x}, not 0",
                    first.cache_off
                ),
            );
        }
    }
    for w in rows.windows(2) {
        if w[1].cache_off <= w[0].cache_off {
            report(
                Check::Translation,
                format!(
                    "translation rows not strictly increasing: {:#x} then {:#x}",
                    w[0].cache_off, w[1].cache_off
                ),
            );
        }
    }
    for row in rows {
        if row.cache_off >= frag.body_len {
            report(
                Check::Translation,
                format!(
                    "translation row at {:#x} lies outside the body (len {:#x})",
                    row.cache_off, frag.body_len
                ),
            );
        } else if !on_boundary(row.cache_off) {
            report(
                Check::Translation,
                format!(
                    "translation row at {:#x} is not on an instruction boundary",
                    row.cache_off
                ),
            );
        }
        let (app_lo, app_hi) = app_code_range;
        if !(app_lo..app_hi).contains(&row.app_pc) {
            report(
                Check::Translation,
                format!(
                    "translation row at {:#x} names app pc {:#010x}, outside the \
                     application code range {app_lo:#010x}..{app_hi:#010x}",
                    row.cache_off, row.app_pc
                ),
            );
        }
    }
    // Coverage: every decoded body instruction must translate.
    for (off, _) in body() {
        let covered = frag
            .translate(frag.start + off)
            .is_some_and(|t| t.linear || rows.iter().any(|r| r.cache_off == *off));
        if !covered {
            report(
                Check::Translation,
                format!("body instruction at offset {off:#x} has no translation row"),
            );
        }
    }

    // (6) %ecx spill balance: derive the spill state from the bytes (a
    // store of %ecx to its slot opens a region, a load back closes it) and
    // require the translation rows and every exit to agree.
    let ecx_slot = MemRef::absolute(layout::ECX_SLOT, OpSize::S32);
    let mut spilled = false;
    for (off, ops) in body() {
        if let Some(row) = frag.translate(frag.start + off) {
            if row.ecx_spilled != spilled {
                report(
                    Check::EcxBalance,
                    format!(
                        "at cache offset {off:#x} the bytes imply %ecx spilled={spilled} \
                         but the translation row says {}",
                        row.ecx_spilled
                    ),
                );
                // Trust the bytes for the remainder of the walk.
            }
        }
        if let Some(exit) = frag.exits.iter().find(|e| e.branch_instr_off == *off) {
            match exit.kind {
                ExitKind::Indirect { .. } if !spilled => report(
                    Check::EcxBalance,
                    format!("indirect exit at offset {off:#x} reached without %ecx spilled"),
                ),
                ExitKind::Direct { .. } if spilled => report(
                    Check::EcxBalance,
                    format!("direct exit at offset {off:#x} leaves %ecx spilled"),
                ),
                _ => {}
            }
        }
        if ops.op == Opcode::Mov {
            let store = ops.dsts().first().and_then(Opnd::as_mem) == Some(&ecx_slot)
                && ops.srcs().first().and_then(Opnd::as_reg) == Some(Reg::Ecx);
            let load = ops.dsts().first().and_then(Opnd::as_reg) == Some(Reg::Ecx)
                && ops.srcs().first().and_then(Opnd::as_mem) == Some(&ecx_slot);
            if store {
                spilled = true;
            } else if load {
                spilled = false;
            }
        }
    }

    // (7) Source ranges lie inside the watched application code.
    let (app_lo, app_hi) = app_code_range;
    for (lo, hi) in &frag.src_ranges {
        if lo >= hi || *lo < app_lo || *hi > app_hi {
            report(
                Check::SrcRanges,
                format!(
                    "source range {lo:#010x}..{hi:#010x} is empty or outside the watched \
                     application code {app_lo:#010x}..{app_hi:#010x}"
                ),
            );
        }
    }

    v
}

// ---------------------------------------------------------------------------
// Client-safety lints
// ---------------------------------------------------------------------------

/// Pre-hook snapshot of an [`InstrList`]'s write effects, diffed after the
/// hook by [`LintSnapshot::check`]. Its buffers are kept and refilled by
/// each [`LintSnapshot::capture`].
#[derive(Default)]
pub(crate) struct LintSnapshot {
    /// Per-instruction written registers and flags, indexed by the id's slot
    /// ([`InstrId::raw`](rio_ia32::InstrId::raw)) — survives in-place edits
    /// ([`InstrList::replace`] keeps the id).
    by_id: Vec<Option<(RegSet, Eflags)>>,
    /// Write aggregate per application pc, sorted by pc, for edits that
    /// re-create instructions rather than keep their ids.
    by_pc: Vec<(u32, RegSet, Eflags)>,
}

/// An instruction that writes registers or flags its pre-hook self did not:
/// a lint violation if any of them is live after it.
struct ExtraWrites {
    id: InstrId,
    regs: RegSet,
    flags: Eflags,
    check: Check,
    op: Opcode,
    app_pc: u32,
}

impl LintSnapshot {
    /// Forget every recorded instruction, so every write of a checked list
    /// counts as one its code did not make before.
    pub(crate) fn clear(&mut self) {
        self.by_id.clear();
        self.by_pc.clear();
    }

    /// Record the write effects of every instruction in `il`, replacing
    /// what was recorded before.
    pub(crate) fn capture(&mut self, il: &InstrList) {
        self.clear();
        let LintSnapshot { by_id, by_pc } = self;
        for id in il.ids() {
            let instr = il.get(id);
            if instr.is_label() {
                continue;
            }
            let e = effects(instr);
            let slot = id.raw() as usize;
            if by_id.len() <= slot {
                by_id.resize(slot + 1, None);
            }
            by_id[slot] = Some((e.writes, e.flags.written));
            if instr.app_pc() != 0 {
                by_pc.push((instr.app_pc(), e.writes, e.flags.written));
            }
        }
        by_pc.sort_unstable_by_key(|&(pc, ..)| pc);
        by_pc.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.union(later.1);
                kept.2 = kept.2 | later.2;
            }
            same
        });
    }

    /// The pre-hook writes of the instruction now at `id`: its own if the id
    /// survived, else the aggregate for its application pc. `None` for code
    /// the hook inserted.
    fn pre_writes(&self, id: InstrId, app_pc: u32) -> Option<(RegSet, Eflags)> {
        if let Some(&Some(pre)) = self.by_id.get(id.raw() as usize) {
            return Some(pre);
        }
        if app_pc == 0 {
            return None;
        }
        let pre = match self.by_pc.binary_search_by_key(&app_pc, |&(pc, ..)| pc) {
            Ok(i) => (self.by_pc[i].1, self.by_pc[i].2),
            Err(_) => (RegSet::NONE, Eflags::NONE),
        };
        Some(pre)
    }

    /// Diff `il` (after a client hook) against the snapshot under a
    /// liveness analysis. `tag` and `thread` label any violations.
    ///
    /// A violation needs a write the snapshot lacks, so the liveness
    /// analysis runs only when some instruction adds one: an untouched
    /// list, or one whose edits keep every write, costs one walk.
    pub(crate) fn check(&self, il: &InstrList, thread: usize, tag: u32) -> Vec<Violation> {
        let ecx_slot = MemRef::absolute(layout::ECX_SLOT, OpSize::S32);
        let mut extra = Vec::new();
        let mut spilled = false;
        let mut pushfd_depth = 0u32;
        for id in il.ids() {
            let instr = il.get(id);
            let Some(op) = instr.opcode() else { continue };
            if instr.is_label() {
                continue;
            }

            // Track the structural %ecx spill region (store to / load from
            // the slot) and the client's own flag save/restore pairing.
            let is_store = op == Opcode::Mov
                && instr.dsts().first().and_then(Opnd::as_mem) == Some(&ecx_slot)
                && instr.srcs().first().and_then(Opnd::as_reg) == Some(Reg::Ecx);
            let is_restore_load = op == Opcode::Mov
                && matches!(instr.dsts().first(), Some(Opnd::Reg(_)))
                && instr
                    .srcs()
                    .first()
                    .and_then(Opnd::as_mem)
                    .is_some_and(|m| {
                        m.base.is_none()
                            && m.index.is_none()
                            && (m.disp as u32) >= Image::RIO_DATA_BASE
                            && (m.disp as u32) < Image::RIO_DATA_BASE + 0x1000
                    });

            if !is_restore_load && !is_store {
                // What this instruction is allowed to write without question.
                let mut exempt = RegSet::of(Reg::Esp);
                if spilled {
                    // While the application's %ecx lives in its slot, the
                    // register itself is engine scratch.
                    exempt.insert(Reg::Ecx);
                }
                let flags_exempt = if op == Opcode::Popfd && pushfd_depth > 0 {
                    // A popfd paired with an earlier pushfd restores the
                    // application's flags; it is a save/restore, not a
                    // clobber.
                    Eflags::ALL6
                } else {
                    Eflags::NONE
                };
                let (pre_regs, pre_flags, check) = match self.pre_writes(id, instr.app_pc()) {
                    Some((regs, flags)) => (regs, flags, Check::TransformationLint),
                    None => (RegSet::NONE, Eflags::NONE, Check::InstrumentationLint),
                };
                let e = effects(instr);
                let regs = e.writes.minus(pre_regs).minus(exempt);
                let flags = e.flags.written & !pre_flags & !flags_exempt;
                if !regs.is_empty() || !flags.is_empty() {
                    extra.push(ExtraWrites {
                        id,
                        regs,
                        flags,
                        check,
                        op,
                        app_pc: instr.app_pc(),
                    });
                }
            }

            if is_store {
                spilled = true;
            } else if is_restore_load
                && instr.dsts().first().and_then(Opnd::as_reg) == Some(Reg::Ecx)
                && instr.srcs().first().and_then(Opnd::as_mem) == Some(&ecx_slot)
            {
                spilled = false;
            }
            match op {
                Opcode::Pushfd => pushfd_depth += 1,
                Opcode::Popfd => pushfd_depth = pushfd_depth.saturating_sub(1),
                _ => {}
            }
        }
        if extra.is_empty() {
            return Vec::new();
        }

        let live = Liveness::analyze(il);
        let mut v = Vec::new();
        for x in extra {
            let out = live.live_after(x.id);
            let bad_regs = x.regs.intersect(out.regs);
            let bad_flags = x.flags & out.flags;
            if bad_regs.is_empty() && bad_flags.is_empty() {
                continue;
            }
            let what = if x.check == Check::TransformationLint {
                "edit adds a write to live"
            } else {
                "inserted code clobbers live"
            };
            v.push(Violation {
                thread,
                tag,
                check: x.check,
                detail: format!(
                    "{what} {bad_regs} |{bad_flags} ({} at app pc {:#010x})",
                    x.op, x.app_pc
                ),
            });
        }
        v
    }
}

#[cfg(test)]
mod verifier_tests {
    use super::*;
    use crate::emit::tests::two_blocks;
    use crate::link::link_exit;

    const APP: (u32, u32) = (0x1000, 0x3000);

    /// [`two_blocks`], linked A to B.
    fn linked_pair(force_stub: Option<bool>) -> (Machine, CodeCache, FragmentId, FragmentId) {
        let (mut m, mut cache, fa, fb) = two_blocks(force_stub);
        link_exit(&mut m, &mut cache, fa, 0, fb);
        (m, cache, fa, fb)
    }

    fn checks_of(v: &[Violation]) -> Vec<Check> {
        v.iter().map(|x| x.check).collect()
    }

    fn verify(
        m: &Machine,
        cache: &CodeCache,
        id: FragmentId,
        app: (u32, u32),
        calls: u32,
    ) -> Vec<Violation> {
        verify_fragment(m, cache, 0, id, app, calls, &mut Vec::new())
    }

    #[test]
    fn clean_fragments_verify_clean() {
        let (m, cache, fa, fb) = linked_pair(None);
        assert!(verify(&m, &cache, fa, APP, 0).is_empty());
        assert!(verify(&m, &cache, fb, APP, 0).is_empty());
    }

    #[test]
    fn corrupted_bytes_fire_decode() {
        let (mut m, cache, fa, _) = linked_pair(None);
        let start = cache.frag(fa).start;
        m.mem.write_bytes(start, &[0x0F, 0xFF]); // undecodable pair
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Decode), "{v:?}");
    }

    #[test]
    fn tampered_link_patch_fires_link_forward() {
        // (custom stub forced?, tamper the fixed word rather than the link
        // word): a plain exit's branch, a forced exit's stub jmp and branch,
        // and an unforced exit's stub jmp.
        for (force_stub, fixed) in [
            (None, false),
            (Some(true), false),
            (Some(true), true),
            (Some(false), true),
        ] {
            let (mut m, cache, fa, fb) = linked_pair(force_stub);
            let exit = &cache.frag(fa).exits[0];
            assert_eq!(exit.fixed_word.is_some(), force_stub.is_some());
            assert!(verify(&m, &cache, fa, APP, 0).is_empty());
            // Re-aim the word four bytes past B's entry: the link map still
            // says "linked to B at its start", and a fixed word never moves.
            let addr = if fixed {
                exit.fixed_word.unwrap()
            } else {
                exit.link_word
            }
            .addr;
            let bogus = cache.frag(fb).start + 4;
            m.mem.write_u32(addr, bogus.wrapping_sub(addr + 4));
            let v = verify(&m, &cache, fa, APP, 0);
            assert!(
                checks_of(&v).contains(&Check::LinkForward),
                "{force_stub:?} {fixed}: {v:?}"
            );
        }
    }

    #[test]
    fn branch_into_foreign_code_fires_cfg() {
        let (mut m, cache, fa, fb) = linked_pair(None);
        // Mid-fragment of B is a live cache address but not a fragment
        // entry: an escape into the middle of foreign code.
        let disp_addr = cache.frag(fa).exits[0].link_word.addr;
        let bogus = cache.frag(fb).start + 1;
        m.mem
            .write_u32(disp_addr, bogus.wrapping_sub(disp_addr + 4));
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Cfg), "{v:?}");
    }

    #[test]
    fn dropped_incoming_record_fires_link_backward() {
        let (m, mut cache, fa, fb) = linked_pair(None);
        cache.frag_mut(fb).incoming.clear();
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::LinkBackward), "{v:?}");
    }

    #[test]
    fn stale_incoming_record_fires_link_backward() {
        let (m, mut cache, fa, fb) = linked_pair(None);
        // A second incoming entry naming an exit that is not linked here.
        cache.frag_mut(fb).incoming.push((fa, 7));
        let v = verify(&m, &cache, fb, APP, 0);
        assert!(checks_of(&v).contains(&Check::LinkBackward), "{v:?}");
    }

    #[test]
    fn off_boundary_translation_row_fires_translation() {
        let (m, mut cache, fa, _) = linked_pair(None);
        cache.frag_mut(fa).translations[0].cache_off = 1;
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Translation), "{v:?}");
    }

    #[test]
    fn out_of_range_app_pc_fires_translation() {
        let (m, mut cache, fa, _) = linked_pair(None);
        cache.frag_mut(fa).translations[0].app_pc = 0x9999_9999;
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Translation), "{v:?}");
    }

    #[test]
    fn tampered_spill_row_fires_ecx_balance() {
        let (m, mut cache, fa, _) = linked_pair(None);
        // The bytes never store %ecx, so a row claiming it is spilled lies.
        cache.frag_mut(fa).translations[0].ecx_spilled = true;
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::EcxBalance), "{v:?}");
    }

    #[test]
    fn bogus_src_range_fires_src_ranges() {
        let (m, mut cache, fa, _) = linked_pair(None);
        cache.frag_mut(fa).src_ranges.push((0x5000, 0x4000));
        let v = verify(&m, &cache, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::SrcRanges), "{v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::{create, Target};

    fn snapshot(il: &InstrList) -> LintSnapshot {
        let mut snap = LintSnapshot::default();
        snap.capture(il);
        snap
    }

    #[test]
    fn untouched_list_has_no_violations() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::Reg(Reg::Ebx), Opnd::Reg(Reg::Eax)));
        il.push_back(create::ret());
        let snap = snapshot(&il);
        assert!(snap.check(&il, 0, 0x1000).is_empty());
    }

    #[test]
    fn inserted_clobber_of_live_register_fires_instrumentation_lint() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::jmp(Target::Pc(0x1234)));
        let snap = snapshot(&il);
        // A broken client inserts `mov ebx, 7` (no app pc): %ebx is live at
        // the fragment exit.
        let first = il.first_id().unwrap();
        il.insert_after(first, create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(7)));
        let v = snap.check(&il, 0, 0x1000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, Check::InstrumentationLint);
    }

    #[test]
    fn inserted_flag_clobber_fires_unless_saved() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::jmp(Target::Pc(0x1234)));
        let snap = snapshot(&il);
        let first = il.first_id().unwrap();
        // Broken: bare `add` clobbers flags that are live at the exit.
        let bad = il.insert_after(
            first,
            create::add(
                Opnd::Mem(MemRef::absolute(Image::RIO_DATA_BASE + 0x100, OpSize::S32)),
                Opnd::imm32(1),
            ),
        );
        let v = snap.check(&il, 0, 0x1000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, Check::InstrumentationLint);
        // Fixed: wrap it in pushfd/popfd, the inscount client's pattern.
        il.insert_before(bad, create::pushfd());
        il.insert_after(bad, create::popfd());
        assert!(snap.check(&il, 0, 0x1000).is_empty());
    }

    #[test]
    fn edit_adding_dead_flag_write_is_allowed() {
        // inc -> add is legal exactly when CF is dead afterwards.
        let mut il = InstrList::new();
        let i = il.push_back(create::inc(Opnd::Reg(Reg::Eax)));
        il.push_back(create::add(Opnd::Reg(Reg::Ebx), Opnd::imm32(1))); // kills all flags
        il.push_back(create::jmp(Target::Pc(0x1234)));
        let snap = snapshot(&il);
        let mut add = create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1));
        add.set_app_pc(0x1000);
        il.replace(i, add);
        assert!(snap.check(&il, 0, 0x1000).is_empty());
    }

    #[test]
    fn edit_adding_live_flag_write_fires_transformation_lint() {
        // inc -> add where CF is live (an adc reads it next): illegal.
        let mut il = InstrList::new();
        let i = il.push_back(create::inc(Opnd::Reg(Reg::Eax)));
        il.push_back(create::adc(Opnd::Reg(Reg::Ebx), Opnd::imm32(0)));
        il.push_back(create::jmp(Target::Pc(0x1234)));
        let snap = snapshot(&il);
        il.replace(i, create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        let v = snap.check(&il, 0, 0x1000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, Check::TransformationLint);
    }

    /// `inc %eax` between five untouched instructions on each side, then an
    /// exit; the instruction after the `inc` reads CF (`adc`) or kills every
    /// flag (`add`).
    fn padded_inc(cf_live: bool) -> (InstrList, InstrId) {
        let mut il = InstrList::new();
        for k in 0..5 {
            il.push_back(create::mov(Opnd::Reg(Reg::Esi), Opnd::imm32(k)));
        }
        let inc = il.push_back(create::inc(Opnd::Reg(Reg::Eax)));
        if cf_live {
            il.push_back(create::adc(Opnd::Reg(Reg::Ebx), Opnd::imm32(0)));
        } else {
            il.push_back(create::add(Opnd::Reg(Reg::Ebx), Opnd::imm32(1)));
        }
        for k in 0..5 {
            il.push_back(create::mov(Opnd::Reg(Reg::Edi), Opnd::imm32(k)));
        }
        il.push_back(create::jmp(Target::Pc(0x1234)));
        (il, inc)
    }

    #[test]
    fn lint_verdicts_on_a_long_list_follow_the_edit_alone() {
        let image = Image::from_code(vec![0xf4]);
        let mut core = crate::Core::new(
            &image,
            crate::Options::default(),
            rio_sim::CpuKind::Pentium4,
        );
        for cf_live in [true, false] {
            let (mut il, inc) = padded_inc(cf_live);
            assert!(il.len() >= 10);
            let [snap, first, second] = [(); 3].map(|()| snapshot(&il));
            // Untouched: no violation, and the lint still counts as run.
            let (checks, violations) = (core.stats.checks_run, core.stats.violations);
            core.lint_client_edit(first, &il, 0x1000);
            assert_eq!(core.stats.checks_run, checks + 1);
            assert_eq!(core.stats.violations, violations);
            // inc -> add adds a CF write: flagged exactly when CF is live.
            il.replace(inc, create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
            core.lint_client_edit(second, &il, 0x1000);
            assert_eq!(core.stats.checks_run, checks + 2);
            assert_eq!(core.stats.violations, violations + u64::from(cf_live));
            let v = snap.check(&il, 0, 0x1000);
            assert_eq!(v.len(), usize::from(cf_live), "{v:?}");
            if cf_live {
                assert_eq!(v[0].check, Check::TransformationLint);
            }
        }
    }

    #[test]
    fn replacement_preserving_writes_is_allowed() {
        // rlr's copy propagation: mov r, [mem] -> mov r, src writes the
        // same register.
        let mut il = InstrList::new();
        let load = il.push_back(create::mov(
            Opnd::Reg(Reg::Edx),
            Opnd::Mem(MemRef::base_disp(Reg::Ebp, -4, OpSize::S32)),
        ));
        il.push_back(create::jmp(Target::Pc(0x1234)));
        let snap = snapshot(&il);
        il.replace(load, create::mov(Opnd::Reg(Reg::Edx), Opnd::Reg(Reg::Eax)));
        assert!(snap.check(&il, 0, 0x1000).is_empty());
    }

    #[test]
    fn ecx_writes_are_exempt_only_while_spilled() {
        let slot = Opnd::Mem(MemRef::absolute(layout::ECX_SLOT, OpSize::S32));
        let mut il = InstrList::new();
        il.push_back(create::mov(slot, Opnd::Reg(Reg::Ecx))); // spill
        il.push_back(create::jmp(Target::Pc(layout::IB_LOOKUP)));
        let snap = snapshot(&il);
        // The ibdispatch pattern: scramble %ecx while it is spilled.
        let first = il.first_id().unwrap();
        il.insert_after(
            first,
            create::lea(Reg::Ecx, MemRef::base_disp(Reg::Ecx, -0x1000, OpSize::S32)),
        );
        assert!(snap.check(&il, 0, 0x1000).is_empty());
        // The same write before the spill clobbers the application's %ecx.
        il.push_front(create::lea(
            Reg::Ecx,
            MemRef::base_disp(Reg::Ecx, -0x1000, OpSize::S32),
        ));
        let v = snap.check(&il, 0, 0x1000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, Check::InstrumentationLint);
    }
}
