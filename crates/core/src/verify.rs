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
//!   entry recorded in the link maps, or an engine entry point; the
//!   forward/backward link maps agree with the patched displacement words;
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

use std::collections::HashMap;
use std::fmt;

use rio_ia32::liveness::{effects, Liveness, RegSet};
use rio_ia32::{decode_instr, Eflags, Instr, InstrList, MemRef, OpSize, Opcode, Opnd, Reg, Target};
use rio_sim::{Image, Machine};

use crate::cache::{CodeCache, ExitKind, FragmentId};
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

/// Verify every structural invariant of one live fragment against the
/// actual bytes in cache memory. `clean_call_count` bounds the valid
/// clean-call sentinel tokens; `app_code_range` is the watched application
/// code span.
pub(crate) fn verify_fragment(
    machine: &Machine,
    cache: &CodeCache,
    thread: usize,
    id: FragmentId,
    app_code_range: (u32, u32),
    clean_call_count: u32,
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
    let mut decoded: Vec<(u32, Instr)> = Vec::new();
    let mut pc = frag.start;
    let end = frag.start + frag.total_len;
    let mut buf = [0u8; 16];
    while pc < end {
        machine.mem.read_bytes(pc, &mut buf);
        match decode_instr(&buf, pc) {
            Ok((instr, len)) => {
                decoded.push((pc - frag.start, instr));
                pc += len;
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

    let boundaries: Vec<u32> = decoded.iter().map(|(off, _)| *off).collect();
    let on_boundary = |off: u32| boundaries.binary_search(&off).is_ok();

    // (2) Closed-world control flow: classify every decoded CTI target.
    for (off, instr) in &decoded {
        let Some(Target::Pc(t)) = instr.target() else {
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

    // (3)+(4) Link agreement: patched displacement words vs the link maps.
    let resolve = |disp_addr: u32| {
        disp_addr
            .wrapping_add(4)
            .wrapping_add(machine.mem.read_u32(disp_addr))
    };
    for (i, exit) in frag.exits.iter().enumerate() {
        match exit.kind {
            ExitKind::Indirect { .. } => {
                if exit.linked_to.is_some() {
                    report(
                        Check::LinkForward,
                        format!("indirect exit {i} claims a direct link"),
                    );
                }
                // Indirect exits are never link-patched: the branch rests
                // permanently on its unlinked target (the stub sentinel, or
                // the stub entry when client stub code was prepended), and
                // the lookup is reached through the stub.
                let got = resolve(exit.branch_disp_addr);
                if got != exit.unlinked_target {
                    report(
                        Check::LinkForward,
                        format!(
                            "indirect exit {i} branch resolves to {got:#010x}, expected \
                             its unlinked target {:#010x}",
                            exit.unlinked_target
                        ),
                    );
                }
                if exit.stub_jmp_disp_addr != exit.branch_disp_addr {
                    let got = resolve(exit.stub_jmp_disp_addr);
                    if got != layout::stub_sentinel(exit.stub) {
                        report(
                            Check::LinkForward,
                            format!(
                                "indirect exit {i} stub jmp resolves to {got:#010x}, \
                                 expected the stub sentinel {:#010x}",
                                layout::stub_sentinel(exit.stub)
                            ),
                        );
                    }
                }
            }
            ExitKind::Direct { .. } => {
                let patched = if exit.force_stub {
                    exit.stub_jmp_disp_addr
                } else {
                    exit.branch_disp_addr
                };
                let got = resolve(patched);
                match exit.linked_to {
                    Some(dst) => {
                        let dst_frag = cache.frag(dst);
                        if dst_frag.deleted {
                            report(
                                Check::LinkForward,
                                format!("exit {i} is linked to deleted fragment {}", dst.0),
                            );
                        }
                        if got != dst_frag.start {
                            report(
                                Check::LinkForward,
                                format!(
                                    "exit {i} displacement resolves to {got:#010x} but the \
                                     link map says fragment {} at {:#010x}",
                                    dst.0, dst_frag.start
                                ),
                            );
                        }
                        if !dst_frag.incoming.contains(&(id, i)) {
                            report(
                                Check::LinkBackward,
                                format!(
                                    "exit {i} is linked to fragment {} but its incoming \
                                     list does not record the link",
                                    dst.0
                                ),
                            );
                        }
                    }
                    None => {
                        // Unlinked: a forced exit's stub jmp must rest on
                        // the stub sentinel; a plain exit's branch on its
                        // recorded unlinked target.
                        let expected = if exit.force_stub {
                            layout::stub_sentinel(exit.stub)
                        } else {
                            exit.unlinked_target
                        };
                        if got != expected {
                            report(
                                Check::LinkForward,
                                format!(
                                    "unlinked exit {i} displacement resolves to {got:#010x}, \
                                     expected {expected:#010x}"
                                ),
                            );
                        }
                    }
                }
                // A forced exit's own branch always routes through the stub
                // entry, linked or not.
                if exit.force_stub {
                    let got = resolve(exit.branch_disp_addr);
                    if got != exit.unlinked_target {
                        report(
                            Check::LinkForward,
                            format!(
                                "forced exit {i} branch resolves to {got:#010x}, expected \
                                 its stub entry {:#010x}",
                                exit.unlinked_target
                            ),
                        );
                    }
                }
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
    let body_instrs = boundaries
        .iter()
        .filter(|off| **off < frag.body_len)
        .count();
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
    for off in boundaries.iter().filter(|off| **off < frag.body_len) {
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
    for (off, instr) in decoded.iter().filter(|(off, _)| *off < frag.body_len) {
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
        if instr.opcode() == Some(Opcode::Mov) {
            let store = instr.dsts().first().and_then(Opnd::as_mem) == Some(&ecx_slot)
                && instr.srcs().first().and_then(Opnd::as_reg) == Some(Reg::Ecx);
            let load = instr.dsts().first().and_then(Opnd::as_reg) == Some(Reg::Ecx)
                && instr.srcs().first().and_then(Opnd::as_mem) == Some(&ecx_slot);
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
/// hook by [`LintSnapshot::check`].
pub(crate) struct LintSnapshot {
    /// Per-instruction written registers and flags, keyed by id — survives
    /// in-place edits ([`InstrList::replace`] keeps the id).
    by_id: HashMap<u32, (RegSet, Eflags)>,
    /// Write aggregate per application pc, for edits that re-create
    /// instructions (fragment replacement re-decodes, so ids never match).
    by_pc: HashMap<u32, (RegSet, Eflags)>,
}

impl LintSnapshot {
    /// Record the write effects of every instruction in `il`.
    pub(crate) fn capture(il: &InstrList) -> LintSnapshot {
        let mut by_id = HashMap::new();
        let mut by_pc: HashMap<u32, (RegSet, Eflags)> = HashMap::new();
        for id in il.ids() {
            let instr = il.get(id);
            if instr.is_label() {
                continue;
            }
            let e = effects(instr);
            by_id.insert(id.raw(), (e.writes, e.flags.written));
            if instr.app_pc() != 0 {
                let agg = by_pc
                    .entry(instr.app_pc())
                    .or_insert((RegSet::NONE, Eflags::NONE));
                agg.0 = agg.0.union(e.writes);
                agg.1 = agg.1 | e.flags.written;
            }
        }
        LintSnapshot { by_id, by_pc }
    }

    /// Diff `il` (after a client hook) against the snapshot under a fresh
    /// liveness analysis. `tag` and `thread` label any violations.
    pub(crate) fn check(&self, il: &InstrList, thread: usize, tag: u32) -> Vec<Violation> {
        let live = Liveness::analyze(il);
        let ecx_slot = MemRef::absolute(layout::ECX_SLOT, OpSize::S32);
        let mut v = Vec::new();
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

            let e = effects(instr);
            let out = live.live_after(id);

            // What this instruction is allowed to write without question.
            let mut exempt = RegSet::of(Reg::Esp);
            if spilled {
                // While the application's %ecx lives in its slot, the
                // register itself is engine scratch.
                exempt.insert(Reg::Ecx);
            }
            let flags_exempt = if op == Opcode::Popfd && pushfd_depth > 0 {
                // A popfd paired with an earlier pushfd restores the
                // application's flags; it is a save/restore, not a clobber.
                Eflags::ALL6
            } else {
                Eflags::NONE
            };

            let (pre_regs, pre_flags, check) = if let Some(pre) = self.by_id.get(&id.raw()) {
                (pre.0, pre.1, Check::TransformationLint)
            } else if instr.app_pc() != 0 {
                let pre = self
                    .by_pc
                    .get(&instr.app_pc())
                    .copied()
                    .unwrap_or((RegSet::NONE, Eflags::NONE));
                (pre.0, pre.1, Check::TransformationLint)
            } else {
                (RegSet::NONE, Eflags::NONE, Check::InstrumentationLint)
            };

            if !is_restore_load && !is_store {
                let extra_regs = e.writes.minus(pre_regs).minus(exempt);
                let bad_regs = extra_regs.intersect(out.regs);
                let extra_flags = e.flags.written & !pre_flags & !flags_exempt;
                let bad_flags = extra_flags & out.flags;
                if !bad_regs.is_empty() || !bad_flags.is_empty() {
                    let what = if check == Check::TransformationLint {
                        "edit adds a write to live"
                    } else {
                        "inserted code clobbers live"
                    };
                    v.push(Violation {
                        thread,
                        tag,
                        check,
                        detail: format!(
                            "{what} {bad_regs} |{bad_flags} ({op} at app pc {:#010x})",
                            instr.app_pc()
                        ),
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
        v
    }
}

#[cfg(test)]
mod verifier_tests {
    use super::*;
    use crate::cache::FragmentKind;
    use crate::emit::emit_fragment;
    use crate::link::link_exit;
    use crate::mangle::mangle_bb;
    use rio_ia32::{InstrList, Level};
    use rio_sim::CpuKind;

    const APP: (u32, u32) = (0x1000, 0x3000);

    /// Two linked blocks: A at tag 0x1000 (`jmp 0x2000`), B at tag 0x2000.
    fn linked_pair() -> (Machine, CodeCache, FragmentId, FragmentId) {
        let mut m = Machine::new(CpuKind::Pentium4);
        let mut cache = CodeCache::new();
        let mut a =
            InstrList::decode_block(&[0xE9, 0xFB, 0x0F, 0x00, 0x00], 0x1000, Level::L3).unwrap();
        mangle_bb(&mut a, 0x1005);
        let fa = emit_fragment(
            &mut m,
            &mut cache,
            FragmentKind::BasicBlock,
            0x1000,
            a,
            vec![],
            vec![(0x1000, 0x1005)],
        )
        .unwrap();
        let mut b = InstrList::decode_block(&[0xB8, 9, 0, 0, 0, 0xF4], 0x2000, Level::L3).unwrap();
        mangle_bb(&mut b, 0x2006);
        let fb = emit_fragment(
            &mut m,
            &mut cache,
            FragmentKind::BasicBlock,
            0x2000,
            b,
            vec![],
            vec![(0x2000, 0x2006)],
        )
        .unwrap();
        link_exit(&mut m, &mut cache, fa, 0, fb);
        (m, cache, fa, fb)
    }

    fn checks_of(v: &[Violation]) -> Vec<Check> {
        v.iter().map(|x| x.check).collect()
    }

    #[test]
    fn clean_fragments_verify_clean() {
        let (m, cache, fa, fb) = linked_pair();
        assert!(verify_fragment(&m, &cache, 0, fa, APP, 0).is_empty());
        assert!(verify_fragment(&m, &cache, 0, fb, APP, 0).is_empty());
    }

    #[test]
    fn corrupted_bytes_fire_decode() {
        let (mut m, cache, fa, _) = linked_pair();
        let start = cache.frag(fa).start;
        m.mem.write_bytes(start, &[0x0F, 0xFF]); // undecodable pair
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Decode), "{v:?}");
    }

    #[test]
    fn tampered_link_patch_fires_link_forward() {
        let (mut m, cache, fa, fb) = linked_pair();
        // Re-aim the patched displacement word four bytes past B's entry:
        // the link map still says "linked to B at its start".
        let exit = &cache.frag(fa).exits[0];
        let disp_addr = exit.branch_disp_addr;
        let bogus = cache.frag(fb).start + 4;
        m.mem
            .write_u32(disp_addr, bogus.wrapping_sub(disp_addr + 4));
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::LinkForward), "{v:?}");
    }

    #[test]
    fn branch_into_foreign_code_fires_cfg() {
        let (mut m, cache, fa, fb) = linked_pair();
        // Mid-fragment of B is a live cache address but not a fragment
        // entry: an escape into the middle of foreign code.
        let exit = &cache.frag(fa).exits[0];
        let disp_addr = exit.branch_disp_addr;
        let bogus = cache.frag(fb).start + 1;
        m.mem
            .write_u32(disp_addr, bogus.wrapping_sub(disp_addr + 4));
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Cfg), "{v:?}");
    }

    #[test]
    fn dropped_incoming_record_fires_link_backward() {
        let (m, mut cache, fa, fb) = linked_pair();
        cache.frag_mut(fb).incoming.clear();
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::LinkBackward), "{v:?}");
    }

    #[test]
    fn stale_incoming_record_fires_link_backward() {
        let (m, mut cache, fa, fb) = linked_pair();
        // A second incoming entry naming an exit that is not linked here.
        cache.frag_mut(fb).incoming.push((fa, 7));
        let v = verify_fragment(&m, &cache, 0, fb, APP, 0);
        assert!(checks_of(&v).contains(&Check::LinkBackward), "{v:?}");
    }

    #[test]
    fn off_boundary_translation_row_fires_translation() {
        let (m, mut cache, fa, _) = linked_pair();
        cache.frag_mut(fa).translations[0].cache_off = 1;
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Translation), "{v:?}");
    }

    #[test]
    fn out_of_range_app_pc_fires_translation() {
        let (m, mut cache, fa, _) = linked_pair();
        cache.frag_mut(fa).translations[0].app_pc = 0x9999_9999;
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::Translation), "{v:?}");
    }

    #[test]
    fn tampered_spill_row_fires_ecx_balance() {
        let (m, mut cache, fa, _) = linked_pair();
        // The bytes never store %ecx, so a row claiming it is spilled lies.
        cache.frag_mut(fa).translations[0].ecx_spilled = true;
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::EcxBalance), "{v:?}");
    }

    #[test]
    fn bogus_src_range_fires_src_ranges() {
        let (m, mut cache, fa, _) = linked_pair();
        cache.frag_mut(fa).src_ranges.push((0x5000, 0x4000));
        let v = verify_fragment(&m, &cache, 0, fa, APP, 0);
        assert!(checks_of(&v).contains(&Check::SrcRanges), "{v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::create;

    #[test]
    fn untouched_list_has_no_violations() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::Reg(Reg::Ebx), Opnd::Reg(Reg::Eax)));
        il.push_back(create::ret());
        let snap = LintSnapshot::capture(&il);
        assert!(snap.check(&il, 0, 0x1000).is_empty());
    }

    #[test]
    fn inserted_clobber_of_live_register_fires_instrumentation_lint() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::jmp(Target::Pc(0x1234)));
        let snap = LintSnapshot::capture(&il);
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
        let snap = LintSnapshot::capture(&il);
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
        let snap = LintSnapshot::capture(&il);
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
        let snap = LintSnapshot::capture(&il);
        il.replace(i, create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        let v = snap.check(&il, 0, 0x1000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, Check::TransformationLint);
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
        let snap = LintSnapshot::capture(&il);
        il.replace(load, create::mov(Opnd::Reg(Reg::Edx), Opnd::Reg(Reg::Eax)));
        assert!(snap.check(&il, 0, 0x1000).is_empty());
    }

    #[test]
    fn ecx_writes_are_exempt_only_while_spilled() {
        let slot = Opnd::Mem(MemRef::absolute(layout::ECX_SLOT, OpSize::S32));
        let mut il = InstrList::new();
        il.push_back(create::mov(slot, Opnd::Reg(Reg::Ecx))); // spill
        il.push_back(create::jmp(Target::Pc(layout::IB_LOOKUP)));
        let snap = LintSnapshot::capture(&il);
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
