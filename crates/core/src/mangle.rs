//! Mangling: translating application control flow into code-cache form.
//!
//! * Direct branches stay direct exits (linkable).
//! * Direct calls become `push $return_address` + a direct exit to the
//!   callee — the pushed value is the **original application address**, the
//!   transparency rule of §2 ("original program addresses must be used
//!   wherever the application stores indirect branch targets").
//! * Indirect branches (`ret`, `jmp *`, `call *`) spill `%ecx` to a
//!   thread-local slot, load the target into `%ecx`, and exit to the
//!   indirect-branch lookup.
//! * Inside traces, an inlined **flag-free target check** is emitted instead
//!   of exiting: `lea -expected(%ecx)` + `jecxz` — the same trick real
//!   DynamoRIO uses, avoiding any eflags save/restore around the comparison.
//!
//! Mangled sequences carry markers in [`Instr::note`] (see [`Note`]) so
//! clients can recognize them — the custom-trace client uses this to elide
//! return checks entirely (§4.4).

use rio_ia32::{create, Instr, InstrId, InstrList, MemRef, OpSize, Opcode, Opnd, Reg, Target};

use crate::cache::IndKind;
use crate::config::layout;

/// Parsed form of a core-assigned [`Instr::note`] marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Note {
    /// The exit jump of an indirect-branch translation.
    IbExit(IndKind),
    /// First instruction (the `%ecx` spill) of an inlined indirect-branch
    /// target check in a trace. `extra` holds the `ret imm16` byte count
    /// (0 for plain `ret`); `expected` is the inlined target tag.
    IbCheckBegin {
        /// Kind of the original indirect branch.
        kind: IndKind,
        /// `ret n` immediate (0 if none).
        extra: u16,
        /// The target the check tests for.
        expected: u32,
    },
    /// Final instruction (the `%ecx` restore) of an inlined check.
    IbCheckEnd,
    /// The `%ecx` spill that begins an indirect-branch translation in a
    /// basic block: from here to the fragment exit the application's
    /// `%ecx` lives in the spill slot (fault translation must restore it).
    Spill,
}

const MARK_IB_EXIT: u64 = 1;
const MARK_CHECK_BEGIN: u64 = 2;
const MARK_CHECK_END: u64 = 3;
const MARK_SPILL: u64 = 4;

fn kind_code(kind: IndKind) -> u64 {
    match kind {
        IndKind::Ret => 0,
        IndKind::Jmp => 1,
        IndKind::Call => 2,
    }
}

fn kind_from(code: u64) -> IndKind {
    match code {
        0 => IndKind::Ret,
        1 => IndKind::Jmp,
        _ => IndKind::Call,
    }
}

impl Note {
    /// Pack into the `Instr::note` field.
    pub fn pack(self) -> u64 {
        match self {
            Note::IbExit(kind) => (MARK_IB_EXIT << 56) | (kind_code(kind) << 48),
            Note::IbCheckBegin {
                kind,
                extra,
                expected,
            } => {
                (MARK_CHECK_BEGIN << 56)
                    | (kind_code(kind) << 48)
                    | ((extra as u64) << 32)
                    | expected as u64
            }
            Note::IbCheckEnd => MARK_CHECK_END << 56,
            Note::Spill => MARK_SPILL << 56,
        }
    }

    /// Parse from an `Instr::note` field. Returns `None` for client-owned or
    /// zero notes.
    pub fn parse(note: u64) -> Option<Note> {
        match note >> 56 {
            MARK_IB_EXIT => Some(Note::IbExit(kind_from((note >> 48) & 0xFF))),
            MARK_CHECK_BEGIN => Some(Note::IbCheckBegin {
                kind: kind_from((note >> 48) & 0xFF),
                extra: ((note >> 32) & 0xFFFF) as u16,
                expected: note as u32,
            }),
            MARK_CHECK_END => Some(Note::IbCheckEnd),
            MARK_SPILL => Some(Note::Spill),
            _ => None,
        }
    }
}

fn ecx_slot() -> Opnd {
    Opnd::Mem(MemRef::absolute(layout::ECX_SLOT, OpSize::S32))
}

fn spill_ecx() -> Instr {
    create::mov(ecx_slot(), Opnd::reg(Reg::Ecx))
}

fn restore_ecx() -> Instr {
    create::mov(Opnd::reg(Reg::Ecx), ecx_slot())
}

fn ib_exit_jmp(kind: IndKind) -> Instr {
    let mut j = create::jmp(Target::Pc(layout::IB_LOOKUP));
    j.note = Note::IbExit(kind).pack();
    j
}

/// Summary of a decoded block terminator, captured before mangling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Fell off the end (max-length split); continues at the fall-through.
    FallThrough,
    /// `hlt` — program end, no exit.
    Halt,
    /// Direct unconditional jump.
    Jmp {
        /// Target tag.
        target: u32,
    },
    /// Conditional branch (`jcc` or `jecxz`).
    CondBranch {
        /// Taken-path tag.
        taken: u32,
    },
    /// Direct call.
    Call {
        /// Callee tag.
        target: u32,
    },
    /// Near return (`extra` = `ret n` immediate).
    Ret {
        /// Extra bytes popped.
        extra: u16,
    },
    /// Indirect jump.
    JmpInd,
    /// Indirect call.
    CallInd,
}

/// Classify the final instruction of a decoded block.
pub fn classify_terminator(il: &InstrList) -> Terminator {
    let Some(last_id) = il.last_id() else {
        return Terminator::FallThrough;
    };
    let last = il.get(last_id);
    match last.opcode() {
        Some(Opcode::Hlt) => Terminator::Halt,
        Some(Opcode::Jmp) => match last.target() {
            Some(Target::Pc(t)) => Terminator::Jmp { target: t },
            _ => Terminator::FallThrough,
        },
        Some(op) if op.is_conditional_cti() => match last.target() {
            Some(Target::Pc(t)) => Terminator::CondBranch { taken: t },
            _ => Terminator::FallThrough,
        },
        Some(Opcode::Call) => match last.target() {
            Some(Target::Pc(t)) => Terminator::Call { target: t },
            _ => Terminator::FallThrough,
        },
        Some(Opcode::Ret) => {
            let extra = match last.srcs().first() {
                Some(Opnd::Imm(v, _)) => *v as u16,
                _ => 0,
            };
            Terminator::Ret { extra }
        }
        Some(Opcode::JmpInd) => Terminator::JmpInd,
        Some(Opcode::CallInd) => Terminator::CallInd,
        _ => Terminator::FallThrough,
    }
}

/// Mangle a decoded basic block in place: translate its terminator into
/// exit form. `fall_through` is the application address immediately after
/// the block (used for conditional fall-through exits and call return
/// addresses).
///
/// Returns the exit that now stands in the place of the block's last
/// instruction, when that instruction is not an exit itself: the callee
/// `jmp` of a direct call, the lookup exit of a `ret`, `jmp*` or `call*`
/// (each of which mangling replaced), or the fall-through `jmp` after a
/// block cut before a split. A direct `jmp` or `jcc` stays its own exit,
/// and `hlt` has none.
pub fn mangle_bb(il: &mut InstrList, fall_through: u32) -> Option<InstrId> {
    let term = classify_terminator(il);
    let last_id = il.last_id();
    match term {
        Terminator::Halt | Terminator::Jmp { .. } => {
            // hlt stops the program; a direct jmp is already a valid exit.
            None
        }
        Terminator::FallThrough => Some(il.push_back(create::jmp(Target::Pc(fall_through)))),
        Terminator::CondBranch { .. } => {
            // Taken path is the jcc itself; add the fall-through exit.
            il.push_back(create::jmp(Target::Pc(fall_through)));
            None
        }
        Terminator::Call { target } => {
            push_return_address(il, last_id.expect("call block has instrs"), fall_through);
            Some(il.push_back(create::jmp(Target::Pc(target))))
        }
        Terminator::Ret { .. } | Terminator::JmpInd | Terminator::CallInd => {
            mangle_indirect(il, term, fall_through, None);
            il.last_id()
        }
    }
}

/// Mangle a block that continues into the next block of a trace: the
/// terminator is rewritten so the on-trace path **falls through** and the
/// off-trace path exits.
///
/// `next_tag` is the tag of the following block on the trace; `fall_through`
/// the application address after this block. For indirect terminators an
/// inlined flag-free target check against `next_tag` is emitted (when
/// `inline_check` is set) — the adaptive-optimization surface of §4.3.
pub fn mangle_trace_connector(
    il: &mut InstrList,
    next_tag: u32,
    fall_through: u32,
    inline_check: bool,
) {
    let term = classify_terminator(il);
    let last_id = il.last_id();
    match term {
        Terminator::Halt => {}
        Terminator::FallThrough => {
            debug_assert_eq!(next_tag, fall_through);
        }
        Terminator::Jmp { target } => {
            debug_assert_eq!(target, next_tag);
            // Eliminated entirely: the next block follows directly (the
            // "superior code layout" of traces).
            let id = last_id.expect("jmp block has instrs");
            il.remove(id);
        }
        Terminator::CondBranch { taken } => {
            let id = last_id.expect("jcc block has instrs");
            if taken == next_tag {
                // Flip the condition so the hot path falls through.
                let instr = il.get(id);
                let pc = instr.app_pc();
                let flipped = match instr.opcode() {
                    Some(Opcode::Jcc(cc)) => {
                        let mut j = create::jcc(cc.negate(), Target::Pc(fall_through));
                        j.set_app_pc(pc);
                        j
                    }
                    // jecxz has no inverse; branch around an exit jmp:
                    // jecxz L; jmp fall_through; L: (trace continues)
                    _ => {
                        let lbl = il.push_back(Instr::label());
                        let mut jz = create::jecxz(Target::Pc(0));
                        jz.set_target(Target::Instr(lbl));
                        il.replace(id, jz);
                        il.insert_after(id, create::jmp(Target::Pc(fall_through)));
                        return;
                    }
                };
                il.replace(id, flipped);
            } else {
                // Fall-through is the hot path already; the jcc exits.
                debug_assert_eq!(fall_through, next_tag);
            }
        }
        Terminator::Call { target } => {
            debug_assert_eq!(target, next_tag);
            push_return_address(il, last_id.expect("call block has instrs"), fall_through);
        }
        Terminator::Ret { .. } | Terminator::JmpInd | Terminator::CallInd => {
            mangle_indirect(il, term, fall_through, Some((next_tag, inline_check)));
        }
    }
}

/// Replace the direct call `id` with a push of its application return
/// address, `fall_through`.
fn push_return_address(il: &mut InstrList, id: InstrId, fall_through: u32) {
    let mut push = create::push(Opnd::Pc(fall_through));
    push.set_app_pc(il.get(id).app_pc());
    il.replace(id, push);
}

/// Translate the indirect terminator `term` (`ret`, `ret n`, `jmp*` or
/// `call*`) that ends `il`: spill `%ecx` in its place, load the target into
/// `%ecx` (popping it for a return, then dropping any `ret n` bytes), push
/// the application return address for `call*`, and exit to the lookup.
/// In a trace connector, `check` holds the expected next tag and whether
/// to test for it inline (see [`emit_check_tail`]); the spill then opens
/// the check region.
fn mangle_indirect(
    il: &mut InstrList,
    term: Terminator,
    fall_through: u32,
    check: Option<(u32, bool)>,
) {
    let id = il.last_id().expect("indirect branch block has instrs");
    let (kind, extra) = match term {
        Terminator::Ret { extra } => (IndKind::Ret, extra),
        Terminator::JmpInd => (IndKind::Jmp, 0),
        Terminator::CallInd => (IndKind::Call, 0),
        _ => unreachable!("not an indirect terminator: {term:?}"),
    };
    // `jmp*` and `call*` read their target from their value operand.
    let rm = (kind != IndKind::Ret).then(|| *il.get(id).src(0));
    let mut spill = spill_ecx();
    spill.set_app_pc(il.get(id).app_pc());
    spill.note = match check {
        None => Note::Spill,
        Some((expected, _)) => Note::IbCheckBegin {
            kind,
            extra,
            expected,
        },
    }
    .pack();
    il.replace(id, spill);
    match rm {
        Some(rm) => {
            il.push_back(create::mov(Opnd::reg(Reg::Ecx), rm));
        }
        None => {
            il.push_back(create::pop(Opnd::reg(Reg::Ecx)));
            if extra != 0 {
                il.push_back(create::lea(
                    Reg::Esp,
                    MemRef::base_disp(Reg::Esp, extra as i32, OpSize::S32),
                ));
            }
        }
    }
    if kind == IndKind::Call {
        il.push_back(create::push(Opnd::Pc(fall_through)));
    }
    match check {
        Some((expected, true)) => emit_check_tail(il, kind, expected),
        _ => {
            il.push_back(ib_exit_jmp(kind));
        }
    }
}

/// Emit the flag-free inlined target check. On entry `%ecx` holds the
/// runtime target and the app's `%ecx` is in the spill slot.
///
/// ```text
///   lea  -expected(%ecx) -> %ecx   ; ecx == 0 iff target matches
///   jecxz match                    ; reads no eflags
///   lea  expected(%ecx) -> %ecx    ; restore target value
///   jmp  IB_LOOKUP                 ; miss: full hashtable lookup
/// match:
///   mov  ECX_SLOT -> %ecx          ; restore application %ecx
/// ```
fn emit_check_tail(il: &mut InstrList, kind: IndKind, expected: u32) {
    il.push_back(create::lea(
        Reg::Ecx,
        MemRef::base_disp(Reg::Ecx, -(expected as i32), OpSize::S32),
    ));
    let jz = il.push_back(create::jecxz(Target::Pc(0)));
    il.push_back(create::lea(
        Reg::Ecx,
        MemRef::base_disp(Reg::Ecx, expected as i32, OpSize::S32),
    ));
    il.push_back(ib_exit_jmp(kind));
    let match_lbl = il.push_back(Instr::label());
    il.get_mut(jz).set_target(Target::Instr(match_lbl));
    let mut restore = restore_ecx();
    restore.note = Note::IbCheckEnd.pack();
    il.push_back(restore);
}

/// A recognized inlined indirect-branch check region within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IbCheck {
    /// First instruction of the region (the `%ecx` spill).
    pub begin: InstrId,
    /// Last instruction of the region (the `%ecx` restore).
    pub end: InstrId,
    /// Kind of indirect branch.
    pub kind: IndKind,
    /// `ret n` immediate (0 if none).
    pub extra: u16,
    /// The inlined target the check tests for.
    pub expected: u32,
}

/// Find all inlined indirect-branch check regions in a mangled trace.
pub fn find_ib_checks(il: &InstrList) -> Vec<IbCheck> {
    let mut out = Vec::new();
    let mut open: Option<(InstrId, IndKind, u16, u32)> = None;
    for id in il.ids() {
        match Note::parse(il.get(id).note) {
            Some(Note::IbCheckBegin {
                kind,
                extra,
                expected,
            }) => open = Some((id, kind, extra, expected)),
            Some(Note::IbCheckEnd) => {
                if let Some((begin, kind, extra, expected)) = open.take() {
                    out.push(IbCheck {
                        begin,
                        end: id,
                        kind,
                        extra,
                        expected,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Remove an inlined **return** check entirely, assuming the calling
/// convention holds (§4.4: "Our implementation goes ahead and assumes that
/// the calling convention holds, in which case the return can be removed
/// entirely"). The region collapses to a single `lea` that pops the return
/// address (and any `ret n` bytes) without using it.
///
/// # Panics
///
/// Panics if the region is not a `Ret` check.
pub fn elide_ret_check(il: &mut InstrList, check: &IbCheck) {
    assert_eq!(check.kind, IndKind::Ret, "only return checks can be elided");
    // Collect the region ids.
    let mut ids = Vec::new();
    let mut cur = Some(check.begin);
    while let Some(id) = cur {
        ids.push(id);
        if id == check.end {
            break;
        }
        cur = il.next_id(id);
    }
    assert_eq!(*ids.last().unwrap(), check.end, "malformed check region");
    // Replace the first instruction with the esp adjustment; drop the rest.
    il.replace(
        check.begin,
        create::lea(
            Reg::Esp,
            MemRef::base_disp(Reg::Esp, 4 + check.extra as i32, OpSize::S32),
        ),
    );
    for id in ids.into_iter().skip(1) {
        il.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::Cc;

    fn decoded_block(bytes: &[u8], pc: u32) -> InstrList {
        InstrList::decode_block(bytes, pc, rio_ia32::Level::L3).unwrap()
    }

    #[test]
    fn note_pack_parse_round_trip() {
        for n in [
            Note::IbExit(IndKind::Ret),
            Note::IbExit(IndKind::Call),
            Note::IbCheckBegin {
                kind: IndKind::Jmp,
                extra: 0,
                expected: 0x401234,
            },
            Note::IbCheckBegin {
                kind: IndKind::Ret,
                extra: 8,
                expected: 0xFFFF_0000,
            },
            Note::IbCheckEnd,
            Note::Spill,
        ] {
            assert_eq!(Note::parse(n.pack()), Some(n));
        }
        assert_eq!(Note::parse(0), None);
        assert_eq!(Note::parse(12345), None); // client-owned note
    }

    #[test]
    fn mangle_direct_jmp_is_untouched() {
        let mut il = decoded_block(&[0xE9, 0x10, 0x00, 0x00, 0x00], 0x1000); // jmp +0x10
        mangle_bb(&mut il, 0x1005);
        assert_eq!(il.len(), 1);
        assert!(il.get(il.last_id().unwrap()).is_exit_cti());
    }

    #[test]
    fn mangle_jcc_adds_fall_through_exit() {
        // The jcc stays the exit of its taken path.
        let mut il = decoded_block(&[0x74, 0x05], 0x1000); // jz +5
        assert_eq!(mangle_bb(&mut il, 0x1002), None);
        assert_eq!(il.len(), 2);
        let last = il.get(il.last_id().unwrap());
        assert_eq!(last.opcode(), Some(Opcode::Jmp));
        assert_eq!(last.target(), Some(Target::Pc(0x1002)));
    }

    #[test]
    fn mangle_call_pushes_app_return_address() {
        // The callee jmp is the exit in the call's place.
        let mut il = decoded_block(&[0xE8, 0x00, 0x01, 0x00, 0x00], 0x1000); // call +0x100
        assert_eq!(mangle_bb(&mut il, 0x1005), il.last_id());
        let ops: Vec<_> = il.iter().map(|i| i.opcode().unwrap()).collect();
        assert_eq!(ops, vec![Opcode::Push, Opcode::Jmp]);
        let push = il.get(il.first_id().unwrap());
        assert_eq!(push.src(0), &Opnd::Pc(0x1005)); // original app address
        let jmp = il.get(il.last_id().unwrap());
        assert_eq!(jmp.target(), Some(Target::Pc(0x1105)));
    }

    #[test]
    fn mangle_ret_spills_and_exits_to_lookup() {
        let mut il = decoded_block(&[0xC3], 0x1000);
        assert_eq!(mangle_bb(&mut il, 0x1001), il.last_id());
        let ops: Vec<_> = il.iter().map(|i| i.opcode().unwrap()).collect();
        assert_eq!(ops, vec![Opcode::Mov, Opcode::Pop, Opcode::Jmp]);
        let last = il.get(il.last_id().unwrap());
        assert_eq!(last.target(), Some(Target::Pc(layout::IB_LOOKUP)));
        assert_eq!(Note::parse(last.note), Some(Note::IbExit(IndKind::Ret)));
    }

    #[test]
    fn mangle_ret_n_adjusts_esp() {
        let mut il = decoded_block(&[0xC2, 0x08, 0x00], 0x1000);
        mangle_bb(&mut il, 0x1003);
        let ops: Vec<_> = il.iter().map(|i| i.opcode().unwrap()).collect();
        assert_eq!(
            ops,
            vec![Opcode::Mov, Opcode::Pop, Opcode::Lea, Opcode::Jmp]
        );
    }

    #[test]
    fn mangle_indirect_call_reads_target_before_push() {
        // call *4(%esp): the memory operand must be read into %ecx before
        // the return address is pushed (esp changes).
        let mut il = decoded_block(&[0xFF, 0x54, 0x24, 0x04], 0x1000);
        mangle_bb(&mut il, 0x1004);
        let ops: Vec<_> = il.iter().map(|i| i.opcode().unwrap()).collect();
        assert_eq!(
            ops,
            vec![Opcode::Mov, Opcode::Mov, Opcode::Push, Opcode::Jmp]
        );
    }

    #[test]
    fn connector_removes_direct_jmp() {
        let mut il = decoded_block(&[0xE9, 0x10, 0x00, 0x00, 0x00], 0x1000);
        mangle_trace_connector(&mut il, 0x1015, 0x1005, true);
        assert_eq!(il.len(), 0);
    }

    #[test]
    fn connector_flips_taken_jcc() {
        // jz +5 taken to 0x1007 which is the next trace block.
        let mut il = decoded_block(&[0x74, 0x05], 0x1000);
        mangle_trace_connector(&mut il, 0x1007, 0x1002, true);
        assert_eq!(il.len(), 1);
        let i = il.get(il.first_id().unwrap());
        assert_eq!(i.opcode(), Some(Opcode::Jcc(Cc::Nz))); // flipped
        assert_eq!(i.target(), Some(Target::Pc(0x1002))); // exits to fall-through
    }

    #[test]
    fn connector_keeps_untaken_jcc() {
        // Fall-through 0x1002 is the next block; jcc exits on taken path.
        let mut il = decoded_block(&[0x74, 0x05], 0x1000);
        mangle_trace_connector(&mut il, 0x1002, 0x1002, true);
        let i = il.get(il.first_id().unwrap());
        assert_eq!(i.opcode(), Some(Opcode::Jcc(Cc::Z)));
        assert_eq!(i.target(), Some(Target::Pc(0x1007)));
    }

    #[test]
    fn connector_inlines_ret_check_with_markers() {
        let mut il = decoded_block(&[0xC3], 0x1000);
        mangle_trace_connector(&mut il, 0x2000, 0x1001, true);
        let checks = find_ib_checks(&il);
        assert_eq!(checks.len(), 1);
        let c = checks[0];
        assert_eq!(c.kind, IndKind::Ret);
        assert_eq!(c.expected, 0x2000);
        // Region contains the flag-free comparison: two leas and a jecxz,
        // and no eflags-writing instruction.
        let mut cur = Some(c.begin);
        while let Some(id) = cur {
            let eff = il.get(id).eflags();
            assert!(eff.written.is_empty(), "check must not clobber eflags");
            if id == c.end {
                break;
            }
            cur = il.next_id(id);
        }
    }

    #[test]
    fn connector_without_inlining_always_exits() {
        let mut il = decoded_block(&[0xC3], 0x1000);
        mangle_trace_connector(&mut il, 0x2000, 0x1001, false);
        let last = il.get(il.last_id().unwrap());
        assert_eq!(Note::parse(last.note), Some(Note::IbExit(IndKind::Ret)));
        assert!(find_ib_checks(&il).is_empty());
    }

    #[test]
    fn elide_ret_check_collapses_to_lea() {
        let mut il = decoded_block(&[0xC3], 0x1000);
        mangle_trace_connector(&mut il, 0x2000, 0x1001, true);
        let checks = find_ib_checks(&il);
        elide_ret_check(&mut il, &checks[0]);
        let ops: Vec<_> = il.iter().map(|i| i.opcode().unwrap()).collect();
        assert_eq!(ops, vec![Opcode::Lea]);
        let lea = il.get(il.first_id().unwrap());
        let m = lea.src(0).as_mem().unwrap();
        assert_eq!(m.base, Some(Reg::Esp));
        assert_eq!(m.disp, 4);
    }

    /// One line per instruction: app pc, opcode and operands (label targets
    /// as list positions), and the parsed core note.
    fn render(il: &InstrList) -> String {
        let ids: Vec<InstrId> = il.ids().collect();
        let pos = |id: InstrId| ids.iter().position(|&i| i == id).expect("target in list");
        let opnd = |o: &Opnd| match o {
            Opnd::Instr(id) => format!("@{}", pos(*id)),
            other => other.to_string(),
        };
        let mut out = String::new();
        for (i, &id) in ids.iter().enumerate() {
            let instr = il.get(id);
            let mut text = match instr.opcode() {
                _ if instr.is_label() => "<label>".to_string(),
                Some(op) => op.to_string(),
                None => instr.to_string(),
            };
            for s in instr.srcs() {
                text += &format!(" {}", opnd(s));
            }
            if !instr.dsts().is_empty() {
                text += " ->";
                for d in instr.dsts() {
                    text += &format!(" {}", opnd(d));
                }
            }
            let note = Note::parse(instr.note).map_or(String::new(), |n| format!("  {n:?}"));
            out += &format!("  {i}: {:#x} {text}{note}\n", instr.app_pc());
        }
        out
    }

    /// The exact mangled form of every terminator, as a block and as a trace
    /// connector with the inline check on and off. Each block sits at
    /// 0x1000; the connector's next tag is listed per row.
    #[test]
    fn mangled_forms_of_every_terminator() {
        let rows: [(&str, &[u8], u32); 11] = [
            ("fall-through", &[0xB8, 1, 0, 0, 0], 0x1005),
            ("hlt", &[0xF4], 0x1001),
            ("jmp", &[0xE9, 0x10, 0, 0, 0], 0x1015),
            ("jcc taken", &[0x74, 0x05], 0x1007),
            ("jcc fall-through", &[0x74, 0x05], 0x1002),
            ("jecxz taken", &[0xE3, 0x05], 0x1007),
            ("call", &[0xE8, 0x00, 0x01, 0, 0], 0x1105),
            ("ret", &[0xC3], 0x2000),
            ("ret n", &[0xC2, 0x08, 0x00], 0x2000),
            ("jmp*", &[0xFF, 0xE0], 0x2000),
            ("call*", &[0xFF, 0x54, 0x24, 0x04], 0x2000),
        ];
        let mut got = String::new();
        for (name, bytes, next) in rows {
            let end = 0x1000 + bytes.len() as u32;
            let mut bb = decoded_block(bytes, 0x1000);
            mangle_bb(&mut bb, end);
            got += &format!("{name} / block\n{}", render(&bb));
            for inline in [true, false] {
                let mut il = decoded_block(bytes, 0x1000);
                mangle_trace_connector(&mut il, next, end, inline);
                got += &format!("{name} / connector, inline {inline}\n{}", render(&il));
            }
        }
        assert_eq!(got, MANGLED_FORMS, "actual:\n{got}");
    }

    const MANGLED_FORMS: &str = "\
fall-through / block
  0: 0x1000 mov $0x1 -> %eax
  1: 0x0 jmp $0x00001005
fall-through / connector, inline true
  0: 0x1000 mov $0x1 -> %eax
fall-through / connector, inline false
  0: 0x1000 mov $0x1 -> %eax
hlt / block
  0: 0x1000 hlt
hlt / connector, inline true
  0: 0x1000 hlt
hlt / connector, inline false
  0: 0x1000 hlt
jmp / block
  0: 0x1000 jmp $0x00001015
jmp / connector, inline true
jmp / connector, inline false
jcc taken / block
  0: 0x1000 jz $0x00001007
  1: 0x0 jmp $0x00001002
jcc taken / connector, inline true
  0: 0x1000 jnz $0x00001002
jcc taken / connector, inline false
  0: 0x1000 jnz $0x00001002
jcc fall-through / block
  0: 0x1000 jz $0x00001007
  1: 0x0 jmp $0x00001002
jcc fall-through / connector, inline true
  0: 0x1000 jz $0x00001007
jcc fall-through / connector, inline false
  0: 0x1000 jz $0x00001007
jecxz taken / block
  0: 0x1000 jecxz $0x00001007 %ecx
  1: 0x0 jmp $0x00001002
jecxz taken / connector, inline true
  0: 0x0 jecxz @2 %ecx
  1: 0x0 jmp $0x00001002
  2: 0x0 <label>
jecxz taken / connector, inline false
  0: 0x0 jecxz @2 %ecx
  1: 0x0 jmp $0x00001002
  2: 0x0 <label>
call / block
  0: 0x1000 push $0x00001005 %esp -> %esp -0x4(%esp)
  1: 0x0 jmp $0x00001105
call / connector, inline true
  0: 0x1000 push $0x00001005 %esp -> %esp -0x4(%esp)
call / connector, inline false
  0: 0x1000 push $0x00001005 %esp -> %esp -0x4(%esp)
ret / block
  0: 0x1000 mov %ecx -> -0x20000000  Spill
  1: 0x0 pop %esp (%esp) -> %ecx %esp
  2: 0x0 jmp $0xf0000010  IbExit(Ret)
ret / connector, inline true
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Ret, extra: 0, expected: 8192 }
  1: 0x0 pop %esp (%esp) -> %ecx %esp
  2: 0x0 lea -0x2000(%ecx) -> %ecx
  3: 0x0 jecxz @6 %ecx
  4: 0x0 lea 0x2000(%ecx) -> %ecx
  5: 0x0 jmp $0xf0000010  IbExit(Ret)
  6: 0x0 <label>
  7: 0x0 mov -0x20000000 -> %ecx  IbCheckEnd
ret / connector, inline false
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Ret, extra: 0, expected: 8192 }
  1: 0x0 pop %esp (%esp) -> %ecx %esp
  2: 0x0 jmp $0xf0000010  IbExit(Ret)
ret n / block
  0: 0x1000 mov %ecx -> -0x20000000  Spill
  1: 0x0 pop %esp (%esp) -> %ecx %esp
  2: 0x0 lea 0x8(%esp) -> %esp
  3: 0x0 jmp $0xf0000010  IbExit(Ret)
ret n / connector, inline true
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Ret, extra: 8, expected: 8192 }
  1: 0x0 pop %esp (%esp) -> %ecx %esp
  2: 0x0 lea 0x8(%esp) -> %esp
  3: 0x0 lea -0x2000(%ecx) -> %ecx
  4: 0x0 jecxz @7 %ecx
  5: 0x0 lea 0x2000(%ecx) -> %ecx
  6: 0x0 jmp $0xf0000010  IbExit(Ret)
  7: 0x0 <label>
  8: 0x0 mov -0x20000000 -> %ecx  IbCheckEnd
ret n / connector, inline false
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Ret, extra: 8, expected: 8192 }
  1: 0x0 pop %esp (%esp) -> %ecx %esp
  2: 0x0 lea 0x8(%esp) -> %esp
  3: 0x0 jmp $0xf0000010  IbExit(Ret)
jmp* / block
  0: 0x1000 mov %ecx -> -0x20000000  Spill
  1: 0x0 mov %eax -> %ecx
  2: 0x0 jmp $0xf0000010  IbExit(Jmp)
jmp* / connector, inline true
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Jmp, extra: 0, expected: 8192 }
  1: 0x0 mov %eax -> %ecx
  2: 0x0 lea -0x2000(%ecx) -> %ecx
  3: 0x0 jecxz @6 %ecx
  4: 0x0 lea 0x2000(%ecx) -> %ecx
  5: 0x0 jmp $0xf0000010  IbExit(Jmp)
  6: 0x0 <label>
  7: 0x0 mov -0x20000000 -> %ecx  IbCheckEnd
jmp* / connector, inline false
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Jmp, extra: 0, expected: 8192 }
  1: 0x0 mov %eax -> %ecx
  2: 0x0 jmp $0xf0000010  IbExit(Jmp)
call* / block
  0: 0x1000 mov %ecx -> -0x20000000  Spill
  1: 0x0 mov 0x4(%esp) -> %ecx
  2: 0x0 push $0x00001004 %esp -> %esp -0x4(%esp)
  3: 0x0 jmp $0xf0000010  IbExit(Call)
call* / connector, inline true
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Call, extra: 0, expected: 8192 }
  1: 0x0 mov 0x4(%esp) -> %ecx
  2: 0x0 push $0x00001004 %esp -> %esp -0x4(%esp)
  3: 0x0 lea -0x2000(%ecx) -> %ecx
  4: 0x0 jecxz @7 %ecx
  5: 0x0 lea 0x2000(%ecx) -> %ecx
  6: 0x0 jmp $0xf0000010  IbExit(Call)
  7: 0x0 <label>
  8: 0x0 mov -0x20000000 -> %ecx  IbCheckEnd
call* / connector, inline false
  0: 0x1000 mov %ecx -> -0x20000000  IbCheckBegin { kind: Call, extra: 0, expected: 8192 }
  1: 0x0 mov 0x4(%esp) -> %ecx
  2: 0x0 push $0x00001004 %esp -> %esp -0x4(%esp)
  3: 0x0 jmp $0xf0000010  IbExit(Call)
";

    #[test]
    fn classify_covers_all_terminators() {
        assert_eq!(
            classify_terminator(&decoded_block(&[0xF4], 0)),
            Terminator::Halt
        );
        assert_eq!(
            classify_terminator(&decoded_block(&[0xFF, 0xE0], 0)),
            Terminator::JmpInd
        );
        assert_eq!(
            classify_terminator(&decoded_block(&[0xFF, 0xD0], 0)),
            Terminator::CallInd
        );
        assert_eq!(
            classify_terminator(&decoded_block(&[0xC2, 0x04, 0x00], 0)),
            Terminator::Ret { extra: 4 }
        );
        assert_eq!(
            classify_terminator(&decoded_block(&[0x90], 0)),
            Terminator::FallThrough
        );
    }
}
