//! Backward register and eflags-bit liveness analysis over an
//! [`InstrList`].
//!
//! This is the client-facing dataflow analysis promised by the paper's
//! adaptive representation: Level 2 already records each instruction's
//! eflags effect "because on IA-32 many instructions modify the eflags
//! register, making them an important factor to consider in any code
//! transformation" (§3.1), and §4.2's `inc`→`add` example is exactly a
//! flag-liveness argument. This module turns those per-instruction effect
//! tables into a whole-list analysis: for every instruction it computes
//! which 32-bit registers and which arithmetic flag bits may still be read
//! before being overwritten.
//!
//! The analysis is deliberately conservative at every frontier where
//! control leaves the list — exit CTIs, calls, interrupts, and
//! instructions not decoded far enough to know their operands all force
//! the full register file and all six arithmetic flags live. A client that
//! consults [`Liveness`] therefore never sees "dead" for a value the
//! application could observe.

use std::fmt;

use crate::eflags::{Eflags, EflagsEffect};
use crate::ilist::{InstrId, InstrList, Positions};
use crate::instr::{Instr, Target};
use crate::opcode::Opcode;
use crate::opnd::Opnd;
use crate::reg::Reg;

/// A set of 32-bit registers, one bit per hardware register number.
///
/// Sub-registers are widened to their 32-bit parent: inserting `%al` marks
/// `%eax`, because any observation of `%al` is an observation of `%eax`'s
/// low byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RegSet(pub u8);

impl RegSet {
    /// The empty set.
    pub const NONE: RegSet = RegSet(0);
    /// All eight 32-bit registers.
    pub const ALL: RegSet = RegSet(0xff);

    /// A set containing only `reg` (widened to its 32-bit parent).
    pub fn of(reg: Reg) -> RegSet {
        RegSet(1 << reg.parent32().number())
    }

    /// Insert `reg` (widened to its 32-bit parent).
    pub fn insert(&mut self, reg: Reg) {
        self.0 |= 1 << reg.parent32().number();
    }

    /// Remove `reg`'s 32-bit parent.
    pub fn remove(&mut self, reg: Reg) {
        self.0 &= !(1 << reg.parent32().number());
    }

    /// Whether `reg`'s 32-bit parent is in the set.
    pub fn contains(self, reg: Reg) -> bool {
        self.0 & (1 << reg.parent32().number()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Set difference (`self` without `other`).
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// True if no register is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The member registers, in hardware numbering order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::GPR32.into_iter().filter(move |r| self.contains(*r))
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        Ok(())
    }
}

/// Registers and arithmetic flag bits live at one program point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveState {
    /// Live 32-bit registers.
    pub regs: RegSet,
    /// Live arithmetic flag bits.
    pub flags: Eflags,
}

impl LiveState {
    /// Nothing live.
    pub const NONE: LiveState = LiveState {
        regs: RegSet::NONE,
        flags: Eflags::NONE,
    };
    /// Everything live — the state at every frontier where control leaves
    /// the analyzed list.
    pub const ALL: LiveState = LiveState {
        regs: RegSet::ALL,
        flags: Eflags::ALL6,
    };

    /// Pointwise union.
    pub fn union(self, other: LiveState) -> LiveState {
        LiveState {
            regs: self.regs.union(other.regs),
            flags: self.flags | other.flags,
        }
    }
}

impl fmt::Display for LiveState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} |{}", self.regs, self.flags)
    }
}

/// The register and flag effects of a single instruction, as consumed by
/// the liveness transfer function and the client-safety lints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// Registers whose incoming value the instruction may observe
    /// (register sources plus every address register of its memory
    /// operands). For instructions not decoded to Level 3 this is
    /// [`RegSet::ALL`].
    pub uses: RegSet,
    /// Registers whose full 32-bit value the instruction definitely
    /// overwrites — safe to treat as killed by backward liveness.
    /// Sub-register and conditional (`cmovcc`) writes are excluded.
    pub kills: RegSet,
    /// Registers the instruction may write at all, including partial and
    /// conditional writes. A superset of `kills`; this is what a
    /// clobber-check must use.
    pub writes: RegSet,
    /// Arithmetic-flag reads and writes. For instructions not decoded to
    /// Level 2 the read set is all six flags (conservative barrier).
    pub flags: EflagsEffect,
}

/// Compute the [`Effects`] of one instruction.
pub fn effects(instr: &Instr) -> Effects {
    if instr.is_label() {
        return Effects::default();
    }
    let Some(op) = instr.opcode() else {
        // Not decoded far enough to see operands: assume it reads
        // everything and guarantees nothing.
        return Effects {
            uses: RegSet::ALL,
            kills: RegSet::NONE,
            writes: RegSet::NONE,
            flags: EflagsEffect::reads(Eflags::ALL6),
        };
    };
    let mut uses = RegSet::NONE;
    let mut kills = RegSet::NONE;
    let mut writes = RegSet::NONE;
    for src in instr.srcs() {
        match src {
            Opnd::Reg(r) => uses.insert(*r),
            Opnd::Mem(m) => {
                for r in m.address_regs() {
                    uses.insert(r);
                }
            }
            _ => {}
        }
    }
    // `jecxz` observes %ecx without listing it as an operand.
    if op == Opcode::Jecxz {
        uses.insert(Reg::Ecx);
    }
    for dst in instr.dsts() {
        match dst {
            Opnd::Reg(r) => {
                writes.insert(*r);
                // Only a full-width unconditional write kills the old
                // value: byte/word writes leave the rest of the register
                // observable, and cmovcc leaves all of it when the
                // condition fails.
                if r.size() == crate::opnd::OpSize::S32 && !matches!(op, Opcode::Cmov(_)) {
                    kills.insert(*r);
                }
            }
            Opnd::Mem(m) => {
                for r in m.address_regs() {
                    uses.insert(r);
                }
            }
            _ => {}
        }
    }
    Effects {
        uses,
        kills,
        writes,
        flags: instr.eflags(),
    }
}

/// Where control may go after one instruction, in list-position terms.
enum Succ {
    /// Falls through to the next instruction only.
    Next,
    /// Unconditional branch to a label at this position.
    Only(usize),
    /// Conditional branch: label position or fall-through.
    NextOr(usize),
    /// Control leaves the list (exit CTI, call, interrupt, or the end of
    /// the list): everything is live.
    Outside,
}

/// Backward liveness results for one [`InstrList`].
///
/// ```
/// use rio_ia32::{create, liveness::Liveness, InstrList, Opnd, Reg};
/// let mut il = InstrList::new();
/// let a = il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
/// let b = il.push_back(create::mov(Opnd::Reg(Reg::Eax), Opnd::imm32(2)));
/// let live = Liveness::analyze(&il);
/// // %eax is dead after `a`: `b` overwrites it before anything reads it.
/// assert!(!live.live_after(a).regs.contains(Reg::Eax));
/// // After `b` control leaves the list, so everything is live.
/// assert!(live.live_after(b).regs.contains(Reg::Eax));
/// ```
pub struct Liveness {
    pos: Positions,
    before: Vec<LiveState>,
    after: Vec<LiveState>,
}

impl Liveness {
    /// Run the analysis over `il`.
    ///
    /// Control flow within the list follows label targets
    /// ([`Target::Instr`]); any CTI targeting a code address
    /// ([`Target::Pc`]), any indirect CTI, any call, and `int`/`int3`/`hlt`
    /// are frontiers where the full state is live. The analysis iterates
    /// to a fixpoint, so backward branches to labels converge correctly.
    pub fn analyze(il: &InstrList) -> Liveness {
        let mut pos = Positions::default();
        pos.refill(il);
        let n = pos.order.len();

        let mut effs = Vec::with_capacity(n);
        let mut succs = Vec::with_capacity(n);
        for (i, id) in pos.order.iter().enumerate() {
            let instr = il.get(*id);
            effs.push(effects(instr));
            succs.push(successor(instr, i, n, &pos));
        }

        let mut before = vec![LiveState::NONE; n];
        let mut after = vec![LiveState::NONE; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let out = match succs[i] {
                    Succ::Outside => LiveState::ALL,
                    Succ::Next => {
                        if i + 1 < n {
                            before[i + 1]
                        } else {
                            LiveState::ALL
                        }
                    }
                    Succ::Only(j) => before[j],
                    Succ::NextOr(j) => {
                        let fall = if i + 1 < n {
                            before[i + 1]
                        } else {
                            LiveState::ALL
                        };
                        fall.union(before[j])
                    }
                };
                let e = &effs[i];
                let inn = LiveState {
                    regs: e.uses.union(out.regs.minus(e.kills)),
                    flags: e.flags.read | (out.flags & !e.flags.written),
                };
                if after[i] != out || before[i] != inn {
                    after[i] = out;
                    before[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness { pos, before, after }
    }

    /// Live state immediately before `id` executes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the analyzed list.
    pub fn live_before(&self, id: InstrId) -> LiveState {
        self.before[self.index(id)]
    }

    /// Live state immediately after `id` executes (along all successors).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the analyzed list.
    pub fn live_after(&self, id: InstrId) -> LiveState {
        self.after[self.index(id)]
    }

    fn index(&self, id: InstrId) -> usize {
        self.pos
            .get(id)
            .unwrap_or_else(|| panic!("{id:?} is not in the analyzed list"))
    }

    /// Whether `id` was part of the analyzed list.
    pub fn covers(&self, id: InstrId) -> bool {
        self.pos.get(id).is_some()
    }
}

fn successor(instr: &Instr, i: usize, n: usize, pos: &Positions) -> Succ {
    let at_end = i + 1 >= n;
    let Some(op) = instr.opcode() else {
        return if at_end { Succ::Outside } else { Succ::Next };
    };
    let fall = |cond_target: Option<usize>| match (at_end, cond_target) {
        (false, Some(j)) => Succ::NextOr(j),
        (false, None) => Succ::Next,
        (true, Some(j)) => Succ::NextOr(j), // fall-through past the end is Outside via union
        (true, None) => Succ::Outside,
    };
    match op {
        Opcode::Jmp => match instr.target() {
            Some(Target::Instr(l)) => match pos.get(l) {
                Some(j) => Succ::Only(j),
                None => Succ::Outside,
            },
            _ => Succ::Outside,
        },
        Opcode::Jcc(_) | Opcode::Jecxz => match instr.target() {
            Some(Target::Instr(l)) => match pos.get(l) {
                Some(j) => fall(Some(j)),
                None => Succ::Outside,
            },
            // A side exit: the taken edge leaves the list, so everything
            // is live regardless of the fall-through.
            _ => Succ::Outside,
        },
        Opcode::JmpInd
        | Opcode::Call
        | Opcode::CallInd
        | Opcode::Ret
        | Opcode::Int
        | Opcode::Int3
        | Opcode::Hlt => Succ::Outside,
        _ => {
            if at_end {
                Succ::Outside
            } else {
                Succ::Next
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create;
    use crate::opcode::Cc;
    use crate::opnd::{MemRef, OpSize};

    #[test]
    fn regset_widens_subregisters() {
        let mut s = RegSet::NONE;
        s.insert(Reg::Al);
        assert!(s.contains(Reg::Eax));
        assert!(s.contains(Reg::Ax));
        s.remove(Reg::Ah);
        assert!(!s.contains(Reg::Eax));
    }

    #[test]
    fn overwritten_register_is_dead_between_defs() {
        let mut il = InstrList::new();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(1)));
        let b = il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(2)));
        let live = Liveness::analyze(&il);
        assert!(!live.live_after(a).regs.contains(Reg::Ebx));
        assert!(live.live_after(b).regs.contains(Reg::Ebx));
    }

    #[test]
    fn read_keeps_register_live() {
        let mut il = InstrList::new();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::Reg(Reg::Eax), Opnd::Reg(Reg::Ebx)));
        let live = Liveness::analyze(&il);
        assert!(live.live_after(a).regs.contains(Reg::Ebx));
        // %eax is read-modify-write, so it is live before the add too.
        assert!(live.live_before(a).regs.contains(Reg::Eax));
    }

    #[test]
    fn memory_address_registers_count_as_uses() {
        let mut il = InstrList::new();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Esi), Opnd::imm32(0)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Esi, 4, OpSize::S32)),
            Opnd::imm32(7),
        ));
        let live = Liveness::analyze(&il);
        assert!(live.live_after(a).regs.contains(Reg::Esi));
    }

    #[test]
    fn flags_dead_between_full_writers() {
        let mut il = InstrList::new();
        let a = il.push_back(create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        let b = il.push_back(create::sub(Opnd::Reg(Reg::Ebx), Opnd::imm32(1)));
        let live = Liveness::analyze(&il);
        // The sub overwrites all six flags before anything reads them.
        assert!(live.live_after(a).flags.is_empty());
        assert_eq!(live.live_after(b).flags, Eflags::ALL6);
    }

    #[test]
    fn inc_does_not_kill_carry() {
        let mut il = InstrList::new();
        let a = il.push_back(create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::inc(Opnd::Reg(Reg::Ebx)));
        il.push_back(create::adc(Opnd::Reg(Reg::Ecx), Opnd::imm32(0)));
        let live = Liveness::analyze(&il);
        // adc reads CF; inc writes everything but CF, so CF stays live
        // across the inc back to the add.
        assert!(live.live_after(a).flags.contains(Eflags::CF));
        assert!(!live.live_after(a).flags.contains(Eflags::ZF));
    }

    #[test]
    fn jcc_reads_only_its_condition_flags() {
        let mut il = InstrList::new();
        let a = il.push_back(create::cmp(Opnd::Reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::jcc(Cc::Z, Target::Pc(0x400100)));
        let live = Liveness::analyze(&il);
        // The side exit makes everything live after the cmp...
        assert_eq!(live.live_after(a).flags, Eflags::ALL6);
        // ...but before the cmp only what the cmp itself needs.
        assert!(!live.live_before(a).flags.contains(Eflags::ZF));
    }

    #[test]
    fn conditional_branch_unions_both_paths() {
        let mut il = InstrList::new();
        let lbl = Instr::label();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Edi), Opnd::imm32(1)));
        let j = il.push_back(create::jecxz(Target::Pc(0))); // placeholder
        let kill = il.push_back(create::mov(Opnd::Reg(Reg::Edi), Opnd::imm32(2)));
        let l = il.push_back(lbl);
        il.push_back(create::add(Opnd::Reg(Reg::Eax), Opnd::Reg(Reg::Edi)));
        il.get_mut(j).set_target(Target::Instr(l));
        let live = Liveness::analyze(&il);
        // Taken path skips the kill, so %edi is live after `a`.
        assert!(live.live_after(a).regs.contains(Reg::Edi));
        // The kill itself sees a dead %edi coming in on its path: its own
        // write is what makes it live afterwards.
        assert!(live.live_after(kill).regs.contains(Reg::Edi));
        // jecxz observes %ecx.
        assert!(live.live_before(j).regs.contains(Reg::Ecx));
    }

    #[test]
    fn exit_cti_and_calls_are_frontiers() {
        for terminator in [
            create::jmp(Target::Pc(0x400000)),
            create::jmp_ind(Opnd::Reg(Reg::Eax)),
            create::ret(),
            create::call(Target::Pc(0x400000)),
            create::int(0x80),
        ] {
            let mut il = InstrList::new();
            let a = il.push_back(create::mov(Opnd::Reg(Reg::Ebp), Opnd::imm32(1)));
            il.push_back(terminator);
            let live = Liveness::analyze(&il);
            assert_eq!(live.live_after(a), LiveState::ALL);
        }
    }

    #[test]
    fn undecoded_instruction_is_a_conservative_barrier() {
        let mut il = InstrList::new();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(1)));
        il.push_back(Instr::raw(&[0x90], 0));
        il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(2)));
        let live = Liveness::analyze(&il);
        // The raw byte might read anything, so %ebx stays live.
        assert!(live.live_after(a).regs.contains(Reg::Ebx));
    }

    #[test]
    fn cmov_does_not_kill_its_destination() {
        let mut il = InstrList::new();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(1)));
        il.push_back(create::cmov(Cc::Z, Reg::Ebx, Opnd::Reg(Reg::Eax)));
        il.push_back(create::mov(Opnd::Reg(Reg::Ecx), Opnd::Reg(Reg::Ebx)));
        let live = Liveness::analyze(&il);
        // If the condition fails the old %ebx flows through to the final
        // mov, so the first def stays live.
        assert!(live.live_after(a).regs.contains(Reg::Ebx));
    }

    #[test]
    fn partial_register_write_does_not_kill_parent() {
        let mut il = InstrList::new();
        let a = il.push_back(create::mov(Opnd::Reg(Reg::Ebx), Opnd::imm32(0x1234)));
        il.push_back(create::mov(Opnd::Reg(Reg::Bl), Opnd::imm8(1)));
        il.push_back(create::push(Opnd::Reg(Reg::Ebx)));
        let live = Liveness::analyze(&il);
        // The byte write leaves bits 8..31 observable.
        assert!(live.live_after(a).regs.contains(Reg::Ebx));
        let e = effects(il.get(il.next_id(a).unwrap()));
        assert!(e.writes.contains(Reg::Ebx));
        assert!(e.kills.is_empty());
    }

    #[test]
    fn backward_branch_converges() {
        // loop: add eax, 1; dec ecx; jnz loop — %eax and %ecx live around
        // the back edge.
        let mut il = InstrList::new();
        let l = il.push_back(Instr::label());
        let a = il.push_back(create::add(Opnd::Reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::dec(Opnd::Reg(Reg::Ecx)));
        il.push_back(create::jcc(Cc::Nz, Target::Instr(l)));
        let live = Liveness::analyze(&il);
        assert!(live.live_before(a).regs.contains(Reg::Eax));
        assert!(live.live_before(a).regs.contains(Reg::Ecx));
    }
}
