//! Redundant load removal (paper §4.1).
//!
//! "Because there are so few registers in IA-32, local variables are
//! frequently loaded from and stored back to the stack. If a variable's
//! value is already in a register, a subsequent load can be removed."
//!
//! The analysis is a forward scan over the linear trace maintaining a set of
//! `register == memory` equivalences:
//!
//! * a load `mov M -> R` with `(R, M)` already known is deleted;
//! * a load or store establishes `(R, M)`;
//! * writes kill equivalences whose register is overwritten or whose address
//!   registers change; stores kill equivalences whose memory may alias the
//!   written location (same-base displacement disambiguation, conservative
//!   otherwise).
//!
//! Removal is globally safe: when `(R, M)` holds, deleting the reload leaves
//! the machine in an identical state on every path, including trace exits.

use rio_core::{Client, Core};
use rio_ia32::{InstrId, InstrList, MemRef, OpSize, Opcode, Opnd, Reg};

/// Modeled cycles of client analysis per instruction scanned.
const ANALYSIS_COST_PER_INSTR: u64 = 14;

/// A known register/memory equivalence.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Pair {
    reg: Reg,
    mem: MemRef,
}

/// Whether two memory references may overlap.
///
/// Same base/index/scale with displacements at least an access apart cannot
/// alias. `%esp`-relative accesses (push/pop traffic) cannot alias
/// `%ebp`-relative frame slots under the standard stack discipline (`%esp`
/// stays below every live frame slot) — the assumption that makes removal
/// profitable in real stack-spill code. Anything else conservatively may
/// alias.
fn may_alias(a: &MemRef, b: &MemRef) -> bool {
    if a.base == b.base && a.index == b.index && a.scale == b.scale {
        let (lo, hi, lo_size) = if a.disp <= b.disp {
            (a.disp, b.disp, a.size)
        } else {
            (b.disp, a.disp, b.size)
        };
        return (hi - lo) < lo_size.bytes() as i32;
    }
    let is_frame =
        |x: &MemRef| matches!(x.base, Some(Reg::Esp) | Some(Reg::Ebp)) && x.index.is_none();
    let is_global = |x: &MemRef| x.base.is_none();
    // Stack discipline: push/pop traffic below %esp never overlaps live
    // %ebp frame slots.
    let stack_disjoint = |x: &MemRef, y: &MemRef| {
        x.base == Some(Reg::Esp)
            && x.index.is_none()
            && y.base == Some(Reg::Ebp)
            && y.index.is_none()
    };
    if stack_disjoint(a, b) || stack_disjoint(b, a) {
        return false;
    }
    // Data-segment accesses (absolute or table-indexed) never overlap the
    // stack frame in the simulated address-space layout.
    if (is_frame(a) && is_global(b)) || (is_frame(b) && is_global(a)) {
        return false;
    }
    true
}

/// The redundant-load-removal client.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rlr {
    /// Loads examined.
    pub loads_seen: u64,
    /// Loads removed.
    pub loads_removed: u64,
    /// Loads replaced by register-register copies (the value was live in a
    /// different register).
    pub loads_copied: u64,
}

impl Rlr {
    /// Create the client.
    pub fn new() -> Rlr {
        Rlr::default()
    }

    /// Run the optimization over one linear list; returns removals.
    pub fn transform(&mut self, core: &mut Core, il: &mut InstrList) -> u64 {
        let ids: Vec<InstrId> = il.ids().collect();
        core.charge(ANALYSIS_COST_PER_INSTR * ids.len() as u64);
        let mut pairs: Vec<Pair> = Vec::new();
        let mut removed = 0u64;

        for id in ids {
            let instr = il.get(id);
            let Some(op) = instr.opcode() else { continue };
            if instr.is_label() {
                continue;
            }

            // Register-register copies propagate facts: after `mov r1, r2`,
            // r1 holds everything r2 did.
            if op == Opcode::Mov {
                if let (Some(Opnd::Reg(src)), Some(Opnd::Reg(dst))) =
                    (instr.srcs().first(), instr.dsts().first())
                {
                    if src.size() == OpSize::S32 && dst.size() == OpSize::S32 {
                        let (src, dst) = (*src, *dst);
                        pairs.retain(|p| !p.reg.overlaps(dst) && !p.mem.uses_reg(dst));
                        let inherited: Vec<Pair> = pairs
                            .iter()
                            .filter(|p| p.reg == src && !p.mem.uses_reg(dst))
                            .map(|p| Pair {
                                reg: dst,
                                mem: p.mem,
                            })
                            .collect();
                        pairs.extend(inherited);
                        continue;
                    }
                }
            }

            // Classify plain register<->memory moves.
            let as_load = (op == Opcode::Mov)
                .then(|| match (instr.srcs().first(), instr.dsts().first()) {
                    (Some(Opnd::Mem(m)), Some(Opnd::Reg(r)))
                        if r.size() == OpSize::S32 && m.size == OpSize::S32 =>
                    {
                        Some((*r, *m))
                    }
                    _ => None,
                })
                .flatten();
            let as_store = (op == Opcode::Mov)
                .then(|| match (instr.srcs().first(), instr.dsts().first()) {
                    (Some(Opnd::Reg(r)), Some(Opnd::Mem(m)))
                        if r.size() == OpSize::S32 && m.size == OpSize::S32 =>
                    {
                        Some((*r, *m))
                    }
                    _ => None,
                })
                .flatten();

            if let Some((r, m)) = as_load {
                self.loads_seen += 1;
                if pairs.iter().any(|p| p.reg == r && p.mem == m) {
                    // The register already holds this memory value.
                    il.remove(id);
                    self.loads_removed += 1;
                    removed += 1;
                    continue;
                }
                if let Some(src) = pairs
                    .iter()
                    .find(|p| p.mem == m && !p.reg.overlaps(r))
                    .map(|p| p.reg)
                {
                    // The value is live in another register: a reg-reg copy
                    // is cheaper than the memory load ("if a variable's
                    // value is already in a register...").
                    let mut copy = rio_ia32::create::mov(Opnd::Reg(r), Opnd::Reg(src));
                    copy.set_app_pc(il.get(id).app_pc());
                    il.replace(id, copy);
                    self.loads_copied += 1;
                    pairs.retain(|p| !p.reg.overlaps(r) && !p.mem.uses_reg(r));
                    pairs.push(Pair { reg: r, mem: m });
                    continue;
                }
                // New fact (unless the address depends on the loaded reg).
                pairs.retain(|p| !p.reg.overlaps(r) && !p.mem.uses_reg(r));
                if !m.uses_reg(r) {
                    pairs.push(Pair { reg: r, mem: m });
                }
                continue;
            }

            if let Some((r, m)) = as_store {
                // The store may clobber other tracked locations.
                pairs.retain(|p| !may_alias(&p.mem, &m) || (p.reg == r && p.mem == m));
                if !pairs.iter().any(|p| p.reg == r && p.mem == m) && !m.uses_reg(r) {
                    pairs.push(Pair { reg: r, mem: m });
                }
                continue;
            }

            // Generic kill rules.
            let instr = il.get(id);
            for dst in instr.dsts() {
                match dst {
                    Opnd::Reg(r) => {
                        pairs.retain(|p| !p.reg.overlaps(*r) && !p.mem.uses_reg(*r));
                    }
                    Opnd::Mem(m) => {
                        pairs.retain(|p| !may_alias(&p.mem, m));
                    }
                    _ => {}
                }
            }
            // Calls (incl. clean calls) clobber memory arbitrarily.
            if op.is_call() {
                pairs.clear();
            }
        }
        removed
    }
}

impl Client for Rlr {
    fn name(&self) -> &'static str {
        "rlr"
    }

    // No `basic_block` hook: blocks keep the Level 0 bundle fast path.
    fn wants_full_decode(&self) -> bool {
        false
    }

    fn trace(&mut self, core: &mut Core, _tag: u32, trace: &mut InstrList) {
        self.transform(core, trace);
    }

    fn on_exit(&mut self, core: &mut Core) {
        core.printf(format!(
            "rlr: removed {} and copied {} of {} loads\n",
            self.loads_removed, self.loads_copied, self.loads_seen
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::Options;
    use rio_ia32::{create, Target};
    use rio_sim::{CpuKind, Image};

    fn setup() -> (Rlr, Core) {
        let image = Image::from_code(vec![0xf4]);
        let core = Core::new(&image, Options::full(), CpuKind::Pentium4);
        (Rlr::new(), core)
    }

    fn local(disp: i32) -> MemRef {
        MemRef::base_disp(Reg::Ebp, disp, OpSize::S32)
    }

    #[test]
    fn removes_reload_after_load() {
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::reg(Reg::Eax)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4)))); // redundant
        assert_eq!(c.transform(&mut core, &mut il), 1);
        assert_eq!(il.len(), 2);
    }

    #[test]
    fn removes_reload_after_store() {
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::Mem(local(-8)), Opnd::reg(Reg::Ecx)));
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::Mem(local(-8)))); // redundant
        assert_eq!(c.transform(&mut core, &mut il), 1);
    }

    #[test]
    fn register_overwrite_kills_fact() {
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0))); // kills
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 0);
    }

    #[test]
    fn aliasing_store_kills_fact_but_disjoint_does_not() {
        let (mut c, mut core) = setup();
        // Disjoint displacements on the same base: fact survives.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::mov(Opnd::Mem(local(-8)), Opnd::reg(Reg::Ebx)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 1);

        // Same location: fact dies.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::mov(Opnd::Mem(local(-4)), Opnd::reg(Reg::Ebx)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 0);

        // Different base register: conservatively dies.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Esi, 0, OpSize::S32)),
            Opnd::reg(Reg::Ebx),
        ));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 0);
    }

    #[test]
    fn base_register_change_kills_fact() {
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::add(Opnd::reg(Reg::Ebp), Opnd::imm32(16))); // ebp changed
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 0);
    }

    #[test]
    fn load_through_own_register_establishes_nothing() {
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        let m = MemRef::base_disp(Reg::Eax, 0, OpSize::S32);
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(m))); // eax = *eax
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(m))); // NOT redundant
        assert_eq!(c.transform(&mut core, &mut il), 0);
        assert_eq!(il.len(), 2);
    }

    #[test]
    fn facts_survive_exit_ctis() {
        // Linear traces: side exits don't invalidate equivalences.
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::jcc(rio_ia32::Cc::Z, Target::Pc(0x9000)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 1);
    }

    #[test]
    fn push_does_not_kill_ebp_locals() {
        // push writes (%esp), which under the stack discipline cannot alias
        // a live %ebp frame slot — the reload stays removable.
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        il.push_back(create::push(Opnd::reg(Reg::Ebx)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        assert_eq!(c.transform(&mut core, &mut il), 1);
    }

    #[test]
    fn load_into_other_register_becomes_copy() {
        let (mut c, mut core) = setup();
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::Mem(local(-4))));
        let second = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-4))));
        c.transform(&mut core, &mut il);
        assert_eq!(c.loads_copied, 1);
        let i = il.get(second);
        assert_eq!(i.src(0).as_reg(), Some(Reg::Ecx)); // now a reg-reg mov
                                                       // And the new fact allows a further removal.
        let mut il2 = InstrList::new();
        il2.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::Mem(local(-8))));
        il2.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-8))));
        il2.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(local(-8))));
        let mut c2 = Rlr::new();
        c2.transform(&mut core, &mut il2);
        assert_eq!(c2.loads_copied, 1);
        assert_eq!(c2.loads_removed, 1);
    }

    #[test]
    fn end_to_end_correctness_with_redundant_loads() {
        use crate::programs::{assert_matches_native, counted_loop, exit_with, program};
        use rio_core::Rio;
        // Loop with two loads of the same local per iteration.
        let slot = MemRef::absolute(Image::DATA_BASE, OpSize::S32);
        let image = program(|il| {
            il.push_back(create::mov(Opnd::Mem(slot), Opnd::imm32(5)));
            il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
            counted_loop(il, 600, |il| {
                // The second load is redundant.
                for _ in 0..2 {
                    il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(slot)));
                    il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::reg(Reg::Eax)));
                }
            });
            exit_with(il, Reg::Edi);
        });
        let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, Rlr::new());
        let r = rio.run();
        assert_matches_native(&image, &r);
        assert_eq!(r.exit_code, 6000);
        assert!(rio.client.loads_removed >= 1);
        // The optimized run does fewer loads than native in steady state
        // would suggest... at minimum it's architecturally identical.
    }
}
