//! Cycle cost model: per-opcode costs, branch predictors, counters.
//!
//! The model is deliberately simple — a handful of fixed costs per
//! processor — but captures
//! every effect the paper's evaluation depends on:
//!
//! * **Indirect branches** predict through a BTB (last-target). Returns
//!   executed as real `ret` instructions additionally consult a return
//!   address stack, which translated code cannot use ("to do so would
//!   require storing code cache addresses on the stack, violating
//!   transparency" — §5).
//! * **Conditional branches** predict through a table of 2-bit counters.
//! * **`inc`/`dec`** carry a flags-merge penalty on the Pentium 4 model but
//!   not the Pentium 3 — the architecture-specific asymmetry exploited by
//!   the strength-reduction client (§4.2).

use std::fmt;

use rio_ia32::Opcode;

use crate::spare::{self, Spares};

/// Processor family reported to clients (paper: `proc_get_family`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// Pentium III model: cheap `inc`, smaller mispredict penalty.
    Pentium3,
    /// Pentium 4 model: `inc`/`dec` flags-merge penalty, deep pipeline.
    Pentium4,
}

/// A processor model's cycle costs.
#[derive(Clone, Copy, Debug, PartialEq)]
struct CostParams {
    /// Base cost of a simple ALU instruction.
    base: u64,
    /// Additional cost of a memory load operand.
    load: u64,
    /// Additional cost of a memory store operand.
    store: u64,
    /// Cost of `inc`/`dec` (replaces `base`).
    inc_dec: u64,
    /// Cost of a 32-bit multiply (replaces `base`).
    mul: u64,
    /// Cost of a 32-bit divide (replaces `base`).
    div: u64,
    /// Cost of `pushfd`/`popfd`/`lahf`/`sahf` flag shuffles.
    flags_save: u64,
    /// Fetch-bubble cost of any taken branch.
    taken_branch: u64,
    /// Branch misprediction penalty.
    mispredict: u64,
}

/// The Pentium 4 model's costs.
const PENTIUM4: CostParams = CostParams {
    base: 1,
    load: 3,
    store: 2,
    inc_dec: 4,
    mul: 10,
    div: 40,
    flags_save: 6,
    taken_branch: 1,
    mispredict: 20,
};

/// The Pentium III model's costs (shallower pipeline, no flags-merge
/// penalty on `inc`).
const PENTIUM3: CostParams = CostParams {
    base: 1,
    load: 2,
    store: 2,
    inc_dec: 1,
    mul: 5,
    div: 30,
    flags_save: 4,
    taken_branch: 1,
    mispredict: 10,
};

/// Execution statistics accumulated by a [`Machine`](crate::Machine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles (instruction costs + penalties + charged overhead).
    pub cycles: u64,
    /// Cycles charged by the runtime (dispatch, lookups, optimization time)
    /// rather than by executed instructions; included in `cycles`.
    pub charged_overhead: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Conditional-branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-branch (incl. return) mispredictions.
    pub ind_mispredicts: u64,
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
}

impl Counters {
    /// Difference `self - start` (for measuring a run segment).
    pub fn since(&self, start: &Counters) -> Counters {
        Counters {
            instructions: self.instructions - start.instructions,
            cycles: self.cycles - start.cycles,
            charged_overhead: self.charged_overhead - start.charged_overhead,
            taken_branches: self.taken_branches - start.taken_branches,
            cond_mispredicts: self.cond_mispredicts - start.cond_mispredicts,
            ind_mispredicts: self.ind_mispredicts - start.ind_mispredicts,
            loads: self.loads - start.loads,
            stores: self.stores - start.stores,
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs, {} cycles ({} overhead), {} taken, {} cond-miss, {} ind-miss",
            self.instructions,
            self.cycles,
            self.charged_overhead,
            self.taken_branches,
            self.cond_mispredicts,
            self.ind_mispredicts
        )
    }
}

const BP_BITS: usize = 12;
const BP_SIZE: usize = 1 << BP_BITS;
const BTB_BITS: usize = 12;
const BTB_SIZE: usize = 1 << BTB_BITS;
const RAS_DEPTH: usize = 16;
/// A fresh conditional-branch counter: weakly not-taken.
const BP_INIT: u8 = 1;

/// A model's predictor tables: the conditional-branch counters and the BTB.
type Predictors = (Vec<u8>, Vec<(u32, u32)>);

thread_local! {
    /// Predictor tables of models dropped on this thread.
    static SPARE_PREDICTORS: Spares<Predictors> = const { Spares::new(Vec::new()) };
}

/// The complete performance model: the processor's costs plus predictor
/// state.
pub struct CostModel {
    kind: CpuKind,
    /// The costs of `kind` ([`PENTIUM3`] or [`PENTIUM4`]).
    params: CostParams,
    /// 2-bit saturating counters for conditional branches.
    bp: Vec<u8>,
    /// Branch target buffer: tag + predicted target.
    btb: Vec<(u32, u32)>,
    /// Return address stack.
    ras: [u32; RAS_DEPTH],
    ras_top: usize,
    ras_len: usize,
}

impl Drop for CostModel {
    fn drop(&mut self) {
        let tables = (std::mem::take(&mut self.bp), std::mem::take(&mut self.btb));
        spare::give(&SPARE_PREDICTORS, tables);
    }
}

impl fmt::Debug for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CostModel({:?})", self.kind)
    }
}

impl CostModel {
    /// Create the model for a processor family.
    pub fn new(kind: CpuKind) -> CostModel {
        let params = match kind {
            CpuKind::Pentium3 => PENTIUM3,
            CpuKind::Pentium4 => PENTIUM4,
        };
        // A dropped model's tables, reset, or new ones.
        let (bp, btb) = match spare::take(&SPARE_PREDICTORS) {
            Some((mut bp, mut btb)) => {
                bp.fill(BP_INIT);
                btb.fill((0, 0));
                (bp, btb)
            }
            None => (vec![BP_INIT; BP_SIZE], vec![(0, 0); BTB_SIZE]),
        };
        CostModel {
            kind,
            params,
            bp,
            btb,
            ras: [0; RAS_DEPTH],
            ras_top: 0,
            ras_len: 0,
        }
    }

    /// The modelled processor family (paper: `proc_get_family`).
    pub fn kind(&self) -> CpuKind {
        self.kind
    }

    /// Base cost of executing `op` with the given counts of memory loads and
    /// stores among its operands.
    pub fn instr_cost(&self, op: Opcode, loads: u64, stores: u64) -> u64 {
        let p = &self.params;
        let base = match op {
            Opcode::Inc | Opcode::Dec => p.inc_dec,
            Opcode::Imul | Opcode::Mul => p.mul,
            Opcode::Idiv | Opcode::Div => p.div,
            Opcode::Pushfd | Opcode::Popfd | Opcode::Lahf | Opcode::Sahf => p.flags_save,
            _ => p.base,
        };
        base + loads * p.load + stores * p.store
    }

    fn bp_index(pc: u32) -> usize {
        ((pc >> 1) as usize) & (BP_SIZE - 1)
    }

    /// Account for a conditional branch at `pc` that was `taken` or not.
    /// Returns the penalty cycles (0 if predicted correctly).
    pub fn cond_branch(&mut self, pc: u32, taken: bool, counters: &mut Counters) -> u64 {
        let i = Self::bp_index(pc);
        let state = self.bp[i];
        let predicted_taken = state >= 2;
        // Update the 2-bit saturating counter.
        self.bp[i] = if taken {
            (state + 1).min(3)
        } else {
            state.saturating_sub(1)
        };
        let mut penalty = 0;
        if taken {
            counters.taken_branches += 1;
            penalty += self.params.taken_branch;
        }
        if predicted_taken != taken {
            counters.cond_mispredicts += 1;
            penalty += self.params.mispredict;
        }
        penalty
    }

    /// Account for a direct unconditional transfer (`jmp`/`call`). The
    /// target is static so there is no misprediction, only the taken-branch
    /// fetch bubble.
    pub fn direct_branch(&mut self, counters: &mut Counters) -> u64 {
        counters.taken_branches += 1;
        self.params.taken_branch
    }

    fn btb_index(pc: u32) -> usize {
        ((pc >> 1) as usize) & (BTB_SIZE - 1)
    }

    /// Account for an indirect transfer at `pc` resolving to `target`.
    ///
    /// `is_ret` marks a real `ret` instruction, which may use the return
    /// address stack; translated returns execute as indirect jumps and must
    /// pass `is_ret = false`.
    pub fn indirect_branch(
        &mut self,
        pc: u32,
        target: u32,
        is_ret: bool,
        counters: &mut Counters,
    ) -> u64 {
        counters.taken_branches += 1;
        let mut penalty = self.params.taken_branch;
        let predicted = if is_ret {
            self.ras_pop()
        } else {
            let (tag, t) = self.btb[Self::btb_index(pc)];
            if tag == pc {
                Some(t)
            } else {
                None
            }
        };
        if predicted != Some(target) {
            counters.ind_mispredicts += 1;
            penalty += self.params.mispredict;
        }
        self.btb[Self::btb_index(pc)] = (pc, target);
        penalty
    }

    /// Push a return address onto the RAS (executed `call`).
    pub fn ras_push(&mut self, ret_addr: u32) {
        self.ras[self.ras_top] = ret_addr;
        self.ras_top = (self.ras_top + 1) % RAS_DEPTH;
        self.ras_len = (self.ras_len + 1).min(RAS_DEPTH);
    }

    fn ras_pop(&mut self) -> Option<u32> {
        if self.ras_len == 0 {
            return None;
        }
        self.ras_top = (self.ras_top + RAS_DEPTH - 1) % RAS_DEPTH;
        self.ras_len -= 1;
        Some(self.ras[self.ras_top])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p4_penalizes_inc_but_p3_does_not() {
        let p4 = CostModel::new(CpuKind::Pentium4);
        let p3 = CostModel::new(CpuKind::Pentium3);
        assert!(p4.instr_cost(Opcode::Inc, 0, 0) > p4.instr_cost(Opcode::Add, 0, 0));
        assert_eq!(
            p3.instr_cost(Opcode::Inc, 0, 0),
            p3.instr_cost(Opcode::Add, 0, 0)
        );
    }

    #[test]
    fn memory_operands_add_cost() {
        let m = CostModel::new(CpuKind::Pentium4);
        let reg = m.instr_cost(Opcode::Mov, 0, 0);
        let load = m.instr_cost(Opcode::Mov, 1, 0);
        let store = m.instr_cost(Opcode::Mov, 0, 1);
        assert!(load > reg && store > reg);
    }

    #[test]
    fn cond_predictor_learns_a_loop() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        let mut c = Counters::default();
        // Warm up: branch at 0x100 always taken.
        for _ in 0..10 {
            m.cond_branch(0x100, true, &mut c);
        }
        let before = c.cond_mispredicts;
        for _ in 0..100 {
            m.cond_branch(0x100, true, &mut c);
        }
        assert_eq!(c.cond_mispredicts, before); // fully predicted
    }

    #[test]
    fn btb_predicts_stable_indirect_targets() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        let mut c = Counters::default();
        m.indirect_branch(0x200, 0x5000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 1); // cold
        m.indirect_branch(0x200, 0x5000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 1); // hit
        m.indirect_branch(0x200, 0x6000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 2); // target changed
    }

    #[test]
    fn ras_predicts_matched_call_ret_but_not_translated_ret() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        let mut c = Counters::default();
        // Native pattern: call pushes, ret pops.
        m.ras_push(0x1234);
        m.indirect_branch(0x300, 0x1234, true, &mut c);
        assert_eq!(c.ind_mispredicts, 0);
        // Translated pattern: same control flow but executed as plain
        // indirect jump from two different call sites -> BTB misses.
        m.indirect_branch(0x400, 0x1234, false, &mut c);
        assert_eq!(c.ind_mispredicts, 1);
        m.indirect_branch(0x400, 0x9999, false, &mut c);
        assert_eq!(c.ind_mispredicts, 2);
    }

    #[test]
    fn counters_since_subtracts() {
        let a = Counters {
            instructions: 10,
            cycles: 100,
            ..Default::default()
        };
        let b = Counters {
            instructions: 25,
            cycles: 260,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.instructions, 15);
        assert_eq!(d.cycles, 160);
    }

    #[test]
    fn two_bit_counter_walks_the_exact_state_machine() {
        // Fresh counters start weakly not-taken (state 1). Walk the whole
        // state machine at one pc and check the exact penalty (and thus the
        // predicted direction) at every transition, including saturation at
        // both ends.
        let mut m = CostModel::new(CpuKind::Pentium4);
        let p = m.params;
        let mut c = Counters::default();
        let go = |m: &mut CostModel, taken, c: &mut Counters| m.cond_branch(0x40, taken, c);
        // state 1 (weak NT): taken -> mispredict + bubble, to state 2.
        assert_eq!(go(&mut m, true, &mut c), p.taken_branch + p.mispredict);
        // state 2 (weak T): taken -> predicted, to state 3.
        assert_eq!(go(&mut m, true, &mut c), p.taken_branch);
        // state 3 (strong T): taken -> predicted, saturates at 3.
        assert_eq!(go(&mut m, true, &mut c), p.taken_branch);
        // state 3: not taken -> mispredict (no bubble), to state 2.
        assert_eq!(go(&mut m, false, &mut c), p.mispredict);
        // state 2: not taken -> mispredict, to state 1.
        assert_eq!(go(&mut m, false, &mut c), p.mispredict);
        // state 1: not taken -> predicted, to state 0.
        assert_eq!(go(&mut m, false, &mut c), 0);
        // state 0 (strong NT): not taken -> predicted, saturates at 0.
        assert_eq!(go(&mut m, false, &mut c), 0);
        // state 0: taken -> mispredict, back up to state 1.
        assert_eq!(go(&mut m, true, &mut c), p.taken_branch + p.mispredict);
        assert_eq!(c.cond_mispredicts, 4);
        assert_eq!(c.taken_branches, 4);
    }

    #[test]
    fn cond_counters_are_indexed_by_pc_and_alias_at_table_stride() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        let mut c = Counters::default();
        // Train pc=0x100 strongly taken.
        for _ in 0..4 {
            m.cond_branch(0x100, true, &mut c);
        }
        // A nearby branch has its own counter: still weakly not-taken.
        let fresh = m.cond_branch(0x104, true, &mut c);
        assert_eq!(fresh, m.params.taken_branch + m.params.mispredict);
        // The table indexes (pc >> 1) & (BP_SIZE - 1), so pc + (BP_SIZE << 1)
        // shares a counter: the trained state predicts taken immediately.
        let alias = 0x100 + ((BP_SIZE as u32) << 1);
        assert_eq!(m.cond_branch(alias, true, &mut c), m.params.taken_branch);
        // And not-taken outcomes at the alias decay the shared counter until
        // the original pc mispredicts again.
        m.cond_branch(alias, false, &mut c);
        m.cond_branch(alias, false, &mut c);
        assert_eq!(
            m.cond_branch(0x100, true, &mut c),
            m.params.taken_branch + m.params.mispredict
        );
    }

    #[test]
    fn btb_entries_are_tagged_and_evicted_by_aliases() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        let mut c = Counters::default();
        let pc = 0x200;
        let alias = pc + ((BTB_SIZE as u32) << 1); // same slot, different tag
        m.indirect_branch(pc, 0x5000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 1); // cold
                                          // The alias maps to the same slot but its tag mismatches: no false
                                          // hit, and installing it evicts the original entry.
        m.indirect_branch(alias, 0x5000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 2);
        m.indirect_branch(pc, 0x5000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 3); // evicted by the alias
                                          // Re-installed: now it hits.
        m.indirect_branch(pc, 0x5000, false, &mut c);
        assert_eq!(c.ind_mispredicts, 3);
    }

    #[test]
    fn ras_predicts_balanced_nesting_and_mispredicts_when_empty() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        let mut c = Counters::default();
        // A return with nothing on the stack mispredicts even if the BTB
        // happens to know the target.
        m.indirect_branch(0x500, 0x1111, true, &mut c);
        assert_eq!(c.ind_mispredicts, 1);
        // Balanced call/ret nesting predicts perfectly, in LIFO order.
        m.ras_push(0xA);
        m.ras_push(0xB);
        m.ras_push(0xC);
        m.indirect_branch(0x500, 0xC, true, &mut c);
        m.indirect_branch(0x500, 0xB, true, &mut c);
        m.indirect_branch(0x500, 0xA, true, &mut c);
        assert_eq!(c.ind_mispredicts, 1);
        // The stack is empty again: one more return mispredicts (it does not
        // wrap around to stale entries).
        m.indirect_branch(0x500, 0xA, true, &mut c);
        assert_eq!(c.ind_mispredicts, 2);
    }

    #[test]
    fn ras_depth_is_bounded() {
        let mut m = CostModel::new(CpuKind::Pentium4);
        for i in 0..100 {
            m.ras_push(i);
        }
        let mut c = Counters::default();
        // Deepest 16 predict correctly, older entries are lost.
        for i in (84..100).rev() {
            m.indirect_branch(0x1, i, true, &mut c);
        }
        assert_eq!(c.ind_mispredicts, 0);
        m.indirect_branch(0x1, 83, true, &mut c);
        assert_eq!(c.ind_mispredicts, 1);
    }
}
