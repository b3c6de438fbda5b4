//! Instrumentation clients — the interface "is not restricted to
//! optimization and can be used for instrumentation, profiling, dynamic
//! translation, etc." (abstract).
//!
//! * [`InsCount`] counts executed application instructions with **inline**
//!   counter updates (flags preserved around the inserted `add`).
//! * [`BbProfile`] counts per-block executions with clean calls and reports
//!   the hottest blocks.
//! * [`OpStats`] gathers a static opcode histogram of all code the
//!   application ever executed.

use std::collections::HashMap;

use rio_core::{Client, Core};
use rio_ia32::{create, InstrList, MemRef, OpSize, Opcode, Opnd};
use rio_sim::Image;

/// Address of the inline instruction counter in RIO data space.
const COUNTER_ADDR: u32 = Image::RIO_DATA_BASE + 0x100;

/// Counts executed application instructions by inserting
/// `pushfd; add $n, counter; popfd` at the top of every basic block.
///
/// Eflags must be preserved around the inserted `add` — precisely the
/// concern Level 2 of the instruction representation exists for.
#[derive(Clone, Copy, Debug, Default)]
pub struct InsCount {
    /// Final count (valid after the run).
    pub executed: u64,
}

impl InsCount {
    /// Create the client.
    pub fn new() -> InsCount {
        InsCount::default()
    }
}

fn counter_opnd() -> Opnd {
    Opnd::Mem(MemRef::absolute(COUNTER_ADDR, OpSize::S32))
}

/// Insert `pushfd; add $n, counter; popfd` before `at`.
fn insert_count(il: &mut InstrList, at: rio_ia32::InstrId, n: u32) {
    if n == 0 {
        return;
    }
    il.insert_before(at, create::pushfd());
    il.insert_before(at, create::add(counter_opnd(), Opnd::imm32(n as i32)));
    il.insert_before(at, create::popfd());
}

impl Client for InsCount {
    fn name(&self) -> &'static str {
        "inscount"
    }

    fn basic_block(&mut self, _core: &mut Core, _tag: u32, bb: &mut InstrList) {
        // All instructions of a basic block execute whenever it is entered
        // (the block ends at its first CTI), so one counter update at the
        // top is exact. Bundle-aware for the Level 0 fast path.
        let n: u32 = bb.iter().map(|i| i.bundle_count().max(1)).sum();
        let first = bb.first_id().expect("nonempty block");
        insert_count(bb, first, n);
    }

    fn trace(&mut self, _core: &mut Core, _tag: u32, trace: &mut InstrList) {
        // Traces supersede instrumented blocks, and side exits mean not all
        // of a trace executes: count per segment. Every application
        // instruction (identified by a nonzero app pc after mangling) in a
        // segment executes iff the segment is reached; each segment ends at
        // an exit CTI, whose own count is attributed to its segment.
        let ids: Vec<rio_ia32::InstrId> = trace.ids().collect();
        let mut segment = 0u32;
        let mut segment_start = None;
        for id in ids {
            let instr = trace.get(id);
            if segment_start.is_none() {
                segment_start = Some(id);
            }
            if instr.app_pc() != 0 {
                segment += instr.bundle_count().max(1);
            }
            let ends_segment = instr.is_exit_cti()
                || matches!(
                    instr.opcode(),
                    Some(rio_ia32::Opcode::Int | rio_ia32::Opcode::Hlt)
                );
            if ends_segment {
                insert_count(trace, segment_start.expect("segment started"), segment);
                segment = 0;
                segment_start = None;
            }
        }
        if let Some(start) = segment_start {
            insert_count(trace, start, segment);
        }
    }

    fn on_exit(&mut self, core: &mut Core) {
        self.executed = core.machine.mem.read_u32(COUNTER_ADDR) as u64;
        core.printf(format!(
            "inscount: {} instructions executed\n",
            self.executed
        ));
    }
}

/// Counts block executions via clean calls; reports the hottest tags.
#[derive(Clone, Debug, Default)]
pub struct BbProfile {
    counts: HashMap<u32, u64>,
    /// Number of hottest blocks to report.
    pub top: usize,
}

impl BbProfile {
    /// Create the client reporting the top `top` blocks.
    pub fn new(top: usize) -> BbProfile {
        BbProfile {
            counts: HashMap::new(),
            top,
        }
    }

    /// Execution count recorded for `tag`.
    pub fn count(&self, tag: u32) -> u64 {
        self.counts.get(&tag).copied().unwrap_or(0)
    }

    /// `(tag, count)` pairs, hottest first.
    pub fn hottest(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.counts.iter().map(|(t, c)| (*t, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl Client for BbProfile {
    fn name(&self) -> &'static str {
        "bbprofile"
    }

    fn basic_block(&mut self, core: &mut Core, tag: u32, bb: &mut InstrList) {
        let call = core.clean_call_instr(tag as u64);
        let first = bb.first_id().expect("nonempty block");
        bb.insert_before(first, call);
    }

    fn clean_call(&mut self, _core: &mut Core, arg: u64) {
        *self.counts.entry(arg as u32).or_default() += 1;
    }

    fn on_exit(&mut self, core: &mut Core) {
        core.printf("bbprofile: hottest blocks\n");
        for (tag, count) in self.hottest().into_iter().take(self.top) {
            core.printf(format!("  {tag:#010x}: {count}\n"));
        }
    }
}

/// Static opcode histogram over every block the application executed.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    counts: HashMap<&'static str, u64>,
}

impl OpStats {
    /// Create the client.
    pub fn new() -> OpStats {
        OpStats::default()
    }

    /// Occurrences of the given opcode mnemonic in decoded code.
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }
}

/// Interned mnemonic for histogram keys.
fn mnemonic_key(op: Opcode) -> &'static str {
    match op {
        Opcode::Mov => "mov",
        Opcode::Lea => "lea",
        Opcode::Add => "add",
        Opcode::Sub => "sub",
        Opcode::Cmp => "cmp",
        Opcode::Inc => "inc",
        Opcode::Dec => "dec",
        Opcode::Imul => "imul",
        Opcode::Idiv => "idiv",
        Opcode::Push => "push",
        Opcode::Pop => "pop",
        Opcode::Call => "call",
        Opcode::CallInd => "call*",
        Opcode::Ret => "ret",
        Opcode::Jmp => "jmp",
        Opcode::JmpInd => "jmp*",
        Opcode::Jcc(_) => "jcc",
        Opcode::Test => "test",
        Opcode::And => "and",
        Opcode::Or => "or",
        Opcode::Xor => "xor",
        Opcode::Shl => "shl",
        Opcode::Shr => "shr",
        Opcode::Sar => "sar",
        Opcode::Movzx => "movzx",
        Opcode::Movsx => "movsx",
        Opcode::Int => "int",
        Opcode::Hlt => "hlt",
        _ => "other",
    }
}

impl Client for OpStats {
    fn name(&self) -> &'static str {
        "opstats"
    }

    fn basic_block(&mut self, _core: &mut Core, _tag: u32, bb: &mut InstrList) {
        for instr in bb.iter() {
            if let Some(op) = instr.opcode() {
                *self.counts.entry(mnemonic_key(op)).or_default() += 1;
            }
        }
    }

    fn on_exit(&mut self, core: &mut Core) {
        let mut rows: Vec<(&str, u64)> = self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        core.printf("opstats: static opcode histogram\n");
        for (m, c) in rows {
            core.printf(format!("  {m:>6}: {c}\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{assert_matches_native, loop_program};
    use rio_core::{Options, Rio};
    use rio_sim::CpuKind;

    #[test]
    fn inscount_is_exact_without_traces() {
        let img = loop_program(200);
        let mut rio = Rio::new(
            &img,
            Options::with_indirect_links(),
            CpuKind::Pentium4,
            InsCount::new(),
        );
        let native = assert_matches_native(&img, &rio.run());
        assert_eq!(
            rio.client.executed, native.counters.instructions,
            "block-level inline counting must be exact"
        );
    }

    #[test]
    fn inscount_is_nearly_exact_with_traces() {
        // Traces legitimately eliminate inter-block jmps, so the in-cache
        // count may slightly undercount native execution.
        let img = loop_program(200);
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, InsCount::new());
        let native = assert_matches_native(&img, &rio.run());
        let n = native.counters.instructions;
        assert!(
            rio.client.executed <= n && rio.client.executed * 100 >= n * 95,
            "trace counting should be within 5%: {} vs {n}",
            rio.client.executed
        );
    }

    #[test]
    fn inscount_preserves_flags() {
        // The loop's jnz depends on dec's ZF; if the inserted add clobbered
        // flags the loop would run forever or exit early.
        let img = loop_program(50);
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, InsCount::new());
        assert_matches_native(&img, &rio.run());
    }

    #[test]
    fn bbprofile_counts_loop_iterations() {
        let img = loop_program(123);
        let mut rio = Rio::new(
            &img,
            // Block-level profiling: disable traces so blocks keep running.
            Options::with_indirect_links(),
            CpuKind::Pentium4,
            BbProfile::new(3),
        );
        let r = rio.run();
        let hottest = rio.client.hottest();
        // The first iteration runs inside the overlapping entry block (the
        // block built at the program entry extends through the loop's first
        // CTI), so the loop-top block itself executes n-1 times.
        assert_eq!(hottest[0].1, 122, "loop-top block runs n-1 times");
        assert!(r.client_output.contains("hottest blocks"));
    }

    #[test]
    fn opstats_sees_application_opcodes() {
        let img = loop_program(10);
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, OpStats::new());
        let r = rio.run();
        assert!(rio.client.count("add") >= 1);
        assert!(rio.client.count("jcc") >= 1);
        assert!(rio.client.count("int") >= 1);
        assert!(r.client_output.contains("opcode histogram"));
    }
}
