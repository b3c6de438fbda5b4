//! All four sample optimizations applied in combination — the final bar of
//! Figure 5.
//!
//! Composition order within each hook follows the natural pipeline: the
//! custom-trace client shapes *which* traces exist (`end_trace`, trace
//! heads); within the trace hook, return checks are elided first, then
//! redundant loads removed, then strength reduction, and finally the
//! indirect-branch dispatch profiling is attached (it must see the final
//! exit structure).

use rio_core::{Client, Core, EndTraceDecision};
use rio_ia32::InstrList;

use crate::ctrace::CTrace;
use crate::ibdispatch::IbDispatch;
use crate::inc2add::Inc2Add;
use crate::rlr::Rlr;

/// The combination client: RLR + inc2add + IB dispatch + custom traces.
#[derive(Debug)]
pub struct Combined {
    /// Redundant load removal.
    pub rlr: Rlr,
    /// Strength reduction.
    pub inc2add: Inc2Add,
    /// Adaptive indirect branch dispatch.
    pub ibdispatch: IbDispatch,
    /// Custom call-inlining traces.
    pub ctrace: CTrace,
}

impl Combined {
    /// Create the combination: each client with its defaults, except IB
    /// dispatch at threshold 0 (a site is rewritten on its first sample).
    /// Figure 5's combined bar has always run so, and the `figure5` golden
    /// and perfbench's pinned canary digest its counters.
    pub fn new() -> Combined {
        let mut ibdispatch = IbDispatch::new();
        ibdispatch.threshold = 0;
        Combined {
            rlr: Rlr::new(),
            inc2add: Inc2Add::new(),
            ibdispatch,
            ctrace: CTrace::new(),
        }
    }
}

impl Default for Combined {
    fn default() -> Combined {
        Combined::new()
    }
}

impl Client for Combined {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn init(&mut self, core: &mut Core) {
        self.rlr.init(core);
        self.inc2add.init(core);
        self.ibdispatch.init(core);
        self.ctrace.init(core);
    }

    fn on_exit(&mut self, core: &mut Core) {
        self.rlr.on_exit(core);
        self.inc2add.on_exit(core);
        self.ibdispatch.on_exit(core);
        self.ctrace.on_exit(core);
    }

    // Only `ctrace` has a `basic_block` hook, so it picks the decode path.
    fn wants_full_decode(&self) -> bool {
        self.ctrace.wants_full_decode()
    }

    fn basic_block(&mut self, core: &mut Core, tag: u32, bb: &mut InstrList) {
        self.ctrace.basic_block(core, tag, bb);
    }

    fn end_trace(&mut self, core: &mut Core, trace_tag: u32, next_tag: u32) -> EndTraceDecision {
        self.ctrace.end_trace(core, trace_tag, next_tag)
    }

    fn trace(&mut self, core: &mut Core, tag: u32, trace: &mut InstrList) {
        self.ctrace.trace(core, tag, trace);
        self.rlr.trace(core, tag, trace);
        self.inc2add.trace(core, tag, trace);
        self.ibdispatch.trace(core, tag, trace);
    }

    fn clean_call(&mut self, core: &mut Core, arg: u64) {
        // Only ibdispatch registers clean calls.
        self.ibdispatch.clean_call(core, arg);
    }

    fn fragment_deleted(&mut self, core: &mut Core, tag: u32) {
        self.ibdispatch.fragment_deleted(core, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{assert_matches_native, counted_loop, exit_with, program};
    use rio_core::{Options, Rio};
    use rio_ia32::{create, MemRef, OpSize, Opnd, Reg, Target};
    use rio_sim::{CpuKind, Image};

    /// A workload exercising all four optimizations at once: a loop calling
    /// a function that reloads a global twice and counts with inc.
    fn mixed_program(iters: i32) -> Image {
        let slot = MemRef::absolute(Image::DATA_BASE, OpSize::S32);
        program(|il| {
            il.push_back(create::mov(Opnd::Mem(slot), Opnd::imm32(3)));
            il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
            let mut calls = Vec::new();
            counted_loop(il, iters, |il| {
                for _ in 0..2 {
                    calls.push(il.push_back(create::call(Target::Pc(0))));
                }
            });
            exit_with(il, Reg::Edi);
            // f: inc edi; eax = slot; edi += eax; eax = slot (redundant);
            //    edi += eax; ret — the inc is CF-dead (the add writes CF).
            let f = il.push_back(create::label());
            il.push_back(create::inc(Opnd::reg(Reg::Edi)));
            for _ in 0..2 {
                il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::Mem(slot)));
                il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::reg(Reg::Eax)));
            }
            il.push_back(create::ret());
            for c in calls {
                il.get_mut(c).set_target(Target::Instr(f));
            }
        })
    }

    #[test]
    fn combined_preserves_semantics_and_each_part_fires() {
        let img = mixed_program(5_000);
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, Combined::new());
        let r = rio.run();
        assert_matches_native(&img, &r);
        let c = &rio.client;
        assert!(c.rlr.loads_removed >= 1, "rlr idle: {:?}", c.rlr);
        assert!(
            c.inc2add.num_converted >= 1,
            "inc2add idle: {:?}",
            c.inc2add
        );
        assert!(c.ctrace.calls_marked >= 1, "ctrace idle: {:?}", c.ctrace);
        // With ctrace eliding returns, ibdispatch may see few sites; it must
        // at least have run its hooks without breaking anything.
        assert!(r.client_output.contains("rlr:"));
        assert!(r.client_output.contains("ibdispatch:"));
        assert!(r.client_output.contains("ctrace:"));
    }

    #[test]
    fn combined_beats_base_rio_on_friendly_workload() {
        let img = mixed_program(30_000);
        let mut base = Rio::new(
            &img,
            Options::full(),
            CpuKind::Pentium4,
            rio_core::NullClient,
        );
        let a = base.run();
        let mut opt = Rio::new(&img, Options::full(), CpuKind::Pentium4, Combined::new());
        let b = opt.run();
        assert_eq!(a.exit_code, b.exit_code);
        assert!(
            b.counters.cycles < a.counters.cycles,
            "combined should win on a hot, optimizable workload: {} vs {}",
            b.counters.cycles,
            a.counters.cycles
        );
    }
}
