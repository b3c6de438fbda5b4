//! Engine-level verification tests: the always-on client-safety lints must
//! catch deliberately broken clients, the cache verifier must detect
//! injected corruption, and well-behaved configurations must verify clean —
//! including fragments rebuilt through `replace_fragment`, whose
//! re-decoded translation tables regressed before the verifier existed.

use rio_core::{
    layout, Check, Client, Core, FaultInjector, InjectionPlan, NullClient, Options, Rio,
    StepBudget, StepOutcome,
};
use rio_ia32::{create, InstrList, MemRef, OpSize, Opcode, Opnd, Reg};
use rio_sim::{run_native, CpuKind};
use rio_tests::{exit_with, loop_program, program, run, SelfRewriter};
use rio_workloads::compile;

/// A broken client that inserts an unguarded clobber of `%ebx` (no spill,
/// no app pc) into every basic block.
struct ClobberingClient;
impl Client for ClobberingClient {
    fn name(&self) -> &'static str {
        "clobber"
    }
    fn basic_block(&mut self, _core: &mut rio_core::Core, _tag: u32, bb: &mut InstrList) {
        let first = bb.first_id().unwrap();
        bb.insert_before(first, create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(7)));
    }
}

#[test]
fn clobbering_client_fires_the_instrumentation_lint() {
    let img = loop_program(50);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, ClobberingClient);
    let r = rio.run();
    assert!(r.stats.violations > 0, "lint never fired");
    assert!(
        rio.core
            .verify_findings()
            .iter()
            .any(|v| v.check == Check::InstrumentationLint),
        "expected an instrumentation-lint finding, got {:?}",
        rio.core.verify_findings()
    );
}

/// A broken optimizer that converts every `inc` to `add` without proving
/// the carry flag dead — the unsound version of the `inc2add` client.
struct BlindIncToAdd;
impl Client for BlindIncToAdd {
    fn name(&self) -> &'static str {
        "blind-inc2add"
    }
    fn basic_block(&mut self, _core: &mut rio_core::Core, _tag: u32, bb: &mut InstrList) {
        let incs: Vec<_> = bb
            .ids()
            .filter(|id| bb.get(*id).opcode() == Some(Opcode::Inc))
            .collect();
        for id in incs {
            let instr = bb.get(id);
            let dst = instr.dsts().first().cloned().unwrap();
            let mut add = create::add(dst, Opnd::imm32(1));
            add.set_app_pc(instr.app_pc());
            bb.replace(id, add);
        }
    }
}

#[test]
fn unsound_edit_fires_the_transformation_lint() {
    // CF is set by the cmp, preserved by inc, and consumed by adc — so the
    // blind inc->add conversion both breaks the program and must be caught.
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(5)));
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(0)));
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::imm32(6)));
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::adc(Opnd::reg(Reg::Ecx), Opnd::imm32(0)));
        exit_with(il, Reg::Ecx);
    });
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, BlindIncToAdd);
    let r = rio.run();
    assert!(r.stats.violations > 0, "lint never fired");
    assert!(
        rio.core
            .verify_findings()
            .iter()
            .any(|v| v.check == Check::TransformationLint),
        "expected a transformation-lint finding, got {:?}",
        rio.core.verify_findings()
    );
}

#[test]
fn verify_cache_detects_injected_corruption() {
    let img = loop_program(4_000);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, NullClient);
    let mut injector = FaultInjector::new(InjectionPlan::CorruptFragment { nth: 0 });
    // Step until the corruption lands, then verify before executing it.
    while !injector.applied() {
        injector.poll(&mut rio);
        if injector.applied() {
            break;
        }
        match rio.step(StepBudget::instructions(50)) {
            StepOutcome::Running(_) => {}
            other => panic!("program ended before corruption: {other:?}"),
        }
    }
    let v = rio.core.verify_cache();
    assert!(
        v.iter().any(|x| x.check == Check::Decode),
        "corruption not detected: {v:?}"
    );
}

#[test]
fn replaced_fragments_verify_clean() {
    let img = loop_program(2_000);
    let mut opts = Options::full();
    opts.verify = true;
    let mut rio = Rio::new(&img, opts, CpuKind::Pentium4, SelfRewriter::default());
    let r = rio.run();
    let native = run_native(&img, CpuKind::Pentium4);
    assert_eq!(r.exit_code, native.exit_code);
    assert!(rio.client.rewrote, "replacement never happened");
    assert_eq!(r.stats.replacements, 1);
    assert_eq!(r.stats.violations, 0, "{:?}", rio.core.verify_findings());
    let sweep = rio.core.verify_cache();
    assert!(sweep.is_empty(), "{sweep:?}");
}

#[test]
fn verified_runs_are_clean_and_uncharged() {
    let img = loop_program(500);
    let native = run_native(&img, CpuKind::Pentium4);
    let rp = run(&img, Options::full());
    let mut opts = Options::full();
    opts.verify = true;
    let mut checked = Rio::new(&img, opts, CpuKind::Pentium4, NullClient);
    let rc = checked.run();
    assert_eq!(rc.exit_code, native.exit_code);
    assert!(rc.stats.checks_run > 0, "verification never ran");
    assert_eq!(rc.stats.violations, 0);
    // Verification is an offline observer: it must not perturb the
    // simulated cost model.
    assert_eq!(rc.counters.cycles, rp.counters.cycles);
    assert_eq!(rc.counters.instructions, rp.counters.instructions);
    assert!(checked.core.verify_cache().is_empty());
}

/// A client that gives each block's last instruction a flag-neutral custom
/// exit stub, `mov $tag` into the client TLS slot, forced for every other
/// block it builds. On a block ending in `call` or `ret`, which mangling
/// replaces, the stub also makes a clean call that counts its runs.
#[derive(Default)]
struct TaggingStubs {
    force: bool,
    /// Stub runs on blocks ending in `call` and in `ret`.
    runs: [u64; 2],
}
impl Client for TaggingStubs {
    fn name(&self) -> &'static str {
        "tagging-stubs"
    }
    fn basic_block(&mut self, core: &mut Core, tag: u32, bb: &mut InstrList) {
        let last = bb.last_id().unwrap();
        let slot = Opnd::Mem(MemRef::absolute(layout::CLIENT_TLS_SLOT, OpSize::S32));
        let mut stub = InstrList::new();
        stub.push_back(create::mov(slot, Opnd::imm32(tag as i32)));
        let counter = match bb.get(last).opcode() {
            Some(Opcode::Call) => Some(0),
            Some(Opcode::Ret) => Some(1),
            _ => None,
        };
        if let Some(k) = counter {
            stub.push_back(core.clean_call_instr(k));
        }
        self.force = !self.force;
        core.append_exit_stub(last, stub, self.force);
    }
    fn clean_call(&mut self, _core: &mut Core, arg: u64) {
        self.runs[arg as usize] += 1;
    }
}

#[test]
fn custom_exit_stubs_run_linked_and_verify_clean() {
    let img = compile(
        "fn bump(s, i) {
             if (i % 3 == 0) { return s + i; }
             return s + 1;
         }
         fn main() {
             var s = 0;
             var i = 0;
             while (i < 200) {
                 s = bump(s, i);
                 if (i % 50 == 0) { print(s); }
                 i++;
             }
             return s % 251;
         }",
    )
    .unwrap();
    let native = run_native(&img, CpuKind::Pentium4);
    let opts = Options {
        verify: true,
        ..Options::full()
    };
    let mut rio = Rio::new(&img, opts, CpuKind::Pentium4, TaggingStubs::default());
    let r = rio.run();
    assert_eq!(r.exit_code, native.exit_code);
    assert_eq!(r.app_output, native.output);
    assert_eq!(r.stats.violations, 0, "{:?}", rio.core.verify_findings());
    assert!(rio.core.verify_cache().is_empty());
    assert!(r.stats.links > 0);
    // Exits with both kinds of stub were linked: a forced stub's link word
    // (its `jmp`) lies past its fixed word (the branch), an unforced one's
    // before it.
    for forced in [false, true] {
        let mut exits = rio.core.cache().iter().flat_map(|f| &f.exits);
        assert!(
            exits.any(|e| e.linked_to.is_some()
                && e.fixed_word
                    .is_some_and(|w| (w.addr < e.link_word.addr) == forced)),
            "no linked exit with a forced={forced} stub"
        );
    }
    assert_ne!(rio.core.client_tls(), 0, "no custom stub ran");
    // Stubs on the exits mangling put in place of a `call` and a `ret` ran.
    let [calls, rets] = rio.client.runs;
    assert!(
        calls > 0 && rets > 0,
        "call-block runs {calls}, ret-block runs {rets}"
    );
}
