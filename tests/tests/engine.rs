//! End-to-end engine tests: programs run under RIO must produce exactly the
//! architectural results of native execution, across every engine
//! configuration, while building the expected cache structures.

use rio_core::build::{decode_bb, BuiltBlock};
use rio_core::{check_transparent, Client, EndTraceDecision, FragmentKind, NullClient, Options};
use rio_core::{Rio, StepBudget, StepOutcome};
use rio_ia32::encode::encode_list;
use rio_ia32::{create, Cc, InstrList, MemRef, OpSize, Opcode, Opnd, Reg, Target};
use rio_sim::{run_native, CpuKind, Image};
use rio_tests::{
    assert_transparent, call_program, exit_with, loop_program, program, run, DeletionLog, HookLog,
    SelfRewriter,
};
use rio_workloads::{compile, faulting, smc};

/// Indirect jumps through a two-entry table, alternating targets.
fn indirect_program(iters: i32) -> Image {
    let table = Image::DATA_BASE;
    program(|il| {
        // Build the jump table at runtime: table[0]=&even, table[1]=&odd.
        let patch_a = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(table, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        let patch_b = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(table + 4, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(iters)));
        // top: edx = esi & 1; jmp *table(,edx,4)
        let top = il.push_back(create::label());
        il.push_back(create::mov(Opnd::reg(Reg::Edx), Opnd::reg(Reg::Esi)));
        il.push_back(create::and(Opnd::reg(Reg::Edx), Opnd::imm32(1)));
        il.push_back(create::jmp_ind(Opnd::Mem(MemRef::index_disp(
            Reg::Edx,
            4,
            table as i32,
            OpSize::S32,
        ))));
        // even: edi += 2; jmp join
        let even = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(2)));
        let j_join_a = il.push_back(create::jmp(Target::Pc(0)));
        // odd: edi += 5
        let odd = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(5)));
        // join: dec esi; jnz top
        let join = il.push_back(create::label());
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        exit_with(il, Reg::Edi);
        il.get_mut(j_join_a).set_target(Target::Instr(join));

        // Resolve label addresses: encode once to learn offsets.
        let enc = encode_list(il, Image::CODE_BASE).unwrap();
        let addr = |id| Image::CODE_BASE + enc.offset_of(id).unwrap();
        let even_addr = addr(even);
        let odd_addr = addr(odd);
        il.get_mut(patch_a)
            .set_src(0, Opnd::imm32(even_addr as i32));
        il.get_mut(patch_b).set_src(0, Opnd::imm32(odd_addr as i32));
    })
}

#[test]
fn straight_line_program_matches_native() {
    assert_transparent(&program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(40)));
        il.push_back(create::add(Opnd::reg(Reg::Ecx), Opnd::imm32(2)));
        exit_with(il, Reg::Ecx);
    }));
}

#[test]
fn loop_program_matches_native_in_every_configuration() {
    assert_transparent(&loop_program(500));
}

#[test]
fn call_program_matches_native_in_every_configuration() {
    assert_transparent(&call_program(300));
}

#[test]
fn indirect_program_matches_native_in_every_configuration() {
    assert_transparent(&indirect_program(400));
}

#[test]
fn hot_loop_builds_a_trace() {
    let img = loop_program(500);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, NullClient);
    let r = rio.run();
    assert!(r.stats.traces_built >= 1, "no trace built: {}", r.stats);
    assert!(r.stats.trace_heads >= 1);
    // The trace shadows its head block.
    let cache = rio.core.cache();
    assert!(cache.iter().any(|f| f.kind == FragmentKind::Trace));
}

#[test]
fn traces_reduce_cycles_on_call_heavy_code() {
    // Traces win by inlining the indirect-branch (return) target check and
    // straightening layout — a call-heavy loop shows it; a single-block
    // self-linked loop would not (its trace is identical code).
    let img = call_program(150_000);
    let a = run(&img, Options::with_indirect_links());
    let b = run(&img, Options::full());
    assert_eq!(a.exit_code, b.exit_code);
    assert!(
        b.counters.cycles < a.counters.cycles,
        "traces should speed up call-heavy code: {} vs {}",
        b.counters.cycles,
        a.counters.cycles
    );
}

#[test]
fn linking_dramatically_reduces_context_switches() {
    let img = loop_program(2_000);
    let a = run(&img, Options::cache_only());
    let b = run(&img, Options::with_direct_links());
    assert!(
        b.stats.context_switches * 10 < a.stats.context_switches,
        "linking should remove most context switches: {} vs {}",
        b.stats.context_switches,
        a.stats.context_switches
    );
    assert!(b.counters.cycles < a.counters.cycles);
}

#[test]
fn indirect_linking_keeps_lookups_in_cache() {
    let img = call_program(2_000);
    let a = run(&img, Options::with_direct_links());
    let b = run(&img, Options::with_indirect_links());
    assert!(b.stats.ib_lookup_hits > 0);
    assert!(b.counters.cycles < a.counters.cycles);
    assert_eq!(a.exit_code, b.exit_code);
}

#[test]
fn emulation_is_far_slower_than_full_system() {
    let img = loop_program(2_000);
    let a = run(&img, Options::emulation());
    let b = run(&img, Options::full());
    assert_eq!(a.exit_code, b.exit_code);
    assert!(a.counters.cycles > 10 * b.counters.cycles);
}

#[test]
fn client_hooks_fire_in_order() {
    let img = loop_program(500);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, HookLog::default());
    let r = rio.run();
    assert_eq!(rio.client.init, 1);
    assert_eq!(rio.client.exit, 1);
    assert_eq!(rio.client.thread_inits, [0]);
    assert_eq!(rio.client.thread_exits, [0]);
    assert_eq!(rio.client.bbs as u64, r.stats.bbs_built);
    assert_eq!(rio.client.traces as u64, r.stats.traces_built);
    assert!(rio.client.traces >= 1);
}

/// A client that ends every trace immediately — traces stay one block long.
struct OneBlockTraces;

impl Client for OneBlockTraces {
    fn end_trace(
        &mut self,
        _core: &mut rio_core::Core,
        _trace_tag: u32,
        _next_tag: u32,
    ) -> EndTraceDecision {
        EndTraceDecision::End
    }
}

/// The number of application blocks (`src_ranges` spans) in each trace.
fn trace_spans<C: Client>(rio: &Rio<C>) -> Vec<usize> {
    let cache = rio.core.cache();
    let traces = cache.iter().filter(|f| f.kind == FragmentKind::Trace);
    traces.map(|f| f.src_ranges.len()).collect()
}

#[test]
fn end_trace_hook_controls_trace_length() {
    let img = call_program(500);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, OneBlockTraces);
    let r = rio.run();
    assert!(r.stats.traces_built >= 1);
    // Every trace is a single block.
    let spans = trace_spans(&rio);
    assert!(
        !spans.is_empty() && spans.iter().all(|&n| n == 1),
        "{spans:?}"
    );
    // Without the hook the same loop grows a multi-block trace.
    let mut null = Rio::new(&img, Options::full(), CpuKind::Pentium4, NullClient);
    null.run();
    let spans = trace_spans(&null);
    assert!(spans.iter().any(|&n| n > 1), "{spans:?}");
    check_transparent(&run_native(&img, CpuKind::Pentium4), &r).unwrap();
}

/// A client that uses a clean call to count executions of one block.
#[derive(Default)]
struct CleanCallCounter {
    hits: u64,
}

impl Client for CleanCallCounter {
    fn basic_block(&mut self, core: &mut rio_core::Core, _tag: u32, bb: &mut InstrList) {
        let call = core.clean_call_instr(7);
        let first = bb.first_id().unwrap();
        bb.insert_before(first, call);
    }
    fn clean_call(&mut self, _core: &mut rio_core::Core, arg: u64) {
        assert_eq!(arg, 7);
        self.hits += 1;
    }
}

#[test]
fn clean_calls_reach_the_client_per_execution() {
    let img = loop_program(100);
    let mut rio = Rio::new(
        &img,
        // Disable traces so block hooks dominate; clean calls are in blocks.
        Options::with_indirect_links(),
        CpuKind::Pentium4,
        CleanCallCounter::default(),
    );
    let r = rio.run();
    check_transparent(&run_native(&img, CpuKind::Pentium4), &r).unwrap();
    // The loop body block executes 100 times; plus entry/exit blocks.
    assert!(rio.client.hits >= 100, "hits = {}", rio.client.hits);
    assert_eq!(r.stats.clean_calls, rio.client.hits);
}

#[test]
fn fragment_replacement_from_inside_the_fragment_is_safe() {
    let img = loop_program(2_000);
    let mut rio = Rio::new(
        &img,
        Options::full(),
        CpuKind::Pentium4,
        SelfRewriter::default(),
    );
    let r = rio.run();
    check_transparent(&run_native(&img, CpuKind::Pentium4), &r).unwrap();
    assert!(rio.client.rewrote);
    assert_eq!(r.stats.replacements, 1);
    assert_eq!(r.stats.deletions, 1);
    assert_eq!(rio.client.deleted.len(), 1);
}

#[test]
fn trace_head_counters_respect_threshold() {
    let img = loop_program(500);
    for threshold in [10, 100] {
        let mut opts = Options::full();
        opts.trace_threshold = threshold;
        let mut rio = Rio::new(&img, opts, CpuKind::Pentium4, NullClient);
        let r = rio.run();
        assert!(r.stats.traces_built >= 1, "threshold {threshold}");
    }
    // Threshold higher than iteration count: no trace.
    let mut opts = Options::full();
    opts.trace_threshold = 100_000;
    let r = run(&img, opts);
    assert_eq!(r.stats.traces_built, 0);
}

#[test]
fn client_printf_is_transparent() {
    struct Printer;
    impl Client for Printer {
        fn basic_block(&mut self, core: &mut rio_core::Core, tag: u32, _bb: &mut InstrList) {
            core.printf(format!("bb {tag:#x}\n"));
        }
    }
    let img = loop_program(10);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, Printer);
    let r = rio.run();
    // Client output is buffered separately; app output untouched.
    check_transparent(&run_native(&img, CpuKind::Pentium4), &r).unwrap();
    assert!(r.client_output.contains("bb 0x40"));
}

#[test]
fn cache_limit_triggers_evictions_and_preserves_correctness() {
    // A program with many distinct blocks under a tiny block-cache limit:
    // the cache must evict fragments FIFO (possibly repeatedly) and the
    // run must still be architecturally identical to native.
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(50)));
        let top = il.push_back(create::label());
        // A long chain of small distinct blocks (each jcc splits one off).
        for k in 0..40 {
            il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(k)));
            il.push_back(create::test(Opnd::reg(Reg::Edi), Opnd::reg(Reg::Edi)));
            let skip = il.push_back(create::jcc(Cc::S, Target::Pc(0)));
            let next = il.push_back(create::label());
            il.get_mut(skip).set_target(Target::Instr(next));
        }
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        exit_with(il, Reg::Edi);
    });
    let native = run_native(&img, CpuKind::Pentium4);
    let mut opts = Options::full();
    opts.cache_limit = Some(256); // absurdly small: forces churn
    let mut rio = Rio::new(&img, opts, CpuKind::Pentium4, NullClient);
    let r = rio.run();
    check_transparent(&native, &r).unwrap();
    assert!(r.stats.evictions > 0, "no eviction happened: {}", r.stats);
    // Capacity pressure evicts per-fragment, never flushes a sub-cache.
    assert_eq!(r.stats.cache_flushes, 0, "{}", r.stats);
    // Evicted blocks get rebuilt on demand.
    assert!(r.stats.bbs_built > 42, "{}", r.stats);

    // Unlimited cache: no evictions, same result.
    let r2 = run(&img, Options::full());
    check_transparent(&native, &r2).unwrap();
    assert_eq!(r2.stats.evictions, 0);
    assert_eq!(r2.stats.cache_flushes, 0);
}

/// Run `image` under `options` with [`DeletionLog`] in 500-instruction
/// slices, calling `act` at each suspension, and check the removal
/// bookkeeping: the run ends as natively, `fragment_deleted` fired exactly
/// once per counted deletion, the cause's own `counter` moved, and at no
/// safe point does a tag lookup in any thread's cache reach a tombstone.
fn assert_removals(
    counter: &str,
    image: &Image,
    options: Options,
    mut act: impl FnMut(&mut Rio<DeletionLog>),
) {
    let mut rio = Rio::new(image, options, CpuKind::Pentium4, DeletionLog::default());
    let code = loop {
        let outcome = rio.step(StepBudget::instructions(500));
        for t in 0..rio.core.thread_count() {
            let cache = rio.core.thread_cache(t);
            for f in cache.iter() {
                if let Some(id) = cache.lookup(f.tag) {
                    assert!(
                        !cache.frag(id).deleted,
                        "{counter}: lookup({:#x}) is a tombstone",
                        f.tag
                    );
                }
            }
        }
        match outcome {
            StepOutcome::Running(_) => act(&mut rio),
            StepOutcome::Exited(code) => break code,
            StepOutcome::Faulted(f) => panic!("{counter}: unexpected fault: {}", f.message),
        }
    };
    let stats = rio.core.stats;
    let native = run_native(image, CpuKind::Pentium4);
    if let Err(d) = check_transparent(&native, &rio.result_snapshot(code)) {
        panic!("{counter}: diverged on {d}: {stats}");
    }
    assert!(stats.deletions > 0, "{counter}: nothing deleted: {stats}");
    assert_eq!(
        rio.client.0.len() as u64,
        stats.deletions,
        "{counter}: {stats}"
    );
    assert!(
        stats.field(counter).unwrap() > 0,
        "{counter} did not move: {stats}"
    );
}

#[test]
fn every_removal_cause_fires_one_hook_per_deletion() {
    let looped = loop_program(5_000);
    // A safe deletion of the copy `replace_fragment` displaced.
    let mut replaced = false;
    assert_removals("replacements", &looped, Options::full(), |rio| {
        let cache = rio.core.cache();
        let trace = cache
            .iter()
            .find(|f| !f.deleted && f.kind == FragmentKind::Trace);
        if let (false, Some(tag)) = (replaced, trace.map(|f| f.tag)) {
            let il = rio.core.decode_fragment(tag).unwrap();
            replaced = rio.core.replace_fragment(tag, il);
        }
    });
    let mut bounded = Options::full();
    bounded.cache_limit = Some(32);
    assert_removals("evictions", &looped, bounded, |_| {});
    let mut flushed = false;
    assert_removals("cache_flushes", &looped, Options::full(), |rio| {
        if !std::mem::replace(&mut flushed, true) {
            rio.core.request_cache_flush();
        }
    });
    let smc_image = compile(&smc::patch_loop()).unwrap();
    assert_removals("invalidations", &smc_image, Options::full(), |_| {});
    let fault_image = compile(&faulting::div_recover()).unwrap();
    assert_removals("fault_evictions", &fault_image, Options::full(), |_| {});
}

#[test]
fn fragment_report_and_disassembly_describe_the_cache() {
    let img = loop_program(500);
    let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, NullClient);
    rio.run();
    let report = rio.core.fragment_report();
    assert!(report.contains("bb    tag=0x00400000"), "{report}");
    assert!(report.contains("trace"), "{report}");
    assert!(report.contains("trace head"), "{report}");
    let disasm = rio
        .core
        .disassemble_fragment(0x0040_0000)
        .expect("entry fragment");
    assert!(disasm.contains("mov"), "{disasm}");
    // The body ends with the translated exit branch.
    assert!(disasm.contains("jmp"), "{disasm}");
}

#[test]
fn traces_straighten_code_layout() {
    // "The superior code layout of traces goes a long way toward amortizing
    // the overhead of creating them" (§2): within a hot loop spanning
    // multiple blocks, the trace turns taken branches into fall-throughs.
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(30_000)));
        let top = il.push_back(create::label());
        // Branchy body: the common path takes a forward jcc each iteration.
        il.push_back(create::test(Opnd::reg(Reg::Esi), Opnd::reg(Reg::Esi)));
        let fwd = il.push_back(create::jcc(Cc::Nz, Target::Pc(0))); // almost always taken
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(999))); // cold
        let cont = il.push_back(create::label());
        il.get_mut(fwd).set_target(Target::Instr(cont));
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(1)));
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut back = create::jcc(Cc::Nz, Target::Pc(0));
        back.set_target(Target::Instr(top));
        il.push_back(back);
        exit_with(il, Reg::Edi);
    });
    let a = run(&img, Options::with_indirect_links());
    let b = run(&img, Options::full());
    assert_eq!(a.exit_code, b.exit_code);
    assert!(
        b.counters.taken_branches < a.counters.taken_branches,
        "traces should reduce taken branches: {} vs {}",
        b.counters.taken_branches,
        a.counters.taken_branches
    );
}

#[test]
fn translated_returns_lose_the_return_address_predictor() {
    // §5: "DynamoRIO suffers from more costly indirect branch mispredictions
    // than the native application ... The Pentium processors have return
    // address predictors, but not indirect jump predictors." Returns from
    // alternating call sites predict perfectly natively (RAS) but poorly as
    // translated indirect jumps — until traces inline them.
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(5_000)));
        let top = il.push_back(create::label());
        let c1 = il.push_back(create::call(Target::Pc(0)));
        let c2 = il.push_back(create::call(Target::Pc(0)));
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        exit_with(il, Reg::Edi);
        let f = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(1)));
        il.push_back(create::ret());
        il.get_mut(c1).set_target(Target::Instr(f));
        il.get_mut(c2).set_target(Target::Instr(f));
    });
    let native = run_native(&img, CpuKind::Pentium4);
    // Native: the RAS predicts every return.
    assert!(
        native.counters.ind_mispredicts < 20,
        "native RAS should predict returns: {}",
        native.counters.ind_mispredicts
    );
    // Translated, traces disabled: the shared lookup's single BTB slot
    // alternates between two return targets and mispredicts massively.
    let r = run(&img, Options::with_indirect_links());
    check_transparent(&native, &r).unwrap();
    assert!(
        r.counters.ind_mispredicts > 5_000,
        "translated returns should thrash the BTB: {}",
        r.counters.ind_mispredicts
    );
    // Standard traces DON'T fix it: the default termination rule (stop at
    // backward branches) ends the trace at the return, leaving "a hot
    // procedure call's return in a different trace from the call" — the
    // exact motivation §4.4 gives for custom traces.
    let t = run(&img, Options::full());
    check_transparent(&native, &t).unwrap();
    assert!(
        t.counters.ind_mispredicts > r.counters.ind_mispredicts / 2,
        "standard traces were not expected to absorb returns here: {} vs {}",
        t.counters.ind_mispredicts,
        r.counters.ind_mispredicts
    );
}

/// Decodes every block the engine builds both ways, bundled and in full, and
/// records what the two disagree on.
#[derive(Default)]
struct DecodeBoth {
    blocks: usize,
    split_blocks: usize,
    mismatches: Vec<String>,
}

/// The opcode and target of the instruction that ends `bb` — a CTI, `hlt`,
/// `int` or `int3` — or `None` when the block was split before one.
fn ender(bb: &BuiltBlock) -> Option<(Opcode, Option<Target>)> {
    let last = bb.il.get(bb.il.last_id().expect("blocks are never empty"));
    last.opcode()
        .filter(|op| op.is_cti() || op.is_halt() || matches!(op, Opcode::Int | Opcode::Int3))
        .map(|op| (op, last.target()))
}

impl Client for DecodeBoth {
    fn wants_full_decode(&self) -> bool {
        false
    }

    fn basic_block(&mut self, core: &mut rio_core::Core, tag: u32, _bb: &mut InstrList) {
        let max = core.options.max_bb_instrs;
        let bundled = decode_bb(&core.machine.mem, tag, false, max).expect("block decodes");
        let full = decode_bb(&core.machine.mem, tag, true, max).expect("block decodes");
        self.blocks += 1;
        if ender(&full).is_none() {
            self.split_blocks += 1;
        }
        // What a `basic_block` hook that reads only the terminator observes.
        let view = |bb: &BuiltBlock| (bb.end_pc, bb.num_instrs, bb.terminator, ender(bb));
        let (b, f) = (view(&bundled), view(&full));
        if b != f {
            self.mismatches
                .push(format!("block {tag:#x}: bundled {b:?}, full {f:?}"));
        }
    }
}

#[test]
fn bundled_and_full_block_decodes_agree_on_the_terminator() {
    // Clients that read only a block's terminator (`ctrace`, and so
    // `combined`) take the bundled decode; they rely on it agreeing with a
    // full decode at every block start reached in the suite and in
    // generated programs.
    let suite = rio_workloads::suite_scaled(1)
        .into_iter()
        .map(|b| (b.name.to_string(), compile(&b.source).unwrap()));
    let fuzz = (0..64).map(|i| {
        let p = rio_fuzz::Program::generate(rio_fuzz::DEFAULT_BASE_SEED + i);
        (format!("seed {:#x}", p.seed), compile(&p.source()).unwrap())
    });
    let (mut blocks, mut split_blocks) = (0, 0);
    for (name, image) in suite.chain(fuzz) {
        let mut rio = Rio::new(
            &image,
            Options::full(),
            CpuKind::Pentium4,
            DecodeBoth::default(),
        );
        rio.run();
        let c = &rio.client;
        assert!(c.mismatches.is_empty(), "{name}: {:#?}", c.mismatches);
        assert!(c.blocks > 0, "{name} built no blocks");
        blocks += c.blocks;
        split_blocks += c.split_blocks;
    }
    // Blocks split before any terminator, where the bundled decode's last
    // instruction is still inside a bundle, are covered too.
    assert!(
        split_blocks > 0 && blocks > split_blocks,
        "{split_blocks} of {blocks}"
    );
}
