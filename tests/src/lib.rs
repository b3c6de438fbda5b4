//! # rio-tests — cross-crate integration tests
//!
//! This crate exists for its `tests/` directory: whole-system properties
//! spanning every crate in the workspace.
//!
//! * `engine` — hand-assembled programs under every engine configuration:
//!   the cache structures they build (traces, links, evictions), the
//!   client hook lifecycle, clean calls and fragment replacement.
//! * `engine_edges` — rare translation paths: jecxz exits, `ret n`, carry
//!   chains, flag save/restore, deep recursion, one-instruction blocks,
//!   stray traps and undecodable code.
//! * `session` — the resumable stepper: budgets, `Send`, and
//!   cache flushes and capacity pressure at suspension points.
//! * `verify` — the client-safety lints and the cache verifier.
//! * `threads` — cooperative multithreading with thread-private caches.
//! * `determinism` — bit-identical counters and stats across repeated,
//!   stepped and parallel runs. Every "stepped run equals uninterrupted
//!   run" check, there and in `session` and `smc`, goes through
//!   [`assert_stepping_invisible`].
//! * `suite_equivalence` — every benchmark × every client × every engine
//!   configuration produces exactly the native execution's results.
//! * `pipeline` — random expression programs agree three ways (Rust
//!   reference evaluator, native simulation, the fuzz oracle's matrix),
//!   plus the compiler's own engine-equivalence programs.
//! * `scenarios`, `faults`, `smc` — the `rio faults` and `rio smc` tables
//!   end to end, and what a table row cannot express: handler-observed
//!   fault state, exact self-modifying-code counts.
//! * `fuzz_conformance` — the differential fuzzing harness end to end:
//!   config-matrix conformance over a seed range, shrinker minimization of
//!   an injected divergence, and replay of the persisted `corpus/`.
//! * `properties`, `roundtrip_sweep` — randomized round-trips over the
//!   instruction representation, liveness, and `InstrList` invariants.
//!
//! Every engine-versus-native check goes through [`assert_transparent`],
//! i.e. the fuzz oracle's [`check_image`]. Randomized tests use the
//! deterministic xorshift64* [`Rng`] and the generators in
//! [`rio_fuzz::gen`], so every case derives from a fixed seed and failures
//! are exactly reproducible.

use rio_clients::ClientKind;
use rio_core::{Client, Core, NullClient, Options, Rio, RioRunResult, StepBudget, StepOutcome};
use rio_fuzz::scenario::{drive, Run};
use rio_fuzz::{check_image, run_native_baseline, CheckSummary};
use rio_ia32::encode::encode_list;
use rio_ia32::{create, Cc, InstrList, Opnd, Reg, Target};
use rio_sim::{CpuKind, Image};

pub use rio_fuzz::Rng;

/// Assemble a program at [`Image::CODE_BASE`] from a builder closure.
pub fn program(build: impl FnOnce(&mut InstrList)) -> Image {
    let mut il = InstrList::new();
    build(&mut il);
    Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes)
}

/// Append `exit(reg)`: `ebx = reg; eax = 1; int 0x80`.
pub fn exit_with(il: &mut InstrList, reg: Reg) {
    if reg != Reg::Ebx {
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::reg(reg)));
    }
    il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
    il.push_back(create::int(0x80));
}

/// Exit with the sum of `1..=n`, computed by a one-block loop that is hot
/// enough to build a trace.
pub fn loop_program(n: i32) -> Image {
    program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(n)));
        let top = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::reg(Reg::Esi)));
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        exit_with(il, Reg::Edi);
    })
}

/// Call a function (`edi += 3; ret`) `iters` times in a loop and exit with
/// `%edi` — exercises call/ret translation.
pub fn call_program(iters: i32) -> Image {
    program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(iters)));
        let top = il.push_back(create::label());
        let call = il.push_back(create::call(Target::Pc(0)));
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        exit_with(il, Reg::Edi);
        let f = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(3)));
        il.push_back(create::ret());
        il.get_mut(call).set_target(Target::Instr(f));
    })
}

/// An image that never terminates: `jmp self`.
pub fn infinite_program() -> Image {
    program(|il| {
        let top = il.push_back(create::label());
        let mut j = create::jmp(Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
    })
}

/// Run `image` to completion under `options` and the null client.
pub fn run(image: &Image, options: Options) -> RioRunResult {
    Rio::new(image, options, CpuKind::Pentium4, NullClient).run()
}

/// Drive a session to its exit in `budget`-sized slices and return the
/// result with the number of suspensions. Panics on a terminal fault, and
/// — in the bounded form, `max_slices: Some(n)` — when `n` slices have not
/// ended the program, so a scheduling bug fails instead of hanging.
pub fn run_in_steps<C: Client>(
    rio: &mut Rio<C>,
    budget: StepBudget,
    max_slices: Option<u64>,
) -> (RioRunResult, u64) {
    let mut suspensions = 0;
    loop {
        match rio.step(budget) {
            StepOutcome::Running(why) => {
                suspensions += 1;
                if max_slices.is_some_and(|n| suspensions >= n) {
                    panic!(
                        "no exit within {suspensions} slices of {budget:?} (last stop: {why:?})"
                    );
                }
            }
            StepOutcome::Exited(code) => return (rio.result_snapshot(code), suspensions),
            StepOutcome::Faulted(f) => panic!("unexpected fault: {}", f.message),
        }
    }
}

/// Assert that running `image` (called `name` in failure messages) under
/// `options` in `budget`-sized slices is invisible: the stepped run ends
/// with the uninterrupted run's exit code, counters, stats and output. A
/// run longer than one slice must actually be sliced. Returns the
/// uninterrupted run for further checks.
pub fn assert_stepping_invisible(
    name: &str,
    image: &Image,
    options: Options,
    budget: StepBudget,
) -> RioRunResult {
    let what = format!("{name} under {options:?} in slices of {budget:?}");
    let uninterrupted = run(image, options);
    let mut rio = Rio::new(image, options, CpuKind::Pentium4, NullClient);
    let (stepped, suspensions) = run_in_steps(&mut rio, budget, None);
    let one_slice = budget
        .max_instructions
        .is_some_and(|n| uninterrupted.counters.instructions <= n);
    assert!(suspensions > 0 || one_slice, "{what} never suspended");
    assert_eq!(stepped.exit_code, uninterrupted.exit_code, "{what}");
    assert_eq!(stepped.counters, uninterrupted.counters, "{what}");
    assert_eq!(stepped.stats, uninterrupted.stats, "{what}");
    assert_eq!(stepped.app_output, uninterrupted.app_output, "{what}");
    uninterrupted
}

/// Assert that `image` cannot tell the engine from native execution: the
/// fuzz oracle's whole configuration matrix ([`check_image`]: output, exit
/// code, final state digest and verifier violations, 12 configurations),
/// plus the two Table 1 rows the matrix leaves out — the cache without
/// links, and with direct links only.
pub fn assert_transparent(image: &Image) -> CheckSummary {
    let summary = check_image(image, CpuKind::Pentium4).unwrap_or_else(|m| panic!("{m}"));
    for options in [Options::cache_only(), Options::with_direct_links()] {
        assert_native_identical(image, options);
    }
    summary
}

/// Assert that one null-client run of `image` under `options` ends exactly
/// as native execution does: output, exit code and final state digest.
/// For options outside the [`assert_transparent`] configurations.
pub fn assert_native_identical(image: &Image, options: Options) {
    let cpu = CpuKind::Pentium4;
    let native = run_native_baseline(image, cpu);
    let o = drive(image, &Run::new(options, ClientKind::Null), cpu);
    assert_eq!(
        (o.result.exit_code, o.result.app_output, o.state_digest),
        (native.exit_code, native.output, native.state_digest),
        "{options:?} diverged from native execution"
    );
}

/// A client that logs the Table 3 lifecycle hooks: how often each fired,
/// and the thread each `thread_init` / `thread_exit` fired for.
#[derive(Default)]
pub struct HookLog {
    /// `init` calls.
    pub init: u32,
    /// `on_exit` calls.
    pub exit: u32,
    /// The thread of each `thread_init` call, in order.
    pub thread_inits: Vec<usize>,
    /// The thread of each `thread_exit` call, in order.
    pub thread_exits: Vec<usize>,
    /// `basic_block` calls (each with a non-empty block).
    pub bbs: u32,
    /// `trace` calls (each with a non-empty trace).
    pub traces: u32,
}

impl Client for HookLog {
    fn init(&mut self, _core: &mut Core) {
        self.init += 1;
    }

    fn on_exit(&mut self, _core: &mut Core) {
        self.exit += 1;
    }

    fn thread_init(&mut self, core: &mut Core) {
        self.thread_inits.push(core.current_thread());
    }

    fn thread_exit(&mut self, core: &mut Core) {
        self.thread_exits.push(core.current_thread());
    }

    fn basic_block(&mut self, _core: &mut Core, _tag: u32, bb: &mut InstrList) {
        assert!(!bb.is_empty());
        self.bbs += 1;
    }

    fn trace(&mut self, _core: &mut Core, _tag: u32, trace: &mut InstrList) {
        assert!(!trace.is_empty());
        self.traces += 1;
    }
}

/// A client that records the tag of every `fragment_deleted` callback.
#[derive(Default)]
pub struct DeletionLog(pub Vec<u32>);

impl Client for DeletionLog {
    fn fragment_deleted(&mut self, _core: &mut Core, tag: u32) {
        self.0.push(tag);
    }
}

/// A client that puts a clean call carrying the trace's tag at the top of
/// every trace, and from inside the first trace that reaches it replaces
/// that trace with its own decoded copy — `decode_fragment` and
/// `replace_fragment` while execution is inside the fragment.
#[derive(Default)]
pub struct SelfRewriter {
    /// Whether the replacement happened.
    pub rewrote: bool,
    /// Tags of every `fragment_deleted` callback.
    pub deleted: Vec<u32>,
}

impl Client for SelfRewriter {
    fn trace(&mut self, core: &mut Core, tag: u32, trace: &mut InstrList) {
        let call = core.clean_call_instr(tag as u64);
        let first = trace.first_id().unwrap();
        trace.insert_before(first, call);
    }

    fn clean_call(&mut self, core: &mut Core, arg: u64) {
        if self.rewrote {
            return;
        }
        let tag = arg as u32;
        let il = core.decode_fragment(tag).expect("fragment decodes");
        // The decoded copy includes the clean call itself, so the
        // replacement is an equivalent fragment.
        assert!(core.replace_fragment(tag, il));
        self.rewrote = true;
    }

    fn fragment_deleted(&mut self, _core: &mut Core, tag: u32) {
        self.deleted.push(tag);
    }
}
