//! The execution engine: dispatch, fragment entry, trace recording, and the
//! runtime sentinel handlers (Figure 1 of the paper).
//!
//! Control alternates between the code cache (the simulated machine
//! executing emitted fragments) and the engine (this module). The
//! performance-critical transitions — the dotted lines of Figure 1 — are
//! where the overhead cost model charges cycles: context switches, dispatch
//! work, and indirect-branch hashtable lookups.
//!
//! # Resumable sessions
//!
//! Execution is organized as a *session*: [`Rio::step`] advances the
//! program by a bounded amount of work (a [`StepBudget`] of instructions
//! and/or cycles) and returns a [`StepOutcome`]. A session suspends only
//! at engine safe points — control out of the code cache, or between
//! bounded execution chunks with all engine state quiescent — so a
//! suspended `Rio` can be resumed (or handed to another thread; the engine
//! is `Send`) with no observable difference from an uninterrupted run.
//! [`Rio::run`] is a thin wrapper that steps with an unlimited budget.

use rio_ia32::InstrList;
use std::fmt;
use std::ops::ControlFlow;

use rio_ia32::Reg;
use rio_sim::{Counters, CpuExit, CpuKind, ExecRegion, FaultKind, Image, OsEvent, RunResult};

use crate::build::{decode_bb, decode_bb_into, decode_trace_into};
use crate::cache::{self, ExitKind, FragmentId, FragmentKind, IndKind};
use crate::client::{Client, EndTraceDecision};
use crate::config::{costs, layout, ExecMode, Options};
use crate::core::{Core, Recording, ThreadCore};
use crate::link::link_exit;
use crate::mangle::mangle_bb;
use crate::stats::Stats;

/// Result of running a program under RIO.
#[derive(Clone, Debug)]
pub struct RioRunResult {
    /// Application exit status.
    pub exit_code: i32,
    /// Buffered application output.
    pub app_output: String,
    /// Buffered client output (`dr_printf`).
    pub client_output: String,
    /// Machine execution counters (instructions, cycles, predictors).
    pub counters: Counters,
    /// Engine statistics.
    pub stats: Stats,
    /// The unhandled guest fault that ended the run, if any (`exit_code` is
    /// then [`Fault::exit_code`]).
    pub fault: Option<Fault>,
    /// Digest of the application-visible state when the result was taken
    /// ([`Machine::app_state_digest`](rio_sim::Machine::app_state_digest)).
    pub state_digest: u64,
}

/// The first axis on which an engine run differs from native execution
/// (see [`check_transparent`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// `output`, `exit code` or `state digest` from [`check_transparent`];
    /// a check layered on top may name its own (the fuzz oracle's
    /// `violations`).
    pub axis: &'static str,
    /// What native execution produced on that axis.
    pub native: String,
    /// What the engine produced on that axis.
    pub engine: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (axis, native, engine) = (self.axis, &self.native, &self.engine);
        write!(f, "{axis}: native {native:?} vs {engine:?}")
    }
}

impl std::error::Error for Divergence {}

/// The transparency check (§2–3): an engine run must end exactly as native
/// execution of the same image does. Compares the output, then the exit
/// code, then the final application-state digest, and names the first axis
/// that differs. Every engine-versus-native comparison goes through here.
pub fn check_transparent(native: &RunResult, engine: &RioRunResult) -> Result<(), Divergence> {
    let differs = |axis, native: String, engine: String| {
        Err(Divergence {
            axis,
            native,
            engine,
        })
    };
    if engine.app_output != native.output {
        return differs("output", native.output.clone(), engine.app_output.clone());
    }
    if engine.exit_code != native.exit_code {
        let (n, e) = (native.exit_code, engine.exit_code);
        return differs("exit code", n.to_string(), e.to_string());
    }
    if engine.state_digest != native.state_digest {
        let (n, e) = (native.state_digest, engine.state_digest);
        return differs("state digest", format!("{n:016x}"), format!("{e:016x}"));
    }
    Ok(())
}

/// A bound on how much work one [`Rio::step`] call may perform before
/// suspending. All limits are measured from the start of the step; absent
/// limits are unlimited. Budgets are checked at engine safe points, so a
/// step may slightly overshoot a cycle limit (never by more than one bounded
/// execution chunk).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBudget {
    /// Suspend after this many simulated instructions.
    pub max_instructions: Option<u64>,
    /// Suspend after this many simulated cycles.
    pub max_cycles: Option<u64>,
}

impl StepBudget {
    /// No limits: run to completion (or fault).
    pub fn unlimited() -> StepBudget {
        StepBudget::default()
    }

    /// Limit the step to `n` simulated instructions.
    pub fn instructions(n: u64) -> StepBudget {
        StepBudget {
            max_instructions: Some(n),
            ..StepBudget::default()
        }
    }

    /// Limit the step to `n` simulated cycles.
    pub fn cycles(n: u64) -> StepBudget {
        StepBudget {
            max_cycles: Some(n),
            ..StepBudget::default()
        }
    }
}

/// Which budget limit caused a step to suspend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The instruction limit was reached.
    InstructionBudget,
    /// The cycle limit was reached.
    CycleBudget,
}

/// A terminal execution failure: a guest fault with no registered handler
/// (or one past the delivery cap), or control at an address the engine
/// cannot classify. Guest faults carry both the cache address where the
/// machine actually faulted and the translated application pc, so reports
/// are meaningful in either address space.
#[derive(Clone, Debug)]
pub struct Fault {
    /// `eip` at the time of the fault: a code-cache address when the fault
    /// was raised inside an emitted fragment, an application address under
    /// emulation or quarantined execution.
    pub cache_eip: u32,
    /// The application pc the faulting address translates to, when known.
    pub app_pc: Option<u32>,
    /// Architectural fault kind for guest faults; `None` for engine-level
    /// classification failures.
    pub kind: Option<FaultKind>,
    /// Human-readable description carrying both addresses.
    pub message: String,
}

impl Fault {
    /// An unhandled guest fault.
    fn guest(kind: FaultKind, cache_eip: u32, app_pc: Option<u32>, addr: u32) -> Fault {
        let message = match app_pc {
            Some(pc) => format!(
                "unhandled {kind} at cache eip {cache_eip:#x} (app pc {pc:#x}, fault addr {addr:#x})"
            ),
            None => format!(
                "unhandled {kind} at eip {cache_eip:#x} (fault addr {addr:#x}, no app translation)"
            ),
        };
        Fault {
            cache_eip,
            app_pc,
            kind: Some(kind),
            message,
        }
    }

    /// An engine-level failure (no architectural fault kind).
    fn engine(cache_eip: u32, message: String) -> Fault {
        Fault {
            cache_eip,
            app_pc: None,
            kind: None,
            message,
        }
    }

    /// Process exit status conventionally reported for this fault:
    /// [`FaultKind::exit_code`] for guest faults (129 divide error, 130
    /// invalid opcode, 131 memory fault), or 128 for engine-level failures.
    pub fn exit_code(&self) -> i32 {
        self.kind.map_or(ENGINE_FAILURE_EXIT, FaultKind::exit_code)
    }
}

/// Result of one [`Rio::step`] call.
#[derive(Clone, Debug)]
pub enum StepOutcome {
    /// The budget was exhausted; the session is suspended at a safe point
    /// and can be resumed with another `step`.
    Running(StopReason),
    /// The application exited with this status. Subsequent steps return
    /// `Exited` again without executing anything.
    Exited(i32),
    /// Execution failed: an unhandled guest fault or an engine
    /// classification failure. The session stays suspended at the fault —
    /// stepping again re-attempts (and re-reports) it, so a harness can
    /// register a handler or flush the cache and resume.
    Faulted(Fault),
}

/// Budget accounting for one step: counter values at the start of the step.
struct BudgetMeter {
    budget: StepBudget,
    start_instructions: u64,
    start_cycles: u64,
}

/// Fuel per bounded machine-execution chunk when a cycle limit needs
/// periodic re-checking.
const CHUNK_FUEL: u64 = 8192;

/// Fuel for an effectively-unbounded machine run (matches `Machine::run`).
const UNLIMITED_FUEL: u64 = 1 << 44;

impl BudgetMeter {
    fn start(budget: StepBudget, counters: &Counters) -> BudgetMeter {
        BudgetMeter {
            budget,
            start_instructions: counters.instructions,
            start_cycles: counters.cycles,
        }
    }

    /// Check the budget at a safe point.
    fn exhausted(&self, counters: &Counters) -> Option<StopReason> {
        if let Some(n) = self.budget.max_instructions {
            if counters.instructions - self.start_instructions >= n {
                return Some(StopReason::InstructionBudget);
            }
        }
        if let Some(n) = self.budget.max_cycles {
            if counters.cycles - self.start_cycles >= n {
                return Some(StopReason::CycleBudget);
            }
        }
        None
    }

    /// Fuel for the next machine-execution chunk: exactly the remaining
    /// instruction budget when one is set (so instruction limits are
    /// precise), bounded when a cycle limit needs periodic re-checking,
    /// effectively unlimited otherwise.
    fn fuel(&self, counters: &Counters) -> u64 {
        let mut fuel = if self.budget.max_cycles.is_some() {
            CHUNK_FUEL
        } else {
            UNLIMITED_FUEL
        };
        if let Some(n) = self.budget.max_instructions {
            let used = counters.instructions - self.start_instructions;
            fuel = fuel.min(n.saturating_sub(used)).max(1);
        }
        fuel
    }
}

/// The RIO engine coupled with a client.
///
/// # Examples
///
/// ```no_run
/// use rio_core::{Rio, NullClient, Options};
/// use rio_sim::{Image, CpuKind};
///
/// let image = Image::from_code(vec![0xf4]); // hlt
/// let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
/// let result = rio.run();
/// assert_eq!(result.exit_code, 0);
/// ```
///
/// Stepping with a budget:
///
/// ```no_run
/// use rio_core::{Rio, NullClient, Options, StepBudget, StepOutcome};
/// use rio_sim::{Image, CpuKind};
///
/// let image = Image::from_code(vec![0xf4]);
/// let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
/// loop {
///     match rio.step(StepBudget::instructions(10_000)) {
///         StepOutcome::Running(_) => continue, // safe point: inspect, flush, resume
///         StepOutcome::Exited(code) => break assert_eq!(code, 0),
///         StepOutcome::Faulted(f) => break eprintln!("{}", f.message),
///     }
/// }
/// ```
pub struct Rio<C: Client> {
    /// Engine state (exposed so harnesses can inspect cache and stats).
    pub core: Core,
    /// The coupled client.
    pub client: C,
    /// Session progress (which mode is active, suspended-thread state).
    phase: Phase,
    /// The list every basic block is decoded into, mangled in and emitted
    /// from; cleared per block, it keeps its storage.
    block_list: InstrList,
    /// The list every trace is built in, likewise kept.
    trace_list: InstrList,
}

/// Session progress of a [`Rio`].
enum Phase {
    /// No step taken yet; client `init`/`thread_init` hooks not yet fired.
    Unstarted,
    /// Pure-emulation session (Table 1, row 1).
    Emulating,
    /// Code-cache session, with the engine action to perform before
    /// re-entering the cache; `None` while the machine is mid-execution
    /// (suspended by fuel, not by the engine).
    InCache(Option<Resume>),
    /// The application exited with this status.
    Finished(i32),
}

enum Leave {
    /// `eip` has been set; resume execution in the cache.
    Resume,
    /// Dispatch to this application tag.
    Dispatch(u32),
}

/// How execution re-enters the cache.
enum Resume {
    /// Dispatch to an application tag.
    Dispatch(u32),
    /// Continue in the cache at the current `eip`, with this execution
    /// region (preserves mid-recording restrictions across thread
    /// switches).
    InCache(ExecRegion),
}

/// Exit status of a run ended by an engine-level failure.
const ENGINE_FAILURE_EXIT: i32 = 128;

// Every thread the simulated OS can create gets a private cache slice.
const _: () = assert!(cache::MAX_THREADS >= rio_sim::os::MAX_THREADS);

/// Faults observed in one fragment before it is evicted and its tag
/// quarantined (self-healing for corrupted cache copies).
const FAULT_EVICT_THRESHOLD: u32 = 2;

impl<C: Client> Rio<C> {
    /// Create an engine over `image` with the given options, processor
    /// model, and client.
    pub fn new(image: &Image, options: Options, kind: CpuKind, client: C) -> Rio<C> {
        Rio {
            core: Core::new(image, options, kind),
            client,
            phase: Phase::Unstarted,
            block_list: InstrList::new(),
            trace_list: InstrList::new(),
        }
    }

    /// Run the application to completion under the engine.
    ///
    /// Equivalent to stepping with [`StepBudget::unlimited`] until exit:
    /// counters, stats, and output are bit-identical however the run is
    /// sliced into steps.
    ///
    /// An unhandled guest fault ends the run cleanly (never a panic): the
    /// result carries the [`Fault`] in [`RioRunResult::fault`] and the exit
    /// status [`FaultKind::exit_code`], the one the simulated OS reports
    /// for an unhandled fault under native execution.
    pub fn run(&mut self) -> RioRunResult {
        loop {
            match self.step(StepBudget::unlimited()) {
                StepOutcome::Running(_) => {}
                StepOutcome::Exited(code) => return self.result_snapshot(code),
                StepOutcome::Faulted(f) => {
                    let mut r = self.result_snapshot(f.exit_code());
                    r.fault = Some(f);
                    return r;
                }
            }
        }
    }

    /// Advance the session by at most `budget` worth of work.
    ///
    /// The first step fires the client `init`/`thread_init` hooks; the step
    /// that observes program exit fires `thread_exit`/`on_exit` before
    /// returning [`StepOutcome::Exited`]. A suspended session holds all its
    /// state in `self` — resuming with another `step` (from this thread or
    /// another; `Rio` is `Send`) continues exactly where execution stopped,
    /// and the interleaving of steps has no effect on counters, stats, or
    /// output.
    pub fn step(&mut self, budget: StepBudget) -> StepOutcome {
        if matches!(self.phase, Phase::Unstarted) {
            self.client.init(&mut self.core);
            self.client.thread_init(&mut self.core);
            self.phase = if self.core.options.mode == ExecMode::Emulate {
                let (s, e) = self.core.image.code_range();
                self.core.machine.set_exec_region(ExecRegion::new(s, e));
                Phase::Emulating
            } else {
                // Monitor the application code region for stores so
                // self-modifying code surfaces as `CpuExit::CodeWrite`
                // (paper §6: cache consistency). The engine's own writes
                // (fragment emission, link patching) go through the memory
                // API directly and are exempt.
                let (s, e) = self.core.image.code_range();
                self.core
                    .machine
                    .set_watch_region(Some(ExecRegion::new(s, e)));
                Phase::InCache(Some(Resume::Dispatch(self.core.image.entry)))
            };
        }
        let meter = BudgetMeter::start(budget, &self.core.machine.counters);
        // Take the phase out so the step helpers can borrow `self` freely.
        match std::mem::replace(&mut self.phase, Phase::Unstarted) {
            Phase::Unstarted => unreachable!("session started above"),
            Phase::Finished(code) => {
                self.phase = Phase::Finished(code);
                StepOutcome::Exited(code)
            }
            Phase::Emulating => {
                let outcome = self.step_emulate(&meter);
                self.settle(Phase::Emulating, outcome)
            }
            Phase::InCache(mut pending) => {
                let outcome = self.step_cache(&mut pending, &meter);
                self.settle(Phase::InCache(pending), outcome)
            }
        }
    }

    /// Record the outcome of a step: on exit, fire the exit hooks exactly
    /// once and pin the phase to `Finished`; otherwise restore the
    /// suspended phase.
    fn settle(&mut self, suspended: Phase, outcome: StepOutcome) -> StepOutcome {
        match outcome {
            StepOutcome::Exited(code) => {
                // Final safe point: anything still queued for verification
                // gets checked before the exit hooks observe the stats.
                self.core.drain_verify_queue();
                self.client.thread_exit(&mut self.core);
                self.client.on_exit(&mut self.core);
                self.phase = Phase::Finished(code);
                StepOutcome::Exited(code)
            }
            other => {
                self.phase = suspended;
                other
            }
        }
    }

    /// Whether the session has exited, and with what status.
    pub fn exit_status(&self) -> Option<i32> {
        match self.phase {
            Phase::Finished(code) => Some(code),
            _ => None,
        }
    }

    /// The run result as of now, with the given exit status. For completed
    /// sessions this equals what [`Rio::run`] returns; for suspended ones
    /// it is a partial snapshot (harnesses reporting on budget-exhausted
    /// runs pass their own status convention).
    pub fn result_snapshot(&self, exit_code: i32) -> RioRunResult {
        RioRunResult {
            exit_code,
            app_output: self.core.os.output.clone(),
            client_output: self.core.client_output().to_string(),
            counters: self.core.machine.counters,
            stats: self.core.stats,
            fault: None,
            state_digest: self.core.machine.app_state_digest(&self.core.image),
        }
    }

    // ----- emulation mode (Table 1, row 1) --------------------------------

    fn step_emulate(&mut self, meter: &BudgetMeter) -> StepOutcome {
        loop {
            // Every emulated instruction boundary is a safe point.
            if let Some(reason) = meter.exhausted(&self.core.machine.counters) {
                return StepOutcome::Running(reason);
            }
            self.core.machine.charge(costs::EMULATE_PER_INSTR);
            self.core.stats.emulated_instrs += 1;
            let exit = self.core.machine.run_steps(1);
            if let Some(event) = self.core.os.handle(&mut self.core.machine, exit) {
                // Emulation continues at the incoming thread's `eip`; the
                // cache resume point is irrelevant here.
                if let ControlFlow::Break(code) = self.os_event(event) {
                    return StepOutcome::Exited(code);
                }
                continue;
            }
            match exit {
                CpuExit::Fault { kind, pc, addr } => {
                    // Under emulation the faulting pc *is* the app pc.
                    self.core.stats.faults_raised += 1;
                    self.client.fault_event(&mut self.core, kind, pc, Some(pc));
                    if !self.core.os.deliver_fault(&mut self.core.machine, kind, pc) {
                        return StepOutcome::Faulted(Fault::guest(kind, pc, Some(pc), addr));
                    }
                    self.core.stats.faults_delivered += 1;
                }
                // Watches are only installed in cache mode; if one is
                // somehow active, the store has committed and the
                // interpreter's decode cache already invalidated itself, so
                // emulation just continues.
                CpuExit::FuelExhausted | CpuExit::CodeWrite { .. } => {}
                other => {
                    let eip = self.core.machine.cpu.eip;
                    return StepOutcome::Faulted(Fault::engine(
                        eip,
                        format!("emulation failed: {other:?} at eip={eip:#x}"),
                    ));
                }
            }
        }
    }

    // ----- threads ---------------------------------------------------------

    /// Mirror a simulated-OS decision in the engine's per-thread state.
    /// Returns where the incoming thread resumes after a switch, or the
    /// exit status once the program has exited.
    ///
    /// A spawned thread gets its private cache and fires `thread_init`; a
    /// retired one fires `thread_exit` (the thread on the CPU at program
    /// exit fires it in [`Rio::step`]). A yielding thread keeps its
    /// execution region so it resumes mid-fragment; a thread's first turn
    /// dispatches at its entry `eip`.
    fn os_event(&mut self, event: OsEvent) -> ControlFlow<i32, Option<Resume>> {
        match event {
            OsEvent::Continue => {}
            OsEvent::Exited(code) => return ControlFlow::Break(code),
            OsEvent::Spawned(tid) => {
                debug_assert_eq!(tid, self.core.threads.len());
                self.core.threads.push(ThreadCore::new(tid as u32));
                let prev = std::mem::replace(&mut self.core.cur, tid);
                self.client.thread_init(&mut self.core);
                self.core.cur = prev;
                self.core.stats.threads_spawned += 1;
            }
            OsEvent::Switched { from, to, retired } => {
                if retired {
                    self.client.thread_exit(&mut self.core);
                } else {
                    self.core.threads[from].resume = Some(self.core.machine.exec_region());
                }
                self.core.cur = to;
                return ControlFlow::Continue(Some(match self.core.threads[to].resume.take() {
                    Some(region) => Resume::InCache(region),
                    None => Resume::Dispatch(self.core.machine.cpu.eip),
                }));
            }
        }
        ControlFlow::Continue(None)
    }

    // ----- code-cache mode -------------------------------------------------

    fn step_cache(&mut self, pending: &mut Option<Resume>, meter: &BudgetMeter) -> StepOutcome {
        loop {
            // Safe point: either the engine is about to act (control is out
            // of the cache) or the machine is suspended between fuel chunks.
            if let Some(reason) = meter.exhausted(&self.core.machine.counters) {
                return StepOutcome::Running(reason);
            }
            if let Some(action) = pending.take() {
                match action {
                    Resume::Dispatch(t) => {
                        if self.core.take_fault_quarantine(t) {
                            self.emulate_quarantined(t);
                        } else {
                            match self.dispatch(t) {
                                Ok(frag) => self.enter(frag),
                                Err(fault) => {
                                    if let Some(outcome) = self.failed_dispatch(pending, t, fault) {
                                        return outcome;
                                    }
                                    // Delivered: dispatch the handler next.
                                    continue;
                                }
                            }
                        }
                    }
                    Resume::InCache(region) => self.core.machine.set_exec_region(region),
                }
            }
            // A client hook that asked for what the engine cannot give ends
            // the run before any more application code executes.
            if let Some(message) = &self.core.client_fault {
                let eip = self.core.machine.cpu.eip;
                return StepOutcome::Faulted(Fault::engine(eip, message.clone()));
            }
            let fuel = meter.fuel(&self.core.machine.counters);
            let exit = self.core.machine.run_steps(fuel);
            if let Some(event) = self.core.os.handle(&mut self.core.machine, exit) {
                match self.os_event(event) {
                    ControlFlow::Continue(next) => *pending = next,
                    ControlFlow::Break(code) => return StepOutcome::Exited(code),
                }
                continue;
            }
            match exit {
                // Out of fuel, not out of work: loop to the budget check.
                CpuExit::FuelExhausted => {}
                CpuExit::OutOfRegion(addr) => match self.handle_leave(addr) {
                    Ok(Leave::Resume) => {}
                    Ok(Leave::Dispatch(t)) => *pending = Some(Resume::Dispatch(t)),
                    Err(fault) => return StepOutcome::Faulted(fault),
                },
                CpuExit::Fault { kind, pc, addr } => {
                    if let Some(outcome) = self.handle_guest_fault(pending, kind, pc, addr) {
                        return outcome;
                    }
                }
                CpuExit::CodeWrite { pc, addr, len } => {
                    self.handle_code_write(pending, pc, addr, len);
                }
                other => {
                    let eip = self.core.machine.cpu.eip;
                    return StepOutcome::Faulted(Fault::engine(
                        eip,
                        format!("execution failed: {other:?} at eip={eip:#x}"),
                    ));
                }
            }
        }
    }

    // ----- guest faults ----------------------------------------------------

    /// A guest fault surfaced while executing under the engine. Translates
    /// the faulting cache address back to application state (rolling back
    /// the `%ecx` spill when the fault landed inside a mangled
    /// indirect-branch region), evicts repeatedly-faulting fragments, and
    /// either delivers the fault to the registered guest handler or
    /// surfaces a terminal `Faulted` outcome. Returns `None` when execution
    /// can continue (fault delivered).
    fn handle_guest_fault(
        &mut self,
        pending: &mut Option<Resume>,
        kind: FaultKind,
        pc: u32,
        addr: u32,
    ) -> Option<StepOutcome> {
        self.core.stats.faults_raised += 1;
        // Quarantined blocks execute application code directly, so a fault
        // there (or anywhere below the cache) already has app coordinates.
        let mut app_pc = (pc < Image::CACHE_BASE).then_some(pc);
        let mut ecx_spilled = false;
        let mut evicted: Option<u32> = None;
        if pc >= Image::CACHE_BASE {
            if let Some(id) = self.core.threads[self.core.cur].cache.frag_by_addr(pc) {
                let (tag, translation) = {
                    let f = self.core.threads[self.core.cur].cache.frag(id);
                    (f.tag, f.translate(pc))
                };
                app_pc = Some(translation.map_or(tag, |t| t.app_pc));
                ecx_spilled = translation.is_some_and(|t| t.ecx_spilled);
                let faults = {
                    let f = self.core.threads[self.core.cur].cache.frag_mut(id);
                    f.faults += 1;
                    f.faults
                };
                if faults >= FAULT_EVICT_THRESHOLD {
                    // Self-healing: a fragment that keeps faulting (e.g. a
                    // corrupted cache copy) is evicted; its block runs by
                    // emulation once, then is rebuilt fresh.
                    self.core.fault_evict(id);
                    self.fire_deleted();
                    evicted = Some(tag);
                }
            }
        }
        self.client.fault_event(&mut self.core, kind, pc, app_pc);
        let target = app_pc.unwrap_or(pc);
        let delivered = self
            .core
            .os
            .deliver_fault(&mut self.core.machine, kind, target);
        if ecx_spilled && (delivered || evicted.is_some()) {
            // Control will not resume inside the mangled region. (On a
            // plain unhandled fault the session may be resumed at the
            // faulting cache address, which still needs the scratch %ecx —
            // leave it alone there.)
            self.core.restore_spilled_ecx();
        }
        if delivered {
            // A delivery detours control through the handler, so any
            // in-progress trace recording no longer describes a real
            // crossing sequence; abandon it rather than stitch a trace
            // whose connectors assume the uninterrupted path.
            self.core.threads[self.core.cur].recording = None;
            self.core.stats.faults_delivered += 1;
            // The handler is application code: enter it through dispatch,
            // exactly like any other control transfer out of the cache.
            self.core.context_switch();
            *pending = Some(Resume::Dispatch(self.core.machine.cpu.eip));
            return None;
        }
        if let Some(tag) = evicted {
            // The faulting cache copy is gone; a resumed session re-enters
            // through dispatch at the faulting app pc (quarantine emulation
            // when that is the block's tag) instead of the dead cache
            // address.
            *pending = Some(Resume::Dispatch(app_pc.unwrap_or(tag)));
        }
        Some(StepOutcome::Faulted(Fault::guest(kind, pc, app_pc, addr)))
    }

    /// A guest store landed in the monitored application code region while
    /// executing under the engine (paper §6: cache consistency). The store
    /// has *committed* and `eip` is already past the writing instruction,
    /// so resuming makes forward progress even when an instruction
    /// overwrites itself (no livelock). Body instructions are copied into
    /// the cache verbatim, so the application resume point is the writer's
    /// translated pc plus the same advance `eip` made in the cache.
    /// Invalidates exactly the fragments whose source ranges the write
    /// overlapped, then re-enters through dispatch — rebuilding from the
    /// freshly written bytes.
    fn handle_code_write(&mut self, pending: &mut Option<Resume>, pc: u32, addr: u32, len: u32) {
        self.core.stats.code_writes += 1;
        let eip = self.core.machine.cpu.eip;
        let resume = if pc < Image::CACHE_BASE {
            // Quarantined emulation runs application code directly; the
            // committed `eip` already is the application resume point.
            eip
        } else {
            let translation = self.core.threads[self.core.cur]
                .cache
                .frag_by_addr(pc)
                .and_then(|id| {
                    self.core.threads[self.core.cur]
                        .cache
                        .frag(id)
                        .translate(pc)
                });
            match translation {
                Some(t) => {
                    if t.ecx_spilled {
                        // Control will not resume inside the mangled region.
                        self.core.restore_spilled_ecx();
                    }
                    t.app_pc.wrapping_add(eip.wrapping_sub(pc))
                }
                // Untranslatable store site (a store synthesized by
                // mangling — not application code): re-enter at the last
                // dispatched tag rather than running a stale fragment.
                None => self.core.last_dispatched.unwrap_or(self.core.image.entry),
            }
        };
        // A recording in progress may include a block the write just
        // invalidated; abandon it rather than stitch stale code.
        self.core.threads[self.core.cur].recording = None;
        self.core.invalidate_code_write(addr, len);
        self.fire_deleted();
        self.core.context_switch();
        *pending = Some(Resume::Dispatch(resume));
    }

    /// Dispatch to `t` failed. Undecodable application code is a guest
    /// invalid-opcode fault at the target pc and takes the normal delivery
    /// path; engine-level emit failures are terminal. Either way the
    /// dispatch is left pending so a resumed session retries (and
    /// re-reports) cleanly instead of running stale cache code.
    fn failed_dispatch(
        &mut self,
        pending: &mut Option<Resume>,
        t: u32,
        fault: Fault,
    ) -> Option<StepOutcome> {
        match fault.kind {
            Some(kind) => {
                let pc = fault.app_pc.unwrap_or(t);
                let outcome = self.handle_guest_fault(pending, kind, pc, pc);
                if outcome.is_some() {
                    *pending = Some(Resume::Dispatch(t));
                }
                outcome
            }
            None => {
                *pending = Some(Resume::Dispatch(t));
                Some(StepOutcome::Faulted(fault))
            }
        }
    }

    /// Execute the quarantined block at `tag` by emulation: its cache copy
    /// repeatedly faulted and was evicted, so the application's own code
    /// runs instead, restricted to the block's extent. Control leaving the
    /// block surfaces as `OutOfRegion`, which `handle_leave` converts back
    /// into an ordinary dispatch (rebuilding a fresh cache copy).
    fn emulate_quarantined(&mut self, tag: u32) {
        let (end, instrs) = match decode_bb(
            &self.core.machine.mem,
            tag,
            false,
            self.core.options.max_bb_instrs,
        ) {
            Ok(bb) => (bb.end_pc, bb.num_instrs as u64),
            // Undecodable app code: a one-byte region makes the machine
            // raise the invalid-opcode fault at `tag` itself.
            Err(_) => (tag.wrapping_add(1), 1),
        };
        self.core.machine.charge(costs::EMULATE_PER_INSTR * instrs);
        self.core.stats.emulated_instrs += instrs;
        self.core.threads[self.core.cur].quarantine_exec = true;
        self.core.machine.cpu.eip = tag;
        self.core.machine.set_exec_region(ExecRegion::new(tag, end));
    }

    /// Fire the `fragment_deleted` hook for every fragment removed since the
    /// last call, in removal order.
    fn fire_deleted(&mut self) {
        for tag in std::mem::take(&mut self.core.deleted_tags) {
            self.client.fragment_deleted(&mut self.core, tag);
        }
    }

    /// Point the machine at a fragment and set the execution region: the
    /// whole cache normally, or just this fragment while recording a trace
    /// (so every crossing is observed).
    fn enter(&mut self, frag: FragmentId) {
        self.core.threads[self.core.cur].quarantine_exec = false;
        let f = self.core.threads[self.core.cur].cache.frag(frag);
        let region = if self.core.threads[self.core.cur].recording.is_some() {
            let (s, e) = f.range();
            ExecRegion::new(s, e)
        } else {
            let (s, e) = self.core.threads[self.core.cur].cache.region();
            ExecRegion::new(s, e)
        };
        self.core.machine.cpu.eip = f.start;
        self.core.machine.set_exec_region(region);
    }

    /// Find or build the fragment to execute for `tag`; handles trace-head
    /// counting and trace-recording kickoff.
    fn dispatch(&mut self, tag: u32) -> Result<FragmentId, Fault> {
        self.core.machine.charge(costs::DISPATCH);
        self.core.stats.dispatches += 1;
        self.core.last_dispatched = Some(tag);
        self.core.take_safe_deletions();
        self.fire_deleted();
        self.core.process_cache_pressure();
        self.fire_deleted();
        self.core.take_requested_flush();
        self.fire_deleted();
        // Dispatch is a safe point: re-verify every fragment touched by an
        // emit, link, unlink, invalidation, or eviction since the last one
        // (no-op unless `Options::verify` is set; never charged).
        self.core.drain_verify_queue();

        // Traces shadow blocks — but not while recording (recording steps
        // through basic blocks).
        if self.core.threads[self.core.cur].recording.is_none() {
            if let Some(tr) = self.core.threads[self.core.cur].cache.lookup_trace(tag) {
                return Ok(tr);
            }
        }

        if let Some(bb) = self.core.threads[self.core.cur].cache.lookup_bb(tag) {
            self.count_trace_head(bb, tag);
            return Ok(bb);
        }

        let bb = self.build_bb(tag)?;
        self.count_trace_head(bb, tag);
        Ok(bb)
    }

    fn count_trace_head(&mut self, bb: FragmentId, tag: u32) {
        if self.core.threads[self.core.cur].recording.is_some()
            || self.core.options.mode < ExecMode::Traces
        {
            return;
        }
        if !self.core.threads[self.core.cur]
            .cache
            .frag(bb)
            .is_trace_head
        {
            return;
        }
        self.core.machine.charge(costs::COUNTER_INCREMENT);
        let counter = {
            let f = self.core.threads[self.core.cur].cache.frag_mut(bb);
            f.counter += 1;
            f.counter
        };
        if counter >= self.core.options.trace_threshold
            && self.core.threads[self.core.cur]
                .cache
                .lookup_trace(tag)
                .is_none()
        {
            self.core.threads[self.core.cur].recording = Some(Recording {
                trace_tag: tag,
                tags: vec![tag],
            });
        }
    }

    /// Build, mangle, and emit the basic block at `tag`. Undecodable
    /// application code is reported as a guest invalid-opcode fault at
    /// `tag` — exactly what native execution of those bytes would raise.
    fn build_bb(&mut self, tag: u32) -> Result<FragmentId, Fault> {
        let full = self.client.wants_full_decode();
        let bb = match decode_bb_into(
            &self.core.machine.mem,
            tag,
            full,
            self.core.options.max_bb_instrs,
            &mut self.block_list,
        ) {
            Ok(bb) => bb,
            Err(e) => {
                return Err(Fault {
                    cache_eip: self.core.machine.cpu.eip,
                    app_pc: Some(tag),
                    kind: Some(FaultKind::InvalidOpcode),
                    message: format!("invalid application code at {tag:#x}: {e}"),
                })
            }
        };
        let build_cost = costs::BB_BUILD_BASE + costs::BB_BUILD_PER_INSTR * bb.num_instrs as u64;
        self.core.machine.charge(build_cost);
        self.core.stats.bbs_built += 1;
        self.core.stats.bb_instrs += bb.num_instrs as u64;

        let il = bb.il;
        // Instrumentation-safety lint: whatever the client adds to the
        // block must not clobber live application registers or flags.
        let snapshot = self.core.lint_snapshot(il);
        self.client.basic_block(&mut self.core, tag, il);
        self.core.lint_client_edit(snapshot, il, tag);
        let last = il.last_id();
        if let (Some(last), Some(exit)) = (last, mangle_bb(il, bb.end_pc)) {
            // A custom stub the hook asked for on the block's last
            // instruction goes to the exit mangling put in its place.
            for stub in &mut self.core.pending_custom_stubs {
                if stub.exit_instr == last {
                    stub.exit_instr = exit;
                }
            }
        }
        let id = self
            .core
            .emit(FragmentKind::BasicBlock, tag, il, [(tag, bb.end_pc)])
            .map_err(|e| {
                Fault::engine(
                    self.core.machine.cpu.eip,
                    format!("failed to emit block {tag:#x}: {e}"),
                )
            })?;
        if self.core.marked_heads.contains(&tag) {
            self.core.threads[self.core.cur]
                .cache
                .frag_mut(id)
                .is_trace_head = true;
        }
        Ok(id)
    }

    /// Classify and handle control leaving the permitted execution region.
    fn handle_leave(&mut self, addr: u32) -> Result<Leave, Fault> {
        // Clean call into client code.
        if let Some(token) = layout::clean_call_index(addr) {
            return self.handle_clean_call(token);
        }
        // Exit stub sentinel.
        if let Some(stub) = layout::stub_index(addr) {
            return self.handle_stub(stub);
        }
        // A quarantined block ran by emulation; control leaving it to any
        // application address is an ordinary dispatch (which rebuilds a
        // fresh cache copy — the self-healing step).
        if self.core.threads[self.core.cur].quarantine_exec && addr < Image::CACHE_BASE {
            self.core.threads[self.core.cur].quarantine_exec = false;
            self.core.context_switch();
            return Ok(Leave::Dispatch(addr));
        }
        // During recording, a linked exit jumps straight to another
        // fragment's entry, which lies outside the restricted region.
        if self.core.threads[self.core.cur].recording.is_some() {
            if let Some(frag) = self.core.threads[self.core.cur].cache.by_entry(addr) {
                let (tag, kind) = {
                    let f = self.core.threads[self.core.cur].cache.frag(frag);
                    (f.tag, f.kind)
                };
                // A linked crossing is always a direct transfer.
                self.core.threads[self.core.cur].last_exit_was_return = false;
                if kind == FragmentKind::Trace {
                    // Recording must step through basic blocks: entering a
                    // trace would execute many blocks with no observable
                    // crossings. Re-dispatch so the block copy runs instead.
                    return Ok(self.record_crossing_dispatch(tag));
                }
                // Continue in the cache at the entered block.
                self.record_step(tag);
                self.enter(frag);
                return Ok(Leave::Resume);
            }
        }
        let last = match self.core.last_dispatched {
            Some(t) => format!(", last dispatched fragment tag {t:#x}"),
            None => String::new(),
        };
        Err(Fault::engine(
            self.core.machine.cpu.eip,
            format!(
                "control reached unclassifiable address {addr:#x} (eip {:#x}{last})",
                self.core.machine.cpu.eip
            ),
        ))
    }

    /// Control reached clean-call sentinel `token`: run the client's hook
    /// and resume after the call. A token no client instruction was made
    /// for (the application jumped there itself) is an engine fault.
    fn handle_clean_call(&mut self, token: u32) -> Result<Leave, Fault> {
        let Some(arg) = self.core.clean_call_arg(token) else {
            return Err(self.unknown_sentinel("clean-call token", token));
        };
        // The call pushed the cache resume address; pop it to restore the
        // application stack (transparency) and remember where to resume.
        let esp = self.core.machine.cpu.reg(Reg::Esp);
        let resume = self.core.machine.mem.read_u32(esp);
        self.core.machine.cpu.set_reg(Reg::Esp, esp.wrapping_add(4));
        self.core.machine.charge(costs::CLEAN_CALL);
        self.core.stats.clean_calls += 1;
        self.client.clean_call(&mut self.core, arg);
        self.core.machine.cpu.eip = resume;
        Ok(Leave::Resume)
    }

    /// Control reached exit-stub sentinel `stub`: take the exit it belongs
    /// to. A stub no fragment reserved (the application jumped there
    /// itself) is an engine fault.
    fn handle_stub(&mut self, stub: u32) -> Result<Leave, Fault> {
        let Some(rec) = self.core.threads[self.core.cur].cache.stub(stub) else {
            return Err(self.unknown_sentinel("stub", stub));
        };
        let exit_kind =
            self.core.threads[self.core.cur].cache.frag(rec.frag).exits[rec.exit_idx].kind;
        match exit_kind {
            ExitKind::Direct { target } => {
                self.core.threads[self.core.cur].last_exit_was_return = false;
                self.core.context_switch();
                // Backward direct branches identify loop heads (Dynamo's
                // trace-head heuristic).
                let src_tag = self.core.threads[self.core.cur].cache.frag(rec.frag).tag;
                if self.core.options.mode >= ExecMode::Traces && target <= src_tag {
                    self.core.mark_trace_head(target);
                }
                if self.core.threads[self.core.cur].recording.is_some() {
                    return Ok(self.record_crossing_dispatch(target));
                }
                self.maybe_link(rec.frag, rec.exit_idx, target);
                Ok(Leave::Dispatch(target))
            }
            ExitKind::Indirect { kind } => Ok(self.handle_indirect(kind)),
        }
    }

    /// The engine fault for control at a runtime sentinel the engine never
    /// handed out: `what` number `index`.
    fn unknown_sentinel(&self, what: &str, index: u32) -> Fault {
        let eip = self.core.machine.cpu.eip;
        Fault::engine(
            eip,
            format!("control reached an unknown {what} ({index}) at {eip:#x}"),
        )
    }

    /// Link a direct exit lazily, on first traversal.
    fn maybe_link(&mut self, src: FragmentId, exit_idx: usize, target: u32) {
        let cache = &self.core.threads[self.core.cur].cache;
        let srcf = cache.frag(src);
        if self.core.options.mode < ExecMode::DirectLinks
            || srcf.deleted
            || srcf.exits[exit_idx].linked_to.is_some()
        {
            return;
        }
        let Some(dst) = cache.link_target(target) else {
            return;
        };
        link_exit(
            &mut self.core.machine,
            &mut self.core.threads[self.core.cur].cache,
            src,
            exit_idx,
            dst,
        );
        self.core.machine.charge(costs::LINK_PATCH);
        self.core.stats.links += 1;
        self.core.note_verify(self.core.cur, src);
        self.core.note_verify(self.core.cur, dst);
    }

    /// A translated indirect branch arrived at the lookup with its target in
    /// `%ecx`.
    fn handle_indirect(&mut self, kind: IndKind) -> Leave {
        let target = self.core.machine.cpu.reg(Reg::Ecx);
        self.core.restore_spilled_ecx();
        self.core.threads[self.core.cur].last_exit_was_return = kind == IndKind::Ret;
        self.core.stats.ib_lookups += 1;

        // The shared lookup routine ends in one indirect jump: a single BTB
        // slot shared by every translated indirect branch — the source of
        // the overhead discussed in §5.
        self.core
            .machine
            .predict_indirect_jump(layout::IB_LOOKUP, target);

        if self.core.threads[self.core.cur].recording.is_some() {
            self.core.machine.charge(costs::HASH_LOOKUP);
            return self.record_crossing_dispatch(target);
        }

        if self.core.options.mode >= ExecMode::IndirectLinks {
            self.core.machine.charge(costs::HASH_LOOKUP);
            // In-cache lookup: the same fragments a direct link may enter.
            let cache = &self.core.threads[self.core.cur].cache;
            if let Some(id) = cache.link_target(target) {
                self.core.stats.ib_lookup_hits += 1;
                self.core.machine.cpu.eip = cache.frag(id).start;
                return Leave::Resume;
            }
        }
        self.core.context_switch();
        Leave::Dispatch(target)
    }

    /// While recording: control is about to move to `tag`; consult the
    /// client and default rules, then either finish the trace or extend it.
    fn record_crossing_dispatch(&mut self, tag: u32) -> Leave {
        self.record_step(tag);
        Leave::Dispatch(tag)
    }

    /// Record one crossing; returns `true` if recording continues.
    fn record_step(&mut self, next_tag: u32) -> bool {
        let trace_tag = match &self.core.threads[self.core.cur].recording {
            Some(r) => r.trace_tag,
            None => return false,
        };
        let decision = self.client.end_trace(&mut self.core, trace_tag, next_tag);
        let end = match decision {
            EndTraceDecision::End => true,
            EndTraceDecision::Continue => false,
            EndTraceDecision::Default => self.default_end_trace(next_tag),
        };
        if end {
            self.finish_recording();
            false
        } else {
            self.core.threads[self.core.cur]
                .recording
                .as_mut()
                .expect("recording active")
                .tags
                .push(next_tag);
            true
        }
    }

    /// Dynamo's default trace termination test: stop at a backward branch or
    /// upon reaching an existing trace or trace head, or at the size cap.
    fn default_end_trace(&self, next_tag: u32) -> bool {
        let rec = self.core.threads[self.core.cur]
            .recording
            .as_ref()
            .expect("recording active");
        rec.tags.len() >= self.core.options.max_trace_bbs
            || self.core.threads[self.core.cur]
                .cache
                .lookup_trace(next_tag)
                .is_some()
            || self.core.is_trace_head(next_tag)
            || next_tag <= *rec.tags.last().expect("nonempty recording")
    }

    /// Stitch the recorded blocks into a trace, run the client trace hook,
    /// and emit it into the trace cache.
    fn finish_recording(&mut self) {
        let rec = self.core.threads[self.core.cur]
            .recording
            .take()
            .expect("recording active");
        // Built in the kept lists. The application code may have been
        // modified (or corrupted) since the crossing was recorded; abandon
        // the trace rather than panic — its blocks still execute
        // individually.
        let mut trace_il = std::mem::take(&mut self.trace_list);
        let mut src_ranges = Vec::with_capacity(rec.tags.len());
        if let Ok(total_instrs) = decode_trace_into(
            &self.core.machine.mem,
            &rec.tags,
            self.core.options.max_bb_instrs,
            self.core.options.inline_ib_target,
            &mut self.block_list,
            &mut trace_il,
            &mut src_ranges,
        ) {
            self.emit_trace(rec.trace_tag, total_instrs, &mut trace_il, src_ranges);
        }
        self.trace_list = trace_il;
    }

    /// Charge, hook and emit a trace built from `total_instrs` application
    /// instructions, and mark its exits as trace heads.
    fn emit_trace(
        &mut self,
        trace_tag: u32,
        total_instrs: usize,
        trace_il: &mut InstrList,
        src_ranges: Vec<(u32, u32)>,
    ) {
        let build = costs::TRACE_BUILD_BASE + costs::TRACE_BUILD_PER_INSTR * total_instrs as u64;
        self.core.machine.charge(build);
        self.core.stats.traces_built += 1;
        self.core.stats.trace_instrs += total_instrs as u64;

        // Instrumentation-safety lint over the trace hook's edits.
        let snapshot = self.core.lint_snapshot(trace_il);
        self.client.trace(&mut self.core, trace_tag, trace_il);
        self.core.lint_client_edit(snapshot, trace_il, trace_tag);

        // An emit failure abandons the trace (blocks keep executing); it is
        // not worth killing the session over an optimization.
        let Ok(id) = self
            .core
            .emit(FragmentKind::Trace, trace_tag, trace_il, src_ranges)
        else {
            return;
        };

        // Exits of traces are trace heads (Dynamo's rule). Marking one
        // changes no fragment's exit list.
        for i in 0..self.core.cache().frag(id).exits.len() {
            if let ExitKind::Direct { target } = self.core.cache().frag(id).exits[i].kind {
                self.core.mark_trace_head(target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullClient;

    /// `mov ecx, 1000; L: dec ecx; jnz L; hlt` — hot enough for a trace.
    fn counted_loop() -> Image {
        Image::from_code(vec![0xB9, 0xE8, 0x03, 0, 0, 0x49, 0x75, 0xFD, 0xF4])
    }

    /// Use up the current thread's `kind` sub-cache without emitting.
    fn exhaust(core: &mut Core, kind: FragmentKind) {
        let cache = &mut core.threads[core.cur].cache;
        for len in [0xFFFF, 1] {
            while cache.alloc(kind, len).is_some() {}
        }
    }

    #[test]
    fn an_exhausted_block_cache_ends_the_run_as_an_engine_failure() {
        let mut rio = Rio::new(
            &counted_loop(),
            Options::full(),
            CpuKind::Pentium4,
            NullClient,
        );
        exhaust(&mut rio.core, FragmentKind::BasicBlock);
        let r = rio.run();
        assert_eq!(r.exit_code, ENGINE_FAILURE_EXIT);
        let fault = r.fault.expect("the run ends in a fault");
        assert_eq!(fault.kind, None);
        assert!(
            fault.message.contains("code cache exhausted"),
            "{}",
            fault.message
        );
    }

    #[test]
    fn an_exhausted_trace_cache_abandons_traces_and_replacements() {
        let mut rio = Rio::new(
            &counted_loop(),
            Options::full(),
            CpuKind::Pentium4,
            NullClient,
        );
        exhaust(&mut rio.core, FragmentKind::Trace);
        let r = rio.run();
        assert_eq!((r.exit_code, r.fault.is_none()), (0, true));
        assert!(r.stats.traces_built > 0, "{}", r.stats);
        assert!(rio
            .core
            .cache()
            .iter()
            .all(|f| f.kind == FragmentKind::BasicBlock));

        // A replacement that cannot be emitted leaves the old copy in place.
        let tag = Image::CODE_BASE;
        exhaust(&mut rio.core, FragmentKind::BasicBlock);
        let il = rio.core.decode_fragment(tag).expect("entry block decodes");
        let old = rio.core.cache().lookup(tag);
        assert!(!rio.core.replace_fragment(tag, il));
        assert_eq!(rio.core.cache().lookup(tag), old);
        assert_eq!(rio.core.stats.replacements, 0);
    }

    #[test]
    fn the_transparency_check_names_the_first_differing_axis() {
        let native = RunResult {
            exit_code: 3,
            output: "7\n".into(),
            counters: Counters::default(),
            state_digest: 0xab,
        };
        let same = RioRunResult {
            exit_code: 3,
            app_output: "7\n".into(),
            client_output: String::new(),
            counters: Counters::default(),
            stats: Stats::default(),
            fault: None,
            state_digest: 0xab,
        };
        assert_eq!(check_transparent(&native, &same), Ok(()));
        // The report for an engine run that differs on each of `axes`.
        let first = |axes: &[&str]| {
            let mut r = same.clone();
            if axes.contains(&"output") {
                r.app_output = "8\n".into();
            }
            if axes.contains(&"exit code") {
                r.exit_code = 4;
            }
            if axes.contains(&"state digest") {
                r.state_digest = 0xcd;
            }
            check_transparent(&native, &r).unwrap_err().to_string()
        };
        assert_eq!(first(&["output"]), r#"output: native "7\n" vs "8\n""#);
        assert_eq!(first(&["exit code"]), r#"exit code: native "3" vs "4""#);
        assert_eq!(
            first(&["state digest"]),
            r#"state digest: native "00000000000000ab" vs "00000000000000cd""#
        );
        // Output is reported before the exit code, and both before the digest.
        let all = first(&["output", "exit code", "state digest"]);
        assert_eq!(all, first(&["output"]));
        assert_eq!(first(&["exit code", "state digest"]), first(&["exit code"]));
    }

    #[test]
    fn result_digests_are_the_machine_digest_suspended_and_finished() {
        let image = Image {
            data: vec![(Image::DATA_BASE, vec![1, 2, 3, 4])],
            ..counted_loop()
        };
        let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
        let suspended = match rio.step(StepBudget::instructions(100)) {
            StepOutcome::Running(_) => rio.result_snapshot(0).state_digest,
            other => panic!("finished within 100 instructions: {other:?}"),
        };
        assert_eq!(suspended, rio.core.machine.app_state_digest(&image));
        let finished = rio.run();
        assert_eq!(
            finished.state_digest,
            rio.core.machine.app_state_digest(&image)
        );
        // `%ecx` counted down in between.
        assert_ne!(suspended, finished.state_digest);
    }
}
