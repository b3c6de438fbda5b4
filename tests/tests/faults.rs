//! Fault transparency: guest faults must be observationally identical
//! whether the application runs natively, under pure emulation, or out of
//! the code cache — same handler-observed state, same exit codes, same
//! output — and the engine must never panic, stay resumable after every
//! fault, and self-heal corrupted cache copies. The injection, corruption,
//! and unhandled-fault matrix is the `rio faults` scenario table (pinned
//! by the `faults` and `verify` goldens); these tests cover what a row cannot
//! express: handler-observed state and flushes requested mid-delivery.

use rio_clients::ClientKind;
use rio_core::{check_transparent, Client, Core, FaultKind, NullClient, Options, Rio};
use rio_core::{StepBudget, StepOutcome};
use rio_fuzz::scenario::{drive, Run};
use rio_ia32::Reg;
use rio_sim::{run_native, CpuKind};
use rio_workloads::{compile, faulting};

/// Registers compared at each fault event. `%ecx` is included: the faulting
/// instructions in these workloads sit outside mangled indirect-branch
/// regions, so the application's `%ecx` must be live in the register in
/// every mode.
const OBSERVED: [Reg; 7] = [
    Reg::Eax,
    Reg::Ebx,
    Reg::Ecx,
    Reg::Edx,
    Reg::Esi,
    Reg::Edi,
    Reg::Ebp,
];

/// Records the application-visible fault state at every `fault_event`.
struct FaultTrace {
    events: Vec<(FaultKind, Option<u32>, [u32; 7])>,
}

impl FaultTrace {
    fn new() -> FaultTrace {
        FaultTrace { events: Vec::new() }
    }
}

impl Client for FaultTrace {
    fn fault_event(
        &mut self,
        core: &mut Core,
        kind: FaultKind,
        _cache_eip: u32,
        app_pc: Option<u32>,
    ) {
        let mut regs = [0u32; 7];
        for (slot, r) in regs.iter_mut().zip(OBSERVED) {
            *slot = core.machine.cpu.reg(r);
        }
        self.events.push((kind, app_pc, regs));
    }
}

#[test]
fn handler_observes_identical_state_in_emulation_and_cache() {
    // Differential check: the (kind, translated app pc, registers) sequence
    // seen at fault delivery must be identical under pure emulation and
    // under the code cache — the cache's spills, mangling, and trace
    // inlining must be invisible to the handler.
    let image = compile(&faulting::div_recover()).unwrap();
    let native = run_native(&image, CpuKind::Pentium4);
    assert_eq!(native.exit_code, 0);
    let mut emu = Rio::new(
        &image,
        Options::emulation(),
        CpuKind::Pentium4,
        FaultTrace::new(),
    );
    let re = emu.run();
    let mut cache = Rio::new(
        &image,
        Options::full(),
        CpuKind::Pentium4,
        FaultTrace::new(),
    );
    let rc = cache.run();

    check_transparent(&native, &re).unwrap();
    check_transparent(&native, &rc).unwrap();
    assert_eq!(
        emu.client.events.len(),
        faulting::DIV_RECOVER_FAULTS as usize
    );
    assert_eq!(emu.client.events, cache.client.events);
    // Every event carries a translated application pc.
    assert!(emu.client.events.iter().all(|(_, pc, _)| pc.is_some()));
}

#[test]
fn fault_delivery_works_under_single_instruction_budgets() {
    // Suspend the session after every simulated instruction: faults must
    // still translate and deliver correctly mid-step, and the final state
    // must match an uninterrupted native run.
    let image = compile(&faulting::div_recover()).unwrap();
    let native = run_native(&image, CpuKind::Pentium4);
    for opts in [Options::emulation(), Options::full()] {
        let run = Run {
            step: Some(1),
            ..Run::new(opts, ClientKind::Null)
        };
        let o = drive(&image, &run, CpuKind::Pentium4);
        assert!(
            o.faults.is_empty(),
            "unexpected terminal fault: {:?}",
            o.faults
        );
        check_transparent(&native, &o.result).unwrap();
        assert_eq!(
            o.result.stats.faults_delivered,
            faulting::DIV_RECOVER_FAULTS as u64
        );
    }
}

#[test]
fn handler_delivery_survives_a_pending_cache_flush() {
    // Request a whole-cache flush while deliveries are in flight: the flush
    // drains at the next dispatch (which the delivery itself routes
    // through), and the run must still complete native-identically.
    let image = compile(&faulting::div_recover()).unwrap();
    let native = run_native(&image, CpuKind::Pentium4);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    let mut requested = false;
    let result = loop {
        match rio.step(StepBudget::instructions(200)) {
            StepOutcome::Running(_) => {
                if !requested && rio.core.stats.faults_delivered >= 3 {
                    rio.core.request_cache_flush();
                    requested = true;
                }
            }
            StepOutcome::Exited(code) => break rio.result_snapshot(code),
            StepOutcome::Faulted(f) => panic!("unexpected terminal fault: {}", f.message),
        }
    };
    assert!(requested, "run finished before any fault was delivered");
    check_transparent(&native, &result).unwrap();
    assert!(rio.core.stats.cache_flushes >= 1);
    assert_eq!(
        rio.core.stats.faults_delivered,
        faulting::DIV_RECOVER_FAULTS as u64
    );
}
