//! Resumable-session tests: budgets must be honored at safe points, the
//! engine must be `Send`, and safe-point cache flushes must fire the
//! `fragment_deleted` hooks and leave execution correct. Every check that
//! stepping has no observable effect on execution goes through
//! [`assert_stepping_invisible`].

use std::time::Duration;

use rio_core::{Core, NullClient, Options, Rio, RioRunResult, StepBudget, StepOutcome, StopReason};
use rio_sim::{CpuKind, Machine};
use rio_tests::{
    assert_stepping_invisible, infinite_program, loop_program, run, run_in_steps, DeletionLog,
};

// ----- Send audit ---------------------------------------------------------

#[test]
fn engine_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Core>();
    assert_send::<Machine>();
    assert_send::<Rio<NullClient>>();
    assert_send::<StepBudget>();
    assert_send::<StepOutcome>();
    assert_send::<RioRunResult>();
}

#[test]
fn session_can_move_between_threads() {
    let image = loop_program(500);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    // Suspend mid-run on this thread...
    let outcome = rio.step(StepBudget::instructions(100));
    assert!(matches!(outcome, StepOutcome::Running(_)));
    // ...finish on another.
    let result = std::thread::spawn(move || rio.run()).join().unwrap();
    let expected = run(&image, Options::full());
    assert_eq!(result.exit_code, expected.exit_code);
    assert_eq!(result.counters, expected.counters);
    assert_eq!(result.stats, expected.stats);
}

// ----- suspend/resume transparency ----------------------------------------

// ----- suspend/resume transparency ----------------------------------------

#[test]
fn stepping_is_invisible_to_execution() {
    let image = loop_program(400);
    for (_, options) in Options::table1() {
        for budget in [
            StepBudget::instructions(1),
            StepBudget::instructions(97),
            StepBudget::cycles(333),
        ] {
            assert_stepping_invisible("loop 400", &image, options, budget);
        }
    }
}

#[test]
fn run_after_steps_completes_the_session() {
    let image = loop_program(300);
    let expected = run(&image, Options::full());

    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    assert!(matches!(
        rio.step(StepBudget::instructions(50)),
        StepOutcome::Running(StopReason::InstructionBudget)
    ));
    assert_eq!(rio.exit_status(), None);
    let result = rio.run();
    assert_eq!(result.exit_code, expected.exit_code);
    assert_eq!(result.counters, expected.counters);
    assert_eq!(result.stats, expected.stats);
    assert_eq!(rio.exit_status(), Some(expected.exit_code));
}

#[test]
fn stepping_a_finished_session_is_idempotent() {
    let image = loop_program(50);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    let result = rio.run();
    let counters = rio.core.machine.counters;
    for _ in 0..3 {
        match rio.step(StepBudget::unlimited()) {
            StepOutcome::Exited(code) => assert_eq!(code, result.exit_code),
            other => panic!("expected Exited, got {other:?}"),
        }
    }
    assert_eq!(rio.core.machine.counters, counters, "no work after exit");
}

// ----- budget enforcement -------------------------------------------------

#[test]
fn instruction_budget_is_precise() {
    let image = loop_program(10_000);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    let outcome = rio.step(StepBudget::instructions(1_000));
    assert!(matches!(
        outcome,
        StepOutcome::Running(StopReason::InstructionBudget)
    ));
    assert_eq!(rio.core.machine.counters.instructions, 1_000);
}

#[test]
fn cycle_budget_suspends() {
    let image = loop_program(100_000);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    let outcome = rio.step(StepBudget::cycles(10_000));
    assert!(matches!(
        outcome,
        StepOutcome::Running(StopReason::CycleBudget)
    ));
    assert!(rio.core.machine.counters.cycles >= 10_000);
}

#[test]
fn timeout_interrupts_a_nonterminating_image() {
    let image = infinite_program();
    for opts in [Options::emulation(), Options::full()] {
        let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, NullClient);
        let outcome = rio.step(StepBudget::unlimited().with_timeout(Duration::from_millis(50)));
        assert!(
            matches!(outcome, StepOutcome::Running(StopReason::Timeout)),
            "expected timeout under {opts:?}, got {outcome:?}"
        );
    }
}

// ----- safe-point cache flush under the stepper ---------------------------

#[test]
fn emulation_mode_honors_instruction_budgets() {
    let (image, slices) = (loop_program(5_000), StepBudget::instructions(512));
    assert_stepping_invisible("loop 5000", &image, Options::emulation(), slices);
}

#[test]
fn flush_at_safe_point_mid_session() {
    let image = loop_program(2_000);
    let expected = run(&image, Options::full());

    let mut rio = Rio::new(
        &image,
        Options::full(),
        CpuKind::Pentium4,
        DeletionLog::default(),
    );
    // Run far enough that fragments exist, but suspend while the loop head
    // is still dispatch-counted — so the post-flush iterations must rebuild
    // it (and eventually re-grow the trace).
    assert!(matches!(
        rio.step(StepBudget::instructions(100)),
        StepOutcome::Running(_)
    ));
    let live_before: Vec<u32> = rio
        .core
        .cache()
        .iter()
        .filter(|f| !f.deleted)
        .map(|f| f.tag)
        .collect();
    assert!(!live_before.is_empty(), "no fragments built before flush");

    // Flush the whole cache at the suspension safe point, then resume.
    rio.core.request_cache_flush();
    let (r, _) = run_in_steps(&mut rio, StepBudget::instructions(500), None);

    // Correct result despite losing every fragment mid-run.
    assert_eq!(r.exit_code, expected.exit_code);
    // Every pre-flush fragment was reported deleted.
    for tag in &live_before {
        assert!(
            rio.client.0.contains(tag),
            "fragment {tag:#x} flushed without a fragment_deleted callback"
        );
    }
    assert!(rio.core.stats.cache_flushes >= 1);
    // Execution rebuilt the flushed loop block...
    assert!(rio.core.stats.bbs_built > expected.stats.bbs_built);
    assert!(rio.core.stats.dispatches > expected.stats.dispatches);
    // ...and the trace was grown entirely after the flush (the flush reset
    // the head counter before the threshold was ever reached).
    assert_eq!(rio.core.stats.traces_built, expected.stats.traces_built);
}

#[test]
fn eviction_under_capacity_pressure_while_stepping() {
    // Tiny cache limit: FIFO evictions happen during the run; stepping
    // must not change the outcome.
    let bounded = Options {
        cache_limit: Some(32),
        ..Options::full()
    };
    let slices = StepBudget::instructions(64);
    let expected = assert_stepping_invisible("loop 1000", &loop_program(1_000), bounded, slices);
    assert!(expected.stats.evictions > 0);
    assert_eq!(expected.stats.cache_flushes, 0);
}

#[test]
fn pressure_fired_while_suspended_mid_step_evicts_safely() {
    // Suspend the session mid-cache-execution (eip inside a fragment), then
    // impose an impossible cache limit at the suspension point. The next
    // dispatch must evict every fragment *except* one execution might still
    // be inside — deferring it to a later dispatch — and the run must
    // finish with the same result as an unbounded one.
    let image = loop_program(2_000);
    let expected = run(&image, Options::full());

    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    assert!(matches!(
        rio.step(StepBudget::instructions(150)),
        StepOutcome::Running(_)
    ));
    let live_before = rio.core.cache().iter().filter(|f| !f.deleted).count();
    assert!(live_before > 0, "no fragments built before the limit drop");
    rio.core.options.cache_limit = Some(0);
    let (r, _) = run_in_steps(&mut rio, StepBudget::instructions(500), None);
    assert_eq!(r.exit_code, expected.exit_code);
    assert!(rio.core.stats.evictions as usize >= live_before);
    assert_eq!(rio.core.stats.cache_flushes, 0);
    // Every dispatch rebuilt its block after the limit dropped to zero.
    assert!(rio.core.stats.bbs_built > expected.stats.bbs_built);
}
