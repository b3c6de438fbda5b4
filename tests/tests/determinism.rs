//! Determinism regression tests: the whole stack — simulator, engine,
//! stepper, parallel runner — must be bit-reproducible. Running the same
//! benchmark twice, running it in budget-sized steps, or distributing the
//! suite over any number of worker threads must yield identical
//! [`Counters`](rio_sim::perf::Counters) and [`Stats`](rio_core::Stats).

use std::sync::Arc;

use rio_bench::run_parallel;
use rio_clients::ClientKind;
use rio_core::{Options, Rio, Stats, StepBudget};
use rio_sim::perf::Counters;
use rio_sim::{CpuKind, Image};
use rio_tests::{assert_stepping_invisible, run};
use rio_workloads::{compiled, suite_scaled};

#[test]
fn repeated_runs_are_bit_identical() {
    for b in suite_scaled(2).iter().take(4) {
        let image = compiled(b);
        let first = run(&image, Options::full());
        let second = run(&image, Options::full());
        assert_eq!(first.exit_code, second.exit_code, "{}", b.name);
        assert_eq!(first.counters, second.counters, "{}", b.name);
        assert_eq!(first.stats, second.stats, "{}", b.name);
        assert_eq!(first.app_output, second.app_output, "{}", b.name);
    }
}

/// Suspending a suite benchmark between budget-sized slices is invisible.
/// The hand-assembled and self-modifying programs get the same check in
/// `session.rs` and `smc.rs`.
#[test]
fn stepped_runs_match_uninterrupted_runs() {
    for b in suite_scaled(2).iter().take(4) {
        let slices = StepBudget::instructions(777);
        assert_stepping_invisible(b.name, &compiled(b), Options::full(), slices);
    }
}

/// Run every `(image, options)` pair under the combined client serially
/// and with 2 and 4 workers, assert that the job count changes nothing,
/// and return the serial results.
fn assert_job_count_invariant(runs: &[(Arc<Image>, Options)]) -> Vec<(Counters, i32, Stats)> {
    let run_all = |jobs: usize| {
        run_parallel(runs, jobs, |_, (image, options)| {
            let client = ClientKind::Combined.build();
            let r = Rio::new(image, *options, CpuKind::Pentium4, client).run();
            (r.counters, r.exit_code, r.stats)
        })
    };
    // The serial reference and both parallel runs go side by side, so the
    // host's cores stay busy while the serial run works through the list.
    let [serial, two, four] = run_parallel(&[1, 2, 4], 3, |_, &jobs| run_all(jobs))
        .try_into()
        .unwrap();
    assert_eq!(two, serial, "jobs=2 changed suite results");
    assert_eq!(four, serial, "jobs=4 changed suite results");
    serial
}

#[test]
fn parallel_runner_is_job_count_invariant() {
    let runs: Vec<_> = suite_scaled(2)
        .iter()
        .take(6)
        .map(|b| (compiled(b), Options::full()))
        .collect();
    assert_job_count_invariant(&runs);
}

#[test]
fn bounded_cache_fifo_eviction_is_job_count_invariant() {
    // A tiny cache limit forces FIFO evictions throughout every benchmark;
    // the eviction order (and hence rebuild counts, counters, and stats)
    // must be identical however the suite is distributed over workers.
    let bounded = Options {
        cache_limit: Some(4096),
        ..Options::full()
    };
    let runs: Vec<_> = suite_scaled(2)
        .iter()
        .take(4)
        .map(|b| (compiled(b), bounded))
        .collect();
    let serial = assert_job_count_invariant(&runs);
    assert!(
        serial.iter().any(|(_, _, s)| s.evictions > 0),
        "limit never forced an eviction"
    );
    assert!(serial.iter().all(|(_, _, s)| s.cache_flushes == 0));
}
