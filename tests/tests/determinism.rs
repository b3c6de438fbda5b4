//! Determinism regression tests: the whole stack — simulator, engine,
//! stepper, parallel runner — must be bit-reproducible. Running the same
//! benchmark twice, running it in budget-sized steps, or distributing the
//! suite over any number of worker threads must yield identical
//! [`Counters`](rio_sim::perf::Counters) and [`Stats`](rio_core::Stats).

use rio_bench::run_parallel;
use rio_clients::ClientKind;
use rio_core::{NullClient, Options, Rio, StepBudget, StepOutcome};
use rio_sim::CpuKind;
use rio_workloads::{compiled, suite_scaled};

#[test]
fn repeated_runs_are_bit_identical() {
    for b in suite_scaled(2).iter().take(4) {
        let image = compiled(b);
        let first = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient).run();
        let second = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient).run();
        assert_eq!(first.exit_code, second.exit_code, "{}", b.name);
        assert_eq!(first.counters, second.counters, "{}", b.name);
        assert_eq!(first.stats, second.stats, "{}", b.name);
        assert_eq!(first.app_output, second.app_output, "{}", b.name);
    }
}

#[test]
fn stepped_runs_match_uninterrupted_runs() {
    for b in suite_scaled(2).iter().take(4) {
        let image = compiled(b);
        let uninterrupted = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient).run();

        let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
        let mut suspensions = 0u64;
        let stepped = loop {
            match rio.step(StepBudget::instructions(777)) {
                StepOutcome::Running(_) => suspensions += 1,
                StepOutcome::Exited(code) => break rio.result_snapshot(code),
                StepOutcome::Faulted(f) => panic!("{} faulted: {}", b.name, f.message),
            }
        };
        assert!(suspensions > 0, "{} never suspended", b.name);
        assert_eq!(stepped.exit_code, uninterrupted.exit_code, "{}", b.name);
        assert_eq!(stepped.counters, uninterrupted.counters, "{}", b.name);
        assert_eq!(stepped.stats, uninterrupted.stats, "{}", b.name);
        assert_eq!(stepped.app_output, uninterrupted.app_output, "{}", b.name);
    }
}

#[test]
fn parallel_runner_is_job_count_invariant() {
    let benches: Vec<_> = suite_scaled(2)
        .into_iter()
        .take(6)
        .map(|b| {
            let image = compiled(&b);
            (b, image)
        })
        .collect();
    let run = |jobs: usize| {
        run_parallel(&benches, jobs, |_, (_, image)| {
            let r = Rio::new(
                image,
                Options::full(),
                CpuKind::Pentium4,
                ClientKind::Combined.build(),
            )
            .run();
            (r.counters, r.exit_code, r.stats)
        })
    };
    let serial = run(1);
    for jobs in [2, 4] {
        assert_eq!(run(jobs), serial, "jobs={jobs} changed suite results");
    }
}

#[test]
fn bounded_cache_fifo_eviction_is_job_count_invariant() {
    // A tiny cache limit forces FIFO evictions throughout every benchmark;
    // the eviction order (and hence rebuild counts, counters, and stats)
    // must be identical however the suite is distributed over workers.
    let benches: Vec<_> = suite_scaled(2)
        .into_iter()
        .take(4)
        .map(|b| {
            let image = compiled(&b);
            (b, image)
        })
        .collect();
    let mut opts = Options::full();
    opts.cache_limit = Some(4096);
    let run = |jobs: usize| {
        run_parallel(&benches, jobs, |_, (_, image)| {
            let r = Rio::new(image, opts, CpuKind::Pentium4, ClientKind::Combined.build()).run();
            (r.counters, r.exit_code, r.stats)
        })
    };
    let serial = run(1);
    assert!(
        serial.iter().any(|(_, _, s)| s.evictions > 0),
        "limit never forced an eviction"
    );
    assert!(serial.iter().all(|(_, _, s)| s.cache_flushes == 0));
    for jobs in [2, 4] {
        assert_eq!(run(jobs), serial, "jobs={jobs} changed eviction behavior");
    }
}
