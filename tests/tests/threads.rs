//! Multi-threaded applications: thread-private code caches (paper §2),
//! per-thread hooks, and native/RIO equivalence under cooperative threads.

use rio_core::{NullClient, Options, Rio, StepBudget};
use rio_sim::{run_native, CpuKind};
use rio_tests::{assert_transparent, run_in_steps, HookLog};
use rio_workloads::compile;

/// Two workers and the main thread cooperatively appending to the output.
const THREADED_SRC: &str = "
    global done = 0;
    fn worker_a() {
        var i = 0;
        while (i < 5) { printc(65); yield(); i++; }
        done = done + 1;
        texit();
        return 0;
    }
    fn worker_b() {
        var i = 0;
        while (i < 5) { printc(66); yield(); i++; }
        done = done + 1;
        texit();
        return 0;
    }
    fn main() {
        var ta = spawn(&worker_a);
        var tb = spawn(&worker_b);
        var i = 0;
        while (i < 5) { printc(77); yield(); i++; }
        while (done < 2) { yield(); }
        print(ta * 10 + tb);
        return done;
    }
";

#[test]
fn threads_run_identically_native_and_under_rio() {
    let image = compile(THREADED_SRC).expect("compiles");
    let native = run_native(&image, CpuKind::Pentium4);
    assert_eq!(native.exit_code, 2);
    // Interleaving: main prints M, then A, then B, round robin.
    assert!(native.output.starts_with("MABMAB"), "{:?}", native.output);
    assert!(native.output.contains("12\n")); // spawn returned tids 1 and 2

    for (_, opts) in Options::table1() {
        let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, NullClient);
        let (r, _) = run_in_steps(&mut rio, StepBudget::instructions(1_000_000), Some(1));
        assert_eq!(r.stats.threads_spawned, 2, "{opts:?}");
    }
    // Interleaving, output and final state match in every configuration.
    assert_transparent(&image);
}

#[test]
fn caches_are_thread_private() {
    // Both workers execute the same shared helper: each thread's private
    // cache builds its own copy (the paper's measured trade-off: duplicate
    // shared code instead of synchronizing).
    let src = "
        global sum = 0;
        fn bump(x) { return x * 3 + 1; }
        fn worker() {
            var i = 0;
            while (i < 30) { sum = sum + bump(i); yield(); i++; }
            texit();
            return 0;
        }
        fn main() {
            spawn(&worker);
            spawn(&worker);
            var i = 0;
            while (i < 30) { sum = sum + bump(i); yield(); i++; }
            var spin = 0;
            while (spin < 200) { yield(); spin++; }
            print(sum);
            return sum % 251;
        }
    ";
    let image = compile(src).expect("compiles");
    assert_transparent(&image);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    rio.run();
    assert_eq!(rio.core.thread_count(), 3);
    // Each private cache holds fragments; `bump`'s blocks were built at
    // least once per thread that ran them.
    let per_thread: Vec<usize> = (0..3).map(|t| rio.core.thread_cache(t).len()).collect();
    assert!(per_thread.iter().all(|n| *n > 0), "{per_thread:?}");
    let total: usize = per_thread.iter().sum();
    let single_thread_blocks = {
        let mut solo = Rio::new(
            &compile(
                "fn bump(x) { return x * 3 + 1; }
                      fn main() { var i = 0; var s = 0;
                                  while (i < 30) { s = s + bump(i); i++; } return s % 251; }",
            )
            .unwrap(),
            Options::full(),
            CpuKind::Pentium4,
            NullClient,
        );
        solo.run();
        solo.core.cache().len()
    };
    assert!(
        total > single_thread_blocks,
        "shared code should be duplicated per thread: {total} vs {single_thread_blocks}"
    );
}

#[test]
fn thread_hooks_fire_per_thread() {
    let image = compile(THREADED_SRC).expect("compiles");
    for opts in [Options::emulation(), Options::full()] {
        let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, HookLog::default());
        let (r, _) = run_in_steps(&mut rio, StepBudget::instructions(1_000_000), Some(1));
        assert_eq!(r.exit_code, 2, "{opts:?}");
        assert_eq!(
            rio.client.thread_inits,
            [0, 1, 2],
            "main + two spawned threads"
        );
        // The workers retire first; main's hook fires at program exit.
        assert_eq!(rio.client.thread_exits, [1, 2, 0], "{opts:?}");
    }
}

#[test]
fn thread_exit_fires_once_for_a_retired_main_thread() {
    // main retires before its worker, which then ends the program.
    let src = "
        fn w() { printc(87); texit(); return 0; }
        fn main() { spawn(&w); printc(77); texit(); return 9; }
    ";
    let image = compile(src).expect("compiles");
    let native = run_native(&image, CpuKind::Pentium4);
    assert_eq!((native.exit_code, native.output.as_str()), (0, "MW"));
    for (_, opts) in Options::table1() {
        let mut rio = Rio::new(&image, opts, CpuKind::Pentium4, HookLog::default());
        run_in_steps(&mut rio, StepBudget::instructions(1_000_000), Some(1));
        assert_eq!(rio.client.thread_exits, [0, 1], "{opts:?}");
    }
    assert_transparent(&image);
}

#[test]
fn spawn_failure_after_thread_limit() {
    // Spawning more than the supported thread count returns id 0.
    let src = "
        fn w() { texit(); return 0; }
        fn main() {
            var fails = 0;
            var i = 0;
            while (i < 12) {
                if (spawn(&w) == 0) { fails++; }
                i++;
            }
            var spin = 0;
            while (spin < 40) { yield(); spin++; }
            return fails;
        }
    ";
    let image = compile(src).expect("compiles");
    // 12 spawns, 7 slots beyond main under RIO's 8-thread cache partition.
    assert_eq!(assert_transparent(&image).exit_code, 5);
}
