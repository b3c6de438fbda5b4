//! The correctness capstone: every benchmark in the suite, executed under
//! every client and every engine configuration, must produce *exactly* the
//! exit code and output of native execution, and under the engine the
//! simulator's decode cache must neither execute a stale decode nor keep
//! missing as the iteration count grows.

use rio_clients::ClientKind;
use rio_core::{NullClient, Options, Rio};
use rio_fuzz::scenario::{self, Exit, Expect, Faults, Run, Scenario};
use rio_sim::CpuKind;
use rio_workloads::{compile, suite_scaled, Benchmark};

/// Check one run of `b` against native execution: exit code, output,
/// final state digest, and no stale decode executed.
fn check_run(cpu: CpuKind, b: &Benchmark, run: Run) {
    let expect = Expect::new(Exit::Native, Faults::None, &[]);
    let s = Scenario::new(b.name, &b.source, run, expect);
    if let Err(e) = scenario::check(&s, cpu) {
        panic!("{e} under {:?} / {:?}", s.run.client, s.run.options);
    }
}

fn check_on(cpu: CpuKind, b: &Benchmark, options: Options, client: ClientKind) {
    check_run(cpu, b, Run::new(options, client));
}

fn check(b: &Benchmark, options: Options, client: ClientKind) {
    check_on(CpuKind::Pentium4, b, options, client);
}

#[test]
fn all_benchmarks_match_native_under_every_client() {
    for b in suite_scaled(1) {
        for client in ClientKind::FIGURE5 {
            check(&b, Options::full(), client);
        }
    }
}

#[test]
fn all_benchmarks_match_native_under_every_engine_configuration() {
    for b in suite_scaled(1) {
        // Every cache configuration; emulation is spot-checked below.
        for (_, options) in &Options::table1()[1..] {
            check(&b, *options, ClientKind::Null);
        }
    }
}

#[test]
fn emulation_matches_native_on_representative_benchmarks() {
    // Emulation is slow on the host too; spot-check the Table 1 pair.
    for b in suite_scaled(1) {
        if ["crafty", "vpr"].contains(&b.name) {
            check(&b, Options::emulation(), ClientKind::Null);
        }
    }
}

#[test]
fn trace_threshold_extremes_preserve_correctness() {
    for b in suite_scaled(1).into_iter().take(4) {
        for threshold in [1, 2, 1_000_000] {
            let mut opts = Options::full();
            opts.trace_threshold = threshold;
            check(&b, opts, ClientKind::Combined);
        }
    }
}

#[test]
fn tiny_trace_capacity_preserves_correctness() {
    for b in suite_scaled(1).into_iter().take(4) {
        let mut opts = Options::full();
        opts.max_trace_bbs = 2;
        check(&b, opts, ClientKind::Combined);
    }
}

#[test]
fn pentium3_model_preserves_correctness() {
    for b in suite_scaled(1).into_iter().take(6) {
        check_on(CpuKind::Pentium3, &b, Options::full(), ClientKind::Combined);
    }
}

#[test]
fn all_benchmarks_execute_no_stale_decode_under_the_engine() {
    // Every decode-cache hit is checked against the live bytes, with the
    // cache unbounded and under FIFO eviction.
    for b in suite_scaled(1) {
        for cache_limit in [None, Some(4096)] {
            let mut run = Run::new(Options::full(), ClientKind::Null);
            run.options.cache_limit = cache_limit;
            run.verify_decodes = true;
            check_run(CpuKind::Pentium4, &b, run);
        }
    }
}

#[test]
fn decode_misses_do_not_grow_with_the_iteration_count() {
    // Host-only but deterministic counts. Once the hot code is decoded, a
    // second pass over it must hit: doubling the iterations may add the
    // decodes of code built later (gcc rebuilds code as it runs) but must
    // not double the misses, as it does when two copies of the hot code
    // keep evicting each other.
    let misses = |scale| {
        suite_scaled(scale).into_iter().map(|b| {
            let image = compile(&b.source).unwrap();
            let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
            rio.run();
            (b.name, rio.core.machine.decode_cache_stats().misses)
        })
    };
    for ((name, one), (_, two)) in misses(1).zip(misses(2)) {
        assert!(
            two * 10 <= one * 16,
            "{name}: {two} decode misses at scale 2 against {one} at scale 1"
        );
    }
}
