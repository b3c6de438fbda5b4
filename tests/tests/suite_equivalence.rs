//! The correctness capstone: every benchmark in the suite, executed under
//! every client and every engine configuration, must produce *exactly* the
//! exit code and output of native execution.

use rio_clients::ClientKind;
use rio_core::Options;
use rio_fuzz::scenario::{self, Exit, Expect, Faults, Run, Scenario};
use rio_sim::CpuKind;
use rio_tests::table1_rows;
use rio_workloads::{suite_scaled, Benchmark};

fn check_on(cpu: CpuKind, b: &Benchmark, options: Options, client: ClientKind) {
    let expect = Expect::new(Exit::Native, Faults::None, &[]);
    let s = Scenario::new(b.name, &b.source, Run::new(options, client), expect);
    if let Err(e) = scenario::check(&s, cpu) {
        panic!("{e} under {client:?} / {options:?}");
    }
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
        for options in &table1_rows()[1..] {
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
