//! The differential fuzzing harness, end to end.
//!
//! * Generated programs pass the whole 12-point configuration matrix
//!   (native vs emulation/cache/traces/bounded/stepped/verified, each ×
//!   null/combined clients) — the same oracle `rio fuzz` runs — and the
//!   generator actually reaches the fault and SMC machinery.
//! * The shrinker demonstrably works: a known divergence (a fault injected
//!   into the engine run only, recovered by the program's own handler, so
//!   the printed fault count differs from native) is minimized to a
//!   strictly smaller program that still reproduces it.
//! * Every persisted corpus entry in `tests/corpus/` replays green.
//! * No configuration of the matrix ever executes a stale decode.

use std::path::Path;

use rio_clients::ClientKind;
use rio_core::{FaultKind, InjectionPlan, Options};
use rio_fuzz::scenario::{drive, Run};
use rio_fuzz::{
    check_image, load_dir, render, replay_entry, shrink_program, FuzzConfig, Program,
    DEFAULT_BASE_SEED, E, S,
};
use rio_sim::{run_native, CpuKind, Image};
use rio_workloads::compile;

/// Compile a generated program, panicking with its source on failure.
fn compile_generated(p: &Program) -> (String, Image) {
    let src = p.source();
    let image = compile(&src)
        .unwrap_or_else(|e| panic!("seed {:#x} failed to compile: {e}\n{src}", p.seed));
    (src, image)
}

#[test]
fn generated_programs_pass_the_configuration_matrix() {
    for case in 0..12u64 {
        let p = Program::generate(0x00C0_FFEE + case);
        let (src, image) = compile_generated(&p);
        let summary = check_image(&image, CpuKind::Pentium4)
            .unwrap_or_else(|m| panic!("seed {:#x} diverged: {m}\n{src}", p.seed));
        assert_eq!(summary.configs, 12, "matrix shrank");
    }
}

#[test]
fn random_programs_behave_identically_under_the_full_stack() {
    // Loops, branches, switches, calls, arrays, indirect calls, guarded and
    // unguarded division, self-modifying patches, and recursion, through
    // every point of the matrix (full and bounded-cache churn included).
    for case in 0..40u64 {
        let p = Program::generate(0xF022_0001 + case);
        let (src, image) = compile_generated(&p);
        check_image(&image, CpuKind::Pentium4)
            .unwrap_or_else(|m| panic!("case {case} diverged: {m}\n{src}"));
    }
}

#[test]
fn fault_and_smc_constructs_reach_the_engine() {
    // The generator must actually exercise the transparency machinery:
    // across a seed range, some programs take recoverable faults (the
    // `fcnt` line is printed by every program; nonzero means the
    // in-program handler ran) and some patch code at run time.
    let mut faulted = 0usize;
    let mut patched = 0usize;
    for case in 0..200u64 {
        if faulted > 0 && patched > 0 {
            break;
        }
        let p = Program::generate(0xF022_0001 + case);
        let (src, image) = compile_generated(&p);
        if src.contains("poke(pp") {
            patched += 1;
        }
        let native = run_native(&image, CpuKind::Pentium4);
        // Output ends with: chk, fcnt, facc (three final prints).
        let lines: Vec<&str> = native.output.lines().collect();
        let fcnt: i64 = lines[lines.len() - 2].parse().expect("fcnt line");
        if fcnt > 0 {
            faulted += 1;
        }
    }
    assert!(faulted > 0, "no generated program took a recoverable fault");
    assert!(patched > 0, "no generated program patched code");
}

/// Drive `programs` generated programs, from campaign seed `first` on,
/// through every configuration of the matrix with each decode-cache hit
/// checked against the live bytes; none may be stale.
fn assert_no_stale_decodes(first: u64, programs: u64) {
    for case in first..first + programs {
        let p = Program::generate(DEFAULT_BASE_SEED + case);
        let (_, image) = compile_generated(&p);
        for cfg in FuzzConfig::matrix() {
            let run = Run {
                verify_decodes: true,
                ..cfg.run()
            };
            let o = drive(&image, &run, CpuKind::Pentium4);
            assert_eq!(o.stale_decodes, 0, "seed {:#x} under {cfg}", p.seed);
        }
    }
}

// 300 programs in three tests, so they run side by side.
#[test]
fn generated_programs_execute_no_stale_decode_seeds_0_to_99() {
    assert_no_stale_decodes(0, 100);
}

#[test]
fn generated_programs_execute_no_stale_decode_seeds_100_to_199() {
    assert_no_stale_decodes(100, 100);
}

#[test]
fn generated_programs_execute_no_stale_decode_seeds_200_to_299() {
    assert_no_stale_decodes(200, 100);
}

/// Run under the full engine configuration with a one-shot divide fault
/// injected once the cumulative instruction count reaches `at`. The
/// generated preamble registers a handler, so the fault is recovered
/// in-program and the run completes — with a different `fcnt` line than
/// the (injection-free) native run.
fn run_with_injected_fault(image: &Image, at: u64) -> (i32, String) {
    let mut run = Run::new(Options::full(), ClientKind::Null);
    run.step = Some(200);
    run.inject = Some(InjectionPlan::AtInstruction {
        at,
        kind: FaultKind::DivideError,
    });
    let o = drive(image, &run, CpuKind::Pentium4);
    let escaped = o.faults.first().map(|f| &f.message);
    assert!(
        escaped.is_none(),
        "injected fault escaped the handler: {escaped:?}"
    );
    (o.result.exit_code, o.result.app_output)
}

#[test]
fn shrinker_minimizes_an_injected_divergence() {
    // Place the injection past the generated preamble/postamble, so only
    // programs that do real work in the body can reproduce the divergence
    // (an empty body never reaches the trigger).
    let empty = compile(&render(&[])).expect("empty program");
    let baseline = run_native(&empty, CpuKind::Pentium4).counters.instructions;
    let at = baseline + 50;

    let original = vec![
        S::Assign(0, E::K(7)),
        S::Loop(
            4,
            vec![S::Loop(4, vec![S::Bump(1, true), S::CallHelper(E::V(0))])],
        ),
        S::Print(E::Mask(Box::new(E::V(1)))),
        S::Store(E::K(3), E::K(9)),
    ];

    let mut still_fails = |stmts: &[S]| {
        let Ok(image) = compile(&render(stmts)) else {
            return false;
        };
        let native = run_native(&image, CpuKind::Pentium4);
        if native.counters.instructions < at {
            // The trigger sits inside the body's work; a program too short
            // to reach it natively does not count as the same finding.
            return false;
        }
        let (code, output) = run_with_injected_fault(&image, at);
        code != native.exit_code || output != native.output
    };

    assert!(
        still_fails(&original),
        "injected fault did not cause a divergence"
    );
    let minimized = shrink_program(&original, &mut still_fails);
    let size = |stmts: &[S]| stmts.iter().map(S::nodes).sum::<usize>();
    assert!(
        size(&minimized) < size(&original),
        "shrinker failed to reduce: {} -> {} nodes",
        size(&original),
        size(&minimized)
    );
    assert!(
        still_fails(&minimized),
        "minimized program no longer reproduces the divergence"
    );
    // The empty body can't reproduce, so something must survive.
    assert!(!minimized.is_empty(), "shrank past the failure");
}

#[test]
fn every_corpus_entry_replays_green() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_dir(&dir).expect("load corpus");
    assert!(
        !entries.is_empty(),
        "tests/corpus/ is empty — the seeded regression entries are missing"
    );
    for (path, entry) in &entries {
        let name = path.file_name().unwrap().to_string_lossy();
        let line = replay_entry(&name, entry, CpuKind::Pentium4)
            .unwrap_or_else(|e| panic!("corpus regression: {e}"));
        assert!(line.starts_with("ok "), "unexpected replay line: {line}");
    }
}
