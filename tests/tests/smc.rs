//! Cache-consistency tests: self-modifying code must be observationally
//! identical whether the application runs natively, under pure emulation,
//! or out of the code cache. Every guest store into application code must
//! surface as a code-write event, invalidate exactly the overlapping
//! fragments, and never let a stale copy execute — proven by the decode
//! verifier's stale-hit counter staying at zero. The workload × mode
//! equivalence matrix is the `rio smc` scenario table (pinned by the
//! `smc` and `verify` goldens); these tests pin exact counts and check that
//! stepping through the workloads is invisible.

use rio_clients::ClientKind;
use rio_core::{NullClient, Options, Rio, StepBudget};
use rio_fuzz::scenario::{drive, Run};
use rio_sim::CpuKind;
use rio_tests::{assert_stepping_invisible, DeletionLog};
use rio_workloads::{compile, smc};

#[test]
fn self_store_invalidated_fragment_makes_forward_progress() {
    // The `self_write` store overwrites the writer's *own* basic block, so
    // the engine invalidates the fragment it is currently executing. The
    // commit-then-exit semantics guarantee forward progress (no livelock):
    // the resume point is past the store, in a fresh rebuild.
    let image = compile(&smc::self_write()).unwrap();
    let mut rio = Rio::new(
        &image,
        Options::full(),
        CpuKind::Pentium4,
        DeletionLog::default(),
    );
    rio.core.machine.set_verify_decodes(true);
    let r = rio.run();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.app_output, format!("{}\n", smc::SELF_WRITE_SUM));
    assert_eq!(r.stats.code_writes, 1);
    assert_eq!(r.stats.invalidations, 1);
    assert_eq!(rio.core.machine.stale_decode_hits(), 0);
    assert!(
        !rio.client.0.is_empty(),
        "invalidation must fire fragment_deleted"
    );
}

#[test]
fn patched_function_returns_fresh_values_through_repeated_invalidation() {
    let image = compile(&smc::patch_loop()).unwrap();
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    rio.core.machine.set_verify_decodes(true);
    let r = rio.run();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.app_output, format!("{}\n", smc::PATCH_LOOP_SUM));
    // Two stores per iteration; only the first still overlaps a live
    // fragment (the second lands in the already-invalidated span).
    assert_eq!(r.stats.code_writes, 32);
    assert!(r.stats.invalidations >= 16, "{}", r.stats);
    assert_eq!(rio.core.machine.stale_decode_hits(), 0);
}

#[test]
fn stepped_smc_runs_match_uninterrupted_runs() {
    // Suspending mid-run (including between a code write and its rebuild)
    // must be invisible: counters, stats, and output bit-identical.
    for (name, src) in [
        ("patch_loop", smc::patch_loop()),
        ("write_then_icall", smc::write_then_icall()),
    ] {
        let image = compile(&src).unwrap();
        assert_stepping_invisible(name, &image, Options::full(), StepBudget::instructions(97));
    }
}

#[test]
fn tiny_cache_limit_output_is_byte_identical_to_unlimited() {
    // Differential: a bounded cache evicting FIFO on nearly every dispatch
    // must still produce byte-identical application output — capacity
    // management is pure policy, never semantics. SMC workloads make the
    // sharpest probe: an evicted-then-rebuilt fragment must pick up the
    // *current* application bytes.
    for (name, src) in [
        ("patch_loop", smc::patch_loop()),
        ("write_then_icall", smc::write_then_icall()),
    ] {
        let image = compile(&src).unwrap();
        let mut run = Run::new(Options::full(), ClientKind::Null);
        let unlimited = drive(&image, &run, CpuKind::Pentium4).result;
        run.options.cache_limit = Some(64);
        run.verify_decodes = true;
        let o = drive(&image, &run, CpuKind::Pentium4);
        let bounded = &o.result;
        assert_eq!(bounded.exit_code, unlimited.exit_code, "{name}");
        assert_eq!(bounded.app_output, unlimited.app_output, "{name}");
        assert!(bounded.stats.evictions > 0, "{name}: {}", bounded.stats);
        // Capacity pressure evicts per-fragment; whole-sub-cache flushes
        // only happen on explicit request.
        assert_eq!(bounded.stats.cache_flushes, 0, "{name}");
        assert_eq!(o.stale_decodes, 0, "{name}");
    }
}
