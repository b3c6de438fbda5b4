//! Faulting workloads for the fault-transparency harness.
//!
//! Each program exercises a guest fault path: a divide error raised inside
//! a hot loop (so the faulting instruction sits in a trace once the engine
//! warms up), a wild load into a guarded region, and unhandled variants of
//! both. The handled variants register a Dyna fault handler (`sethandler`)
//! whose output folds in both the fault kind and the faulting application
//! pc — so native, emulation, and cache runs print byte-identical output
//! only if fault translation reports the identical `(kind, pc)` in every
//! mode.

use rio_sim::ExecRegion;

/// Base of the guarded region the wild-load workloads poke.
pub const GUARD_BASE: u32 = 0x2000_0000;

/// Length of the guarded region.
pub const GUARD_LEN: u32 = 0x1000;

/// The guard region to install (via `Machine::set_guard_region` or
/// `run_native_guarded`) so the wild-load workloads actually fault.
pub fn guard_region() -> ExecRegion {
    ExecRegion::new(GUARD_BASE, GUARD_BASE + GUARD_LEN)
}

/// Divide-by-zero inside a hot loop, recovered by a handler. The loop runs
/// long enough for the engine to build a trace before the divisor goes to
/// zero, so the fault is raised from mangled trace code; the handler
/// checksum folds in the faulting pc, making mistranslation visible in the
/// output. Exits 0.
pub fn div_recover() -> String {
    "global faults = 0;
     global checksum = 0;

     fn handler(kind, pc) {
         faults = faults + 1;
         checksum = checksum + kind * 7 + pc % 251;
         return 0;
     }

     fn main() {
         sethandler(&handler);
         var i = 1;
         var d = 3;
         var s = 0;
         while (i <= 120) {
             if (i == 100) { d = 0; }
             s = s + (i * 5 + 3) / d;
             i++;
         }
         print(s);
         print(faults);
         print(checksum);
         return 0;
     }"
    .to_string()
}

/// Number of faults [`div_recover`] raises (iterations 100..=120).
pub const DIV_RECOVER_FAULTS: i32 = 21;

/// A load from the guarded region, recovered by a handler. The skipped
/// `mov %eax,(%eax)` leaves the address in `%eax`, so the printed value is
/// the guarded address itself — identical in every execution mode. Exits 0.
pub fn wild_load() -> String {
    format!(
        "global seen = 0;

         fn handler(kind, pc) {{
             seen = seen + kind * 1000 + pc % 251;
             return 0;
         }}

         fn main() {{
             sethandler(&handler);
             var x = peek({GUARD_BASE});
             print(x);
             print(seen);
             return 0;
         }}"
    )
}

/// Divide-by-zero with no handler registered: the run ends with an
/// unhandled divide error (exit 129 under the 128+kind convention).
pub fn div_unhandled() -> String {
    "fn main() {
         var a = 10;
         var b = 0;
         return a / b;
     }"
    .to_string()
}

/// Wild load with no handler registered: an unhandled memory fault
/// (exit 131) when the guard regions are installed.
pub fn wild_unhandled() -> String {
    format!(
        "fn main() {{
             return peek({GUARD_BASE});
         }}"
    )
}
