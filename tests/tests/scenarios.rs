//! The `rio faults` and `rio smc` scenario tables, end to end: every row
//! passes with verification off and on, and the tables keep exactly the
//! scenario names (in order) that the CLI reports and CI diffs.

use rio_fuzz::scenario::{check, faults, smc, Scenario};
use rio_sim::CpuKind;

/// The `rio faults` rows, in report order.
const FAULT_NAMES: &str = "
    inject-divide-error-cache inject-divide-error-emulate
    inject-invalid-opcode-cache inject-invalid-opcode-emulate
    inject-memory-fault-cache inject-memory-fault-emulate
    corrupt-cache-copies
    div-recover-cache div-recover-emulate wild-load-cache wild-load-emulate
    div-unhandled-cache div-unhandled-emulate wild-unhandled-cache wild-unhandled-emulate";

/// The `rio smc` rows, in report order.
const SMC_NAMES: &str = "
    self-write-emulate self-write-cache self-write-bounded
    patch-loop-emulate patch-loop-cache patch-loop-bounded
    write-then-icall-emulate write-then-icall-cache write-then-icall-bounded";

fn names(table: &[Scenario]) -> Vec<&str> {
    table.iter().map(|s| s.name.as_str()).collect()
}

#[test]
fn every_fault_and_smc_scenario_passes_with_and_without_verification() {
    for verify in [false, true] {
        let (f, m) = (faults(verify), smc(verify));
        assert_eq!(
            names(&f),
            FAULT_NAMES.split_whitespace().collect::<Vec<_>>()
        );
        assert_eq!(names(&m), SMC_NAMES.split_whitespace().collect::<Vec<_>>());
        assert_eq!((f.len(), m.len()), (15, 9));
        for s in f.iter().chain(&m) {
            assert_eq!(s.run.options.verify, verify, "{}", s.name);
            let pass = check(s, CpuKind::Pentium4).unwrap_or_else(|e| panic!("FAIL {e}"));
            assert!(pass.line.starts_with(&format!("ok {}: ", s.name)), "{pass}");
            // Verified rows carry the tally; plain rows never mention it.
            assert_eq!(pass.line.contains(" checks"), verify, "{pass}");
        }
    }
}
