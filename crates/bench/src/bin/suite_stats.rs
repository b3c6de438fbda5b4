//! Per-benchmark characteristics report: instruction counts, branch mix,
//! engine statistics under the full system. Useful for sanity-checking that
//! each benchmark has the character its SPEC analog calls for.
//!
//! Runs are distributed over the worker pool (`--jobs N` / `RIO_JOBS`);
//! the report is printed in suite order regardless of job count, and a
//! suite-wide aggregate row is derived with [`Stats::aggregate`].

use rio_bench::{jobs, run_parallel};
use rio_clients::ClientKind;
use rio_core::{Options, Rio, Stats};
use rio_sim::{run_native, CpuKind};
use rio_workloads::compiled_suite;

fn main() {
    let benches = compiled_suite();
    let rows = run_parallel(&benches, jobs(), |_, (_, image)| {
        let native = run_native(image, CpuKind::Pentium4);
        let r = Rio::new(
            image,
            Options::full(),
            CpuKind::Pentium4,
            ClientKind::Null.build(),
        )
        .run();
        (native.counters, r)
    });

    println!(
        "{:<10} {:>10} {:>7} {:>8} {:>8} {:>7} {:>7} {:>8}",
        "benchmark", "instrs", "cpi", "blocks", "traces", "links", "iblkup", "norm"
    );
    for ((b, _), (native, r)) in benches.iter().zip(&rows) {
        println!(
            "{:<10} {:>10} {:>7.2} {:>8} {:>8} {:>7} {:>7} {:>8.3}",
            b.name,
            native.instructions,
            native.cycles as f64 / native.instructions as f64,
            r.stats.bbs_built,
            r.stats.traces_built,
            r.stats.links,
            r.stats.ib_lookups,
            r.counters.cycles as f64 / native.cycles as f64,
        );
    }

    let total = Stats::aggregate(rows.iter().map(|(_, r)| &r.stats));
    println!();
    println!("suite aggregate: {total}");
}
