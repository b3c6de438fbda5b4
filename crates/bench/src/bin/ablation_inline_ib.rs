//! Ablation: inlined indirect-branch target check on/off (DESIGN.md design
//! choice 4) — the §3 claim that "this check is much faster than the
//! hashtable lookup".
//!
//! Both sweeps run on the worker pool (`--jobs N` / `RIO_JOBS`); output is
//! identical for every job count.

use rio_bench::{geomean, jobs, Sweep};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::CpuKind;
use rio_workloads::{suite_scaled, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let sweep = Sweep::new(suite_scaled(3), kind, jobs());
    let inlines = [false, true];
    let norms = sweep.grid(&inlines, |&inline_ib_target, image| {
        let opts = Options {
            inline_ib_target,
            ..Options::full()
        };
        Rio::new(image, opts, kind, ClientKind::Null.build()).run()
    });

    println!("Inline IB target check: normalized execution time (geomean, full system)");
    println!("{:<10} {:>8} {:>8}", "inline", "int", "all");
    for (inline, row) in inlines.iter().zip(&norms) {
        let int = sweep.of(row, Category::Int);
        println!(
            "{:<10} {:>8.3} {:>8.3}",
            inline,
            geomean(&int),
            geomean(row)
        );
    }
}
