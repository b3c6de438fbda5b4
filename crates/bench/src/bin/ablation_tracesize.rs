//! Ablation: custom-trace maximum size sweep (DESIGN.md design choice 5).
//!
//! §4.4: "A trace will be terminated if a maximum size is reached, to
//! prevent too much unrolling of loops inside calls."
//!
//! The size × benchmark sweep runs on the worker pool (`--jobs N` /
//! `RIO_JOBS`); output is identical for every job count.

use rio_bench::{geomean, jobs, Sweep};
use rio_clients::CTrace;
use rio_core::{Options, Rio};
use rio_sim::CpuKind;
use rio_workloads::{suite_scaled, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let sizes = [2usize, 4, 8, 12, 24, 48];
    let sweep = Sweep::new(suite_scaled(3), kind, jobs());
    let norms = sweep.grid(&sizes, |&max_bbs, image| {
        let opts = Options {
            max_trace_bbs: max_bbs.max(2),
            ..Options::full()
        };
        Rio::new(image, opts, kind, CTrace::with_max_bbs(max_bbs)).run()
    });

    println!("Custom-trace max-size sweep: normalized execution time (geomean)");
    println!("{:<8} {:>8} {:>8}", "max_bbs", "int", "all");
    for (max_bbs, row) in sizes.iter().zip(&norms) {
        let int = sweep.of(row, Category::Int);
        println!(
            "{:<8} {:>8.3} {:>8.3}",
            max_bbs,
            geomean(&int),
            geomean(row)
        );
    }
}
