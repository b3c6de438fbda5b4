//! Ablation: trace-head threshold sweep (DESIGN.md design choice 2).
//!
//! Dynamo's default threshold is 50. Too low wastes build time on lukewarm
//! code; too high delays the benefit of traces.
//!
//! The threshold × benchmark sweep is distributed over the worker pool
//! (`--jobs N` / `RIO_JOBS`); output is identical for every job count.

use rio_bench::{geomean, jobs, Sweep};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::CpuKind;
use rio_workloads::{suite_scaled, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let thresholds = [5u32, 15, 50, 150, 500, 5000];
    let sweep = Sweep::new(suite_scaled(3), kind, jobs());
    let norms = sweep.grid(&thresholds, |&trace_threshold, image| {
        let opts = Options {
            trace_threshold,
            ..Options::full()
        };
        Rio::new(image, opts, kind, ClientKind::Null.build()).run()
    });

    println!("Trace-threshold sweep: normalized execution time (geomean, full system)");
    println!("{:<10} {:>8} {:>8} {:>8}", "threshold", "int", "fp", "all");
    for (threshold, row) in thresholds.iter().zip(&norms) {
        let (int, fp) = (sweep.of(row, Category::Int), sweep.of(row, Category::Fp));
        let all: Vec<f64> = int.iter().chain(&fp).copied().collect();
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3}",
            threshold,
            geomean(&int),
            geomean(&fp),
            geomean(&all)
        );
    }
}
