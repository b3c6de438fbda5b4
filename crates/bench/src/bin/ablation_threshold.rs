//! Ablation: trace-head threshold sweep (DESIGN.md design choice 2).
//!
//! Dynamo's default threshold is 50. Too low wastes build time on lukewarm
//! code; too high delays the benefit of traces.
//!
//! The threshold × benchmark sweep is distributed over the worker pool
//! (`--jobs N` / `RIO_JOBS`); output is identical for every job count.

use rio_bench::{jobs, run_parallel};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{compiled, suite_scaled, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let njobs = jobs();
    let thresholds = [5u32, 15, 50, 150, 500, 5000];

    let benches: Vec<_> = suite_scaled(3)
        .into_iter()
        .map(|b| {
            let image = compiled(&b);
            (b, image)
        })
        .collect();
    let natives = run_parallel(&benches, njobs, |_, (_, image)| {
        run_native(image, kind).counters.cycles
    });

    let cells: Vec<(usize, usize)> = (0..thresholds.len())
        .flat_map(|t| (0..benches.len()).map(move |b| (t, b)))
        .collect();
    let norms = run_parallel(&cells, njobs, |_, &(t, bi)| {
        let mut opts = Options::full();
        opts.trace_threshold = thresholds[t];
        let r = Rio::new(&benches[bi].1, opts, kind, ClientKind::Null.build()).run();
        r.counters.cycles as f64 / natives[bi] as f64
    });

    println!("Trace-threshold sweep: normalized execution time (geomean, full system)");
    println!("{:<10} {:>8} {:>8} {:>8}", "threshold", "int", "fp", "all");
    for (t, threshold) in thresholds.iter().enumerate() {
        let mut int = Vec::new();
        let mut fp = Vec::new();
        for (bi, (b, _)) in benches.iter().enumerate() {
            let norm = norms[t * benches.len() + bi];
            match b.category {
                Category::Int => int.push(norm),
                Category::Fp => fp.push(norm),
            }
        }
        let g = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
        let all: Vec<f64> = int.iter().chain(fp.iter()).copied().collect();
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3}",
            threshold,
            g(&int),
            g(&fp),
            g(&all)
        );
    }
}
