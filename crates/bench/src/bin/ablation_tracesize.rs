//! Ablation: custom-trace maximum size sweep (DESIGN.md design choice 5).
//!
//! §4.4: "A trace will be terminated if a maximum size is reached, to
//! prevent too much unrolling of loops inside calls."
//!
//! The size × benchmark sweep runs on the worker pool (`--jobs N` /
//! `RIO_JOBS`); output is identical for every job count.

use rio_bench::{jobs, run_parallel};
use rio_clients::CTrace;
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{compiled, suite_scaled, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let njobs = jobs();
    let sizes = [2usize, 4, 8, 12, 24, 48];

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

    let cells: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|s| (0..benches.len()).map(move |b| (s, b)))
        .collect();
    let norms = run_parallel(&cells, njobs, |_, &(s, bi)| {
        let max_bbs = sizes[s];
        let mut opts = Options::full();
        opts.max_trace_bbs = max_bbs.max(2);
        let mut rio = Rio::new(&benches[bi].1, opts, kind, CTrace::with_max_bbs(max_bbs));
        let r = rio.run();
        r.counters.cycles as f64 / natives[bi] as f64
    });

    println!("Custom-trace max-size sweep: normalized execution time (geomean)");
    println!("{:<8} {:>8} {:>8}", "max_bbs", "int", "all");
    for (s, max_bbs) in sizes.iter().enumerate() {
        let mut int = Vec::new();
        let mut all = Vec::new();
        for (bi, (b, _)) in benches.iter().enumerate() {
            let norm = norms[s * benches.len() + bi];
            if b.category == Category::Int {
                int.push(norm);
            }
            all.push(norm);
        }
        let g = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
        println!("{:<8} {:>8.3} {:>8.3}", max_bbs, g(&int), g(&all));
    }
}
