//! Ablation: inlined indirect-branch target check on/off (DESIGN.md design
//! choice 4) — the §3 claim that "this check is much faster than the
//! hashtable lookup".
//!
//! Both sweeps run on the worker pool (`--jobs N` / `RIO_JOBS`); output is
//! identical for every job count.

use rio_bench::{jobs, run_parallel};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{compiled, suite_scaled, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let njobs = jobs();

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

    let cells: Vec<(bool, usize)> = [false, true]
        .iter()
        .flat_map(|&inline| (0..benches.len()).map(move |b| (inline, b)))
        .collect();
    let norms = run_parallel(&cells, njobs, |_, &(inline, bi)| {
        let mut opts = Options::full();
        opts.inline_ib_target = inline;
        let r = Rio::new(&benches[bi].1, opts, kind, ClientKind::Null.build()).run();
        r.counters.cycles as f64 / natives[bi] as f64
    });

    println!("Inline IB target check: normalized execution time (geomean, full system)");
    println!("{:<10} {:>8} {:>8}", "inline", "int", "all");
    for (row, inline) in [false, true].iter().enumerate() {
        let mut int = Vec::new();
        let mut all = Vec::new();
        for (bi, (b, _)) in benches.iter().enumerate() {
            let norm = norms[row * benches.len() + bi];
            if b.category == Category::Int {
                int.push(norm);
            }
            all.push(norm);
        }
        let g = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
        println!("{:<10} {:>8.3} {:>8.3}", inline, g(&int), g(&all));
    }
}
