//! Table 1 reproduction: normalized execution time as interpreter features
//! are added — emulation, basic-block cache, direct-branch linking,
//! indirect-branch linking, traces — on the crafty-like and vpr-like
//! workloads.
//!
//! Paper bands: emulation ≈ 300×, + bb cache ≈ 26×, + direct links ≈
//! 5.1 / 3.0, + indirect links ≈ 2.0 / 1.2, + traces ≈ 1.7 / 1.1.
//!
//! All ten configuration runs are distributed over the worker pool
//! (`--jobs N` / `RIO_JOBS`); output is identical for every job count.

use rio_bench::{jobs, Sweep};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::CpuKind;
use rio_workloads::benchmark;

fn main() {
    let kind = CpuKind::Pentium4;
    let rows: [(&str, Options); 5] = [
        ("Emulation", Options::emulation()),
        ("+ Basic block cache", Options::cache_only()),
        ("+ Link direct branches", Options::with_direct_links()),
        ("+ Link indirect branches", Options::with_indirect_links()),
        ("+ Traces", Options::full()),
    ];
    let benches = ["crafty", "vpr"].map(|name| benchmark(name).expect("benchmark exists"));
    let sweep = Sweep::new(benches.into(), kind, jobs());
    let results = sweep.grid(&rows, |&(_, opts), image| {
        Rio::new(image, opts, kind, ClientKind::Null.build()).run()
    });

    println!("Table 1: normalized execution time (vs native)");
    println!("{:<26} {:>8} {:>8}", "System Type", "crafty", "vpr");
    for ((name, _), norms) in rows.iter().zip(&results) {
        println!("{:<26} {:>8.1} {:>8.1}", name, norms[0], norms[1]);
    }
}
