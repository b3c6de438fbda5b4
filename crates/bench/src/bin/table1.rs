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

use rio_bench::{jobs, run_parallel};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{benchmark, compiled};

fn main() {
    let kind = CpuKind::Pentium4;
    let rows: [(&str, Options); 5] = [
        ("Emulation", Options::emulation()),
        ("+ Basic block cache", Options::cache_only()),
        ("+ Link direct branches", Options::with_direct_links()),
        ("+ Link indirect branches", Options::with_indirect_links()),
        ("+ Traces", Options::full()),
    ];

    let benches: Vec<_> = ["crafty", "vpr"]
        .iter()
        .map(|name| {
            let b = benchmark(name).expect("benchmark exists");
            let image = compiled(&b);
            let native = run_native(&image, kind);
            (b, image, native)
        })
        .collect();

    // One work item per (benchmark, configuration) cell.
    let cells: Vec<(usize, usize)> = (0..benches.len())
        .flat_map(|c| (0..rows.len()).map(move |r| (c, r)))
        .collect();
    let results = run_parallel(&cells, jobs(), |_, &(c, r)| {
        let (b, image, native) = &benches[c];
        let res = Rio::new(image, rows[r].1, kind, ClientKind::Null.build()).run();
        assert_eq!(
            (res.exit_code, res.app_output.as_str()),
            (native.exit_code, native.output.as_str()),
            "{} diverged under {:?}",
            b.name,
            rows[r].1
        );
        res.counters.cycles as f64 / native.counters.cycles as f64
    });

    println!("Table 1: normalized execution time (vs native)");
    println!("{:<26} {:>8} {:>8}", "System Type", "crafty", "vpr");
    for (i, (name, _)) in rows.iter().enumerate() {
        println!(
            "{:<26} {:>8.1} {:>8.1}",
            name,
            results[i],
            results[rows.len() + i]
        );
    }
}
