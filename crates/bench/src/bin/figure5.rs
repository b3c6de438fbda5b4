//! Figure 5 reproduction: normalized program execution time (RIO time /
//! native time) across the SPEC2000-like suite, six bars per benchmark —
//! base RIO, each of the four sample optimizations independently, and all
//! in combination.
//!
//! Shape targets from the paper: RLR ≈ 40% win on mgrid-like FP kernels;
//! IB dispatch and custom traces win on indirect/call-heavy integer codes;
//! slowdowns on the low-reuse gcc/perlbmk-like runs; combined mean ≈
//! native (≈12% better than base RIO).
//!
//! The 19 × 6 = 114 engine runs are distributed over the worker pool
//! (`--jobs N` / `RIO_JOBS`); the table is byte-identical for any job
//! count because simulated cycles are host-independent and results are
//! collected in item order.

use rio_bench::{jobs, run_parallel};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{compiled_suite, Category};

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let kind = CpuKind::Pentium4;
    let njobs = jobs();
    let benches = compiled_suite();

    // Native baselines, one per benchmark.
    let natives = run_parallel(&benches, njobs, |_, (_, image)| run_native(image, kind));

    // One work item per (benchmark, client) bar.
    let bars: Vec<(usize, ClientKind)> = (0..benches.len())
        .flat_map(|b| ClientKind::FIGURE5.iter().map(move |&c| (b, c)))
        .collect();
    let norms = run_parallel(&bars, njobs, |_, &(bi, client)| {
        let (b, image) = &benches[bi];
        let native = &natives[bi];
        let r = Rio::new(image, Options::full(), kind, client.build()).run();
        assert_eq!(
            (r.exit_code, r.app_output.as_str()),
            (native.exit_code, native.output.as_str()),
            "{} under {:?} diverged from native execution",
            b.name,
            client
        );
        r.counters.cycles as f64 / native.counters.cycles as f64
    });

    println!("Figure 5: normalized execution time (RIO / native; smaller is better)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>10} {:>8} {:>9}",
        "benchmark", "base", "rlr", "inc2add", "ibdispatch", "ctraces", "combined"
    );

    let nclients = ClientKind::FIGURE5.len();
    let mut by_client: Vec<Vec<f64>> = vec![Vec::new(); nclients];
    let mut int_combined = Vec::new();
    let mut fp_combined = Vec::new();

    for (bi, (b, _)) in benches.iter().enumerate() {
        let mut row = format!("{:<10}", b.name);
        for (i, client) in ClientKind::FIGURE5.iter().enumerate() {
            let norm = norms[bi * nclients + i];
            by_client[i].push(norm);
            let width = [8, 8, 8, 10, 8, 9][i];
            row.push_str(&format!(" {:>width$.3}", norm, width = width));
            if *client == ClientKind::Combined {
                match b.category {
                    Category::Int => int_combined.push(norm),
                    Category::Fp => fp_combined.push(norm),
                }
            }
        }
        println!("{row}");
    }

    println!();
    let mut mean_row = format!("{:<10}", "geomean");
    for (i, xs) in by_client.iter().enumerate() {
        let width = [8, 8, 8, 10, 8, 9][i];
        mean_row.push_str(&format!(" {:>width$.3}", geomean(xs), width = width));
    }
    println!("{mean_row}");
    println!(
        "combined geomean: int {:.3}, fp {:.3}, overall {:.3} (base {:.3})",
        geomean(&int_combined),
        geomean(&fp_combined),
        geomean(&by_client[5]),
        geomean(&by_client[0]),
    );
}
