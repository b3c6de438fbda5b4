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

use rio_bench::{geomean, jobs, Sweep};
use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::CpuKind;
use rio_workloads::{suite, Category};

fn main() {
    let kind = CpuKind::Pentium4;
    let sweep = Sweep::new(suite(), kind, jobs());
    // One grid row per client bar.
    let by_client = sweep.grid(&ClientKind::FIGURE5, |&client, image| {
        Rio::new(image, Options::full(), kind, client.build()).run()
    });

    println!("Figure 5: normalized execution time (RIO / native; smaller is better)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>10} {:>8} {:>9}",
        "benchmark", "base", "rlr", "inc2add", "ibdispatch", "ctraces", "combined"
    );
    let widths = [8, 8, 8, 10, 8, 9];
    for (bi, (b, _)) in sweep.benches.iter().enumerate() {
        let mut row = format!("{:<10}", b.name);
        for (norms, width) in by_client.iter().zip(widths) {
            row.push_str(&format!(" {:>width$.3}", norms[bi], width = width));
        }
        println!("{row}");
    }

    println!();
    let mut mean_row = format!("{:<10}", "geomean");
    for (xs, width) in by_client.iter().zip(widths) {
        mean_row.push_str(&format!(" {:>width$.3}", geomean(xs), width = width));
    }
    println!("{mean_row}");
    let combined = &by_client[5];
    println!(
        "combined geomean: int {:.3}, fp {:.3}, overall {:.3} (base {:.3})",
        geomean(&sweep.of(combined, Category::Int)),
        geomean(&sweep.of(combined, Category::Fp)),
        geomean(combined),
        geomean(&by_client[0]),
    );
}
