//! The simulated-cycle experiment reports: Table 1, Figure 5, the suite
//! characteristics table and the design-choice ablations. Each function
//! runs its experiment on `jobs` workers and returns the report text,
//! byte-identical for any job count (`rio golden` pins every one).

use std::fmt::{self, Write};

use rio_clients::{CTrace, ClientKind};
use rio_core::{NullClient, Options, Rio, Stats};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{benchmark, compiled_suite, suite, suite_scaled, Category};

use crate::{geomean, run_parallel, Sweep};

/// Every report runs on the Pentium 4 model.
const CPU: CpuKind = CpuKind::Pentium4;

/// The text `write` appends to an empty string.
fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    write(&mut out).expect("writing to a String cannot fail");
    out
}

/// Table 1: normalized execution time as interpreter features are added —
/// emulation, basic-block cache, direct-branch linking, indirect-branch
/// linking, traces — on the crafty-like and vpr-like workloads.
///
/// Paper bands: emulation ≈ 300×, + bb cache ≈ 26×, + direct links ≈
/// 5.1 / 3.0, + indirect links ≈ 2.0 / 1.2, + traces ≈ 1.7 / 1.1.
pub fn table1(jobs: usize) -> String {
    let rows = Options::table1();
    let benches = ["crafty", "vpr"].map(|name| benchmark(name).expect("benchmark exists"));
    let sweep = Sweep::new(benches.into(), CPU, jobs);
    let results = sweep.grid(&rows, |&(_, opts), image| {
        Rio::new(image, opts, CPU, NullClient).run()
    });
    render(|out| {
        writeln!(out, "Table 1: normalized execution time (vs native)")?;
        writeln!(out, "System Type                  crafty      vpr")?;
        for ((name, _), norms) in rows.iter().zip(&results) {
            writeln!(out, "{name:<26} {:>8.1} {:>8.1}", norms[0], norms[1])?;
        }
        Ok(())
    })
}

/// Figure 5: normalized program execution time (RIO time / native time)
/// across the SPEC2000-like suite, six bars per benchmark — base RIO, each
/// of the four sample optimizations independently, and all in combination.
///
/// Shape targets from the paper: RLR ≈ 40% win on mgrid-like FP kernels;
/// IB dispatch and custom traces win on indirect/call-heavy integer codes;
/// slowdowns on the low-reuse gcc/perlbmk-like runs; combined mean ≈
/// native (≈12% better than base RIO).
pub fn figure5(jobs: usize) -> String {
    let sweep = Sweep::new(suite(), CPU, jobs);
    // One grid row per client bar.
    let by_client = sweep.grid(&ClientKind::FIGURE5, |&client, image| {
        Rio::new(image, Options::full(), CPU, client.build()).run()
    });
    let widths = [8, 8, 8, 10, 8, 9];
    render(|out| {
        let title = "normalized execution time (RIO / native; smaller is better)";
        writeln!(out, "Figure 5: {title}")?;
        let header = "benchmark      base      rlr  inc2add ibdispatch  ctraces  combined";
        writeln!(out, "{header}")?;
        for (bi, (b, _)) in sweep.benches.iter().enumerate() {
            write!(out, "{:<10}", b.name)?;
            for (norms, width) in by_client.iter().zip(widths) {
                write!(out, " {:>width$.3}", norms[bi])?;
            }
            writeln!(out)?;
        }
        write!(out, "\n{:<10}", "geomean")?;
        for (xs, width) in by_client.iter().zip(widths) {
            write!(out, " {:>width$.3}", geomean(xs))?;
        }
        writeln!(out)?;
        let combined = &by_client[5];
        writeln!(
            out,
            "combined geomean: int {:.3}, fp {:.3}, overall {:.3} (base {:.3})",
            geomean(&sweep.of(combined, Category::Int)),
            geomean(&sweep.of(combined, Category::Fp)),
            geomean(combined),
            geomean(&by_client[0]),
        )
    })
}

/// Per-benchmark characteristics: instruction counts, CPI, and engine
/// statistics under the full system, plus a suite-wide aggregate. Useful
/// for checking that each benchmark has the character its SPEC analog
/// calls for.
pub fn suite_stats(jobs: usize) -> String {
    let benches = compiled_suite();
    let rows = run_parallel(&benches, jobs, |_, (_, image)| {
        let native = run_native(image, CPU);
        let r = Rio::new(image, Options::full(), CPU, NullClient).run();
        (native.counters, r)
    });
    render(|out| {
        let header = "benchmark      instrs     cpi   blocks   traces   links  iblkup     norm";
        writeln!(out, "{header}")?;
        for ((b, _), (native, r)) in benches.iter().zip(&rows) {
            writeln!(
                out,
                "{:<10} {:>10} {:>7.2} {:>8} {:>8} {:>7} {:>7} {:>8.3}",
                b.name,
                native.instructions,
                native.cycles as f64 / native.instructions as f64,
                r.stats.bbs_built,
                r.stats.traces_built,
                r.stats.links,
                r.stats.ib_lookups,
                r.counters.cycles as f64 / native.cycles as f64,
            )?;
        }
        let total = Stats::aggregate(rows.iter().map(|(_, r)| &r.stats));
        writeln!(out, "\nsuite aggregate: {total}")
    })
}

/// The design-choice ablations (DESIGN.md §6) over one sweep of the suite
/// at scale 3, so the native baselines run once for all three:
///
/// * the trace-head threshold (Dynamo's default is 50; too low wastes
///   build time on lukewarm code, too high delays the benefit of traces);
/// * the inlined indirect-branch target check on and off (§3: "this check
///   is much faster than the hashtable lookup");
/// * the custom-trace maximum size (§4.4: "A trace will be terminated if a
///   maximum size is reached, to prevent too much unrolling of loops
///   inside calls").
pub fn ablations(jobs: usize) -> String {
    let sweep = Sweep::new(suite_scaled(3), CPU, jobs);
    let thresholds = [5u32, 15, 50, 150, 500, 5000];
    let by_threshold = sweep.grid(&thresholds, |&trace_threshold, image| {
        let opts = Options {
            trace_threshold,
            ..Options::full()
        };
        Rio::new(image, opts, CPU, NullClient).run()
    });
    let inlines = [false, true];
    let by_inline = sweep.grid(&inlines, |&inline_ib_target, image| {
        let opts = Options {
            inline_ib_target,
            ..Options::full()
        };
        Rio::new(image, opts, CPU, NullClient).run()
    });
    let sizes = [2usize, 4, 8, 12, 24, 48];
    let by_size = sweep.grid(&sizes, |&max_trace_bbs, image| {
        let opts = Options {
            max_trace_bbs,
            ..Options::full()
        };
        Rio::new(image, opts, CPU, CTrace::with_max_bbs(max_trace_bbs)).run()
    });
    let int = |row: &[f64]| geomean(&sweep.of(row, Category::Int));
    render(|out| {
        let title = "normalized execution time (geomean, full system)";
        writeln!(out, "Trace-threshold sweep: {title}")?;
        writeln!(out, "threshold       int       fp      all")?;
        for (threshold, row) in thresholds.iter().zip(&by_threshold) {
            let (int, fp) = (sweep.of(row, Category::Int), sweep.of(row, Category::Fp));
            let all = geomean(&[int.as_slice(), &fp].concat());
            let (int, fp) = (geomean(&int), geomean(&fp));
            writeln!(out, "{threshold:<10} {int:>8.3} {fp:>8.3} {all:>8.3}")?;
        }
        writeln!(out, "Inline IB target check: {title}")?;
        writeln!(out, "inline          int      all")?;
        for (inline, row) in inlines.iter().zip(&by_inline) {
            writeln!(out, "{inline:<10} {:>8.3} {:>8.3}", int(row), geomean(row))?;
        }
        writeln!(
            out,
            "Custom-trace max-size sweep: normalized execution time (geomean)"
        )?;
        writeln!(out, "max_bbs       int      all")?;
        for (max_bbs, row) in sizes.iter().zip(&by_size) {
            writeln!(out, "{max_bbs:<8} {:>8.3} {:>8.3}", int(row), geomean(row))?;
        }
        Ok(())
    })
}
