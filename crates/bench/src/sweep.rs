//! The one shape every experiment binary has: a set of benchmarks whose
//! native baselines are run once, and a grid of engine runs — one row per
//! configuration, one column per benchmark — each reported as simulated
//! cycles over native cycles.

use std::fmt::Debug;
use std::sync::Arc;

use rio_core::RioRunResult;
use rio_sim::{run_native, CpuKind, Image, RunResult};
use rio_workloads::{compiled, Benchmark, Category};

use crate::run_parallel;

/// Benchmarks with their native baselines, ready for a grid of engine runs.
pub struct Sweep {
    /// The benchmarks (the grid's columns), in order.
    pub benches: Vec<(Benchmark, Arc<Image>)>,
    natives: Vec<RunResult>,
    jobs: usize,
}

impl Sweep {
    /// Compile every benchmark and run it natively on `cpu`, on `jobs`
    /// workers.
    pub fn new(benches: Vec<Benchmark>, cpu: CpuKind, jobs: usize) -> Sweep {
        let benches: Vec<_> = benches
            .into_iter()
            .map(|b| {
                let image = compiled(&b);
                (b, image)
            })
            .collect();
        let natives = run_parallel(&benches, jobs, |_, (_, image)| run_native(image, cpu));
        Sweep {
            benches,
            natives,
            jobs,
        }
    }

    /// Run `run(row, image)` for every (row, benchmark) cell on the worker
    /// pool and return, row by row, each cell's simulated cycles over the
    /// benchmark's native cycles.
    ///
    /// # Panics
    ///
    /// Panics if a cell's exit code or output differs from native
    /// execution.
    pub fn grid<R, F>(&self, rows: &[R], run: F) -> Vec<Vec<f64>>
    where
        R: Debug + Sync,
        F: Fn(&R, &Image) -> RioRunResult + Sync,
    {
        let n = self.benches.len();
        let cells: Vec<(usize, usize)> = (0..rows.len())
            .flat_map(|r| (0..n).map(move |b| (r, b)))
            .collect();
        let norms = run_parallel(&cells, self.jobs, |_, &(r, b)| {
            let ((bench, image), native) = (&self.benches[b], &self.natives[b]);
            let res = run(&rows[r], image);
            assert_eq!(
                (res.exit_code, res.app_output.as_str()),
                (native.exit_code, native.output.as_str()),
                "{} diverged from native execution under {:?}",
                bench.name,
                rows[r]
            );
            res.counters.cycles as f64 / native.counters.cycles as f64
        });
        norms.chunks(n.max(1)).map(<[f64]>::to_vec).collect()
    }

    /// The entries of a grid row that belong to `category`'s benchmarks.
    pub fn of(&self, row: &[f64], category: Category) -> Vec<f64> {
        let benches = self.benches.iter().map(|(b, _)| b.category);
        row.iter()
            .zip(benches)
            .filter(|&(_, c)| c == category)
            .map(|(&x, _)| x)
            .collect()
    }
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
