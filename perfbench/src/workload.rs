//! Workload inputs, the timed passes over them, and the correctness and
//! determinism checks every run goes through.

use std::time::Instant;

use rio_clients::Combined;
use rio_core::{Client, NullClient, Options, Rio, Stats};
use rio_fuzz::oracle::compare;
use rio_fuzz::{check_image, run_engine, run_native_baseline, FuzzConfig, Program, Rng};
use rio_sim::{run_native, Counters, CpuKind, Image, RunResult};
use rio_workloads::{compile, suite_scaled, Category};

use crate::{calib, trace};

/// Processor model for every run.
pub const CPU: CpuKind = CpuKind::Pentium4;

/// Timed modes per input, in run order: native, full engine with the null
/// client, full engine with `combined`, and (fuzz only) the oracle matrix.
pub const MODES: usize = 4;

/// Fewest timed passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Set-ups timed after each pass.
const SETUPS_PER_PASS: usize = 2;

/// Which set of programs a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The SPECint-like suite programs.
    SpecInt,
    /// The SPECfp-like suite programs.
    SpecFp,
    /// Generated differential-fuzzing programs.
    Fuzz,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "spec-int" => Ok(Workload::SpecInt),
            "spec-fp" => Ok(Workload::SpecFp),
            "fuzz" => Ok(Workload::Fuzz),
            _ => Err(format!("unknown workload {s:?} (spec-int, spec-fp, fuzz)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecInt => "spec-int",
            Workload::SpecFp => "spec-fp",
            Workload::Fuzz => "fuzz",
        }
    }
}

/// What a workload is made from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Suite programs of one category at an iteration scale.
    Suite(Category, i32),
    /// `count` generated programs from seed `base` on.
    Fuzz { base: u64, count: u64 },
}

/// One compiled program.
pub struct Input {
    pub name: String,
    pub image: Image,
}

/// Generate (fuzz only) and compile the workload's programs.
pub fn setup(source: Source) -> Vec<Input> {
    let compiled = |name: String, src: &str| {
        let image = trace::span("workloads.compile", 1, || compile(src))
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        Input { name, image }
    };
    match source {
        Source::Suite(category, scale) => suite_scaled(scale)
            .into_iter()
            .filter(|b| b.category == category)
            .map(|b| compiled(b.name.to_string(), &b.source))
            .collect(),
        Source::Fuzz { base, count } => (base..base + count)
            .map(|seed| {
                let src = trace::span("fuzz.gen", 1, || Program::generate(seed).source());
                compiled(format!("seed {seed:#x}"), &src)
            })
            .collect(),
    }
}

/// The exact simulated outcome of one input in the three engine modes: the
/// determinism canary. Host-only changes must leave it bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sim {
    pub native: Counters,
    pub rio: Counters,
    pub rio_stats: Stats,
    pub combined: Counters,
    pub combined_stats: Stats,
}

/// Checked runs and failures, across every pass of a benchmark run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: FAIL {e}");
            }
        }
    }
}

/// One input's runs in one pass.
struct InputRun {
    sim: Sim,
    walls: [f64; MODES],
    checks: Vec<Result<(), String>>,
}

/// What an engine run exposes for comparison with the native run.
struct EngineRun {
    exit_code: i32,
    output: String,
    digest: u64,
    counters: Counters,
    stats: Stats,
}

/// Run and time `f`, then give the host-speed probe its turn.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    let s = t.elapsed().as_secs_f64();
    calib::tick();
    (r, s)
}

fn engine_run<C: Client>(image: &Image, client: C, span: &str) -> EngineRun {
    trace::span(span, 1, || {
        let mut rio = Rio::new(image, Options::full(), CPU, client);
        let r = rio.run();
        EngineRun {
            exit_code: r.exit_code,
            output: r.app_output,
            digest: rio.core.machine.app_state_digest(image),
            counters: r.counters,
            stats: r.stats,
        }
    })
}

/// An engine run must match the native run in output, exit code and
/// final application state.
fn agree(input: &str, mode: &str, native: &RunResult, run: &EngineRun) -> Result<(), String> {
    if run.output == native.output
        && run.exit_code == native.exit_code
        && run.digest == native.state_digest
    {
        return Ok(());
    }
    Err(format!(
        "{input} under {mode} diverged from native: exit {} vs {}, state {:016x} vs {:016x}, output equal: {}",
        run.exit_code,
        native.exit_code,
        run.digest,
        native.state_digest,
        run.output == native.output
    ))
}

/// The differential oracle over the 12-configuration matrix. Untraced it is
/// one `check_image` call; traced, the same calls `check_image` makes are
/// issued one by one so each configuration gets its own span.
fn oracle(input: &Input) -> Result<(), String> {
    let image = &input.image;
    let fail = |m: &dyn std::fmt::Display| format!("{} oracle: {m}", input.name);
    if !trace::enabled() {
        return check_image(image, CPU).map(drop).map_err(|m| fail(&m));
    }
    let native = trace::span("fuzz.native", 1, || run_native_baseline(image, CPU));
    for cfg in FuzzConfig::matrix() {
        let name = format!("fuzz.run_engine.{}", config_label(cfg));
        let out = trace::span(&name, 1, || run_engine(image, cfg, CPU));
        compare(cfg, &native, &out).map_err(|m| fail(&m))?;
    }
    Ok(())
}

/// `engine-client` label of an oracle configuration (metric names allow no `+`).
pub fn config_label(cfg: FuzzConfig) -> String {
    format!("{}-{}", cfg.engine.label(), cfg.client.label())
}

fn run_input(input: &Input, fuzz: bool) -> InputRun {
    let image = &input.image;
    let (native, native_s) = timed(|| trace::span("pass.native", 1, || run_native(image, CPU)));
    let (rio, rio_s) = timed(|| engine_run(image, NullClient, "pass.rio"));
    let (combined, combined_s) = timed(|| engine_run(image, Combined::new(), "pass.combined"));
    let mut checks = vec![
        agree(&input.name, "rio", &native, &rio),
        agree(&input.name, "combined", &native, &combined),
    ];
    let mut oracle_s = 0.0;
    if fuzz {
        let (verdict, s) = timed(|| trace::span("pass.oracle", 1, || oracle(input)));
        checks.push(verdict);
        oracle_s = s;
    }
    InputRun {
        sim: Sim {
            native: native.counters,
            rio: rio.counters,
            rio_stats: rio.stats,
            combined: combined.counters,
            combined_stats: combined.stats,
        },
        walls: [native_s, rio_s, combined_s, oracle_s],
        checks,
    }
}

/// Input order for one pass: a permutation drawn from the seed.
fn shuffled(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Run every input once on one worker (`run_parallel` at one job), check
/// each run, and return the runs in input order.
fn pass(inputs: &[Input], fuzz: bool, seed: u64, index: usize, tally: &mut Tally) -> Vec<InputRun> {
    let order = shuffled(inputs.len(), seed, index);
    let runs = rio_bench::run_parallel(&order, 1, |_, &i| run_input(&inputs[i], fuzz));
    let mut by_input: Vec<Option<InputRun>> = inputs.iter().map(|_| None).collect();
    for (&i, mut run) in order.iter().zip(runs) {
        for check in run.checks.drain(..) {
            tally.record(check);
        }
        by_input[i] = Some(run);
    }
    by_input
        .into_iter()
        .map(|r| r.expect("every input ran"))
        .collect()
}

/// Timed passes of one kind (traced or not) over the inputs.
pub struct Timed {
    pub passes: usize,
    /// Per input, the median wall time of each mode, in seconds.
    pub medians: Vec<[f64; MODES]>,
}

/// Everything the passes of a run measured.
pub struct Passes {
    /// Per input, the simulated outcome every pass repeated.
    pub sims: Vec<Sim>,
    pub untraced: Timed,
    /// Present when every second pass was traced.
    pub traced: Option<Timed>,
    /// Seconds each set-up after a pass took.
    pub setups: Vec<f64>,
    /// Peak resident set size after the set-up and the first pass, MiB.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Wall time of one pass: the sum of the per-input medians.
    pub fn wall_s(&self) -> f64 {
        self.medians.iter().flatten().sum()
    }

    /// Summed median wall time of one mode.
    pub fn mode_s(&self, mode: usize) -> f64 {
        self.medians.iter().map(|m| m[mode]).sum()
    }
}

/// Run passes until `budget` seconds are spent (at least [`MIN_PASSES`]
/// per kind), checking every run against native and every simulated count
/// against the first pass. With `traced`, every second pass records spans
/// and is timed apart from the untraced ones, so host drift hits both
/// kinds alike; the traced timings come back second. After each pass the
/// set-up from `source` is timed again, so set-up samples spread over the
/// run like the host-speed probes do.
pub fn timed_passes(
    inputs: &[Input],
    source: Source,
    seed: u64,
    budget: f64,
    traced: bool,
    tally: &mut Tally,
) -> Passes {
    let fuzz = matches!(source, Source::Fuzz { .. });
    let kinds = if traced { 2 } else { 1 };
    let start = Instant::now();
    // walls[kind][input] holds one entry per pass of that kind.
    let mut walls = vec![vec![Vec::<[f64; MODES]>::new(); inputs.len()]; kinds];
    let mut canary: Option<Vec<Sim>> = None;
    let mut setups = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut passes = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if passes >= MIN_PASSES * kinds && elapsed + elapsed / passes as f64 > budget {
            break;
        }
        let kind = passes % kinds;
        passes += 1;
        trace::set(kind == 1);
        let t = Instant::now();
        let runs = pass(inputs, fuzz, seed, passes, tally);
        trace::set(false);
        let label = ["untraced", "traced"][kind];
        let (probe, _) = calib::median();
        eprintln!(
            "perfbench: pass {passes} ({label}): {:.3} s, host probe {:.4} ms",
            t.elapsed().as_secs_f64(),
            probe * 1e3
        );
        if passes == 1 {
            // Before the re-timed set-ups below, whose allocations would
            // raise the high-water mark by a varying amount.
            peak_rss_mb = crate::peak_rss_mb();
        }
        let canary = canary.get_or_insert_with(|| runs.iter().map(|r| r.sim.clone()).collect());
        for (i, run) in runs.into_iter().enumerate() {
            tally.record(if run.sim == canary[i] {
                Ok(())
            } else {
                Err(format!(
                    "{}: simulated counts drifted between passes",
                    inputs[i].name
                ))
            });
            walls[kind][i].push(run.walls);
        }
        for _ in 0..SETUPS_PER_PASS {
            setups.push(timed(|| setup(source)).1);
        }
    }
    let mut timed = walls.into_iter().map(|w| Timed {
        passes: w[0].len(),
        medians: w
            .iter()
            .map(|runs| {
                std::array::from_fn(|m| {
                    crate::median(&runs.iter().map(|r| r[m]).collect::<Vec<_>>())
                })
            })
            .collect(),
    });
    Passes {
        sims: canary.expect("at least one pass ran"),
        untraced: timed.next().expect("untraced passes ran"),
        traced: timed.next(),
        setups,
        peak_rss_mb,
    }
}

/// Canary digests of the default inputs. A change to the cost model or to
/// the engine's decisions moves them; a host-only change must not.
pub const GOLDEN: [(&str, u64); 3] = [
    ("fuzz", 0xc5b3_b764_82cf_99ec),
    ("spec-int", 0x3d3a_8dec_08e5_aebb),
    ("spec-fp", 0x9d9d_e050_75a6_29e3),
];

/// FNV-1a digest of the pinned simulated counts of every input.
pub fn canary_digest(inputs: &[Input], sims: &[Sim]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (input, sim) in inputs.iter().zip(sims) {
        for b in input.name.bytes() {
            mix(u64::from(b));
        }
        for c in [&sim.native, &sim.rio, &sim.combined] {
            for v in [
                c.instructions,
                c.cycles,
                c.charged_overhead,
                c.taken_branches,
                c.cond_mispredicts,
                c.ind_mispredicts,
                c.loads,
                c.stores,
            ] {
                mix(v);
            }
        }
        for s in [&sim.rio_stats, &sim.combined_stats] {
            for v in [
                s.bbs_built,
                s.bb_instrs,
                s.traces_built,
                s.trace_instrs,
                s.dispatches,
                s.context_switches,
                s.ib_lookups,
                s.ib_lookup_hits,
                s.links,
                s.unlinks,
                s.replacements,
                s.deletions,
                s.clean_calls,
                s.trace_heads,
                s.evictions,
            ] {
                mix(v);
            }
        }
    }
    h
}
