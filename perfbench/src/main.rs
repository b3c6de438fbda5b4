//! Host-throughput benchmark for the rio reproduction.
//!
//! Drives each crate's public API from outside the workspace, on one
//! thread, and times the calls:
//!
//! * `spec-int`, `spec-fp` — the suite programs of one category, each run
//!   natively, under the full engine with the null client, and under the
//!   full engine with the `combined` client;
//! * `fuzz` — generated programs, in the same three modes plus the
//!   12-configuration differential oracle.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-int --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every engine run is checked against its native run and every simulated
//! count against the first pass (and, for the suites at the default scale,
//! against a pinned digest); any failure exits nonzero. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced set of passes with `--trace 1`. `NOTES.md`
//! says what each metric is and which end-to-end metric it should move.

mod calib;
mod layers;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use rio_fuzz::{FuzzConfig, DEFAULT_BASE_SEED};
use rio_workloads::{suite, Category};

use workload::{Input, Passes, Sim, Source, Tally, Timed, Workload, GOLDEN};

/// Default suite scale (the Figure 5 scale).
const DEFAULT_SCALE: i32 = 10;
/// Default number of generated programs in the `fuzz` workload.
const DEFAULT_FUZZ_SEEDS: u64 = 256;

const USAGE: &str = "usage: perfbench --workload spec-int|spec-fp|fuzz [--seed N] [--seconds S] \
[--trace 0|1] [--scale N] [--fuzz-seeds N] [--fuzz-base N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: i32,
    fuzz_seeds: u64,
    fuzz_base: u64,
}

fn parse_args() -> Result<Args, String> {
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
    }
    let mut workload = None;
    let mut args = Args {
        workload: Workload::SpecInt,
        seed: 1,
        seconds: 30.0,
        trace: false,
        scale: DEFAULT_SCALE,
        fuzz_seeds: DEFAULT_FUZZ_SEEDS,
        fuzz_base: DEFAULT_BASE_SEED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--workload" => {
                workload = Some(Workload::parse(
                    &it.next().ok_or("--workload needs a value")?,
                )?)
            }
            "--seed" => args.seed = num(f, it.next())?,
            "--seconds" => args.seconds = num(f, it.next())?,
            "--trace" => args.trace = num::<u8>(f, it.next())? != 0,
            "--scale" => args.scale = num(f, it.next())?,
            "--fuzz-seeds" => args.fuzz_seeds = num(f, it.next())?,
            "--fuzz-base" => args.fuzz_base = num(f, it.next())?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.scale < 1 || args.fuzz_seeds < 1 || !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--scale, --fuzz-seeds and --seconds must be positive".into());
    }
    Ok(args)
}

impl Args {
    fn source(&self) -> Source {
        match self.workload {
            Workload::SpecInt => Source::Suite(Category::Int, self.scale),
            Workload::SpecFp => Source::Suite(Category::Fp, self.scale),
            Workload::Fuzz => Source::Fuzz {
                base: self.fuzz_base,
                count: self.fuzz_seeds,
            },
        }
    }

    /// Whether the inputs are the defaults, whose canary digest is pinned.
    fn default_inputs(&self) -> bool {
        self.scale == DEFAULT_SCALE
            && self.fuzz_seeds == DEFAULT_FUZZ_SEEDS
            && self.fuzz_base == DEFAULT_BASE_SEED
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory, read from `.git` without
/// running git; `unknown` outside a checkout.
fn revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
        }),
    };
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// The end-to-end metrics. Host times are multiplied by `scale` (see
/// `calib`) to put them at the reference host speed.
fn end_to_end(inputs: &[Input], passes: &Passes, setup_s: f64, scale: f64) -> Vec<Metric> {
    let (sims, t) = (&passes.sims, &passes.untraced);
    let guest: f64 = sims.iter().map(|s| s.native.instructions as f64).sum();
    let mips = |mode| ratio(guest, t.mode_s(mode) * scale) / 1e6;
    let overhead =
        |f: fn(&Sim) -> u64| geomean(sims.iter().map(|s| f(s) as f64 / s.native.cycles as f64));
    let wall_s = t.wall_s() * scale;
    vec![
        metric("guest_mips_native", mips(0), "MIPS"),
        metric("guest_mips_rio", mips(1), "MIPS"),
        metric("guest_mips_combined", mips(2), "MIPS"),
        metric("sim_overhead_rio", overhead(|s| s.rio.cycles), "x"),
        metric(
            "sim_overhead_combined",
            overhead(|s| s.combined.cycles),
            "x",
        ),
        metric("seeds_per_s", inputs.len() as f64 / wall_s, "1/s"),
        metric("wall_s", wall_s, "s"),
        metric("setup_s", setup_s * scale, "s"),
        metric("peak_rss_mb", passes.peak_rss_mb, "MiB"),
    ]
}

fn per_layer(
    inputs: &[Input],
    passes: &Passes,
    traced: &Timed,
    spans: &trace::Summary,
    evictions: u64,
) -> Vec<Metric> {
    let (sims, untraced) = (&passes.sims, &passes.untraced);
    let sum = |f: &dyn Fn(&Sim) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let guest = sum(&|s| s.native.instructions);
    let extra = |f: fn(&rio_sim::Counters) -> u64| sum(&|s| f(&s.rio)) - sum(&|s| f(&s.native));
    let rio_stat = |f: fn(&rio_core::Stats) -> u64| sum(&|s| f(&s.rio_stats));
    let combined_stat = |f: fn(&rio_core::Stats) -> u64| sum(&|s| f(&s.combined_stats));
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let mut m = vec![
        metric(
            "workloads.compile_us",
            us(spans.mean_ns("workloads.compile")),
            "us",
        ),
        metric("ia32.decode_l1_ns", spans.median_ns("ia32.decode_l1"), "ns"),
        metric("ia32.decode_l2_ns", spans.median_ns("ia32.decode_l2"), "ns"),
        metric("ia32.decode_l3_ns", spans.median_ns("ia32.decode_l3"), "ns"),
        metric("ia32.encode_ns", spans.median_ns("ia32.encode"), "ns"),
        metric(
            "ia32.fig2_decode_l3_ns",
            spans.median_ns("ia32.fig2_decode_l3"),
            "ns",
        ),
        metric(
            "ia32.fig2_decode_encode_l3_ns",
            spans.median_ns("ia32.fig2_decode_encode_l3"),
            "ns",
        ),
        metric(
            "sim.machine_new_us",
            us(spans.median_ns("sim.machine_new")),
            "us",
        ),
        metric(
            "sim.mem.read_u32_ns",
            spans.median_ns("sim.mem.read_u32"),
            "ns",
        ),
        metric(
            "sim.mem.write_u32_ns",
            spans.median_ns("sim.mem.write_u32"),
            "ns",
        ),
        metric(
            "sim.mem.fetch16_ns",
            spans.median_ns("sim.mem.fetch16"),
            "ns",
        ),
    ];
    for class in ["alu", "mem", "branch", "call_ret", "indirect"] {
        let ns = spans.median_ns(&format!("sim.step.{class}"));
        m.push(metric(format!("sim.step_ns.{class}"), ns, "ns"));
    }
    m.extend([
        metric(
            "sim.loads_per_instr",
            ratio(sum(&|s| s.native.loads), guest),
            "ratio",
        ),
        metric(
            "sim.stores_per_instr",
            ratio(sum(&|s| s.native.stores), guest),
            "ratio",
        ),
        metric(
            "sim.cond_mispredicts",
            extra(|c| c.cond_mispredicts),
            "count",
        ),
        metric("sim.ind_mispredicts", extra(|c| c.ind_mispredicts), "count"),
        metric("core.rio_new_us", us(spans.median_ns("core.rio_new")), "us"),
        metric("core.decode_bb_ns", spans.median_ns("core.decode_bb"), "ns"),
        metric(
            "core.decode_bb_full_ns",
            spans.median_ns("core.decode_bb_full"),
            "ns",
        ),
        metric(
            "core.mangle_emit_ns",
            spans.median_ns("core.mangle_emit"),
            "ns",
        ),
        metric(
            "core.decode_fragment_ns",
            spans.median_ns("core.decode_fragment"),
            "ns",
        ),
        metric(
            "core.verify_cache_us",
            us(spans.median_ns("core.verify_cache")),
            "us",
        ),
        metric(
            "core.host_excess_ms",
            (untraced.mode_s(1) - untraced.mode_s(0)) * 1e3,
            "ms",
        ),
        metric("core.ib_lookups", rio_stat(|s| s.ib_lookups), "count"),
        metric(
            "core.ib_hit_rate",
            ratio(rio_stat(|s| s.ib_lookup_hits), rio_stat(|s| s.ib_lookups)),
            "ratio",
        ),
        metric(
            "core.context_switches",
            rio_stat(|s| s.context_switches),
            "count",
        ),
        metric("core.dispatches", rio_stat(|s| s.dispatches), "count"),
        metric("core.bbs_built", rio_stat(|s| s.bbs_built), "count"),
        metric("core.traces_built", rio_stat(|s| s.traces_built), "count"),
        metric("core.links", rio_stat(|s| s.links), "count"),
        metric("core.evictions", evictions as f64, "count"),
        metric(
            "core.charged_overhead_share",
            ratio(sum(&|s| s.rio.charged_overhead), sum(&|s| s.rio.cycles)),
            "ratio",
        ),
        metric(
            "clients.host_delta_ms",
            (untraced.mode_s(2) - untraced.mode_s(1)) * 1e3,
            "ms",
        ),
        metric(
            "clients.replacements",
            combined_stat(|s| s.replacements),
            "count",
        ),
        metric(
            "clients.clean_calls",
            combined_stat(|s| s.clean_calls),
            "count",
        ),
        metric("fuzz.gen_us", us(spans.mean_ns("fuzz.gen")), "us"),
        metric("fuzz.native_ms", ms(spans.mean_ns("fuzz.native")), "ms"),
    ]);
    for cfg in FuzzConfig::matrix() {
        let label = workload::config_label(cfg);
        let ns = spans.mean_ns(&format!("fuzz.run_engine.{label}"));
        m.push(metric(format!("fuzz.run_engine_ms.{label}"), ms(ns), "ms"));
    }
    for b in suite() {
        let slowdown = inputs
            .iter()
            .position(|i| i.name == b.name)
            .map_or(0.0, |i| {
                ratio(untraced.medians[i][1], untraced.medians[i][0])
            });
        m.push(metric(
            format!("bench.{}.host_slowdown", b.name),
            slowdown,
            "x",
        ));
    }
    let overhead_s = traced.wall_s() - untraced.wall_s();
    m.push(metric("trace.overhead_ms", overhead_s * 1e3, "ms"));
    m.push(metric(
        "trace.overhead_share",
        ratio(overhead_s, untraced.wall_s()),
        "ratio",
    ));
    m
}

/// One JSON value: the number as measured (shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let fuzz = wl == Workload::Fuzz;
    let started = Instant::now();

    // Set-up: generate and compile the workload's programs. The passes time
    // it again; `setup_s` is the median of all of them.
    let inputs = workload::setup(args.source());
    let first_setup_s = started.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let passes = workload::timed_passes(
        &inputs,
        args.source(),
        args.seed,
        args.seconds,
        args.trace,
        &mut tally,
    );
    let setup_s = median(&[&[first_setup_s][..], &passes.setups].concat());
    let digest = workload::canary_digest(&inputs, &passes.sims);
    let pinned = GOLDEN.iter().find(|(name, _)| *name == wl.name());
    if let Some(&(_, want)) = pinned.filter(|_| args.default_inputs()) {
        tally.record(if digest == want {
            Ok(())
        } else {
            Err(format!(
                "{} simulated counts drifted from the pinned canary: \
                 digest {digest:#018x}, pinned {want:#018x}",
                wl.name()
            ))
        });
    }

    let untraced = &passes.untraced;
    let (probe_s, probes) = calib::median();
    let scale = calib::REFERENCE_S / probe_s;
    let metrics = if let Some(traced) = &passes.traced {
        trace::set(true);
        workload::setup(args.source());
        let evictions = layers::run(&inputs, fuzz);
        let spans = trace::finish();
        eprintln!(
            "{:<36} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "ns/work"
        );
        for (name, a) in &spans.by_name {
            eprintln!(
                "{name:<36} {:>8} {:>12.3} {:>12.3} {:>12.1}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                ratio(a.total_ns as f64, a.work as f64)
            );
        }
        per_layer(&inputs, &passes, traced, &spans, evictions)
    } else {
        end_to_end(&inputs, &passes, setup_s, scale)
    };
    let npasses = untraced.passes + passes.traced.as_ref().map_or(0, |t| t.passes);

    let correct = tally.failed == 0;
    for (name, value, unit) in &metrics {
        eprintln!("{name:<40} {value:>16.4} {unit}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"revision\": \"{}\", \"nproc\": {nproc}, \
         \"inputs\": {}, \"passes\": {npasses}, \"canary_digest\": \"{digest:#018x}\", \
         \"host_probes\": {probes}, \"host_probe_ms\": {}, \"host_scale\": {scale}, \
         \"raw_wall_s\": {}, \"raw_setup_s\": {setup_s}, \"elapsed_s\": {}}}",
        wl.name(),
        args.seed,
        revision(),
        inputs.len(),
        probe_s * 1e3,
        untraced.wall_s(),
        json_number(started.elapsed().as_secs_f64()),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
