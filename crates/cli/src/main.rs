//! `rio` — command-line front end for the RIO dynamic code modification
//! system.
//!
//! ```text
//! rio run <prog.dyna | bench:NAME> [options]        run a program under RIO
//! rio native <prog.dyna | bench:NAME> [--cpu p3|p4] run natively (baseline)
//! rio disasm <prog.dyna | bench:NAME>               disassemble the compiled image
//! rio fragments <prog.dyna | bench:NAME> [options]  run, then dump that run's code cache
//! rio suite [--client NAME] [--cpu p3|p4] [--jobs N] run the whole benchmark suite
//! rio faults [--cpu p3|p4] [--jobs N]               fault-injection robustness suite
//! rio smc [--cpu p3|p4] [--jobs N]                  self-modifying-code consistency suite
//! rio verify [--cpu p3|p4] [--jobs N]               run everything under the cache verifier
//! rio fuzz [--seeds N] [--seed-base HEX] [--cpu p3|p4] [--jobs N]
//!          [--corpus DIR] [--replay]                differential conformance fuzzing
//! rio bench-list                                    list the benchmark suite
//! rio golden [--check | --write] [--jobs N] [NAME...]
//!                                                   print, diff, or rewrite tests/golden/
//!
//! clients (--client of run, fragments, and suite; default null):
//!   null | rlr | inc2add | ibdispatch | ctrace | combined | shepherd |
//!   inscount | opstats, plus the Figure 5 legend names base (= null) and
//!   ctraces (= ctrace). verify runs the suite under null, combined, and
//!   shepherd.
//!
//! run / fragments options:
//!   --client NAME     see above
//!   --cpu p3|p4       processor model (default p4)
//!   --emulate         Table 1 row 1: pure emulation
//!   --no-links        at most row 2: no linking, no traces
//!   --no-ib-links     at most row 3: no indirect-branch lookup, no traces
//!   --no-traces       at most row 4: no trace building
//!   --threshold N     trace-head threshold (default 50)
//!   --cache-limit N   per-sub-cache capacity in bytes (FIFO eviction)
//!   --max-instructions N  stop after N application instructions (exit 124)
//!   --timeout-cycles N    stop after N simulated cycles (exit 124)
//!   --verify          re-verify affected fragments at every safe point
//!                     (never charged to the run)
//!   --stats           print engine statistics and the simulator's
//!                     decode-cache counts, in basic blocks: lookups served
//!                     from the cache (hits), lookups that decoded a new or
//!                     longer block (misses), and blocks dropped
//!                     (invalidated), then the steps that ran the generic
//!                     interpreter; host-only but deterministic
//!
//! Every flag is also accepted as --flag=value. --jobs N (or -j N) sets the
//! worker threads (default: the host's available parallelism). Suite,
//! scenario, fuzz, and golden output is byte-identical for any --jobs value.
//!
//! golden: each file NAME.txt in tests/golden/ is one report with its
//! options pinned; no NAME means all, up to N at once with --jobs N.
//! --check prints each report's first line that differs from its file,
//! --write rewrites the files; both exit 1 on a mismatch or failed report.
//!
//! fuzz options: --seeds N generated programs (default 64), starting at
//! --seed-base HEX (default 0x5eed0000); every program runs natively and
//! through the full engine-configuration matrix, any divergence is
//! minimized and saved into --corpus DIR (default tests/corpus).
//! --replay instead re-runs every saved corpus entry through the matrix.
//!
//! exit codes: the program's status, low 8 bits; 124 when a
//! --max-instructions / --timeout-cycles budget runs out. The simulated OS
//! sets the status the same way natively and in every engine mode: the
//! `exit` argument, or 0 once every thread has retired; 128 + fault kind
//! for an unhandled guest fault (129 divide error, 130 invalid opcode, 131
//! memory fault), reported in one line on stderr; 0x1000 + n for an
//! unknown system call n; 0x2000 for a stray trap (int3, or int n with
//! n != 0x80). An engine-level failure exits 128.
//! ```

#![forbid(unsafe_code)]

mod golden;

use std::fmt::Display;
use std::process::ExitCode;

use rio_bench::{run_parallel, Args};
use rio_clients::ClientKind;
use rio_core::{check_transparent, ExecMode, NullClient, Options, Rio, Stats};
use rio_core::{StepBudget, StepOutcome, StopReason};
use rio_fuzz::scenario::{self, check, Pass, Scenario};
use rio_fuzz::{run_campaign, CampaignOptions};
use rio_sim::{run_native, CpuKind, DecodeCacheStats, Image};
use rio_workloads::{benchmark, compile, compiled_suite, suite};

/// Exit code when a `--max-instructions` / `--timeout-cycles` budget runs
/// out before the program exits (matches the `timeout(1)` convention).
const EXIT_BUDGET_EXHAUSTED: u8 = 124;

/// Value flags and switches of `rio run` and `rio fragments`.
const RUN_VALUES: &[&str] = &[
    "--client",
    "--cpu",
    "--threshold",
    "--cache-limit",
    "--max-instructions",
    "--timeout-cycles",
];
const RUN_SWITCHES: &[&str] = &[
    "--emulate",
    "--no-links",
    "--no-ib-links",
    "--no-traces",
    "--verify",
    "--stats",
];

/// A report command's stdout text, and why the command fails if any of its
/// rows failed.
struct Report {
    text: String,
    error: Option<String>,
}

impl From<String> for Report {
    fn from(text: String) -> Report {
        Report { text, error: None }
    }
}

impl Report {
    /// Print the text; a failure becomes the command's error.
    fn print(self) -> Result<ExitCode, String> {
        print!("{}", self.text);
        self.error.map_or(Ok(ExitCode::SUCCESS), Err)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rio <run|native|disasm|fragments|suite|faults|smc|verify|fuzz|bench-list|golden> [args]  (see --help in source header)"
    );
    ExitCode::from(2)
}

/// Parse a subcommand that takes one program (`prog.dyna` or
/// `bench:NAME`) plus the given flags, and compile the program.
fn parse_program(
    args: &[String],
    values: &[&str],
    switches: &[&str],
) -> Result<(Args, Image), String> {
    let a = Args::parse(args, values, switches, 1)?;
    let spec = a
        .positional
        .first()
        .ok_or("missing program (a .dyna file or bench:NAME)")?;
    let source = if let Some(name) = spec.strip_prefix("bench:") {
        benchmark(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `rio bench-list`)"))?
            .source
    } else {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?
    };
    let image = compile(&source).map_err(|e| format!("compile error: {e}"))?;
    Ok((a, image))
}

/// Engine options from the run flags. Each row flag caps the Table 1 row
/// at its own, so the lowest row named wins.
fn run_options(a: &Args) -> Result<Options, String> {
    let mut o = Options::full();
    for (flag, cap) in [
        ("--emulate", ExecMode::Emulate),
        ("--no-links", ExecMode::BlockCache),
        ("--no-ib-links", ExecMode::DirectLinks),
        ("--no-traces", ExecMode::IndirectLinks),
    ] {
        if a.has(flag) {
            o.mode = o.mode.min(cap);
        }
    }
    if let Some(t) = a.parsed("--threshold")? {
        o.trace_threshold = t;
    }
    o.cache_limit = a.parsed("--cache-limit")?;
    o.verify = a.has("--verify");
    Ok(o)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (a, image) = parse_program(args, RUN_VALUES, RUN_SWITCHES)?;
    let cpu = a.cpu()?;
    let native = run_native(&image, cpu);
    let mut rio = Rio::new(&image, run_options(&a)?, cpu, a.client()?.build());
    // One step carrying the whole budget; with no budget flags it is
    // unlimited and runs to exit or fault, exactly like `Rio::run`.
    let budget = StepBudget {
        max_instructions: a.parsed("--max-instructions")?,
        max_cycles: a.parsed("--timeout-cycles")?,
    };
    let (r, exhausted) = match rio.step(budget) {
        StepOutcome::Exited(code) => (rio.result_snapshot(code), None),
        StepOutcome::Faulted(f) => {
            let mut r = rio.result_snapshot(f.exit_code());
            r.fault = Some(f);
            (r, None)
        }
        StepOutcome::Running(reason) => (
            rio.result_snapshot(i32::from(EXIT_BUDGET_EXHAUSTED)),
            Some(match reason {
                StopReason::InstructionBudget => "instruction budget",
                StopReason::CycleBudget => "cycle budget",
            }),
        ),
    };
    print!("{}", r.app_output);
    if let Some(f) = &r.fault {
        // One faithful line carrying both address spaces; the exit status
        // below follows the 128+kind convention documented in the header.
        eprintln!("rio: {}", f.message);
    }
    if let (None, Err(d)) = (exhausted, check_transparent(&native, &r)) {
        eprintln!("!! DIVERGENCE from native execution on {d}");
    }
    if !r.client_output.is_empty() {
        eprintln!("--- client output ---");
        eprint!("{}", r.client_output);
    }
    eprintln!(
        "--- {} instrs, {} cycles, {:.3}x native, {} evictions, {} code writes, {} checks ({} violations) ---",
        r.counters.instructions,
        r.counters.cycles,
        r.counters.cycles as f64 / native.counters.cycles as f64,
        r.stats.evictions,
        r.stats.code_writes,
        r.stats.checks_run,
        r.stats.violations
    );
    if a.has("--stats") {
        eprintln!("{}", r.stats);
        let d = rio.core.machine.decode_cache_stats();
        eprintln!("{}", decode_cache_line(d));
        eprintln!("generic interpreter: {} steps", d.generic);
    }
    if let Some(what) = exhausted {
        eprintln!(
            "rio: {what} exhausted after {} instructions / {} cycles; program did not finish",
            r.counters.instructions, r.counters.cycles
        );
        return Ok(ExitCode::from(EXIT_BUDGET_EXHAUSTED));
    }
    Ok(ExitCode::from((r.exit_code & 0xFF) as u8))
}

/// The simulator's decode-cache counts, in basic blocks, as `--stats`
/// prints them.
fn decode_cache_line(d: DecodeCacheStats) -> String {
    format!(
        "decode cache: {} hits, {} misses, {} instructions decoded, {} invalidated",
        d.hits, d.misses, d.decoded, d.invalidated
    )
}

/// `NAME: decode cache: ...` for every suite benchmark under the full
/// system and the null client: host-only work, but deterministic.
fn decode_cache_report(jobs: usize) -> Report {
    let lines = run_parallel(&compiled_suite(), jobs, |_, (b, image)| {
        let mut rio = Rio::new(image, Options::full(), CpuKind::Pentium4, NullClient);
        rio.run();
        let line = decode_cache_line(rio.core.machine.decode_cache_stats());
        format!("{}: {line}\n", b.name)
    });
    Report::from(lines.concat())
}

/// `rio fragments`: run once under the requested client, then dump that
/// run's code cache and disassemble the entry fragment.
fn cmd_fragments(args: &[String]) -> Result<ExitCode, String> {
    let (a, image) = parse_program(args, RUN_VALUES, RUN_SWITCHES)?;
    let mut rio = Rio::new(&image, run_options(&a)?, a.cpu()?, a.client()?.build());
    rio.run();
    print!("{}", rio.core.fragment_report());
    if let Some(disasm) = rio.core.disassemble_fragment(Image::CODE_BASE) {
        println!("--- entry fragment ---");
        print!("{disasm}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_native(args: &[String]) -> Result<ExitCode, String> {
    let (a, image) = parse_program(args, &["--cpu"], &[])?;
    let r = run_native(&image, a.cpu()?);
    print!("{}", r.output);
    eprintln!("--- {} ---", r.counters);
    Ok(ExitCode::from((r.exit_code & 0xFF) as u8))
}

fn cmd_disasm(args: &[String]) -> Result<ExitCode, String> {
    let (_, image) = parse_program(args, &[], &[])?;
    let lines = rio_ia32::disasm::disassemble(&image.code, Image::CODE_BASE)
        .map_err(|e| format!("disassembly failed: {e}"))?;
    for l in lines {
        println!("{:08x}  {:24}  {:<40} {}", l.pc, l.raw, l.text, l.eflags);
    }
    Ok(ExitCode::SUCCESS)
}

/// `rio suite`: run every benchmark in the suite under the engine on the
/// worker pool, validate each against native execution, and print the
/// normalized-time table plus aggregate statistics.
fn cmd_suite(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["--client", "--cpu", "--jobs"], &[], 0)?;
    suite_report(a.client()?, a.cpu()?, Options::full(), a.jobs()?).print()
}

/// The `rio suite` table: every benchmark under `client` and `opts`.
fn suite_report(client: ClientKind, cpu: CpuKind, opts: Options, jobs: usize) -> Report {
    let rows = run_parallel(&compiled_suite(), jobs, |_, (b, image)| {
        let native = run_native(image, cpu);
        let r = Rio::new(image, opts, cpu, client.build()).run();
        // A benchmark that faulted is recorded as a failed row (with the
        // faithful fault report) rather than aborting the whole table.
        let marker = match (&r.fault, check_transparent(&native, &r)) {
            (Some(f), _) => format!("  !! FAULTED: {}", f.message),
            (None, Err(d)) => format!("  !! DIVERGED on {}", d.axis),
            (None, Ok(())) => String::new(),
        };
        let (name, native, cycles) = (b.name, native.counters.cycles, r.counters.cycles);
        let norm = cycles as f64 / native as f64;
        let line = format!("{name:<10} {native:>12} {cycles:>12} {norm:>8.3}{marker}\n");
        (line, r.stats, !marker.is_empty())
    });
    let failed = rows.iter().filter(|(_, _, failed)| *failed).count();
    let total = Stats::aggregate(rows.iter().map(|(_, stats, _)| stats));
    let table: String = rows.iter().map(|(line, _, _)| line.as_str()).collect();
    let label = client.label();
    let header = "benchmark    native cyc      rio cyc     norm";
    let text = format!("suite under client `{label}`\n{header}\n{table}\naggregate: {total}\n");
    let error = (failed > 0)
        .then(|| format!("{failed} benchmark(s) faulted or diverged from native execution"));
    Report { text, error }
}

/// Check every scenario of `table` on `jobs` workers, in table order.
fn checked(table: Vec<Scenario>, cpu: CpuKind, jobs: usize) -> Vec<Result<Pass, String>> {
    run_parallel(&table, jobs, |_, s| check(s, cpu))
}

/// One line per row in item order, `Err` rows prefixed `FAIL`.
fn rows_text<T: Display>(rows: &[Result<T, String>]) -> String {
    let line = |row: &Result<T, String>| match row {
        Ok(line) => format!("{line}\n"),
        Err(line) => format!("FAIL {line}\n"),
    };
    rows.iter().map(line).collect()
}

/// A scenario suite's report: [`rows_text`], then a pass line unless a row
/// failed, which fails the report.
fn rows_report<T: Display>(rows: &[Result<T, String>], what: &str) -> Report {
    let failed = rows.iter().filter(|r| r.is_err()).count();
    let mut text = rows_text(rows);
    if failed == 0 {
        text += &format!("all {} {what} scenarios passed\n", rows.len());
    }
    let error = (failed > 0).then(|| format!("{failed} {what} scenario(s) failed"));
    Report { text, error }
}

/// `rio faults` / `rio smc` and `rio verify` (both tables and the suite
/// under verification): check every scenario on the worker pool and print
/// one line each.
fn cmd_scenarios(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["--cpu", "--jobs"], &[], 0)?;
    let (cpu, jobs) = (a.cpu()?, a.jobs()?);
    match cmd {
        "faults" => rows_report(&checked(scenario::faults(false), cpu, jobs), "fault"),
        "smc" => rows_report(&checked(scenario::smc(false), cpu, jobs), "smc"),
        _ => verify_report(cpu, jobs),
    }
    .print()
}

/// `rio verify`: the full verification gauntlet — every suite benchmark
/// under the null, combined, and shepherd clients with incremental
/// verification plus a final whole-cache sweep, then the fault and SMC
/// tables re-run under verification. Fails on any violation outside the
/// deliberate cache-corruption scenario, where verifier findings are
/// detection rather than defects.
fn verify_report(cpu: CpuKind, jobs: usize) -> Report {
    let rows = checked(scenario::verify(), cpu, jobs);
    let faults = checked(scenario::faults(true), cpu, jobs);
    let smc = checked(scenario::smc(true), cpu, jobs);
    let passed = || rows.iter().flatten().map(|p| p.stats);
    let summary = format!(
        "verify: {} checks ({} violations) across {} suite runs, plus {} fault and {} smc scenarios under verification\n",
        passed().map(|s| s.checks_run).sum::<u64>(),
        passed().map(|s| s.violations).sum::<u64>(),
        rows.len(),
        faults.len(),
        smc.len(),
    );
    let error = rows_report(&rows, "verify").error;
    let (faults, smc) = (rows_report(&faults, "fault"), rows_report(&smc, "smc"));
    Report {
        text: [rows_text(&rows), faults.text, smc.text, summary].join("\n"),
        error: error.or(faults.error).or(smc.error),
    }
}

/// `rio fuzz`: differential conformance fuzzing. Generates deterministic
/// programs from sequential seeds and checks that every engine
/// configuration (emulation, cache, traces, bounded cache, stepping,
/// verifier; each × null/combined clients) agrees with native execution
/// on output, exit code, and final app-visible state. Divergences are
/// delta-debugged to a minimal program and the simplest failing
/// configuration, then persisted into the corpus as regression tests.
/// With `--replay`, re-runs every corpus entry through the whole matrix
/// instead.
fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let values = ["--cpu", "--jobs", "--seeds", "--seed-base", "--corpus"];
    let a = Args::parse(args, &values, &["--replay"], 0)?;
    let (cpu, jobs) = (a.cpu()?, a.jobs()?);
    let corpus = std::path::PathBuf::from(a.value("--corpus").unwrap_or("tests/corpus"));
    if a.has("--replay") {
        let entries = rio_fuzz::load_dir(&corpus)?;
        if entries.is_empty() {
            println!("corpus {} is empty; nothing to replay", corpus.display());
            return Ok(ExitCode::SUCCESS);
        }
        let rows = run_parallel(&entries, jobs, |_, (path, entry)| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            rio_fuzz::replay_entry(&name, entry, cpu)
        });
        return rows_report(&rows, "corpus").print();
    }
    let base_seed = match a.value("--seed-base") {
        None => rio_fuzz::DEFAULT_BASE_SEED,
        Some(v) => u64::from_str_radix(v.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad seed base `{v}`: {e}"))?,
    };
    let opts = CampaignOptions {
        seeds: a.parsed("--seeds")?.unwrap_or(64),
        base_seed,
        cpu,
        jobs,
        corpus_dir: Some(corpus),
    };
    rows_report(&run_campaign(&opts), "fuzz").print()
}

fn cmd_bench_list() -> ExitCode {
    println!("{:<10} {:<4} character", "name", "cat");
    for b in suite() {
        println!(
            "{:<10} {:<4} {}",
            b.name,
            match b.category {
                rio_workloads::Category::Int => "int",
                rio_workloads::Category::Fp => "fp",
            },
            b.character
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "native" => cmd_native(rest),
        "fragments" => cmd_fragments(rest),
        "disasm" => cmd_disasm(rest),
        "suite" => cmd_suite(rest),
        "faults" | "smc" | "verify" => cmd_scenarios(cmd, rest),
        "fuzz" => cmd_fuzz(rest),
        "bench-list" => Ok(cmd_bench_list()),
        "golden" => golden::cmd_golden(rest),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rio: {e}");
            ExitCode::from(2)
        }
    }
}
