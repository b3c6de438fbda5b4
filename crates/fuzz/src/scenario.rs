//! Declarative scenarios: one driver, one checker, and the data tables
//! behind `rio faults`, `rio smc`, and `rio verify`.
//!
//! A [`Scenario`] is a program, a [`Run`] (options, client, step slicing,
//! fault injection, guard regions, verification), and an [`Expect`] (exit,
//! terminal faults, `Stats` fields, verifier violations). [`drive`]
//! executes a run — the fuzz oracle's configuration points included — and
//! [`check`] compares a scenario against native execution and renders its
//! deterministic report line. A new robustness probe is a table row, not a
//! new driver.

use std::fmt;

use rio_clients::ClientKind;
use rio_core::{check_transparent, ExecMode, Stats, StepBudget, StepOutcome};
use rio_core::{Fault, FaultInjector, FaultKind, InjectionPlan, Options, Rio, RioRunResult};
use rio_sim::{run_native_guarded, CpuKind, ExecRegion, Image};
use rio_workloads::{compile, faulting, smc, suite};

/// How to execute one engine run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Engine options.
    pub options: Options,
    /// Coupled client.
    pub client: ClientKind,
    /// Instructions per [`Rio::step`] slice; `None` steps unlimited, which
    /// is exactly [`Rio::run`].
    pub step: Option<u64>,
    /// A fault to inject, polled before every slice.
    pub inject: Option<InjectionPlan>,
    /// Guard region, installed natively and under the engine.
    pub guard: Option<ExecRegion>,
    /// Check every decode-cache hit against the live bytes.
    pub verify_decodes: bool,
    /// End with a whole-cache `verify_cache` sweep.
    pub sweep: bool,
    /// Stop after this many terminal faults (a session stays resumable
    /// after one, so a faulting program would re-report forever).
    pub max_faults: usize,
}

impl Run {
    /// An unsliced run without extras that stops at the first fault.
    pub fn new(options: Options, client: ClientKind) -> Run {
        Run {
            options,
            client,
            step: None,
            inject: None,
            guard: None,
            verify_decodes: false,
            sweep: false,
            max_faults: 1,
        }
    }
}

/// Everything a run exposes.
#[derive(Clone, Debug)]
pub struct Observed {
    /// The result; `stats` include the final sweep, and a run that stopped
    /// on a terminal fault carries it with exit `128 + kind`.
    pub result: RioRunResult,
    /// Every terminal fault, in order.
    pub faults: Vec<Fault>,
    /// Stale decodes executed (counted under `verify_decodes`).
    pub stale_decodes: u64,
    /// The first few verifier findings.
    pub findings: Vec<String>,
}

/// Execute `run` over `image`.
pub fn drive(image: &Image, run: &Run, cpu: CpuKind) -> Observed {
    let mut rio = Rio::new(image, run.options, cpu, run.client.build());
    rio.core.machine.set_guard_region(run.guard);
    if run.verify_decodes {
        rio.core.machine.set_verify_decodes(true);
    }
    let mut injector = run.inject.map(FaultInjector::new);
    let budget = run
        .step
        .map_or_else(StepBudget::unlimited, StepBudget::instructions);
    let mut faults: Vec<Fault> = Vec::new();
    let mut result = loop {
        if let Some(inj) = injector.as_mut() {
            inj.poll(&mut rio);
        }
        match rio.step(budget) {
            StepOutcome::Running(_) => {}
            StepOutcome::Exited(code) => break rio.result_snapshot(code),
            StepOutcome::Faulted(f) => {
                faults.push(f.clone());
                if faults.len() >= run.max_faults {
                    let mut r = rio.result_snapshot(f.exit_code());
                    r.fault = Some(f);
                    break r;
                }
            }
        }
    };
    let mut findings: Vec<String> = rio
        .core
        .verify_findings()
        .iter()
        .map(|v| v.to_string())
        .collect();
    if run.sweep {
        findings.extend(rio.core.verify_cache().iter().map(|v| v.to_string()));
    }
    result.stats = rio.core.stats;
    findings.truncate(5);
    Observed {
        result,
        faults,
        stale_decodes: rio.core.machine.stale_decode_hits(),
        findings,
    }
}

/// The expected exit status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Whatever native execution exits with.
    Native,
    /// This code, natively and under the engine.
    Code(i32),
}

/// The expected terminal faults: each an unhandled guest fault of the
/// named kind, reported with its translated application pc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faults {
    /// None.
    None,
    /// Exactly one.
    One(FaultKind),
    /// At least one.
    AllOf(FaultKind),
}

/// What a named `Stats` field must hold; every named field is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Want {
    /// Exactly this value.
    Eq(u64),
    /// Anything but zero.
    Nonzero,
    /// Anything (reported, not checked).
    Shown,
}

/// A `Stats` field name (from [`Stats::fields`]) and what it must hold.
pub type FieldWant = (&'static str, Want);

/// What a scenario must observe, besides what every scenario requires:
/// [`check_transparent`] against native execution and zero stale decodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Exit status.
    pub exit: Exit,
    /// Terminal faults.
    pub faults: Faults,
    /// `Stats` field conditions.
    pub fields: Vec<FieldWant>,
    /// Report verifier violations instead of failing on them (for
    /// deliberate corruption, where flagging it is the point).
    pub report_violations: bool,
}

impl Expect {
    /// The given exit, faults, and fields, with no verifier violations.
    pub fn new(exit: Exit, faults: Faults, fields: &[FieldWant]) -> Expect {
        let fields = fields.to_vec();
        let report_violations = false;
        Expect {
            exit,
            faults,
            fields,
            report_violations,
        }
    }
}

/// One row of a scenario table.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable report name.
    pub name: String,
    /// Dyna source.
    pub source: String,
    /// How the engine runs it.
    pub run: Run,
    /// What must be observed.
    pub expect: Expect,
}

impl Scenario {
    /// A table row.
    pub fn new(name: impl Into<String>, source: &str, run: Run, expect: Expect) -> Scenario {
        let (name, source) = (name.into(), source.to_string());
        Scenario {
            name,
            source,
            run,
            expect,
        }
    }
}

/// A passed scenario: its report line and the run's statistics.
#[derive(Clone, Debug)]
pub struct Pass {
    /// `ok NAME: ...`.
    pub line: String,
    /// Engine statistics of the run.
    pub stats: Stats,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.line)
    }
}

/// Run one scenario natively and under the engine and check every
/// expectation; `Err` names the scenario and the first failed check.
pub fn check(s: &Scenario, cpu: CpuKind) -> Result<Pass, String> {
    let image = compile(&s.source).map_err(|e| format!("{}: compile error: {e}", s.name))?;
    let native = run_native_guarded(&image, cpu, s.run.guard);
    let o = drive(&image, &s.run, cpu);
    let (e, r, n) = (&s.expect, &o.result, o.faults.len());
    let mut failed = Vec::new();
    let mut require = |ok: bool, why: String| {
        if !ok {
            failed.push(why);
        }
    };
    let (kind, count_ok) = match e.faults {
        Faults::None => (None, n == 0),
        Faults::One(kind) => (Some(kind), n == 1),
        Faults::AllOf(kind) => (Some(kind), n > 0),
    };
    let messages: Vec<&str> = o.faults.iter().map(|f| f.message.as_str()).collect();
    let guest_fault = |f: &Fault| {
        kind.is_some_and(|k| f.kind == Some(k) && f.exit_code() == k.exit_code())
            && f.app_pc.is_some()
            && f.message.contains("unhandled")
            && f.message.contains("app pc")
    };
    let faults_ok = count_ok && o.faults.iter().all(guest_fault);
    require(
        faults_ok,
        format!("expected {:?} terminal faults, got {messages:?}", e.faults),
    );
    if let Err(d) = check_transparent(&native, r) {
        require(false, format!("diverged from native on {d}"));
    }
    // The transparency check ties the engine's exit code to native's.
    let exit = match e.exit {
        Exit::Native => r.exit_code,
        Exit::Code(c) => c,
    };
    let rio_exit = r.exit_code;
    require(
        rio_exit == exit,
        format!("exit {rio_exit}, expected {exit}"),
    );
    let mut parts = vec![format!("exit {exit}, output native-identical")];
    if let Some(first) = o.faults.first() {
        let (eip, pc) = (first.cache_eip, first.app_pc.unwrap_or_default());
        let plural = if n == 1 { "" } else { "s" };
        parts.push(format!(
            "{n} terminal fault{plural} (first at eip {eip:#x}, app pc {pc:#x})"
        ));
    }
    for &(name, want) in &e.fields {
        let v = r.stats.field(name);
        let ok = match (want, v) {
            (_, None) => false,
            (Want::Eq(x), Some(v)) => v == x,
            (Want::Nonzero, Some(v)) => v != 0,
            (Want::Shown, Some(_)) => true,
        };
        require(ok, format!("{name} is {v:?}, expected {want:?}"));
        parts.push(format!("{name} {}", v.unwrap_or_default()));
    }
    let stale = o.stale_decodes;
    require(stale == 0, format!("{stale} stale decode(s) executed"));
    if s.run.verify_decodes {
        parts.push("0 stale decodes".into());
    }
    let (checks, violations) = (r.stats.checks_run, r.stats.violations);
    let found = o.findings.join("; ");
    let violations_ok = e.report_violations || violations == 0;
    require(
        violations_ok,
        format!("{violations} violation(s) in {checks} checks: {found}"),
    );
    if s.run.options.verify && e.report_violations {
        parts.push(format!(
            "verifier flagged {violations} violation(s) across {checks} checks"
        ));
    } else if s.run.options.verify {
        parts.push(format!("{checks} checks, 0 violations"));
    }
    match failed.first() {
        Some(why) => Err(format!("{}: {why}", s.name)),
        None => Ok(Pass {
            line: format!("ok {}: {}", s.name, parts.join(", ")),
            stats: r.stats,
        }),
    }
}

// ----- the tables ---------------------------------------------------------

/// A fixed, fault-free workload the injection scenarios perturb.
const INJECT_SOURCE: &str = "fn main() {
    var i = 0;
    var s = 0;
    while (i < 4000) { s = s + i * 3 % 97; i++; }
    return s % 100;
}";

/// Report names and Table 1 rows of the two execution modes.
const MODES: [(&str, ExecMode); 2] = [("cache", ExecMode::Traces), ("emulate", ExecMode::Emulate)];

/// The null client in 200-instruction slices (so injections land mid-run
/// and fault delivery interleaves with suspension), in Table 1 row `mode`.
fn sliced(mode: ExecMode, verify: bool) -> Run {
    let options = Options {
        mode,
        verify,
        ..Options::full()
    };
    let mut run = Run::new(options, ClientKind::Null);
    run.step = Some(200);
    run
}

/// `rio faults` (15 scenarios): each fault kind injected in both modes
/// (one terminal fault, after which the same session resumes to a
/// native-identical exit), cache-copy corruption healed by eviction, and
/// the genuine faulting workloads, handled and unhandled.
pub fn faults(verify: bool) -> Vec<Scenario> {
    use FaultKind::{DivideError, InvalidOpcode, MemFault};
    let mut out = Vec::new();
    for kind in [DivideError, InvalidOpcode, MemFault] {
        for (name, mode) in MODES {
            let mut run = sliced(mode, verify);
            run.inject = Some(InjectionPlan::AtInstruction { at: 400, kind });
            run.max_faults = 8;
            let expect = Expect::new(Exit::Native, Faults::One(kind), &[]);
            let name = format!("inject-{kind}-{name}").replace(' ', "-");
            out.push(Scenario::new(name, INJECT_SOURCE, run, expect));
        }
    }
    // Every warm fragment corrupted: invalid-opcode faults, eviction, and
    // a self-healed run. The verifier must flag the corruption.
    let mut run = sliced(ExecMode::Traces, verify);
    run.inject = Some(InjectionPlan::CorruptAll { min_frags: 4 });
    run.max_faults = 64;
    let evicted = [("fault_evictions", Want::Nonzero)];
    let mut expect = Expect::new(Exit::Native, Faults::AllOf(InvalidOpcode), &evicted);
    expect.report_violations = true;
    out.push(Scenario::new(
        "corrupt-cache-copies",
        INJECT_SOURCE,
        run,
        expect,
    ));
    let recovered = faulting::DIV_RECOVER_FAULTS as u64;
    let workloads = [
        (
            "div-recover",
            faulting::div_recover(),
            0,
            Faults::None,
            Some(recovered),
        ),
        ("wild-load", faulting::wild_load(), 0, Faults::None, Some(1)),
        (
            "div-unhandled",
            faulting::div_unhandled(),
            129,
            Faults::One(DivideError),
            None,
        ),
        (
            "wild-unhandled",
            faulting::wild_unhandled(),
            131,
            Faults::One(MemFault),
            None,
        ),
    ];
    for (stem, source, exit, faults, delivered) in workloads {
        let fields: Vec<_> = delivered
            .map(|n| ("faults_delivered", Want::Eq(n)))
            .into_iter()
            .collect();
        for (name, mode) in MODES {
            let mut run = sliced(mode, verify);
            if stem.starts_with("wild") {
                run.guard = Some(faulting::guard_region());
            }
            let expect = Expect::new(Exit::Code(exit), faults, &fields);
            out.push(Scenario::new(
                format!("{stem}-{name}"),
                &source,
                run,
                expect,
            ));
        }
    }
    out
}

/// `rio smc` (9 scenarios): three self-modifying workloads under
/// emulation, an unbounded cache, and a 64-byte bounded cache, with decode
/// verification counting any stale copy that executes.
pub fn smc(verify: bool) -> Vec<Scenario> {
    use Want::{Eq, Nonzero, Shown};
    let workloads = [
        ("self-write", smc::self_write()),
        ("patch-loop", smc::patch_loop()),
        ("write-then-icall", smc::write_then_icall()),
    ];
    // Emulation keeps consistency through the interpreter's own
    // decode-cache invalidation (no watches, no cache). Under a 64-byte
    // bound the written fragment may already be evicted when the store
    // lands, so only the unbounded cache is guaranteed an invalidation;
    // capacity pressure evicts per fragment, never by whole-cache flush.
    let modes: [(&str, ExecMode, Option<u32>, &[FieldWant]); 3] = [
        (
            "emulate",
            ExecMode::Emulate,
            None,
            &[
                ("code_writes", Eq(0)),
                ("invalidations", Eq(0)),
                ("evictions", Eq(0)),
            ],
        ),
        (
            "cache",
            ExecMode::Traces,
            None,
            &[
                ("code_writes", Nonzero),
                ("invalidations", Nonzero),
                ("evictions", Eq(0)),
            ],
        ),
        (
            "bounded",
            ExecMode::Traces,
            Some(64),
            &[
                ("code_writes", Nonzero),
                ("invalidations", Shown),
                ("evictions", Nonzero),
                ("cache_flushes", Eq(0)),
            ],
        ),
    ];
    let mut out = Vec::new();
    for (workload, source) in &workloads {
        for &(name, mode, cache_limit, fields) in &modes {
            let mut run = sliced(mode, verify);
            run.options.cache_limit = cache_limit;
            run.verify_decodes = true;
            let expect = Expect::new(Exit::Code(0), Faults::None, fields);
            out.push(Scenario::new(
                format!("{workload}-{name}"),
                source,
                run,
                expect,
            ));
        }
    }
    out
}

/// The clients every suite benchmark runs under in [`verify`].
const VERIFY_CLIENTS: [ClientKind; 3] =
    [ClientKind::Null, ClientKind::Combined, ClientKind::Shepherd];

/// `rio verify`'s suite half: every benchmark under the null, combined,
/// and shepherd clients with incremental verification and a final
/// whole-cache sweep; any violation fails.
pub fn verify() -> Vec<Scenario> {
    let mut out = Vec::new();
    for b in suite() {
        for client in VERIFY_CLIENTS {
            let mut run = Run::new(Options::full(), client);
            run.options.verify = true;
            run.sweep = true;
            let expect = Expect::new(Exit::Native, Faults::None, &[]);
            out.push(Scenario::new(
                format!("{}/{}", b.name, client.label()),
                &b.source,
                run,
                expect,
            ));
        }
    }
    out
}
