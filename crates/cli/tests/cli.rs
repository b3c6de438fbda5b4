//! The `rio` binary's argument handling, end to end.

use std::process::{Command, Output};

use rio_core::{NullClient, Options, Rio};
use rio_sim::CpuKind;

fn rio(args: &[&str]) -> Output {
    rio_env(args, &[])
}

/// Run `rio` with `vars` added to its environment.
fn rio_env(args: &[&str], vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rio"))
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("spawn rio")
}

/// Environment variables that once switched on verification and bounded the
/// cache behind the flags' back; `rio` reads neither.
const RETIRED_VARS: [(&str, &str); 2] = [("RIO_VERIFY", "1"), ("RIO_CACHE_LIMIT", "256")];

fn stdout(o: &Output) -> String {
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn fragments_dumps_the_requested_clients_own_cache() {
    let null = stdout(&rio(&["fragments", "bench:gzip"]));
    let combined = rio(&["fragments", "bench:gzip", "--client", "combined"]);
    assert!(String::from_utf8_lossy(&combined.stderr).is_empty());
    let combined = stdout(&combined);
    assert!(null.contains("\ntrace "), "gzip builds no trace:\n{null}");
    assert!(combined.contains("\ntrace "));
    assert_ne!(null, combined, "combined dump is the null client's");
}

#[test]
fn native_honors_cpu_and_rejects_unknown_flags() {
    let cycles = |cpu: &str| {
        let o = rio(&["native", "bench:gzip", "--cpu", cpu]);
        String::from_utf8_lossy(&o.stderr).into_owned()
    };
    assert_ne!(cycles("p3"), cycles("p4"));
    for cmd in ["native", "disasm"] {
        let o = rio(&[cmd, "bench:gzip", "--bogus"]);
        assert_eq!(o.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("unknown argument `--bogus`"), "{err}");
    }
}

#[test]
fn every_client_label_and_legend_alias_runs() {
    for client in ["ctraces", "base", "shepherd", "opstats"] {
        let o = rio(&[
            "run",
            "bench:gzip",
            "--client",
            client,
            "--max-instructions=20000",
        ]);
        assert_eq!(o.status.code(), Some(124), "{client}");
    }
    let o = rio(&["run", "bench:gzip", "--client", "nope"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn run_stats_print_deterministic_decode_cache_counts() {
    let o = rio(&["run", "bench:gzip", "--stats"]);
    let err = String::from_utf8_lossy(&o.stderr).into_owned();
    let line = err
        .lines()
        .find(|l| l.starts_with("decode cache: "))
        .unwrap_or_else(|| panic!("no decode-cache line in:\n{err}"));
    let golden = include_str!("../../../tests/golden/decode_cache.txt");
    assert!(golden.starts_with(&format!("gzip: {line}\n")), "{line}");
}

#[test]
fn golden_check_ignores_the_engine_environment() {
    // Three workers, so the reports are also checked against files written
    // by one: output must not depend on the job count.
    let o = rio_env(
        &["golden", "--check", "faults", "smc", "fuzz64", "--jobs=3"],
        &RETIRED_VARS,
    );
    assert!(stdout(&o).ends_with("all 3 goldens match\n"));
}

#[test]
fn cache_limit_flag_makes_a_run_evict() {
    let evictions = |extra: &[&str]| -> u64 {
        let run = ["run", "bench:gzip", "--max-instructions=20000"];
        let err = String::from_utf8_lossy(&rio(&[&run[..], extra].concat()).stderr).into_owned();
        let (before, _) = err.split_once(" evictions").expect("no evictions count");
        let count = before.rsplit(' ').next().unwrap_or_default();
        count.parse().expect(count)
    };
    assert_eq!(evictions(&[]), 0);
    assert!(evictions(&["--cache-limit", "256"]) > 0);
}

#[test]
fn scenario_tables_ignore_the_environment() {
    for table in ["faults", "smc"] {
        let plain = stdout(&rio(&[table]));
        assert_eq!(stdout(&rio_env(&[table], &RETIRED_VARS)), plain, "{table}");
    }
}

#[test]
fn row_flags_run_the_matching_table1_row() {
    let gzip = rio_workloads::benchmark("gzip").expect("gzip exists");
    let image = rio_workloads::compile(&gzip.source).expect("gzip compiles");
    let counts = Options::table1().map(|(_, options)| {
        let c = Rio::new(&image, options, CpuKind::Pentium4, NullClient)
            .run()
            .counters;
        format!("--- {} instrs, {} cycles, ", c.instructions, c.cycles)
    });
    for (flags, row) in [
        (&[][..], 4),
        (&["--emulate"], 0),
        (&["--no-links"], 1),
        (&["--no-ib-links"], 2),
        (&["--no-traces"], 3),
        (&["--no-links", "--no-traces"], 1),
    ] {
        let o = rio(&[&["run", "bench:gzip"][..], flags].concat());
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains(&counts[row]), "{flags:?}: {err}");
    }
}

#[test]
fn golden_rejects_unknown_names_with_the_known_list() {
    let o = rio(&["golden", "--check", "nope"]);
    assert_eq!(o.status.code(), Some(2));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(
        err.contains("golden `nope` (known: ablations decode_cache "),
        "{err}"
    );
}
