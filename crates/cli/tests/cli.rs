//! The `rio` binary's argument handling, end to end.

use std::process::{Command, Output};

fn rio(args: &[&str]) -> Output {
    rio_env(args, &[])
}

/// Run `rio` with `RIO_VERIFY` and `RIO_CACHE_LIMIT` unset but for `vars`.
fn rio_env(args: &[&str], vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rio"))
        .args(args)
        .env_remove("RIO_VERIFY")
        .env_remove("RIO_CACHE_LIMIT")
        .envs(vars.iter().copied())
        .output()
        .expect("spawn rio")
}

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
    let vars = [("RIO_VERIFY", "1"), ("RIO_CACHE_LIMIT", "4096")];
    let o = rio_env(
        &["golden", "--check", "faults", "smc", "fuzz64", "--jobs=3"],
        &vars,
    );
    assert!(stdout(&o).ends_with("all 3 goldens match\n"));
}

#[test]
fn rio_verify_and_cache_limit_env_reach_the_engine() {
    // Verified, each table is the section `rio verify` pins for it.
    let verify = include_str!("../../../tests/golden/verify.txt");
    for table in ["faults", "smc"] {
        let verified = stdout(&rio_env(&[table], &[("RIO_VERIFY", "1")]));
        assert!(verify.contains(&verified) && verified.contains(" checks"));
        assert_ne!(verified, stdout(&rio(&[table])));
    }
    let run = ["run", "bench:gzip", "--max-instructions=20000"];
    let evicts = |vars: &[(&str, &str)]| {
        let err = String::from_utf8_lossy(&rio_env(&run, vars).stderr).into_owned();
        !err.contains(" 0 evictions")
    };
    assert!(!evicts(&[]));
    assert!(evicts(&[("RIO_CACHE_LIMIT", "256")]));
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
