//! The `rio` binary's argument handling, end to end.

use std::process::{Command, Output};

fn rio(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rio"))
        .args(args)
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
    let line = || {
        let o = rio(&["run", "bench:gzip", "--stats"]);
        let err = String::from_utf8_lossy(&o.stderr).into_owned();
        err.lines()
            .find(|l| l.starts_with("decode cache: "))
            .unwrap_or_else(|| panic!("no decode-cache line in:\n{err}"))
            .to_owned()
    };
    let first = line();
    assert!(
        first.contains(" hits, ")
            && first.contains(" misses, ")
            && first.contains(" instructions decoded, ")
            && first.ends_with(" invalidated"),
        "{first}"
    );
    assert_eq!(first, line());
}
