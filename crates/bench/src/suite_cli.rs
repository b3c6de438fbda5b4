//! Shared command-line plumbing: one argument parser for every `rio`
//! subcommand and experiment binary, and the report printer the scenario
//! suites share.
//!
//! [`Args::parse`] takes a command's value flags and switches, accepts
//! both `--flag value` and `--flag=value` (plus `-j N` for `--jobs N`), and
//! rejects unknown flags. `rio faults`, `rio smc`, `rio verify`, and
//! `rio fuzz` then fan scenarios out over
//! [`run_parallel`](crate::run_parallel) and print one stable line per
//! scenario with [`print_suite_rows`], counting `Err` rows as failures.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use rio_clients::ClientKind;
use rio_sim::CpuKind;

/// A parsed command line: positional arguments plus the flags given, in
/// order.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `args` against the flags that take a value (`values`) and
    /// those that do not (`switches`), allowing at most `max_positional`
    /// positional arguments.
    pub fn parse(
        args: &[String],
        values: &[&str],
        switches: &[&str],
        max_positional: usize,
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                if out.positional.len() == max_positional {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                out.positional.push(arg.clone());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, v)) if arg.starts_with("--") => (name, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            let name = if name == "-j" { "--jobs" } else { name };
            let value = if values.contains(&name) {
                let next = || it.next().cloned().ok_or(format!("{name} needs a value"));
                Some(inline.map_or_else(next, Ok)?)
            } else if !switches.contains(&name) {
                return Err(format!("unknown argument `{arg}`"));
            } else if inline.is_some() {
                return Err(format!("{name} takes no value"));
            } else {
                None
            };
            out.flags.push((name.to_string(), value));
        }
        Ok(out)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of the last `name` given.
    pub fn value(&self, name: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(n, _)| n == name);
        last.and_then(|(_, v)| v.as_deref())
    }

    /// The value of the last `name` given, parsed.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| v.parse().map_err(|e| format!("bad {name} `{v}`: {e}"));
        self.value(name).map(parse).transpose()
    }

    /// The processor model (`--cpu p3|p4`, default p4).
    pub fn cpu(&self) -> Result<CpuKind, String> {
        match self.value("--cpu") {
            None | Some("p4") => Ok(CpuKind::Pentium4),
            Some("p3") => Ok(CpuKind::Pentium3),
            Some(other) => Err(format!("unknown cpu `{other}` (p3|p4)")),
        }
    }

    /// The worker count: `--jobs N` (at least 1), else
    /// [`default_jobs`](crate::harness::default_jobs).
    pub fn jobs(&self) -> Result<usize, String> {
        let jobs = self.parsed::<usize>("--jobs")?;
        Ok(jobs.unwrap_or_else(crate::harness::default_jobs).max(1))
    }

    /// The client (`--client NAME`, default `null`).
    pub fn client(&self) -> Result<ClientKind, String> {
        let Some(name) = self.value("--client") else {
            return Ok(ClientKind::Null);
        };
        ClientKind::parse(name).ok_or_else(|| {
            let known: Vec<&str> = ClientKind::ALL.iter().map(|k| k.label()).collect();
            format!("unknown client `{name}` ({})", known.join("|"))
        })
    }
}

/// Print scenario report lines (stable order from
/// [`run_parallel`](crate::run_parallel)), `Err` rows prefixed `FAIL`;
/// returns the number of failures.
pub fn print_rows<T: Display>(rows: &[Result<T, String>]) -> usize {
    let mut failures = 0usize;
    for row in rows {
        match row {
            Ok(line) => println!("{line}"),
            Err(line) => {
                println!("FAIL {line}");
                failures += 1;
            }
        }
    }
    failures
}

/// [`print_rows`], then a summary line; `Err` rows count as failures.
pub fn print_suite_rows<T: Display>(
    rows: &[Result<T, String>],
    what: &str,
) -> Result<ExitCode, String> {
    let failures = print_rows(rows);
    if failures > 0 {
        return Err(format!("{failures} {what} scenario(s) failed"));
    }
    println!("all {} {what} scenarios passed", rows.len());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str], values: &[&str], switches: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = s.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, values, switches, 1)
    }

    fn suite(s: &[&str]) -> Result<(CpuKind, usize), String> {
        let a = parse(s, &["--cpu", "--jobs"], &[])?;
        Ok((a.cpu()?, a.jobs()?))
    }

    #[test]
    fn parses_common_flags() {
        assert!(matches!(
            suite(&["--cpu", "p3", "--jobs", "3"]),
            Ok((CpuKind::Pentium3, 3))
        ));
        assert!(matches!(
            suite(&["--jobs=3", "--cpu=p3"]),
            Ok((CpuKind::Pentium3, 3))
        ));
        assert!(matches!(suite(&["-j", "2"]), Ok((CpuKind::Pentium4, 2))));
        for bad in [
            &["--bogus"][..],
            &["--cpu"],
            &["--cpu", "p5"],
            &["--jobs", "zero"],
        ] {
            assert!(suite(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn jobs_clamps_to_at_least_one() {
        assert_eq!(suite(&["--jobs", "0"]).unwrap().1, 1);
    }

    #[test]
    fn missing_values_and_unknown_flags_are_rejected() {
        let (values, switches) = (&["--seeds"][..], &["--stats"][..]);
        let err = |s: &[&str]| parse(s, values, switches).unwrap_err();
        assert_eq!(err(&["--seeds"]), "--seeds needs a value");
        assert_eq!(err(&["--bogus"]), "unknown argument `--bogus`");
        assert_eq!(err(&["--jobs=3"]), "unknown argument `--jobs=3`");
        assert_eq!(err(&["--stats=1"]), "--stats takes no value");
        assert_eq!(err(&["a", "b"]), "unexpected argument `b`");
    }

    #[test]
    fn subcommand_flags_and_positionals_parse_through_one_spec() {
        let (values, switches) = (&["--client", "--seeds"][..], &["--replay"][..]);
        let argv = [
            "bench:gzip",
            "--seeds=64",
            "--replay",
            "--client",
            "ctraces",
        ];
        let a = parse(&argv, values, switches).unwrap();
        assert_eq!(a.positional, ["bench:gzip"]);
        assert_eq!(a.parsed::<u64>("--seeds").unwrap(), Some(64));
        assert!(a.has("--replay"));
        assert_eq!(a.client().unwrap(), ClientKind::CTrace);
        // Later occurrences win; absent flags parse to `None`.
        let a = parse(&["--seeds", "1", "--seeds", "2"], values, switches).unwrap();
        assert_eq!(a.parsed::<u64>("--seeds").unwrap(), Some(2));
        assert_eq!(a.parsed::<u64>("--missing").unwrap(), None);
        let a = parse(&["--client", "nope"], values, switches).unwrap();
        assert!(a.client().unwrap_err().contains("unknown client `nope`"));
    }
}
