//! `rio golden`: every deterministic report pinned in `tests/golden/`,
//! regenerated from one table. Each entry pins its own options and reads
//! no environment variable, so a report depends only on the code.

use std::process::ExitCode;

use rio_bench::{reports, run_parallel, Args};
use rio_clients::ClientKind::Null;
use rio_core::Options;
use rio_fuzz::{run_campaign, scenario, CampaignOptions};
use rio_sim::CpuKind::Pentium4;

use crate::Report;
use crate::{checked, decode_cache_report, rows_report, suite_report, verify_report};

/// The golden files, found from this crate's manifest so the command works
/// from any working directory.
const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

/// A golden's name, and the report it pins made on a number of workers.
type Golden = (&'static str, fn(usize) -> Report);

/// Every golden, in file-name order: `tests/golden/NAME.txt` holds the
/// report `NAME` makes on any number of workers.
const GOLDENS: &[Golden] = &[
    ("ablations", |jobs| reports::ablations(jobs).into()),
    ("decode_cache", decode_cache_report),
    ("faults", |jobs| {
        rows_report(&checked(scenario::faults(false), Pentium4, jobs), "fault")
    }),
    ("figure5", |jobs| reports::figure5(jobs).into()),
    ("fuzz64", |jobs| {
        let opts = CampaignOptions {
            jobs,
            corpus_dir: None,
            ..Default::default()
        };
        rows_report(&run_campaign(&opts), "fuzz")
    }),
    ("smc", |jobs| {
        rows_report(&checked(scenario::smc(false), Pentium4, jobs), "smc")
    }),
    ("suite", |jobs| {
        suite_report(Null, Pentium4, Options::full(), jobs)
    }),
    ("suite_bounded", |jobs| {
        let opts = Options {
            cache_limit: Some(4096),
            ..Options::full()
        };
        suite_report(Null, Pentium4, opts, jobs)
    }),
    ("suite_stats", |jobs| reports::suite_stats(jobs).into()),
    ("table1", |jobs| reports::table1(jobs).into()),
    ("verify", |jobs| verify_report(Pentium4, jobs)),
];

/// `rio golden [--check | --write] [--jobs N] [NAME...]`: print, check or
/// rewrite the named goldens (all of them when none is named). Exits 1 if
/// a report fails or, under `--check`, differs from its file.
pub fn cmd_golden(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["--jobs"], &["--check", "--write"], usize::MAX)?;
    let (check, write) = (a.has("--check"), a.has("--write"));
    if check && write {
        return Err("--check and --write exclude each other".into());
    }
    let jobs = a.jobs()?;
    let known = || GOLDENS.iter().map(|(name, _)| *name);
    if let Some(bad) = a.positional.iter().find(|n| !known().any(|g| g == *n)) {
        let known = known().collect::<Vec<_>>().join(" ");
        return Err(format!("unknown golden `{bad}` (known: {known})"));
    }
    let wanted = |name: &str| a.positional.is_empty() || a.positional.contains(&name.into());
    let selected: Vec<_> = GOLDENS.iter().filter(|(name, _)| wanted(name)).collect();
    // Up to `jobs` reports at once, each on `jobs` workers, so one long
    // report does not leave the other workers idle at the end.
    let reports = run_parallel(&selected, jobs, |_, (_, make)| make(jobs));
    let mut failed = 0;
    for ((name, _), Report { text, error }) in selected.iter().zip(reports) {
        let path = format!("{DIR}/{name}.txt");
        let problem = if check {
            mismatch(std::fs::read_to_string(&path).ok().as_deref(), &text).or(error)
        } else if write && error.is_none() {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote tests/golden/{name}.txt");
            None
        } else {
            if !write {
                print!("{text}");
            }
            error
        };
        match &problem {
            Some(why) => println!("FAIL {name}: {why}"),
            None if check => println!("ok {name}"),
            None => {}
        }
        failed += usize::from(problem.is_some());
    }
    if check {
        match failed {
            0 => println!("all {} goldens match", selected.len()),
            _ => println!("{failed} of {} goldens differ", selected.len()),
        }
    }
    Ok(ExitCode::from(u8::from(failed > 0)))
}

/// Where `actual` first departs from the golden text `expected` (`None`
/// when the file is missing or unreadable), as a diff of that line: `-`
/// the golden, `+` the report. `None` when the two are equal.
fn mismatch(expected: Option<&str>, actual: &str) -> Option<String> {
    let Some(expected) = expected else {
        return Some("no readable golden file".into());
    };
    let (mut golden, mut report) = (expected.lines(), actual.lines());
    for line in 1.. {
        return Some(match (golden.next(), report.next()) {
            (Some(g), Some(r)) if g == r => continue,
            (Some(g), Some(r)) => format!("line {line}:\n- {g}\n+ {r}"),
            (Some(g), None) => format!("line {line}:\n- {g}"),
            (None, Some(r)) => format!("line {line}:\n+ {r}"),
            (None, None) if expected == actual => return None,
            (None, None) => "the final newline differs".into(),
        });
    }
    unreachable!("every line number returns or continues")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_golden_file_has_one_table_entry() {
        let mut files: Vec<String> = std::fs::read_dir(DIR)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let names: Vec<String> = GOLDENS.iter().map(|(g, _)| format!("{g}.txt")).collect();
        assert_eq!(files, names, "the table must list each file once, in order");
    }

    #[test]
    fn mismatch_names_the_first_difference() {
        for (golden, report, why) in [
            (Some("a\nb\n"), "a\nb\n", None),
            (Some("a\nb\nc\n"), "a\nB\nC\n", Some("line 2:\n- b\n+ B")),
            (Some("a\n"), "a\nb\nc\n", Some("line 2:\n+ b")),
            (Some("a\nb\n"), "a\n", Some("line 2:\n- b")),
            (Some("a\n"), "a", Some("the final newline differs")),
            (None, "a\n", Some("no readable golden file")),
        ] {
            assert_eq!(mismatch(golden, report).as_deref(), why, "{report:?}");
        }
    }

    #[test]
    fn experiments_md_quotes_figure5_and_suite_stats_verbatim() {
        let read = |path: &str| std::fs::read_to_string(path).unwrap();
        let doc = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
        let figure5 = read(&format!("{DIR}/figure5.txt"));
        let stats = read(&format!("{DIR}/suite_stats.txt"));
        // Figure 5 below its title; the suite table above its aggregate.
        let table = stats.lines().take_while(|l| !l.is_empty());
        for row in figure5.lines().skip(1).chain(table) {
            assert!(
                doc.lines().any(|l| l == row),
                "EXPERIMENTS.md lacks `{row}`"
            );
        }
    }
}
