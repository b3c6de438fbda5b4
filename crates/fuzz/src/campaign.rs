//! The fuzzing campaign: seeds → programs → config matrix → findings.
//!
//! A campaign is a deterministic function of `(base seed, seed count,
//! cpu)`: seed *i* generates program *i*, the program runs through the
//! whole configuration matrix, and any divergence is shrunk (statement
//! tree first, then the configuration axes) and persisted to the corpus.
//! Campaign items are distributed over [`rio_bench::run_parallel`]'s
//! worker pool and the per-seed report lines are collected in item order,
//! so output is byte-identical for any `--jobs N` — the same property
//! every other suite in the repository holds, and what lets the `fuzz64`
//! golden, written by one worker, be checked at any worker count.

use std::path::PathBuf;

use rio_sim::CpuKind;

use crate::corpus::CorpusEntry;
use crate::gen::{render, Program, S};
use crate::oracle::{check_image, diverges};
use crate::shrink::{shrink_config, shrink_program};

/// Default base seed: campaign seed `i` is `DEFAULT_BASE_SEED + i`.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_0000;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Number of seeds to run.
    pub seeds: u64,
    /// First seed (entry `i` uses `base_seed + i`).
    pub base_seed: u64,
    /// Processor model.
    pub cpu: CpuKind,
    /// Worker threads.
    pub jobs: usize,
    /// Where to persist minimized findings; `None` disables persistence
    /// (findings are still shrunk and reported).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            seeds: 64,
            base_seed: DEFAULT_BASE_SEED,
            cpu: CpuKind::Pentium4,
            jobs: 1,
            corpus_dir: None,
        }
    }
}

/// Run one campaign seed end to end. `Ok` is the deterministic report
/// line; `Err` describes a finding (already shrunk, and persisted when a
/// corpus directory is configured).
pub fn run_seed(
    seed: u64,
    cpu: CpuKind,
    corpus_dir: Option<&std::path::Path>,
) -> Result<String, String> {
    let program = Program::generate(seed);
    let source = program.source();
    let image = match rio_workloads::compile(&source) {
        Ok(image) => image,
        Err(e) => {
            return Err(format!(
                "seed {seed:#018x}: generated program failed to compile: {e}"
            ))
        }
    };
    let mismatch = match check_image(&image, cpu) {
        Ok(summary) => {
            return Ok(format!(
            "ok seed {seed:#018x}: {} nodes, {} configs agree (exit {}, {} lines, digest {:016x})",
            program.nodes(),
            summary.configs,
            summary.exit_code,
            summary.output.lines().count(),
            summary.state_digest
        ))
        }
        Err(m) => *m,
    };
    // A finding. Shrink the statement tree against the failing config,
    // then walk the config itself down the lattice.
    let failing = mismatch.config;
    let reproduces = |stmts: &[S]| match rio_workloads::compile(&render(stmts)) {
        Ok(image) => diverges(&image, failing, cpu),
        Err(_) => false, // a shrink step must stay compilable
    };
    let minimized = shrink_program(&program.stmts, reproduces);
    let min_source = render(&minimized);
    let min_image =
        rio_workloads::compile(&min_source).expect("shrinker only accepts compilable programs");
    let min_config = shrink_config(failing, |cfg| diverges(&min_image, cfg, cpu));
    let entry = CorpusEntry {
        seed,
        config: Some(min_config.to_string()),
        note: Some(format!(
            "minimized {} -> {} nodes; originally {mismatch}",
            program.nodes(),
            minimized.iter().map(S::nodes).sum::<usize>()
        )),
        source: min_source,
    };
    let saved = match corpus_dir {
        Some(dir) => match entry.save(dir) {
            Ok(path) => format!(", saved {}", path.display()),
            Err(e) => format!(", corpus save FAILED: {e}"),
        },
        None => String::new(),
    };
    Err(format!(
        "seed {seed:#018x}: {mismatch}; minimized to {} nodes under {min_config}{saved}",
        minimized.iter().map(S::nodes).sum::<usize>()
    ))
}

/// Run a whole campaign on the worker pool; report lines come back in
/// seed order regardless of the job count.
pub fn run_campaign(opts: &CampaignOptions) -> Vec<Result<String, String>> {
    let seeds: Vec<u64> = (0..opts.seeds).map(|i| opts.base_seed + i).collect();
    rio_bench::run_parallel(&seeds, opts.jobs, |_, &seed| {
        run_seed(seed, opts.cpu, opts.corpus_dir.as_deref())
    })
}
