//! The configuration-matrix oracle: one generated program, every engine
//! configuration, one verdict.
//!
//! The paper's transparency claim (§2) is that an application behaves
//! identically under the engine and natively — not just in its output, but
//! in every architecturally visible effect. The oracle operationalizes
//! that: a native interpreter run is the baseline, and the program is then
//! run through a lattice of engine configurations (emulation; code cache
//! with traces off and on; a tiny bounded cache under FIFO eviction;
//! one-instruction `Rio::step` budgets; incremental verification) crossed
//! with the null and combined clients. Every run must pass
//! [`check_transparent`] against the baseline (output, exit code, final
//! register/global state digest), and verified runs must report zero
//! violations. Any difference is a [`Mismatch`] — a finding, never a
//! flake, because every run is deterministic.

use std::fmt;

use rio_clients::ClientKind;
use rio_core::{check_transparent, Divergence, Options, RioRunResult};
use rio_sim::{run_native, CpuKind, Image, RunResult};

use crate::scenario::{drive, Run};

/// The engine-side axis of the configuration lattice, ordered simplest
/// first (the order the config shrinker prefers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EngineConfig {
    /// Pure emulation — no code cache at all.
    Emulate,
    /// Basic-block cache with direct/indirect links but traces disabled.
    CacheNoTraces,
    /// The full system (links + traces).
    Full,
    /// Full system under a tiny `cache_limit` (2 KB), forcing FIFO
    /// eviction to interleave with everything else.
    Bounded,
    /// Full system driven through one-instruction [`Rio::step`](rio_core::Rio::step) budgets, so
    /// every engine safe point is crossed suspended.
    Stepped,
    /// Full system with incremental verification at every safe point plus
    /// a final whole-cache sweep; violations fail the comparison.
    Verified,
}

impl EngineConfig {
    /// Every engine configuration, simplest first.
    pub const ALL: [EngineConfig; 6] = [
        EngineConfig::Emulate,
        EngineConfig::CacheNoTraces,
        EngineConfig::Full,
        EngineConfig::Bounded,
        EngineConfig::Stepped,
        EngineConfig::Verified,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineConfig::Emulate => "emulate",
            EngineConfig::CacheNoTraces => "cache-notrace",
            EngineConfig::Full => "full",
            EngineConfig::Bounded => "bounded",
            EngineConfig::Stepped => "stepped",
            EngineConfig::Verified => "verified",
        }
    }

    /// Parse a [`EngineConfig::label`] back.
    pub fn parse(s: &str) -> Option<EngineConfig> {
        EngineConfig::ALL.into_iter().find(|c| c.label() == s)
    }
}

/// The client axis of the lattice, simplest first.
pub const CLIENTS: [ClientKind; 2] = [ClientKind::Null, ClientKind::Combined];

/// One point of the configuration lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FuzzConfig {
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Coupled client (one of [`CLIENTS`]).
    pub client: ClientKind,
}

impl FuzzConfig {
    /// The whole lattice: every engine config × every client, in a fixed
    /// deterministic order.
    pub fn matrix() -> Vec<FuzzConfig> {
        let mut out = Vec::new();
        for engine in EngineConfig::ALL {
            for client in CLIENTS {
                out.push(FuzzConfig { engine, client });
            }
        }
        out
    }

    /// Strictly simpler configurations to try while shrinking the config
    /// axes of a finding, nearest first (drop the client, then step the
    /// engine axis down).
    pub fn simpler(self) -> Vec<FuzzConfig> {
        let mut out = Vec::new();
        if self.client == ClientKind::Combined {
            out.push(FuzzConfig {
                client: ClientKind::Null,
                ..self
            });
        }
        let downgrades: &[EngineConfig] = match self.engine {
            EngineConfig::Emulate => &[],
            EngineConfig::CacheNoTraces => &[EngineConfig::Emulate],
            EngineConfig::Full => &[EngineConfig::CacheNoTraces, EngineConfig::Emulate],
            // The bounded / stepped / verified points are the full system
            // plus one twist: dropping the twist is the natural first step.
            EngineConfig::Bounded | EngineConfig::Stepped | EngineConfig::Verified => &[
                EngineConfig::Full,
                EngineConfig::CacheNoTraces,
                EngineConfig::Emulate,
            ],
        };
        for &engine in downgrades {
            out.push(FuzzConfig { engine, ..self });
            if self.client == ClientKind::Combined {
                out.push(FuzzConfig {
                    engine,
                    client: ClientKind::Null,
                });
            }
        }
        out
    }

    /// Parse a `engine+client` label pair (the corpus format).
    pub fn parse(s: &str) -> Option<FuzzConfig> {
        let (e, c) = s.split_once('+')?;
        Some(FuzzConfig {
            engine: EngineConfig::parse(e)?,
            client: ClientKind::parse(c).filter(|k| CLIENTS.contains(k))?,
        })
    }

    /// The engine run this lattice point stands for.
    pub fn run(self) -> Run {
        let full = Options::full();
        let options = match self.engine {
            EngineConfig::Emulate => Options::emulation(),
            EngineConfig::CacheNoTraces => Options::with_indirect_links(),
            EngineConfig::Full | EngineConfig::Stepped => full,
            EngineConfig::Bounded => Options {
                cache_limit: Some(2048),
                ..full
            },
            EngineConfig::Verified => Options {
                verify: true,
                ..full
            },
        };
        Run {
            step: (self.engine == EngineConfig::Stepped).then_some(1),
            sweep: self.engine == EngineConfig::Verified,
            ..Run::new(options, self.client)
        }
    }
}

impl fmt::Display for FuzzConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.engine.label(), self.client.label())
    }
}

/// A divergence between the native baseline and one engine configuration —
/// the fuzzer's unit of discovery.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The configuration that disagreed with native execution.
    pub config: FuzzConfig,
    /// The first differing axis: one of [`check_transparent`]'s, or
    /// `violations` for a verified run the verifier flagged.
    pub divergence: Divergence,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} diverged on {}", self.config, self.divergence)
    }
}

/// Run the native interpreter baseline.
pub fn run_native_baseline(image: &Image, cpu: CpuKind) -> RunResult {
    run_native(image, cpu)
}

/// Run one engine configuration to completion; `stats` include a verified
/// run's final sweep.
pub fn run_engine(image: &Image, cfg: FuzzConfig, cpu: CpuKind) -> RioRunResult {
    drive(image, &cfg.run(), cpu).result
}

/// Compare one engine run against the native baseline: the transparency
/// check, then zero verifier violations.
pub fn compare(cfg: FuzzConfig, native: &RunResult, engine: &RioRunResult) -> Result<(), Mismatch> {
    let mismatch = |divergence| Mismatch {
        config: cfg,
        divergence,
    };
    check_transparent(native, engine).map_err(mismatch)?;
    let violations = engine.stats.violations;
    if violations != 0 {
        let fault = engine.fault.as_ref().map(|f| &f.message);
        return Err(mismatch(Divergence {
            axis: "violations",
            native: "0".into(),
            engine: format!("{violations} (fault: {fault:?})"),
        }));
    }
    Ok(())
}

/// Summary of a clean matrix pass.
#[derive(Clone, Debug)]
pub struct CheckSummary {
    /// Number of engine configurations that agreed with native.
    pub configs: usize,
    /// The (shared) final-state digest.
    pub state_digest: u64,
    /// The (shared) exit code.
    pub exit_code: i32,
    /// The (shared) output.
    pub output: String,
}

/// Run the full configuration matrix over a compiled image and compare
/// every point against the native baseline. The first divergence wins (the
/// matrix order is fixed, so "first" is deterministic).
pub fn check_image(image: &Image, cpu: CpuKind) -> Result<CheckSummary, Box<Mismatch>> {
    let native = run_native_baseline(image, cpu);
    let matrix = FuzzConfig::matrix();
    for &cfg in &matrix {
        let engine = run_engine(image, cfg, cpu);
        compare(cfg, &native, &engine).map_err(Box::new)?;
    }
    Ok(CheckSummary {
        configs: matrix.len(),
        state_digest: native.state_digest,
        exit_code: native.exit_code,
        output: native.output,
    })
}

/// Whether `cfg` still diverges from native on `image` (the shrinker's
/// config-axis oracle).
pub fn diverges(image: &Image, cfg: FuzzConfig, cpu: CpuKind) -> bool {
    let native = run_native_baseline(image, cpu);
    let engine = run_engine(image, cfg, cpu);
    compare(cfg, &native, &engine).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_axis_pair() {
        let m = FuzzConfig::matrix();
        assert_eq!(m.len(), 12);
        let unique: std::collections::BTreeSet<String> = m.iter().map(|c| c.to_string()).collect();
        assert_eq!(unique.len(), 12);
    }

    #[test]
    fn labels_round_trip() {
        for cfg in FuzzConfig::matrix() {
            assert_eq!(FuzzConfig::parse(&cfg.to_string()), Some(cfg));
        }
        assert_eq!(FuzzConfig::parse("nonsense"), None);
        assert_eq!(FuzzConfig::parse("full+nonsense"), None);
    }

    #[test]
    fn simpler_configs_are_strictly_simpler() {
        for cfg in FuzzConfig::matrix() {
            for s in cfg.simpler() {
                assert_ne!(s, cfg);
                assert!(
                    (s.engine, s.client) < (cfg.engine, cfg.client),
                    "{s} is not simpler than {cfg}"
                );
            }
        }
        // The simplest point has nowhere to go.
        assert!(FuzzConfig {
            engine: EngineConfig::Emulate,
            client: ClientKind::Null
        }
        .simpler()
        .is_empty());
    }

    #[test]
    fn a_trivial_program_passes_the_whole_matrix() {
        let image = rio_workloads::compile(
            "fn main() { var s = 0; var i = 0; while (i < 50) { s = s + i; i++; } print(s); return 7; }",
        )
        .expect("compile");
        let summary = check_image(&image, CpuKind::Pentium4).expect("matrix agrees");
        assert_eq!(summary.configs, 12);
        assert_eq!(summary.exit_code, 7);
        assert_eq!(summary.output, "1225\n");
    }
}
