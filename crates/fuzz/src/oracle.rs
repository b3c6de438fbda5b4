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
//! with the null and combined clients. Every run must match the baseline's
//! output, exit code, and final register/global state digest, and verified
//! runs must report zero violations. Any difference is a [`Mismatch`] —
//! a finding, never a flake, because every run is deterministic.

use std::fmt;

use rio_clients::ClientKind;
use rio_core::Options;
use rio_sim::{run_native, CpuKind, Image};

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
    /// Full system driven through one-instruction [`Rio::step`] budgets, so
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

/// Everything one run exposes for comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Application exit code.
    pub exit_code: i32,
    /// Buffered application output.
    pub output: String,
    /// Final register + global-state digest
    /// ([`rio_sim::Machine::app_state_digest`]).
    pub state_digest: u64,
    /// Verifier violations (always 0 for unverified runs).
    pub violations: u64,
    /// Unhandled terminal fault, if any.
    pub fault: Option<String>,
}

/// A divergence between the native baseline and one engine configuration —
/// the fuzzer's unit of discovery.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The configuration that disagreed with native execution.
    pub config: FuzzConfig,
    /// Which comparison failed (`output`, `exit code`, `state digest`,
    /// `violations`).
    pub axis: &'static str,
    /// What the native baseline produced.
    pub expected: String,
    /// What the engine configuration produced.
    pub actual: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diverged on {}: native {:?} vs {:?}",
            self.config, self.axis, self.expected, self.actual
        )
    }
}

/// Run the native interpreter baseline.
pub fn run_native_baseline(image: &Image, cpu: CpuKind) -> Outcome {
    let r = run_native(image, cpu);
    Outcome {
        exit_code: r.exit_code,
        output: r.output,
        state_digest: r.state_digest,
        violations: 0,
        fault: None,
    }
}

/// Run one engine configuration to completion.
pub fn run_engine(image: &Image, cfg: FuzzConfig, cpu: CpuKind) -> Outcome {
    let o = drive(image, &cfg.run(), cpu);
    Outcome {
        exit_code: o.result.exit_code,
        output: o.result.app_output,
        state_digest: o.state_digest,
        violations: o.result.stats.violations,
        fault: o.result.fault.map(|f| f.message),
    }
}

/// Compare one engine outcome against the native baseline.
pub fn compare(cfg: FuzzConfig, native: &Outcome, engine: &Outcome) -> Result<(), Mismatch> {
    let mismatch = |axis, expected: String, actual: String| {
        Err(Mismatch {
            config: cfg,
            axis,
            expected,
            actual,
        })
    };
    if engine.output != native.output {
        return mismatch("output", native.output.clone(), engine.output.clone());
    }
    if engine.exit_code != native.exit_code {
        return mismatch(
            "exit code",
            native.exit_code.to_string(),
            engine.exit_code.to_string(),
        );
    }
    if engine.state_digest != native.state_digest {
        return mismatch(
            "state digest",
            format!("{:016x}", native.state_digest),
            format!("{:016x}", engine.state_digest),
        );
    }
    if engine.violations != 0 {
        return mismatch(
            "violations",
            "0".into(),
            format!("{} (fault: {:?})", engine.violations, engine.fault),
        );
    }
    Ok(())
}

/// Summary of a clean matrix pass.
#[derive(Clone, Copy, Debug)]
pub struct CheckSummary {
    /// Number of engine configurations that agreed with native.
    pub configs: usize,
    /// The (shared) final-state digest.
    pub state_digest: u64,
    /// The (shared) exit code.
    pub exit_code: i32,
    /// Number of output lines the program printed.
    pub output_lines: usize,
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
        output_lines: native.output.lines().count(),
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
        assert_eq!(summary.output_lines, 1);
    }
}
