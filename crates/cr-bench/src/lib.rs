//! # cr-bench — the reproduction harness
//!
//! One function per table/figure of the paper's evaluation, shared by
//! the `repro_*` binaries (which print them) and the workspace
//! integration tests (which assert their shape). See DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured
//! numbers.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod table;

use std::env;

/// Runtime knobs for the repro binaries, read from the environment:
///
/// * `REPRO_REPLICAS` — simulation replicas per data point (default 4)
/// * `REPRO_FAILURES` — failures injected per replica (default 2000)
/// * `REPRO_MB` — synthetic checkpoint image size in MiB (default 8)
/// * `REPRO_SEED` — base seed (default 42)
#[derive(Debug, Clone, Copy)]
pub struct ReproOpts {
    /// Simulation replicas per data point.
    pub replicas: u64,
    /// Minimum failures injected per replica.
    pub failures: u64,
    /// Synthetic checkpoint image size, MiB.
    pub image_mb: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ReproOpts {
    /// Reads the knobs from the environment with the documented
    /// defaults.
    pub fn from_env() -> Self {
        let get = |name: &str, default: u64| -> u64 {
            env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        ReproOpts {
            replicas: get("REPRO_REPLICAS", 4),
            failures: get("REPRO_FAILURES", 2000),
            image_mb: get("REPRO_MB", 8) as usize,
            seed: get("REPRO_SEED", 42),
        }
    }

    /// Tiny settings for integration tests.
    pub fn quick() -> Self {
        ReproOpts {
            replicas: 2,
            failures: 400,
            image_mb: 2,
            seed: 42,
        }
    }

    /// The simulator options corresponding to these knobs.
    pub fn sim_options(&self) -> cr_sim::SimOptions {
        cr_sim::SimOptions {
            seed: self.seed,
            min_failures: self.failures,
            min_work: 0.0,
            max_wall: 1e12,
        }
    }
}
