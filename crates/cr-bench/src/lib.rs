//! # cr-bench — the reproduction harness
//!
//! One function per table/figure of the paper's evaluation
//! ([`experiments`]), rendered as text by [`repro`] for `crx repro
//! <id>` and asserted on by the workspace integration tests. See
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod repro;
pub mod table;

/// Fidelity knobs for the simulation- and codec-backed experiments;
/// `crx repro` sets them from `--replicas`, `--failures`, `--mb` and
/// `--seed`.
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

impl Default for ReproOpts {
    /// 4 replicas, 2000 failures, 8 MiB images, seed 42.
    fn default() -> Self {
        ReproOpts {
            replicas: 4,
            failures: 2000,
            image_mb: 8,
            seed: 42,
        }
    }
}

impl ReproOpts {
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
