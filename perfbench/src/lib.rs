//! # perfbench — one benchmark for the node C/R path, the Monte-Carlo
//! fleet and the paper sweep
//!
//! `perfbench --workload <node_cycle|fleet|paper_sweep> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload as a sequence of
//! passes, each a fresh child process (cold caches, and set-up measured
//! from process spawn), until `--seconds` have elapsed and enough
//! samples exist. It checks every output, prints a record of machine
//! facts and workload-specific figures, and ends with one JSON line of
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` in this directory.

pub mod fleet;
pub mod machine;
pub mod metrics;
pub mod node_cycle;
pub mod report;
pub mod run;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::time::{SystemTime, UNIX_EPOCH};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Checkpoint → durable → restore on one compute node.
    NodeCycle,
    /// Monte-Carlo replicas of `Local + I/O-NDP`.
    Fleet,
    /// Figs. 4, 5, 8 and 9, cold.
    PaperSweep,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::NodeCycle, Workload::Fleet, Workload::PaperSweep];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeCycle => "node_cycle",
            Workload::Fleet => "fleet",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs one pass in this process.
    pub fn run_pass(self, ctx: &Ctx) -> report::PassReport {
        match self {
            Workload::NodeCycle => node_cycle::run(ctx),
            Workload::Fleet => fleet::run(ctx),
            Workload::PaperSweep => sweep::run(ctx),
        }
    }

    /// Untraced passes a run makes at least: enough for 100 samples per
    /// `_p90` on `node_cycle`, and a median of three elsewhere.
    pub fn min_passes(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 2,
            (Workload::NodeCycle, false) => 4,
            _ => 3,
        }
    }

    /// Worker threads: `node_cycle` is single-threaded by design.
    pub fn threads(self) -> usize {
        match self {
            Workload::NodeCycle => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// What one pass needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Index of this pass within the run.
    pub pass: u64,
    /// Tiny inputs (self-test).
    pub tiny: bool,
    /// Record spans and run the traced-only probes.
    pub trace: bool,
    /// Flip a bit of one remote object before the remote restores
    /// (negative self-test: the output checks must trip).
    pub tamper: bool,
    /// Wall-clock instant the parent spawned this process, ns since the
    /// Unix epoch; set-up time is measured from it.
    pub spawned_at_ns: u128,
    /// Worker threads for the fan-out workloads.
    pub threads: usize,
}

impl Ctx {
    /// A context whose set-up clock starts now (in-process passes).
    pub fn new(workload: Workload, seed: u64, tiny: bool, trace: bool) -> Ctx {
        Ctx {
            seed,
            pass: 0,
            tiny,
            trace,
            tamper: false,
            spawned_at_ns: unix_ns(),
            threads: workload.threads(),
        }
    }

    /// Seconds since the process was spawned.
    pub fn since_spawn(&self) -> f64 {
        unix_ns().saturating_sub(self.spawned_at_ns) as f64 / 1e9
    }
}

/// Wall clock, ns since the Unix epoch.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// SplitMix64: the benchmark's own seeded generator for input order.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}
