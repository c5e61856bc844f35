//! Joint optimisation of checkpointing policy: the locally-saved :
//! I/O-saved ratio *and* the local checkpoint interval together.
//!
//! The paper fixes the interval at Daly's single-level optimum and
//! optimizes the ratio empirically (§6.1.3, §6.2). For deployments off
//! the paper's design point (slow NVM, unusual MTTI), the two knobs
//! interact: rarer I/O checkpoints shift the optimum interval. This
//! module searches both, for host and NDP configurations.

use crate::cache::solve_cycle_cached;
use crate::daly;
use crate::params::{CompressionSpec, Strategy, SystemParams};

/// Result of a joint policy search.
#[derive(Debug, Clone, Copy)]
pub struct PolicyChoice {
    /// The optimised strategy.
    pub strategy: Strategy,
    /// Its progress rate under the analytic model.
    pub progress: f64,
    /// The local checkpoint interval chosen, seconds.
    pub interval: f64,
    /// The locally-saved : I/O-saved ratio chosen.
    pub ratio: u32,
}

/// Multipliers applied to Daly's optimum interval to form the candidate
/// grid (the response surface is flat near the optimum, so a coarse
/// multiplicative grid suffices — see the interval study in `crx repro
/// ablations`).
pub const INTERVAL_MULTIPLIERS: [f64; 7] =
    [0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2.0];

/// Interval candidates for a system, as a fixed-size array: the joint
/// searches call this inside their grid loops, so it must not allocate.
fn interval_candidates(sys: &SystemParams) -> [f64; 7] {
    let tau_opt = daly::optimum_interval(sys.mtti, sys.delta_local());
    INTERVAL_MULTIPLIERS.map(|m| tau_opt * m)
}

/// Jointly optimises interval and ratio for `Local + I/O-Host`.
pub fn best_host_policy(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
) -> PolicyChoice {
    let mut best: Option<PolicyChoice> = None;
    for &tau in &interval_candidates(sys) {
        let (ratio, progress) = crate::ratio_opt::best_host_ratio_at(
            sys,
            p_local,
            compression,
            Some(tau),
        );
        if best.map(|b| progress > b.progress).unwrap_or(true) {
            best = Some(PolicyChoice {
                strategy: Strategy::LocalIoHost {
                    interval: Some(tau),
                    ratio,
                    p_local,
                    compression,
                },
                progress,
                interval: tau,
                ratio,
            });
        }
    }
    best.expect("candidate grid is non-empty")
}

/// Jointly optimises the interval for `Local + I/O-NDP` (the ratio is
/// always the fastest sustainable one).
pub fn best_ndp_policy(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
) -> PolicyChoice {
    let mut best: Option<PolicyChoice> = None;
    for &tau in &interval_candidates(sys) {
        let strategy = Strategy::LocalIoNdp {
            interval: Some(tau),
            ratio: None,
            p_local,
            compression,
            drain_lag: Default::default(),
        };
        let sol = solve_cycle_cached(sys, &strategy);
        let progress = sol.progress_rate();
        if best.map(|b| progress > b.progress).unwrap_or(true) {
            best = Some(PolicyChoice {
                strategy,
                progress,
                interval: tau,
                ratio: sol.ratio,
            });
        }
    }
    best.expect("candidate grid is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::*;

    #[test]
    fn joint_search_beats_or_ties_fixed_interval() {
        // On the default system, 150 s is near-optimal; the joint search
        // must do at least as well.
        let sys = SystemParams::exascale_default();
        let fixed =
            crate::ratio_opt::best_host_strategy(&sys, 0.85, None).1;
        let joint = best_host_policy(&sys, 0.85, None);
        assert!(
            joint.progress >= fixed - 1e-9,
            "joint {} < fixed {fixed}",
            joint.progress
        );
    }

    #[test]
    fn joint_ndp_search_beats_or_ties_fixed_interval() {
        // Same regression, NDP side, through the memoized solver: the
        // 7-candidate grid must never do worse than the paper's fixed
        // 150 s interval.
        let sys = SystemParams::exascale_default();
        let fixed = crate::analytic::progress_rate(
            &sys,
            &Strategy::local_io_ndp(0.85, None),
        );
        let joint = best_ndp_policy(&sys, 0.85, None);
        assert!(
            joint.progress >= fixed - 1e-9,
            "joint {} < fixed {fixed}",
            joint.progress
        );
    }

    #[test]
    fn candidate_grid_matches_multipliers() {
        let sys = SystemParams::exascale_default();
        let tau_opt =
            crate::daly::optimum_interval(sys.mtti, sys.delta_local());
        let grid = interval_candidates(&sys);
        assert_eq!(grid.len(), INTERVAL_MULTIPLIERS.len());
        for (c, m) in grid.iter().zip(INTERVAL_MULTIPLIERS) {
            assert_eq!(*c, tau_opt * m);
        }
    }

    #[test]
    fn slow_nvm_prefers_longer_intervals() {
        // With a 2 GB/s NVM the 56 s commit forces intervals far above
        // 150 s.
        let sys = SystemParams::exascale_default().with_local_bw(2.0 * GB);
        let joint = best_host_policy(&sys, 0.85, None);
        assert!(
            joint.interval > 250.0,
            "interval {} too short for 56 s commits",
            joint.interval
        );
    }

    #[test]
    fn ndp_policy_reports_sustainable_ratio() {
        let sys = SystemParams::exascale_default();
        let choice =
            best_ndp_policy(&sys, 0.85, Some(CompressionSpec::gzip1_ndp()));
        assert!(choice.ratio >= 1);
        assert!(choice.progress > 0.8);
        // Longer intervals lower the sustainable ratio bound, so the
        // chosen ratio stays small.
        assert!(choice.ratio <= 4, "ratio {}", choice.ratio);
    }

    #[test]
    fn ndp_beats_host_after_joint_optimisation() {
        // The paper's conclusion must survive giving the host its best
        // possible policy.
        let sys = SystemParams::exascale_default();
        for p_local in [0.5, 0.85, 0.96] {
            let host = best_host_policy(
                &sys,
                p_local,
                Some(CompressionSpec::gzip1_host()),
            );
            let ndp = best_ndp_policy(
                &sys,
                p_local,
                Some(CompressionSpec::gzip1_ndp()),
            );
            assert!(
                ndp.progress > host.progress,
                "p={p_local}: ndp {} <= host {}",
                ndp.progress,
                host.progress
            );
        }
    }
}
