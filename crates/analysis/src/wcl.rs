//! Per-request worst-case latency bounds (Eq. 1 and the baseline bounds).

use cohort_types::{Cycles, LatencyConfig};

pub use cohort_types::wcl_miss;

/// Per-request worst-case latency of the **PCC** baseline: predictable
/// snooping coherence in which every core-to-core hand-over is staged
/// through the shared memory (write-back + refetch), doubling the data
/// occupancy of each hand-over:
///
/// ```text
/// staged  = request + 2·data + memory
/// WCL_pcc = staged            (an in-flight staged transaction drains)
///         + (N−1)·(2·data + memory)   (one hand-over per interferer)
///         + staged            (own broadcast + staged fill)
/// ```
///
/// Under RROF each interfering core appears on the request's critical path
/// at most once (after being served it rotates behind the requester, which
/// always holds a candidate), so the bound charges one staged hand-over per
/// interferer plus the worst in-flight transaction at issue.
///
/// # Examples
///
/// ```
/// use cohort_analysis::wcl_pcc;
/// use cohort_types::LatencyConfig;
///
/// assert_eq!(wcl_pcc(4, &LatencyConfig::paper()).get(), 2 * 104 + 3 * 100);
/// ```
///
/// # Panics
///
/// Panics if `cores` is zero.
#[must_use]
pub fn wcl_pcc(cores: usize, latency: &LatencyConfig) -> Cycles {
    assert!(cores > 0, "a system needs at least one core");
    let staged = latency.request + latency.data * 2 + latency.memory;
    let hop = latency.data * 2 + latency.memory;
    staged + hop * (cores as u64 - 1) + staged
}

/// Per-request worst-case latency of a **critical** core under the
/// PENDULUM baseline (uniform time-based coherence, TDM arbitration over
/// the `n_cr` critical cores, non-critical cores served only in idle slots
/// and never ahead of critical waiters):
///
/// ```text
/// P        = n_cr · SW                       (TDM period)
/// WCL_pend = P + Σ_{j≠i, Cr} (θ + 2·P) + Σ_{j, nCr} (θ + P) + SW
/// ```
///
/// PENDULUM's protocol is *uniform*: every holder — critical or not —
/// keeps a line for the global θ, so each interferer contributes its hold
/// time. Critical interferers cost up to two TDM periods of slot
/// misalignment (their fill slot plus the requester's slot); non-critical
/// interferers cost one period (priority queues let critical requests jump
/// ahead of queued nCr waiters, but a current nCr holder still holds θ).
/// Non-critical cores themselves have **no bound** — PENDULUM's documented
/// limitation — so callers model them with `None`.
///
/// # Examples
///
/// ```
/// use cohort_analysis::wcl_pendulum;
/// use cohort_types::LatencyConfig;
///
/// // 2 critical + 2 non-critical cores, θ = 100.
/// let bound = wcl_pendulum(2, 2, 100, &LatencyConfig::paper());
/// let p = 2 * 54;
/// assert_eq!(bound.get(), p + (100 + 2 * p) + 2 * (100 + p) + 54);
/// ```
///
/// # Panics
///
/// Panics if `critical_cores` is zero.
#[must_use]
pub fn wcl_pendulum(
    critical_cores: usize,
    noncritical_cores: usize,
    theta: u64,
    latency: &LatencyConfig,
) -> Cycles {
    assert!(critical_cores > 0, "PENDULUM needs at least one critical core");
    let sw = latency.effective_slot();
    let period = sw * critical_cores as u64;
    let cr_interference = (Cycles::new(theta) + period * 2) * (critical_cores as u64 - 1);
    let ncr_interference = (Cycles::new(theta) + period) * noncritical_cores as u64;
    period + cr_interference + ncr_interference + sw
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_types::TimerValue;

    fn timed(theta: u64) -> TimerValue {
        TimerValue::timed(theta).unwrap()
    }

    #[test]
    fn eq1_matches_paper_structure() {
        let lat = LatencyConfig::paper();
        // Heterogeneous: θ = [300, 20, −1, 20]; bound for c0 counts the
        // timers of c1 and c3 only.
        let timers = [timed(300), timed(20), TimerValue::MSI, timed(20)];
        let expected = 54 + 3 * 54 + (20 + 54) + (20 + 54);
        assert_eq!(wcl_miss(0, &timers, &lat).get(), expected);
        // For c2 (MSI), all three timed interferers count.
        let expected_c2 = 54 + 3 * 54 + (300 + 54) + (20 + 54) + (20 + 54);
        assert_eq!(wcl_miss(2, &timers, &lat).get(), expected_c2);
    }

    #[test]
    fn eq1_excludes_own_timer() {
        let lat = LatencyConfig::paper();
        let timers = [timed(500), TimerValue::MSI];
        assert_eq!(wcl_miss(0, &timers, &lat).get(), 108, "own θ ignored");
        assert_eq!(wcl_miss(1, &timers, &lat).get(), 108 + 500 + 54);
    }

    #[test]
    fn eq1_single_core_is_one_slot() {
        let lat = LatencyConfig::paper();
        assert_eq!(wcl_miss(0, &[TimerValue::MSI], &lat).get(), 54);
    }

    #[test]
    fn memory_latency_inflates_all_slots() {
        let lat = LatencyConfig::paper().with_memory(100);
        let timers = [TimerValue::MSI; 2];
        assert_eq!(wcl_miss(0, &timers, &lat).get(), 2 * 154);
    }

    #[test]
    fn pcc_grows_linearly_with_cores() {
        let lat = LatencyConfig::paper();
        let w2 = wcl_pcc(2, &lat).get();
        let w4 = wcl_pcc(4, &lat).get();
        assert_eq!(w4 - w2, 2 * 100);
        // PCC is never tighter than plain-MSI Eq. 1 (staged hand-overs).
        assert!(w4 > wcl_miss(0, &[TimerValue::MSI; 4], &lat).get());
    }

    #[test]
    fn pendulum_dwarfs_cohort_for_same_timers() {
        // The qualitative Figure-5 relationship: PENDULUM's TDM-period
        // terms dominate CoHoRT's slot terms for identical θ.
        let lat = LatencyConfig::paper();
        let theta = 300;
        let cohort = wcl_miss(0, &[timed(theta); 4], &lat);
        let pendulum = wcl_pendulum(4, 0, theta, &lat);
        assert!(pendulum > cohort, "{pendulum} vs {cohort}");
    }

    #[test]
    fn pendulum_single_critical_has_no_theta_terms() {
        let lat = LatencyConfig::paper();
        let bound = wcl_pendulum(1, 3, 500, &lat);
        // P = SW; no critical interferer; 3 nCr holders (θ + P) + own.
        assert_eq!(bound.get(), 54 + 3 * (500 + 54) + 54);
    }
}
