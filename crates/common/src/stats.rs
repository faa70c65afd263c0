//! Statistics used to reduce simulation results into the paper's numbers.
//!
//! The paper reports *geometric mean* speedups for single-core results
//! (§VI-B), *weighted speedups* for multi-core mixes (§V-B), and
//! distributions (violin plots / box ranges) for Figures 2, 14 and 15.

/// Geometric mean of strictly positive samples.
///
/// Returns 1.0 for an empty slice so that "no workloads" folds neutrally
/// into speedup arithmetic.
///
/// # Panics
///
/// Panics if any sample is not finite and positive — a speedup of zero or a
/// NaN is always an upstream bug worth failing loudly on.
///
/// ```
/// # use psa_common::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = samples
        .iter()
        .map(|&s| {
            assert!(
                s.is_finite() && s > 0.0,
                "geomean sample must be positive, got {s}"
            );
            s.ln()
        })
        .sum();
    (log_sum / samples.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Weighted speedup of a multi-core mix over a baseline, following §V-B:
/// `sum(IPC_multicore / IPC_isolation)` for the evaluated system divided by
/// the same sum for the baseline system.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or any isolation IPC is
/// non-positive.
pub fn weighted_speedup(
    eval_multicore_ipc: &[f64],
    baseline_multicore_ipc: &[f64],
    isolation_ipc: &[f64],
) -> f64 {
    assert_eq!(eval_multicore_ipc.len(), isolation_ipc.len());
    assert_eq!(baseline_multicore_ipc.len(), isolation_ipc.len());
    assert!(!isolation_ipc.is_empty(), "empty mix");
    let fold = |multi: &[f64]| -> f64 {
        multi
            .iter()
            .zip(isolation_ipc)
            .map(|(&m, &i)| {
                assert!(i > 0.0, "isolation IPC must be positive");
                m / i
            })
            .sum()
    };
    fold(eval_multicore_ipc) / fold(baseline_multicore_ipc)
}

/// Five-number summary plus mean, used to reproduce the paper's violin and
/// box distributions (Figures 2, 14, 15) in text form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistSummary {
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl DistSummary {
    /// Summarise `samples`. Returns the default (all zeros) for an empty
    /// slice.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in distribution"));
        Self {
            min: sorted[0],
            p25: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.50),
            p75: percentile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("nonempty"),
            mean: mean(samples),
            count: samples.len(),
        }
    }
}

impl std::fmt::Display for DistSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:+.2} | p25 {:+.2} | med {:+.2} | p75 {:+.2} | max {:+.2} | mean {:+.2} (n={})",
            self.min, self.p25, self.median, self.p75, self.max, self.mean, self.count
        )
    }
}

/// Linear-interpolated percentile of an already-sorted slice, `q` in [0,1].
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 8.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn weighted_speedup_neutral_when_equal() {
        let ipc = [1.0, 2.0, 0.5, 1.5];
        let iso = [2.0, 2.5, 1.0, 2.0];
        assert!((weighted_speedup(&ipc, &ipc, &iso) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_improvement() {
        // Evaluated system doubles every core's IPC → weighted speedup 2.
        let base = [1.0, 1.0];
        let eval = [2.0, 2.0];
        let iso = [4.0, 4.0];
        assert!((weighted_speedup(&eval, &base, &iso) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_normalizes_high_ipc_apps() {
        // A high-IPC app improving by 10% counts the same as a low-IPC app
        // improving by 10% — the normalisation the paper cites [16], [96].
        let base = [4.0, 0.4];
        let eval_fast_app = [4.4, 0.4];
        let eval_slow_app = [4.0, 0.44];
        let iso = [4.0, 0.4];
        let a = weighted_speedup(&eval_fast_app, &base, &iso);
        let b = weighted_speedup(&eval_slow_app, &base, &iso);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn summary_quartiles() {
        let s = DistSummary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p75, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn summary_interpolates() {
        let s = DistSummary::of(&[0.0, 1.0]);
        assert!((s.median - 0.5).abs() < 1e-12);
        assert!((s.p25 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_default() {
        assert_eq!(DistSummary::of(&[]), DistSummary::default());
    }

    #[test]
    fn summary_display_nonempty() {
        let s = DistSummary::of(&[1.0]);
        assert!(s.to_string().contains("n=1"));
    }
}
