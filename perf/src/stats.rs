//! Order statistics over benchmark samples.
//!
//! Quantiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles`, so the spreads printed here are the ones
//! Python computes from the same samples.

/// One metric's samples reduced to median, quartiles and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = if sorted.len() == 1 {
            (median, median)
        } else {
            (
                quantile_sorted(&sorted, 1, 4),
                quantile_sorted(&sorted, 3, 4),
            )
        };
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    median_sorted(&sorted(values))
}

/// The `i`-th of the `n`-quantile cut points of at least two sorted
/// values, by the exclusive method (`statistics.quantiles`).
fn quantile_sorted(sorted: &[f64], i: usize, n: usize) -> f64 {
    let ld = sorted.len();
    debug_assert!(ld >= 2 && 0 < i && i < n);
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Percentiles the tail rule chooses from, in per mille, increasing.
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value; `None` when even the median has fewer than
/// ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let per_mille = TAIL_LADDER
        .into_iter()
        .rev()
        .find(|p| sorted.len() * (1000 - p) >= 10 * 1000)?;
    let pct = per_mille as f64 / 10.0;
    Some((pct, percentile_sorted(&sorted, pct)))
}

/// Percentile `pct` of sorted values, exclusive interpolation clamped
/// to the sample range like [`quantile_sorted`].
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let ld = sorted.len();
    if ld == 1 {
        return sorted[0];
    }
    let h = pct / 100.0 * (ld + 1) as f64;
    let j = (h.floor() as usize).clamp(1, ld - 1);
    let delta = (h - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamp keeps the outer cut points extrapolating like Python.
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 95.0, 100.0, 105.0, 110.0]).unwrap();
        // quartiles 92.5 and 107.5 around a median of 100.
        assert!((s.spread() - 0.15).abs() < 1e-12);
        assert_eq!(Summary::of(&[7.0]).unwrap().spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=330).map(f64::from).collect();
        // 330 samples: p99 leaves 3.3 beyond it, p95 leaves 16.5.
        let (pct, value) = tail(&values).unwrap();
        assert_eq!(pct, 95.0);
        // 0.95 * 331 = 314.45 -> between the 314th and 315th values.
        assert!((value - 314.45).abs() < 1e-9);
        let (pct, _) = tail(&values[..112]).unwrap();
        assert_eq!(
            pct, 90.0,
            "112 samples leave 11.2 beyond p90, 5.6 beyond p95"
        );
        assert_eq!(tail(&values[..20]).unwrap().0, 50.0);
        assert!(tail(&values[..19]).is_none(), "median needs ten above it");
        let (pct, _) = tail(&vec![1.0; 10_000]).unwrap();
        assert_eq!(pct, 99.9);
    }
}
