//! Order statistics with the sample-count guard the benchmark's metric
//! definitions rely on.

/// Samples that must lie beyond a percentile before it may be reported:
/// with fewer, the figure is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why a statistic was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Too few samples beyond the percentile.
    TooFewBeyond {
        /// The quantile asked for.
        q: f64,
        /// Samples supplied.
        samples: usize,
        /// Samples beyond the quantile.
        beyond: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::TooFewBeyond { q, samples, beyond } => write!(
                f,
                "p{:.0} of {samples} samples has only {beyond} beyond it",
                q * 100.0
            ),
        }
    }
}

impl From<StatsError> for String {
    fn from(e: StatsError) -> String {
        e.to_string()
    }
}

/// Sorts `values` ascending (NaN-free input assumed; NaNs sort last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// Nearest-rank percentile `q` (0..1) of an ascending slice, refused when
/// fewer than `min_beyond` samples lie beyond it. Measuring runs pass
/// [`MIN_SAMPLES_BEYOND`]; only smoke runs, whose numbers are not
/// measurements, pass 0.
///
/// # Errors
///
/// [`StatsError::Empty`] or [`StatsError::TooFewBeyond`].
pub fn percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Result<f64, StatsError> {
    if sorted.is_empty() {
        return Err(StatsError::Empty);
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if beyond < min_beyond {
        return Err(StatsError::TooFewBeyond {
            q,
            samples: sorted.len(),
            beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// Median of an ascending slice (mean of the middle pair for even
/// lengths). No sample-count guard: used for layer probes and for
/// summarising a handful of runs, where the count is printed beside it.
///
/// # Errors
///
/// [`StatsError::Empty`].
pub fn median(sorted: &[f64]) -> Result<f64, StatsError> {
    match sorted.len() {
        0 => Err(StatsError::Empty),
        n if n % 2 == 1 => Ok(sorted[n / 2]),
        n => Ok((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of unsorted values.
///
/// # Errors
///
/// [`StatsError::Empty`].
pub fn median_of(values: &[f64]) -> Result<f64, StatsError> {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    median(&sorted)
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, which is what the
/// benchmark's acceptance rule is stated in.
///
/// # Errors
///
/// [`StatsError::Empty`] with fewer than two values.
pub fn quartiles(values: &[f64]) -> Result<[f64; 3], StatsError> {
    if values.len() < 2 {
        return Err(StatsError::Empty);
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Ok([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_guard_refuses_thin_tails() {
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: p95 is rank 190, 9 beyond -> refused.
        assert!(matches!(
            percentile(&values, 0.95, MIN_SAMPLES_BEYOND),
            Err(StatsError::TooFewBeyond { beyond: 9, .. })
        ));
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.95, MIN_SAMPLES_BEYOND), Ok(190.0));
        assert_eq!(percentile(&values, 0.50, MIN_SAMPLES_BEYOND), Ok(100.0));
        assert!(percentile(&values, 0.99, MIN_SAMPLES_BEYOND).is_err());
        assert_eq!(percentile(&values, 0.99, 0), Ok(198.0));
        assert_eq!(percentile(&[], 0.5, 0), Err(StatsError::Empty));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Ok(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Ok(3.0));
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), Ok(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Ok([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Ok([1.0, 2.0, 3.0]));
    }
}
