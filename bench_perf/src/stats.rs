//! Sample statistics: median, quartiles and the tail percentile.

/// Distribution of one metric over a run's samples.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Summary {
    pub(crate) median: f64,
    pub(crate) q1: f64,
    pub(crate) q3: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) n: usize,
    /// `(percentile, value)` on the worse side of the distribution,
    /// present once at least ten samples lie beyond it.
    pub(crate) tail: Option<(u32, f64)>,
}

/// Summarizes `values` (at least one). The quartiles follow the
/// exclusive method of Python's `statistics.quantiles(values, n=4)`, so
/// spreads computed from the printed numbers and from a script agree.
pub(crate) fn summarize(values: &[f64], higher_is_better: bool) -> Summary {
    assert!(!values.is_empty(), "a summary needs at least one sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let [q1, median, q3] = quartiles(&sorted);
    Summary {
        median,
        q1,
        q3,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        n: sorted.len(),
        tail: tail(&sorted, higher_is_better),
    }
}

/// Python's exclusive-method quartiles of an ascending slice; a single
/// sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile with at least ten samples beyond it, on the
/// worse side: the `(n-10)`-th best sample, so ten samples are worse.
fn tail(sorted: &[f64], higher_is_better: bool) -> Option<(u32, f64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let pct = (100 * (n - 10) / n) as u32;
    let value = if higher_is_better {
        sorted[10]
    } else {
        sorted[n - 11]
    };
    Some((pct, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0], false);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
    }

    #[test]
    fn even_count_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 3.0, 2.0, 1.0], false);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0], false);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_distribution() {
        let s = summarize(&[7.5], true);
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert_eq!((s.n, s.tail), (1, None));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&ten, false).tail, None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Ten samples (2..=11) are worse than the best one.
        assert_eq!(summarize(&eleven, false).tail, Some((9, 1.0)));
        // Higher is better: ten samples (1..=10) are worse than 11.
        assert_eq!(summarize(&eleven, true).tail, Some((9, 11.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&twenty, false).tail, Some((50, 10.0)));
        assert_eq!(summarize(&twenty, true).tail, Some((50, 11.0)));
    }
}
