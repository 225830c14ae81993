//! Sample summaries: the median and the tail rule every timing uses.

/// The tail of a sample: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 × (n − beyond) / n`.
    pub percentile: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: with `n` samples sorted ascending that is the sample at rank
/// `n − 11` (0-based), the 11th largest, at percentile `100 (n − 10) / n`.
/// Ranks break ties, so equal values still count as beyond. `None` when
/// fewer than `TAIL_BEYOND + 1` samples exist: no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        n,
    })
}

/// Median and tail of one timing, as the report prints them.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// Tail, when the sample supports one.
    pub tail: Option<Tail>,
    /// Largest sample (the reported tail when none qualifies).
    pub max: f64,
}

impl Summary {
    /// Summarise `xs`; `None` when empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: xs.len(),
            median: median(xs)?,
            tail: tail(xs),
            max: xs.iter().copied().fold(f64::MIN, f64::max),
        })
    }

    /// The tail value, or the maximum when the sample is too small.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.max, |t| t.value)
    }

    /// `median 12.3, p90.0 45.6 (n=100, 10 beyond)`.
    pub fn describe(&self) -> String {
        match self.tail {
            Some(t) => format!(
                "median {:.3}, p{:.1} {:.3} (n={}, {} beyond)",
                self.median, t.percentile, t.value, t.n, t.beyond
            ),
            None => format!(
                "median {:.3}, max {:.3} (n={}, too few for a tail)",
                self.median, self.max, self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_eleventh_largest() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.n, 100);
        let above = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_grows_with_sample() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        let s = Summary::of(&ten).unwrap();
        assert_eq!(s.tail_value(), 9.0);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        let mut xs = vec![1.0; 5];
        xs.extend(std::iter::repeat_n(7.0, 20));
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 7.0);
        assert_eq!(t.percentile, 60.0);
    }
}
