//! Order statistics over a handful of timed reps.

/// Median, extremes and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), so the
    /// numbers printed here are the ones an outside checker computes; a
    /// single sample is its own median and quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        let n = v.len();
        // Python's exclusive method: the i-th of 4 cut points sits at
        // i*(n+1)/4 on the 1-based sample, between neighbours j and j+1
        // with j kept inside the sample (so the ends extrapolate).
        let at = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: at(1),
            median: at(2),
            q3: at(3),
            max: v[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }

    #[test]
    fn even_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.5]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
    }

    #[test]
    fn two_and_three_samples_match_python() {
        // statistics.quantiles([1,2,4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[2.0, 4.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
