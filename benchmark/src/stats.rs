//! Order statistics for the benchmark's reports.
//!
//! Everything here takes plain `f64` samples and is empty-safe: an empty
//! sample yields `None`, so a caller can only print a statistic that was
//! actually measured.

/// Sorted copy of `samples`, NaNs rejected (a NaN timing is a bug in the
/// measuring code, not a value to rank).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    assert!(v.iter().all(|x| !x.is_nan()), "NaN sample");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some((v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(samples, n=4)` (its default, "exclusive"), which
/// is what the acceptance driver computes spreads with — so a spread
/// printed here is the spread the driver will see. One sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len() as i64;
    if ld < 2 {
        return v.first().map(|&x| (x, x));
    }
    let cut = |i: i64| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = i * (ld + 1) - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p ∈ (0, 100]`: the smallest sample with at
/// least `p` percent of the samples at or below it. Nearest rank (not
/// interpolation) so a reported tail latency is one that was observed.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(percentile(&[], 99.0), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn one_sample_is_every_statistic() {
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(quartiles(&[7.5]), Some((7.5, 7.5)));
        assert_eq!(percentile(&[7.5], 50.0), Some(7.5));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
    }

    #[test]
    fn ties_do_not_move_the_statistics() {
        let v = [3.0, 3.0, 3.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quartiles(&v), Some((3.0, 3.0)));
        assert_eq!(percentile(&v, 99.0), Some(3.0));
        let w = [1.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(median(&w), Some(2.0));
        assert_eq!(percentile(&w, 50.0), Some(2.0));
        assert_eq!(percentile(&w, 80.0), Some(2.0));
        assert_eq!(percentile(&w, 81.0), Some(9.0));
    }

    #[test]
    fn median_and_quartiles_interpolate_in_any_input_order() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Values of Python's statistics.quantiles(..., n=4).
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
    }
}
