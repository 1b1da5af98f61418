//! Descriptive statistics over series values.
//!
//! These are the measures the paper names when discussing output quality
//! ("the statistics (e.g., correlation, sparseness, autocorrelation) of
//! the output of flexibility extraction", §3.1), implemented natively so
//! the workspace has no external analytics dependency (§5 ref \[11\]).
//!
//! All functions operate on plain `&[f64]` so they work on whole series
//! ([`crate::TimeSeries::values`]), slices of days, decomposition
//! components, or flex-offer profiles alike.

/// Arithmetic mean; `None` on empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divide by `n`); `None` on empty input.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (divide by `n-1`); `None` when fewer than 2 values.
pub fn sample_variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Smallest value; `None` on empty input.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(a) => Some(a.min(v)),
    })
}

/// Largest value; `None` on empty input.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(a) => Some(a.max(v)),
    })
}

/// Linear-interpolated quantile, `q` in `[0, 1]`; `None` on empty input
/// or out-of-range `q`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    quantile_in_place(&mut xs.to_vec(), q)
}

/// [`quantile`] computed by sorting `xs` itself instead of a copy, for
/// callers that reuse one scratch buffer across many windows.
pub fn quantile_in_place(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("series values are finite"));
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(xs[lo] * (1.0 - frac) + xs[hi] * frac)
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Pearson correlation coefficient of two equal-length slices.
///
/// `None` if lengths differ, fewer than 2 points, or either side has
/// zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Autocorrelation of `xs` at `lag` (biased estimator, normalised by the
/// full-series variance). `None` when `lag >= len` or variance is zero.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    let n = xs.len();
    if lag >= n {
        return None;
    }
    let m = mean(xs)?;
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return None;
    }
    let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
    Some(num / denom)
}

/// Cross-correlation of `xs` against `ys` shifted by `lag`
/// (`ys[i + lag]` paired with `xs[i]`), normalised like Pearson over the
/// overlapping window.
pub fn cross_correlation(xs: &[f64], ys: &[f64], lag: usize) -> Option<f64> {
    if lag >= ys.len() {
        return None;
    }
    let n = xs.len().min(ys.len() - lag);
    if n < 2 {
        return None;
    }
    pearson(&xs[..n], &ys[lag..lag + n])
}

/// Sparseness: the fraction of values with magnitude at most `eps`.
///
/// Consumption series are dense; *extracted flexibility* series are
/// sparse — most intervals carry no flexible energy. The paper lists
/// sparseness among the statistics by which extraction output would be
/// judged (§3.1).
pub fn sparseness(xs: &[f64], eps: f64) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.iter().filter(|v| v.abs() <= eps).count() as f64 / xs.len() as f64
}

/// Root-mean-square error between two equal-length slices.
pub fn rmse(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let se: f64 = xs.iter().zip(ys).map(|(x, y)| (x - y) * (x - y)).sum();
    Some((se / xs.len() as f64).sqrt())
}

/// Mean absolute error between two equal-length slices.
pub fn mae(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    Some(xs.iter().zip(ys).map(|(x, y)| (x - y).abs()).sum::<f64>() / xs.len() as f64)
}

/// Z-score normalisation: `(x - mean) / std`. Returns the input copied
/// unchanged when the standard deviation is (numerically) zero, which is
/// the convention SAX uses for flat windows.
pub fn znormalize(xs: &[f64]) -> Vec<f64> {
    match (mean(xs), std_dev(xs)) {
        (Some(m), Some(s)) if s > 1e-12 => xs.iter().map(|x| (x - m) / s).collect(),
        _ => xs.to_vec(),
    }
}

/// Shannon entropy (nats) of a discrete distribution given by
/// non-negative weights; zero-weight bins are skipped. `None` if the
/// total weight is not positive.
pub fn entropy(weights: &[f64]) -> Option<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    Some(
        weights
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| {
                let p = w / total;
                -p * p.ln()
            })
            .sum(),
    )
}

/// Normalised entropy in `[0, 1]`: [`entropy`] divided by `ln(len)`.
///
/// 1 means perfectly uniform (the paper's criticism of the random
/// baseline: "macro flex-offers are more or less uniformly dispatched
/// within the day"), 0 means fully concentrated in one bin.
pub fn normalized_entropy(weights: &[f64]) -> Option<f64> {
    if weights.len() < 2 {
        return None;
    }
    Some(entropy(weights)? / (weights.len() as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mean_variance_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs).unwrap() - 2.5).abs() < EPS);
        assert!((variance(&xs).unwrap() - 1.25).abs() < EPS);
        assert!((sample_variance(&xs).unwrap() - 5.0 / 3.0).abs() < EPS);
        assert!((std_dev(&xs).unwrap() - 1.25_f64.sqrt()).abs() < EPS);
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(sample_variance(&[1.0]), None);
    }

    #[test]
    fn min_max_quantiles() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(9.0));
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
        assert_eq!(quantile(&xs, 1.5), None);
        assert_eq!(quantile(&[], 0.5), None);
        // Interpolation between sorted neighbours.
        let ys = [0.0, 10.0];
        assert!((quantile(&ys, 0.25).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < EPS);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < EPS);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), None); // zero variance
        assert_eq!(pearson(&xs, &ys[..3]), None); // length mismatch
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        // Period-4 sawtooth: lag-4 autocorrelation is strongly positive,
        // lag-2 strongly negative.
        let xs: Vec<f64> = (0..64).map(|i| (i % 4) as f64).collect();
        let r4 = autocorrelation(&xs, 4).unwrap();
        let r2 = autocorrelation(&xs, 2).unwrap();
        assert!(r4 > 0.8, "lag-4 {r4}");
        assert!(r2 < 0.0, "lag-2 {r2}");
        assert!((autocorrelation(&xs, 0).unwrap() - 1.0).abs() < EPS);
        assert_eq!(autocorrelation(&xs, 64), None);
        assert_eq!(autocorrelation(&[1.0, 1.0], 1), None); // zero variance
    }

    #[test]
    fn cross_correlation_detects_shift() {
        let base: Vec<f64> = (0..32).map(|i| ((i % 8) as f64 - 3.5).abs()).collect();
        let shifted: Vec<f64> = base.iter().cycle().skip(3).take(32).copied().collect();
        // Correlation at the matching lag is (near) perfect.
        let at3 = cross_correlation(&base, &shifted, 5).unwrap(); // 3+5=8 ≡ period
        assert!(at3 > 0.99, "{at3}");
        assert_eq!(cross_correlation(&base, &shifted, 32), None);
    }

    #[test]
    fn sparseness_counts_zeros() {
        let xs = [0.0, 0.0, 1.0, 0.0];
        assert!((sparseness(&xs, 0.0) - 0.75).abs() < EPS);
        assert!((sparseness(&xs, 2.0) - 1.0).abs() < EPS);
        assert_eq!(sparseness(&[], 0.0), 1.0);
    }

    #[test]
    fn error_metrics() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 5.0];
        assert!((rmse(&xs, &ys).unwrap() - (4.0_f64 / 3.0).sqrt()).abs() < EPS);
        assert!((mae(&xs, &ys).unwrap() - 2.0 / 3.0).abs() < EPS);
        assert_eq!(rmse(&xs, &ys[..2]), None);
        assert_eq!(mae(&[], &[]), None);
    }

    #[test]
    fn znormalize_properties() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let z = znormalize(&xs);
        assert!(mean(&z).unwrap().abs() < EPS);
        assert!((std_dev(&z).unwrap() - 1.0).abs() < EPS);
        // Flat input passes through unchanged.
        let flat = [2.0, 2.0, 2.0];
        assert_eq!(znormalize(&flat), flat.to_vec());
    }

    #[test]
    fn entropy_extremes() {
        // Uniform → maximal, concentrated → zero.
        let uniform = [1.0, 1.0, 1.0, 1.0];
        assert!((normalized_entropy(&uniform).unwrap() - 1.0).abs() < EPS);
        let point = [1.0, 0.0, 0.0, 0.0];
        assert!(normalized_entropy(&point).unwrap().abs() < EPS);
        assert_eq!(entropy(&[0.0, 0.0]), None);
        assert_eq!(normalized_entropy(&[1.0]), None);
    }
}
