//! Template matching: fit catalog load profiles to the measured series.
//!
//! For every candidate start (a rising edge whose magnitude is
//! compatible with an appliance's initial power), the appliance's
//! min/max power envelope is fitted by least squares over its
//! *intensity* parameter, scored by baseline-corrected normalised RMSE,
//! and — if accepted — subtracted from the series before the search
//! continues (greedy sequential extraction, largest appliances first).

use flextract_appliance::ApplianceSpec;
use flextract_series::{stats, TimeSeries};
use flextract_time::Timestamp;
use serde::{Deserialize, Serialize};

/// Distance metric for the fit score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MatchMetric {
    /// Root-mean-square error (default; punishes shape mismatch).
    #[default]
    L2,
    /// Mean absolute error (more tolerant of brief collisions with
    /// other appliances).
    L1,
}

/// Tuning knobs for [`detect_activations`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchConfig {
    /// Maximum accepted score (normalised error; lower = stricter).
    pub score_threshold: f64,
    /// Error metric.
    pub metric: MatchMetric,
    /// Rising-edge threshold as a fraction of the template's initial
    /// minimum power.
    pub edge_fraction: f64,
    /// How many minutes of pre-start data estimate the local baseline.
    pub baseline_window: usize,
    /// Fraction of the worst-fitting samples to discard before scoring
    /// (robustness against *other* appliances switching mid-cycle).
    pub trim_fraction: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            score_threshold: 0.35,
            metric: MatchMetric::L2,
            edge_fraction: 0.5,
            baseline_window: 30,
            trim_fraction: 0.25,
        }
    }
}

/// One appliance cycle recovered from the total series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectedActivation {
    /// Catalog name of the matched appliance.
    pub appliance: String,
    /// Detected cycle start.
    pub start: Timestamp,
    /// Fitted intensity in `[0, 1]`.
    pub intensity: f64,
    /// Energy attributed to the cycle (kWh).
    pub energy_kwh: f64,
    /// Fit score (normalised error; lower is better).
    pub score: f64,
}

/// Run greedy template matching of `specs` against `series`.
///
/// Returns the detected activations (chronological) and the residual
/// series after subtracting every accepted cycle. Specs are tried in
/// descending peak-power order so large loads (EVs) cannot be
/// mis-explained as stacks of small ones.
pub fn detect_activations(
    series: &TimeSeries,
    specs: &[&ApplianceSpec],
    config: &MatchConfig,
) -> (Vec<DetectedActivation>, TimeSeries) {
    let hours = series.resolution().hours_f64();
    // Buffers reused across every candidate window of the call.
    let mut pre = Vec::with_capacity(config.baseline_window);
    let mut corrected = Vec::new();
    let mut errors = Vec::new();
    detect_with(
        series,
        specs,
        config.edge_fraction,
        |values, start_idx, t_min, t_max| {
            let baseline =
                local_baseline(values, start_idx, config.baseline_window, hours, &mut pre);
            corrected.clear();
            corrected.extend(
                values[start_idx..start_idx + t_min.len()]
                    .iter()
                    .map(|e| (e / hours - baseline).max(0.0)),
            );
            fit_intensity(
                &corrected,
                t_min,
                t_max,
                config.metric,
                config.trim_fraction,
                config.score_threshold,
                &mut errors,
            )
        },
    )
}

/// The greedy search behind [`detect_activations`]. `accept` scores the
/// candidate window starting at `start_idx` of the current residual
/// values against the `(t_min, t_max)` envelope and returns the fitted
/// `(intensity, score)` only when the fit is accepted.
fn detect_with(
    series: &TimeSeries,
    specs: &[&ApplianceSpec],
    edge_fraction: f64,
    mut accept: impl FnMut(&[f64], usize, &[f64], &[f64]) -> Option<(f64, f64)>,
) -> (Vec<DetectedActivation>, TimeSeries) {
    let mut residual = series.clone();
    let mut detections = Vec::new();
    let res_minutes = series.resolution().minutes() as usize;
    let hours = series.resolution().hours_f64();

    let mut ordered: Vec<(f64, &ApplianceSpec)> =
        specs.iter().map(|&spec| (peak_power(spec), spec)).collect();
    ordered.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("catalog powers are finite"));

    let mut candidates = Vec::new();
    for (_, spec) in ordered {
        // Template resampled to the series resolution, in kW.
        let (t_min, t_max) = template_kw(spec, res_minutes);
        if t_min.is_empty() {
            continue;
        }
        // Candidate starts must be re-derived after each subtraction;
        // one pass over fresh edges per spec is enough in practice
        // because subtraction only removes explained cycles.
        let edge_thr = (t_min[0] * edge_fraction).max(0.05);
        rising_starts(
            residual.values(),
            hours,
            edge_thr,
            t_min.len(),
            &mut candidates,
        );
        for &start_idx in &candidates {
            let Some((intensity, score)) = accept(residual.values(), start_idx, &t_min, &t_max)
            else {
                continue;
            };
            // Accept: subtract the realised cycle from the residual.
            // The 1-min cycle is zero-padded to a whole number of
            // series intervals so the exact-energy downsample applies
            // at any resolution (e.g. a 100-min cycle on a 15-min grid).
            let start_t = residual.timestamp_of(start_idx);
            let mut cycle_values: Vec<f64> = spec
                .profile
                .power_curve_kw(intensity)
                .into_iter()
                .map(|kw| kw / 60.0)
                .collect();
            let pad = (res_minutes - cycle_values.len() % res_minutes) % res_minutes;
            cycle_values.extend(std::iter::repeat_n(0.0, pad));
            let cycle_1min =
                TimeSeries::new(start_t, flextract_time::Resolution::MIN_1, cycle_values)
                    .expect("series interval starts are minute-aligned");
            let cycle = flextract_series::resample::to_resolution(&cycle_1min, series.resolution())
                .expect("padded cycle lengths divide the series resolution");
            residual
                .sub_overlapping(&cycle)
                .expect("cycle grids share the series resolution");
            detections.push(DetectedActivation {
                appliance: spec.name.clone(),
                start: start_t,
                intensity,
                energy_kwh: cycle.total_energy(),
                score,
            });
        }
    }
    residual.clip_negative();
    detections.sort_by_key(|d| d.start);
    (detections, residual)
}

/// Peak of the nominal template power.
fn peak_power(spec: &ApplianceSpec) -> f64 {
    spec.profile
        .nominal_curve_kw()
        .into_iter()
        .fold(0.0, f64::max)
}

/// The min/max power envelopes resampled to `res_minutes`-wide steps.
fn template_kw(spec: &ApplianceSpec, res_minutes: usize) -> (Vec<f64>, Vec<f64>) {
    let min_curve = spec.profile.power_curve_kw(0.0);
    let max_curve = spec.profile.power_curve_kw(1.0);
    if res_minutes <= 1 {
        return (min_curve, max_curve);
    }
    let chunk = |curve: &[f64]| -> Vec<f64> {
        curve
            .chunks(res_minutes)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect()
    };
    (chunk(&min_curve), chunk(&max_curve))
}

/// Collect into `out` the indices of the rising power steps of at least
/// `min_delta_kw` that leave room for a `len`-interval window — the
/// [`crate::events::rising_edges`] criterion, scanned without building
/// an [`crate::Edge`] per step.
fn rising_starts(values: &[f64], hours: f64, min_delta_kw: f64, len: usize, out: &mut Vec<usize>) {
    out.clear();
    let end = values.len().saturating_sub(len);
    for i in 1..=end {
        let delta_kw = (values[i] - values[i - 1]) / hours;
        if delta_kw > 0.0 && delta_kw.abs() >= min_delta_kw {
            out.push(i);
        }
    }
}

/// Median power over the `window` intervals before `start_idx`,
/// computed in the reusable `buf`.
fn local_baseline(
    values: &[f64],
    start_idx: usize,
    window: usize,
    hours: f64,
    buf: &mut Vec<f64>,
) -> f64 {
    if start_idx == 0 || window == 0 {
        return 0.0;
    }
    buf.clear();
    buf.extend(
        values[start_idx.saturating_sub(window)..start_idx]
            .iter()
            .map(|e| e / hours),
    );
    stats::quantile_in_place(buf, 0.5).unwrap_or(0.0)
}

/// Least-squares fit of the intensity parameter: observed ≈
/// `t_min + x · (t_max − t_min)`. Returns `(x, normalised_error)` when
/// the error is at most `score_threshold`, `None` otherwise.
///
/// The error is *trimmed*: the worst `trim_fraction` of per-sample
/// errors is discarded before aggregation, so another appliance
/// switching on for part of the cycle (a kettle during a wash) does not
/// veto an otherwise excellent fit. `errors` is scratch space for the
/// per-sample absolute errors as bit patterns: for non-negative floats
/// these order exactly like the values, so they sort as plain integers.
fn fit_intensity(
    observed: &[f64],
    t_min: &[f64],
    t_max: &[f64],
    metric: MatchMetric,
    trim_fraction: f64,
    score_threshold: f64,
    errors: &mut Vec<u64>,
) -> Option<(f64, f64)> {
    let n = observed.len();
    if n != t_min.len() || n == 0 {
        return None;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        let d = t_max[i] - t_min[i];
        num += d * (observed[i] - t_min[i]);
        den += d * d;
    }
    let x = if den > 1e-12 {
        (num / den).clamp(0.0, 1.0)
    } else {
        0.5
    };
    let mut fit_sum = 0.0;
    errors.clear();
    for i in 0..n {
        let fitted = t_min[i] + x * (t_max[i] - t_min[i]);
        fit_sum += fitted;
        errors.push((observed[i] - fitted).abs().to_bits());
    }
    let mean_fit = fit_sum / n as f64;
    if mean_fit <= 1e-9 {
        return None;
    }
    let keep = ((n as f64 * (1.0 - trim_fraction.clamp(0.0, 0.9))).ceil() as usize).clamp(1, n);
    // Split off the `keep` smallest errors, in no particular order.
    if keep < n {
        errors.select_nth_unstable(keep);
    }
    let kept = &mut errors[..keep];
    // Early rejection. `kept` holds the values a full sort would keep,
    // only in another order. In any order, a float sum of k
    // non-negative terms is within a relative (k − 1)·2⁻⁵³ of the exact
    // sum, so two orders differ by under 6e-14 relative for windows of
    // up to 240 samples, and stay far below the 1e-9 margin for any
    // window under a million. The division and square root that follow
    // are monotone. A score above `threshold · (1 + 1e-9)` here is
    // therefore above `threshold` in sorted order too.
    if trimmed_error(kept, metric) / mean_fit > score_threshold * (1.0 + 1e-9) {
        return None;
    }
    // Near or under the threshold: score the sorted prefix, which is
    // bit for bit the prefix a full sort yields.
    kept.sort_unstable();
    let score = trimmed_error(kept, metric) / mean_fit;
    (score <= score_threshold).then_some((x, score))
}

/// RMSE or mean absolute error over the kept error bit patterns,
/// summed in slice order.
fn trimmed_error(kept: &[u64], metric: MatchMetric) -> f64 {
    let errors = kept.iter().map(|&e| f64::from_bits(e));
    match metric {
        MatchMetric::L2 => (errors.map(|e| e * e).sum::<f64>() / kept.len() as f64).sqrt(),
        MatchMetric::L1 => errors.sum::<f64>() / kept.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_appliance::Catalog;
    use flextract_time::{Duration, Resolution, TimeRange};

    fn catalog() -> Catalog {
        Catalog::extended()
    }

    /// [`fit_intensity`] with no threshold: every fit is returned.
    fn fit(
        observed: &[f64],
        t_min: &[f64],
        t_max: &[f64],
        metric: MatchMetric,
        trim_fraction: f64,
    ) -> Option<(f64, f64)> {
        fit_intensity(
            observed,
            t_min,
            t_max,
            metric,
            trim_fraction,
            f64::INFINITY,
            &mut Vec::new(),
        )
    }

    /// The reference fit: sort every error, then score. The threshold
    /// is applied by the caller.
    fn fit_intensity_oracle(
        observed: &[f64],
        t_min: &[f64],
        t_max: &[f64],
        metric: MatchMetric,
        trim_fraction: f64,
    ) -> Option<(f64, f64)> {
        let n = observed.len();
        if n != t_min.len() || n == 0 {
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n {
            let d = t_max[i] - t_min[i];
            num += d * (observed[i] - t_min[i]);
            den += d * d;
        }
        let x = if den > 1e-12 {
            (num / den).clamp(0.0, 1.0)
        } else {
            0.5
        };
        let fitted: Vec<f64> = (0..n)
            .map(|i| t_min[i] + x * (t_max[i] - t_min[i]))
            .collect();
        let mean_fit = stats::mean(&fitted)?;
        if mean_fit <= 1e-9 {
            return None;
        }
        let mut abs_errors: Vec<f64> = observed
            .iter()
            .zip(&fitted)
            .map(|(o, f)| (o - f).abs())
            .collect();
        abs_errors.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
        let keep = ((n as f64 * (1.0 - trim_fraction.clamp(0.0, 0.9))).ceil() as usize).max(1);
        let kept = &abs_errors[..keep.min(n)];
        let err = match metric {
            MatchMetric::L2 => (kept.iter().map(|e| e * e).sum::<f64>() / kept.len() as f64).sqrt(),
            MatchMetric::L1 => kept.iter().sum::<f64>() / kept.len() as f64,
        };
        Some((x, err / mean_fit))
    }

    /// The reference detector: allocating windows, a
    /// [`stats::median`] baseline and the sorting fit.
    fn detect_activations_oracle(
        series: &TimeSeries,
        specs: &[&ApplianceSpec],
        config: &MatchConfig,
    ) -> (Vec<DetectedActivation>, TimeSeries) {
        let hours = series.resolution().hours_f64();
        detect_with(
            series,
            specs,
            config.edge_fraction,
            |values, start_idx, t_min, t_max| {
                let window_kw: Vec<f64> = values[start_idx..start_idx + t_min.len()]
                    .iter()
                    .map(|e| e / hours)
                    .collect();
                let baseline = if start_idx == 0 || config.baseline_window == 0 {
                    0.0
                } else {
                    let lo = start_idx.saturating_sub(config.baseline_window);
                    let pre: Vec<f64> = values[lo..start_idx].iter().map(|e| e / hours).collect();
                    stats::median(&pre).unwrap_or(0.0)
                };
                let corrected: Vec<f64> =
                    window_kw.iter().map(|p| (p - baseline).max(0.0)).collect();
                let (x, score) = fit_intensity_oracle(
                    &corrected,
                    t_min,
                    t_max,
                    config.metric,
                    config.trim_fraction,
                )?;
                (score <= config.score_threshold).then_some((x, score))
            },
        )
    }

    fn bits(fit: Option<(f64, f64)>) -> Option<(u64, u64)> {
        fit.map(|(x, s)| (x.to_bits(), s.to_bits()))
    }

    fn bit_vec(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A quiet two-day series with one washer cycle at a known spot.
    fn staged_series(catalog: &Catalog) -> (TimeSeries, Timestamp) {
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let range = TimeRange::starting_at(start, Duration::days(1)).unwrap();
        let mut series = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        // Small flat base load of 0.1 kW.
        for v in series.values_mut() {
            *v = 0.1 / 60.0;
        }
        let washer = catalog
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        let at: Timestamp = "2013-03-18 19:00".parse().unwrap();
        let cycle = washer.profile.to_energy_series(at, 0.6);
        series.add_overlapping(&cycle).unwrap();
        (series, at)
    }

    #[test]
    fn recovers_a_staged_washer_cycle() {
        let cat = catalog();
        let (series, at) = staged_series(&cat);
        let specs: Vec<&ApplianceSpec> = cat.shiftable();
        let (found, residual) = detect_activations(&series, &specs, &MatchConfig::default());
        let washers: Vec<_> = found
            .iter()
            .filter(|d| d.appliance.contains("Washing Machine"))
            .collect();
        assert_eq!(washers.len(), 1, "found {found:?}");
        let d = washers[0];
        // Start within a minute of the truth.
        assert!((d.start - at).as_minutes().abs() <= 1, "start {}", d.start);
        // Intensity close to the staged 0.6.
        assert!(
            (d.intensity - 0.6).abs() < 0.15,
            "intensity {}",
            d.intensity
        );
        // The residual no longer contains the cycle's energy.
        assert!(
            residual.total_energy() < series.total_energy() - d.energy_kwh * 0.8,
            "residual {} vs original {}",
            residual.total_energy(),
            series.total_energy()
        );
    }

    #[test]
    fn empty_series_yields_nothing() {
        let cat = catalog();
        let specs: Vec<&ApplianceSpec> = cat.shiftable();
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let range = TimeRange::starting_at(start, Duration::hours(6)).unwrap();
        let series = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        let (found, residual) = detect_activations(&series, &specs, &MatchConfig::default());
        assert!(found.is_empty());
        assert_eq!(residual.total_energy(), 0.0);
    }

    #[test]
    fn no_specs_yields_nothing() {
        let cat = catalog();
        let (series, _) = staged_series(&cat);
        let (found, residual) = detect_activations(&series, &[], &MatchConfig::default());
        assert!(found.is_empty());
        assert_eq!(residual, series);
    }

    #[test]
    fn strict_threshold_rejects_everything() {
        let cat = catalog();
        let (series, _) = staged_series(&cat);
        let specs: Vec<&ApplianceSpec> = cat.shiftable();
        let cfg = MatchConfig {
            score_threshold: 0.0,
            ..MatchConfig::default()
        };
        let (found, _) = detect_activations(&series, &specs, &cfg);
        assert!(found.is_empty());
    }

    #[test]
    fn fit_intensity_recovers_known_mix() {
        let t_min = vec![1.0, 1.0, 0.5];
        let t_max = vec![3.0, 3.0, 1.5];
        // Observed at exactly x = 0.25.
        let obs: Vec<f64> = t_min
            .iter()
            .zip(&t_max)
            .map(|(lo, hi)| lo + 0.25 * (hi - lo))
            .collect();
        let (x, err) = fit(&obs, &t_min, &t_max, MatchMetric::L2, 0.0).unwrap();
        assert!((x - 0.25).abs() < 1e-9);
        assert!(err < 1e-9);
        // L1 agrees on perfect data.
        let (x1, err1) = fit(&obs, &t_min, &t_max, MatchMetric::L1, 0.0).unwrap();
        assert!((x1 - 0.25).abs() < 1e-9);
        assert!(err1 < 1e-9);
    }

    #[test]
    fn fit_intensity_clamps_and_rejects_degenerates() {
        let t_min = vec![1.0, 1.0];
        let t_max = vec![2.0, 2.0];
        // Observation above the envelope clamps to x = 1.
        let (x, _) = fit(&[5.0, 5.0], &t_min, &t_max, MatchMetric::L2, 0.0).unwrap();
        assert_eq!(x, 1.0);
        // Mismatched lengths.
        assert!(fit(&[1.0], &t_min, &t_max, MatchMetric::L2, 0.0).is_none());
        // All-zero template.
        assert!(fit(&[0.0, 0.0], &[0.0, 0.0], &[0.0, 0.0], MatchMetric::L2, 0.0).is_none());
    }

    #[test]
    fn template_resampling_preserves_mean_power() {
        let cat = catalog();
        let washer = cat
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        let (m1, _) = template_kw(washer, 1);
        let (m15, _) = template_kw(washer, 15);
        let mean1 = stats::mean(&m1).unwrap();
        let mean15 = stats::mean(&m15).unwrap();
        assert!((mean1 - mean15).abs() < 1e-9);
        assert_eq!(m15.len(), 8); // 120 min / 15
    }

    #[test]
    fn local_baseline_is_pre_start_median() {
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let mut vals = vec![0.1 / 60.0; 120]; // 0.1 kW
        vals[100] = 3.0 / 60.0;
        let s = TimeSeries::new(start, Resolution::MIN_1, vals).unwrap();
        let hours = 1.0 / 60.0;
        let b = local_baseline(s.values(), 60, 30, hours, &mut Vec::new());
        assert!((b - 0.1).abs() < 1e-9);
        assert_eq!(
            local_baseline(s.values(), 0, 30, hours, &mut Vec::new()),
            0.0
        );
    }

    proptest::proptest! {
        /// The early-reject fit takes the oracle's accept/reject decision
        /// and returns its `(intensity, score)` bit for bit, with the
        /// threshold steered to within 1e-6 of the score.
        #[test]
        fn early_reject_fit_matches_the_sorting_oracle(
            window in proptest::collection::vec((0.0f64..4.0, 0.0f64..2.0, -0.5f64..0.5), 1..=240),
            trim in 0.0f64..0.6,
            nudge in -1e-6f64..1e-6,
        ) {
            let t_min: Vec<f64> = window.iter().map(|w| w.0).collect();
            let t_max: Vec<f64> = window.iter().map(|w| w.0 + w.1).collect();
            // A noisy mid-intensity cycle, so scores land near real
            // thresholds as well as far above them.
            let observed: Vec<f64> = window
                .iter()
                .map(|w| (w.0 + 0.5 * w.1 + w.2).max(0.0))
                .collect();
            let mut errors = Vec::new();
            for metric in [MatchMetric::L2, MatchMetric::L1] {
                let oracle = fit_intensity_oracle(&observed, &t_min, &t_max, metric, trim);
                let Some((_, score)) = oracle else {
                    proptest::prop_assert_eq!(fit(&observed, &t_min, &t_max, metric, trim), None);
                    continue;
                };
                let thresholds = [
                    score,
                    f64::from_bits(score.to_bits() + 1),
                    f64::from_bits(score.to_bits().saturating_sub(1)),
                    score * (1.0 + nudge),
                    score * (1.0 - 1e-9),
                    0.35,
                ];
                for threshold in thresholds {
                    let got =
                        fit_intensity(&observed, &t_min, &t_max, metric, trim, threshold, &mut errors);
                    let want = oracle.filter(|&(_, s)| s <= threshold);
                    proptest::prop_assert_eq!(bits(got), bits(want), "threshold {}", threshold);
                }
            }
        }
    }

    #[test]
    fn rising_starts_are_the_fitting_rising_edges() {
        let cat = catalog();
        let (staged, _) = staged_series(&cat);
        // 3 kW steps up into intervals 1 and 4, the last one.
        let short = TimeSeries::new(
            staged.start(),
            Resolution::MIN_1,
            vec![0.0, 0.05, 0.0, 0.0, 0.05],
        )
        .unwrap();
        let hours = staged.resolution().hours_f64();
        let mut starts = Vec::new();
        let cases = [
            (&staged, 0.05, 1),
            (&staged, 0.5, 120),
            (&staged, 1.0, 1440),
            (&staged, 0.05, 1441),
            (&short, 1.0, 1),
            (&short, 1.0, 2),
        ];
        for (series, threshold, len) in cases {
            rising_starts(series.values(), hours, threshold, len, &mut starts);
            let want: Vec<usize> = crate::events::rising_edges(series, threshold)
                .into_iter()
                .map(|e| e.index)
                .filter(|&i| i + len <= series.len())
                .collect();
            assert_eq!(starts, want, "threshold {threshold}, window {len}");
        }
        rising_starts(short.values(), hours, 1.0, 1, &mut starts);
        assert_eq!(starts, [1, 4]);
    }

    /// Detection over the committed 1-min dataset — measured (cleaned)
    /// and ground-truth series — equals the oracle detector's bit for
    /// bit, under both metrics.
    #[test]
    fn detector_matches_the_oracle_on_committed_datasets() {
        use flextract_dataset::{ingest, CleaningConfig, Dataset};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../datasets/ds_household_1min");
        let dataset = Dataset::open(&dir).unwrap();
        let cat = catalog();
        let specs = cat.shiftable();
        let configs = [
            MatchConfig::default(),
            MatchConfig {
                metric: MatchMetric::L1,
                ..MatchConfig::default()
            },
        ];
        let mut detections = 0;
        for idx in 0..dataset.len() {
            let record = dataset.consumer(idx).unwrap();
            let truth = record.truth_total.clone().unwrap();
            let cleaning = CleaningConfig {
                screen_anomalies: true,
                ..CleaningConfig::default()
            };
            let (measured, _) = ingest::clean(record.measured, &cleaning).unwrap();
            for series in [&measured, &truth] {
                for config in &configs {
                    let (found, residual) = detect_activations(series, &specs, config);
                    let (want, want_residual) = detect_activations_oracle(series, &specs, config);
                    assert_eq!(format!("{found:?}"), format!("{want:?}"));
                    assert_eq!(bit_vec(residual.values()), bit_vec(want_residual.values()));
                    detections += found.len();
                }
            }
        }
        assert!(detections > 0, "the oracle comparison saw no detections");
    }
}
