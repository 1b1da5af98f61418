//! Template matching: fit catalog load profiles to the measured series.
//!
//! For every candidate start (a rising edge whose magnitude is
//! compatible with an appliance's initial power), the appliance's
//! min/max power envelope is fitted by least squares over its
//! *intensity* parameter, scored by baseline-corrected normalised RMSE,
//! and — if accepted — subtracted from the series before the search
//! continues (greedy sequential extraction, largest appliances first).
//!
//! # Incremental search
//!
//! The search returns, bit for bit, what re-deriving every candidate
//! and refitting every window from the current residual would (the
//! tests keep that detector as an oracle). Three pieces skip the work
//! a subtraction did not invalidate:
//!
//! * **Residual view.** One call divides the residual into power once,
//!   `kw[i] = e[i] / hours`, and keeps the rising step into every
//!   interval, `step[i] = (e[i] − e[i−1]) / hours`. Subtracting a cycle
//!   changes the intervals `lo..hi` it covers — at a coarse resolution,
//!   the resampled, zero-padded cycle's length — so the view re-derives
//!   `kw` there and `step` over `lo..=hi` (the step into the next
//!   interval moves too), from the residual's own values with the same
//!   expressions: every entry stays the number a fresh pass computes.
//!   The edge threshold is at least 0.05 kW, so the one comparison
//!   `step[i] ≥ threshold` is the rising-edge test `step > 0 && |step|
//!   ≥ threshold`; the candidate scan runs it over blocks of steps
//!   with no branch per step.
//! * **Baseline memo.** The baseline of start `s` is the median power
//!   over `s − w .. s`, with `w` the `baseline_window`. A change to
//!   `lo..hi` stales exactly the starts whose window meets it, `lo + 1
//!   .. hi + w`, for any `w`; every other start keeps its memoised
//!   median. The median itself is a selection,
//!   [`stats::median_in_place`], which equals the sorting quantile bit
//!   for bit.
//! * **Early rejection.** Most windows fit badly. While it measures the
//!   errors, `fit_intensity` accumulates a lower bound on the trimmed
//!   error that needs no ordering: the sum of the `keep` smallest terms
//!   is at least `Σ min(wᵢ, t) − (n − keep)·t` for any level `t`. It
//!   rejects when the bound clears the threshold by a rounding margin,
//!   proved next to the test to be one the sorted score cannot undo.
//!   Every other window goes on to the selection and the sort. The
//!   per-template parts of a fit (`Envelope`) are computed once per
//!   spec, in the order the fit would compute them.

use flextract_appliance::ApplianceSpec;
use flextract_series::{stats, TimeSeries};
use flextract_time::{Resolution, Timestamp};
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
    let mut residual = series.clone();
    let mut view = ResidualView::new(
        residual.values(),
        series.resolution().hours_f64(),
        config.baseline_window,
    );
    let mut detections = Vec::new();
    let res_minutes = series.resolution().minutes() as usize;
    // Buffers reused across every candidate window of the call.
    let mut candidates = Vec::new();
    let mut corrected = Vec::new();
    let mut errors = Vec::new();
    for spec in by_peak_power(specs) {
        // Template resampled to the series resolution, in kW.
        let (t_min, t_max) = template_kw(spec, res_minutes);
        let envelope = Envelope::new(t_min, &t_max);
        let Some(&first_kw) = envelope.min.first() else {
            continue;
        };
        let len = envelope.min.len();
        // Candidate starts are derived once per spec, from the residual
        // left by the larger specs; one pass is enough in practice
        // because subtraction only removes explained cycles.
        let edge_thr = (first_kw * config.edge_fraction).max(0.05);
        view.rising_starts(edge_thr, len, &mut candidates);
        for &start_idx in &candidates {
            let baseline = view.baseline(start_idx);
            corrected.clear();
            corrected.extend(
                view.kw[start_idx..start_idx + len]
                    .iter()
                    .map(|p| (p - baseline).max(0.0)),
            );
            let Some((intensity, score)) = fit_intensity(
                &corrected,
                &envelope,
                config.metric,
                config.trim_fraction,
                config.score_threshold,
                &mut errors,
            ) else {
                continue;
            };
            let start = residual.timestamp_of(start_idx);
            let cycle = realised_cycle(spec, intensity, start, series.resolution());
            residual
                .sub_overlapping(&cycle)
                .expect("cycle grids share the series resolution");
            view.patch(residual.values(), start_idx, start_idx + cycle.len());
            detections.push(DetectedActivation {
                appliance: spec.name.clone(),
                start,
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

/// `specs` in descending peak-power order, ties in input order.
///
/// `total_cmp` orders like the `partial_cmp` this order was defined by
/// on every value but NaN and the two zeros. [`peak_power`] folds from
/// `+0.0` with `f64::max`, which never returns NaN when one operand is
/// a number, so no key is NaN. A zero key means the spec's nominal curve
/// is all zeros, hence (phase powers being non-negative with `min ≤
/// max`) so is its envelope: its fit has a zero mean and is never
/// accepted, so where such a spec lands among other zero keys cannot
/// change what is detected. For finite catalog powers the search order
/// is therefore unchanged.
fn by_peak_power<'a>(specs: &[&'a ApplianceSpec]) -> Vec<&'a ApplianceSpec> {
    let mut ordered: Vec<(f64, &ApplianceSpec)> =
        specs.iter().map(|&spec| (peak_power(spec), spec)).collect();
    ordered.sort_by(|a, b| b.0.total_cmp(&a.0));
    ordered.into_iter().map(|(_, spec)| spec).collect()
}

/// One accepted cycle at `intensity`, realised from `start` on the
/// series grid. The 1-min cycle is zero-padded to a whole number of
/// series intervals so the exact-energy downsample applies at any
/// resolution (e.g. a 100-min cycle on a 15-min grid).
fn realised_cycle(
    spec: &ApplianceSpec,
    intensity: f64,
    start: Timestamp,
    resolution: Resolution,
) -> TimeSeries {
    let res_minutes = resolution.minutes() as usize;
    let mut cycle_values: Vec<f64> = spec
        .profile
        .power_curve_kw(intensity)
        .into_iter()
        .map(|kw| kw / 60.0)
        .collect();
    let pad = (res_minutes - cycle_values.len() % res_minutes) % res_minutes;
    cycle_values.extend(std::iter::repeat_n(0.0, pad));
    let cycle_1min = TimeSeries::new(start, Resolution::MIN_1, cycle_values)
        .expect("series interval starts are minute-aligned");
    flextract_series::resample::to_resolution(&cycle_1min, resolution)
        .expect("padded cycle lengths divide the series resolution")
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

/// The residual as the search reads it, kept in step with the residual
/// series by [`ResidualView::patch`] (see the module docs).
struct ResidualView {
    hours: f64,
    /// `kw[i] == e[i] / hours`: power per interval.
    kw: Vec<f64>,
    /// `step[i] == (e[i] − e[i − 1]) / hours`; `step[0]` is `0.0` and
    /// never read.
    step: Vec<f64>,
    baseline_window: usize,
    /// The memoised [`ResidualView::baseline`] of each start, `None`
    /// until computed and again once a subtraction stales it.
    baselines: Vec<Option<f64>>,
    /// Scratch for the median selection.
    pre: Vec<f64>,
}

impl ResidualView {
    fn new(values: &[f64], hours: f64, baseline_window: usize) -> Self {
        let mut view = ResidualView {
            hours,
            kw: vec![0.0; values.len()],
            step: vec![0.0; values.len()],
            baseline_window,
            baselines: vec![None; values.len()],
            pre: Vec::with_capacity(baseline_window),
        };
        view.patch(values, 0, values.len());
        view
    }

    /// Re-derive the view after the residual changed over `lo..hi`
    /// (clipped to the series), and stale the baselines that read it.
    fn patch(&mut self, values: &[f64], lo: usize, hi: usize) {
        let hours = self.hours;
        let hi = hi.min(values.len());
        if let (Some(kw), Some(energy)) = (self.kw.get_mut(lo..hi), values.get(lo..hi)) {
            for (p, e) in kw.iter_mut().zip(energy) {
                *p = e / hours;
            }
        }
        // The steps into `lo..=hi`, each from its interval and the one
        // before.
        let (from, to) = (lo.max(1), (hi + 1).min(values.len()));
        if let (Some(step), Some(energy)) = (self.step.get_mut(from..to), values.get(from - 1..to))
        {
            for (d, pair) in step.iter_mut().zip(energy.windows(2)) {
                *d = (pair[1] - pair[0]) / hours;
            }
        }
        let stale_end = (hi + self.baseline_window).min(self.baselines.len());
        if let Some(stale) = self.baselines.get_mut(lo + 1..stale_end) {
            stale.fill(None);
        }
    }

    /// Collect into `out` the starts of the rising steps of at least
    /// `min_delta_kw` (which must be positive) that leave room for a
    /// `len`-interval window — the [`crate::events::rising_edges`]
    /// criterion. Rising steps that large are rare, so the scan tests
    /// a block of steps at once, with no branch per step, and looks
    /// into the few blocks that hold one.
    fn rising_starts(&self, min_delta_kw: f64, len: usize, out: &mut Vec<usize>) {
        const BLOCK: usize = 8;
        out.clear();
        let end = self.step.len().saturating_sub(len);
        let Some(steps) = self.step.get(1..=end) else {
            return;
        };
        let blocks = steps.chunks_exact(BLOCK);
        let tail = blocks.remainder();
        for (b, block) in blocks.enumerate() {
            if block
                .iter()
                .fold(false, |hit, &step| hit | (step >= min_delta_kw))
            {
                let first = 1 + b * BLOCK;
                out.extend(
                    (first..)
                        .zip(block)
                        .filter(|&(_, &step)| step >= min_delta_kw)
                        .map(|(i, _)| i),
                );
            }
        }
        let first = 1 + steps.len() - tail.len();
        out.extend(
            (first..)
                .zip(tail)
                .filter(|&(_, &step)| step >= min_delta_kw)
                .map(|(i, _)| i),
        );
    }

    /// Median power over the `baseline_window` intervals before
    /// `start_idx` (`0.0` when there are none), memoised per start.
    fn baseline(&mut self, start_idx: usize) -> f64 {
        if let Some(Some(b)) = self.baselines.get(start_idx) {
            return *b;
        }
        if start_idx == 0 || self.baseline_window == 0 {
            return 0.0;
        }
        self.pre.clear();
        self.pre
            .extend_from_slice(&self.kw[start_idx.saturating_sub(self.baseline_window)..start_idx]);
        let b = stats::median_in_place(&mut self.pre).unwrap_or(0.0);
        self.baselines[start_idx] = Some(b);
        b
    }
}

/// The levels of [`TrimmedBound::for_allowed_error`], as multiples of
/// the per-sample error a score at the threshold allows. On the
/// committed 1-min datasets these two catch 99 % of the windows the
/// sorted score rejects; a third level catches a few more and measured
/// no faster.
const BOUND_LEVELS: [f64; 2] = [2.0, 3.0];

/// Streaming lower bounds on the sum of the `keep` smallest of the
/// non-negative terms added, one per level `t` (see [`fit_intensity`]).
struct TrimmedBound {
    levels: [f64; BOUND_LEVELS.len()],
    /// `Σ min(w, t)` over the terms added so far, per level.
    clipped: [f64; BOUND_LEVELS.len()],
}

impl TrimmedBound {
    /// [`BOUND_LEVELS`] for a window whose score allows a per-sample
    /// error of about `allowed` (squared for L2, whose terms are).
    fn for_allowed_error(allowed: f64, l2: bool) -> Self {
        let allowed = allowed.max(0.0);
        let levels = BOUND_LEVELS.map(|c| {
            let t = c * allowed;
            if l2 {
                t * t
            } else {
                t
            }
        });
        TrimmedBound::with_levels(levels)
    }

    fn with_levels(levels: [f64; BOUND_LEVELS.len()]) -> Self {
        TrimmedBound {
            levels,
            clipped: [0.0; BOUND_LEVELS.len()],
        }
    }

    fn add(&mut self, w: f64) {
        for (sum, &t) in self.clipped.iter_mut().zip(&self.levels) {
            // `min` without NaN handling; the levels are never NaN.
            *sum += if w < t { w } else { t };
        }
    }

    /// Whether some level proves that the exact sum of the kept terms,
    /// all but `dropped` of them, exceeds `target` by more than float
    /// summation could blur: the test `A(t) > (dropped·t + target)·(1 +
    /// 1e-9)` that [`fit_intensity`] proves sound.
    fn exceeds(&self, dropped: f64, target: f64) -> bool {
        self.clipped
            .iter()
            .zip(&self.levels)
            .any(|(&a, &t)| a > (dropped * t + target) * (1.0 + 1e-9))
    }
}

/// A template's min/max power envelope with the parts of a fit that do
/// not depend on the window, each computed as the fit would.
struct Envelope {
    min: Vec<f64>,
    /// `max − min` per interval.
    span: Vec<f64>,
    /// `Σ span²`, summed in interval order.
    span_sq_sum: f64,
    /// `Σ min` and `Σ span`, which estimate a fit's mean before it is
    /// computed.
    min_sum: f64,
    span_sum: f64,
}

impl Envelope {
    fn new(t_min: Vec<f64>, t_max: &[f64]) -> Self {
        let span: Vec<f64> = t_max.iter().zip(&t_min).map(|(hi, lo)| hi - lo).collect();
        Envelope {
            span_sq_sum: span.iter().fold(0.0, |sum, d| sum + d * d),
            min_sum: t_min.iter().sum(),
            span_sum: span.iter().sum(),
            min: t_min,
            span,
        }
    }
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
    envelope: &Envelope,
    metric: MatchMetric,
    trim_fraction: f64,
    score_threshold: f64,
    errors: &mut Vec<u64>,
) -> Option<(f64, f64)> {
    let n = observed.len();
    if n != envelope.span.len() || n == 0 {
        return None;
    }
    let t_min = &envelope.min;
    let span = &envelope.span;
    let mut num = 0.0;
    for ((&o, &lo), &d) in observed.iter().zip(t_min).zip(span) {
        num += d * (o - lo);
    }
    let den = envelope.span_sq_sum;
    let x = if den > 1e-12 {
        (num / den).clamp(0.0, 1.0)
    } else {
        0.5
    };
    let keep = ((n as f64 * (1.0 - trim_fraction.clamp(0.0, 0.9))).ceil() as usize).clamp(1, n);
    // The score sums per-sample terms `w`: the error for L1, its square
    // for L2. The bound's levels only steer how tight it is, so they
    // may come from an estimate of the mean fit taken before the loop.
    let l2 = metric == MatchMetric::L2;
    let mut bound = TrimmedBound::for_allowed_error(
        score_threshold * (envelope.min_sum + x * envelope.span_sum) / n as f64,
        l2,
    );
    let mut fit_sum = 0.0;
    errors.clear();
    errors.extend(observed.iter().zip(t_min).zip(span).map(|((&o, &lo), &d)| {
        let fitted = lo + x * d;
        fit_sum += fitted;
        let e = (o - fitted).abs();
        bound.add(if l2 { e * e } else { e });
        e.to_bits()
    }));
    let mean_fit = fit_sum / n as f64;
    if mean_fit <= 1e-9 {
        return None;
    }
    // Early rejection before any ordering. Let `S` be the exact sum of
    // the `keep` smallest terms and `A(t) = Σ min(wᵢ, t)`. Each kept
    // term adds at most `wᵢ` to `A`, each of the `n − keep` others at
    // most `t`, so for every level `t`
    //     S ≥ A(t) − (n − keep)·t.                                  (1)
    // The score rejects when `S` exceeds `keep·τ`, with `τ` the allowed
    // per-sample term: `thr·mean_fit` for L1, its square for L2 (`thr`
    // is `score_threshold`). The
    // test is `Ã > (fl((n − keep)·t) + fl(keep·τ̃))·(1 + 1e-9)`, where
    // `Ã` is `A` summed in float and `τ̃` is `τ` computed in float.
    //
    // Margin. With u = 2⁻⁵³, a float sum of m non-negative terms is
    // within a relative γₘ = m·u/(1 − m·u) of the exact sum, and every
    // other operation rounds within a relative u while its exact result
    // is normal. The guard makes `thr` and `τ̃` normal, hence everything
    // in between; a subnormal `(n − keep)·t` is off by at most 2⁻¹⁰⁷⁵ ≤
    // u·τ̃, one more u. The right side takes at most 8 roundings (the
    // square doubles the first), so a passing test gives
    //     A > ((n − keep)·t + keep·τ)·ρ,  ρ = (1 + 1e-9)(1 − u)⁸/(1 + γₙ),
    // and by (1), when ρ ≥ 1,
    //     S > keep·τ·ρ + (n − keep)·t·(ρ − 1) ≥ keep·τ·ρ.
    // The sorted-order score sums the same kept terms (within γ_keep),
    // divides by `keep`, takes the square root for L2 and divides by
    // `mean_fit`: at most 3 more roundings, all monotone, so it is at
    // least `thr·(ρ·(1 − γ_keep)(1 − u)⁵)^½` for L2 and `thr·ρ·(1 −
    // γ_keep)(1 − u)²` for L1. Both exceed `thr` once `(1 + 1e-9) ≥ (1
    // + γₙ)/((1 − γ_keep)(1 − u)¹³)`, about `1 + (n + keep + 13)·u`:
    // true for any window under a million samples. A rejection here is
    // one the sorted score makes.
    let allowed = score_threshold * mean_fit;
    let tau = if l2 { allowed * allowed } else { allowed };
    if score_threshold.min(tau) >= f64::MIN_POSITIVE
        && bound.exceeds((n - keep) as f64, keep as f64 * tau)
    {
        return None;
    }
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
            &Envelope::new(t_min.to_vec(), t_max),
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

    /// The reference detector: every spec re-derives its candidate
    /// starts from the residual's energies, and every window is
    /// allocated afresh, takes a [`stats::median`] baseline and is
    /// scored by the sorting fit.
    fn detect_activations_oracle(
        series: &TimeSeries,
        specs: &[&ApplianceSpec],
        config: &MatchConfig,
    ) -> (Vec<DetectedActivation>, TimeSeries) {
        let mut residual = series.clone();
        let mut detections = Vec::new();
        let res_minutes = series.resolution().minutes() as usize;
        let hours = series.resolution().hours_f64();
        let mut ordered: Vec<(f64, &ApplianceSpec)> =
            specs.iter().map(|&spec| (peak_power(spec), spec)).collect();
        ordered.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("catalog powers are finite"));
        for (_, spec) in ordered {
            let (t_min, t_max) = template_kw(spec, res_minutes);
            if t_min.is_empty() {
                continue;
            }
            let edge_thr = (t_min[0] * config.edge_fraction).max(0.05);
            let values = residual.values();
            let candidates: Vec<usize> = (1..=values.len().saturating_sub(t_min.len()))
                .filter(|&i| {
                    let delta_kw = (values[i] - values[i - 1]) / hours;
                    delta_kw > 0.0 && delta_kw.abs() >= edge_thr
                })
                .collect();
            for start_idx in candidates {
                let values = residual.values();
                let window_kw: Vec<f64> = values[start_idx..start_idx + t_min.len()]
                    .iter()
                    .map(|e| e / hours)
                    .collect();
                let baseline = if config.baseline_window == 0 {
                    0.0
                } else {
                    let lo = start_idx.saturating_sub(config.baseline_window);
                    let pre: Vec<f64> = values[lo..start_idx].iter().map(|e| e / hours).collect();
                    stats::median(&pre).unwrap_or(0.0)
                };
                let corrected: Vec<f64> =
                    window_kw.iter().map(|p| (p - baseline).max(0.0)).collect();
                let Some((intensity, score)) = fit_intensity_oracle(
                    &corrected,
                    &t_min,
                    &t_max,
                    config.metric,
                    config.trim_fraction,
                )
                .filter(|&(_, score)| score <= config.score_threshold) else {
                    continue;
                };
                let start = residual.timestamp_of(start_idx);
                let cycle = realised_cycle(spec, intensity, start, series.resolution());
                residual.sub_overlapping(&cycle).unwrap();
                detections.push(DetectedActivation {
                    appliance: spec.name.clone(),
                    start,
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
        let mut view = ResidualView::new(s.values(), 1.0 / 60.0, 30);
        let b = view.baseline(60);
        assert!((b - 0.1).abs() < 1e-9);
        assert_eq!(view.baseline(0), 0.0);
        // Memoised, and staled by a change inside its window only.
        assert_eq!(view.baselines[60], Some(b));
        view.patch(s.values(), 60, 70);
        assert_eq!(view.baselines[60], Some(b));
        view.patch(s.values(), 59, 60);
        assert_eq!(view.baselines[60], None);
    }

    /// After any sequence of subtractions, the patched view — power,
    /// steps and every memoised baseline — equals a view built afresh
    /// from the residual, at baseline windows narrower and wider than
    /// the subtracted spans.
    #[test]
    fn patched_view_equals_a_fresh_one() {
        let cat = catalog();
        let (series, _) = staged_series(&cat);
        let hours = series.resolution().hours_f64();
        for window in [0, 1, 10, 30, 60, 200] {
            let mut residual = series.values().to_vec();
            let mut view = ResidualView::new(&residual, hours, window);
            // Memoise every baseline, then subtract spans of varied
            // width, touching the first and the last interval too.
            for (round, (lo, hi)) in [(0, 1), (5, 40), (1000, 1003), (1400, 1440), (700, 701)]
                .into_iter()
                .enumerate()
            {
                for s in 0..residual.len() {
                    view.baseline(s);
                }
                for (i, v) in residual[lo..hi].iter_mut().enumerate() {
                    *v -= (i + round) as f64 * 1e-3;
                }
                view.patch(&residual, lo, hi);
                let mut fresh = ResidualView::new(&residual, hours, window);
                assert_eq!(bit_vec(&view.kw), bit_vec(&fresh.kw), "window {window}");
                assert_eq!(bit_vec(&view.step[1..]), bit_vec(&fresh.step[1..]));
                for s in 0..residual.len() {
                    if let Some(memo) = view.baselines[s] {
                        let want = fresh.baseline(s);
                        assert_eq!(memo.to_bits(), want.to_bits(), "window {window}, start {s}");
                    }
                }
            }
        }
    }

    /// One sample of a fit window: `(t_min, t_max − t_min, noise)`, with
    /// quantized values (ties), both zeros and zero-width envelopes
    /// among the continuous draws.
    fn window_sample() -> impl proptest::strategy::Strategy<Value = (f64, f64, f64)> {
        use proptest::prelude::*;
        (
            prop_oneof![
                0.0f64..4.0,
                (0u8..16).prop_map(|k| f64::from(k) * 0.25),
                Just(-0.0),
            ],
            prop_oneof![
                0.0f64..2.0,
                (0u8..8).prop_map(|k| f64::from(k) * 0.25),
                Just(0.0),
            ],
            prop_oneof![-0.5f64..0.5, Just(0.0), Just(-0.0)],
        )
    }

    /// The window a sample list describes: a noisy mid-intensity cycle,
    /// so scores land near real thresholds as well as far above them.
    fn window(samples: &[(f64, f64, f64)]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let t_min = samples.iter().map(|w| w.0).collect();
        let t_max = samples.iter().map(|w| w.0 + w.1).collect();
        let observed = samples
            .iter()
            .map(|w| (w.0 + 0.5 * w.1 + w.2).max(0.0))
            .collect();
        (observed, t_min, t_max)
    }

    proptest::proptest! {
        /// The early-reject fit takes the oracle's accept/reject decision
        /// and returns its `(intensity, score)` bit for bit, with the
        /// threshold steered to within 1e-6 of the score.
        #[test]
        fn early_reject_fit_matches_the_sorting_oracle(
            window in proptest::collection::vec(window_sample(), 1..=240),
            trim in 0.0f64..0.6,
            nudge in -1e-6f64..1e-6,
        ) {
            let (observed, t_min, t_max) = self::window(&window);
            let envelope = Envelope::new(t_min.clone(), &t_max);
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
                        fit_intensity(&observed, &envelope, metric, trim, threshold, &mut errors);
                    let want = oracle.filter(|&(_, s)| s <= threshold);
                    proptest::prop_assert_eq!(bits(got), bits(want), "threshold {}", threshold);
                }
            }
        }

        /// The streaming bound, margin included, never claims more than
        /// the oracle's sorted-order trimmed sum: not at the levels a
        /// fit uses, nor at the levels where it is tightest, the
        /// `keep`-th smallest term and its successor.
        #[test]
        fn streaming_bound_never_exceeds_the_sorted_trimmed_sum(
            window in proptest::collection::vec(window_sample(), 1..=240),
            trim in 0.0f64..0.6,
            threshold in 0.0f64..1.0,
        ) {
            let (observed, t_min, t_max) = self::window(&window);
            let n = observed.len();
            let keep = ((n as f64 * (1.0 - trim)).ceil() as usize).clamp(1, n);
            for metric in [MatchMetric::L2, MatchMetric::L1] {
                let Some((x, _)) = fit_intensity_oracle(&observed, &t_min, &t_max, metric, trim)
                else {
                    continue;
                };
                let l2 = metric == MatchMetric::L2;
                let fitted: Vec<f64> =
                    (0..n).map(|i| t_min[i] + x * (t_max[i] - t_min[i])).collect();
                let terms: Vec<f64> = (0..n)
                    .map(|i| {
                        let e = (observed[i] - fitted[i]).abs();
                        if l2 { e * e } else { e }
                    })
                    .collect();
                let mut sorted = terms.clone();
                sorted.sort_by(f64::total_cmp);
                let trimmed_sum: f64 = sorted[..keep].iter().sum();
                let allowed = threshold * stats::mean(&fitted).unwrap();
                // At `t` = the `keep`-th smallest term, (1) holds with
                // equality: only rounding separates the two sides.
                let tight = [sorted[keep - 1], sorted[keep.min(n - 1)]];
                for mut bound in [
                    TrimmedBound::for_allowed_error(allowed, l2),
                    TrimmedBound::with_levels(tight),
                ] {
                    for &w in &terms {
                        bound.add(w);
                    }
                    proptest::prop_assert!(
                        !bound.exceeds((n - keep) as f64, trimmed_sum),
                        "levels {:?}, sums {:?}, trimmed sum {}",
                        bound.levels,
                        bound.clipped,
                        trimmed_sum
                    );
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
            let view = ResidualView::new(series.values(), series.resolution().hours_f64(), 30);
            view.rising_starts(threshold, len, &mut starts);
            let want: Vec<usize> = crate::events::rising_edges(series, threshold)
                .into_iter()
                .map(|e| e.index)
                .filter(|&i| i + len <= series.len())
                .collect();
            assert_eq!(starts, want, "threshold {threshold}, window {len}");
        }
        let view = ResidualView::new(short.values(), short.resolution().hours_f64(), 30);
        view.rising_starts(1.0, 1, &mut starts);
        assert_eq!(starts, [1, 4]);
        let empty = ResidualView::new(&[], 1.0, 30);
        empty.rising_starts(1.0, 1, &mut starts);
        assert!(starts.is_empty());
    }

    /// Detection over the committed 1-min datasets (one day and three
    /// days) — measured (cleaned with the anomaly screen) and
    /// ground-truth series, each also resampled to 15 min — equals the
    /// oracle detector's bit for bit, under both metrics and at baseline
    /// windows narrower and wider than the default.
    #[test]
    fn detector_matches_the_oracle_on_committed_datasets() {
        use flextract_dataset::{ingest, CleaningConfig, Dataset};
        let cat = catalog();
        let specs = cat.shiftable();
        let mut configs = Vec::new();
        for metric in [MatchMetric::L2, MatchMetric::L1] {
            for baseline_window in [30, 10, 60] {
                configs.push(MatchConfig {
                    metric,
                    baseline_window,
                    ..MatchConfig::default()
                });
            }
        }
        let cleaning = CleaningConfig {
            screen_anomalies: true,
            ..CleaningConfig::default()
        };
        // Detections per resolution: both grids must see some.
        let mut detections = [0; 2];
        for name in ["ds_household_1min", "ds_household_1min_3d"] {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../datasets")
                .join(name);
            let dataset = Dataset::open(&dir).unwrap();
            for idx in 0..dataset.len() {
                let record = dataset.consumer(idx).unwrap();
                let truth = record.truth_total.clone().unwrap();
                let (measured, _) = ingest::clean(record.measured, &cleaning).unwrap();
                for series_1min in [measured, truth] {
                    let series_15min =
                        flextract_series::resample::to_resolution(&series_1min, Resolution::MIN_15)
                            .unwrap();
                    for (grid, series) in [series_1min, series_15min].iter().enumerate() {
                        for config in &configs {
                            let (found, residual) = detect_activations(series, &specs, config);
                            let (want, want_residual) =
                                detect_activations_oracle(series, &specs, config);
                            assert_eq!(
                                format!("{found:?}"),
                                format!("{want:?}"),
                                "{name} {config:?}"
                            );
                            assert_eq!(bit_vec(residual.values()), bit_vec(want_residual.values()));
                            detections[grid] += found.len();
                        }
                    }
                }
            }
        }
        assert!(
            detections.iter().all(|&d| d > 0),
            "the oracle comparison saw no detections on a grid: {detections:?}"
        );
    }
}
