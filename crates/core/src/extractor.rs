//! The extraction trait and shared offer-construction helpers.

use crate::{ExtractionConfig, ExtractionError, ExtractionInput, ExtractionOutput};
use flextract_appliance::Catalog;
use flextract_disagg::{detect_activations, DetectedActivation, MatchConfig};
use flextract_flexoffer::{EnergyRange, FlexOffer};
use flextract_series::TimeSeries;
use flextract_time::{Duration, Timestamp};
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;

/// A flexibility-extraction approach (one branch of the paper's
/// Figure-3 taxonomy).
///
/// Implementations are deterministic given the input and the caller's
/// RNG state, so experiments are reproducible end-to-end. They must be
/// `Send + Sync`: one extractor instance is shared by reference across
/// the scenario runner's consumer worker threads (extractors are plain
/// configuration data — all per-run state lives in the caller's RNG).
pub trait FlexibilityExtractor: Send + Sync {
    /// Short machine-friendly name (used in diagnostics and reports).
    fn name(&self) -> &'static str;

    /// Run the approach over `input`.
    fn extract(
        &self,
        input: &ExtractionInput<'_>,
        rng: &mut StdRng,
    ) -> Result<ExtractionOutput, ExtractionError>;
}

/// Step 1 of the appliance-level approaches: the shiftable appliance
/// cycles in `fine`. Detections attached to `input` are used as they are
/// when `match_cfg` is the default they were made with (the
/// [`ExtractionInput::with_detections`] contract); otherwise detection
/// runs here.
pub(crate) fn shiftable_detections<'a>(
    input: &ExtractionInput<'a>,
    fine: &TimeSeries,
    catalog: &Catalog,
    match_cfg: &MatchConfig,
) -> Cow<'a, [DetectedActivation]> {
    match input.detections {
        Some(detections) if *match_cfg == MatchConfig::default() => Cow::Borrowed(detections),
        _ => Cow::Owned(detect_activations(fine, &catalog.shiftable(), match_cfg).0),
    }
}

/// Sample a duration uniformly from an inclusive range, rounded **down**
/// to whole slices of `slice_minutes`.
pub(crate) fn sample_flexibility(
    rng: &mut StdRng,
    range: (Duration, Duration),
    slice_minutes: i64,
) -> Duration {
    let lo = range.0.as_minutes();
    let hi = range.1.as_minutes();
    let raw = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
    Duration::minutes((raw / slice_minutes) * slice_minutes)
}

/// Build a validated flex-offer whose profile extracts exactly
/// `slice_energies` from the series (the *average* of each slice's
/// `[min, max]` band is **not** required to equal the extracted energy —
/// the band brackets it per the config's controlled variation, the
/// paper's "minimum and maximum percentage of required energy").
///
/// `earliest_start` anchors the profile; the offer's latest start is
/// `earliest_start + flexibility` (sampled from the config range).
pub(crate) fn build_offer(
    id: u64,
    cfg: &ExtractionConfig,
    rng: &mut StdRng,
    earliest_start: Timestamp,
    slice_energies: &[f64],
) -> Result<FlexOffer, ExtractionError> {
    debug_assert!(!slice_energies.is_empty());
    let slices: Vec<EnergyRange> = slice_energies
        .iter()
        .map(|&e| {
            let e = e.max(0.0);
            let min_f = sample_fraction(rng, cfg.min_energy_fraction);
            let max_f = sample_fraction(rng, cfg.max_energy_fraction);
            EnergyRange::new(e * min_f, e * max_f)
        })
        .collect::<Result<_, _>>()?;

    let flexibility = sample_flexibility(rng, cfg.time_flexibility, cfg.slice_resolution.minutes());
    let latest_start = earliest_start + flexibility;
    let creation = earliest_start - cfg.creation_lead;
    let acceptance = (creation + cfg.acceptance_offset).min(earliest_start);
    let assignment = (earliest_start - cfg.assignment_lead).max(acceptance);

    Ok(FlexOffer::builder(id)
        .start_window(earliest_start, latest_start)
        .slices(cfg.slice_resolution, slices)
        .created_at(creation)
        .acceptance_by(acceptance)
        .assignment_by(assignment)
        .build()?)
}

/// Re-bin a fine-resolution cycle series onto `modified`'s grid,
/// capping at the energy each target interval still holds, subtracting
/// the capped amounts from `modified` and accumulating them into
/// `extracted`.
///
/// Returns `(first_target_index, per_interval_energies)` for the span
/// the cycle actually touched, or `None` when the cycle lies entirely
/// outside the series (or extracted nothing).
pub(crate) fn extract_cycle(
    modified: &mut flextract_series::TimeSeries,
    extracted: &mut flextract_series::TimeSeries,
    cycle_fine: &flextract_series::TimeSeries,
) -> Option<(usize, Vec<f64>)> {
    // Accumulate the cycle's energy per target interval.
    let mut lo: Option<usize> = None;
    let mut hi: Option<usize> = None;
    for (t, _) in cycle_fine.iter() {
        if let Some(i) = modified.index_of(t) {
            lo = Some(lo.map_or(i, |l: usize| l.min(i)));
            hi = Some(hi.map_or(i, |h: usize| h.max(i)));
        }
    }
    let (lo, hi) = (lo?, hi?);
    let mut energies = vec![0.0; hi - lo + 1];
    for (t, v) in cycle_fine.iter() {
        if let Some(i) = modified.index_of(t) {
            energies[i - lo] += v;
        }
    }
    // Cap, subtract, accumulate.
    let mut any = false;
    for (k, e) in energies.iter_mut().enumerate() {
        let available = modified.values()[lo + k].max(0.0);
        *e = e.min(available).max(0.0);
        if *e > 0.0 {
            any = true;
        }
        modified.values_mut()[lo + k] -= *e;
        extracted.values_mut()[lo + k] += *e;
    }
    if any {
        Some((lo, energies))
    } else {
        None
    }
}

fn sample_fraction(rng: &mut StdRng, range: (f64, f64)) -> f64 {
    if range.1 > range.0 {
        rng.gen_range(range.0..=range.1)
    } else {
        range.0
    }
}

/// Sample a slice count from the config range, clamped to `available`.
pub(crate) fn sample_slice_count(
    rng: &mut StdRng,
    cfg: &ExtractionConfig,
    available: usize,
) -> usize {
    let hi = cfg.slices_per_offer.1.min(available.max(1));
    let lo = cfg.slices_per_offer.0.min(hi);
    if hi > lo {
        rng.gen_range(lo..=hi)
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn built_offers_always_validate() {
        let cfg = ExtractionConfig::default();
        let mut r = rng();
        let start: Timestamp = "2013-03-18 18:00".parse().unwrap();
        for i in 0..100 {
            let energies = vec![0.3; 1 + (i % 7)];
            let offer = build_offer(i as u64, &cfg, &mut r, start, &energies).unwrap();
            assert!(offer.validate().is_ok());
            assert_eq!(offer.profile().len(), energies.len());
            // Band brackets the extracted energy.
            for (slice, &e) in offer.profile().slices().iter().zip(&energies) {
                assert!(slice.min <= e * 0.95 + 1e-9);
                assert!(slice.max >= e * 1.05 - 1e-9);
            }
        }
    }

    #[test]
    fn flexibility_is_slice_aligned_and_in_range() {
        let cfg = ExtractionConfig::default();
        let mut r = rng();
        for _ in 0..100 {
            let f = sample_flexibility(&mut r, cfg.time_flexibility, 15);
            assert_eq!(f.as_minutes() % 15, 0);
            assert!(f >= Duration::ZERO);
            assert!(f <= cfg.time_flexibility.1);
        }
        // Degenerate range collapses to the low bound.
        let f = sample_flexibility(&mut r, (Duration::hours(2), Duration::hours(2)), 15);
        assert_eq!(f, Duration::hours(2));
    }

    #[test]
    fn zero_energy_slices_are_legal() {
        let cfg = ExtractionConfig::default();
        let mut r = rng();
        let start: Timestamp = "2013-03-18 06:00".parse().unwrap();
        let offer = build_offer(1, &cfg, &mut r, start, &[0.0, 0.0]).unwrap();
        assert_eq!(offer.total_energy().min, 0.0);
        // Negative inputs are clamped, not propagated.
        let offer = build_offer(2, &cfg, &mut r, start, &[-0.5]).unwrap();
        assert_eq!(offer.total_energy().min, 0.0);
    }

    #[test]
    fn slice_count_respects_bounds() {
        let cfg = ExtractionConfig::default(); // range (4, 8)
        let mut r = rng();
        for _ in 0..50 {
            let n = sample_slice_count(&mut r, &cfg, 100);
            assert!((4..=8).contains(&n));
            // Clamped by availability.
            let n = sample_slice_count(&mut r, &cfg, 3);
            assert!((1..=3).contains(&n));
            let n = sample_slice_count(&mut r, &cfg, 0);
            assert_eq!(n, 1);
        }
    }

    #[test]
    fn lifecycle_of_built_offers_is_ordered() {
        let cfg = ExtractionConfig {
            // Pathological: acceptance offset longer than creation lead.
            acceptance_offset: Duration::hours(48),
            ..ExtractionConfig::default()
        };
        let mut r = rng();
        let start: Timestamp = "2013-03-18 06:00".parse().unwrap();
        let offer = build_offer(1, &cfg, &mut r, start, &[1.0]).unwrap();
        assert!(offer.creation_time() <= offer.acceptance_deadline());
        assert!(offer.acceptance_deadline() <= offer.assignment_deadline());
        assert!(offer.assignment_deadline() <= offer.earliest_start());
    }

    #[test]
    fn unaligned_start_is_rejected() {
        let cfg = ExtractionConfig::default();
        let mut r = rng();
        let start: Timestamp = "2013-03-18 06:07".parse().unwrap();
        assert!(matches!(
            build_offer(1, &cfg, &mut r, start, &[1.0]),
            Err(ExtractionError::FlexOffer(_))
        ));
    }
}
