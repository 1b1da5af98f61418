//! The schedule-based appliance-level approach (paper §4.2).
//!
//! "Firstly, it derives the shortlist of the appliances and their usage
//! schedule. Then in step 2, the extraction formulates flex-offers
//! based on the given schedule" — refining the frequency-based approach
//! with day-kind awareness ("the dishwasher is more used during the
//! weekends since the family eats at home more often").

use crate::extractor::{extract_cycle, shiftable_detections, FlexibilityExtractor};
use crate::{Diagnostics, ExtractionConfig, ExtractionError, ExtractionInput, ExtractionOutput};
use flextract_disagg::{MatchConfig, MinedSchedule};
use flextract_flexoffer::{EnergyRange, FlexOffer};
use flextract_series::segment::{split_whole_days, DayKind};
use flextract_series::TimeSeries;
use flextract_time::Duration;
use rand::rngs::StdRng;
use rand::Rng;

/// Schedule-driven extraction: offers follow the mined usage schedule.
#[derive(Debug, Clone)]
pub struct ScheduleBasedExtractor {
    cfg: ExtractionConfig,
    match_cfg: MatchConfig,
    /// Histogram bin width for schedule mining (minutes).
    bin_minutes: u32,
    /// Minimum per-day rate for a bin run to become a schedule slot.
    min_slot_rate: f64,
}

impl ScheduleBasedExtractor {
    /// Build with default mining parameters (60-min bins, 0.25 rate).
    pub fn new(cfg: ExtractionConfig) -> Self {
        ScheduleBasedExtractor {
            cfg,
            match_cfg: MatchConfig::default(),
            bin_minutes: 60,
            min_slot_rate: 0.25,
        }
    }

    /// Override mining parameters (ablation knob).
    pub fn with_mining(cfg: ExtractionConfig, bin_minutes: u32, min_slot_rate: f64) -> Self {
        ScheduleBasedExtractor {
            cfg,
            match_cfg: MatchConfig::default(),
            bin_minutes,
            min_slot_rate,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExtractionConfig {
        &self.cfg
    }
}

impl FlexibilityExtractor for ScheduleBasedExtractor {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn extract(
        &self,
        input: &ExtractionInput<'_>,
        rng: &mut StdRng,
    ) -> Result<ExtractionOutput, ExtractionError> {
        self.cfg.validate()?;
        let series = input.series;
        if series.is_empty() {
            return Err(ExtractionError::EmptySeries);
        }
        let catalog = input.catalog.ok_or(ExtractionError::MissingCatalog)?;
        let fine = input.fine_series.unwrap_or(series);

        // ---- Step 1: detections → per-day-kind schedules.
        let detections = shiftable_detections(input, fine, catalog, &self.match_cfg);
        let days = split_whole_days(fine);
        let workdays = days
            .iter()
            .filter(|d| !d.start().day_of_week().is_weekend())
            .count() as f64;
        let weekend_days = days.len() as f64 - workdays;
        let schedules =
            MinedSchedule::mine_all(&detections, workdays, weekend_days, self.bin_minutes);

        let mut diagnostics = Diagnostics::default();
        for s in &schedules {
            let slots = s.slots(self.min_slot_rate);
            if !slots.is_empty() {
                diagnostics.shortlist.push(format!(
                    "{}: {} slot(s), {:.2}/workday, {:.2}/weekend-day",
                    s.appliance,
                    slots.len(),
                    s.daily_rate(DayKind::Workday),
                    s.daily_rate(DayKind::Weekend),
                ));
            }
        }

        // ---- Step 2: walk the observed days and formulate offers
        // where the schedule says the appliance runs.
        let mut modified = series.clone();
        let mut extracted = TimeSeries::zeros_like(series);
        let mut offers: Vec<FlexOffer> = Vec::new();
        let mut next_id = 1u64;
        let slice_min = self.cfg.slice_resolution.minutes();

        for day in split_whole_days(series) {
            let weekend = day.start().day_of_week().is_weekend();
            for schedule in &schedules {
                let Some(spec) = catalog.find_by_name(&schedule.appliance) else {
                    continue;
                };
                let flexibility = spec.shiftability.max_delay();
                if flexibility <= Duration::ZERO {
                    continue;
                }
                for slot in schedule.slots(self.min_slot_rate) {
                    let kind_matches = match slot.day_kind {
                        DayKind::Workday => !weekend,
                        DayKind::Weekend => weekend,
                        DayKind::All => true,
                    };
                    if !kind_matches {
                        continue;
                    }
                    // Expected activations this day in this slot:
                    // deterministic whole part + Bernoulli remainder.
                    let expected = slot.expected_per_day;
                    let mut count = expected.floor() as usize;
                    if rng.gen::<f64>() < expected.fract() {
                        count += 1;
                    }
                    for _ in 0..count {
                        // Pick the slice-aligned start inside the slot
                        // window with the most residual energy under
                        // the cycle span.
                        let w_from = slot.window_start.minute_of_day() as i64;
                        let w_to = slot.window_end.minute_of_day() as i64;
                        let cycle_min = spec.profile.duration().as_minutes();
                        let mut best: Option<(f64, i64)> = None;
                        let mut m = (w_from / slice_min) * slice_min;
                        while m <= w_to {
                            let start_t = day.start() + Duration::minutes(m);
                            let span = flextract_time::TimeRange::starting_at(
                                start_t,
                                Duration::minutes(cycle_min),
                            )
                            .expect("cycle durations are positive");
                            let support = modified.energy_in(span);
                            if best.is_none_or(|(b, _)| support > b) {
                                best = Some((support, m));
                            }
                            m += slice_min;
                        }
                        let Some((support, minute)) = best else {
                            continue;
                        };
                        let nominal = spec.profile.cycle_energy_kwh(0.5);
                        if support < 0.3 * nominal {
                            diagnostics.notes.push(format!(
                                "{} {}: slot lacks consumption support ({support:.2} kWh)",
                                schedule.appliance,
                                day.start().date()
                            ));
                            continue;
                        }
                        let start_t = day.start() + Duration::minutes(minute);
                        let cycle = spec.profile.to_energy_series(start_t, 0.5);
                        let Some((lo, energies)) =
                            extract_cycle(&mut modified, &mut extracted, &cycle)
                        else {
                            continue;
                        };
                        let realised = spec.profile.cycle_energy_kwh(0.5);
                        let (env_lo, env_hi) = spec.profile.energy_range_kwh();
                        let lo_ratio = (env_lo / realised).min(1.0);
                        let hi_ratio = (env_hi / realised).max(1.0);
                        let slices: Vec<EnergyRange> = energies
                            .iter()
                            .map(|&e| EnergyRange::new(e * lo_ratio, e * hi_ratio))
                            .collect::<Result<_, _>>()?;
                        let earliest = modified.timestamp_of(lo);
                        let latest = earliest
                            + Duration::minutes((flexibility.as_minutes() / slice_min) * slice_min);
                        let creation = earliest - self.cfg.creation_lead;
                        let acceptance = (creation + self.cfg.acceptance_offset).min(earliest);
                        let assignment = (earliest - self.cfg.assignment_lead).max(acceptance);
                        let offer = FlexOffer::builder(next_id)
                            .start_window(earliest, latest)
                            .slices(self.cfg.slice_resolution, slices)
                            .created_at(creation)
                            .acceptance_by(acceptance)
                            .assignment_by(assignment)
                            .build()?;
                        next_id += 1;
                        offers.push(offer);
                    }
                }
            }
        }
        diagnostics.notes.push(format!(
            "{} detections mined into {} schedules; {} offers emitted",
            detections.len(),
            schedules.len(),
            offers.len()
        ));
        offers.sort_by_key(|o| o.earliest_start());
        Ok(ExtractionOutput {
            approach: self.name(),
            flex_offers: offers,
            modified_series: modified,
            extracted_series: extracted,
            diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_appliance::Catalog;
    use flextract_series::{resample, TimeSeries};
    use flextract_time::{Resolution, TimeRange, Timestamp};
    use rand::SeedableRng;

    /// Two weeks at 1-min resolution with a washer cycle every day at
    /// 19:00 over a small base load.
    fn routine() -> (TimeSeries, TimeSeries) {
        let cat = Catalog::extended();
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let range = TimeRange::starting_at(start, Duration::weeks(2)).unwrap();
        let mut fine = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        for v in fine.values_mut() {
            *v = 0.1 / 60.0;
        }
        let washer = cat
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        for d in 0..14 {
            let at = start + Duration::days(d) + Duration::hours(19);
            fine.add_overlapping(&washer.profile.to_energy_series(at, 0.5))
                .unwrap();
        }
        let market = resample::downsample(&fine, Resolution::MIN_15).unwrap();
        (fine, market)
    }

    fn run(seed: u64) -> (ExtractionOutput, TimeSeries) {
        let (fine, market) = routine();
        let cat = Catalog::extended();
        let ex = ScheduleBasedExtractor::new(ExtractionConfig::default());
        let out = ex
            .extract(
                &ExtractionInput::household(&market)
                    .with_fine_series(&fine)
                    .with_catalog(&cat),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
        (out, market)
    }

    #[test]
    fn mines_the_evening_slot_and_emits_daily_offers() {
        let (out, market) = run(1);
        out.check_invariants(&market).unwrap();
        // The 19:00 washer routine: roughly one offer per day.
        assert!(
            out.flex_offers.len() >= 8 && out.flex_offers.len() <= 16,
            "{} offers",
            out.flex_offers.len()
        );
        // Offers start inside the mined evening slot.
        for offer in &out.flex_offers {
            let hour = offer.earliest_start().time().hour;
            assert!((18..=21).contains(&hour), "offer at {hour}h");
        }
        // The shortlist mentions the washer schedule.
        assert!(out
            .diagnostics
            .shortlist
            .iter()
            .any(|s| s.contains("Washing Machine")));
    }

    /// Supplying the detections the contract names changes nothing in
    /// either appliance-level extractor's output.
    #[test]
    fn supplied_detections_leave_the_output_unchanged() {
        use crate::FrequencyBasedExtractor;
        use flextract_disagg::{disaggregate, DisaggConfig};
        let (fine, market) = routine();
        let cat = Catalog::extended();
        let detections = disaggregate(&fine, &cat, &DisaggConfig::shiftable())
            .unwrap()
            .detections;
        assert!(!detections.is_empty());
        let input = ExtractionInput::household(&market)
            .with_fine_series(&fine)
            .with_catalog(&cat);
        let extractors: [Box<dyn FlexibilityExtractor>; 2] = [
            Box::new(ScheduleBasedExtractor::new(ExtractionConfig::default())),
            Box::new(FrequencyBasedExtractor::new(ExtractionConfig::default())),
        ];
        for ex in &extractors {
            let detect = ex.extract(&input, &mut StdRng::seed_from_u64(4)).unwrap();
            let supplied = ex
                .extract(
                    &input.with_detections(&detections),
                    &mut StdRng::seed_from_u64(4),
                )
                .unwrap();
            assert!(!detect.flex_offers.is_empty(), "{}", ex.name());
            assert_eq!(detect, supplied, "{}", ex.name());
        }
    }

    /// Supplied detections replace the detection pass; an extractor
    /// tuned away from the default matching ignores them.
    #[test]
    fn supplied_detections_replace_detection_under_the_default_matching() {
        use crate::FrequencyBasedExtractor;
        let (fine, market) = routine();
        let cat = Catalog::extended();
        let input = ExtractionInput::household(&market)
            .with_fine_series(&fine)
            .with_catalog(&cat);
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        let none = ex
            .extract(&input.with_detections(&[]), &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert!(none.flex_offers.is_empty());
        let tuned = FrequencyBasedExtractor::with_matching(
            ExtractionConfig::default(),
            MatchConfig {
                score_threshold: 0.3,
                ..MatchConfig::default()
            },
        );
        let fresh = tuned
            .extract(&input, &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert!(!fresh.flex_offers.is_empty());
        assert_eq!(
            tuned
                .extract(&input.with_detections(&[]), &mut StdRng::seed_from_u64(1))
                .unwrap(),
            fresh
        );
    }

    #[test]
    fn offers_carry_catalog_flexibility() {
        let (out, _) = run(2);
        for offer in &out.flex_offers {
            // Washer max delay is 8 h.
            assert_eq!(offer.time_flexibility(), Duration::hours(8));
        }
    }

    #[test]
    fn requires_catalog() {
        let (_, market) = routine();
        let ex = ScheduleBasedExtractor::new(ExtractionConfig::default());
        assert_eq!(
            ex.extract(
                &ExtractionInput::household(&market),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(ExtractionError::MissingCatalog)
        );
    }

    #[test]
    fn quiet_series_emits_nothing() {
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let market = TimeSeries::constant(start, Resolution::MIN_15, 0.025, 96 * 7);
        let cat = Catalog::extended();
        let ex = ScheduleBasedExtractor::new(ExtractionConfig::default());
        let out = ex
            .extract(
                &ExtractionInput::household(&market).with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        assert!(out.flex_offers.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(9);
        let (b, _) = run(9);
        assert_eq!(a.flex_offers, b.flex_offers);
    }

    #[test]
    fn extraction_energy_is_bounded_by_consumption() {
        let (out, market) = run(3);
        assert!(out.extracted_energy() <= market.total_energy());
        assert!(out.modified_series.values().iter().all(|&v| v >= -1e-9));
    }
}
