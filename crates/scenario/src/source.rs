//! Consumer sources: where a scenario's consumers come from.
//!
//! [`ConsumerSource`] is the random-access contract the sharded runner
//! pulls from: `len()` consumers, each built independently by index
//! through `&self`, so shard workers can claim indices concurrently and
//! the ordered merge (see [`crate::shard`]) stays byte-identical at any
//! thread count. Two sources implement it:
//!
//! * [`SimulatedSource`] — the original path: consumers are simulated
//!   on demand from the workload's fleet parameters.
//! * [`DatasetSource`] — the measured path: consumers are **ingested**
//!   from an on-disk dataset, run through gap-fill → anomaly-screen →
//!   (optionally) the disaggregation pipeline, and handed to extraction
//!   exactly like simulated ones. When the dataset carries simulator
//!   ground truth, the undegraded series rides along so the runner can
//!   extract from both and report the fidelity delta.

use crate::spec::{DatasetCleaning, ExtractorChoice, Scenario, Workload};
use crate::ScenarioError;
use flextract_appliance::Catalog;
use flextract_dataset::{
    ingest, CleaningConfig, CleaningReport, ConsumerKind, Dataset, ResidentStore,
};
use flextract_disagg::{disaggregate, DetectedActivation, DisaggConfig};
use flextract_series::{resample, TimeSeries};
use flextract_sim::{
    simulate_household_with_catalog, simulate_industrial, simulate_tariff_pair, FleetConfig,
    HouseholdArchetype, IndustrialConfig, SimulatedHousehold, TariffResponse,
};
use flextract_time::{Duration, Resolution, TimeRange};

/// Everything the extraction stage needs for one consumer.
pub(crate) struct ConsumerInput {
    /// Observed consumption at the market resolution.
    pub market: TimeSeries,
    /// Flexibility reference at the market resolution: simulator ground
    /// truth, dataset ground truth, the NILM estimate (disaggregating
    /// datasets without truth), or zeros when nothing better exists.
    pub truth: TimeSeries,
    /// Fine series (appliance-level extractors).
    pub fine: Option<TimeSeries>,
    /// One-tariff reference series (multi-tariff extractor only).
    pub reference: Option<TimeSeries>,
    /// Undegraded ground-truth total at the market resolution — the
    /// fidelity leg's extraction input (exported datasets only).
    pub fidelity_market: Option<TimeSeries>,
    /// Fine input of the fidelity leg (ground-truth total at its
    /// source resolution, attached when the workload disaggregates).
    pub fidelity_fine: Option<TimeSeries>,
    /// What the cleaning stage repaired (dataset consumers only).
    pub cleaning: Option<CleaningReport>,
    /// Appliance cycles the disaggregation stage recovered from `fine`
    /// (`None` when the consumer was not disaggregated). They are what
    /// the appliance-level extractors would detect in `fine`, so the
    /// measured leg reuses them instead of detecting again.
    pub detections: Option<Vec<DetectedActivation>>,
    /// Energy the disaggregation stage attributed to appliances (kWh).
    pub disagg_explained_kwh: f64,
}

impl ConsumerInput {
    fn plain(market: TimeSeries, truth: TimeSeries) -> Self {
        ConsumerInput {
            market,
            truth,
            fine: None,
            reference: None,
            fidelity_market: None,
            fidelity_fine: None,
            cleaning: None,
            detections: None,
            disagg_explained_kwh: 0.0,
        }
    }
}

/// A raw (native-resolution, undegraded) simulated consumer — what the
/// dataset exporter degrades and writes to disk.
pub(crate) struct RawConsumer {
    /// Household or industrial site.
    pub kind: ConsumerKind,
    /// Total consumption at the simulator's native resolution.
    pub total: TimeSeries,
    /// Ground-truth flexible consumption at the same resolution.
    pub flexible: TimeSeries,
}

/// The random-access consumer source of one scenario run.
pub(crate) enum ConsumerSource<'a> {
    /// Consumers simulated on demand.
    Simulated(SimulatedSource<'a>),
    /// Consumers ingested from an on-disk dataset (boxed: the open
    /// dataset carries its whole manifest, which would otherwise bloat
    /// every simulated source's stack slot).
    Dataset(Box<DatasetSource<'a>>),
}

impl<'a> ConsumerSource<'a> {
    /// Build the source for `scenario` (opens and validates the dataset
    /// for dataset-backed workloads).
    pub fn new(
        scenario: &'a Scenario,
        horizon: TimeRange,
        res: Resolution,
        catalog: &'a Catalog,
    ) -> Result<Self, ScenarioError> {
        match &scenario.workload {
            Workload::Dataset {
                path,
                consumers,
                cleaning,
                disaggregate,
            } => Ok(ConsumerSource::Dataset(Box::new(DatasetSource::open(
                scenario,
                horizon,
                res,
                catalog,
                path,
                *consumers,
                *cleaning,
                *disaggregate,
            )?))),
            _ => Ok(ConsumerSource::Simulated(SimulatedSource::new(
                scenario, horizon, res, catalog,
            ))),
        }
    }

    /// Total consumers.
    pub fn len(&self) -> usize {
        match self {
            ConsumerSource::Simulated(s) => s.len(),
            ConsumerSource::Dataset(d) => d.len(),
        }
    }

    /// Build consumer `idx`, independent of every other index.
    pub fn consumer(&self, idx: usize) -> Result<ConsumerInput, ScenarioError> {
        match self {
            ConsumerSource::Simulated(s) => s.consumer(idx),
            ConsumerSource::Dataset(d) => d.consumer(idx),
        }
    }

    /// The on-disk resolution for dataset sources (`None` when
    /// simulated).
    pub fn source_resolution_min(&self) -> Option<i64> {
        match self {
            ConsumerSource::Simulated(_) => None,
            ConsumerSource::Dataset(d) => Some(d.source_resolution_min),
        }
    }
}

/// Builds any consumer of a simulated workload by index, on demand.
/// Building a consumer touches nothing but `&self`, so the source is
/// shared across shard workers; large workloads are never materialised
/// as a whole.
pub(crate) struct SimulatedSource<'a> {
    scenario: &'a Scenario,
    horizon: TimeRange,
    res: Resolution,
    catalog: &'a Catalog,
    households: Vec<flextract_sim::HouseholdConfig>,
    tariff_sensitivity: f64,
    sites: usize,
    site_pattern: flextract_sim::ShiftPattern,
}

impl<'a> SimulatedSource<'a> {
    pub fn new(
        scenario: &'a Scenario,
        horizon: TimeRange,
        res: Resolution,
        catalog: &'a Catalog,
    ) -> Self {
        let (households, tariff_sensitivity, sites, site_pattern) = match &scenario.workload {
            Workload::Households {
                households,
                archetype_mix,
                tariff_sensitivity,
            } => (
                fleet_configs(
                    scenario,
                    *households,
                    archetype_mix.clone(),
                    *tariff_sensitivity,
                ),
                *tariff_sensitivity,
                0,
                flextract_sim::ShiftPattern::TwoShift,
            ),
            Workload::Industrial { sites, pattern } => (Vec::new(), 0.0, *sites, *pattern),
            Workload::Mixed { households, sites } => (
                fleet_configs(
                    scenario,
                    *households,
                    FleetConfig::default().archetype_mix,
                    0.0,
                ),
                0.0,
                *sites,
                flextract_sim::ShiftPattern::TwoShift,
            ),
            Workload::Dataset { .. } => {
                unreachable!("dataset workloads build a DatasetSource")
            }
        };
        SimulatedSource {
            scenario,
            horizon,
            res,
            catalog,
            households,
            tariff_sensitivity,
            sites,
            site_pattern,
        }
    }

    /// Total consumers (households first, then industrial sites).
    pub fn len(&self) -> usize {
        self.households.len() + self.sites
    }

    /// Build consumer `idx` (simulate + resample), independent of every
    /// other index.
    pub fn consumer(&self, idx: usize) -> Result<ConsumerInput, ScenarioError> {
        if idx < self.households.len() {
            self.household(&self.households[idx])
        } else {
            let raw = self.raw_site(idx - self.households.len());
            Ok(ConsumerInput::plain(
                resample::to_resolution_owned(raw.total, self.res)?,
                resample::to_resolution_owned(raw.flexible, self.res)?,
            ))
        }
    }

    /// Build consumer `idx` at the simulator's native resolution,
    /// without market resampling — the exporter's entry point.
    ///
    /// Multi-tariff scenarios are not exportable (their reference
    /// series is a *second* simulation of the same consumer, which the
    /// metered format cannot carry), so `raw` always simulates the
    /// plain single-simulation path.
    pub fn raw(&self, idx: usize) -> RawConsumer {
        if idx < self.households.len() {
            let sim =
                simulate_household_with_catalog(&self.households[idx], self.horizon, self.catalog);
            RawConsumer {
                kind: ConsumerKind::Household,
                total: sim.series,
                flexible: sim.flexible_series,
            }
        } else {
            self.raw_site(idx - self.households.len())
        }
    }

    fn raw_site(&self, site_idx: usize) -> RawConsumer {
        let cfg = IndustrialConfig {
            pattern: self.site_pattern,
            seed: self.scenario.seed ^ (0x1D00D + site_idx as u64),
            ..IndustrialConfig::medium_plant(site_idx as u64)
        };
        let sim = simulate_industrial(&cfg, self.horizon);
        RawConsumer {
            kind: ConsumerKind::Industrial,
            total: sim.series,
            flexible: sim.flexible_series,
        }
    }

    fn household(
        &self,
        cfg: &flextract_sim::HouseholdConfig,
    ) -> Result<ConsumerInput, ScenarioError> {
        if self.scenario.extractor == ExtractorChoice::MultiTariff {
            // §3.3 needs the same consumer's one-tariff typical period
            // as reference: simulate the preceding horizon flat.
            let ref_horizon = TimeRange::starting_at(
                self.horizon.start() - Duration::days(self.scenario.days),
                Duration::days(self.scenario.days),
            )
            .expect("days >= 1 by validation");
            let (flat, multi) = simulate_tariff_pair(
                cfg,
                ref_horizon,
                self.horizon,
                TariffResponse::overnight(self.tariff_sensitivity),
            );
            let SimulatedHousehold {
                series,
                flexible_series,
                ..
            } = multi;
            let mut input = ConsumerInput::plain(
                resample::to_resolution_owned(series, self.res)?,
                resample::to_resolution_owned(flexible_series, self.res)?,
            );
            input.reference = Some(resample::to_resolution_owned(flat.series, self.res)?);
            return Ok(input);
        }
        let sim = simulate_household_with_catalog(cfg, self.horizon, self.catalog);
        let needs_fine = matches!(
            self.scenario.extractor,
            ExtractorChoice::Frequency | ExtractorChoice::Schedule
        );
        // Clone the 1-min series only when an appliance-level extractor
        // needs it; the market/truth conversions consume the simulated
        // series, so a 1-min market resolution moves instead of cloning.
        let fine = needs_fine.then(|| sim.series.clone());
        let SimulatedHousehold {
            series,
            flexible_series,
            ..
        } = sim;
        let mut input = ConsumerInput::plain(
            resample::to_resolution_owned(series, self.res)?,
            resample::to_resolution_owned(flexible_series, self.res)?,
        );
        input.fine = fine;
        Ok(input)
    }
}

/// Builds consumers by ingesting an on-disk dataset: load → gap-fill →
/// anomaly-screen → (optionally) disaggregate → resample to the market
/// resolution. Loading is per consumer through `&self`, so the source
/// satisfies the same random-access contract as [`SimulatedSource`] and
/// the sharded runner treats both uniformly.
///
/// Loads are **ranged**: only the scenario horizon is materialized
/// (via [`Dataset::consumer_in`]), so a dataset may cover more time
/// than the scenario uses — for FXM2 files, chunks outside the horizon
/// are never decoded, and the cleaning stage (gap-fill and the
/// rolling-z screen) runs on the chunk-assembled horizon window
/// instead of the whole stored series.
pub(crate) struct DatasetSource<'a> {
    /// The process-wide resident handle for the dataset directory —
    /// kept so repeated scenario runs against one store share its
    /// caches — and the snapshot this run is pinned to: one generation
    /// for every consumer, so a concurrent store commit cannot tear a
    /// run.
    #[allow(dead_code)]
    store: std::sync::Arc<ResidentStore>,
    dataset: std::sync::Arc<Dataset>,
    horizon: TimeRange,
    cleaning: CleaningConfig,
    disaggregate: bool,
    /// Run the paired ground-truth extraction leg — true only when the
    /// manifest carries truth for every consumer (partial coverage
    /// would be discarded by the runner anyway).
    fidelity: bool,
    res: Resolution,
    catalog: &'a Catalog,
    source_resolution_min: i64,
}

impl<'a> DatasetSource<'a> {
    #[allow(clippy::too_many_arguments)]
    fn open(
        scenario: &Scenario,
        horizon: TimeRange,
        res: Resolution,
        catalog: &'a Catalog,
        path: &str,
        declared_consumers: usize,
        cleaning: DatasetCleaning,
        disaggregate: bool,
    ) -> Result<Self, ScenarioError> {
        // One resident handle per store directory, shared process-wide:
        // repeated runs (and `flextract query` in the same process)
        // reuse the parsed indexes. The run itself pins one revalidated
        // snapshot so every consumer reads the same generation.
        let store = ResidentStore::shared(path)?;
        let dataset = store.dataset()?;
        let invalid = |what: String| ScenarioError::Invalid {
            scenario: scenario.name.clone(),
            what: format!("dataset {path}: {what}"),
        };
        if dataset.len() != declared_consumers {
            return Err(invalid(format!(
                "manifest has {} consumers but the spec declares {declared_consumers}",
                dataset.len()
            )));
        }
        let resolution_min = dataset.resolution_min();
        let start = dataset.start_timestamp()?;
        let covered = TimeRange::starting_at(
            start,
            Duration::minutes(dataset.intervals() as i64 * resolution_min),
        )
        .expect("interval counts are non-negative");
        // The dataset must *cover* the horizon (it may cover more —
        // the loads are ranged, so only the horizon is ever decoded).
        if !covered.contains_range(horizon) {
            return Err(invalid(format!(
                "dataset covers {covered} but the scenario horizon {horizon} is not inside it"
            )));
        }
        if (horizon.start() - start).as_minutes() % resolution_min != 0 {
            return Err(invalid(format!(
                "scenario start {} is not aligned to the dataset's {}-min grid (dataset \
                 starts at {start})",
                horizon.start(),
                resolution_min
            )));
        }
        if res.minutes() % resolution_min != 0 {
            return Err(invalid(format!(
                "dataset resolution is {} min, which cannot be resampled to the scenario's \
                 {}-min market resolution (must divide it evenly)",
                resolution_min,
                res.minutes()
            )));
        }
        let _ = dataset.resolution()?; // validated representable

        // Fidelity is only reported when *every* consumer carries
        // ground truth; with partial coverage, skip the paired
        // extraction leg entirely instead of paying for truth loads and
        // duplicate extractions that would be discarded. A sharded
        // store answers from the root roll-up without opening any
        // shard.
        let fidelity = dataset.all_have_truth();
        Ok(DatasetSource {
            source_resolution_min: resolution_min,
            store,
            dataset,
            horizon,
            cleaning: CleaningConfig {
                fill: cleaning.fill,
                screen_anomalies: cleaning.screen_anomalies,
                ..CleaningConfig::default()
            },
            disaggregate,
            fidelity,
            res,
            catalog,
        })
    }

    fn len(&self) -> usize {
        self.dataset.len()
    }

    fn consumer(&self, idx: usize) -> Result<ConsumerInput, ScenarioError> {
        // Ranged read: only the chunks overlapping the scenario
        // horizon are decoded. Without a fidelity leg the truth-total
        // file would be loaded only to be dropped; skip the read
        // entirely.
        let record = self.dataset.consumer_in(idx, self.horizon, self.fidelity)?;
        let (cleaned, cleaning) = ingest::clean(record.measured, &self.cleaning)?;

        let mut detections = None;
        let mut disagg_explained_kwh = 0.0;
        let mut nilm_estimate: Option<TimeSeries> = None;
        if self.disaggregate {
            let result = disaggregate(&cleaned, self.catalog, &DisaggConfig::shiftable())?;
            detections = Some(result.detections);
            disagg_explained_kwh = result.explained_kwh;
            if record.truth_flex.is_none() {
                nilm_estimate = Some(result.explained);
            }
        }

        // Only appliance-level extraction needs the fine series; when
        // it doesn't, move `cleaned` into the resample so the identity
        // path (on-disk resolution == market resolution) stays
        // allocation-free, as on the simulated path.
        let (market, fine) = if self.disaggregate {
            (resample::to_resolution(&cleaned, self.res)?, Some(cleaned))
        } else {
            (resample::to_resolution_owned(cleaned, self.res)?, None)
        };
        let truth = match (&record.truth_flex, nilm_estimate) {
            (Some(flex), _) => resample::to_resolution(flex, self.res)?,
            (None, Some(estimate)) => resample::to_resolution_owned(estimate, self.res)?,
            (None, None) => TimeSeries::zeros_like(&market),
        };
        let fidelity_market = if self.fidelity {
            record
                .truth_total
                .as_ref()
                .map(|t| resample::to_resolution(t, self.res))
                .transpose()?
        } else {
            None
        };
        let fidelity_fine = if self.fidelity && self.disaggregate {
            record.truth_total
        } else {
            None
        };
        Ok(ConsumerInput {
            market,
            truth,
            fine,
            reference: None,
            fidelity_market,
            fidelity_fine,
            cleaning: Some(cleaning),
            detections,
            disagg_explained_kwh,
        })
    }
}

/// Materialise household configs for a scenario's fleet parameters.
/// Validation has already run, so the mix is sampleable.
fn fleet_configs(
    scenario: &Scenario,
    households: usize,
    archetype_mix: Vec<(HouseholdArchetype, f64)>,
    tariff_sensitivity: f64,
) -> Vec<flextract_sim::HouseholdConfig> {
    let fleet = FleetConfig {
        households,
        base_seed: scenario.seed,
        archetype_mix,
        tariff_response: (tariff_sensitivity > 0.0
            && scenario.extractor != ExtractorChoice::MultiTariff)
            .then(|| TariffResponse::overnight(tariff_sensitivity)),
        threads: 1,
    };
    fleet
        .try_household_configs()
        .expect("scenario validation covers the fleet config")
}
