//! The two scenario pipelines: a simulated household fleet
//! (`sim_fleet`) and a degraded metered fleet read back from disk
//! (`measured_fleet`).
//!
//! The untraced loop times `ScenarioRunner::run`. The traced loop
//! rebuilds the same execution from the public calls of the crates it
//! crosses — simulate, resample, extract, merge, aggregate, schedule,
//! score; load, clean, disaggregate — and times each call here, so no
//! library code carries instrumentation. Both loops must produce the
//! report and offers of a reference run made at set-up with two
//! consumer threads.

use crate::util::{ctx, median, secs, timed, Fnv, Res, Rounds};
use crate::{Component, Metrics, Scale, Slice, Tally};
use flextract_agg::{aggregate_offers, schedule_offers, AggregationConfig, ScheduleConfig};
use flextract_appliance::Catalog;
use flextract_core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, FlexibilityExtractor,
    FrequencyBasedExtractor, MultiTariffExtractor, PeakExtractor, RandomExtractor,
    ScheduleBasedExtractor,
};
use flextract_dataset::{ingest, CleaningConfig, Degradation, ResidentStore, ScanReport};
use flextract_disagg::{disaggregate, DisaggConfig};
use flextract_eval::{FidelityReport, GroundTruthScore};
use flextract_flexoffer::FlexOffer;
use flextract_scenario::{
    export_dataset, AggregationPolicy, AggregationReport, DatasetCleaning, ExportOptions,
    ExtractorChoice, IngestionReport, Scenario, ScenarioReport, ScenarioRunner, ScheduleReport,
    Workload,
};
use flextract_series::{resample, FillStrategy, TimeSeries};
use flextract_sim::{
    simulate_household_with_catalog, simulate_wind_production, FleetConfig, WindFarmConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Per-consumer RNG stream separation used by the scenario runner
/// (its value is part of the runner's reproducibility contract).
const CONSUMER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated households, `Peak` extractor.
    Simulated,
    /// Exported degraded 1-min fleet, disaggregated, `Schedule`
    /// extractor with the fidelity leg.
    Measured,
}

/// Fleet size of one pipeline at a scale: `(consumers, days)`.
fn fleet_size(kind: Kind, scale: Scale) -> (usize, i64) {
    match (kind, scale) {
        // No workload runs the simulated fleet as its own part.
        (Kind::Simulated, Scale::Full | Scale::Companion) => (400, 1),
        (Kind::Simulated, Scale::Tiny) => (3, 1),
        (Kind::Measured, Scale::Full) => (224, 3),
        (Kind::Measured, Scale::Companion) => (24, 1),
        (Kind::Measured, Scale::Tiny) => (2, 1),
    }
}

fn base_scenario(name: &str, seed: u64, households: usize, days: i64) -> Scenario {
    Scenario {
        name: name.into(),
        description: "seeded benchmark fleet".into(),
        workload: Workload::Households {
            households,
            archetype_mix: FleetConfig::default().archetype_mix,
            tariff_sensitivity: 0.0,
        },
        start: "2013-03-18".into(),
        days,
        resolution_min: 15,
        extractor: ExtractorChoice::Peak,
        flexible_share: 0.05,
        aggregation: AggregationPolicy::Schedule,
        res_capacity_share: 0.3,
        seed,
    }
}

/// The degradation of the exported metered fleet: multiplicative
/// noise, gap runs and 0.001 kWh meter quantization at 1 min.
fn meter_degradation() -> Degradation {
    Degradation {
        noise_std: 0.02,
        gap_rate: 0.002,
        quantize_kwh: 0.001,
        ..Degradation::default()
    }
}

/// Digest of one execution's outputs: the whole report and every
/// offer, as serialized.
fn output_digest(report: &ScenarioReport, offers: &[FlexOffer]) -> Res<u64> {
    let mut h = Fnv::default();
    h.bytes(ctx(serde_json::to_string(report), "serialize report")?.as_bytes());
    h.bytes(ctx(serde_json::to_string(offers), "serialize offers")?.as_bytes());
    Ok(h.0)
}

/// One pipeline, set up and ready to execute.
pub struct Pipeline {
    kind: Kind,
    scenario: Scenario,
    consumers: usize,
    reference: u64,
    /// Series bytes on disk per stored interval (measured fleet only).
    bytes_per_value: Option<f64>,
    traced: bool,
    inject_fault: bool,
    /// Wall seconds of each untraced execution.
    untraced: Vec<f64>,
    /// Consumers per second of each untraced execution, by round.
    rates: Rounds,
    /// Wall seconds and layer spans of each traced execution.
    spans: Vec<(f64, Spans)>,
}

/// Set up a pipeline: build its scenario (exporting the metered fleet
/// first for [`Kind::Measured`]) and record the reference digest from
/// a run at two consumer threads. Returns the pipeline and the digest
/// of its generated inputs.
pub fn setup(
    kind: Kind,
    scale: Scale,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Res<(Pipeline, u64)> {
    let (consumers, days) = fleet_size(kind, scale);
    let mut inputs = Fnv::default();
    let (scenario, bytes_per_value) = match kind {
        Kind::Simulated => (base_scenario("sim_fleet", seed, consumers, days), None),
        Kind::Measured => {
            let source = base_scenario("measured_fleet_source", seed, consumers, days);
            let path = dir.join("measured");
            let summary = ctx(
                export_dataset(
                    &source,
                    &path,
                    &ExportOptions {
                        degradation: meter_degradation(),
                        ..ExportOptions::default()
                    },
                ),
                "export the metered fleet",
            )?;
            inputs.word(crate::util::digest_tree(&path)?);
            inputs.bytes(ctx(serde_json::to_string(&source), "serialize scenario")?.as_bytes());
            let values = (summary.consumers * summary.intervals) as f64;
            let measured_bytes = measured_file_bytes(&path)?;
            let scenario = Scenario {
                name: "measured_fleet".into(),
                workload: Workload::Dataset {
                    path: path.display().to_string(),
                    consumers,
                    cleaning: DatasetCleaning {
                        fill: FillStrategy::Linear,
                        screen_anomalies: true,
                    },
                    disaggregate: true,
                },
                extractor: ExtractorChoice::Schedule,
                ..source
            };
            (scenario, Some(measured_bytes as f64 / values))
        }
    };
    if kind == Kind::Simulated {
        inputs.bytes(ctx(serde_json::to_string(&scenario), "serialize scenario")?.as_bytes());
    }
    let outcome = ctx(
        ScenarioRunner::with_threads(1)
            .with_consumer_threads(2)
            .run(&scenario),
        "reference run at two consumer threads",
    )?;
    let reference = output_digest(&outcome.report, &outcome.offers)?;
    Ok((
        Pipeline {
            kind,
            scenario,
            consumers,
            reference,
            bytes_per_value,
            traced,
            inject_fault: false,
            untraced: Vec::new(),
            rates: Rounds::default(),
            spans: Vec::new(),
        },
        inputs.0,
    ))
}

/// Bytes of the measured-series files (`consumer_*.fxm`, not the
/// ground-truth files riding along) under an exported dataset.
fn measured_file_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in ctx(std::fs::read_dir(dir), "list the exported dataset")? {
        let entry = ctx(entry, "list the exported dataset")?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("consumer_") && name.ends_with(".fxm") {
            total += ctx(entry.metadata(), "stat a series file")?.len();
        }
    }
    Ok(total)
}

impl Pipeline {
    fn check(&mut self, digest: u64, tally: &mut Tally) {
        let wrong = std::mem::take(&mut self.inject_fault);
        tally.record(digest == self.reference && !wrong);
    }

    /// One untraced execution: wall seconds, checked against the
    /// reference.
    fn run_once(&mut self, tally: &mut Tally) -> Res<f64> {
        let runner = ScenarioRunner::with_threads(1).with_consumer_threads(1);
        let t = Instant::now();
        let outcome = runner.run(&self.scenario);
        let wall = secs(t);
        match outcome {
            Ok(o) => {
                let digest = output_digest(&o.report, &o.offers)?;
                self.check(digest, tally);
            }
            Err(_) => tally.record(false),
        }
        Ok(wall)
    }
}

impl Component for Pipeline {
    fn inject_fault(&mut self) {
        self.inject_fault = true;
    }

    fn run(&mut self, slice: Slice, tally: &mut Tally) -> Res<()> {
        let start = Instant::now();
        loop {
            let wall = self.run_once(tally)?;
            self.untraced.push(wall);
            self.rates.push(slice.round, self.consumers as f64 / wall);
            if self.traced {
                let mut spans = Spans::default();
                let t = Instant::now();
                let rebuilt = rebuild(&self.scenario, &mut spans);
                let wall = secs(t) - spans.accounting;
                match rebuilt {
                    Ok((report, offers)) => {
                        let digest = output_digest(&report, &offers)?;
                        self.check(digest, tally);
                    }
                    Err(_) => tally.record(false),
                }
                self.spans.push((wall, spans));
            }
            if secs(start) >= slice.budget {
                return Ok(());
            }
        }
    }

    fn metrics(&self) -> Metrics {
        if self.traced {
            return layer_metrics(self.kind, &self.untraced, &self.spans);
        }
        let mut m = Metrics::new();
        m.insert("consumers_per_s", self.rates.p50());
        m.insert("samples.consumers_per_s", self.rates.len() as f64);
        if let Some(b) = self.bytes_per_value {
            m.insert("disk_bytes_per_value", b);
        }
        m
    }
}

/// Seconds and counts one traced execution spent per layer.
#[derive(Debug, Default, Clone)]
struct Spans {
    simulate: f64,
    resample: f64,
    merge: f64,
    extract: f64,
    disaggregate: f64,
    aggregate: f64,
    wind: f64,
    schedule: f64,
    score: f64,
    load: f64,
    clean: f64,
    /// Time spent collecting frame counters outside the program's own
    /// path; subtracted from the traced wall time.
    accounting: f64,
    simulated: usize,
    extract_calls: usize,
    offers: usize,
    aggregates: usize,
    detections: usize,
    gaps_filled: usize,
    frame: ScanReport,
}

impl Spans {
    fn covered(&self) -> f64 {
        self.simulate
            + self.resample
            + self.merge
            + self.extract
            + self.disaggregate
            + self.aggregate
            + self.wind
            + self.schedule
            + self.score
            + self.load
            + self.clean
    }
}

fn layer_metrics(kind: Kind, untraced: &[f64], traced: &[(f64, Spans)]) -> Metrics {
    let ms = |f: &dyn Fn(&Spans) -> f64| {
        median(&traced.iter().map(|(_, s)| f(s) * 1e3).collect::<Vec<_>>())
    };
    let count = |f: &dyn Fn(&Spans) -> usize| {
        median(&traced.iter().map(|(_, s)| f(s) as f64).collect::<Vec<_>>())
    };
    // Each traced execution runs right after an untraced one; ratios
    // within those pairs cancel the host's slower drifts.
    let paired = |f: &dyn Fn(f64, &(f64, Spans)) -> f64| {
        median(
            &untraced
                .iter()
                .zip(traced)
                .map(|(u, t)| f(*u, t))
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::new();
    m.insert("series.resample_ms", ms(&|s| s.resample));
    m.insert("series.merge_ms", ms(&|s| s.merge));
    m.insert("core.extract_ms", ms(&|s| s.extract));
    m.insert("core.extract_calls", count(&|s| s.extract_calls));
    m.insert("core.offers", count(&|s| s.offers));
    m.insert("agg.aggregate_ms", ms(&|s| s.aggregate));
    m.insert("agg.schedule_ms", ms(&|s| s.schedule));
    m.insert(
        "agg.offers_per_aggregate",
        median(
            &traced
                .iter()
                .map(|(_, s)| s.offers as f64 / s.aggregates.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert("eval.score_ms", ms(&|s| s.score));
    m.insert("sim.wind_ms", ms(&|s| s.wind));
    match kind {
        Kind::Simulated => {
            m.insert("sim.simulate_ms", ms(&|s| s.simulate));
            m.insert("sim.consumers", count(&|s| s.simulated));
        }
        Kind::Measured => {
            m.insert("disagg.disaggregate_ms", ms(&|s| s.disaggregate));
            m.insert("disagg.detections", count(&|s| s.detections));
            m.insert("dataset.load_ms", ms(&|s| s.load));
            m.insert("dataset.clean_ms", ms(&|s| s.clean));
            m.insert("dataset.gaps_filled", count(&|s| s.gaps_filled));
            m.insert("frame.chunks_decoded", count(&|s| s.frame.chunks_decoded));
            m.insert(
                "frame.chunk_skip_ratio",
                median(
                    &traced
                        .iter()
                        .map(|(_, s)| s.frame.skip_fraction())
                        .collect::<Vec<_>>(),
                ),
            );
            m.insert("frame.bytes_read", count(&|s| s.frame.bytes_read));
            m.insert("frame.bytes_decoded", count(&|s| s.frame.bytes_decoded));
        }
    }
    m.insert("trace.coverage", paired(&|u, (_, s)| s.covered() / u));
    m.insert("trace.overhead", paired(&|u, (w, _)| w / u - 1.0));
    m
}

fn extractor_for(choice: ExtractorChoice, cfg: ExtractionConfig) -> Box<dyn FlexibilityExtractor> {
    match choice {
        ExtractorChoice::Random => Box::new(RandomExtractor::new(cfg)),
        ExtractorChoice::Basic => Box::new(BasicExtractor::new(cfg)),
        ExtractorChoice::Peak => Box::new(PeakExtractor::new(cfg)),
        ExtractorChoice::MultiTariff => Box::new(MultiTariffExtractor::new(cfg)),
        ExtractorChoice::Frequency => Box::new(FrequencyBasedExtractor::new(cfg)),
        ExtractorChoice::Schedule => Box::new(ScheduleBasedExtractor::new(cfg)),
    }
}

/// One consumer, ready for extraction (the runner's consumer input).
struct Consumer {
    market: TimeSeries,
    truth: TimeSeries,
    fine: Option<TimeSeries>,
    fidelity_market: Option<TimeSeries>,
    fidelity_fine: Option<TimeSeries>,
    cleaning: Option<flextract_dataset::CleaningReport>,
    detections: usize,
    explained_kwh: f64,
}

/// The folded per-consumer results, in consumer index order.
#[derive(Default)]
struct Folded {
    total: Option<TimeSeries>,
    truth: Option<TimeSeries>,
    extracted: Option<TimeSeries>,
    modified: Option<TimeSeries>,
    offers: Vec<FlexOffer>,
    fidelity_measured_kwh: f64,
    fidelity_truth_kwh: f64,
    fidelity_truth_offers: usize,
    fidelity_consumers: usize,
    ingestion: Option<IngestionReport>,
}

fn add_series(acc: &mut Option<TimeSeries>, s: &TimeSeries) -> Res<()> {
    match acc {
        None => *acc = Some(s.clone()),
        Some(a) => ctx(a.add_assign(s), "merge series")?,
    }
    Ok(())
}

/// Rebuild one `ScenarioRunner::run` execution from public calls,
/// timing each layer into `spans`.
fn rebuild(scenario: &Scenario, spans: &mut Spans) -> Res<(ScenarioReport, Vec<FlexOffer>)> {
    ctx(scenario.validate(), "validate")?;
    let horizon = ctx(scenario.horizon(), "horizon")?;
    let res = ctx(scenario.resolution(), "resolution")?;
    let cfg = ExtractionConfig {
        flexible_share: scenario.flexible_share,
        slice_resolution: res,
        ..ExtractionConfig::default()
    };
    ctx(cfg.validate(), "extraction config")?;
    let extractor = extractor_for(scenario.extractor, cfg);
    let catalog = Catalog::extended();
    let needs_fine = matches!(
        scenario.extractor,
        ExtractorChoice::Frequency | ExtractorChoice::Schedule
    );
    let mut acc = Folded::default();

    let extract_and_fold =
        |acc: &mut Folded, idx: usize, c: Consumer, spans: &mut Spans| -> Res<()> {
            let seed = scenario.seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE);
            let out = timed(&mut spans.extract, || {
                let mut input = ExtractionInput::household(&c.market);
                if let Some(fine) = &c.fine {
                    input = input.with_fine_series(fine).with_catalog(&catalog);
                }
                extractor.extract(&input, &mut StdRng::seed_from_u64(seed))
            });
            let out = ctx(out, "extract")?;
            spans.extract_calls += 1;
            let fidelity_out = match &c.fidelity_market {
                None => None,
                Some(truth_total) => {
                    let out = timed(&mut spans.extract, || {
                        let mut input = ExtractionInput::household(truth_total);
                        if let Some(fine) = &c.fidelity_fine {
                            input = input.with_fine_series(fine).with_catalog(&catalog);
                        }
                        extractor.extract(&input, &mut StdRng::seed_from_u64(seed))
                    });
                    spans.extract_calls += 1;
                    Some(ctx(out, "extract the fidelity leg")?)
                }
            };
            let t = Instant::now();
            add_series(&mut acc.total, &c.market)?;
            add_series(&mut acc.truth, &c.truth)?;
            add_series(&mut acc.extracted, &out.extracted_series)?;
            add_series(&mut acc.modified, &out.modified_series)?;
            let measured_kwh = out.extracted_energy();
            acc.offers.extend(out.flex_offers);
            if let (Some(ingestion), Some(cleaning)) = (&mut acc.ingestion, &c.cleaning) {
                ingestion.absorb_cleaning(cleaning);
                ingestion.disagg_detections += c.detections;
                ingestion.disagg_explained_kwh += c.explained_kwh;
            }
            if let Some(fid) = fidelity_out {
                acc.fidelity_measured_kwh += measured_kwh;
                acc.fidelity_truth_kwh += fid.extracted_energy();
                acc.fidelity_truth_offers += fid.flex_offers.len();
                acc.fidelity_consumers += 1;
            }
            spans.merge += secs(t);
            Ok(())
        };

    match &scenario.workload {
        Workload::Households {
            households,
            archetype_mix,
            ..
        } => {
            let configs = timed(&mut spans.simulate, || {
                FleetConfig {
                    households: *households,
                    base_seed: scenario.seed,
                    archetype_mix: archetype_mix.clone(),
                    tariff_response: None,
                    threads: 1,
                }
                .try_household_configs()
            });
            let configs = ctx(configs, "fleet configs")?;
            for (idx, hh) in configs.iter().enumerate() {
                let sim = timed(&mut spans.simulate, || {
                    let sim = simulate_household_with_catalog(hh, horizon, &catalog);
                    let fine = needs_fine.then(|| sim.series.clone());
                    (sim, fine)
                });
                let (sim, fine) = sim;
                spans.simulated += 1;
                let (market, truth) = timed(&mut spans.resample, || {
                    Ok::<_, String>((
                        ctx(resample::to_resolution_owned(sim.series, res), "resample")?,
                        ctx(
                            resample::to_resolution_owned(sim.flexible_series, res),
                            "resample",
                        )?,
                    ))
                })?;
                let consumer = Consumer {
                    market,
                    truth,
                    fine,
                    fidelity_market: None,
                    fidelity_fine: None,
                    cleaning: None,
                    detections: 0,
                    explained_kwh: 0.0,
                };
                extract_and_fold(&mut acc, idx, consumer, spans)?;
            }
        }
        Workload::Dataset {
            path,
            cleaning,
            disaggregate: disagg,
            ..
        } => {
            let (dataset, fidelity) = timed(&mut spans.load, || {
                let store = ResidentStore::shared(path).map_err(|e| e.to_string())?;
                let dataset = store.dataset().map_err(|e| e.to_string())?;
                let fidelity = dataset.all_have_truth();
                Ok::<_, String>((dataset, fidelity))
            })?;
            acc.ingestion = Some(IngestionReport::new(dataset.resolution_min()));
            let clean_cfg = CleaningConfig {
                fill: cleaning.fill,
                screen_anomalies: cleaning.screen_anomalies,
                ..CleaningConfig::default()
            };
            for idx in 0..dataset.len() {
                let record = timed(&mut spans.load, || {
                    dataset.consumer_in(idx, horizon, fidelity)
                });
                let record = ctx(record, "load consumer")?;
                let t = Instant::now();
                let (_, report) = ctx(dataset.consumer_slice(idx, horizon), "frame counters")?;
                spans.frame.absorb(&report);
                spans.accounting += secs(t);
                let cleaned = timed(&mut spans.clean, || {
                    ingest::clean(record.measured, &clean_cfg)
                });
                let (cleaned, cleaning_report) = ctx(cleaned, "clean")?;
                spans.gaps_filled += cleaning_report.gaps_filled;
                let mut detections = 0;
                let mut explained_kwh = 0.0;
                let mut estimate = None;
                if *disagg {
                    let result = timed(&mut spans.disaggregate, || {
                        disaggregate(&cleaned, &catalog, &DisaggConfig::shiftable())
                    });
                    let result = ctx(result, "disaggregate")?;
                    detections = result.detections.len();
                    explained_kwh = result.explained_kwh;
                    if record.truth_flex.is_none() {
                        estimate = Some(result.explained);
                    }
                }
                spans.detections += detections;
                let consumer = timed(&mut spans.resample, || {
                    let (market, fine) = if *disagg {
                        (resample::to_resolution(&cleaned, res)?, Some(cleaned))
                    } else {
                        (resample::to_resolution_owned(cleaned, res)?, None)
                    };
                    let truth = match (&record.truth_flex, estimate) {
                        (Some(flex), _) => resample::to_resolution(flex, res)?,
                        (None, Some(e)) => resample::to_resolution_owned(e, res)?,
                        (None, None) => TimeSeries::zeros_like(&market),
                    };
                    let fidelity_market = if fidelity {
                        record
                            .truth_total
                            .as_ref()
                            .map(|t| resample::to_resolution(t, res))
                            .transpose()?
                    } else {
                        None
                    };
                    let fidelity_fine = if fidelity && *disagg {
                        record.truth_total
                    } else {
                        None
                    };
                    Ok::<_, flextract_series::SeriesError>(Consumer {
                        market,
                        truth,
                        fine,
                        fidelity_market,
                        fidelity_fine,
                        cleaning: Some(cleaning_report),
                        detections,
                        explained_kwh,
                    })
                });
                extract_and_fold(&mut acc, idx, ctx(consumer, "resample")?, spans)?;
            }
        }
        other => return Err(format!("workload {other:?} is not benchmarked")),
    }

    let ingestion = acc.ingestion;
    let (total, truth, extracted, modified) =
        match (acc.total, acc.truth, acc.extracted, acc.modified) {
            (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
            _ => return Err("empty workload".into()),
        };
    let (score, peak_before, peak_after) = timed(&mut spans.score, || {
        (
            GroundTruthScore::score(&extracted, &truth),
            total.argmax().map_or(0.0, |(_, v)| v),
            modified.argmax().map_or(0.0, |(_, v)| v),
        )
    });
    let offers = acc.offers;
    spans.offers = offers.len();
    let (aggregation, schedule) =
        if scenario.aggregation == AggregationPolicy::None || offers.is_empty() {
            (None, None)
        } else {
            let aggregates = timed(&mut spans.aggregate, || {
                aggregate_offers(&offers, &AggregationConfig::default())
            });
            let aggregates = ctx(aggregates, "aggregate")?;
            spans.aggregates = aggregates.len();
            let agg_report = AggregationReport {
                aggregates: aggregates.len(),
                compression: offers.len() as f64 / aggregates.len().max(1) as f64,
                flexibility_loss_h: aggregates
                    .iter()
                    .map(|a| a.flexibility_loss().as_hours_f64())
                    .sum(),
            };
            if scenario.aggregation != AggregationPolicy::Schedule {
                (Some(agg_report), None)
            } else {
                let mean_kw = total.total_energy() / horizon.duration().as_hours_f64().max(1e-9);
                let farm = WindFarmConfig {
                    capacity_kw: scenario.res_capacity_share * mean_kw,
                    seed: scenario.seed ^ 0xCAFE,
                    ..WindFarmConfig::default()
                };
                let production = timed(&mut spans.wind, || {
                    simulate_wind_production(&farm, horizon, res)
                });
                let result = timed(&mut spans.schedule, || {
                    let agg_offers: Vec<FlexOffer> =
                        aggregates.iter().map(|a| a.offer.clone()).collect();
                    schedule_offers(
                        &agg_offers,
                        &modified,
                        &production,
                        &ScheduleConfig::default(),
                        &mut StdRng::seed_from_u64(scenario.seed ^ 0xBEEF),
                    )
                });
                let result = ctx(result, "schedule")?;
                (
                    Some(agg_report),
                    Some(ScheduleReport {
                        imbalance_improvement: result.improvement(),
                        res_utilisation: result.after.res_utilisation,
                    }),
                )
            }
        };
    let consumers = scenario.workload.consumers();
    let fidelity = (acc.fidelity_consumers == consumers).then(|| {
        FidelityReport::compare(
            acc.fidelity_measured_kwh,
            offers.len(),
            acc.fidelity_truth_kwh,
            acc.fidelity_truth_offers,
        )
    });
    let total_energy = total.total_energy();
    let report = ScenarioReport {
        name: scenario.name.clone(),
        consumers,
        intervals: total.len(),
        resolution_min: res.minutes(),
        total_energy_kwh: total_energy,
        true_flexible_kwh: truth.total_energy(),
        offers: offers.len(),
        extracted_kwh: extracted.total_energy(),
        achieved_share: if total_energy > 0.0 {
            extracted.total_energy() / total_energy
        } else {
            0.0
        },
        precision: score.precision,
        recall: score.recall,
        f1: score.f1(),
        peak_before_kwh: peak_before,
        peak_after_kwh: peak_after,
        peak_reduction: if peak_before > 0.0 {
            1.0 - peak_after / peak_before
        } else {
            0.0
        },
        aggregation,
        schedule,
        ingestion,
        fidelity,
    };
    Ok((report, offers))
}
