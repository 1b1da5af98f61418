//! Extraction inputs, outputs and diagnostics.

use flextract_appliance::Catalog;
use flextract_disagg::DetectedActivation;
use flextract_flexoffer::FlexOffer;
use flextract_series::TimeSeries;
use flextract_time::Timestamp;
use serde::{Deserialize, Serialize};

/// Everything an extraction approach may consume (the paper's Figure 2:
/// historical time series + context information).
///
/// Only [`ExtractionInput::series`] is mandatory; the optional fields
/// unlock the approaches that need them.
#[derive(Debug, Clone, Copy)]
pub struct ExtractionInput<'a> {
    /// Total household consumption at market granularity (15 min) —
    /// the input of every §3 approach.
    pub series: &'a TimeSeries,
    /// The same consumer's consumption under a *flat* tariff — the
    /// reference the multi-tariff approach compares against (§3.3).
    pub reference_series: Option<&'a TimeSeries>,
    /// A finer-granularity version of `series` (1-min from the
    /// simulator) for the appliance-level approaches, which need
    /// sub-15-min signal (§4, §6).
    pub fine_series: Option<&'a TimeSeries>,
    /// The appliance specification catalog (§4's context information).
    pub catalog: Option<&'a Catalog>,
    /// Appliance cycles already detected in the fine series (see
    /// [`ExtractionInput::with_detections`]).
    pub detections: Option<&'a [DetectedActivation]>,
}

impl<'a> ExtractionInput<'a> {
    /// An input with only the household series (enough for random,
    /// basic and peak-based extraction).
    pub fn household(series: &'a TimeSeries) -> Self {
        ExtractionInput {
            series,
            reference_series: None,
            fine_series: None,
            catalog: None,
            detections: None,
        }
    }

    /// Attach the one-tariff reference (enables multi-tariff
    /// extraction).
    pub fn with_reference(mut self, reference: &'a TimeSeries) -> Self {
        self.reference_series = Some(reference);
        self
    }

    /// Attach a fine-granularity series (improves appliance-level
    /// extraction).
    pub fn with_fine_series(mut self, fine: &'a TimeSeries) -> Self {
        self.fine_series = Some(fine);
        self
    }

    /// Attach the appliance catalog (enables appliance-level
    /// extraction).
    pub fn with_catalog(mut self, catalog: &'a Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Attach the appliance cycles already detected in the fine series,
    /// so the appliance-level extractors skip their own detection pass.
    ///
    /// Contract: `detections` must equal the first element of
    /// `detect_activations(fine, &catalog.shiftable(),
    /// &MatchConfig::default())`, where `fine` is the attached fine
    /// series (or [`ExtractionInput::series`] when none is attached)
    /// and `catalog` the attached catalog — what
    /// `disaggregate(fine, catalog, &DisaggConfig::shiftable())`
    /// returns. Extractors configured with a non-default
    /// [`flextract_disagg::MatchConfig`] ignore them and detect anew.
    pub fn with_detections(mut self, detections: &'a [DetectedActivation]) -> Self {
        self.detections = Some(detections);
        self
    }
}

/// One candidate peak in a [`PeakDayReport`] — the rows of the paper's
/// Figure-5 annotation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeakInfo {
    /// 1-based peak number in time order (Figure 5 numbers peaks 1–8).
    pub number: usize,
    /// Start instant of the peak.
    pub start: Timestamp,
    /// Number of intervals in the peak.
    pub intervals: usize,
    /// Peak size: total energy in kWh (Figure 5's "size=…").
    pub size_kwh: f64,
    /// Whether the peak survived the filtering phase.
    pub survived_filter: bool,
    /// Selection probability among survivors (Figure 5's
    /// "probability = …"); zero for filtered-out peaks.
    pub probability: f64,
}

/// Per-day diagnostics of the peak-based approach — everything needed
/// to regenerate Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeakDayReport {
    /// Midnight of the analysed day.
    pub day: Timestamp,
    /// Total consumption of the day (Figure 5's 39.02 kWh).
    pub day_total_kwh: f64,
    /// The detection threshold (the "thick horizontal line").
    pub threshold_kwh: f64,
    /// The filtering threshold: `flexible_share × day_total`
    /// (Figure 5's 1.951 kWh).
    pub min_peak_energy_kwh: f64,
    /// All detected peaks in time order.
    pub peaks: Vec<PeakInfo>,
    /// The number (1-based) of the selected peak, if any survived.
    pub selected: Option<usize>,
}

/// Free-form extraction diagnostics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Human-readable notes (skipped days, degenerate periods, …).
    pub notes: Vec<String>,
    /// Peak-approach day reports (empty for other approaches).
    pub peak_reports: Vec<PeakDayReport>,
    /// Appliance-level step-1 summary (frequency/schedule approaches).
    pub shortlist: Vec<String>,
}

/// The result of one extraction run — the paper's Figure 2 outputs:
/// "flex-offers" plus the "(modified) time series".
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionOutput {
    /// Which approach produced this output.
    pub approach: &'static str,
    /// The extracted flex-offers, in earliest-start order.
    pub flex_offers: Vec<FlexOffer>,
    /// The input series with the extracted flexible energy subtracted.
    pub modified_series: TimeSeries,
    /// The extracted flexible energy itself, on the input grid
    /// (`modified + extracted = input`, exactly).
    pub extracted_series: TimeSeries,
    /// Run diagnostics.
    pub diagnostics: Diagnostics,
}

impl ExtractionOutput {
    /// Total extracted flexible energy (kWh).
    pub fn extracted_energy(&self) -> f64 {
        self.extracted_series.total_energy()
    }

    /// Achieved flexible share relative to the original input.
    pub fn achieved_share(&self) -> f64 {
        let original = self.modified_series.total_energy() + self.extracted_series.total_energy();
        if original <= 0.0 {
            0.0
        } else {
            self.extracted_energy() / original
        }
    }

    /// Validate every offer and the energy-accounting invariant; used
    /// by tests and by callers that persist extraction results.
    pub fn check_invariants(&self, original: &TimeSeries) -> Result<(), String> {
        for offer in &self.flex_offers {
            offer
                .validate()
                .map_err(|e| format!("offer {} invalid: {e}", offer.id()))?;
        }
        let back = self
            .modified_series
            .add(&self.extracted_series)
            .map_err(|e| format!("grid mismatch: {e}"))?;
        if back.len() != original.len() {
            return Err(format!(
                "length drift: {} vs {}",
                back.len(),
                original.len()
            ));
        }
        for (i, (a, b)) in back.values().iter().zip(original.values()).enumerate() {
            if (a - b).abs() > 1e-6 {
                return Err(format!(
                    "energy accounting broken at interval {i}: {a} vs {b}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::Resolution;

    fn series(vals: Vec<f64>) -> TimeSeries {
        TimeSeries::new("2013-03-18".parse().unwrap(), Resolution::MIN_15, vals).unwrap()
    }

    #[test]
    fn input_builders_attach_optionals() {
        let s = series(vec![1.0; 96]);
        let r = series(vec![0.9; 96]);
        let cat = Catalog::table1();
        let input = ExtractionInput::household(&s)
            .with_reference(&r)
            .with_catalog(&cat);
        assert!(input.reference_series.is_some());
        assert!(input.catalog.is_some());
        assert!(input.fine_series.is_none());
        let plain = ExtractionInput::household(&s);
        assert!(plain.reference_series.is_none());
    }

    #[test]
    fn achieved_share_matches_energy_split() {
        let out = ExtractionOutput {
            approach: "test",
            flex_offers: vec![],
            modified_series: series(vec![0.95; 96]),
            extracted_series: series(vec![0.05; 96]),
            diagnostics: Diagnostics::default(),
        };
        assert!((out.achieved_share() - 0.05).abs() < 1e-9);
        assert!((out.extracted_energy() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn invariant_check_catches_imbalance() {
        let original = series(vec![1.0; 96]);
        let bad = ExtractionOutput {
            approach: "test",
            flex_offers: vec![],
            modified_series: series(vec![0.95; 96]),
            extracted_series: series(vec![0.1; 96]), // 0.95 + 0.1 != 1.0
            diagnostics: Diagnostics::default(),
        };
        assert!(bad.check_invariants(&original).is_err());
        let good = ExtractionOutput {
            approach: "test",
            flex_offers: vec![],
            modified_series: series(vec![0.95; 96]),
            extracted_series: series(vec![0.05; 96]),
            diagnostics: Diagnostics::default(),
        };
        assert!(good.check_invariants(&original).is_ok());
    }

    #[test]
    fn zero_energy_share_is_zero() {
        let out = ExtractionOutput {
            approach: "test",
            flex_offers: vec![],
            modified_series: series(vec![0.0; 4]),
            extracted_series: series(vec![0.0; 4]),
            diagnostics: Diagnostics::default(),
        };
        assert_eq!(out.achieved_share(), 0.0);
    }

    #[test]
    fn peak_report_serde() {
        let report = PeakDayReport {
            day: "2013-03-18".parse().unwrap(),
            day_total_kwh: 39.02,
            threshold_kwh: 0.4065,
            min_peak_energy_kwh: 1.951,
            peaks: vec![PeakInfo {
                number: 7,
                start: "2013-03-18 18:00".parse().unwrap(),
                intervals: 6,
                size_kwh: 5.47,
                survived_filter: true,
                probability: 0.71,
            }],
            selected: Some(7),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: PeakDayReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
