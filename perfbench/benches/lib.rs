//! Seeded end-to-end benchmark of the flextract workspace, with a
//! traced per-layer breakdown. See `perfbench/README.md`.
//!
//! A workload is a list of parts. Its first part is the workload's own
//! loop at full size and gets half of the run; the other parts are
//! small fixed companion loads, so that every run reports every
//! end-to-end metric. A metric comes from the first part in the list
//! that produces it.

pub mod analyze;
pub mod pipeline;
pub mod store;
pub mod tar;
pub mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use util::{median, Res, WorkDir};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Ops attempted and ops whose output check failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Ops executed.
    pub attempted: u64,
    /// Ops that errored or returned a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Count one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// How large a part's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload's own loop.
    Full,
    /// A companion load inside another workload.
    Companion,
    /// Test size.
    Tiny,
}

/// One round of a part's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Seconds the part should run for in this round (at least one
    /// op runs).
    pub budget: f64,
    /// This round's index.
    pub round: usize,
    /// Rounds in the run.
    pub rounds: usize,
}

/// One measured part of a workload. A run interleaves its parts in
/// rounds, so that each part's samples spread over the whole run.
pub trait Component {
    /// Measure one round, adding to the part's samples. A part set up
    /// for tracing alternates untraced and traced executions.
    fn run(&mut self, slice: Slice, tally: &mut Tally) -> Res<()>;
    /// Metrics over every sample so far: end-to-end metrics, or
    /// per-layer metrics for a traced part. Entries named
    /// `samples.<timing>` give sample counts for the run record.
    fn metrics(&self) -> Metrics;
    /// Make the next output check see a wrong answer (tests only).
    fn inject_fault(&mut self);
}

/// The parts a workload is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Simulated fleet through `ScenarioRunner::run`.
    SimFleet,
    /// Exported metered fleet through `ScenarioRunner::run`.
    MeasuredFleet,
    /// Resident store client.
    Store,
    /// Edit-and-analyze loop over the pinned tree.
    Analyze,
}

impl Part {
    fn name(self) -> &'static str {
        match self {
            Part::SimFleet => "sim_fleet",
            Part::MeasuredFleet => "measured_fleet",
            Part::Store => "store_serve",
            Part::Analyze => "analyze_edit_loop",
        }
    }

    /// End-to-end metrics this part produces.
    fn end_to_end(self) -> &'static [&'static str] {
        match self {
            Part::SimFleet => &["consumers_per_s"],
            Part::MeasuredFleet => &["consumers_per_s", "disk_bytes_per_value"],
            Part::Store => &[
                "point_query_us_p50",
                "point_query_us_p99",
                "fleet_query_us_p50",
                "fleet_query_us_p99",
                "fleet_scan_ms_p50",
                "append_ms_p50",
                "disk_bytes_per_value",
            ],
            Part::Analyze => &["analyze_ms_p50", "analyze_cold_ms_p50"],
        }
    }

    fn setup(
        self,
        scale: Scale,
        seed: u64,
        dir: &std::path::Path,
        traced: bool,
    ) -> Res<(Box<dyn Component>, u64)> {
        Ok(match self {
            Part::SimFleet => {
                let (p, d) = pipeline::setup(pipeline::Kind::Simulated, scale, seed, dir, traced)?;
                (Box::new(p), d)
            }
            Part::MeasuredFleet => {
                let (p, d) = pipeline::setup(pipeline::Kind::Measured, scale, seed, dir, traced)?;
                (Box::new(p), d)
            }
            Part::Store => {
                let (s, d) = store::setup(scale, seed, dir, traced)?;
                (Box::new(s), d)
            }
            Part::Analyze => {
                let (a, d) = analyze::setup(seed, dir, traced)?;
                (Box::new(a), d)
            }
        })
    }
}

/// The benchmark's workloads. The simulated-fleet and analyze loops
/// run only as parts of these (see `perfbench/README.md`): the host's
/// speed drifts over minutes, and two long workloads spread less than
/// four short ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ScenarioRunner::run` over an exported, degraded metered fleet.
    MeasuredFleet,
    /// One closed-loop client against one `ResidentStore`.
    StoreServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::MeasuredFleet, Workload::StoreServe];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        self.parts()[0].name()
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's own part first, then its companions in the order
    /// that decides which part a shared metric comes from.
    pub fn parts(self) -> [Part; 4] {
        use Part::*;
        match self {
            Workload::MeasuredFleet => [MeasuredFleet, Store, Analyze, SimFleet],
            Workload::StoreServe => [Store, SimFleet, Analyze, MeasuredFleet],
        }
    }

    /// The parts a run needs: all of them when traced, otherwise those
    /// that supply an end-to-end metric no earlier part supplies.
    fn active_parts(self, traced: bool) -> Vec<Part> {
        let mut seen: Vec<&str> = Vec::new();
        let mut parts = Vec::new();
        for part in self.parts() {
            let new = part.end_to_end().iter().any(|m| !seen.contains(m));
            seen.extend(part.end_to_end());
            if traced || new {
                parts.push(part);
            }
        }
        parts
    }
}

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("consumers_per_s", "1/s"),
    ("point_query_us_p50", "us"),
    ("point_query_us_p99", "us"),
    ("fleet_query_us_p50", "us"),
    ("fleet_query_us_p99", "us"),
    ("fleet_scan_ms_p50", "ms"),
    ("append_ms_p50", "ms"),
    ("analyze_ms_p50", "ms"),
    ("analyze_cold_ms_p50", "ms"),
    ("disk_bytes_per_value", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.simulate_ms", "ms"),
    ("sim.consumers", "count"),
    ("sim.wind_ms", "ms"),
    ("series.resample_ms", "ms"),
    ("series.merge_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.extract_calls", "count"),
    ("core.offers", "count"),
    ("disagg.disaggregate_ms", "ms"),
    ("disagg.detections", "count"),
    ("agg.aggregate_ms", "ms"),
    ("agg.schedule_ms", "ms"),
    ("agg.offers_per_aggregate", "ratio"),
    ("eval.score_ms", "ms"),
    ("dataset.load_ms", "ms"),
    ("dataset.clean_ms", "ms"),
    ("dataset.gaps_filled", "count"),
    ("frame.chunks_decoded", "count"),
    ("frame.chunk_skip_ratio", "ratio"),
    ("frame.bytes_read", "B"),
    ("frame.bytes_decoded", "B"),
    ("dataset.point_hits", "count"),
    ("dataset.point_misses", "count"),
    ("dataset.point_index_misses", "count"),
    ("dataset.point_hit_us_p50", "us"),
    ("dataset.point_miss_us_p50", "us"),
    ("dataset.point_index_miss_ms_p50", "ms"),
    ("dataset.reopens", "count"),
    ("dataset.generation", "count"),
    ("dataset.bytes_read_index", "B"),
    ("dataset.bytes_saved", "B"),
    ("dataset.frame_cache_bytes", "B"),
    ("dataset.chunk_pool_bytes", "B"),
    ("dataset.shards_pruned_ratio", "ratio"),
    ("dataset.shards_stats_only_ratio", "ratio"),
    ("dataset.shards_opened", "count"),
    ("dataset.append_write_ms", "ms"),
    ("dataset.append_commit_ms", "ms"),
    ("analyze.walk_ms", "ms"),
    ("analyze.cache_ms", "ms"),
    ("analyze.lex_ms", "ms"),
    ("analyze.parse_ms", "ms"),
    ("analyze.symbols_ms", "ms"),
    ("analyze.callgraph_ms", "ms"),
    ("analyze.reach_ms", "ms"),
    ("analyze.other_ms", "ms"),
    ("analyze.files_reparsed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Report per-layer metrics from traced executions instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Scale of the workload's own part and of its companions.
    pub scales: (Scale, Scale),
    /// Set-ups made; the median set-up time is reported.
    pub setup_reps: usize,
    /// Scratch directory, removed afterwards.
    pub work_dir: PathBuf,
    /// Make the workload's own part see one wrong answer (tests only).
    pub inject_fault: bool,
}

/// Share of the measured seconds given to the workload's own part.
const MAIN_SHARE: f64 = 0.5;
/// Rounds a run's parts are interleaved in.
const ROUNDS: usize = 24;

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted and failed, over every part.
    pub tally: Tally,
    /// Reported metrics with units, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Input digest per part.
    pub inputs: Vec<(&'static str, u64)>,
    /// Sample count behind each reported timing.
    pub samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Set up, measure, check and report one run.
pub fn run(opts: &Options) -> Res<Outcome> {
    let parts = opts.workload.active_parts(opts.trace);
    let scale = |i: usize| if i == 0 { opts.scales.0 } else { opts.scales.1 };
    let reps = if opts.trace {
        1
    } else {
        opts.setup_reps.max(1)
    };
    // Each set-up gets its own directory; the whole tree is removed
    // when the run ends.
    let work = WorkDir::create(opts.work_dir.clone())?;
    let mut setup_times = Vec::new();
    let mut components: Vec<Box<dyn Component>> = Vec::new();
    let mut inputs = Vec::new();
    for rep in 0..reps {
        components.clear();
        inputs.clear();
        let t = Instant::now();
        let dir = work.path().join(format!("setup{rep}"));
        util::ctx(std::fs::create_dir_all(&dir), "create a set-up directory")?;
        for (i, part) in parts.iter().enumerate() {
            let (c, digest) = part.setup(scale(i), opts.seed, &dir, opts.trace)?;
            components.push(c);
            inputs.push((part.name(), digest));
        }
        setup_times.push(util::secs(t));
    }
    // Flush the set-up's writes (and the discards of any earlier
    // deletes) before timing: file writes measured right after a large
    // write-and-delete took twice as long as after a flush.
    util::flush_to_disk();
    if opts.inject_fault {
        components[0].inject_fault();
    }

    util::reset_peak_rss();
    let mut tally = Tally::default();
    let mut merged = Metrics::new();
    let n = components.len();
    for round in 0..ROUNDS {
        for (i, c) in components.iter_mut().enumerate() {
            let share = if n == 1 {
                1.0
            } else if i == 0 {
                MAIN_SHARE
            } else {
                (1.0 - MAIN_SHARE) / (n - 1) as f64
            };
            let slice = Slice {
                budget: opts.seconds * share / ROUNDS as f64,
                round,
                rounds: ROUNDS,
            };
            c.run(slice, &mut tally)?;
        }
    }
    for c in &components {
        for (name, value) in c.metrics() {
            merged.entry(name).or_insert(value);
        }
    }
    merged.insert("peak_rss_mb", util::peak_rss_mb());
    merged.insert("setup_s", median(&setup_times));

    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| match merged.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            Some(v) => Err(format!("`{name}` is {v}")),
            None => Err(format!(
                "workload {} produced no `{name}`",
                opts.workload.name()
            )),
        })
        .collect::<Res<Vec<_>>>()?;
    let samples = merged
        .iter()
        .filter_map(|(name, n)| Some((name.strip_prefix("samples.")?, *n as usize)))
        .collect();
    Ok(Outcome {
        tally,
        metrics,
        inputs,
        samples,
    })
}
