//! `store_serve`: one closed-loop client against one `ResidentStore`
//! (default budgets) over a sharded FXM3 store of quantized 1-min
//! meter series.
//!
//! The op stream is cut into commit intervals. Each interval opens
//! with an append that commits new consumers (bumping the generation
//! and clearing the resident caches), then runs point queries over
//! unaligned sub-day slices with skewed keys and fleet roll-ups
//! answered from shard statistics, and closes with one sliced fleet
//! scan that opens every shard.

use crate::util::{ctx, median, secs, Fnv, Res, Rounds};
use crate::{Component, Metrics, Scale, Slice, Tally};
use flextract_dataset::{
    Aggregates, ConsumerKind, Dataset, MeasuredSeries, Predicate, ResidentConfig, ResidentStore,
    Scan, ScanReport, SeriesCodec, ShardedWriter,
};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Store and op-mix parameters at one scale.
#[derive(Debug, Clone, Copy)]
struct Size {
    consumers: usize,
    days: usize,
    shard_capacity: usize,
    /// Keys that take [`HOT_SHARE`] of the point queries.
    hot: usize,
    /// Ops per commit interval (append and fleet scan included).
    interval_ops: usize,
    /// Consumers committed by each append.
    append: usize,
    /// Commit intervals of the untraced run. The count is fixed, not
    /// the time: every append adds a shard, so a time-bounded run
    /// would end on a store whose size depends on the code's speed.
    intervals: usize,
    /// Commit intervals replayed by the traced run.
    trace_intervals: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            consumers: 768,
            days: 28,
            shard_capacity: 128,
            hot: 48,
            interval_ops: 8192,
            append: 4,
            intervals: 32,
            trace_intervals: 12,
        },
        Scale::Companion => Size {
            consumers: 64,
            days: 28,
            shard_capacity: 16,
            hot: 8,
            interval_ops: 2048,
            append: 4,
            intervals: 24,
            trace_intervals: 8,
        },
        Scale::Tiny => Size {
            consumers: 8,
            days: 2,
            shard_capacity: 4,
            hot: 2,
            interval_ops: 64,
            append: 1,
            intervals: 2,
            trace_intervals: 2,
        },
    }
}

/// Share of point queries that go to the hot keys.
const HOT_SHARE: f64 = 0.95;
/// Share of the interval's middle ops that are fleet roll-ups.
const ROLLUP_SHARE: f64 = 0.1;
/// Every n-th point query (and roll-up, scan) is checked against a
/// fresh `Dataset::open`, besides the first answer after each commit.
const CHECK_POINT_EVERY: usize = 64;
const CHECK_ROLLUP_EVERY: usize = 16;
const CHECK_SCAN_EVERY: usize = 4;
/// The meter register step every stored value is quantized to.
const METER_STEP_KWH: f64 = 0.001;

fn start() -> Timestamp {
    "2013-03-18".parse().expect("static date")
}

/// Seeded 1-min consumption of one consumer: base load, a daily
/// cycle, appliance bursts and read-out noise, quantized to the meter
/// step.
fn consumer_values(seed: u64, id: u64, intervals: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let base: f64 = rng.gen_range(0.003..0.008);
    let (mut burst, mut level) = (0usize, 0.0);
    (0..intervals)
        .map(|i| {
            let minute = (i % 1440) as f64;
            let daily = 0.004 * (1.0 + (std::f64::consts::TAU * (minute - 1080.0) / 1440.0).cos());
            if burst == 0 && rng.gen::<f64>() < 0.004 {
                burst = rng.gen_range(5..60);
                level = rng.gen_range(0.01..0.04);
            }
            let b = if burst > 0 {
                burst -= 1;
                level
            } else {
                0.0
            };
            let noise: f64 = rng.gen_range(-0.0015..0.0015);
            let v: f64 = (base + daily + b + noise).max(0.0);
            (v / METER_STEP_KWH).round() * METER_STEP_KWH
        })
        .collect()
}

fn series(values: Vec<f64>) -> Res<MeasuredSeries> {
    ctx(
        MeasuredSeries::new(start(), Resolution::MIN_1, values),
        "series",
    )
}

/// Write the initial store; returns the digest of every generated
/// value.
fn build(dir: &Path, size: Size, seed: u64) -> Res<u64> {
    let intervals = size.days * 1440;
    let mut w = ctx(
        ShardedWriter::create(
            dir,
            "store_serve",
            "seeded quantized 1-min fleet",
            start(),
            Resolution::MIN_1,
            intervals,
            SeriesCodec::BinaryV3,
            size.shard_capacity,
        ),
        "create the store",
    )?;
    let mut digest = Fnv::default();
    for c in 0..size.consumers {
        let values = consumer_values(seed, c as u64, intervals);
        values.iter().for_each(|v| digest.word(v.to_bits()));
        ctx(
            w.write_consumer(
                &c.to_string(),
                ConsumerKind::Household,
                &series(values)?,
                None,
                None,
            ),
            "write a consumer",
        )?;
    }
    ctx(w.finish(), "commit the store")?;
    Ok(digest.0)
}

/// One op of the stream.
#[derive(Debug, Clone)]
enum Op {
    Append,
    Point { idx: usize, scan: Scan },
    Rollup { scan: Scan },
    FleetScan { scan: Scan },
}

/// The answer of one op, compared bit for bit.
fn answer_bits(a: &Aggregates) -> [u64; 6] {
    [
        a.intervals as u64,
        a.observed as u64,
        a.gaps as u64,
        a.sum_kwh.to_bits(),
        a.min.map_or(u64::MAX, f64::to_bits),
        a.max.map_or(u64::MAX, f64::to_bits),
    ]
}

fn answer_digest(a: &Aggregates) -> u64 {
    let mut h = Fnv::default();
    answer_bits(a).iter().for_each(|w| h.word(*w));
    h.0
}

/// One client over one store directory.
struct Client {
    dir: PathBuf,
    size: Size,
    seed: u64,
    resident: ResidentStore,
    rng: StdRng,
    /// Shard of each initial consumer (appends only add shards).
    shard_of: Vec<usize>,
    hot: Vec<usize>,
    appended: u64,
    /// A `Dataset` opened fresh after the latest commit, for checks.
    fresh: Option<Dataset>,
    checks_due: bool,
    points: usize,
    rollups: usize,
    scans: usize,
}

impl Client {
    fn open(dir: PathBuf, size: Size, seed: u64) -> Res<Client> {
        let resident = ctx(
            ResidentStore::open_with(&dir, ResidentConfig::default()),
            "open the resident store",
        )?;
        let dataset = ctx(resident.dataset(), "snapshot")?;
        let root = dataset.root().ok_or("the store is not sharded")?;
        let shard_of = root
            .shards
            .iter()
            .enumerate()
            .flat_map(|(k, s)| std::iter::repeat_n(k, s.consumers))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E2E);
        let mut hot = BTreeSet::new();
        while hot.len() < size.hot.min(size.consumers) {
            hot.insert(rng.gen_range(0..size.consumers));
        }
        Ok(Client {
            dir,
            size,
            seed,
            resident,
            rng,
            shard_of,
            hot: hot.into_iter().collect(),
            appended: 0,
            fresh: None,
            checks_due: false,
            points: 0,
            rollups: 0,
            scans: 0,
        })
    }

    /// An unaligned sub-day slice inside the stored horizon.
    fn slice(&mut self) -> Scan {
        let horizon = (self.size.days * 1440) as i64;
        let len = self.rng.gen_range(60..1380_i64);
        let from = self.rng.gen_range(0..horizon - len);
        let range =
            TimeRange::starting_at(start() + Duration::minutes(from), Duration::minutes(len))
                .expect("slice inside the horizon");
        Scan::new().time_slice(range)
    }

    /// Op `i` of the current commit interval.
    fn next_op(&mut self, i: usize) -> Op {
        if i == 0 {
            return Op::Append;
        }
        if i + 1 == self.size.interval_ops {
            return Op::FleetScan { scan: self.slice() };
        }
        if self.rng.gen::<f64>() < ROLLUP_SHARE {
            let scan = if self.rng.gen::<bool>() {
                Scan::new()
            } else {
                // Above every stored value: each shard is pruned from
                // its roll-up statistics.
                Scan::new().with_predicate(Predicate::MaxAbove(1e6))
            };
            return Op::Rollup { scan };
        }
        let idx = if self.rng.gen::<f64>() < HOT_SHARE {
            self.hot[self.rng.gen_range(0..self.hot.len())]
        } else {
            self.rng.gen_range(0..self.size.consumers)
        };
        Op::Point {
            idx,
            scan: self.slice(),
        }
    }

    /// The consumers the next append commits (generated before it is
    /// timed).
    fn append_batch(&mut self) -> Res<Vec<(String, MeasuredSeries)>> {
        let intervals = self.size.days * 1440;
        (0..self.size.append)
            .map(|_| {
                self.appended += 1;
                let id = (1 << 32) + self.appended;
                Ok((
                    format!("a{}", self.appended),
                    series(consumer_values(self.seed, id, intervals))?,
                ))
            })
            .collect()
    }

    /// Whether op `op`'s answer is checked against a fresh open.
    fn wants_check(&mut self, op: &Op) -> bool {
        let first = std::mem::take(&mut self.checks_due);
        let sampled = match op {
            Op::Append => return false,
            Op::Point { .. } => {
                self.points += 1;
                self.points.is_multiple_of(CHECK_POINT_EVERY)
            }
            Op::Rollup { .. } => {
                self.rollups += 1;
                self.rollups.is_multiple_of(CHECK_ROLLUP_EVERY)
            }
            Op::FleetScan { .. } => {
                self.scans += 1;
                self.scans.is_multiple_of(CHECK_SCAN_EVERY)
            }
        };
        first || sampled
    }

    /// The answer a freshly opened `Dataset` gives to `op`.
    fn fresh_answer(&mut self, op: &Op) -> Res<Aggregates> {
        if self.fresh.is_none() {
            self.fresh = Some(ctx(Dataset::open(&self.dir), "fresh open")?);
        }
        let fresh = self.fresh.as_ref().expect("opened above");
        let answer = match op {
            Op::Point { idx, scan } => fresh.consumer_aggregates(*idx, scan),
            Op::Rollup { scan } | Op::FleetScan { scan } => fresh.fleet_aggregates(scan),
            Op::Append => return Err("appends have no answer".into()),
        };
        Ok(ctx(answer, "fresh answer")?.0)
    }
}

/// What one op did, as the traced loop records it.
struct OpRecord {
    seconds: f64,
    answer: Option<(Aggregates, ScanReport)>,
    /// Append split: writing the consumers, then the commit.
    append_parts: Option<(f64, f64)>,
}

fn execute(client: &mut Client, op: &Op, traced: bool) -> Res<OpRecord> {
    match op {
        Op::Append => {
            let batch = client.append_batch()?;
            let t = Instant::now();
            let mut w = ctx(ShardedWriter::append(&client.dir), "open the append")?;
            for (id, s) in &batch {
                ctx(
                    w.write_consumer(id, ConsumerKind::Household, s, None, None),
                    "append a consumer",
                )?;
            }
            let written = secs(t);
            ctx(w.finish(), "commit the append")?;
            let seconds = secs(t);
            client.fresh = None;
            client.checks_due = true;
            Ok(OpRecord {
                seconds,
                answer: None,
                append_parts: traced.then_some((written, seconds - written)),
            })
        }
        Op::Point { idx, scan } => {
            let t = Instant::now();
            let out = client.resident.consumer_aggregates(*idx, scan);
            let seconds = secs(t);
            Ok(OpRecord {
                seconds,
                answer: Some(ctx(out, "point query")?),
                append_parts: None,
            })
        }
        Op::Rollup { scan } | Op::FleetScan { scan } => {
            let t = Instant::now();
            let out = client.resident.fleet_aggregates(scan);
            let seconds = secs(t);
            Ok(OpRecord {
                seconds,
                answer: Some(ctx(out, "fleet query")?),
                append_parts: None,
            })
        }
    }
}

/// Latency samples of one loop, by op kind and round.
#[derive(Default)]
struct Latencies {
    /// The round samples are being taken in.
    round: usize,
    point_us: Rounds,
    rollup_us: Rounds,
    scan_ms: Rounds,
    append_ms: Rounds,
}

impl Latencies {
    fn push(&mut self, op: &Op, seconds: f64) {
        let r = self.round;
        match op {
            Op::Append => self.append_ms.push(r, seconds * 1e3),
            Op::Point { .. } => self.point_us.push(r, seconds * 1e6),
            Op::Rollup { .. } => self.rollup_us.push(r, seconds * 1e6),
            Op::FleetScan { .. } => self.scan_ms.push(r, seconds * 1e3),
        }
    }
}

/// The layer counters of a traced loop.
#[derive(Default)]
struct Layers {
    /// Shards opened since the latest commit.
    touched: BTreeSet<usize>,
    point_frame: ScanReport,
    points: usize,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    index_miss_ms: Vec<f64>,
    reopens: usize,
    bytes_read_index: usize,
    bytes_saved: usize,
    frame_cache_bytes: usize,
    chunk_pool_bytes: usize,
    rollup: ScanReport,
    scan_shards_opened: Vec<f64>,
    append_write_ms: Vec<f64>,
    append_commit_ms: Vec<f64>,
}

/// The `store_serve` component: one client (two identical ones when
/// traced, so the traced replay sees the same store states).
pub struct Store {
    client: Client,
    twin: Option<Client>,
    bytes_per_value: f64,
    inject_fault: bool,
    /// Commit intervals run so far (per client).
    done: usize,
    /// Latencies of the measured loop (the traced one when traced).
    lat: Latencies,
    layers: Layers,
    untraced_wall: f64,
    traced_wall: f64,
}

/// Build the store under `dir` (and a byte-identical twin for the
/// traced run). Returns the component and the digest of its inputs.
pub fn setup(scale: Scale, seed: u64, dir: &Path, traced: bool) -> Res<(Store, u64)> {
    let size = size(scale);
    let path = dir.join("store");
    let digest = build(&path, size, seed)?;
    let series_bytes = crate::util::bytes_under(&path, ".fxm")?;
    let frame_budget = ResidentConfig::default().frame_cache_bytes as u64;
    if scale == Scale::Full && series_bytes < 2 * frame_budget {
        return Err(format!(
            "store holds {series_bytes} B of series, less than twice the {frame_budget} B frame budget"
        ));
    }
    let bytes_per_value = series_bytes as f64 / (size.consumers * size.days * 1440) as f64;
    let twin = if traced {
        let twin_path = dir.join("store_twin");
        crate::util::copy_tree(&path, &twin_path)?;
        Some(Client::open(twin_path, size, seed)?)
    } else {
        None
    };
    Ok((
        Store {
            client: Client::open(path, size, seed)?,
            twin,
            bytes_per_value,
            inject_fault: false,
            done: 0,
            lat: Latencies::default(),
            layers: Layers::default(),
            untraced_wall: 0.0,
            traced_wall: 0.0,
        },
        digest,
    ))
}

impl Store {
    /// Run `intervals` whole commit intervals. Every op is attempted
    /// once; an error or a wrong checked answer fails it.
    /// Adds to the latencies (and to the layer counters when given);
    /// returns the per-op answer digests and the loop's wall seconds,
    /// checks and input generation excluded.
    fn run_loop(
        &mut self,
        use_twin: bool,
        intervals: usize,
        tally: &mut Tally,
        lat: &mut Latencies,
        mut layers: Option<&mut Layers>,
    ) -> Res<(Vec<u64>, f64)> {
        let mut answers = Vec::new();
        let mut wall = 0.0;
        for _ in 0..intervals {
            for i in 0..self.size().interval_ops {
                let client = match (&mut self.twin, use_twin) {
                    (Some(twin), true) => twin,
                    _ => &mut self.client,
                };
                let t = Instant::now();
                let op = client.next_op(i);
                let generation = client.resident.generation();
                let record = execute(client, &op, layers.is_some());
                let loop_seconds = secs(t);
                let Ok(record) = record else {
                    tally.record(false);
                    answers.push(0);
                    continue;
                };
                // Generating appended consumers is input, not work.
                wall += match op {
                    Op::Append => record.seconds,
                    _ => loop_seconds,
                };
                lat.push(&op, record.seconds);
                let mut ok = true;
                if let Some((answer, _)) = &record.answer {
                    answers.push(answer_digest(answer));
                    if client.wants_check(&op) {
                        let fresh = client.fresh_answer(&op)?;
                        let wrong = std::mem::take(&mut self.inject_fault);
                        ok = answer_bits(answer) == answer_bits(&fresh) && !wrong;
                    }
                } else {
                    answers.push(1);
                }
                tally.record(ok);
                if let Some(l) = layers.as_deref_mut() {
                    let client = match (&mut self.twin, use_twin) {
                        (Some(twin), true) => twin,
                        _ => &mut self.client,
                    };
                    account(client, &op, &record, generation, l);
                }
            }
        }
        Ok((answers, wall))
    }

    fn size(&self) -> Size {
        self.client.size
    }
}

fn account(client: &Client, op: &Op, record: &OpRecord, generation_before: u64, l: &mut Layers) {
    let touched = &mut l.touched;
    let stats = client.resident.cache_stats();
    if stats.generation != generation_before {
        l.reopens += 1;
    }
    if let Some((_, report)) = &record.answer {
        l.bytes_read_index += report.bytes_read_index;
        l.bytes_saved += report.bytes_saved;
    }
    match (op, &record.answer) {
        (Op::Append, _) => {
            touched.clear();
            if let Some((write, commit)) = record.append_parts {
                l.append_write_ms.push(write * 1e3);
                l.append_commit_ms.push(commit * 1e3);
            }
        }
        (Op::Point { idx, .. }, Some((_, report))) => {
            l.points += 1;
            l.point_frame.absorb(report);
            let shard = client.shard_of.get(*idx).copied();
            let first_touch = shard.is_some_and(|s| touched.insert(s));
            if report.cache_hits > 0 && report.bytes_read == 0 {
                l.hit_us.push(record.seconds * 1e6);
            } else if report.bytes_read_index > 0 || first_touch {
                l.index_miss_ms.push(record.seconds * 1e3);
            } else {
                l.miss_us.push(record.seconds * 1e6);
            }
        }
        (Op::Rollup { .. }, Some((_, report))) => l.rollup.absorb(report),
        (Op::FleetScan { .. }, Some((_, report))) => {
            l.scan_shards_opened.push(report.shards_opened() as f64);
            // Every shard is open after a fleet scan, and the interval
            // ends: sample the caches before the next commit clears them.
            touched.extend(0..report.shards_total);
            l.frame_cache_bytes = l.frame_cache_bytes.max(stats.frame_bytes);
            l.chunk_pool_bytes = l.chunk_pool_bytes.max(stats.chunk_bytes);
        }
        _ => {}
    }
}

impl Component for Store {
    fn inject_fault(&mut self) {
        self.inject_fault = true;
    }

    /// Runs this round's share of a fixed number of commit intervals
    /// (see [`Size`]); the time budget is not consulted.
    fn run(&mut self, slice: Slice, tally: &mut Tally) -> Res<()> {
        let total = if self.twin.is_some() {
            self.size().trace_intervals
        } else {
            self.size().intervals
        };
        let target = (total * (slice.round + 1)).div_ceil(slice.rounds);
        let n = target.saturating_sub(self.done);
        self.done += n;
        let mut lat = std::mem::take(&mut self.lat);
        lat.round = slice.round;
        if self.twin.is_none() {
            self.run_loop(false, n, tally, &mut lat, None)?;
        } else {
            let (untraced, wall) =
                self.run_loop(false, n, tally, &mut Latencies::default(), None)?;
            let mut layers = std::mem::take(&mut self.layers);
            let (traced, traced_wall) =
                self.run_loop(true, n, tally, &mut lat, Some(&mut layers))?;
            self.layers = layers;
            self.untraced_wall += wall;
            self.traced_wall += traced_wall;
            // The traced replay must answer exactly as the untraced loop.
            let mismatched = untraced.iter().zip(&traced).filter(|(a, b)| a != b).count();
            tally.failed += mismatched as u64;
        }
        self.lat = lat;
        Ok(())
    }

    fn metrics(&self) -> Metrics {
        let lat = &self.lat;
        let mut m = Metrics::new();
        if self.twin.is_none() {
            m.insert("point_query_us_p50", lat.point_us.p50());
            m.insert("point_query_us_p99", lat.point_us.tail());
            m.insert("fleet_query_us_p50", lat.rollup_us.p50());
            m.insert("fleet_query_us_p99", lat.rollup_us.tail());
            m.insert("fleet_scan_ms_p50", lat.scan_ms.p50());
            m.insert("append_ms_p50", lat.append_ms.p50());
            m.insert("disk_bytes_per_value", self.bytes_per_value);
            m.insert("samples.point_query_us", lat.point_us.len() as f64);
            m.insert("samples.fleet_query_us", lat.rollup_us.len() as f64);
            m.insert("samples.fleet_scan_ms", lat.scan_ms.len() as f64);
            m.insert("samples.append_ms", lat.append_ms.len() as f64);
            return m;
        }
        let l = &self.layers;
        let covered: f64 = lat.point_us.sum() / 1e6
            + lat.rollup_us.sum() / 1e6
            + lat.scan_ms.sum() / 1e3
            + lat.append_ms.sum() / 1e3;
        let per_point = |v: usize| v as f64 / l.points.max(1) as f64;
        let rollup_shards = l.rollup.shards_total.max(1) as f64;
        m.insert(
            "frame.chunks_decoded",
            per_point(l.point_frame.chunks_decoded),
        );
        m.insert("frame.chunk_skip_ratio", l.point_frame.skip_fraction());
        m.insert("frame.bytes_read", per_point(l.point_frame.bytes_read));
        m.insert(
            "frame.bytes_decoded",
            per_point(l.point_frame.bytes_decoded),
        );
        m.insert("dataset.point_hits", l.hit_us.len() as f64);
        m.insert("dataset.point_misses", l.miss_us.len() as f64);
        m.insert("dataset.point_index_misses", l.index_miss_ms.len() as f64);
        m.insert("dataset.point_hit_us_p50", median(&l.hit_us));
        m.insert("dataset.point_miss_us_p50", median(&l.miss_us));
        m.insert("dataset.point_index_miss_ms_p50", median(&l.index_miss_ms));
        m.insert("dataset.reopens", l.reopens as f64);
        m.insert(
            "dataset.generation",
            self.twin_generation().unwrap_or_default() as f64,
        );
        m.insert("dataset.bytes_read_index", l.bytes_read_index as f64);
        m.insert("dataset.bytes_saved", l.bytes_saved as f64);
        m.insert("dataset.frame_cache_bytes", l.frame_cache_bytes as f64);
        m.insert("dataset.chunk_pool_bytes", l.chunk_pool_bytes as f64);
        m.insert(
            "dataset.shards_pruned_ratio",
            l.rollup.shards_pruned as f64 / rollup_shards,
        );
        m.insert(
            "dataset.shards_stats_only_ratio",
            l.rollup.shards_stats_only as f64 / rollup_shards,
        );
        m.insert("dataset.shards_opened", median(&l.scan_shards_opened));
        m.insert("dataset.append_write_ms", median(&l.append_write_ms));
        m.insert("dataset.append_commit_ms", median(&l.append_commit_ms));
        m.insert("trace.coverage", covered / self.untraced_wall);
        m.insert(
            "trace.overhead",
            self.traced_wall / self.untraced_wall - 1.0,
        );
        m
    }
}

impl Store {
    fn twin_generation(&self) -> Option<u64> {
        self.twin.as_ref().map(|t| t.resident.generation())
    }
}
