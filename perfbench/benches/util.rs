//! Small shared helpers: digests, percentiles, the process memory
//! high-water mark and the per-run work directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Errors are plain messages: every failure ends the run with exit
/// code 1 and the message on stderr.
pub type Res<T> = Result<T, String>;

/// Attach context to any displayable error.
pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// FNV-1a 64 over bytes — the digest of generated inputs and of
/// program outputs that are compared for equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one 64-bit word (little-endian bytes).
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.0
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f`, adding the seconds it took to `slot`.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += secs(t);
    out
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` (0 for an empty sample).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile reported as "p99": 0.99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still
/// has ten beyond it (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Timing samples grouped by the round of the run they were taken in.
///
/// The host's speed drifts by up to 1.7× over minutes. A percentile
/// over a whole run snaps to whichever speed most of the run saw, so
/// runs of the same code land on one mode or the other; a percentile
/// taken per window of consecutive rounds and averaged over the run's
/// windows follows the run's average speed instead and spreads about
/// half as much.
#[derive(Debug, Default, Clone)]
pub struct Rounds {
    rounds: Vec<Vec<f64>>,
}

/// Samples a window of rounds holds at least, so that a window's
/// median is not a single sample of a sparse op.
const WINDOW_SAMPLES: usize = 5;

impl Rounds {
    /// Add one sample taken in `round`.
    pub fn push(&mut self, round: usize, value: f64) {
        if self.rounds.len() <= round {
            self.rounds.resize_with(round + 1, Vec::new);
        }
        self.rounds[round].push(value);
    }

    /// Samples over every round.
    pub fn len(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of every sample.
    pub fn sum(&self) -> f64 {
        self.rounds.iter().flatten().sum()
    }

    /// Consecutive rounds merged into windows of at least
    /// [`WINDOW_SAMPLES`] samples; a short remainder joins the last
    /// window.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        let mut open: Vec<f64> = Vec::new();
        for round in &self.rounds {
            open.extend(round);
            if open.len() >= WINDOW_SAMPLES {
                windows.push(std::mem::take(&mut open));
            }
        }
        match windows.last_mut() {
            Some(last) => last.extend(open),
            None if !open.is_empty() => windows.push(open),
            None => {}
        }
        windows
    }

    /// Percentile `q` of each window, averaged over the windows (0
    /// when there is no sample).
    fn per_window(&self, q: f64) -> f64 {
        let per: Vec<f64> = self.windows().iter().map(|w| percentile(w, q)).collect();
        mean(&per)
    }

    /// The median per window, averaged over the windows.
    pub fn p50(&self) -> f64 {
        self.per_window(0.5)
    }

    /// The tail percentile per window (see [`tail_quantile`], taken at
    /// the smallest window's sample count so every window reports the
    /// same quantile), averaged over the windows.
    pub fn tail(&self) -> f64 {
        let fewest = self.windows().iter().map(Vec::len).min().unwrap_or(0);
        self.per_window(tail_quantile(fewest))
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the process memory high-water mark to the current resident
/// size, so the reported peak covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Process memory high-water mark in MiB since the last reset.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Run `sync` and wait for it: the kernel writes every dirty page
/// back. A missing `sync` program costs only steadiness.
pub fn flush_to_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// Sum of the sizes of the regular files under `dir` whose name ends
/// with `suffix`.
pub fn bytes_under(dir: &Path, suffix: &str) -> Res<u64> {
    let mut total = 0;
    let entries = ctx(std::fs::read_dir(dir), &format!("list {}", dir.display()))?;
    for entry in entries {
        let entry = ctx(entry, &format!("list {}", dir.display()))?;
        let path = entry.path();
        let meta = ctx(entry.metadata(), &format!("stat {}", path.display()))?;
        if meta.is_dir() {
            total += bytes_under(&path, suffix)?;
        } else if path.to_string_lossy().ends_with(suffix) {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Digest of every regular file under `dir`, visited in sorted order
/// (relative path and contents).
pub fn digest_tree(dir: &Path) -> Res<u64> {
    fn walk(root: &Path, dir: &Path, h: &mut Fnv) -> Res<()> {
        let mut entries: Vec<PathBuf> = ctx(std::fs::read_dir(dir), "list dataset")?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(root, &path, h)?;
            } else {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                h.bytes(rel.to_string_lossy().as_bytes());
                h.bytes(&ctx(
                    std::fs::read(&path),
                    &format!("read {}", path.display()),
                )?);
            }
        }
        Ok(())
    }
    let mut h = Fnv::default();
    walk(dir, dir, &mut h)?;
    Ok(h.0)
}

/// Copy a directory tree.
pub fn copy_tree(from: &Path, to: &Path) -> Res<()> {
    ctx(
        std::fs::create_dir_all(to),
        &format!("create {}", to.display()),
    )?;
    for entry in ctx(std::fs::read_dir(from), &format!("list {}", from.display()))? {
        let entry = ctx(entry, "list")?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            ctx(
                std::fs::copy(&src, &dst),
                &format!("copy {}", src.display()),
            )?;
        }
    }
    Ok(())
}

/// A scratch directory that is removed, with everything under it,
/// when dropped — so every exit path leaves the checkout clean.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create (emptied) `path`.
    pub fn create(path: PathBuf) -> Res<WorkDir> {
        let _ = std::fs::remove_dir_all(&path);
        ctx(
            std::fs::create_dir_all(&path),
            &format!("create {}", path.display()),
        )?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
