//! Rolling-window statistics.
//!
//! Online baselines are everywhere in this workspace: the real-time
//! generator tracks a rolling median of recent power, the multi-tariff
//! detector needs local level estimates, and plotting smoothed series
//! is the first thing any analyst does with metering data. These
//! helpers compute trailing-window statistics in one pass.
//!
//! All functions use a *trailing* window: `out[i]` summarises
//! `xs[i.saturating_sub(window-1) ..= i]`, so the result is causal
//! (usable online) and output length equals input length.

use std::collections::VecDeque;

/// Trailing-window mean.
pub fn rolling_mean(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut sum = 0.0;
    for i in 0..xs.len() {
        sum += xs[i];
        if i >= window {
            sum -= xs[i - window];
        }
        let n = (i + 1).min(window) as f64;
        out.push(sum / n);
    }
    out
}

/// Trailing-window population standard deviation.
pub fn rolling_std(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for i in 0..xs.len() {
        sum += xs[i];
        sum_sq += xs[i] * xs[i];
        if i >= window {
            sum -= xs[i - window];
            sum_sq -= xs[i - window] * xs[i - window];
        }
        let n = (i + 1).min(window) as f64;
        let mean = sum / n;
        // Guard tiny negatives from float cancellation.
        out.push((sum_sq / n - mean * mean).max(0.0).sqrt());
    }
    out
}

/// Trailing-window minimum (monotonic-deque algorithm, O(n) total).
pub fn rolling_min(xs: &[f64], window: usize) -> Vec<f64> {
    rolling_extreme(xs, window, |a, b| a <= b)
}

/// Trailing-window maximum (monotonic-deque algorithm, O(n) total).
pub fn rolling_max(xs: &[f64], window: usize) -> Vec<f64> {
    rolling_extreme(xs, window, |a, b| a >= b)
}

fn rolling_extreme(xs: &[f64], window: usize, keep: impl Fn(f64, f64) -> bool) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut deque: VecDeque<usize> = VecDeque::new();
    for i in 0..xs.len() {
        while let Some(&back) = deque.back() {
            if keep(xs[i], xs[back]) {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(i);
        if let Some(&front) = deque.front() {
            if i >= window && front <= i - window {
                deque.pop_front();
            }
        }
        // `i` was just pushed, so the deque is never empty here; fall
        // back to `i` rather than panicking on the impossible case.
        let front = deque.front().copied().unwrap_or(i);
        out.push(xs[front]);
    }
    out
}

/// Trailing-window median, exact: an even-sized window averages its two
/// middle values as `0.5 * (lo + hi)`, and values order by
/// [`f64::total_cmp`].
///
/// The series is ranked once, by an index sort in O(n log n). The window
/// is then a bitset over those ranks, and the rank of its lower median
/// walks with it: every insert and delete moves the median by at most one
/// set rank, found by a word scan (`trailing_zeros` / `leading_zeros`).
/// A scan reads one word while the window is dense among the series'
/// ranks; a long series under a short window can make it skip up to
/// n / 64 empty words, about n / (64·w) on typical data.
pub fn rolling_median(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    // `order[r]` is the index of the value of rank `r`. Ties under
    // `total_cmp` are bit-equal values, so their relative order cannot
    // change a median.
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_unstable_by(|&a, &b| match (xs.get(a), xs.get(b)) {
        (Some(x), Some(y)) => x.total_cmp(y),
        _ => std::cmp::Ordering::Equal,
    });
    let by_rank: Vec<f64> = order.iter().filter_map(|&i| xs.get(i).copied()).collect();
    let mut rank = vec![0usize; xs.len()];
    for (r, &i) in order.iter().enumerate() {
        if let Some(slot) = rank.get_mut(i) {
            *slot = r;
        }
    }

    let mut set = RankSet::new(xs.len());
    // `p` is the rank of the window's lower median; `below` counts the
    // window's ranks under `p`.
    let (mut p, mut below) = (0usize, 0usize);
    let mut out = Vec::with_capacity(xs.len());
    for (i, &r) in rank.iter().enumerate() {
        set.insert(r);
        if i == 0 {
            p = r;
        } else if r < p {
            below += 1;
        }
        if let Some(&d) = i.checked_sub(window).and_then(|j| rank.get(j)) {
            set.remove(d);
            if d < p {
                below -= 1;
            } else if d == p {
                // The window still holds the value just inserted, so one
                // of the two searches succeeds.
                if let Some(q) = set.next(p) {
                    p = q;
                } else if let Some(q) = set.prev(p) {
                    p = q;
                    below -= 1;
                }
            }
        }
        let m = (i + 1).min(window);
        let target = (m - 1) / 2;
        while below > target {
            let Some(q) = set.prev(p) else { break };
            p = q;
            below -= 1;
        }
        while below < target {
            let Some(q) = set.next(p) else { break };
            p = q;
            below += 1;
        }
        let lo = by_rank.get(p).copied().unwrap_or(f64::NAN);
        out.push(if m % 2 == 1 {
            lo
        } else {
            let hi = set.next(p).and_then(|q| by_rank.get(q)).copied();
            0.5 * (lo + hi.unwrap_or(lo))
        });
    }
    out
}

/// A set of ranks in `0..n`, one bit per rank.
struct RankSet {
    words: Vec<u64>,
}

impl RankSet {
    fn new(n: usize) -> Self {
        RankSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, r: usize) {
        if let Some(w) = self.words.get_mut(r / 64) {
            *w |= 1 << (r % 64);
        }
    }

    fn remove(&mut self, r: usize) {
        if let Some(w) = self.words.get_mut(r / 64) {
            *w &= !(1 << (r % 64));
        }
    }

    /// The smallest member above `r`.
    fn next(&self, r: usize) -> Option<usize> {
        let k = r / 64;
        let above = self.words.get(k)? & (u64::MAX << (r % 64) << 1);
        if above != 0 {
            return Some(k * 64 + above.trailing_zeros() as usize);
        }
        self.words
            .iter()
            .enumerate()
            .skip(k + 1)
            .find(|(_, &w)| w != 0)
            .map(|(j, w)| j * 64 + w.trailing_zeros() as usize)
    }

    /// The largest member below `r`.
    fn prev(&self, r: usize) -> Option<usize> {
        let k = r / 64;
        let under = self.words.get(k)? & !(u64::MAX << (r % 64));
        if under != 0 {
            return Some(k * 64 + 63 - under.leading_zeros() as usize);
        }
        self.words
            .get(..k)?
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(j, w)| j * 64 + 63 - w.leading_zeros() as usize)
    }
}

/// The sorted insert/remove buffer [`rolling_median`] replaced, O(n·w):
/// the oracle its output must match bit for bit.
#[cfg(test)]
pub(crate) fn sorted_buffer_median(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut sorted: Vec<f64> = Vec::with_capacity(window);
    for i in 0..xs.len() {
        let pos = sorted
            .binary_search_by(|v| v.total_cmp(&xs[i]))
            .unwrap_or_else(|p| p);
        sorted.insert(pos, xs[i]);
        if i >= window {
            let old = xs[i - window];
            let pos = sorted
                .binary_search_by(|v| v.total_cmp(&old))
                .unwrap_or_else(|p| p);
            sorted.remove(pos);
        }
        let n = sorted.len();
        out.push(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_warms_up_then_slides() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let m = rolling_mean(&xs, 3);
        assert!((m[0] - 1.0).abs() < EPS);
        assert!((m[1] - 1.5).abs() < EPS);
        assert!((m[2] - 2.0).abs() < EPS);
        assert!((m[3] - 3.0).abs() < EPS);
        assert!((m[4] - 4.0).abs() < EPS);
    }

    #[test]
    fn std_matches_direct_computation() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0];
        let s = rolling_std(&xs, 3);
        for i in 2..xs.len() {
            let w = &xs[i - 2..=i];
            let direct = crate::stats::std_dev(w).unwrap();
            assert!(
                (s[i] - direct).abs() < 1e-9,
                "index {i}: {} vs {direct}",
                s[i]
            );
        }
        // Flat window → zero std, not NaN.
        let flat = rolling_std(&[2.0; 5], 3);
        assert!(flat.iter().all(|v| v.abs() < EPS));
    }

    #[test]
    fn min_max_track_extremes() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mn = rolling_min(&xs, 3);
        let mx = rolling_max(&xs, 3);
        for i in 0..xs.len() {
            let lo = i.saturating_sub(2);
            let w = &xs[lo..=i];
            let dmn = w.iter().cloned().fold(f64::INFINITY, f64::min);
            let dmx = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(mn[i], dmn, "min at {i}");
            assert_eq!(mx[i], dmx, "max at {i}");
        }
    }

    #[test]
    fn median_matches_direct_computation() {
        let xs = [7.0, 1.0, 5.0, 3.0, 8.0, 2.0, 9.0, 4.0];
        let med = rolling_median(&xs, 4);
        for i in 0..xs.len() {
            let lo = i.saturating_sub(3);
            let direct = crate::stats::median(&xs[lo..=i]).unwrap();
            assert!(
                (med[i] - direct).abs() < EPS,
                "index {i}: {} vs {direct}",
                med[i]
            );
        }
    }

    /// Values that stress a median's ordering: a few quantized levels
    /// (heavy ties), both zeros, negatives and subnormals.
    fn arb_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => (-4_i64..12).prop_map(|k| k as f64 * 0.001),
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => (1_u64..1 << 52).prop_map(f64::from_bits),
            1 => (1_u64..1 << 52).prop_map(|b| -f64::from_bits(b)),
            1 => -1e6_f64..1e6,
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn median_matches_sorted_buffer_oracle_bit_for_bit(
            xs in prop::collection::vec(arb_value(), 0..300),
            half in 1_usize..40,
        ) {
            let n = xs.len();
            for window in [1, 2, 2 * half + 1, 2 * half, n.max(1), n + 1 + half] {
                prop_assert_eq!(
                    bits(&rolling_median(&xs, window)),
                    bits(&sorted_buffer_median(&xs, window)),
                    "n {} window {}",
                    n,
                    window
                );
            }
        }
    }

    #[test]
    fn window_one_is_identity() {
        let xs = [4.0, 2.0, 7.0];
        assert_eq!(rolling_mean(&xs, 1), xs.to_vec());
        assert_eq!(rolling_median(&xs, 1), xs.to_vec());
        assert_eq!(rolling_min(&xs, 1), xs.to_vec());
        assert_eq!(rolling_max(&xs, 1), xs.to_vec());
    }

    #[test]
    fn window_larger_than_input_uses_all_history() {
        let xs = [1.0, 2.0, 3.0];
        let m = rolling_mean(&xs, 100);
        assert!((m[2] - 2.0).abs() < EPS);
        let md = rolling_median(&xs, 100);
        assert!((md[2] - 2.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        rolling_mean(&[1.0], 0);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(rolling_mean(&[], 3).is_empty());
        assert!(rolling_std(&[], 3).is_empty());
        assert!(rolling_min(&[], 3).is_empty());
        assert!(rolling_median(&[], 3).is_empty());
    }
}
