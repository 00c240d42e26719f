//! Hot-entry profiling (Section III-D).
//!
//! Before issuing a batch's SLS requests, the host profiles the index
//! vector and marks entries accessed more than `t` times with the
//! `LocalityBit`, letting cold vectors bypass the RankCache. The paper
//! sweeps `t` and keeps the value with the highest resulting hit rate; the
//! step costs under 2% of end-to-end time (modeled in the CPU perf layer).

use std::collections::VecDeque;

use recnmp_types::hash::{IdHashMap, IdHashSet};
use serde::{Deserialize, Serialize};

/// Result of profiling one batch of indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotEntryProfile {
    /// Threshold used: entries with `count > threshold` are hot.
    pub threshold: u64,
    /// The hot row indices.
    pub hot: IdHashSet<u64>,
    /// Fraction of *accesses* (not rows) that target hot rows.
    pub hot_access_fraction: f64,
}

impl HotEntryProfile {
    /// Whether a row index should carry the `LocalityBit`.
    pub fn is_hot(&self, index: u64) -> bool {
        self.hot.contains(&index)
    }
}

/// Profiles index batches into `LocalityBit` hints.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotEntryProfiler;

impl HotEntryProfiler {
    /// Creates a profiler.
    pub fn new() -> Self {
        Self
    }

    /// Marks rows referenced more than `threshold` times in `indices`.
    pub fn profile(&self, indices: &[u64], threshold: u64) -> HotEntryProfile {
        hot_profile(&row_counts(indices), indices.len(), threshold)
    }

    /// Sweeps thresholds `0..=max_threshold` and returns the profile that
    /// maximizes the hit rate of an LRU cache with `cache_lines` lines when
    /// only hot entries are cached (the paper's selection procedure); ties
    /// go to the lowest threshold.
    ///
    /// The indices are counted once and every threshold's hot set is
    /// read off those counts. Hot sets shrink as the threshold grows, so
    /// a threshold whose set has the same size as the previous one's is
    /// the same set with the same hit rate and is not re-simulated.
    pub fn sweep(
        &self,
        indices: &[u64],
        cache_lines: usize,
        max_threshold: u64,
    ) -> HotEntryProfile {
        let counts = row_counts(indices);
        // Each access's row count, so a threshold's hot test is a compare.
        let access_counts: Vec<u64> = indices.iter().map(|i| counts[i]).collect();
        let mut best: Option<(u64, u64)> = None;
        let mut last_hot_rows = None;
        for t in 0..=max_threshold {
            let hot_rows = counts.values().filter(|&&c| c > t).count();
            if last_hot_rows != Some(hot_rows) {
                last_hot_rows = Some(hot_rows);
                let hits = hint_hits(indices, |k| access_counts[k] > t, cache_lines);
                if best.is_none_or(|(b, _)| hits > b) {
                    best = Some((hits, t));
                }
            }
            if hot_rows == 0 {
                break;
            }
        }
        let (_, threshold) = best.expect("at least one threshold evaluated");
        hot_profile(&counts, indices.len(), threshold)
    }
}

/// Accesses per distinct row of `indices`.
fn row_counts(indices: &[u64]) -> IdHashMap<u64, u64> {
    let mut counts = IdHashMap::default();
    for &i in indices {
        *counts.entry(i).or_default() += 1;
    }
    counts
}

/// The profile marking rows with more than `threshold` accesses hot.
fn hot_profile(counts: &IdHashMap<u64, u64>, accesses: usize, threshold: u64) -> HotEntryProfile {
    let hot = counts
        .iter()
        .filter(|(_, &c)| c > threshold)
        .map(|(&i, _)| i)
        .collect();
    let hot_accesses: u64 = counts.values().filter(|&&c| c > threshold).sum();
    let hot_access_fraction = if accesses == 0 {
        0.0
    } else {
        hot_accesses as f64 / accesses as f64
    };
    HotEntryProfile {
        threshold,
        hot,
        hot_access_fraction,
    }
}

/// Simulates a fully-associative LRU cache of `cache_lines` lines in
/// which only hinted accesses (`hot(k)` for the `k`-th access) allocate;
/// every access to a resident row hits. Returns the hit count.
///
/// Each resident row maps to the index of its last use, and every use is
/// queued in order. A queued use that is no longer its row's last is
/// stale, so the first live entry is the least recently used row: O(1)
/// amortized per access at any cache size.
fn hint_hits(indices: &[u64], hot: impl Fn(usize) -> bool, cache_lines: usize) -> u64 {
    if cache_lines == 0 {
        return 0;
    }
    let mut last_use: IdHashMap<u64, usize> = IdHashMap::default();
    let mut uses: VecDeque<(u64, usize)> = VecDeque::new();
    let mut hits = 0;
    for (now, &row) in indices.iter().enumerate() {
        if let Some(last) = last_use.get_mut(&row) {
            *last = now;
            hits += 1;
        } else if hot(now) {
            if last_use.len() == cache_lines {
                while let Some((victim, used)) = uses.pop_front() {
                    if last_use.get(&victim) == Some(&used) {
                        last_use.remove(&victim);
                        break;
                    }
                }
            }
            last_use.insert(row, now);
        } else {
            continue;
        }
        uses.push_back((row, now));
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The original selection procedure, kept as the oracle: a fresh
    /// count and hot set per threshold, and a `Vec` LRU (linear
    /// `position`, `remove`, `insert(0)`) per threshold.
    fn reference_sweep(indices: &[u64], cache_lines: usize, max_threshold: u64) -> HotEntryProfile {
        let mut best: Option<(f64, HotEntryProfile)> = None;
        for t in 0..=max_threshold {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &i in indices {
                *counts.entry(i).or_default() += 1;
            }
            let hot: HashSet<u64> = counts
                .iter()
                .filter(|(_, &c)| c > t)
                .map(|(&i, _)| i)
                .collect();
            let hot_accesses: u64 = counts
                .iter()
                .filter(|(i, _)| hot.contains(i))
                .map(|(_, &c)| c)
                .sum();
            let rate = reference_hint_hit_rate(indices, &hot, cache_lines);
            if best.as_ref().is_none_or(|(b, _)| rate > *b) {
                let profile = HotEntryProfile {
                    threshold: t,
                    hot: hot.into_iter().collect(),
                    hot_access_fraction: if indices.is_empty() {
                        0.0
                    } else {
                        hot_accesses as f64 / indices.len() as f64
                    },
                };
                best = Some((rate, profile));
            }
        }
        best.expect("at least one threshold evaluated").1
    }

    fn reference_hint_hit_rate(indices: &[u64], hot: &HashSet<u64>, cache_lines: usize) -> f64 {
        if indices.is_empty() || cache_lines == 0 {
            return 0.0;
        }
        let mut lru: Vec<u64> = Vec::with_capacity(cache_lines);
        let mut hits = 0u64;
        for &i in indices {
            if let Some(pos) = lru.iter().position(|&x| x == i) {
                lru.remove(pos);
                lru.insert(0, i);
                hits += 1;
            } else if hot.contains(&i) {
                lru.insert(0, i);
                if lru.len() > cache_lines {
                    lru.pop();
                }
            }
        }
        hits as f64 / indices.len() as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sweep_matches_the_vec_lru_reference(
            indices in prop::collection::vec(0u64..48, 0..300),
            cache_lines in 0usize..24,
            max_threshold in 0u64..8,
        ) {
            // 48 rows against at most 23 lines: low thresholds mark more
            // rows hot than the cache holds, so evictions are exercised.
            let p = HotEntryProfiler::new();
            prop_assert_eq!(
                p.sweep(&indices, cache_lines, max_threshold),
                reference_sweep(&indices, cache_lines, max_threshold)
            );
        }

        #[test]
        fn every_threshold_matches_the_reference_hit_rate(
            indices in prop::collection::vec(0u64..32, 0..200),
            cache_lines in 1usize..12,
            threshold in 0u64..6,
        ) {
            let profile = HotEntryProfiler::new().profile(&indices, threshold);
            let hot: HashSet<u64> = profile.hot.iter().copied().collect();
            let hits = hint_hits(&indices, |k| profile.is_hot(indices[k]), cache_lines);
            let rate = if indices.is_empty() { 0.0 } else { hits as f64 / indices.len() as f64 };
            prop_assert_eq!(rate, reference_hint_hit_rate(&indices, &hot, cache_lines));
        }
    }

    #[test]
    fn sweep_matches_the_reference_on_empty_input_and_large_thresholds() {
        let p = HotEntryProfiler::new();
        assert_eq!(p.sweep(&[], 4, 4), reference_sweep(&[], 4, 4));
        assert_eq!(p.sweep(&[], 0, 0).threshold, 0);
        // A threshold range far past every count stops once the hot set
        // is empty instead of walking it.
        let indices = [3, 3, 3, 9, 9, 1];
        assert_eq!(
            p.sweep(&indices, 2, u64::MAX),
            reference_sweep(&indices, 2, 6)
        );
    }

    #[test]
    fn threshold_filters_cold_rows() {
        let p = HotEntryProfiler::new();
        let indices = vec![1, 1, 1, 2, 2, 3];
        let prof = p.profile(&indices, 1);
        assert!(prof.is_hot(1));
        assert!(prof.is_hot(2));
        assert!(!prof.is_hot(3));
        assert!((prof.hot_access_fraction - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_zero_marks_everything() {
        let p = HotEntryProfiler::new();
        let prof = p.profile(&[5, 6, 7], 0);
        assert_eq!(prof.hot.len(), 3);
        assert_eq!(prof.hot_access_fraction, 1.0);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let p = HotEntryProfiler::new();
        let prof = p.profile(&[], 1);
        assert!(prof.hot.is_empty());
        assert_eq!(prof.hot_access_fraction, 0.0);
    }

    #[test]
    fn sweep_prefers_filtering_under_contention() {
        // Two hot rows re-referenced heavily, interleaved with single-use
        // cold rows that would thrash a 2-line cache if allowed to
        // allocate. The best threshold must exclude the cold rows.
        let mut indices = Vec::new();
        for i in 0..50u64 {
            indices.push(1);
            indices.push(1000 + 2 * i);
            indices.push(2);
            indices.push(1001 + 2 * i);
        }
        let p = HotEntryProfiler::new();
        let prof = p.sweep(&indices, 2, 4);
        assert!(prof.threshold >= 1, "picked threshold {}", prof.threshold);
        assert!(prof.is_hot(1) && prof.is_hot(2));
        assert!(!prof.is_hot(1000));
    }

    #[test]
    fn hint_simulation_counts_resident_hits_only() {
        let indices = [1, 2, 1, 2, 1];
        // 1 allocates, 2 never allocates.
        assert_eq!(hint_hits(&indices, |k| indices[k] == 1, 4), 2);
    }
}
