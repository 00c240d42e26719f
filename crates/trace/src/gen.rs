//! Index-stream generators.

use rand_distr::{Distribution, Zipf};
use recnmp_types::rng::DetRng;
use recnmp_types::TableId;
use serde::{Deserialize, Serialize};

use crate::batch::{Pooling, SlsBatch};
use crate::spec::EmbeddingTableSpec;

/// Popularity distribution of embedding rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IndexDistribution {
    /// Every row equally likely — the paper's "random trace" worst case.
    Uniform,
    /// Zipf-distributed popularity with skew `s`; rank 1 is the most
    /// popular row. Models the temporal reuse of production traffic.
    Zipf {
        /// Skew exponent (larger = more concentrated).
        s: f64,
    },
}

/// Deterministic generator of embedding-lookup indices for one table.
///
/// Popularity ranks are scattered over the row space with a multiplicative
/// permutation, so hot rows are spread across pages, banks and cache sets
/// — matching the paper's observation that embedding lookups have
/// essentially no spatial locality.
///
/// # Examples
///
/// ```
/// use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
/// use recnmp_types::TableId;
///
/// let spec = EmbeddingTableSpec::dlrm_default();
/// let mut g = TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Zipf { s: 0.9 }, 42);
/// let batch = g.batch(4, 80); // 4 poolings of 80 lookups
/// assert_eq!(batch.poolings.len(), 4);
/// assert!(batch.poolings.iter().all(|p| p.indices.len() == 80));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    table: TableId,
    spec: EmbeddingTableSpec,
    dist: IndexDistribution,
    /// The Zipf sampler of `dist`, built once: its constants depend only
    /// on the row count and the skew, and rebuilding it per draw costs
    /// several `ln`/`exp` calls per index.
    zipf: Option<Zipf>,
    rng: DetRng,
    /// Multiplier of the rank→row permutation (odd, coprime with `rows`).
    perm_mult: u64,
    /// Probability that a lookup re-references a recently drawn row — the
    /// *bursty temporal reuse* of production traffic that interleaved
    /// co-location destroys (and table-aware scheduling recovers).
    reuse_p: f64,
    /// Recent unique rows eligible for burst reuse.
    history: std::collections::VecDeque<u64>,
    history_cap: usize,
}

/// A large prime used to scatter popularity ranks over the row space.
const PERM_PRIME: u64 = 982_451_653;

impl TraceGenerator {
    /// Creates a generator with an explicit seed.
    pub fn new(
        table: TableId,
        spec: EmbeddingTableSpec,
        dist: IndexDistribution,
        seed: u64,
    ) -> Self {
        let zipf = match dist {
            IndexDistribution::Uniform => None,
            IndexDistribution::Zipf { s } => {
                Some(Zipf::new(spec.rows, s).expect("valid Zipf parameters"))
            }
        };
        Self {
            table,
            spec,
            dist,
            zipf,
            rng: DetRng::seed(seed ^ (u32::from(table) as u64) << 32),
            perm_mult: PERM_PRIME,
            reuse_p: 0.0,
            history: std::collections::VecDeque::new(),
            history_cap: 0,
        }
    }

    /// Enables bursty temporal reuse: each lookup re-references one of the
    /// last `window` distinct rows with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn with_burst_reuse(mut self, p: f64, window: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "reuse probability must be in [0,1)"
        );
        self.reuse_p = p;
        self.history_cap = window;
        self
    }

    /// The table this generator draws lookups for.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The table spec.
    pub fn spec(&self) -> &EmbeddingTableSpec {
        &self.spec
    }

    /// The configured distribution.
    pub fn distribution(&self) -> IndexDistribution {
        self.dist
    }

    /// Maps a popularity rank (0 = hottest) to a scattered row index.
    pub fn rank_to_row(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.spec.rows);
        (rank.wrapping_mul(self.perm_mult)) % self.spec.rows
    }

    /// Draws the next row index.
    pub fn next_index(&mut self) -> u64 {
        if self.reuse_p > 0.0 && !self.history.is_empty() && self.rng.chance(self.reuse_p) {
            let i = self.rng.below(self.history.len() as u64) as usize;
            return self.history[i];
        }
        let rank = match &self.zipf {
            None => self.rng.below(self.spec.rows),
            Some(z) => {
                let sample = z.sample(&mut self.rng) as u64;
                sample.clamp(1, self.spec.rows) - 1
            }
        };
        let row = self.rank_to_row(rank);
        if self.history_cap > 0 {
            if self.history.len() == self.history_cap {
                self.history.pop_front();
            }
            self.history.push_back(row);
        }
        row
    }

    /// Draws one pooling of `pooling_factor` indices.
    pub fn pooling(&mut self, pooling_factor: usize) -> Pooling {
        Pooling::unweighted((0..pooling_factor).map(|_| self.next_index()).collect())
    }

    /// Draws a full SLS batch: `batch_size` poolings of `pooling_factor`.
    pub fn batch(&mut self, batch_size: usize, pooling_factor: usize) -> SlsBatch {
        SlsBatch {
            table: self.table,
            spec: self.spec,
            poolings: (0..batch_size)
                .map(|_| self.pooling(pooling_factor))
                .collect(),
        }
    }

    /// Draws a flat sequence of `n` indices (used by locality studies).
    pub fn flat(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn spec() -> EmbeddingTableSpec {
        EmbeddingTableSpec::new(100_000, 64)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TraceGenerator::new(
            TableId::new(1),
            spec(),
            IndexDistribution::Zipf { s: 0.9 },
            7,
        );
        let mut b = TraceGenerator::new(
            TableId::new(1),
            spec(),
            IndexDistribution::Zipf { s: 0.9 },
            7,
        );
        assert_eq!(a.flat(100), b.flat(100));
    }

    #[test]
    fn cached_zipf_matches_a_sampler_built_per_draw() {
        // The original draw loop rebuilt `Zipf::new` for every index;
        // the generator now builds it once. Same rng, same stream.
        for s in [0.9, 1.2] {
            let table = TableId::new(3);
            let seed = 17;
            let mut g = TraceGenerator::new(table, spec(), IndexDistribution::Zipf { s }, seed);
            let mut rng = DetRng::seed(seed ^ (u32::from(table) as u64) << 32);
            let reference: Vec<u64> = (0..10_000)
                .map(|_| {
                    let z = Zipf::new(spec().rows, s).unwrap();
                    let rank = (z.sample(&mut rng) as u64).clamp(1, spec().rows) - 1;
                    g.rank_to_row(rank)
                })
                .collect();
            assert_eq!(g.flat(10_000), reference, "s = {s}");
        }
    }

    #[test]
    fn different_tables_get_different_streams() {
        let mut a = TraceGenerator::new(TableId::new(0), spec(), IndexDistribution::Uniform, 7);
        let mut b = TraceGenerator::new(TableId::new(1), spec(), IndexDistribution::Uniform, 7);
        assert_ne!(a.flat(50), b.flat(50));
    }

    #[test]
    fn indices_stay_in_range() {
        let mut g = TraceGenerator::new(
            TableId::new(0),
            spec(),
            IndexDistribution::Zipf { s: 1.2 },
            3,
        );
        for i in g.flat(10_000) {
            assert!(i < spec().rows);
        }
    }

    #[test]
    fn zipf_is_skewed_uniform_is_not() {
        let count_top = |dist, seed| {
            let mut g = TraceGenerator::new(TableId::new(0), spec(), dist, seed);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for i in g.flat(20_000) {
                *counts.entry(i).or_default() += 1;
            }
            let mut v: Vec<u64> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(10).sum::<u64>()
        };
        let zipf_top = count_top(IndexDistribution::Zipf { s: 1.0 }, 5);
        let unif_top = count_top(IndexDistribution::Uniform, 5);
        assert!(
            zipf_top > 4 * unif_top,
            "zipf {zipf_top} vs uniform {unif_top}"
        );
    }

    #[test]
    fn permutation_scatters_hot_ranks() {
        let g = TraceGenerator::new(TableId::new(0), spec(), IndexDistribution::Uniform, 1);
        // Consecutive popularity ranks map to rows far apart.
        let r0 = g.rank_to_row(0);
        let r1 = g.rank_to_row(1);
        let r2 = g.rank_to_row(2);
        assert!(r0.abs_diff(r1) > 1000);
        assert!(r1.abs_diff(r2) > 1000);
    }

    #[test]
    fn permutation_is_injective_on_prefix() {
        let g = TraceGenerator::new(TableId::new(0), spec(), IndexDistribution::Uniform, 1);
        let rows: std::collections::HashSet<u64> = (0..10_000).map(|r| g.rank_to_row(r)).collect();
        assert_eq!(rows.len(), 10_000);
    }

    #[test]
    fn batch_shape() {
        let mut g = TraceGenerator::new(TableId::new(2), spec(), IndexDistribution::Uniform, 9);
        let b = g.batch(8, 80);
        assert_eq!(b.table, TableId::new(2));
        assert_eq!(b.poolings.len(), 8);
        assert_eq!(b.total_lookups(), 8 * 80);
    }
}
