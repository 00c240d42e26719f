//! A fixed, fast hasher for integer ids the simulator derives itself.
//!
//! The standard library's default SipHash is keyed per process to resist
//! hash flooding by adversarial input. The simulator's per-lookup sets
//! and maps (compulsory-miss tracking, hot-entry profiling) key on row
//! indices and cache-line ids it computes from seeded traces, so nothing
//! adversarial reaches them, and they pay SipHash on every lookup.
//! [`IdHashMap`] / [`IdHashSet`] are for such keys only; anything keyed by
//! input from outside the program keeps the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes `u64` keys with the splitmix64 finalizer: two multiplies, and
/// every input bit reaches both the low bits (bucket index) and the high
/// bits (control byte) of the hash table.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = (self.0 ^ n).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s (no per-process key).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by simulator-derived ids.
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of simulator-derived ids.
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_fixed_and_separates_nearby_keys() {
        let b = IdBuildHasher::default();
        assert_eq!(b.hash_one(7u64), IdBuildHasher::default().hash_one(7u64));
        let low: IdHashSet<u64> = (0..1024u64).map(|k| b.hash_one(k << 12) & 1023).collect();
        // Keys sharing their low 12 bits still spread over the buckets.
        assert!(low.len() > 600, "{} distinct low-bit patterns", low.len());
    }

    #[test]
    fn sets_and_maps_behave_like_std() {
        let mut s = IdHashSet::default();
        assert!(s.insert(3u64));
        assert!(!s.insert(3u64));
        let mut m: IdHashMap<u64, u64> = IdHashMap::default();
        *m.entry(5).or_default() += 2;
        assert_eq!(m[&5], 2);
    }
}
