//! Hash maps keyed by ids the engine assigns itself.
//!
//! Slot tables, posting maps and caches are keyed by one small integer —
//! an [`ObjectId`](crate::ObjectId), a [`KeywordId`](crate::KeywordId), a
//! 64-bit query signature — and sit on the ingest, build and query paths,
//! where std's default SipHash costs more than the probe it feeds.
//! [`IdHasher`] replaces it with one widening multiply whose two halves are
//! folded together, so every key bit reaches both the bucket-index bits
//! (low) and the control-byte bits (high) the std table reads.
//!
//! **Not hardened against chosen keys**: the function is fixed and
//! invertible, so an adversary who picks the ids can pile them into one
//! bucket. Use [`IdMap`] / [`IdSet`] only for keys the engine generates or
//! has already hashed; maps keyed by outside input (`Vocabulary::by_word`)
//! keep the default hasher. If ids ever arrive from an untrusted peer, the
//! [`BuildHasherDefault`] in the two aliases below is where a per-map seed
//! would go.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// 2⁶⁴ / φ, odd: consecutive ids land far apart.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-and-fold hasher for single-integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let wide = u128::from(self.0 ^ n) * u128::from(MULTIPLIER);
        // Fold: the low half carries the low key bits upward, the high half
        // brings the high key bits back down (truncation is the point).
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Fallback for keys that are not a single integer: correct, not fast.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The std table takes the bucket index from the low bits of the hash.
    /// On the key shapes the engine produces (and two it should survive)
    /// those bits must spread like a random function's: 65 536 keys into
    /// 65 536 buckets leave 1 − 1/e ≈ 63 % of them occupied.
    #[test]
    #[cfg_attr(miri, ignore = "262 144 hashes of pure integer arithmetic")]
    fn low_bits_spread_structured_keys() {
        const N: u64 = 1 << 16;
        let spread = |name: &str, key: fn(u64) -> u64| {
            let buckets: std::collections::HashSet<u64> =
                (0..N).map(|i| hash_of(key(i)) & (N - 1)).collect();
            assert!(
                buckets.len() as u64 * 10 >= N * 6,
                "{name}: only {} of {N} low-bit patterns",
                buckets.len()
            );
        };
        spread("sequential", |i| i);
        spread("stride-64", |i| i * 64);
        spread("stride-2^20", |i| i << 20);
        spread("bit-reversed", |i| i.reverse_bits());
    }

    #[test]
    fn integer_widths_agree_and_bytes_fall_back() {
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }
}
