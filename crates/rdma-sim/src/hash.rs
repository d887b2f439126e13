//! A cheap hasher for maps keyed by `u64`: page addresses, record keys,
//! mailbox ids.
//!
//! std's default `RandomState` runs SipHash-1-3 over every key, which
//! costs more than the map operation around it. [`U64Hasher`] is two
//! folded multiplies: the 128-bit product of the key and an odd constant,
//! its high half XORed down onto its low half. The fold matters because
//! hashbrown picks a bucket by the low bits of the hash and a tag by the
//! top seven: a bare 64-bit multiply keeps the key's low zero bits (a
//! page address is a multiple of its page size) and leaves every page in
//! a few buckets. The second multiply keeps the tag independent of the
//! buffer pool's shard choice, which takes the top bits of one plain
//! product. The hash has no per-map seed, so a map's iteration order is
//! the same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const MUL0: u64 = 0xa076_1d64_78bd_642f;
const MUL1: u64 = 0xe703_7ed1_a0b4_28db;

/// The high half of `x * k`, XORed onto its low half.
#[inline]
fn folded_multiply(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    (p as u64) ^ ((p >> 64) as u64)
}

/// [`Hasher`] for `u64` keys (other keys hash too, 8 bytes at a time).
#[derive(Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = folded_multiply(self.0 ^ x, MUL0);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.0, MUL1)
    }
}

/// The `BuildHasher` of [`U64Hasher`].
pub type BuildU64Hasher = BuildHasherDefault<U64Hasher>;

/// A `HashMap` keyed by `u64` under [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildU64Hasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Keys that differ only above bit 8 still spread over the low bits
    /// (buckets) and the top seven (hashbrown's tags).
    #[test]
    fn aligned_keys_reach_low_and_high_bits() {
        let build = BuildU64Hasher::default();
        let (mut low, mut top) = (vec![false; 256], vec![false; 128]);
        for i in 0..1024u64 {
            let h = build.hash_one((1 << 48) | (i << 8));
            low[(h & 255) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        assert!(low.iter().filter(|&&b| b).count() > 240);
        assert!(top.iter().filter(|&&b| b).count() > 120);
    }
}
