//! Hash tables keyed by a `u32`: an application tag or a cache address.
//!
//! The engine's tag tables (each sub-cache's tag lookup, the cache's entry
//! lookup, the custom trace heads and the fault quarantine) are probed on
//! every dispatch, so they hash with one multiply instead of std's SipHash.
//! That gives up SipHash's resistance to chosen keys: a guest that placed
//! its code to collide could slow the lookups, which costs host time only,
//! never a simulated count. None of the tables is iterated, so no order
//! depends on the hash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map from a tag or cache address, hashed by [`TagHasher`].
pub(crate) type TagMap<V> = HashMap<u32, V, BuildHasherDefault<TagHasher>>;
/// A set of tags, hashed by [`TagHasher`].
pub(crate) type TagSet = HashSet<u32, BuildHasherDefault<TagHasher>>;

/// Multiplicative hashing of a `u32` key, with the product's high half
/// (which every key bit reaches) folded onto the low half that picks the
/// bucket, so 16-byte-aligned cache addresses spread too.
#[derive(Default)]
pub(crate) struct TagHasher(u64);

impl Hasher for TagHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u32 keys are hashed");
    }

    fn write_u32(&mut self, key: u32) {
        let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ h >> 32;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_keys_spread_over_the_buckets() {
        // 256 fragment entries 16 bytes apart, into 256 buckets picked by
        // the hash's low bits: a hash that kept the keys' zero low bits
        // would use one bucket in sixteen.
        let hasher = BuildHasherDefault::<TagHasher>::default();
        let mut used = [false; 256];
        for i in 0..256u32 {
            used[hasher.hash_one(0xC000_0000 + 16 * i) as usize % 256] = true;
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(filled > 150, "{filled} of 256 buckets used");
    }
}
