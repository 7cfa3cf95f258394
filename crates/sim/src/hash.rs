//! The hasher for tables keyed by the program's own dense ids.
//!
//! Term ids, document ids, page ids and host ids are assigned by this
//! program (content-model layout, document order, generation order), not
//! chosen by whoever sends a query or serves a page, so SipHash's
//! resistance to crafted collisions buys nothing for them. [`IdHasher`]
//! hashes such an id with one multiply and one xor-shift instead. The
//! same holds for the 64-bit query keys the result cache and the engine
//! index by: a key is an FNV fold of the program's own term ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for `u32` ids, newtypes over them and `u64` query keys: one
/// multiply and one xor-shift per key. Ids are arbitrary, so the
/// multiply carries every bit upward and the xor-shift folds the high
/// half back into the low bits the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

// Inline across crates: the tables that use it live in other crates.
impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let x = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn id_hasher_spreads_ids_that_share_their_low_bits() {
        // A 64-bucket table indexes by the hash's low 6 bits: an identity
        // hash would pile all 32 ids below into one bucket.
        let build = BuildHasherDefault::<IdHasher>::default();
        for low in [0, 0xbeef, 0xffff] {
            let buckets: std::collections::BTreeSet<u64> =
                (0..32u32).map(|high| build.hash_one(high << 16 | low) & 63).collect();
            assert_eq!(buckets.len(), 32, "low bits {low:#x}");
        }
    }

    #[test]
    fn id_hasher_spreads_u64_keys_that_share_their_low_half() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let buckets: std::collections::BTreeSet<u64> =
            (0..32u64).map(|high| build.hash_one(high << 32 | 0xbeef) & 63).collect();
        assert_eq!(buckets.len(), 32);
    }

    #[test]
    fn a_newtype_over_an_id_hashes_as_the_id() {
        #[derive(Hash)]
        struct Id(u32);
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one(Id(0xbeef)), build.hash_one(0xbeef_u32));
    }
}
