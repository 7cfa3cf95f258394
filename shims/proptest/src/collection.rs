//! Collection strategies: `vec`, `btree_set`, `btree_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// A size specification for collection strategies: either an exact size
/// or a half-open range of sizes.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        debug_assert!(self.lo < self.hi, "empty size range");
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange { lo: r.start, hi: r.end }
    }
}

/// Strategy for `Vec<T>` with element strategy `element` and length in
/// `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeSet<T>`. When the element domain is smaller than
/// the requested size, the set saturates below the target rather than
/// looping forever.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size: size.into() }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.sample(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < target * 10 + 16 {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }
}

/// Strategy for `BTreeMap<K, V>`; same saturation rule as
/// [`btree_set`].
pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy { key, value, size: size.into() }
}

/// See [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let target = self.size.sample(rng);
        let mut map = BTreeMap::new();
        let mut attempts = 0usize;
        while map.len() < target && attempts < target * 10 + 16 {
            map.insert(self.key.generate(rng), self.value.generate(rng));
            attempts += 1;
        }
        map
    }
}
