//! Bounded top-k selection.
//!
//! Query processors keep only the k best-scoring documents; brokers merge
//! several such lists (Section 5's result merging). `TopK` is not a heap:
//! it maps each `(key, score)` to one `u64` order key and appends the keys
//! that beat a floor to a buffer of a few times k. When the buffer fills,
//! it keeps the best k (`select_nth_unstable`) and their worst becomes the
//! new floor. A push is one comparison and one store with no branch on
//! its outcome; extraction sorts at most the buffer. Memory is O(k).
//!
//! # The order key
//!
//! Entries rank by score, then by key *ascending*, so ties are
//! deterministic (lower doc id wins, matching what production engines
//! do). The order key's high half is the score's bits under the
//! sign-flip transform (set the sign bit of a non-negative float, invert
//! every bit of a negative one), which orders like the floats themselves,
//! negatives and infinities included; its low half is `!key`. NaN scores
//! are rejected at insertion. `-0.0` is folded into `+0.0` before the
//! transform, so the two zeros tie as they compare, and a `-0.0` comes
//! back as `+0.0`. No engine score is `-0.0`: every sum is folded from
//! `+0.0`, and `+0.0 + -0.0` is `+0.0`.

/// Bounded top-k accumulator over `(key, score)` pairs.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    /// Order keys; `keys[..len]` are the candidates still in the running.
    /// Every slot is writable, so a push stores before it decides.
    keys: Vec<u64>,
    len: usize,
    /// A key must beat this to be kept: the k-th best key after the last
    /// compaction, and 0 (below every order key) before the first.
    floor: u64,
}

/// The buffer length for a top-`k`: room for a few times k between
/// compactions, so each compaction's O(cap) pass buys cap − k pushes.
///
/// # Panics
/// Panics if `k == 0`.
fn capacity(k: usize) -> usize {
    assert!(k > 0, "top-0 is meaningless");
    k.saturating_mul(4).max(64)
}

/// The order key of `(key, score)` (see module docs).
fn order_key(key: u32, score: f32) -> u64 {
    let bits = (score + 0.0).to_bits();
    let flip = ((bits as i32 >> 31) as u32) | 1 << 31;
    u64::from(bits ^ flip) << 32 | u64::from(!key)
}

/// The `(key, score)` an order key was made from.
fn entry(order: u64) -> (u32, f32) {
    let ordered = (order >> 32) as u32;
    let flip = if ordered >> 31 == 1 { 1 << 31 } else { u32::MAX };
    (!(order as u32), f32::from_bits(ordered ^ flip))
}

impl TopK {
    /// Create an accumulator retaining the `k` best entries.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        TopK { k, keys: vec![0; capacity(k)], len: 0, floor: 0 }
    }

    /// [`TopK::new`] over a buffer a previous accumulator handed back
    /// with `into_keys`: no allocation once the buffer has grown to size.
    pub(crate) fn reusing(k: usize, mut keys: Vec<u64>) -> Self {
        keys.resize(capacity(k), 0);
        TopK { k, keys, len: 0, floor: 0 }
    }

    /// Offer an entry.
    ///
    /// # Panics
    /// Panics on a NaN score.
    #[inline]
    pub fn push(&mut self, key: u32, score: f32) {
        assert!(!score.is_nan(), "NaN score");
        let order = order_key(key, score);
        self.keys[self.len] = order;
        self.len += usize::from(order > self.floor);
        if self.len == self.keys.len() {
            self.compact();
        }
    }

    /// Keep the best k of the candidates (more than k of them) and raise
    /// the floor to the k-th best.
    #[cold]
    fn compact(&mut self) {
        let k = self.k;
        self.keys[..self.len].select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        self.floor = self.keys[k - 1];
        self.len = k;
    }

    /// Number of retained entries (≤ k).
    pub fn len(&self) -> usize {
        self.len.min(self.k)
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The retained entries, best first.
    pub(crate) fn sorted(&mut self) -> impl ExactSizeIterator<Item = (u32, f32)> + '_ {
        if self.len > self.k {
            self.compact();
        }
        let kept = &mut self.keys[..self.len];
        kept.sort_unstable_by(|a, b| b.cmp(a));
        kept.iter().map(|&order| entry(order))
    }

    /// The buffer, for the next accumulator's [`TopK::reusing`].
    pub(crate) fn into_keys(self) -> Vec<u64> {
        self.keys
    }

    /// Extract the retained entries, best first.
    pub fn into_sorted_vec(mut self) -> Vec<(u32, f32)> {
        self.sorted().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair, best first: score descending, then key ascending.
    fn sorted(mut v: Vec<(u32, f32)>, k: usize) -> Vec<(u32, f32)> {
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn keeps_best_k() {
        let mut t = TopK::new(3);
        for (i, s) in [1.0f32, 5.0, 3.0, 2.0, 4.0].iter().enumerate() {
            t.push(i as u32, *s);
        }
        let got = t.into_sorted_vec();
        assert_eq!(got.iter().map(|&(k, _)| k).collect::<Vec<_>>(), vec![1, 4, 2]);
        assert_eq!(got[0].1, 5.0);
    }

    #[test]
    fn fewer_than_k_is_fine() {
        let mut t = TopK::new(10);
        t.push(7, 1.5);
        let got = t.into_sorted_vec();
        assert_eq!(got, vec![(7, 1.5)]);
    }

    #[test]
    fn ties_break_by_lower_key() {
        let mut t = TopK::new(2);
        t.push(9, 1.0);
        t.push(3, 1.0);
        t.push(5, 1.0);
        let got = t.into_sorted_vec();
        assert_eq!(got.iter().map(|&(k, _)| k).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn equal_to_threshold_with_higher_key_not_admitted() {
        let mut t = TopK::new(1);
        t.push(1, 2.0);
        t.push(5, 2.0); // same score, higher key: loses
        assert_eq!(t.into_sorted_vec(), vec![(1, 2.0)]);
    }

    #[test]
    fn equal_to_threshold_with_lower_key_admitted() {
        let mut t = TopK::new(1);
        t.push(5, 2.0);
        t.push(1, 2.0); // same score, lower key: wins
        assert_eq!(t.into_sorted_vec(), vec![(1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "top-0")]
    fn rejects_k_zero() {
        TopK::new(0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        TopK::new(1).push(0, f32::NAN);
    }

    #[test]
    fn order_key_orders_like_the_entries() {
        let scores = [f32::NEG_INFINITY, -3.5, -1e-30, -0.0, 0.0, 1e-30, 2.0, f32::INFINITY];
        let keys = [0, 1, 7, u32::MAX];
        for &a in &scores {
            for &b in &scores {
                for &ka in &keys {
                    for &kb in &keys {
                        let want = a.partial_cmp(&b).unwrap().then(kb.cmp(&ka));
                        assert_eq!(order_key(ka, a).cmp(&order_key(kb, b)), want);
                    }
                }
            }
            for &k in &keys {
                // -0.0 comes back as +0.0; they compare equal.
                let (key, score) = entry(order_key(k, a));
                assert_eq!((key, score.to_bits()), (k, (a + 0.0).to_bits()));
            }
        }
    }

    #[test]
    fn a_full_buffer_compacts_to_the_best_k() {
        for k in [1, 3, 16, 17, 40] {
            let cap = capacity(k);
            for n in [cap - 1, cap, cap + 1, 3 * cap + 1] {
                // Ascending scores: every push beats the floor.
                let entries: Vec<(u32, f32)> = (0..n as u32).map(|i| (i, i as f32)).collect();
                let mut t = TopK::new(k);
                for &(key, score) in &entries {
                    t.push(key, score);
                }
                assert_eq!(t.len(), k.min(n), "k={k} n={n}");
                assert_eq!(t.into_sorted_vec(), sorted(entries, k), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn ties_at_the_floor_keep_the_lower_keys() {
        let k = 4;
        let cap = capacity(k);
        // Fill the buffer with one score so the floor is a tie, then offer
        // more of that score on both sides of the floor's key.
        let mut entries: Vec<(u32, f32)> = (100..100 + cap as u32).map(|i| (i, 1.0)).collect();
        entries.extend([(102, 1.0), (103, 1.0), (104, 1.0), (50, 1.0), (99, 1.0), (7, 0.5)]);
        entries.extend((200..200 + cap as u32).map(|i| (i, 1.0)));
        let mut t = TopK::new(k);
        for &(key, score) in &entries {
            t.push(key, score);
        }
        assert_eq!(t.into_sorted_vec(), vec![(50, 1.0), (99, 1.0), (100, 1.0), (101, 1.0)]);
    }

    #[test]
    fn a_repeated_pair_fills_k_slots() {
        let mut t = TopK::new(3);
        let cap = capacity(3);
        for _ in 0..=cap {
            t.push(5, 2.0);
        }
        assert_eq!(t.into_sorted_vec(), vec![(5, 2.0); 3]);
    }

    #[test]
    fn a_reused_buffer_starts_empty() {
        let mut t = TopK::new(2);
        for i in 0..200 {
            t.push(i, i as f32);
        }
        let mut t = TopK::reusing(5, t.into_keys());
        assert!(t.is_empty());
        t.push(3, 1.0);
        assert_eq!(t.into_sorted_vec(), vec![(3, 1.0)]);
    }

    #[test]
    fn large_stream_matches_full_sort() {
        let mut t = TopK::new(10);
        let scores: Vec<f32> = (0..1000u32)
            .map(|i| ((i.wrapping_mul(2654435761u32.wrapping_mul(i))) % 997) as f32)
            .collect();
        for (i, &s) in scores.iter().enumerate() {
            t.push(i as u32, s);
        }
        let got = t.into_sorted_vec();
        let want: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s)).collect();
        assert_eq!(got, sorted(want, 10));
    }
}
