//! Hierarchical coordinator merging.
//!
//! "The coordinator may become a bottleneck while merging the results from
//! a great number of query processors. In such a case, it is possible to
//! use a hierarchy of coordinators to mitigate this problem" (Section 5,
//! communication). This module models both topologies over the same
//! per-partition results: a flat coordinator that merges all `n` result
//! lists itself, and a `fanout`-ary merge tree whose root only merges
//! `fanout` pre-merged lists.

use crate::broker::{GlobalHit, US_PER_MERGE_HIT};
use dwr_sim::net::Link;
use dwr_sim::SimTime;
use dwr_text::topk::TopK;

/// Result of merging through a coordinator topology.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged top-k.
    pub hits: Vec<GlobalHit>,
    /// CPU time (µs) spent by the *root* coordinator — its saturation
    /// point determines system throughput.
    pub root_cpu_us: u64,
    /// End-to-end merge latency (µs), network hops included.
    pub latency: SimTime,
    /// Total CPU across all coordinators (the efficiency price of the
    /// tree: inner nodes re-merge).
    pub total_cpu_us: u64,
    /// Coordinators involved.
    pub coordinators: usize,
}

/// Merge `lists` into their top `k` (none at `k = 0`), and the CPU the
/// coordinator pays to receive them.
fn merge_lists(lists: &[Vec<GlobalHit>], k: usize) -> (Vec<GlobalHit>, u64) {
    let cpu: u64 = lists.iter().map(|l| l.len() as u64 * US_PER_MERGE_HIT as u64).sum();
    if k == 0 {
        return (Vec::new(), cpu);
    }
    let mut top = TopK::new(k);
    for h in lists.iter().flatten() {
        top.push(h.doc, h.score);
    }
    let hits =
        top.into_sorted_vec().into_iter().map(|(doc, score)| GlobalHit { doc, score }).collect();
    (hits, cpu)
}

/// Flat merge: one coordinator consumes every partition's list.
pub fn flat_merge(per_partition: &[Vec<GlobalHit>], k: usize, link: Link) -> MergeOutcome {
    let (hits, cpu) = merge_lists(per_partition, k);
    // All lists arrive in parallel; latency = slowest transfer + merge CPU.
    let max_transfer =
        per_partition.iter().map(|l| link.transfer_time(l.len() as u64 * 12)).max().unwrap_or(0);
    MergeOutcome {
        hits,
        root_cpu_us: cpu,
        latency: max_transfer + cpu,
        total_cpu_us: cpu,
        coordinators: 1,
    }
}

/// Tree merge: leaves are partitions; inner coordinators merge `fanout`
/// children each; the root merges the last `<= fanout` lists.
pub fn tree_merge(
    per_partition: &[Vec<GlobalHit>],
    k: usize,
    fanout: usize,
    link: Link,
) -> MergeOutcome {
    assert!(fanout >= 2, "a merge tree needs fanout >= 2");
    if per_partition.len() <= 1 {
        // Degenerate tree: the root canonicalizes the single list.
        let (hits, cpu) = merge_lists(per_partition, k);
        return MergeOutcome {
            hits,
            root_cpu_us: cpu,
            latency: cpu,
            total_cpu_us: cpu,
            coordinators: 1,
        };
    }
    let mut level: Vec<Vec<GlobalHit>> = per_partition.to_vec();
    let mut total_cpu = 0u64;
    let mut latency: SimTime = 0;
    let mut coordinators = 0usize;
    let mut root_cpu = 0u64;
    while level.len() > 1 {
        let mut next: Vec<Vec<GlobalHit>> = Vec::with_capacity(level.len().div_ceil(fanout));
        let mut level_latency: SimTime = 0;
        let mut level_max_cpu = 0u64;
        for group in level.chunks(fanout) {
            coordinators += 1;
            let (merged, cpu) = merge_lists(group, k);
            total_cpu += cpu;
            level_max_cpu = level_max_cpu.max(cpu);
            let transfer =
                group.iter().map(|l| link.transfer_time(l.len() as u64 * 12)).max().unwrap_or(0);
            level_latency = level_latency.max(transfer + cpu);
            next.push(merged);
        }
        root_cpu = level_max_cpu; // the last level's max is the root's work
        latency += level_latency;
        level = next;
    }
    MergeOutcome {
        hits: level.pop().unwrap_or_default(),
        root_cpu_us: root_cpu,
        latency,
        total_cpu_us: total_cpu,
        coordinators,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partitions(n: usize, per: usize) -> Vec<Vec<GlobalHit>> {
        (0..n)
            .map(|p| {
                (0..per)
                    .map(|i| GlobalHit {
                        doc: (p * per + i) as u32,
                        score: ((p * 31 + i * 17) % 97) as f32,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn flat_and_tree_produce_identical_topk() {
        let parts = partitions(16, 10);
        let flat = flat_merge(&parts, 10, Link::lan());
        for fanout in [2, 3, 4, 8] {
            let tree = tree_merge(&parts, 10, fanout, Link::lan());
            assert_eq!(tree.hits, flat.hits, "fanout {fanout}");
        }
    }

    #[test]
    fn tree_cuts_root_cpu() {
        let parts = partitions(64, 10);
        let flat = flat_merge(&parts, 10, Link::lan());
        let tree = tree_merge(&parts, 10, 4, Link::lan());
        // Root merges 4 lists of <= 10 instead of 64 lists of 10.
        assert!(
            tree.root_cpu_us * 4 < flat.root_cpu_us,
            "tree root {} vs flat {}",
            tree.root_cpu_us,
            flat.root_cpu_us
        );
    }

    #[test]
    fn tree_costs_more_total_cpu() {
        let parts = partitions(64, 10);
        let flat = flat_merge(&parts, 10, Link::lan());
        let tree = tree_merge(&parts, 10, 4, Link::lan());
        assert!(tree.total_cpu_us > flat.total_cpu_us);
        assert!(tree.coordinators > 1);
    }

    #[test]
    fn tree_latency_has_depth_but_wan_flat_suffers_width() {
        // On a LAN the extra levels cost latency; the win is throughput
        // (root CPU), not latency.
        let parts = partitions(64, 10);
        let flat = flat_merge(&parts, 10, Link::lan());
        let tree = tree_merge(&parts, 10, 2, Link::lan());
        assert!(tree.latency >= flat.latency);
    }

    #[test]
    fn single_partition_trivial() {
        let parts = partitions(1, 5);
        let flat = flat_merge(&parts, 10, Link::lan());
        let tree = tree_merge(&parts, 10, 2, Link::lan());
        assert_eq!(flat.hits, tree.hits);
        assert_eq!(tree.coordinators, 1, "just the root");
    }

    #[test]
    fn top_zero_merges_to_nothing() {
        let parts = partitions(16, 10);
        assert!(flat_merge(&parts, 0, Link::lan()).hits.is_empty());
        for fanout in [2, 4] {
            assert!(tree_merge(&parts, 0, fanout, Link::lan()).hits.is_empty(), "fanout {fanout}");
        }
        assert!(tree_merge(&parts[..1], 0, 2, Link::lan()).hits.is_empty(), "one partition");
    }

    #[test]
    fn empty_input() {
        let out = flat_merge(&[], 10, Link::lan());
        assert!(out.hits.is_empty());
    }
}
