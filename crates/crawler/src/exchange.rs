//! Batched inter-agent URL exchange with most-cited suppression.
//!
//! "Crawling agents must exchange URLs, and to reduce the overhead of
//! communication, these agents exchange them in batches. (...) Crawling
//! agents can have as part of their input the most cited URLs in the
//! collection (...) This information enables a significant reduction on
//! the communication complexity due to the power-law distribution of the
//! in-degree of pages" (Section 3).

use crate::assign::AgentId;
use dwr_sim::hash::{IdMap, IdSet};
use dwr_webgraph::graph::PageId;

/// Wire-size model: bytes per URL in an exchange message.
pub const BYTES_PER_URL: u64 = 64;
/// Fixed per-message overhead in bytes.
pub const BYTES_PER_MESSAGE: u64 = 128;

/// Outgoing URL buffers of one agent, one per destination.
#[derive(Debug)]
pub struct ExchangeBuffers {
    buffers: IdMap<AgentId, Vec<PageId>>,
    batch_size: usize,
    /// URLs every agent already knows (most-cited seeding) — never sent.
    known: IdSet<PageId>,
    stats: ExchangeStats,
}

/// Traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// URLs handed to the exchange layer.
    pub offered: u64,
    /// URLs suppressed because they were pre-seeded as most-cited.
    pub suppressed: u64,
    /// URLs actually sent.
    pub sent_urls: u64,
    /// Messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
}

impl ExchangeBuffers {
    /// Create buffers that flush a destination after `batch_size` URLs.
    /// `known` is the shared most-cited set (may be empty).
    pub fn new(batch_size: usize, known: IdSet<PageId>) -> Self {
        assert!(batch_size > 0);
        ExchangeBuffers {
            buffers: IdMap::default(),
            batch_size,
            known,
            stats: ExchangeStats::default(),
        }
    }

    /// Offer a URL destined for `to`. Returns a full batch if the buffer
    /// reached the batch size (caller sends it), `None` otherwise.
    pub fn offer(&mut self, to: AgentId, url: PageId) -> Option<Vec<PageId>> {
        self.stats.offered += 1;
        if self.known.contains(&url) {
            self.stats.suppressed += 1;
            return None;
        }
        let buf = self.buffers.entry(to).or_default();
        buf.push(url);
        if buf.len() >= self.batch_size {
            let batch = std::mem::take(buf);
            self.account_send(&batch);
            Some(batch)
        } else {
            None
        }
    }

    /// Flush one destination (e.g. on a timer); returns the batch if any.
    pub fn flush(&mut self, to: AgentId) -> Option<Vec<PageId>> {
        let buf = self.buffers.get_mut(&to)?;
        if buf.is_empty() {
            return None;
        }
        let batch = std::mem::take(buf);
        self.account_send(&batch);
        Some(batch)
    }

    /// Flush everything, returning `(destination, batch)` pairs in
    /// destination order (deterministic).
    pub fn flush_all(&mut self) -> Vec<(AgentId, Vec<PageId>)> {
        let mut dests: Vec<AgentId> =
            self.buffers.iter().filter(|(_, b)| !b.is_empty()).map(|(&d, _)| d).collect();
        dests.sort_unstable();
        dests.into_iter().filter_map(|d| self.flush(d).map(|b| (d, b))).collect()
    }

    /// Move all buffered URLs addressed to `from` into unrouted output
    /// (used when the destination agent crashes before delivery).
    pub fn recall(&mut self, from: AgentId) -> Vec<PageId> {
        self.buffers.remove(&from).unwrap_or_default()
    }

    /// Recall *every* undelivered buffer, in destination order (used
    /// when this agent itself crashes: the coordinator re-routes the
    /// URLs to the hosts' current owners). Nothing is counted as sent.
    pub fn recall_all(&mut self) -> Vec<(AgentId, Vec<PageId>)> {
        let mut out: Vec<(AgentId, Vec<PageId>)> =
            self.buffers.drain().filter(|(_, b)| !b.is_empty()).collect();
        out.sort_unstable_by_key(|&(d, _)| d);
        out
    }

    fn account_send(&mut self, batch: &[PageId]) {
        self.stats.sent_urls += batch.len() as u64;
        self.stats.messages += 1;
        self.stats.bytes += BYTES_PER_MESSAGE + batch.len() as u64 * BYTES_PER_URL;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A1: AgentId = AgentId(1);
    const A2: AgentId = AgentId(2);

    #[test]
    fn batches_at_threshold() {
        let mut x = ExchangeBuffers::new(3, IdSet::default());
        assert!(x.offer(A1, PageId(1)).is_none());
        assert!(x.offer(A1, PageId(2)).is_none());
        let batch = x.offer(A1, PageId(3)).expect("full batch");
        assert_eq!(batch.len(), 3);
        assert_eq!(x.stats().messages, 1);
        assert_eq!(x.stats().sent_urls, 3);
    }

    #[test]
    fn destinations_buffer_independently() {
        let mut x = ExchangeBuffers::new(2, IdSet::default());
        assert!(x.offer(A1, PageId(1)).is_none());
        assert!(x.offer(A2, PageId(2)).is_none());
        assert!(x.offer(A1, PageId(3)).is_some());
        assert!(x.offer(A2, PageId(4)).is_some());
    }

    #[test]
    fn suppression_blocks_known_urls() {
        let known: IdSet<PageId> = [PageId(7), PageId(8)].into_iter().collect();
        let mut x = ExchangeBuffers::new(10, known);
        assert!(x.offer(A1, PageId(7)).is_none());
        assert!(x.offer(A1, PageId(8)).is_none());
        assert!(x.offer(A1, PageId(9)).is_none());
        let s = x.stats();
        assert_eq!(s.offered, 3);
        assert_eq!(s.suppressed, 2);
        let flushed = x.flush(A1).expect("one real url");
        assert_eq!(flushed, vec![PageId(9)]);
    }

    #[test]
    fn flush_all_deterministic_order() {
        let mut x = ExchangeBuffers::new(100, IdSet::default());
        x.offer(A2, PageId(1));
        x.offer(A1, PageId(2));
        let all = x.flush_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, A1);
        assert_eq!(all[1].0, A2);
        // Buffers now empty.
        assert!(x.flush_all().is_empty());
    }

    #[test]
    fn bytes_account_message_overhead() {
        let mut x = ExchangeBuffers::new(2, IdSet::default());
        x.offer(A1, PageId(1));
        x.offer(A1, PageId(2));
        assert_eq!(x.stats().bytes, BYTES_PER_MESSAGE + 2 * BYTES_PER_URL);
    }

    #[test]
    fn recall_all_empties_every_buffer_in_order() {
        let mut x = ExchangeBuffers::new(10, IdSet::default());
        x.offer(A2, PageId(1));
        x.offer(A1, PageId(2));
        let all = x.recall_all();
        assert_eq!(all, vec![(A1, vec![PageId(2)]), (A2, vec![PageId(1)])]);
        assert!(x.recall_all().is_empty());
        assert_eq!(x.stats().sent_urls, 0, "recalled URLs were never sent");
    }

    #[test]
    fn recall_returns_undelivered() {
        let mut x = ExchangeBuffers::new(10, IdSet::default());
        x.offer(A1, PageId(1));
        x.offer(A1, PageId(2));
        let recalled = x.recall(A1);
        assert_eq!(recalled, vec![PageId(1), PageId(2)]);
        assert!(x.flush(A1).is_none());
        // Recalled URLs were never "sent".
        assert_eq!(x.stats().sent_urls, 0);
    }
}
