//! Personalization: server-side replicated state vs. a client-side layer.
//!
//! Section 5: "when query processing involves personalization of results,
//! additional information from a user profile is necessary at search time
//! (...) each user profile represents a state, which must be the latest
//! state and be consistent across replicas. Alternatively, a system can
//! implement personalization as a thin layer on the client-side. This last
//! approach is attractive because it deals with privacy issues (...) It
//! also restricts the user to always using the same terminal."
//!
//! Both designs share one re-ranking function; they differ in where the
//! profile lives: [`ServerPersonalization`] keeps it in the replicated
//! [`PrimaryBackupStore`] (consistent, survives failover, any terminal),
//! [`ClientPersonalization`] keeps it in the client process (private, no
//! server state, lost when the "terminal" changes).

use crate::broker::GlobalHit;
use crate::replica::PrimaryBackupStore;
use std::collections::HashMap;

/// A user profile: per-topic preference weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserProfile {
    /// topic -> boost weight (1.0 = neutral).
    pub topic_boost: HashMap<u16, f32>,
}

impl UserProfile {
    /// Record a click on a document of `topic`, strengthening the boost.
    pub fn record_click(&mut self, topic: u16) {
        let w = self.topic_boost.entry(topic).or_insert(1.0);
        *w = (*w * 1.1).min(3.0);
    }

    /// The boost for a topic (1.0 when unknown).
    fn boost(&self, topic: u16) -> f32 {
        self.topic_boost.get(&topic).copied().unwrap_or(1.0)
    }
}

/// Re-rank hits by multiplying scores with the profile's topic boosts.
/// `topic_of` maps a global doc id to its topic.
pub fn personalize_ranking(
    hits: &[GlobalHit],
    profile: &UserProfile,
    topic_of: &dyn Fn(u32) -> u16,
) -> Vec<GlobalHit> {
    let mut out: Vec<GlobalHit> = hits
        .iter()
        .map(|h| GlobalHit { doc: h.doc, score: h.score * profile.boost(topic_of(h.doc)) })
        .collect();
    out.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("finite scores").then(a.doc.cmp(&b.doc))
    });
    out
}

/// Server-side personalization: profiles in the replicated store, encoded
/// as (user, topic) → fixed-point weight.
#[derive(Debug)]
pub struct ServerPersonalization {
    store: PrimaryBackupStore,
}

fn key(user: u64, topic: u16) -> u64 {
    user.wrapping_mul(65_537) ^ u64::from(topic)
}

impl ServerPersonalization {
    /// Create with `backups` backup replicas.
    pub fn new(backups: usize) -> Self {
        ServerPersonalization { store: PrimaryBackupStore::new(backups) }
    }

    /// Record a click (write-through to all replicas). Returns `false`
    /// when the whole store is down.
    pub fn record_click(&mut self, user: u64, topic: u16) -> bool {
        let current = self.store.get(key(user, topic)).unwrap_or(1_000);
        let next = (current + current / 10).min(3_000);
        self.store.put(key(user, topic), next).is_some()
    }

    /// Materialize the profile visible to `user` right now.
    pub fn profile(&mut self, user: u64, topics: u16) -> UserProfile {
        let mut p = UserProfile::default();
        for t in 0..topics {
            if let Some(w) = self.store.get(key(user, t)) {
                if w != 1_000 {
                    p.topic_boost.insert(t, w as f32 / 1_000.0);
                }
            }
        }
        p
    }

    /// Crash a replica (0 = primary).
    pub fn crash(&mut self, replica: usize) {
        self.store.crash(replica);
    }
}

/// Client-side personalization: the profile lives on one terminal.
#[derive(Debug, Default)]
pub struct ClientPersonalization {
    /// Per-terminal profiles (a new terminal starts empty).
    terminals: HashMap<u32, UserProfile>,
}

impl ClientPersonalization {
    /// Create an empty client layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a click on `terminal`.
    pub fn record_click(&mut self, terminal: u32, topic: u16) {
        self.terminals.entry(terminal).or_default().record_click(topic);
    }

    /// The profile available on `terminal` (empty elsewhere — the paper's
    /// "restricts the user to always using the same terminal").
    pub fn profile(&self, terminal: u32) -> UserProfile {
        self.terminals.get(&terminal).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits() -> Vec<GlobalHit> {
        vec![
            GlobalHit { doc: 0, score: 3.0 }, // topic 0
            GlobalHit { doc: 1, score: 2.9 }, // topic 1
            GlobalHit { doc: 2, score: 2.0 }, // topic 1
        ]
    }

    fn topic_of(doc: u32) -> u16 {
        if doc == 0 {
            0
        } else {
            1
        }
    }

    #[test]
    fn neutral_profile_preserves_order() {
        let p = UserProfile::default();
        let r = personalize_ranking(&hits(), &p, &topic_of);
        assert_eq!(r.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn boosted_topic_rises() {
        let mut p = UserProfile::default();
        for _ in 0..5 {
            p.record_click(1);
        }
        let r = personalize_ranking(&hits(), &p, &topic_of);
        assert_eq!(r[0].doc, 1, "topic-1 doc overtakes");
    }

    #[test]
    fn boost_saturates() {
        let mut p = UserProfile::default();
        for _ in 0..200 {
            p.record_click(3);
        }
        assert!(p.boost(3) <= 3.0);
    }

    #[test]
    fn server_profile_survives_primary_crash() {
        let mut s = ServerPersonalization::new(2);
        for _ in 0..5 {
            assert!(s.record_click(42, 1));
        }
        let before = s.profile(42, 4);
        s.crash(0);
        let after = s.profile(42, 4);
        assert_eq!(before, after, "consistent across failover");
        assert!(after.boost(1) > 1.0);
    }

    #[test]
    fn server_profile_is_terminal_independent() {
        // Server-side state follows the user id, not the device.
        let mut s = ServerPersonalization::new(1);
        s.record_click(7, 2);
        // "Another terminal" = just another profile() call; same state.
        assert!(s.profile(7, 4).boost(2) > 1.0);
    }

    #[test]
    fn client_profile_is_terminal_bound() {
        let mut c = ClientPersonalization::new();
        for _ in 0..3 {
            c.record_click(1, 2);
        }
        assert!(c.profile(1).boost(2) > 1.0, "same terminal sees the profile");
        assert_eq!(c.profile(2), UserProfile::default(), "other terminal starts cold");
    }

    #[test]
    fn both_layers_rank_identically_given_same_profile() {
        let mut server = ServerPersonalization::new(1);
        let mut client = ClientPersonalization::new();
        for _ in 0..4 {
            server.record_click(9, 1);
            client.record_click(5, 1);
        }
        let sp = server.profile(9, 4);
        let cp = client.profile(5);
        let rs = personalize_ranking(&hits(), &sp, &topic_of);
        let rc = personalize_ranking(&hits(), &cp, &topic_of);
        assert_eq!(
            rs.iter().map(|h| h.doc).collect::<Vec<_>>(),
            rc.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
    }
}
