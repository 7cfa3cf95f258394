//! Robots exclusion and sitemaps — the server side of crawler cooperation.
//!
//! Section 3: crawlers must respect exclusion rules \[3, 4\], and "recently
//! three of the largest search engines agreed on a standard for this type
//! of server-crawler cooperation (`http://www.sitemaps.org/`)". The models
//! here are deterministic functions of the web's seed:
//!
//! * [`RobotsPolicy`] — each host disallows a (host-dependent) fraction of
//!   its pages; a polite crawler never fetches them;
//! * [`SitemapIndex`] — a fraction of hosts publish a sitemap listing all
//!   their pages, so one fetch discovers the whole host without waiting
//!   for link extraction.

use crate::graph::{HostId, PageId, SyntheticWeb};
use dwr_sim::SimRng;

/// Deterministic per-page robots exclusion.
#[derive(Debug, Clone)]
pub struct RobotsPolicy {
    /// Per-host disallow fraction (0 = everything allowed).
    host_fraction: Vec<f32>,
    seed: u64,
}

impl RobotsPolicy {
    /// Build a policy: a `restrictive_fraction` of hosts disallow
    /// `disallow_fraction` of their pages; the rest allow everything.
    pub fn generate(
        web: &SyntheticWeb,
        restrictive_fraction: f64,
        disallow_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&restrictive_fraction));
        assert!((0.0..=1.0).contains(&disallow_fraction));
        let mut rng = SimRng::new(seed).fork_named("robots");
        let host_fraction = (0..web.num_hosts())
            .map(|_| if rng.chance(restrictive_fraction) { disallow_fraction as f32 } else { 0.0 })
            .collect();
        RobotsPolicy { host_fraction, seed }
    }

    /// Whether a polite crawler may fetch `page`.
    pub fn allowed(&self, page: PageId, web: &SyntheticWeb) -> bool {
        let host = web.page(page).host;
        let f = self.host_fraction[host.0 as usize];
        if f <= 0.0 {
            return true;
        }
        // Stable per-page draw from (seed, page).
        let mut z = (self.seed ^ u64::from(page.0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) >= f64::from(f)
    }

    /// Number of allowed pages in the whole web.
    pub fn allowed_count(&self, web: &SyntheticWeb) -> usize {
        web.page_ids().filter(|&p| self.allowed(p, web)).count()
    }
}

/// Which hosts publish sitemaps.
#[derive(Debug, Clone)]
pub struct SitemapIndex {
    has_sitemap: Vec<bool>,
}

impl SitemapIndex {
    /// A `fraction` of hosts (chosen deterministically) publish sitemaps.
    pub fn generate(web: &SyntheticWeb, fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        let mut rng = SimRng::new(seed).fork_named("sitemaps");
        SitemapIndex { has_sitemap: (0..web.num_hosts()).map(|_| rng.chance(fraction)).collect() }
    }

    /// No host publishes a sitemap.
    pub fn none(web: &SyntheticWeb) -> Self {
        SitemapIndex { has_sitemap: vec![false; web.num_hosts()] }
    }

    /// Whether `host` publishes a sitemap.
    pub fn has(&self, host: HostId) -> bool {
        self.has_sitemap[host.0 as usize]
    }

    /// The sitemap contents: every page of the host.
    pub fn pages<'w>(&self, host: HostId, web: &'w SyntheticWeb) -> &'w [PageId] {
        debug_assert!(self.has(host), "host publishes no sitemap");
        web.pages_of_host(host)
    }

    /// Fraction of hosts with sitemaps.
    pub fn coverage(&self) -> f64 {
        if self.has_sitemap.is_empty() {
            return 0.0;
        }
        self.has_sitemap.iter().filter(|&&b| b).count() as f64 / self.has_sitemap.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_web, WebConfig};

    fn web() -> SyntheticWeb {
        generate_web(&WebConfig::tiny(), 66)
    }

    #[test]
    fn no_restrictive_host_allows_everything() {
        let w = web();
        let r = RobotsPolicy::generate(&w, 0.0, 0.3, 9);
        assert_eq!(r.allowed_count(&w), w.num_pages());
    }

    #[test]
    fn disallow_fraction_is_respected() {
        let w = web();
        let r = RobotsPolicy::generate(&w, 1.0, 0.3, 9);
        let allowed = r.allowed_count(&w) as f64 / w.num_pages() as f64;
        assert!((allowed - 0.7).abs() < 0.05, "allowed={allowed}");
    }

    #[test]
    fn decision_is_stable() {
        let w = web();
        let r = RobotsPolicy::generate(&w, 0.5, 0.5, 10);
        for p in w.page_ids().take(200) {
            assert_eq!(r.allowed(p, &w), r.allowed(p, &w));
        }
    }

    #[test]
    fn unrestrictive_hosts_fully_allowed() {
        let w = web();
        let r = RobotsPolicy::generate(&w, 0.0, 0.9, 11);
        assert_eq!(r.allowed_count(&w), w.num_pages());
    }

    #[test]
    fn sitemap_fraction_respected() {
        let w = web();
        let s = SitemapIndex::generate(&w, 0.4, 12);
        assert!((s.coverage() - 0.4).abs() < 0.15);
        assert_eq!(SitemapIndex::none(&w).coverage(), 0.0);
    }

    #[test]
    fn sitemap_lists_whole_host() {
        let w = web();
        let s = SitemapIndex::generate(&w, 1.0, 13);
        for h in w.host_ids().take(10) {
            assert!(s.has(h));
            assert_eq!(s.pages(h, &w), w.pages_of_host(h));
        }
    }
}
