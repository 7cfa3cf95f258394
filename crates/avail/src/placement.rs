//! Replica placement vs. availability vs. storage overhead.
//!
//! "Having all query processors storing the same data (...) achieves the
//! best availability level possible. This is likely to impose a
//! significant and unnecessary overhead (...) an open question is how to
//! replicate data in such a way that the system achieves adequate levels
//! of availability with minimal storage overhead" (Section 5). This module
//! evaluates placement strategies: each of `objects` data shards is placed
//! on `r` of `n` sites; an object is available when at least one holding
//! site is up, and a *query* (which must reach every shard) succeeds when
//! all objects are available.

use dwr_sim::SimRng;

/// How replicas are spread over sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Each object picks `r` distinct sites uniformly at random.
    Random,
    /// Object `i` goes to sites `i, i+1, …, i+r-1 (mod n)` — "chained
    /// declustering"; balanced and deterministic.
    RoundRobin,
    /// All objects go to the `r` most available sites (concentrated).
    BestSites,
}

/// A materialized placement: `sites_of[obj]` = holding sites.
#[derive(Debug, Clone)]
pub struct Placement {
    sites_of: Vec<Vec<u32>>,
    num_sites: u32,
}

impl Placement {
    /// Place `objects` shards on `r` of `n` sites with the given strategy.
    /// `site_availability` is used by [`PlacementStrategy::BestSites`].
    pub fn new(
        strategy: PlacementStrategy,
        objects: usize,
        n: u32,
        r: u32,
        site_availability: &[f64],
        rng: &mut SimRng,
    ) -> Self {
        assert!(r >= 1 && r <= n && n > 0);
        assert_eq!(site_availability.len(), n as usize);
        let sites_of = match strategy {
            PlacementStrategy::Random => (0..objects)
                .map(|_| {
                    rng.sample_indices(n as usize, r as usize)
                        .into_iter()
                        .map(|s| s as u32)
                        .collect()
                })
                .collect(),
            PlacementStrategy::RoundRobin => {
                (0..objects).map(|i| (0..r).map(|j| (i as u32 + j) % n).collect()).collect()
            }
            PlacementStrategy::BestSites => {
                let mut order: Vec<u32> = (0..n).collect();
                // total_cmp: a NaN availability (corrupt telemetry) must
                // sort deterministically instead of panicking.
                order.sort_by(|&a, &b| {
                    site_availability[b as usize]
                        .total_cmp(&site_availability[a as usize])
                        .then(a.cmp(&b))
                });
                let best: Vec<u32> = order.into_iter().take(r as usize).collect();
                vec![best; objects]
            }
        };
        Placement { sites_of, num_sites: n }
    }

    /// Number of objects.
    pub fn objects(&self) -> usize {
        self.sites_of.len()
    }

    /// Storage overhead factor (replicas per object).
    pub fn storage_overhead(&self) -> f64 {
        if self.sites_of.is_empty() {
            return 0.0;
        }
        self.sites_of.iter().map(Vec::len).sum::<usize>() as f64 / self.sites_of.len() as f64
    }

    /// Given which sites are up, the fraction of objects reachable.
    fn objects_available(&self, up: &[bool]) -> f64 {
        assert_eq!(up.len(), self.num_sites as usize);
        if self.sites_of.is_empty() {
            return 1.0;
        }
        let ok = self.sites_of.iter().filter(|sites| sites.iter().any(|&s| up[s as usize])).count();
        ok as f64 / self.sites_of.len() as f64
    }

    /// Whether a full-coverage query (needs every object) succeeds.
    fn query_succeeds(&self, up: &[bool]) -> bool {
        self.objects_available(up) >= 1.0
    }

    /// Monte-Carlo estimate of `(mean object availability, query success
    /// probability)` under independent site availabilities.
    pub fn estimate(
        &self,
        site_availability: &[f64],
        trials: usize,
        rng: &mut SimRng,
    ) -> (f64, f64) {
        assert_eq!(site_availability.len(), self.num_sites as usize);
        let mut obj_acc = 0.0;
        let mut query_ok = 0usize;
        let mut up = vec![false; site_availability.len()];
        for _ in 0..trials {
            for (u, &p) in up.iter_mut().zip(site_availability) {
                *u = rng.chance(p);
            }
            obj_acc += self.objects_available(&up);
            query_ok += usize::from(self.query_succeeds(&up));
        }
        (obj_acc / trials as f64, query_ok as f64 / trials as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail(n: u32) -> Vec<f64> {
        (0..n).map(|i| 0.85 + 0.01 * f64::from(i % 10)).collect()
    }

    /// Number of objects stored per site.
    fn per_site_load(p: &Placement) -> Vec<usize> {
        let mut load = vec![0usize; p.num_sites as usize];
        for &s in p.sites_of.iter().flatten() {
            load[s as usize] += 1;
        }
        load
    }

    #[test]
    fn overhead_equals_r() {
        let mut rng = SimRng::new(1);
        for strat in
            [PlacementStrategy::Random, PlacementStrategy::RoundRobin, PlacementStrategy::BestSites]
        {
            let p = Placement::new(strat, 100, 8, 3, &avail(8), &mut rng);
            assert!((p.storage_overhead() - 3.0).abs() < 1e-12, "{strat:?}");
        }
    }

    #[test]
    fn round_robin_balances_load() {
        let mut rng = SimRng::new(2);
        let p = Placement::new(PlacementStrategy::RoundRobin, 80, 8, 2, &avail(8), &mut rng);
        let load = per_site_load(&p);
        assert!(load.iter().all(|&l| l == 20), "{load:?}");
    }

    #[test]
    fn best_sites_concentrates_load() {
        let mut rng = SimRng::new(3);
        let p = Placement::new(PlacementStrategy::BestSites, 80, 8, 2, &avail(8), &mut rng);
        let load = per_site_load(&p);
        assert_eq!(load.iter().filter(|&&l| l > 0).count(), 2);
    }

    #[test]
    fn more_replicas_more_available() {
        let mut rng = SimRng::new(4);
        let a = avail(10);
        let mut prev = 0.0;
        for r in 1..=4 {
            let p = Placement::new(PlacementStrategy::Random, 50, 10, r, &a, &mut rng);
            let (obj, _) = p.estimate(&a, 4000, &mut rng);
            assert!(obj >= prev - 0.01, "r={r} obj={obj} prev={prev}");
            prev = obj;
        }
        assert!(prev > 0.999, "r=4 availability {prev}");
    }

    #[test]
    fn query_success_needs_every_object() {
        let mut rng = SimRng::new(5);
        let a = avail(10);
        let p1 = Placement::new(PlacementStrategy::Random, 50, 10, 1, &a, &mut rng);
        let (obj, query) = p1.estimate(&a, 4000, &mut rng);
        // With r=1 and ~0.9 site availability, most objects survive, but a
        // full-coverage query needs *every* holding site up at once
        // (≈ prod(p_i) ≈ 0.33 here) — far below per-object availability.
        assert!(obj > 0.8);
        assert!(query < obj - 0.3, "query={query} obj={obj}");
    }

    #[test]
    fn all_sites_up_means_everything_available() {
        let mut rng = SimRng::new(6);
        let p = Placement::new(PlacementStrategy::Random, 20, 5, 2, &avail(5), &mut rng);
        let up = vec![true; 5];
        assert_eq!(p.objects_available(&up), 1.0);
        assert!(p.query_succeeds(&up));
    }

    #[test]
    fn all_sites_down_means_nothing_available() {
        let mut rng = SimRng::new(7);
        let p = Placement::new(PlacementStrategy::RoundRobin, 20, 5, 2, &avail(5), &mut rng);
        let up = vec![false; 5];
        assert_eq!(p.objects_available(&up), 0.0);
        assert!(!p.query_succeeds(&up));
    }

    #[test]
    fn nan_availability_does_not_panic_best_sites() {
        // Regression: ranking sites by availability used partial_cmp with
        // an expect(), so one NaN measurement panicked the placement. With
        // total_cmp the NaN site sorts deterministically and the placement
        // stays well-formed.
        let mut rng = SimRng::new(9);
        let mut a = avail(6);
        a[2] = f64::NAN;
        let p = Placement::new(PlacementStrategy::BestSites, 40, 6, 3, &a, &mut rng);
        assert_eq!(p.objects(), 40);
        for sites in &p.sites_of {
            let mut s = sites.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3, "3 distinct sites per object");
        }
        // Determinism across calls with the same inputs.
        let q = Placement::new(PlacementStrategy::BestSites, 40, 6, 3, &a, &mut SimRng::new(9));
        assert_eq!(p.sites_of, q.sites_of);
    }

    #[test]
    fn random_places_distinct_sites() {
        let mut rng = SimRng::new(8);
        let p = Placement::new(PlacementStrategy::Random, 200, 6, 3, &avail(6), &mut rng);
        for i in 0..p.objects() {
            let mut s = p.sites_of[i].clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3);
        }
    }
}
