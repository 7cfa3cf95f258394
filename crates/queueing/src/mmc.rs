//! Exact M/M/1 and M/M/c queueing results.
//!
//! These closed forms serve two purposes: they validate the discrete-event
//! simulator (tests drive simulated M/M/1 traffic through `dwr_sim` and
//! compare against `MM1`), and they provide the service-time building
//! blocks of the engine-level analytical model.

/// An M/M/1 queue: Poisson arrivals at rate `lambda`, exponential service
/// at rate `mu`, one server.
#[derive(Debug, Clone, Copy)]
pub struct MM1 {
    /// Arrival rate (per second).
    pub lambda: f64,
    /// Service rate (per second).
    pub mu: f64,
}

impl MM1 {
    /// Create a model; stability requires `lambda < mu`.
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(lambda > 0.0 && mu > 0.0);
        MM1 { lambda, mu }
    }

    /// Utilization ρ = λ/μ.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Whether the queue is stable (ρ < 1).
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Mean response time `W = 1/(μ-λ)` (requires stability).
    pub fn mean_response_time(&self) -> f64 {
        assert!(self.is_stable(), "unstable queue has no steady state");
        1.0 / (self.mu - self.lambda)
    }

    /// Mean waiting time in queue `Wq = ρ/(μ-λ)`.
    pub fn mean_wait(&self) -> f64 {
        assert!(self.is_stable());
        self.utilization() / (self.mu - self.lambda)
    }
}

/// An M/M/c queue: Poisson arrivals, exponential service, `c` servers.
#[derive(Debug, Clone, Copy)]
pub struct MMc {
    /// Arrival rate (per second).
    pub lambda: f64,
    /// Per-server service rate (per second).
    pub mu: f64,
    /// Number of servers.
    pub c: u32,
}

impl MMc {
    /// Create a model.
    pub fn new(lambda: f64, mu: f64, c: u32) -> Self {
        assert!(lambda > 0.0 && mu > 0.0 && c > 0);
        MMc { lambda, mu, c }
    }

    /// Offered load `a = λ/μ` in Erlangs.
    fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Per-server utilization `ρ = λ/(cμ)`.
    pub fn utilization(&self) -> f64 {
        self.offered_load() / f64::from(self.c)
    }

    /// Whether the queue is stable (ρ < 1).
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Erlang-C: probability an arriving job waits.
    ///
    /// Computed with the numerically stable iterative form of the Erlang-B
    /// recursion, then converted to Erlang-C.
    pub fn prob_wait(&self) -> f64 {
        assert!(self.is_stable());
        let a = self.offered_load();
        // Erlang-B recursion: B(0) = 1; B(k) = a·B(k-1) / (k + a·B(k-1)).
        let mut b = 1.0;
        for k in 1..=self.c {
            b = a * b / (f64::from(k) + a * b);
        }
        let rho = self.utilization();
        b / (1.0 - rho + rho * b)
    }

    /// Mean waiting time in queue.
    pub fn mean_wait(&self) -> f64 {
        assert!(self.is_stable());
        self.prob_wait() / (f64::from(self.c) * self.mu - self.lambda)
    }

    /// Mean response time (wait + service).
    pub fn mean_response_time(&self) -> f64 {
        self.mean_wait() + 1.0 / self.mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::dist::Exponential;
    use dwr_sim::SimRng;

    #[test]
    fn mm1_closed_forms() {
        let q = MM1::new(8.0, 10.0);
        assert!((q.utilization() - 0.8).abs() < 1e-12);
        assert!((q.mean_response_time() - 0.5).abs() < 1e-12);
        assert!((q.mean_wait() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no steady state")]
    fn mm1_unstable_panics() {
        MM1::new(10.0, 10.0).mean_response_time();
    }

    #[test]
    fn mmc_reduces_to_mm1() {
        let c1 = MMc::new(8.0, 10.0, 1);
        let m = MM1::new(8.0, 10.0);
        assert!((c1.mean_wait() - m.mean_wait()).abs() < 1e-9);
        // Erlang-C with one server = ρ.
        assert!((c1.prob_wait() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn more_servers_less_waiting() {
        let w2 = MMc::new(15.0, 10.0, 2).mean_wait();
        let w4 = MMc::new(15.0, 10.0, 4).mean_wait();
        let w8 = MMc::new(15.0, 10.0, 8).mean_wait();
        assert!(w2 > w4 && w4 > w8);
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic check: a = 2 Erlangs, c = 3 → C(3, 2) ≈ 0.4444.
        let q = MMc::new(2.0, 1.0, 3);
        assert!((q.prob_wait() - 4.0 / 9.0).abs() < 1e-9, "got {}", q.prob_wait());
    }

    /// Drive a simulated M/M/1 queue through the event kernel and check the
    /// measured mean response time against the closed form — the kernel's
    /// end-to-end validation.
    #[test]
    fn simulated_mm1_matches_theory() {
        let lambda = 8.0;
        let mu = 10.0;
        let mut rng = SimRng::new(99);
        let arr = Exponential::new(lambda);
        let srv = Exponential::new(mu);
        let n = 200_000;
        let mut t_arrive = 0.0f64;
        let mut server_free = 0.0f64;
        let mut total_resp = 0.0f64;
        for _ in 0..n {
            t_arrive += arr.sample(&mut rng);
            let start = t_arrive.max(server_free);
            let done = start + srv.sample(&mut rng);
            server_free = done;
            total_resp += done - t_arrive;
        }
        let measured = total_resp / n as f64;
        let theory = MM1::new(lambda, mu).mean_response_time();
        assert!((measured - theory).abs() / theory < 0.05, "measured={measured} theory={theory}");
    }
}
