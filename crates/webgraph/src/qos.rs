//! Web-server quality-of-service model.
//!
//! "Servers on the Web are often slow, and some go off-line intermittently
//! or present other transient failures. A distributed Web crawler must be
//! tolerant to transient failures and slow links to be able to cover the
//! Web to a large extent" (Section 3). Each host gets a speed class and an
//! intermittent-outage process; fetches observe a response time or a
//! transient failure.

use crate::graph::HostId;
use dwr_sim::dist::{Exponential, LogNormal};
use dwr_sim::{SimRng, SimTime, MILLISECOND, SECOND};

/// Outcome of attempting to fetch a page from a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Server answered after the given service time (µs).
    Ok(SimTime),
    /// Transient failure (connection refused / timeout); retry later.
    TransientFailure,
}

/// Per-host QoS parameters.
#[derive(Debug, Clone, Copy)]
struct HostQos {
    /// Multiplier on the base service time (1.0 = normal, 10.0 = very slow).
    slowness: f32,
    /// Probability that any given request hits a transient failure window.
    failure_prob: f32,
}

/// QoS model over all hosts.
#[derive(Debug)]
pub struct QosModel {
    hosts: Vec<HostQos>,
    base_service: LogNormal,
    rng: SimRng,
}

/// Configuration of the QoS model.
#[derive(Debug, Clone, Copy)]
pub struct QosConfig {
    /// Fraction of hosts that are "slow" (high service-time multiplier).
    pub slow_fraction: f64,
    /// Service-time multiplier of slow hosts.
    pub slow_factor: f64,
    /// Fraction of hosts that fail intermittently.
    pub flaky_fraction: f64,
    /// Per-request failure probability of flaky hosts.
    pub flaky_failure_prob: f64,
    /// Mean service time of a normal host, in µs.
    pub mean_service_us: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            slow_fraction: 0.1,
            slow_factor: 10.0,
            flaky_fraction: 0.05,
            flaky_failure_prob: 0.3,
            mean_service_us: 200.0 * MILLISECOND as f64,
        }
    }
}

impl QosModel {
    /// Build the model for `num_hosts` hosts; host classes are assigned
    /// deterministically from the seed.
    pub fn new(num_hosts: usize, cfg: QosConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork_named("qos-assign");
        let hosts = (0..num_hosts)
            .map(|_| {
                let slowness =
                    if rng.chance(cfg.slow_fraction) { cfg.slow_factor as f32 } else { 1.0 };
                let failure_prob = if rng.chance(cfg.flaky_fraction) {
                    cfg.flaky_failure_prob as f32
                } else {
                    0.0
                };
                HostQos { slowness, failure_prob }
            })
            .collect();
        QosModel {
            hosts,
            base_service: LogNormal::from_mean_cv(cfg.mean_service_us, 1.0),
            rng: SimRng::new(seed).fork_named("qos-draws"),
        }
    }

    /// Simulate one fetch of `bytes` from `host`.
    ///
    /// The service time covers server think time plus transfer at a nominal
    /// 1 MB/s consumer uplink, scaled by the host's slowness class.
    pub fn fetch(&mut self, host: HostId, bytes: u64) -> FetchOutcome {
        let q = self.hosts[host.0 as usize];
        if self.rng.chance(f64::from(q.failure_prob)) {
            return FetchOutcome::TransientFailure;
        }
        let think = self.base_service.sample(&mut self.rng);
        let transfer = bytes as f64 / 1_000_000.0 * SECOND as f64;
        FetchOutcome::Ok(((think + transfer) * f64::from(q.slowness)) as SimTime)
    }

    /// Number of modelled hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Suggested retry back-off after a transient failure: exponential with
    /// a 30-second mean.
    pub fn retry_backoff(&mut self) -> SimTime {
        Exponential::with_mean(30.0 * SECOND as f64).sample(&mut self.rng) as SimTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_fractions_roughly_respected() {
        let cfg = QosConfig::default();
        let m = QosModel::new(10_000, cfg, 1);
        let slow = m.hosts.iter().filter(|q| q.slowness > 1.0).count();
        let flaky = m.hosts.iter().filter(|q| q.failure_prob > 0.0).count();
        assert!((slow as f64 / 10_000.0 - 0.1).abs() < 0.02);
        assert!((flaky as f64 / 10_000.0 - 0.05).abs() < 0.02);
    }

    #[test]
    fn reliable_host_never_fails() {
        let cfg = QosConfig { flaky_fraction: 0.0, ..QosConfig::default() };
        let mut m = QosModel::new(10, cfg, 2);
        for _ in 0..1000 {
            assert!(matches!(m.fetch(HostId(0), 1000), FetchOutcome::Ok(_)));
        }
    }

    #[test]
    fn flaky_host_fails_sometimes() {
        let cfg =
            QosConfig { flaky_fraction: 1.0, flaky_failure_prob: 0.5, ..QosConfig::default() };
        let mut m = QosModel::new(1, cfg, 3);
        let failures = (0..1000)
            .filter(|_| matches!(m.fetch(HostId(0), 1000), FetchOutcome::TransientFailure))
            .count();
        assert!((failures as f64 / 1000.0 - 0.5).abs() < 0.07, "failures={failures}");
    }

    #[test]
    fn slow_hosts_are_slower() {
        let cfg = QosConfig { slow_fraction: 0.5, flaky_fraction: 0.0, ..QosConfig::default() };
        let mut m = QosModel::new(1000, cfg, 4);
        let mut slow_sum = 0.0;
        let mut fast_sum = 0.0;
        let mut slow_n = 0;
        let mut fast_n = 0;
        for h in 0..1000u32 {
            if let FetchOutcome::Ok(t) = m.fetch(HostId(h), 10_000) {
                if m.hosts[h as usize].slowness > 1.0 {
                    slow_sum += t as f64;
                    slow_n += 1;
                } else {
                    fast_sum += t as f64;
                    fast_n += 1;
                }
            }
        }
        assert!(slow_n > 100 && fast_n > 100);
        assert!(slow_sum / slow_n as f64 > 3.0 * (fast_sum / fast_n as f64));
    }

    #[test]
    fn larger_pages_take_longer_on_average() {
        let cfg = QosConfig { slow_fraction: 0.0, flaky_fraction: 0.0, ..QosConfig::default() };
        let mut m = QosModel::new(1, cfg, 5);
        let avg = |m: &mut QosModel, bytes: u64| -> f64 {
            let mut s = 0.0;
            for _ in 0..500 {
                if let FetchOutcome::Ok(t) = m.fetch(HostId(0), bytes) {
                    s += t as f64;
                }
            }
            s / 500.0
        };
        let small = avg(&mut m, 1_000);
        let large = avg(&mut m, 5_000_000);
        assert!(large > small * 2.0, "small={small} large={large}");
    }

    #[test]
    fn backoff_positive() {
        let mut m = QosModel::new(1, QosConfig::default(), 6);
        for _ in 0..100 {
            assert!(m.retry_backoff() > 0);
        }
    }
}
