//! Two-state (up/down) renewal failure processes, and the one outage
//! timeline every tier reads.
//!
//! Time-to-failure is Weibull (shape < 1 captures the bursty outage
//! behaviour of wide-area sites; shape = 1 is the memoryless baseline) and
//! time-to-repair is exponential. The process materializes its down
//! intervals over a horizon; a [`Timeline`] holds such a set, sorted and
//! disjoint, and answers every interval question asked of it — whether a
//! crawling agent, a query-processor replica or a whole site is down at an
//! instant, fails inside a window, or how available it was.

use dwr_sim::dist::{Exponential, Weibull};
use dwr_sim::{SimRng, SimTime, HOUR};

/// A closed-open down interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownInterval {
    /// When the outage starts.
    pub start: SimTime,
    /// When the repair completes.
    pub end: SimTime,
}

impl DownInterval {
    /// Length of the outage.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }

    /// Overlap of this interval with the window `[lo, hi)`.
    pub fn overlap(&self, lo: SimTime, hi: SimTime) -> SimTime {
        let s = self.start.max(lo);
        let e = self.end.min(hi);
        e.saturating_sub(s)
    }
}

/// The outages of one component — an agent, a replica, a site — over
/// `[0, horizon)`: sorted, disjoint, non-empty down intervals. Instants
/// outside every interval are up, and so is the repair instant itself.
#[derive(Debug, Clone)]
pub struct Timeline {
    downs: Vec<DownInterval>,
    horizon: SimTime,
}

impl Timeline {
    /// A timeline from down intervals in any order (generated, hand-placed
    /// or replayed). They are clipped to the horizon, empty ones are
    /// dropped, and overlapping or touching ones are merged, so every
    /// lookup answers for the union of the input.
    pub fn new(mut downs: Vec<DownInterval>, horizon: SimTime) -> Self {
        assert!(horizon > 0, "a timeline needs a non-empty horizon");
        for iv in &mut downs {
            iv.end = iv.end.min(horizon);
        }
        downs.retain(|iv| iv.start < iv.end);
        downs.sort_unstable_by_key(|iv| iv.start);
        let mut merged: Vec<DownInterval> = Vec::with_capacity(downs.len());
        for iv in downs {
            match merged.last_mut() {
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => merged.push(iv),
            }
        }
        Timeline { downs: merged, horizon }
    }

    /// A timeline that never goes down over `[0, horizon)`.
    pub fn always_up(horizon: SimTime) -> Self {
        Self::new(Vec::new(), horizon)
    }

    /// The down intervals (disjoint, ordered).
    pub fn down_intervals(&self) -> &[DownInterval] {
        &self.downs
    }

    /// The horizon the timeline covers.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The first outage ending after `t`: the only one that can cover `t`
    /// or intersect a window opening at `t`.
    fn next_outage(&self, t: SimTime) -> Option<&DownInterval> {
        self.downs.get(self.downs.partition_point(|iv| iv.end <= t))
    }

    /// Whether the instant `t` falls inside an outage.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.next_outage(t).is_some_and(|iv| iv.start <= t)
    }

    /// Whether the instant `t` falls outside every outage.
    pub fn is_up(&self, t: SimTime) -> bool {
        !self.is_down(t)
    }

    /// Whether any outage intersects the window `[lo, hi)` — i.e. whether
    /// work occupying the component for that window is lost, even when
    /// the component was up as it started.
    pub fn fails_during(&self, lo: SimTime, hi: SimTime) -> bool {
        self.next_outage(lo).is_some_and(|iv| iv.start < hi)
    }

    /// Total downtime over the horizon.
    pub fn downtime(&self) -> SimTime {
        self.downs.iter().map(DownInterval::duration).sum()
    }

    /// Availability over the window `[lo, hi)`.
    pub fn availability_in(&self, lo: SimTime, hi: SimTime) -> f64 {
        assert!(hi > lo);
        let down: u64 = self.downs.iter().map(|i| i.overlap(lo, hi)).sum();
        1.0 - down as f64 / (hi - lo) as f64
    }

    /// Availability over the whole horizon.
    pub fn availability(&self) -> f64 {
        self.availability_in(0, self.horizon)
    }
}

/// An alternating up/down renewal process.
#[derive(Debug, Clone)]
pub struct UpDownProcess {
    /// Weibull shape of time-to-failure.
    pub ttf_shape: f64,
    /// Weibull scale of time-to-failure (µs).
    pub ttf_scale: f64,
    /// Mean time-to-repair (µs).
    pub mttr: f64,
}

impl UpDownProcess {
    /// Create a process with exponential (shape 1) failures.
    pub fn exponential(mtbf: SimTime, mttr: SimTime) -> Self {
        assert!(mtbf > 0 && mttr > 0);
        UpDownProcess { ttf_shape: 1.0, ttf_scale: mtbf as f64, mttr: mttr as f64 }
    }

    /// Create a bursty process (Weibull shape < 1) with the given *mean*
    /// time between failures.
    pub fn bursty(mtbf: SimTime, mttr: SimTime, shape: f64) -> Self {
        assert!(mtbf > 0 && mttr > 0 && shape > 0.0);
        // Mean of Weibull(k, λ) = λ Γ(1 + 1/k); solve scale for the mean.
        let scale = mtbf as f64 / gamma_1p(1.0 / shape);
        UpDownProcess { ttf_shape: shape, ttf_scale: scale, mttr: mttr as f64 }
    }

    /// Materialize all down intervals in `[0, horizon)`, in order.
    pub fn down_intervals(&self, horizon: SimTime, rng: &mut SimRng) -> Vec<DownInterval> {
        let ttf = Weibull::new(self.ttf_shape, self.ttf_scale);
        let ttr = Exponential::with_mean(self.mttr);
        let mut t = 0f64;
        let mut out = Vec::new();
        loop {
            t += ttf.sample(rng).max(1.0);
            if t >= horizon as f64 {
                break;
            }
            let start = t as SimTime;
            t += ttr.sample(rng).max(1.0);
            let end = (t as SimTime).min(horizon);
            out.push(DownInterval { start, end });
            if t >= horizon as f64 {
                break;
            }
        }
        out
    }

    /// Long-run availability `MTBF / (MTBF + MTTR)`.
    pub fn steady_state_availability(&self) -> f64 {
        let mtbf = self.ttf_scale * gamma_1p(1.0 / self.ttf_shape);
        mtbf / (mtbf + self.mttr)
    }

    /// A site-like default: about one outage per month, mean repair 6 h —
    /// calibrated so that roughly 10 of 16 sites see an outage in any
    /// month, matching the Figure 5 anchor.
    pub fn birn_like() -> Self {
        Self::exponential(30 * 24 * HOUR, 6 * HOUR)
    }

    /// The same process with both time scales multiplied by `factor`
    /// (shape preserved). `factor < 1` accelerates churn — failures *and*
    /// repairs come proportionally sooner, so the steady-state
    /// availability is unchanged while the *rate* of membership events
    /// scales by `1 / factor`. Churn-rate sweeps (`exp_crawl_faults`)
    /// use this to vary how often agents flap without also changing what
    /// fraction of the fleet is down on average.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        UpDownProcess {
            ttf_shape: self.ttf_shape,
            ttf_scale: self.ttf_scale * factor,
            mttr: self.mttr * factor,
        }
    }
}

/// Γ(1 + x) for x in (0, ~10] via the Lanczos approximation — enough
/// precision for mean-matching Weibull scales.
fn gamma_1p(x: f64) -> f64 {
    // Lanczos g=7, n=9 coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let z = x; // computing Γ(z+1) with z = x
    let mut a = C[0];
    for (i, &c) in C.iter().enumerate().skip(1) {
        a += c / (z + i as f64);
    }
    let t = z + G + 0.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(z + 0.5) * (-t).exp() * a
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::DAY;

    #[test]
    fn gamma_known_values() {
        assert!((gamma_1p(1.0) - 1.0).abs() < 1e-9); // Γ(2) = 1
        assert!((gamma_1p(2.0) - 2.0).abs() < 1e-9); // Γ(3) = 2
        assert!((gamma_1p(0.5) - 0.886_226_925_452_758).abs() < 1e-9); // Γ(1.5)
    }

    #[test]
    fn intervals_ordered_and_bounded() {
        let p = UpDownProcess::birn_like();
        let mut rng = SimRng::new(1);
        let ivs = p.down_intervals(365 * DAY, &mut rng);
        assert!(!ivs.is_empty());
        for w in ivs.windows(2) {
            assert!(w[0].end <= w[1].start, "overlapping outages");
        }
        assert!(ivs.iter().all(|i| i.end <= 365 * DAY && i.start < i.end));
    }

    #[test]
    fn steady_state_matches_empirical() {
        let p = UpDownProcess::exponential(10 * DAY, DAY);
        let mut rng = SimRng::new(2);
        let horizon = 4_000 * DAY;
        let down: u64 = p.down_intervals(horizon, &mut rng).iter().map(|i| i.duration()).sum();
        let measured = 1.0 - down as f64 / horizon as f64;
        let theory = p.steady_state_availability();
        assert!((theory - 10.0 / 11.0).abs() < 1e-9);
        assert!((measured - theory).abs() < 0.01, "measured={measured} theory={theory}");
    }

    #[test]
    fn bursty_mean_preserved() {
        let p = UpDownProcess::bursty(10 * DAY, DAY, 0.6);
        let mut rng = SimRng::new(3);
        let ivs = p.down_intervals(5_000 * DAY, &mut rng);
        // Mean up-time between failures ≈ 10 days.
        let mut prev_end = 0u64;
        let mut gaps = Vec::new();
        for i in &ivs {
            gaps.push((i.start - prev_end) as f64);
            prev_end = i.end;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean / DAY as f64 - 10.0).abs() < 1.0, "mean gap {} days", mean / DAY as f64);
    }

    fn iv(start: SimTime, end: SimTime) -> DownInterval {
        DownInterval { start, end }
    }

    #[test]
    fn timeline_lookups_are_closed_open() {
        let tl = Timeline::new(vec![iv(10, 20), iv(40, 50)], 100);
        assert!(tl.is_up(9) && tl.is_down(10) && tl.is_down(19));
        assert!(tl.is_up(20), "closed-open: the repair instant is up");
        assert!(tl.is_up(30) && tl.is_down(45) && tl.is_up(99));
        assert_eq!(tl.downtime(), 20);
        assert!((tl.availability() - 0.8).abs() < 1e-12);
        // Window availabilities add up to the whole horizon's.
        let halves = tl.availability_in(0, 50) + tl.availability_in(50, 100);
        assert!((halves / 2.0 - tl.availability()).abs() < 1e-12);

        let up = Timeline::always_up(100);
        assert!(up.is_up(0) && up.is_up(99));
        assert!(!up.fails_during(0, 100));
        assert_eq!((up.downtime(), up.availability()), (0, 1.0));
    }

    #[test]
    fn timeline_fails_during_any_intersecting_window() {
        let tl = Timeline::new(vec![iv(100, 200), iv(500, 600)], 1000);
        assert!(tl.fails_during(90, 110), "outage starts inside the window");
        assert!(tl.fails_during(150, 160), "window entirely inside the outage");
        assert!(tl.fails_during(190, 260), "window starts inside the outage");
        assert!(tl.fails_during(0, 1000), "window spans both outages");
        assert!(!tl.fails_during(0, 100), "window closes as the outage starts");
        assert!(!tl.fails_during(200, 300), "window opens at repair");
        assert!(!tl.fails_during(300, 500), "window between outages");
        assert!(!tl.fails_during(600, 1000), "nothing after the last repair");
    }

    #[test]
    fn timeline_normalises_hand_placed_input() {
        // Unsorted, overlapping, touching, empty and horizon-crossing.
        let tl = Timeline::new(
            vec![iv(50, 60), iv(10, 20), iv(15, 25), iv(25, 30), iv(40, 40), iv(90, 300)],
            100,
        );
        assert_eq!(tl.down_intervals(), &[iv(10, 30), iv(50, 60), iv(90, 100)]);
        assert!(tl.is_up(9) && tl.is_down(10) && tl.is_down(24) && tl.is_down(29));
        assert!(tl.is_up(30) && tl.is_up(40) && tl.is_down(55) && tl.is_down(99));
        assert!(tl.fails_during(28, 29) && !tl.fails_during(30, 50));
        assert_eq!(tl.downtime(), 40);
        // Generated intervals are already normal: the identity.
        let gen = UpDownProcess::birn_like().down_intervals(365 * DAY, &mut SimRng::new(1));
        assert_eq!(Timeline::new(gen.clone(), 365 * DAY).down_intervals(), &gen[..]);
    }

    #[test]
    fn timeline_agrees_with_its_intervals() {
        let horizon = 90 * DAY;
        let tl = Timeline::new(
            UpDownProcess::exponential(5 * DAY, DAY).down_intervals(horizon, &mut SimRng::new(5)),
            horizon,
        );
        assert!(!tl.down_intervals().is_empty());
        for d in tl.down_intervals() {
            assert!(tl.is_up(d.start - 1) && tl.is_down(d.start));
            assert!(tl.is_down(d.end - 1) && (d.end == horizon || tl.is_up(d.end)));
            assert!(tl.fails_during(d.start - 1, d.start + 1) && !tl.fails_during(d.end, d.end));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty horizon")]
    fn timeline_rejects_an_empty_horizon() {
        Timeline::new(vec![iv(0, 1)], 0);
    }

    #[test]
    fn overlap_computation() {
        let iv = DownInterval { start: 10, end: 20 };
        assert_eq!(iv.overlap(0, 100), 10);
        assert_eq!(iv.overlap(15, 100), 5);
        assert_eq!(iv.overlap(0, 15), 5);
        assert_eq!(iv.overlap(12, 18), 6);
        assert_eq!(iv.overlap(20, 30), 0);
        assert_eq!(iv.overlap(0, 10), 0);
    }

    #[test]
    fn scaled_preserves_availability_but_multiplies_event_rate() {
        let p = UpDownProcess::exponential(10 * DAY, DAY);
        let fast = p.scaled(0.25);
        assert!(
            (p.steady_state_availability() - fast.steady_state_availability()).abs() < 1e-12,
            "scaling both time constants must not change availability"
        );
        let horizon = 2_000 * DAY;
        let slow_n = p.down_intervals(horizon, &mut SimRng::new(4)).len() as f64;
        let fast_n = fast.down_intervals(horizon, &mut SimRng::new(4)).len() as f64;
        assert!(
            (fast_n / slow_n - 4.0).abs() < 0.5,
            "quartered time scale ⇒ ~4x the outages: slow={slow_n} fast={fast_n}"
        );
    }

    #[test]
    fn birn_like_outage_frequency() {
        // ~10 of 16 sites with ≥1 outage per month ⇒ per-site monthly
        // outage probability ≈ 0.63.
        let p = UpDownProcess::birn_like();
        let months = 400u64;
        let mut with_outage = 0u64;
        for m in 0..months {
            let ivs = p.down_intervals(30 * DAY, &mut SimRng::new(1000 + m));
            if !ivs.is_empty() {
                with_outage += 1;
            }
        }
        let frac = with_outage as f64 / months as f64;
        assert!((frac - 0.63).abs() < 0.08, "frac={frac}");
    }
}
