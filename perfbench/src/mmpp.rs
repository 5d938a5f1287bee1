//! Bursty open-loop arrivals: a two-state Markov-modulated Poisson process.
//!
//! Plain Poisson arrivals have inter-arrival SCV (squared coefficient of
//! variation) exactly 1 and understate queueing; an MMPP's SCV exceeds 1
//! (Asanjarani & Nazarathy, arXiv:1802.08400). The process alternates
//! between a calm state and a burst state with exponential sojourns, and
//! emits Poisson arrivals at the current state's rate.

use crate::stats::Rng;

/// Rates of the two-state process, in events per second.
#[derive(Debug, Clone, Copy)]
pub struct Mmpp {
    /// Arrival rate in the calm state.
    pub calm_rate: f64,
    /// Arrival rate in the burst state.
    pub burst_rate: f64,
    /// Mean time spent in the calm state per visit, seconds.
    pub calm_sojourn_s: f64,
    /// Mean time spent in the burst state per visit, seconds.
    pub burst_sojourn_s: f64,
}

impl Mmpp {
    /// The `daemon-requests` load: a 20 requests/s mean (14/s calm for 2 s
    /// on average, 32/s bursts for 1 s). The burst rate stays below the
    /// roughly 45 requests/s a two-connection single-cell client reaches at
    /// the 44 ms per-request floor, so the baseline has no growing backlog.
    pub const DAEMON_REQUESTS: Mmpp = Mmpp {
        calm_rate: 8.0,
        burst_rate: 20.0,
        calm_sojourn_s: 0.5,
        burst_sojourn_s: 0.25,
    };

    /// Long-run mean arrival rate.
    pub fn mean_rate(&self) -> f64 {
        (self.calm_rate * self.calm_sojourn_s + self.burst_rate * self.burst_sojourn_s)
            / (self.calm_sojourn_s + self.burst_sojourn_s)
    }

    /// Exactly `mean_rate() * horizon_s` arrivals (rounded) in
    /// `[0, horizon_s)`: the process's first arrivals, time-scaled so the
    /// next one would fall on the horizon. This keeps the burst structure
    /// while removing the run-to-run spread of the arrival count.
    pub fn fixed_count(&self, seed: u64, horizon_s: f64) -> Vec<f64> {
        let count = (self.mean_rate() * horizon_s).round() as usize;
        let mut times = self.first(seed, count + 1);
        let scale = horizon_s / times[count];
        times.truncate(count);
        times.iter().map(|t| t * scale).collect()
    }

    /// The first `count` arrival times of the process. The initial state
    /// is drawn from the stationary distribution.
    fn first(&self, seed: u64, count: usize) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        let burst_share = self.burst_sojourn_s / (self.calm_sojourn_s + self.burst_sojourn_s);
        let mut burst = rng.unit() <= burst_share;
        let mut out = Vec::new();
        let mut now = 0.0;
        while out.len() < count {
            let (rate, sojourn) = if burst {
                (self.burst_rate, self.burst_sojourn_s)
            } else {
                (self.calm_rate, self.calm_sojourn_s)
            };
            let state_end = now + rng.exp(1.0 / sojourn);
            // Exponential gaps are memoryless, so restarting the arrival
            // clock at each state switch keeps the process exact.
            let mut t = now + rng.exp(rate);
            while t < state_end {
                out.push(t);
                if out.len() == count {
                    return out;
                }
                t += rng.exp(rate);
            }
            now = state_end;
            burst = !burst;
        }
        out
    }
}

/// Squared coefficient of variation of the gaps between `times`.
#[cfg(test)]
fn gap_scv(times: &[f64]) -> f64 {
    let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    var / (mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Mmpp = Mmpp::DAEMON_REQUESTS;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(M.fixed_count(7, 60.0), M.fixed_count(7, 60.0));
        assert_ne!(M.fixed_count(7, 60.0), M.fixed_count(8, 60.0));
    }

    #[test]
    fn schedules_hold_the_mean_rate_inside_the_horizon() {
        for seed in 0..20 {
            let a = M.fixed_count(seed, 20.0);
            assert_eq!(a.len(), 240);
            assert!(a.windows(2).all(|w| w[0] <= w[1]));
            assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        }
    }

    #[test]
    fn long_sample_is_burstier_than_poisson_at_the_stated_mean() {
        assert_eq!(M.mean_rate(), 12.0);
        let horizon = 20_000.0;
        let raw = M.first(11, 240_000);
        let rate = raw.len() as f64 / raw[raw.len() - 1];
        assert!((rate - 12.0).abs() < 0.3, "empirical rate {rate}");
        let scv = gap_scv(&raw);
        assert!(scv > 1.05, "empirical SCV {scv} must exceed 1");
        assert!(gap_scv(&M.fixed_count(11, horizon)) > 1.05);
        // A Poisson process at the same mean sits at SCV 1.
        let poisson = Mmpp {
            burst_rate: 12.0,
            calm_rate: 12.0,
            ..M
        };
        let p = gap_scv(&poisson.fixed_count(11, horizon));
        assert!((p - 1.0).abs() < 0.05, "Poisson SCV {p}");
    }
}
