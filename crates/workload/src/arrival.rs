//! Seeded open-loop arrival processes.
//!
//! An arrival process decides *when* requests enter the system,
//! independent of how fast the system serves them. All sampling is
//! sequential over one seeded ChaCha8 stream, so a given `(process,
//! seed, horizon)` triple yields the same arrival vector on every run
//! and on every thread — `ci.sh` runs `repro --quick workload` in two
//! processes at one seed and diffs the rows.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::SimTime;

/// Seconds per simulated day (the diurnal period).
const DAY_SECS: f64 = 86_400.0;

/// A request arrival process over simulated time.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate_per_sec`.
    Poisson {
        /// Mean arrival rate (requests per simulated second).
        rate_per_sec: f64,
    },
    /// Square-wave bursts: `peak_rate` for the first `burst_len` of
    /// every `period`, `base_rate` otherwise (Poisson within each
    /// regime).
    Bursty {
        /// Off-burst rate (requests per second).
        base_rate: f64,
        /// In-burst rate (requests per second).
        peak_rate: f64,
        /// Burst cycle length.
        period: SimTime,
        /// Burst duration at the start of each cycle.
        burst_len: SimTime,
    },
    /// A sinusoidal daily cycle calibrated so the rate integrates to
    /// `daily_volume` requests per simulated day: λ(t) =
    /// (volume/86400)·(1 − cos 2πt/day), peaking mid-day at twice the
    /// mean and bottoming out at zero at midnight.
    Diurnal {
        /// Expected requests per simulated day.
        daily_volume: u64,
    },
}

impl ArrivalProcess {
    /// Instantaneous rate (requests per second) at offset `t_secs`.
    pub(crate) fn rate_at(&self, t_secs: f64) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Bursty {
                base_rate,
                peak_rate,
                period,
                burst_len,
            } => {
                let period = period.as_millis() as f64 / 1_000.0;
                let burst = burst_len.as_millis() as f64 / 1_000.0;
                if period <= 0.0 {
                    return *base_rate;
                }
                let phase = t_secs % period;
                if phase < burst {
                    *peak_rate
                } else {
                    *base_rate
                }
            }
            ArrivalProcess::Diurnal { daily_volume } => {
                let mean = *daily_volume as f64 / DAY_SECS;
                let phase = (t_secs % DAY_SECS) / DAY_SECS;
                mean * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
            }
        }
    }

    /// An upper bound on [`ArrivalProcess::rate_at`] over all `t`.
    pub(crate) fn peak_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Bursty {
                base_rate,
                peak_rate,
                ..
            } => base_rate.max(*peak_rate),
            ArrivalProcess::Diurnal { daily_volume } => 2.0 * *daily_volume as f64 / DAY_SECS,
        }
    }

    /// Sample the arrival times in `[0, horizon)`, sorted ascending.
    ///
    /// Uses Lewis–Shedler thinning against `ArrivalProcess::peak_rate`:
    /// candidate gaps are exponential at the peak rate and each candidate
    /// survives with probability `rate_at(t) / peak`, which reduces to
    /// plain exponential gaps for the homogeneous case.
    pub fn sample(&self, seed: u64, horizon: SimTime) -> Vec<SimTime> {
        let peak = self.peak_rate();
        let horizon_secs = horizon.as_millis() as f64 / 1_000.0;
        let mut out = Vec::new();
        if peak <= 0.0 || horizon_secs <= 0.0 {
            return out;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut t = 0.0f64;
        loop {
            // Exponential gap at the peak rate; 1 − u avoids ln(0).
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / peak;
            if t >= horizon_secs {
                return out;
            }
            let keep: f64 = rng.gen();
            if keep * peak <= self.rate_at(t) {
                out.push(SimTime::from_millis((t * 1_000.0) as u64));
            }
        }
    }
}

/// Deal time-ordered `items` round-robin across `sessions` per-session
/// schedules (each stays sorted when the input is). Round-robin keeps
/// every session's load statistically identical, so a single slow
/// session cannot skew the tail.
pub fn split_round_robin<T>(items: Vec<T>, sessions: usize) -> Vec<Vec<T>> {
    assert!(sessions > 0, "need at least one session");
    let mut out: Vec<Vec<T>> = (0..sessions).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        out[i % sessions].push(item);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_close() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 50.0 };
        let arrivals = p.sample(7, SimTime::from_secs(200));
        let rate = arrivals.len() as f64 / 200.0;
        assert!((rate - 50.0).abs() < 5.0, "empirical rate {rate}");
    }

    #[test]
    fn samples_are_sorted_and_bounded() {
        let p = ArrivalProcess::Bursty {
            base_rate: 10.0,
            peak_rate: 100.0,
            period: SimTime::from_secs(10),
            burst_len: SimTime::from_secs(2),
        };
        let horizon = SimTime::from_secs(60);
        let arrivals = p.sample(3, horizon);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| t < horizon));
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let p = ArrivalProcess::Diurnal {
            daily_volume: 500_000,
        };
        let a = p.sample(11, SimTime::from_secs(3_600));
        let b = p.sample(11, SimTime::from_secs(3_600));
        assert_eq!(a, b);
    }
}
