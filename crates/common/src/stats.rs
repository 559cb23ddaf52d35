//! Measurement utilities: run statistics.

use std::time::Duration;

/// Outcome counters for one benchmark run (aggregated over worker threads).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Logic (user) aborts — completed decisions, not retried.
    pub user_aborts: u64,
    /// Concurrency-control aborts (each one is a retried attempt).
    pub cc_aborts: u64,
    /// Record accesses performed by committed transactions.
    pub accesses: u64,
    /// Wall-clock duration of the measured window.
    pub duration: Duration,
}

impl RunStats {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// Record accesses per second (the §4.1 microbenchmark metric:
    /// "20 million RMW operations per second").
    pub fn access_rate(&self) -> f64 {
        self.accesses as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// Fraction of attempts that ended in a concurrency-control abort.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.user_aborts + self.cc_aborts;
        if attempts == 0 {
            0.0
        } else {
            self.cc_aborts as f64 / attempts as f64
        }
    }

    /// Merge per-thread stats into a total (durations take the max — threads
    /// run the same wall-clock window).
    pub fn merge(&mut self, other: &RunStats) {
        self.committed += other.committed;
        self.user_aborts += other.user_aborts;
        self.cc_aborts += other.cc_aborts;
        self.accesses += other.accesses;
        self.duration = self.duration.max(other.duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let s = RunStats {
            committed: 1000,
            duration: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((s.throughput() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_counts_only_cc_aborts() {
        let s = RunStats {
            committed: 90,
            user_aborts: 5,
            cc_aborts: 5,
            ..Default::default()
        };
        assert!((s.abort_rate() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_zero_when_idle() {
        assert_eq!(RunStats::default().abort_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates_and_takes_max_duration() {
        let mut a = RunStats {
            committed: 10,
            duration: Duration::from_secs(1),
            ..Default::default()
        };
        let b = RunStats {
            committed: 20,
            cc_aborts: 3,
            duration: Duration::from_secs(2),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.committed, 30);
        assert_eq!(a.cc_aborts, 3);
        assert_eq!(a.duration, Duration::from_secs(2));
    }
}
