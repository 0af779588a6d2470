//! Online statistics and load-balance summaries.
//!
//! These are used throughout the evaluation harness: per-benchmark task-size
//! statistics (Table II / Table III) and how evenly work spreads over task
//! graphs or nodes.

use serde::{Deserialize, Serialize};

/// Numerically stable online mean / variance / min / max accumulator
/// (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A load-balance summary over a set of parallel units (e.g. how evenly the
/// distribution function spreads addresses over task graphs — the fairness
/// property of §IV-B and Fig. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadBalance {
    /// Item count per unit.
    pub per_unit: Vec<u64>,
}

impl LoadBalance {
    /// Creates a summary from per-unit counts.
    pub fn new(per_unit: Vec<u64>) -> Self {
        LoadBalance { per_unit }
    }

    /// Total items distributed.
    pub fn total(&self) -> u64 {
        self.per_unit.iter().sum()
    }

    /// Ratio of the most-loaded unit to the ideal (total / units).
    /// 1.0 is perfectly balanced; `units` is the pathological worst case where
    /// everything landed on a single unit.
    pub fn imbalance(&self) -> f64 {
        let total = self.total();
        if total == 0 || self.per_unit.is_empty() {
            return 1.0;
        }
        let ideal = total as f64 / self.per_unit.len() as f64;
        let max = *self.per_unit.iter().max().unwrap() as f64;
        max / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential_push() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..40] {
            a.push(x);
        }
        for &x in &data[40..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn load_balance_imbalance_metrics() {
        let even = LoadBalance::new(vec![100, 100, 100, 100]);
        assert!((even.imbalance() - 1.0).abs() < 1e-12);

        let worst = LoadBalance::new(vec![400, 0, 0, 0]);
        assert!((worst.imbalance() - 4.0).abs() < 1e-12);
        assert_eq!(worst.total(), 400);

        let empty = LoadBalance::new(vec![0, 0]);
        assert_eq!(empty.imbalance(), 1.0);
    }
}
