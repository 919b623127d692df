//! Order statistics over a run's samples.

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q` quantile (`0 < q < 1`) of `samples`, interpolating linearly between the
/// two order statistics around rank `q·(n−1)`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Nanosecond latencies in 1 ns buckets up to `LIMIT_NS`, plus an overflow count. A
/// fixed 256 KiB per reader, so recording costs no allocation inside a timed window
/// and the reader's own bookkeeping does not grow the measured RSS.
pub struct Histogram {
    counts: Vec<u32>,
    overflow: u64,
    max_ns: u64,
    total: u64,
}

impl Histogram {
    const LIMIT_NS: usize = 1 << 16;

    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::LIMIT_NS],
            overflow: 0,
            max_ns: 0,
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
        match self.counts.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.overflow += 1,
        }
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.total += other.total;
    }

    /// The `q` quantile in nanoseconds. Within a 1 ns bucket the value is spread
    /// uniformly, so the result is continuous in the sample counts instead of
    /// snapping to whole nanoseconds. Ranks in the overflow report the maximum.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (ns, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if count > 0 && (below + count) as f64 >= rank {
                return ns as f64 + (rank - below as f64) / count as f64;
            }
            below += count;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in [100, 100, 200, 200] {
            h.record(ns);
        }
        assert_eq!(h.quantile_ns(0.5), 101.0);
        assert_eq!(h.quantile_ns(1.0), 201.0);
        h.record(1 << 20);
        assert_eq!(h.quantile_ns(1.0), (1 << 20) as f64);
    }
}
