//! Small statistics helpers: a seeded generator, percentiles, and the
//! Prometheus text parsing the `metrics` op needs.

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one sub-stream (connection, permutation, ...).
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort a copy and take its median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// One histogram from a Prometheus text scrape: cumulative counts per
/// `le` bound, plus the `+Inf` total.
#[derive(Debug, Clone, Default)]
pub struct PromHistogram {
    buckets: Vec<(u64, u64)>,
    total: u64,
}

impl PromHistogram {
    /// Parse the `<name>_bucket{le="..."}` series out of `text`.
    pub fn parse(text: &str, name: &str) -> PromHistogram {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut h = PromHistogram::default();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(&prefix) else {
                continue;
            };
            let Some((le, count)) = rest.split_once("\"} ") else {
                continue;
            };
            let Ok(count) = count.trim().parse::<u64>() else {
                continue;
            };
            match le {
                "+Inf" => h.total = count,
                _ => {
                    if let Ok(le) = le.parse::<u64>() {
                        h.buckets.push((le, count));
                    }
                }
            }
        }
        h
    }

    /// Cumulative count at bound `le`. The scrape lists buckets only up
    /// to the highest occupied one, so any higher bound holds them all.
    fn cumulative(&self, le: u64) -> u64 {
        self.buckets
            .iter()
            .rev()
            .find(|(b, _)| *b <= le)
            .map(|(b, c)| if *b == le { *c } else { self.total })
            .unwrap_or(0)
            .min(self.total)
    }

    /// Percentile of the observations recorded between two scrapes,
    /// as the bucket's upper bound (the daemon's own convention).
    pub fn delta_percentile(before: &PromHistogram, after: &PromHistogram, p: f64) -> f64 {
        let count = after.total.saturating_sub(before.total);
        if count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
        for (le, cum) in &after.buckets {
            if cum.saturating_sub(before.cumulative(*le)) >= rank {
                return *le as f64;
            }
        }
        after
            .buckets
            .last()
            .map(|(le, _)| *le as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_deltas_ignore_earlier_observations() {
        let before = "x_bucket{le=\"1\"} 5\nx_bucket{le=\"+Inf\"} 5\n";
        let after = "x_bucket{le=\"1\"} 5\nx_bucket{le=\"3\"} 5\nx_bucket{le=\"7\"} 9\n\
                     x_bucket{le=\"+Inf\"} 9\n";
        let (b, a) = (
            PromHistogram::parse(before, "x"),
            PromHistogram::parse(after, "x"),
        );
        assert_eq!(PromHistogram::delta_percentile(&b, &a, 50.0), 7.0);
        assert_eq!(PromHistogram::delta_percentile(&a, &a, 50.0), 0.0);
    }

    #[test]
    fn rng_streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
    }
}
