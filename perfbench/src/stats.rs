//! Small numeric helpers: a seeded generator, medians and the percentile
//! rule the benchmark reports latencies with.

/// SplitMix64: a tiny seeded generator, so every input the benchmark makes
/// is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, never zero, so `-ln(u)` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given rate (events per second).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q` in `[0, 1]`); NaN when `values` is empty, which the
/// report flags as a metric that was not measured.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p95 and lower percentiles (in steps of one point) that
/// still has at least ten samples above it, with the percentile used.
/// `None` when there are fewer than eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    (50..=95)
        .rev()
        .find(|&p| n as f64 * (1.0 - p as f64 / 100.0) >= 10.0)
        .map(|p| (p, quantile(values, p as f64 / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).map(|t| t.0), Some(95));
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).map(|t| t.0), Some(75));
        assert!(tail_percentile(&v[..10]).is_none());
    }
}
