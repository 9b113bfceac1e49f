//! Order statistics, the seeded arrival schedule and the output hash.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Whether a sample of `n` supports reporting percentile `q`: at least
/// ten samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// The percentile every timing of record is taken at. The box slows
/// every process by 40-50 % for seconds at a time (a spin loop with
/// none of this repository's code shows it), so the median of a
/// ten-second window falls in the fast or the slow mode by chance;
/// the 10th percentile is the time taken when the box is quiet.
pub const QUIET_Q: f64 = 0.10;

/// The `QUIET_Q` percentile of `xs`; 0 when empty.
pub fn quiet(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), QUIET_Q)
}

/// (q3 − q1) ÷ median; 0 for an empty or zero-median sample.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let m = percentile(&s, 0.5);
    if m > 0.0 {
        (percentile(&s, 0.75) - percentile(&s, 0.25)) / m
    } else {
        0.0
    }
}

/// Offsets in seconds, ascending, of `n` Poisson arrivals at `rate` per
/// second. The same seed replays the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0f64..1.0);
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// FNV-1a over 32-bit words: the hash of record for logits and counts.
#[derive(Clone, Copy)]
pub struct Hash(pub u64);

impl Hash {
    pub fn new() -> Self {
        Hash(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, w: u64) {
        self.word(w as u32);
        self.word((w >> 32) as u32);
    }

    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Bit patterns of a logit vector: what output checks compare.
pub fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50).to_bits(), 50f64.to_bits());
        assert_eq!(percentile(&v, 0.95).to_bits(), 95f64.to_bits());
        assert_eq!(percentile(&v, 0.99).to_bits(), 99f64.to_bits());
        assert_eq!(percentile(&v, 1.0).to_bits(), 100f64.to_bits());
        assert_eq!(percentile(&v[..1], 0.99).to_bits(), 1f64.to_bits());
        assert_eq!(percentile(&[], 0.5).to_bits(), 0f64.to_bits());
        assert_eq!(median(&[3.0, 1.0, 2.0]).to_bits(), 2f64.to_bits());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 is the 190th value: ten lie beyond it.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(1000, 0.99) && !supports(999, 0.99));
        assert!(supports(40, 0.75) && !supports(39, 0.75));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[]).to_bits(), 0f64.to_bits());
    }

    #[test]
    fn schedule_replays_for_a_seed_and_differs_for_another() {
        let a = poisson_schedule(7, 50.0, 2000);
        assert_eq!(bits64(&a), bits64(&poisson_schedule(7, 50.0, 2000)));
        assert_ne!(bits64(&a), bits64(&poisson_schedule(8, 50.0, 2000)));
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!((mean_gap - 0.02).abs() < 0.002, "mean gap {mean_gap}");
    }

    fn bits64(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn hash_depends_on_every_word() {
        let mut a = Hash::new();
        a.f32s(&[1.0, 2.0]);
        let mut b = Hash::new();
        b.f32s(&[1.0, 2.000_000_2]);
        assert_ne!(a.0, b.0);
    }
}
